"""Command-line surface: synthetic dataset emission, occupancy/label rendering,
gradient checks, toy training, and evaluation of a training checkpoint.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 verification
failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from . import dataio, labels as lab, occupancy as occ, render, train
from .config import DEFAULT_CLASSMAP, RunConfig, echo_config, load_run_config, resolve_text
from .errors import ConfigError, DivergenceError, FormatError, PillarSegError
from .flat import Count, read_value
from .model import PillarSegNet, load_checkpoint, save_checkpoint

USAGE = """\
usage: pillarseg <subcommand> [--config PATH] [--out DIR] [--key value ...]

subcommands:
  synth      emit a synthetic dataset (scans, labels, poses, class map)
  occupancy  render observability and visibility maps for a scan
  labels     generate sparse or dense top-view label maps
  gradcheck  run the gradient verification suite (takes only --out)
  train      toy training on synthetic scenes
  eval       evaluate a checkpoint and render predictions

common flags: --config PATH, --out DIR, --seed N, plus any config key as an
override, e.g. --epochs 3 --unet_widths 16 32
"""


def _split_overrides(tokens: list[str]) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    key = None
    for token in tokens:
        if token.startswith("--"):
            key = token[2:]
            if not key:
                raise ConfigError("empty override key")
            out[key] = []
        elif key is None:
            raise ConfigError(f"unexpected argument {token!r}")
        else:
            out[key].append(token)
    for key, values in out.items():
        if not values:
            raise ConfigError(f"override --{key} needs a value")
    return out


def _pop(overrides: dict[str, list[str]], name: str, hint, default=None):
    """Remove flag ``--name`` from the overrides and read its value by type
    hint ``hint``, or give ``default`` when the flag is absent."""
    if name not in overrides:
        return default
    return read_value(name, overrides.pop(name), hint)


def _write_run_log(out_dir: Path, cfg: RunConfig, extra_lines: list[str]) -> None:
    lines = ["# effective configuration", echo_config(cfg.raw).rstrip("\n"),
             "# run log"] + extra_lines
    (out_dir / "run.log").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(overrides: dict[str, list[str]]) -> int:
    out_dir = _pop(overrides, "out", Path, Path("synth_out"))
    frames = _pop(overrides, "frames", Count, 8)
    cfg = load_run_config(_pop(overrides, "config", str), overrides)
    scans_dir = out_dir / "velodyne"
    labels_dir = out_dir / "labels"
    scans_dir.mkdir(parents=True, exist_ok=True)
    labels_dir.mkdir(parents=True, exist_ok=True)

    poses = []
    for i in range(frames):
        cloud, classes = dataio.generate_synthetic_frame(
            train.frame_seed(cfg.seed, i), cfg.scene, cfg.class_map)
        (scans_dir / f"{i:06d}.bin").write_bytes(dataio.serialize_point_cloud(cloud))
        (labels_dir / f"{i:06d}.label").write_bytes(
            dataio.serialize_labels(classes.astype(np.uint32)))
        # each frame is its own world; the poses only step 2 m along x
        poses.append(dataio.Pose(np.eye(3), np.array([i * 2.0, 0.0, 0.0])))
    (out_dir / "poses.txt").write_text(dataio.serialize_poses(poses))
    map_name = cfg.raw.get("classmap", [DEFAULT_CLASSMAP])[0]
    (out_dir / "classmap.map").write_text(resolve_text(map_name))
    _write_run_log(out_dir, cfg, [f"frames {frames}"])
    print(f"wrote {frames} synthetic frames to {out_dir}")
    return 0


def _frame_paths(directory: Path, suffix: str) -> list[Path]:
    if not directory.is_dir():
        raise FormatError(f"no such directory: {directory}")
    return sorted(directory.glob(f"*{suffix}"))


def _load_frames(scans: Path, labels_dir: Path, poses_path: Path | None,
                 class_map: dataio.ClassMap) -> list[dataio.Frame]:
    scan_paths = _frame_paths(scans, ".bin")
    if not scan_paths:
        raise FormatError(f"no .bin scans under {scans}")
    poses = None
    if poses_path is not None:
        poses = dataio.parse_poses(Path(poses_path).read_text())
        if len(poses) < len(scan_paths):
            raise FormatError(f"{len(poses)} poses for {len(scan_paths)} scans")
    frames = []
    for i, path in enumerate(scan_paths):
        cloud = dataio.parse_point_cloud(path.read_bytes())
        label_path = labels_dir / (path.stem + ".label")
        if not label_path.exists():
            raise FormatError(f"missing label file {label_path}")
        raw = dataio.parse_labels(label_path.read_bytes())
        if len(raw) != len(cloud):
            raise FormatError(f"{label_path}: {len(raw)} labels for {len(cloud)} points")
        classes = class_map.remap(raw).astype(np.int64)
        frames.append(dataio.Frame(cloud, classes, poses[i] if poses else None))
    return frames


def cmd_occupancy(overrides: dict[str, list[str]]) -> int:
    scan = _pop(overrides, "scan", Path)
    out_dir = _pop(overrides, "out", Path, Path("occupancy_out"))
    if scan is None:
        raise ConfigError("occupancy needs --scan FILE")
    cfg = load_run_config(_pop(overrides, "config", str), overrides)
    cloud = dataio.parse_point_cloud(Path(scan).read_bytes())
    out_dir.mkdir(parents=True, exist_ok=True)
    omap = occ.observability(cloud, cfg.grid)
    # the channel the network reads, so a cell that one ray passes is not black
    render.write_pgm8(out_dir / "observability.pgm", omap.normalized())
    states = occ.visibility(cloud, cfg.grid)
    state_levels = np.array([0, 128, 255], dtype=np.uint8)
    for d in range(states.shape[2]):
        render.write_pgm8(out_dir / f"visibility_z{d}.pgm",
                          state_levels[states[:, :, d]].astype(np.int64))
    _write_run_log(out_dir, cfg, [f"scan {scan}", f"max_count {int(omap.counts.max())}"])
    print(f"wrote occupancy renders to {out_dir}")
    return 0


def cmd_labels(overrides: dict[str, list[str]]) -> int:
    scans = _pop(overrides, "scans", Path)
    labels_dir = _pop(overrides, "labels", Path)
    poses_path = _pop(overrides, "poses", Path)
    out_dir = _pop(overrides, "out", Path, Path("labels_out"))
    dense = _pop(overrides, "dense", bool, False)
    if scans is None or labels_dir is None:
        raise ConfigError("labels needs --scans DIR and --labels DIR")
    if dense and poses_path is None:
        raise ConfigError("dense labels need --poses FILE")
    cfg = load_run_config(_pop(overrides, "config", str), overrides)
    frames = _load_frames(scans, labels_dir, poses_path, cfg.class_map)
    lcfg = train.label_config(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    render.write_legend(out_dir / "legend.txt", cfg.class_map.class_names)
    for i, frame in enumerate(frames):
        if dense:
            grid = lab.densify(i, frames, cfg.grid, lcfg)
        else:
            grid = lab.sparse_labels(frame.cloud.xyz.astype(np.float64), frame.classes,
                                     cfg.grid, lcfg)
        render.write_pgm16(out_dir / f"labels_{i:06d}.pgm", grid.labels.astype(np.int64))
        render.write_raw16(out_dir / f"labels_{i:06d}.raw", grid.labels)
    _write_run_log(out_dir, cfg, [f"frames {len(frames)}", f"dense {dense}"])
    print(f"wrote {len(frames)} label maps to {out_dir}")
    return 0


def cmd_gradcheck(overrides: dict[str, list[str]]) -> int:
    out_dir = _pop(overrides, "out", Path)
    if overrides:  # the suite's sizes are fixed, so no config key applies
        raise ConfigError(f"gradcheck takes only --out, got --{next(iter(overrides))}")
    from .verification import run_gradcheck_suite

    results = run_gradcheck_suite()
    width = max(len(name) for name, _ in results)
    lines = []
    failed = False
    for name, err in results:
        ok = err < 1e-4
        failed |= not ok
        line = f"{name:<{width}}  {err:.3e}  {'PASS' if ok else 'FAIL'}"
        lines.append(line)
        print(line)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "gradcheck.txt").write_text("\n".join(lines) + "\n")
    return 3 if failed else 0


def cmd_train(overrides: dict[str, list[str]]) -> int:
    out_dir = _pop(overrides, "out", Path, Path("train_out"))
    cfg = load_run_config(_pop(overrides, "config", str), overrides)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = train.train_toy(cfg, progress=print)
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 2
    save_checkpoint(out_dir / "model.ckpt", result.model)
    report_lines = [f"{k} = {v}" for k, v in result.report.items()]
    (out_dir / "metrics.txt").write_text("\n".join(report_lines) + "\n")
    _write_run_log(out_dir, cfg, result.log_lines)
    print(f"final mIoU {result.final_iou.miou:.4f}; artifacts in {out_dir}")
    return 0


def cmd_eval(overrides: dict[str, list[str]]) -> int:
    checkpoint = _pop(overrides, "checkpoint", Path)
    out_dir = _pop(overrides, "out", Path, Path("eval_out"))
    if checkpoint is None:
        raise ConfigError("eval needs --checkpoint FILE")
    cfg = load_run_config(_pop(overrides, "config", str), overrides)
    val_idx = list(range(cfg.train_frames, cfg.train_frames + cfg.val_frames))
    colors = render.class_colors(cfg.class_map.class_names,
                                 render.parse_palette(resolve_text(cfg.palette)))
    with train.model_dtype(cfg):
        net = PillarSegNet(train.model_config(cfg), seed=cfg.seed)
        load_checkpoint(checkpoint, net)
        packs = train.prepare_frames(cfg, val_idx)
        _, result, preds = train.evaluate(cfg, net, packs, val_idx)
    out_dir.mkdir(parents=True, exist_ok=True)
    for pack, index, pred in zip(packs, val_idx, preds):
        render.write_raw16(out_dir / f"pred_{index:06d}.raw", pred)
        rgb = render.render_class_map(pred, colors, pack.visible)
        render.write_ppm(out_dir / f"pred_{index:06d}.ppm", rgb)
    report = {"miou": repr(result.miou), "evaluated_cells": str(result.evaluated_cells)}
    for k, v in result.defined().items():
        report[f"iou.{cfg.class_map.class_names[k]}"] = repr(v)
    (out_dir / "metrics.txt").write_text(
        "\n".join(f"{k} = {v}" for k, v in report.items()) + "\n")
    _write_run_log(out_dir, cfg, [f"checkpoint {checkpoint}", f"miou {result.miou!r}"])
    print(f"eval mIoU {result.miou:.4f}; artifacts in {out_dir}")
    return 0


_SUBCOMMANDS = {
    "synth": cmd_synth,
    "occupancy": cmd_occupancy,
    "labels": cmd_labels,
    "gradcheck": cmd_gradcheck,
    "train": cmd_train,
    "eval": cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE, file=sys.stderr)
        return 1
    name = argv[0]
    if name not in _SUBCOMMANDS:
        print(f"unknown subcommand {name!r}\n\n{USAGE}", file=sys.stderr)
        return 1
    try:
        overrides = _split_overrides(argv[1:])
        return _SUBCOMMANDS[name](overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except PillarSegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
