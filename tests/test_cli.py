import numpy as np
import pytest

from pillarseg import cli, dataio, occupancy
from pillarseg.config import load_run_config
from pillarseg.container import read_container, write_container
from pillarseg.nn import tensor as T


def run_cli(*args):
    return cli.main(list(args))


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text("ground = -3.5 3.5 -3.5 3.5\nground_density = 1.5\n"
                    "boxes = 2\nbox_size = 1.0 1.6 1.2\nposts = 1\n")
    return str(path)


MICRO = [
    "--x_range", "-4", "4", "--y_range", "-4", "4",
    "--pillar_size", "0.5", "0.5", "0.25", "--max_pillars", "256",
    "--pfn_channels", "8", "--unet_widths", "4", "8",
    "--train_frames", "4", "--val_frames", "2", "--epochs", "1",
    "--lstm_hidden", "2", "--graph_hidden", "4", "--feast_heads", "2",
]


def micro_args(scene_file, *extra):
    return MICRO + ["--scene", scene_file] + list(extra)


def read_metrics(path):
    return dict(line.split(" = ") for line in path.read_text().splitlines())


class TestDispatch:
    def test_no_arguments_usage_exit_1(self, capsys):
        assert run_cli() == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exit_1(self, capsys):
        assert run_cli("frobnicate") == 1
        assert "unknown subcommand" in capsys.readouterr().err

    def test_mode_pairing_rejected(self, scene_file, tmp_path, capsys):
        # training and evaluation use sparse labels only; no key selects a mode
        for key, value in (("mode", "sparse-train"), ("eval_mode", "sparse-eval")):
            code = run_cli("train", *micro_args(scene_file), f"--{key}", value,
                           "--out", str(tmp_path / "t"))
            assert code == 1
            assert f"config error: unknown config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_bad_config_key_exit_1(self, tmp_path, capsys):
        assert run_cli("train", "--bogus_key", "1", "--out", str(tmp_path / "t")) == 1

    def test_bad_flag_value_exit_1(self, tmp_path, capsys):
        assert run_cli("synth", "--frames", "abc", "--out", str(tmp_path / "s")) == 1
        assert "'frames'" in capsys.readouterr().err
        # synth steps its poses a fixed 2 m; the spacing is no flag
        assert run_cli("synth", "--spacing", "3", "--out", str(tmp_path / "s")) == 1
        assert "config error: unknown config key 'spacing'" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_out_of_range_value_exit_1(self, scene_file, tmp_path, capsys):
        assert run_cli("train", *micro_args(scene_file), "--beta1", "1",
                       "--out", str(tmp_path / "t")) == 1
        assert "config error: beta1" in capsys.readouterr().err
        assert run_cli("train", *micro_args(scene_file), "--threads", "2",
                       "--out", str(tmp_path / "t")) == 1
        assert "config error: threads must be exactly 1, got 2" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_class_weight_out_of_range_exit_1(self, scene_file, tmp_path, capsys):
        # rejected while the config is read, before any frame is prepared
        assert run_cli("train", *micro_args(scene_file), "--loss_weight_vehicle", "0",
                       "--out", str(tmp_path / "t")) == 1
        assert "config error: loss_weight_vehicle" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_unpoolable_grid_exit_1(self, tmp_path, capsys):
        # a 66 x 64 grid reached maxpool2d after the frames were prepared and
        # exited 2 there; it is now rejected while the config is read
        assert run_cli("train", "--config", "toy.cfg", "--x_range", "-16", "17",
                       "--out", str(tmp_path / "t")) == 1
        err = capsys.readouterr().err
        assert "config error: x_range, y_range and pillar_size give a 66 x 64 grid" in err
        assert "unet_widths" in err
        assert not (tmp_path / "t").exists()

    def test_usage_lists_every_subcommand(self):
        listed = cli.USAGE.split("subcommands:\n", 1)[1].split("\n\n", 1)[0]
        assert [line.split()[0] for line in listed.splitlines()] == list(cli._SUBCOMMANDS)

    def test_attention_order_flag_unknown_exit_1(self, scene_file, tmp_path, capsys):
        # the multi-attention block runs L -> G -> P; no key reorders it
        assert run_cli("train", *micro_args(scene_file), "--use_ma", "true",
                       "--ma_order", "G", "L", "P", "--out", str(tmp_path / "t")) == 1
        assert "config error: unknown config key 'ma_order'" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_scene_class_missing_from_class_map_exit_1(self, tmp_path, capsys):
        scene = tmp_path / "scene.txt"
        scene.write_text("ground = -3 3 -3 3\nbox_class = truck\n")
        assert run_cli("synth", "--config", "toy.cfg", "--scene", str(scene), "--frames", "1",
                       "--out", str(tmp_path / "s")) == 1
        assert "config error: class 'truck'" in capsys.readouterr().err

    def test_gradcheck_config_key_exit_1(self, tmp_path, capsys):
        # the suite's sizes are fixed, so a key it would ignore is rejected
        assert run_cli("gradcheck", "--epochs", "3", "--use_ma", "true",
                       "--out", str(tmp_path / "gc")) == 1
        assert "config error: gradcheck takes only --out, got --epochs" in capsys.readouterr().err
        assert not (tmp_path / "gc").exists()

    def test_missing_scan_file_exit_2(self, tmp_path):
        assert run_cli("occupancy", "--scan", str(tmp_path / "nope.bin"),
                       "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("command, flag", [("occupancy", "--scan"),
                                               ("eval", "--checkpoint")])
    def test_directory_as_input_file_exit_2(self, tmp_path, capsys, command, flag):
        # reading a directory raises IsADirectoryError, an OSError
        out = tmp_path / "out"
        assert run_cli(command, flag, str(tmp_path), "--out", str(out)) == 2
        assert "data error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("token", ["1_0", "٣"])
    def test_flag_number_must_be_plain_ascii(self, tmp_path, capsys, token):
        for args in (["synth", "--frames", token], ["train", "--epochs", token]):
            assert run_cli(*args, "--out", str(tmp_path / "out")) == 1
            assert f"config error: bad value for key '{args[1][2:]}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSynthIngest:
    def test_synth_emits_dataset(self, scene_file, tmp_path):
        out = tmp_path / "synth"
        assert run_cli("synth", *micro_args(scene_file), "--frames", "3",
                       "--out", str(out)) == 0
        assert sorted(p.name for p in (out / "velodyne").glob("*.bin")) == \
            ["000000.bin", "000001.bin", "000002.bin"]
        assert len(list((out / "labels").glob("*.label"))) == 3
        assert (out / "poses.txt").exists()
        assert (out / "classmap.map").exists()

    def test_synth_deterministic(self, scene_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("synth", *micro_args(scene_file), "--frames", "2",
                           "--out", str(out)) == 0
        for rel in ("velodyne/000001.bin", "labels/000001.label", "poses.txt", "run.log"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_labels_rejects_mismatched_labels(self, scene_file, tmp_path):
        synth = tmp_path / "synth"
        run_cli("synth", *micro_args(scene_file), "--frames", "1", "--out", str(synth))
        label = next((synth / "labels").glob("*.label"))
        label.write_bytes(label.read_bytes()[:-4])
        assert run_cli("labels", *micro_args(scene_file),
                       "--scans", str(synth / "velodyne"),
                       "--labels", str(synth / "labels"),
                       "--out", str(tmp_path / "labels")) == 2


class TestRenderCommands:
    @pytest.fixture
    def synth_dir(self, scene_file, tmp_path):
        out = tmp_path / "synth"
        run_cli("synth", *micro_args(scene_file), "--frames", "2", "--out", str(out))
        return out

    def test_occupancy_render(self, tmp_path):
        # dense enough that the origin cell's count exceeds 510 rays while
        # some cell is passed by a single one
        scene_file = tmp_path / "dense_scene.txt"
        scene_file.write_text("ground = -3.5 3.5 -3.5 3.5\nground_density = 10\n"
                              "boxes = 2\nbox_size = 1.0 1.6 1.2\nposts = 1\n")
        synth_dir = tmp_path / "synth"
        run_cli("synth", *micro_args(str(scene_file)), "--frames", "1", "--out", str(synth_dir))
        out = tmp_path / "occ"
        code = run_cli("occupancy", *micro_args(str(scene_file)),
                       "--scan", str(synth_dir / "velodyne" / "000000.bin"),
                       "--out", str(out))
        assert code == 0
        data = (out / "observability.pgm").read_bytes()
        header = b"P5\n16 16\n255\n"
        assert data.startswith(header)
        # every observed cell is visible in the render, every unobserved one is 0
        pixels = np.frombuffer(data[len(header):], dtype=np.uint8).reshape(16, 16)
        cfg = load_run_config(None, cli._split_overrides(micro_args(str(scene_file))))
        cloud = dataio.parse_point_cloud((synth_dir / "velodyne" / "000000.bin").read_bytes())
        counts = occupancy.observability(cloud, cfg.grid).counts
        np.testing.assert_array_equal(pixels > 0, counts > 0)
        assert len(list(out.glob("visibility_z*.pgm"))) == 16  # 4 m extent / 0.25 m voxels

    def test_labels_sparse(self, scene_file, synth_dir, tmp_path):
        out = tmp_path / "lab"
        code = run_cli("labels", *micro_args(scene_file),
                       "--scans", str(synth_dir / "velodyne"),
                       "--labels", str(synth_dir / "labels"),
                       "--out", str(out))
        assert code == 0
        assert (out / "labels_000000.pgm").read_bytes().startswith(b"P5\n16 16\n65535\n")
        raw = np.fromfile(out / "labels_000000.raw", dtype="<u2").reshape(16, 16)
        assert raw.max() <= 3
        legend = (out / "legend.txt").read_text()
        assert "1 ground" in legend

    def test_labels_dense_with_poses(self, scene_file, synth_dir, tmp_path):
        out = tmp_path / "dense"
        code = run_cli("labels", *micro_args(scene_file),
                       "--scans", str(synth_dir / "velodyne"),
                       "--labels", str(synth_dir / "labels"),
                       "--poses", str(synth_dir / "poses.txt"),
                       "--dense", "true", "--out", str(out))
        assert code == 0
        sparse = tmp_path / "sparse"
        assert run_cli("labels", *micro_args(scene_file),
                       "--scans", str(synth_dir / "velodyne"),
                       "--labels", str(synth_dir / "labels"),
                       "--out", str(sparse)) == 0
        # frame 1 imports the static points of frame 0, two metres away
        assert (out / "labels_000001.raw").read_bytes() != \
            (sparse / "labels_000001.raw").read_bytes()

    def test_real_scans_under_non_toy_class_map(self, synth_dir, tmp_path):
        # no scene is named, so the default toy scene's classes must not matter
        code = run_cli("labels", *MICRO, "--classmap", "nuscenes_16.map",
                       "--scans", str(synth_dir / "velodyne"),
                       "--labels", str(synth_dir / "labels"),
                       "--out", str(tmp_path / "labels"))
        assert code == 0

    def test_labels_dense_flag_must_be_boolean(self, scene_file, synth_dir, tmp_path, capsys):
        code = run_cli("labels", *micro_args(scene_file),
                       "--scans", str(synth_dir / "velodyne"),
                       "--labels", str(synth_dir / "labels"),
                       "--poses", str(synth_dir / "poses.txt"),
                       "--dense", "yes", "--out", str(tmp_path / "dense"))
        assert code == 1
        assert "'dense'" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_passes_and_writes_table(self, tmp_path, capsys):
        out = tmp_path / "gc"
        assert run_cli("gradcheck", "--out", str(out)) == 0
        table = (out / "gradcheck.txt").read_text()
        assert "segnet_with_loss" in table
        assert "FAIL" not in table


class TestTrainEval:
    def test_train_then_eval(self, scene_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("train", *micro_args(scene_file), "--out", str(out)) == 0
        assert (out / "model.ckpt").exists()
        metrics = (out / "metrics.txt").read_text()
        assert "final.miou" in metrics
        log = (out / "run.log").read_text()
        assert "epoch 1" in log and "# effective configuration" in log

        eval_out = tmp_path / "eval"
        code = run_cli("eval", *micro_args(scene_file),
                       "--checkpoint", str(out / "model.ckpt"), "--out", str(eval_out))
        assert code == 0
        assert (eval_out / "metrics.txt").exists()
        preds = sorted(eval_out.glob("pred_*.raw"))
        assert len(preds) == 2
        ppm = next(eval_out.glob("pred_*.ppm")).read_bytes()
        assert ppm.startswith(b"P6\n16 16\n255\n")

    # the run overflows float32 on purpose, from one Adam step at learning rate 1e6
    def test_non_finite_validation_loss_exit_2(self, scene_file, tmp_path, capsys):
        # every training loss is finite; only the validation after the
        # epoch's last step sees the divergence
        out = tmp_path / "run"
        assert run_cli("train", *micro_args(scene_file, "--train_frames", "2",
                                            "--val_frames", "1", "--learning_rate", "1e6"),
                       "--out", str(out)) == 2
        assert "non-finite validation loss after epoch 1" in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_validation_set_exit_1(self, scene_file, tmp_path, capsys, command):
        run = tmp_path / "run"
        assert run_cli("train", *micro_args(scene_file, "--epochs", "0"),
                       "--out", str(run)) == 0
        extra = ["--checkpoint", str(run / "model.ckpt")] if command == "eval" else []
        out = tmp_path / "out"
        assert run_cli(command, *micro_args(scene_file, "--val_frames", "0"), *extra,
                       "--out", str(out)) == 1
        assert "config error: val_frames must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_runs_in_configured_dtype(self, scene_file, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert run_cli("train", *micro_args(scene_file, "--epochs", "0"),
                       "--out", str(out)) == 0
        seen = []
        load = cli.load_checkpoint

        def spy(path, net):
            load(path, net)
            seen.extend(p.data.dtype for p in net.parameters().values())

        monkeypatch.setattr(cli, "load_checkpoint", spy)
        assert run_cli("eval", *micro_args(scene_file, "--dtype", "f32"),
                       "--checkpoint", str(out / "model.ckpt"),
                       "--out", str(tmp_path / "eval")) == 0
        assert seen and all(dtype == np.float32 for dtype in seen)
        assert T.constant(0.0).data.dtype == np.float64

    @pytest.mark.parametrize("ground, code, message", [
        ("ground 300 120 120\n", 2, "data error: palette line 2: color components must be in"),
        ("", 1, "config error: palette has no color for class 'ground'"),
    ])
    def test_eval_bad_palette_exits_before_out(self, scene_file, tmp_path, capsys,
                                               ground, code, message):
        # the color table is built before inference and before --out exists
        out = tmp_path / "run"
        assert run_cli("train", *micro_args(scene_file, "--epochs", "0"),
                       "--out", str(out)) == 0
        palette = tmp_path / "palette.txt"
        palette.write_text(f"unlabeled 0 0 0\n{ground}vehicle 1 2 3\nobject 4 5 6\n")
        assert run_cli("eval", *micro_args(scene_file), "--palette", str(palette),
                       "--checkpoint", str(out / "model.ckpt"),
                       "--out", str(tmp_path / "eval")) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_eval_wrong_length_buffer_exit_2(self, scene_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("train", *micro_args(scene_file, "--epochs", "0"),
                       "--out", str(out)) == 0
        arrays = read_container(out / "model.ckpt")
        arrays["buffer.pfn_bn.running_mean"] = np.zeros(5, np.float32)
        write_container(out / "model.ckpt", arrays)
        assert run_cli("eval", *micro_args(scene_file), "--checkpoint", str(out / "model.ckpt"),
                       "--out", str(tmp_path / "eval")) == 2
        assert "data error: checkpoint shape (5,) != model shape (8,)" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("use_ma", ["false", "true"])
    def test_eval_scores_as_train_final(self, scene_file, tmp_path, use_ma):
        # at f32 the checkpoint holds the trained weights exactly
        args = micro_args(scene_file, "--use_ma", use_ma, "--dtype", "f32")
        out, eval_out = tmp_path / "run", tmp_path / "eval"
        assert run_cli("train", *args, "--out", str(out)) == 0
        assert run_cli("eval", *args, "--checkpoint", str(out / "model.ckpt"),
                       "--out", str(eval_out)) == 0
        trained = read_metrics(out / "metrics.txt")
        evaluated = read_metrics(eval_out / "metrics.txt")
        assert evaluated["miou"] == trained["final.miou"]
        ious = {key: value for key, value in evaluated.items() if key.startswith("iou.")}
        assert ious == {key[len("final."):]: value for key, value in trained.items()
                        if key.startswith("final.iou.")}
        assert len(ious) == 3

    def test_train_deterministic_outputs(self, scene_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("train", *micro_args(scene_file), "--dtype", "f64",
                           "--out", str(out)) == 0
        assert (a / "metrics.txt").read_bytes() == (b / "metrics.txt").read_bytes()
        assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()
        assert (a / "run.log").read_bytes() == (b / "run.log").read_bytes()

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_eval_outputs_independent_of_chunk_size(self, scene_file, tmp_path, dtype):
        # eval infers batch_size frames per chunk, their multi-attention LSTMs
        # in one time loop; 3 over 8 frames leaves a short last chunk
        args = micro_args(scene_file, "--use_ma", "true", "--val_frames", "8", "--dtype", dtype)
        out = tmp_path / "run"
        assert run_cli("train", *args, "--out", str(out)) == 0
        outputs = []
        for batch_size in ("1", "2", "3"):
            eval_out = tmp_path / f"eval{batch_size}"
            assert run_cli("eval", *args, "--batch_size", batch_size,
                           "--checkpoint", str(out / "model.ckpt"), "--out", str(eval_out)) == 0
            files = sorted(eval_out.glob("pred_*.raw")) + [eval_out / "metrics.txt"]
            outputs.append({path.name: path.read_bytes() for path in files})
        assert len(outputs[0]) == 9
        assert outputs[0] == outputs[1] == outputs[2]

    def test_eval_deterministic_outputs(self, scene_file, tmp_path):
        out = tmp_path / "run"
        run_cli("train", *micro_args(scene_file), "--out", str(out))
        evals = []
        for name in ("e1", "e2"):
            eval_out = tmp_path / name
            assert run_cli("eval", *micro_args(scene_file),
                           "--checkpoint", str(out / "model.ckpt"),
                           "--out", str(eval_out)) == 0
            evals.append(eval_out)
        for rel in ("metrics.txt", "pred_000004.raw", "pred_000004.ppm"):
            assert (evals[0] / rel).read_bytes() == (evals[1] / rel).read_bytes()
