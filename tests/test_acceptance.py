"""Acceptance suite: one test class per criterion, each at its stated tolerance.

A summary table with one PASS/FAIL line per criterion is printed at the end
of the pytest run (see conftest). A criterion reads FAIL when any test of its
class fails, and PASS once its recording test passes with no test failing.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_acceptance
from oracles import segment_distance_to_cell
from pillarseg import attention as A
from pillarseg import cli, config, labels, losses, metrics, model, occupancy, pillars, train
from pillarseg.dataio import Frame, PointCloud, Pose
from pillarseg.nn import tensor as T
from pillarseg.verification import run_gradcheck_suite
from traversal import traverse_cells_2d


def make_cloud(xyz):
    xyz = np.asarray(xyz, dtype=np.float32)
    return PointCloud(xyz, np.full(len(xyz), 0.5, dtype=np.float32))


class TestCriterion1Gradients:
    def test_gradcheck_suite(self):
        start = time.time()
        results = run_gradcheck_suite()
        elapsed = time.time() - start
        worst = max(err for _, err in results)
        for name, err in results:
            assert err < 1e-4, f"{name}: {err}"
        assert elapsed < 120.0
        record_acceptance(1, detail=f"max err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2RayCastOracle:
    def test_traversal_against_sampling_oracle(self):
        cfg = pillars.GridConfig((0.0, 64.0), (0.0, 64.0), (-1.0, 1.0),
                                 (1.0, 1.0, 2.0), 20, 4096)
        rng = np.random.default_rng(2024)
        start = time.time()
        t_samples = np.linspace(0.0, 1.0, 10_000)
        for _ in range(1000):
            a = rng.uniform(0.0, 64.0, 2)
            b = rng.uniform(0.0, 64.0, 2)
            cells = set(traverse_cells_2d(tuple(a), tuple(b), cfg))
            pts = a + t_samples[:, None] * (b - a)
            cols = np.clip(pts[:, 0].astype(np.int64), 0, 63)
            rows = np.clip(pts[:, 1].astype(np.int64), 0, 63)
            oracle = set(zip(rows.tolist(), cols.tolist()))
            assert oracle <= cells
            for r, c in cells - oracle:
                # extra cells must touch the segment (corner cases and chords
                # shorter than the sample step, which no sample lands in)
                assert segment_distance_to_cell(a, b, r, c, cfg) < 1e-9
        elapsed = time.time() - start
        assert elapsed < 10.0
        record_acceptance(2, detail=f"{elapsed:.1f}s")


class TestCriterion3ObservabilityProperties:
    def test_superset_monotone_100_clouds(self):
        cfg = pillars.GridConfig((0.0, 64.0), (0.0, 64.0), (-1.0, 1.0),
                                 (1.0, 1.0, 2.0), 20, 4096)
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            base = np.column_stack([rng.uniform(0, 64, n), rng.uniform(0, 64, n), np.zeros(n)])
            extra = np.column_stack([rng.uniform(0, 64, 5), rng.uniform(0, 64, 5), np.zeros(5)])
            origin = (rng.uniform(4, 60), rng.uniform(4, 60), 0.0)
            before = occupancy.observability(make_cloud(base), cfg, origin).counts
            after = occupancy.observability(make_cloud(np.vstack([base, extra])), cfg,
                                            origin).counts
            assert (after >= before).all()
        record_acceptance(3)

    def test_single_point_rays_count_one(self):
        cfg = pillars.GridConfig((0.0, 64.0), (0.0, 64.0), (-1.0, 1.0),
                                 (1.0, 1.0, 2.0), 20, 4096)
        rng = np.random.default_rng(33)
        for _ in range(50):
            p = np.array([rng.uniform(0, 64), rng.uniform(0, 64), 0.0])
            origin = (rng.uniform(0, 64), rng.uniform(0, 64), 0.0)
            counts = occupancy.observability(make_cloud([p]), cfg, origin).counts
            traversed = traverse_cells_2d(origin[:2], (p[0], p[1]), cfg)
            assert set(np.unique(counts)) <= {0, 1}
            for r, c in traversed:
                assert counts[r, c] == 1


class TestCriterion4FPSOracle:
    def test_exact_match_200_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = int(rng.integers(1, 65))
            dim = int(rng.integers(2, 17))
            feats = rng.normal(size=(p, dim))
            k = int(rng.integers(1, p + 1))
            got = A.fps_k(feats, k)
            selected = [0]
            while len(selected) < k:
                best, best_d = None, -1.0
                for cand in range(p):
                    d = min(float(((feats[cand] - feats[s]) ** 2).sum()) for s in selected)
                    if d > best_d:
                        best_d, best = d, cand
                selected.append(best)
            np.testing.assert_array_equal(got, selected)
        record_acceptance(4)


class TestCriterion5FeaStOracle:
    def test_scalar_loop_oracle_100_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = int(rng.integers(2, 9))
            m = int(rng.integers(1, 5))
            cin, cout = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            x = rng.normal(size=(v, cin))
            keys = np.sort(rng.choice(v, size=rng.integers(1, v + 1), replace=False))
            params = A.FeaStParams(
                weights=T.parameter(rng.normal(size=(m, cin, cout))),
                steering=T.parameter(rng.normal(size=(m, cin))),
                offsets=T.parameter(rng.normal(size=m)),
                bias=T.parameter(rng.normal(size=cout)),
            )
            got = T.feast(T.constant(x), keys, params.weights, params.steering,
                          params.offsets, params.bias).data

            out = np.zeros((v, cout))
            for i in range(v):
                acc = params.bias.data.copy()
                coeff_sums = []
                for j in keys:
                    logits = np.array([params.steering.data[h] @ (x[j] - x[i])
                                       + params.offsets.data[h] for h in range(m)])
                    e = np.exp(logits - logits.max())
                    p_h = e / e.sum()
                    coeff_sums.append(p_h.sum())
                    for h in range(m):
                        acc = acc + (p_h[h] * (params.weights.data[h].T @ x[j])) / len(keys)
                out[i] = acc
                np.testing.assert_allclose(coeff_sums, 1.0, atol=1e-12)
            np.testing.assert_allclose(got, out, atol=1e-12)
        record_acceptance(5)


class TestCriterion6PFNInvariance:
    def test_permutation_and_duplication_exact_zero(self):
        rng = np.random.default_rng(6)
        grid = pillars.GridConfig((0.0, 16.0), (0.0, 16.0), (-2.0, 2.0),
                                  (1.0, 1.0, 4.0), 12, 512)
        cfg = model.ModelConfig(num_classes=3, max_points=12, pfn_channels=16,
                                unet_widths=(4,), lstm_hidden=32, fusion_hidden=10,
                                use_occupancy=False, use_ma=False, graph_hidden=16,
                                feast_heads=4, fps_rate=0.05)
        net = model.PillarSegNet(cfg, seed=6)

        def pfn_dense(net, aug, mask):
            return net.pfn_forward(T.constant(aug[mask]), np.nonzero(mask)[0], len(mask),
                                   training=False)

        for _ in range(20):
            p = int(rng.integers(1, 6))
            counts = rng.integers(1, 7, p)
            aug = np.zeros((p, 12, 10))
            mask = np.zeros((p, 12), dtype=bool)
            for i, c in enumerate(counts):
                aug[i, :c] = rng.normal(size=(c, 10))
                mask[i, :c] = True
            base = pfn_dense(net, aug, mask).data

            shuffled = aug.copy()
            for i, c in enumerate(counts):
                shuffled[i, :c] = aug[i, rng.permutation(c)]
            permuted = pfn_dense(net, shuffled, mask).data
            assert (permuted == base).all()

            dup = aug.copy()
            dmask = mask.copy()
            for i, c in enumerate(counts):
                if c < 12:
                    dup[i, c] = aug[i, rng.integers(0, c)]
                    dmask[i, c] = True
            duplicated = pfn_dense(net, dup, dmask).data
            assert (duplicated == base).all()
        record_acceptance(6)


class TestCriterion7LabelOracle:
    def test_weighted_argmax_oracle_100_instances(self):
        grid = pillars.GridConfig((0.0, 16.0), (0.0, 16.0), (-2.0, 2.0),
                                  (1.0, 1.0, 4.0), 20, 4096)
        weights = np.array([0.0, 1.0, 5.0, 1.0])  # unlabeled, road, vehicle, other
        lcfg = labels.LabelGenConfig(weights, 0)
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(0, 300))
            xyz = np.column_stack([rng.uniform(0, 16, n), rng.uniform(0, 16, n),
                                   rng.uniform(-2, 2, n)])
            cls = rng.integers(0, 4, n)
            got = labels.sparse_labels(xyz, cls, grid, lcfg).labels

            expected = np.zeros((16, 16), dtype=np.int64)
            hist = np.zeros((16, 16, 4), dtype=np.int64)
            for (x, y, _), k in zip(xyz, cls):
                hist[int(y), int(x), k] += 1
            for r in range(16):
                for c in range(16):
                    scores = weights * hist[r, c]
                    expected[r, c] = int(np.argmax(scores)) if scores.max() > 0 else 0
            np.testing.assert_array_equal(got, expected)
        record_acceptance(7)

    def test_densify_duplicate_identity_frame(self):
        grid = pillars.GridConfig((0.0, 16.0), (0.0, 16.0), (-2.0, 2.0),
                                  (1.0, 1.0, 4.0), 20, 4096)
        lcfg = labels.LabelGenConfig(np.array([0.0, 1.0, 5.0, 1.0]), 0,
                                     static_classes=frozenset({1, 3}))
        rng = np.random.default_rng(77)
        xyz = np.column_stack([rng.uniform(0, 16, 150), rng.uniform(0, 16, 150),
                               np.zeros(150)]).astype(np.float32)
        cls = rng.integers(1, 4, 150)
        cloud = make_cloud(xyz)
        pose = Pose(np.eye(3), np.zeros(3))
        sparse = labels.sparse_labels(xyz.astype(np.float64), cls, grid, lcfg)
        dense = labels.densify(0, [Frame(cloud, cls, pose), Frame(cloud, cls, pose)],
                               grid, lcfg)
        np.testing.assert_array_equal(dense.labels, sparse.labels)


class TestCriterion8MetricOracles:
    def test_iou_confusion_oracle_100_instances(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 100:
            gt = rng.integers(0, 4, (8, 8)).astype(np.int16)
            pred = rng.integers(1, 4, (8, 8)).astype(np.int16)
            visible = rng.uniform(size=(8, 8)) > 0.25
            mask = visible & (gt != 0)
            if not mask.any():
                continue
            checked += 1
            acc = metrics.IoUAccumulator([1, 2, 3], 0)
            acc.add(pred, gt, visible)
            res = acc.result()
            for k in (1, 2, 3):
                tp = int(np.sum((pred == k) & (gt == k) & mask))
                fp = int(np.sum((pred == k) & (gt != k) & mask))
                fn = int(np.sum((pred != k) & (gt == k) & mask))
                if tp + fp + fn == 0:
                    assert not np.isfinite(res.per_class[k])
                else:
                    assert res.per_class[k] == tp / (tp + fp + fn)

    def test_uniform_logits_loss_is_log_k(self):
        for k in (2, 5, 12):
            cfg = losses.SegLossConfig(np.ones(k + 1), 0)
            logits = T.constant(np.zeros((k, 3, 3)))
            gt = labels.SemanticGrid(np.full((3, 3), 1, dtype=np.int16), 0)
            assert abs(losses.seg_loss(logits, gt, cfg).item() - math.log(k)) < 1e-10
        record_acceptance(8)


@pytest.fixture(scope="module")
def toy_training_runs():
    runs = {}
    for variant, use_ma in (("baseline", "false"), ("ma", "true")):
        cfg = config.load_run_config("toy.cfg", {"epochs": ["4"], "use_ma": [use_ma]})
        start, start_cpu = time.time(), time.process_time()
        result = train.train_toy(cfg)
        # process CPU time tells a loaded machine (wall >> CPU) from a slow program
        runs[variant] = (result, time.time() - start, time.process_time() - start_cpu)
    return runs


@pytest.mark.slow
class TestCriterion9ToyTraining:
    def test_baseline_reaches_085(self, toy_training_runs):
        result, elapsed, cpu = toy_training_runs["baseline"]
        assert result.final_iou.miou >= 0.85, f"baseline mIoU {result.final_iou.miou}"
        assert elapsed < 600.0, f"baseline took {elapsed:.0f} s wall, {cpu:.0f} s CPU"

    def test_ma_non_inferiority(self, toy_training_runs):
        base, base_time, base_cpu = toy_training_runs["baseline"]
        ma, ma_time, ma_cpu = toy_training_runs["ma"]
        assert ma.final_iou.miou >= base.final_iou.miou - 0.02, (
            f"MA mIoU {ma.final_iou.miou} vs baseline {base.final_iou.miou}")
        assert ma_time < 600.0, f"MA took {ma_time:.0f} s wall, {ma_cpu:.0f} s CPU"
        record_acceptance(
            9, detail=f"baseline {base.final_iou.miou:.3f} ({base_time:.0f} s wall, "
                      f"{base_cpu:.0f} s CPU), "
                      f"MA {ma.final_iou.miou:.3f} ({ma_time:.0f} s wall, {ma_cpu:.0f} s CPU)")


class TestCriterion10OccupancyAblation:
    def test_toggle_changes_only_unet_input(self):
        rng = np.random.default_rng(10)
        grid = pillars.GridConfig((0.0, 32.0), (0.0, 32.0), (-2.0, 2.0),
                                  (1.0, 1.0, 4.0), 20, 2048)
        xyz = np.column_stack([rng.uniform(0, 32, 200), rng.uniform(0, 32, 200),
                               rng.uniform(-2, 2, 200)]).astype(np.float32)
        cloud = PointCloud(xyz, rng.uniform(0, 1, 200).astype(np.float32))
        pset = pillars.augment_points(pillars.pillarize(cloud, grid, 0), grid)

        cfg_kwargs = dict(num_classes=3, max_points=20, pfn_channels=64, unet_widths=(8,),
                          lstm_hidden=32, fusion_hidden=10, use_ma=False, graph_hidden=16,
                          feast_heads=4, fps_rate=0.05)
        with_occ = model.PillarSegNet(model.ModelConfig(use_occupancy=True, **cfg_kwargs),
                                      seed=10)
        without = model.PillarSegNet(model.ModelConfig(use_occupancy=False, **cfg_kwargs),
                                     seed=10)
        img_a = next(with_occ.pseudo_images([pset], grid, training=False)).data
        img_b = next(without.pseudo_images([pset], grid, training=False)).data
        assert img_a.tobytes() == img_b.tobytes()  # bit-identical upstream
        assert with_occ.unet.downs[0].conv1.weight.data.shape[1] == 65
        assert without.unet.downs[0].conv1.weight.data.shape[1] == 64
        record_acceptance(10)


class TestCriterion11Determinism:
    def test_subcommands_byte_identical(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_text("ground = -3.5 3.5 -3.5 3.5\nground_density = 1.5\n"
                         "boxes = 2\nbox_size = 1.0 1.6 1.2\nposts = 1\n")
        micro = ["--x_range", "-4", "4", "--y_range", "-4", "4",
                 "--pillar_size", "0.5", "0.5", "0.25", "--max_pillars", "256",
                 "--pfn_channels", "8", "--unet_widths", "4", "8",
                 "--train_frames", "4", "--val_frames", "2", "--epochs", "1",
                 "--dtype", "f64", "--scene", str(scene)]

        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert cli.main(["synth", *micro, "--frames", "2", "--out", str(out)]) == 0
            outs.append(out)
        for rel in ("velodyne/000000.bin", "labels/000000.label", "poses.txt"):
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()

        trains = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            assert cli.main(["train", *micro, "--out", str(out)]) == 0
            trains.append(out)
        for rel in ("metrics.txt", "model.ckpt", "run.log"):
            assert (trains[0] / rel).read_bytes() == (trains[1] / rel).read_bytes()

        evals = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert cli.main(["eval", *micro, "--checkpoint", str(trains[0] / "model.ckpt"),
                             "--out", str(out)]) == 0
            evals.append(out)
        for rel in ("metrics.txt", "pred_000004.raw"):
            assert (evals[0] / rel).read_bytes() == (evals[1] / rel).read_bytes()
        record_acceptance(11)
