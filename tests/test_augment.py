import math

import numpy as np
import pytest

from pillarseg import augment, config
from pillarseg.errors import ConfigError


def full_config(**kwargs):
    defaults = dict(flags=frozenset({"flip_x", "flip_y", "rotate", "scale", "translate"}))
    defaults.update(kwargs)
    return augment.AugmentConfig(**defaults)


class TestSampleParams:
    def test_deterministic(self):
        cfg = full_config()
        a = augment.sample_params(cfg, 42)
        b = augment.sample_params(cfg, 42)
        assert a == b

    def test_zero_std_zero_translation(self):
        cfg = full_config(translate_std=(0.0, 0.0, 0.0))
        params = augment.sample_params(cfg, 3)
        assert params.translation == (0.0, 0.0, 0.0)

    def test_rotation_distribution(self):
        cfg = full_config()
        lo, hi = cfg.rotation_range
        rotations = np.array([augment.sample_params(cfg, s).rotation for s in range(2000)])
        assert rotations.min() >= lo and rotations.max() <= hi
        sigma = (hi - lo) / math.sqrt(12.0)
        assert abs(rotations.mean() - (lo + hi) / 2) < 3 * sigma / math.sqrt(len(rotations))

    def test_translation_clipped(self):
        cfg = full_config(translate_std=(1.0, 1.0, 0.1), translate_clip=2.0)
        for s in range(500):
            t = augment.sample_params(cfg, s).translation
            assert abs(t[0]) <= 2.0 and abs(t[1]) <= 2.0 and abs(t[2]) <= 0.2

    def test_disabled_transforms_identity_params(self):
        cfg = augment.AugmentConfig()
        params = augment.sample_params(cfg, 9)
        assert params == augment.AugmentParams()


class TestApply:
    def test_all_disabled_is_identity(self):
        xyz = np.random.default_rng(0).normal(size=(20, 3))
        np.testing.assert_array_equal(augment.apply_augment(xyz, augment.AugmentConfig(), 5), xyz)

    def test_double_flip_is_identity(self):
        xyz = np.random.default_rng(1).normal(size=(10, 3))
        p = augment.AugmentParams(flip_x=True)
        np.testing.assert_array_equal(augment.apply_params(augment.apply_params(xyz, p), p), xyz)

    def test_quarter_turn(self):
        p = augment.AugmentParams(rotation=math.pi / 2)
        out = augment.apply_params(np.array([[1.0, 0.0, 0.0]]), p)
        np.testing.assert_allclose(out, [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_classes_and_count_preserved(self):
        rng = np.random.default_rng(2)
        xyz = rng.normal(size=(30, 3))
        out = augment.apply_augment(xyz, full_config(), 7)
        # one row per input point, in input order, so per-point classes stay aligned
        assert out.shape == xyz.shape
        np.testing.assert_array_equal(
            out, augment.apply_params(xyz, augment.sample_params(full_config(), 7)))

    def test_distance_preservation_and_scaling(self):
        rng = np.random.default_rng(3)
        xyz = rng.normal(size=(15, 3))
        rigid = augment.AugmentParams(flip_y=True, rotation=0.4, translation=(1.0, -2.0, 0.1))
        out = augment.apply_params(xyz, rigid)
        d_in = np.linalg.norm(xyz[None] - xyz[:, None], axis=2)
        d_out = np.linalg.norm(out[None] - out[:, None], axis=2)
        np.testing.assert_allclose(d_out, d_in, atol=1e-9)

        scaled = augment.apply_params(xyz, augment.AugmentParams(scale=1.03))
        d_s = np.linalg.norm(scaled[None] - scaled[:, None], axis=2)
        np.testing.assert_allclose(d_s, 1.03 * d_in, atol=1e-9)

    def test_grid_commutation_at_quarter_turns(self):
        # rotating points by pi/2 must rotate the sparse label grid likewise
        from pillarseg import labels
        from pillarseg.pillars import GridConfig

        cfg = GridConfig((-4.0, 4.0), (-4.0, 4.0), (-2.0, 2.0), (1.0, 1.0, 4.0), 20, 256)
        lcfg = labels.LabelGenConfig(np.array([0.0, 1.0, 1.0]), 0)
        rng = np.random.default_rng(4)
        xyz = np.column_stack([rng.uniform(-3.6, 3.6, 120), rng.uniform(-3.6, 3.6, 120),
                               np.zeros(120)])
        xyz[:, :2] = np.floor(xyz[:, :2]) + rng.uniform(0.25, 0.75, (120, 2))
        classes = rng.integers(1, 3, 120)
        base = labels.sparse_labels(xyz, classes, cfg, lcfg).labels
        rotated = augment.apply_params(xyz, augment.AugmentParams(rotation=math.pi / 2))
        rot_grid = labels.sparse_labels(rotated, classes, cfg, lcfg).labels
        # +90 degrees maps cell (r, c) -> (c, H-1-r) on this symmetric grid
        np.testing.assert_array_equal(rot_grid, np.rot90(base, k=-1))

    def test_flip_axes_validation(self):
        with pytest.raises(ConfigError):
            config.build_run_config({"augment": ["flip_z"]})

    def test_rotation_range_validation(self):
        with pytest.raises(ConfigError):
            config.build_run_config({"rotation_range": ["-4", "4"]})
