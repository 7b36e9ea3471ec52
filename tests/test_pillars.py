import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from pillarseg import pillars
from pillarseg.dataio import PointCloud
from pillarseg.errors import ConfigError
from pillarseg.nn import tensor as T


def make_cloud(xyz, refl=None):
    xyz = np.asarray(xyz, dtype=np.float32)
    if refl is None:
        refl = np.full(len(xyz), 0.5, dtype=np.float32)
    return PointCloud(xyz, np.asarray(refl, dtype=np.float32))


@pytest.fixture
def cfg():
    return pillars.GridConfig(
        x_range=(0.0, 1.0), y_range=(0.0, 1.0), z_range=(-1.0, 1.0),
        pillar_size=(0.1, 0.1, 2.0), max_points=20, max_pillars=64,
    )


class TestGridConfig:
    def test_cell_counts(self, cfg):
        assert cfg.width == 10 and cfg.height == 10 and cfg.depth == 1

    def test_rejects_non_multiple_extent(self):
        with pytest.raises(ConfigError):
            pillars.GridConfig((0, 1.05), (0, 1), (-1, 1), (0.1, 0.1, 2.0), 20, 64)

    def test_rejects_inverted_range(self):
        with pytest.raises(ConfigError):
            pillars.GridConfig((1, 0), (0, 1), (-1, 1), (0.1, 0.1, 2.0), 20, 64)


class TestPillarize:
    def test_single_point_at_cell_center(self, cfg):
        pset = pillars.pillarize(make_cloud([[0.25, 0.35, 0.0]]), cfg)
        assert pset.valid_pillars == 1
        assert tuple(pset.pillar_coords[0]) == (3, 2)
        assert pset.valid_points[0] == 1

    def test_out_of_range_dropped(self, cfg):
        pset = pillars.pillarize(make_cloud([[1.5, 0.5, 0.0]]), cfg)
        assert pset.valid_pillars == 0

    def test_overflow_sampled_to_max_points(self, cfg):
        xyz = np.column_stack([
            np.full(25, 0.05) + np.arange(25) * 1e-4,
            np.full(25, 0.05),
            np.zeros(25),
        ])
        pset = pillars.pillarize(make_cloud(xyz), cfg, rng_seed=1)
        assert pset.valid_pillars == 1
        assert pset.valid_points[0] == 20
        kept_x = set(pset.features[0, :20, 0].tolist())
        assert kept_x <= set(np.asarray(xyz[:, 0], dtype=np.float32).tolist())
        assert len(kept_x) == 20

    def test_empty_cloud(self, cfg):
        pset = pillars.pillarize(make_cloud(np.zeros((0, 3))), cfg)
        assert pset.valid_pillars == 0
        assert pset.features.shape == (0, cfg.max_points, 4)
        assert pset.pillar_coords.shape == (0, 2) and pset.valid_points.shape == (0,)

    def test_seed_independent_when_no_overflow(self, cfg):
        rng = np.random.default_rng(0)
        xyz = rng.uniform(0.0, 1.0, (40, 3)) * [1, 1, 0]
        a = pillars.pillarize(make_cloud(xyz), cfg, rng_seed=1)
        b = pillars.pillarize(make_cloud(xyz), cfg, rng_seed=2)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.pillar_coords, b.pillar_coords)

    def test_pillar_overflow_sampled(self):
        cfg = pillars.GridConfig((0, 1), (0, 1), (-1, 1), (0.1, 0.1, 2.0), 20, 4)
        rng = np.random.default_rng(0)
        xyz = np.column_stack([rng.uniform(0, 1, 50), rng.uniform(0, 1, 50), np.zeros(50)])
        pset = pillars.pillarize(make_cloud(xyz), cfg, rng_seed=3)
        assert pset.valid_pillars == 4

    def test_crop_idempotent(self, cfg):
        rng = np.random.default_rng(4)
        xyz = rng.uniform(-0.5, 1.5, (200, 3)) * [1, 1, 0.5]
        first = pillars.pillarize(make_cloud(xyz), cfg, rng_seed=0)
        v = first.valid_pillars
        surviving = first.features[:v][first.mask[:v]]
        again = pillars.pillarize(make_cloud(surviving[:, :3], surviving[:, 3]), cfg, rng_seed=0)
        assert again.valid_pillars == v
        np.testing.assert_array_equal(again.pillar_coords[:v], first.pillar_coords[:v])

    def test_coords_unique_and_in_bounds(self, cfg):
        rng = np.random.default_rng(5)
        xyz = np.column_stack([rng.uniform(0, 1, 300), rng.uniform(0, 1, 300), np.zeros(300)])
        pset = pillars.pillarize(make_cloud(xyz), cfg)
        v = pset.valid_pillars
        keys = pset.pillar_coords[:v, 0] * cfg.width + pset.pillar_coords[:v, 1]
        assert len(np.unique(keys)) == v
        assert pset.pillar_coords[:v].min() >= 0
        assert pset.pillar_coords[:v, 0].max() < cfg.height
        assert pset.pillar_coords[:v, 1].max() < cfg.width


class TestAugmentPoints:
    def test_point_at_cell_center_has_zero_offsets(self, cfg):
        # cell (3, 2) center is (0.25, 0.35); z-range midpoint is 0
        pset = pillars.pillarize(make_cloud([[0.25, 0.35, 0.0]]), cfg)
        aug = pillars.augment_points(pset, cfg)
        np.testing.assert_allclose(aug.features[0, 0, 4:10], 0.0, atol=1e-7)

    def test_symmetric_points_have_opposite_mean_offsets(self, cfg):
        pset = pillars.pillarize(make_cloud([[0.24, 0.35, 0.1], [0.26, 0.35, -0.1]]), cfg)
        aug = pillars.augment_points(pset, cfg)
        np.testing.assert_allclose(aug.features[0, 0, 4:7], -aug.features[0, 1, 4:7], atol=1e-7)

    def test_hand_case_offsets(self):
        # points at x = 0.02 and 0.06 in a 0.1 m cell centered at 0.05:
        # mean offsets -0.02/+0.02, center offsets -0.03/+0.01
        cfg = pillars.GridConfig((0, 1), (0, 1), (-1, 1), (0.1, 0.1, 2.0), 20, 64)
        pset = pillars.pillarize(make_cloud([[0.02, 0.05, 0.0], [0.06, 0.05, 0.0]]), cfg)
        aug = pillars.augment_points(pset, cfg)
        x_order = np.argsort(aug.features[0, :2, 0])
        dxc = aug.features[0, x_order, 4]
        dxp = aug.features[0, x_order, 7]
        np.testing.assert_allclose(dxc, [-0.02, 0.02], atol=1e-7)
        np.testing.assert_allclose(dxp, [-0.03, 0.01], atol=1e-7)

    def test_channel_count_is_ten(self, cfg):
        pset = pillars.pillarize(make_cloud([[0.5, 0.5, 0.0]]), cfg)
        aug = pillars.augment_points(pset, cfg)
        assert aug.features.shape[2] == 10

    def test_mean_offsets_sum_to_zero(self, cfg):
        rng = np.random.default_rng(6)
        xyz = np.column_stack([rng.uniform(0, 1, 120), rng.uniform(0, 1, 120),
                               rng.uniform(-1, 1, 120)])
        pset = pillars.pillarize(make_cloud(xyz), cfg)
        aug = pillars.augment_points(pset, cfg)
        v = aug.valid_pillars
        sums = aug.features[:v, :, 4:7].sum(axis=1)
        np.testing.assert_allclose(sums, 0.0, atol=1e-9)

    def test_padded_slots_zero(self, cfg):
        pset = pillars.pillarize(make_cloud([[0.11, 0.11, 0.2]]), cfg)
        aug = pillars.augment_points(pset, cfg)
        assert aug.features.shape == (1, cfg.max_points, 10)
        assert not aug.features[0, 1:].any()


def lattice_scene(max_points, max_pillars, cells):
    """A 4 x 4 grid of 0.25 m cells over x in [0, 1), y in [-0.5, 0.5), z in
    [-1, 1), and a cloud of points at (i, j, k) * (1/16, 1/16, 1/4) m offset to
    the grid's low corner: a multiple of 4 in i or j lies on a cell boundary,
    i or j outside [0, 16) or k outside [-4, 4) outside the crop box.
    Reflectances are distinct, so every point can be told apart."""
    cfg = pillars.GridConfig((0.0, 1.0), (-0.5, 0.5), (-1.0, 1.0), (0.25, 0.25, 2.0),
                             max_points, max_pillars)
    xyz = np.reshape(cells, (-1, 3)) * [1 / 16, 1 / 16, 0.25] + [0.0, -0.5, 0.0]
    return cfg, make_cloud(xyz, np.arange(len(xyz)) / 64)


# lattice points, each repeated 1 to 6 times, so pillars often overflow
scenes = st.builds(
    lattice_scene, st.integers(1, 4), st.integers(1, 8),
    st.lists(st.tuples(st.integers(-2, 17), st.integers(-2, 17), st.integers(-5, 4),
                       st.integers(1, 6)), max_size=24)
    .map(lambda bunches: [(i, j, k) for i, j, k, n in bunches for _ in range(n)]))

CELL_CORNERS = [(4 * i, 4 * j, 0) for i in range(5) for j in range(5)]
CROWDED = [(1 + i % 3, 5, i % 4 - 2) for i in range(7)] + [(9, 13, 0)] * 3 + [(14, 2, 1)] * 6
EVERY_CELL_THRICE = [(4 * i + 1 + k, 4 * j + 2, k - 1) for i in range(4) for j in range(4)
                     for k in range(3)]


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestPillarizeAgainstPaddedOracle:
    """The valid rows of the padded per-pillar loop, bit for bit, with the
    same seeded draws."""

    @given(scene=scenes, seed=st.integers(0, 2**32 - 1))
    @example(scene=lattice_scene(3, 12, []), seed=0)  # empty cloud
    @example(scene=lattice_scene(4, 12, CELL_CORNERS), seed=1)  # cell and crop boundaries
    @example(scene=lattice_scene(2, 12, CROWDED), seed=2)  # max_points overflow in 3 pillars
    @example(scene=lattice_scene(2, 3, CROWDED + CELL_CORNERS), seed=3)  # and max_pillars
    @example(scene=lattice_scene(2, 5, EVERY_CELL_THRICE), seed=4)  # both, in every pillar
    def test_valid_rows_match(self, scene, seed):
        cfg, cloud = scene
        got = pillars.pillarize(cloud, cfg, seed)
        want = oracles.pillarize_padded(cloud, cfg, seed)
        v = want.valid_pillars
        assert got.valid_pillars == v
        assert_bitwise(got.features, want.features[:v])
        assert_bitwise(got.pillar_coords, want.pillar_coords[:v])
        assert_bitwise(got.valid_points, want.valid_points[:v])
        got, want = pillars.augment_points(got, cfg), pillars.augment_points(want, cfg)
        assert got.valid_pillars == v
        assert_bitwise(got.features, want.features[:v])


class TestScatter:
    """The model's scatter of per-pillar rows into the top-view image."""

    def scatter(self, feats, pset, cfg):
        return T.scatter_to_image(feats, pset.pillar_coords[:, 0], pset.pillar_coords[:, 1],
                                  cfg.height, cfg.width).data

    def test_single_pillar(self, cfg):
        pset = pillars.pillarize(make_cloud([[0.05, 0.05, 0.0]]), cfg)
        image = self.scatter(np.array([[1.0, 2.0, 3.0]]), pset, cfg)
        assert image.shape == (3, cfg.height, cfg.width)
        np.testing.assert_array_equal(image[:, 0, 0], [1, 2, 3])
        assert np.count_nonzero(image) == 3

    def test_empty_set(self, cfg):
        pset = pillars.pillarize(make_cloud(np.zeros((0, 3))), cfg)
        image = self.scatter(np.zeros((0, 4)), pset, cfg)
        assert image.shape == (4, cfg.height, cfg.width)
        assert not image.any()

    def test_scatter_gather_round_trip(self, cfg):
        rng = np.random.default_rng(7)
        xyz = np.column_stack([rng.uniform(0, 1, 100), rng.uniform(0, 1, 100), np.zeros(100)])
        pset = pillars.pillarize(make_cloud(xyz), cfg)
        feats = rng.normal(size=(pset.valid_pillars, 8))
        image = self.scatter(feats, pset, cfg)
        rows, cols = pset.pillar_coords.T
        np.testing.assert_array_equal(image[:, rows, cols].T, feats)
