import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import segment_distance_to_cell
from pillarseg import config, dataio, occupancy, train
from pillarseg.dataio import PointCloud
from pillarseg.pillars import GridConfig
from traversal import traverse_cells_2d


def make_cloud(xyz):
    xyz = np.asarray(xyz, dtype=np.float32)
    return PointCloud(xyz, np.full(len(xyz), 0.5, dtype=np.float32))


def unit_grid(cells=8, z=(-1.0, 1.0), dz=2.0, max_points=20, max_pillars=4096):
    return GridConfig((0.0, float(cells)), (0.0, float(cells)), z,
                      (1.0, 1.0, dz), max_points, max_pillars)


def sampling_oracle_cells(origin, endpoint, cfg, samples=10_000):
    """Dense point sampling along the segment, collecting the cells hit."""
    t = np.linspace(0.0, 1.0, samples)
    pts = np.asarray(origin) + t[:, None] * (np.asarray(endpoint) - np.asarray(origin))
    cols = np.clip(np.floor((pts[:, 0] - cfg.x_range[0]) / cfg.pillar_size[0]).astype(int),
                   0, cfg.width - 1)
    rows = np.clip(np.floor((pts[:, 1] - cfg.y_range[0]) / cfg.pillar_size[1]).astype(int),
                   0, cfg.height - 1)
    return set(zip(rows.tolist(), cols.tolist()))


ORIGINS = ("vertex", "inside", "off")


@st.composite
def scenes(draw, origin_kind):
    """A small 3D grid, in-crop points and a sensor origin of the given kind.

    Most points lie on the half-cell lattice, and a "vertex" or "off" origin
    on it too, so rays cross cell corners, voxel edges and voxel vertices
    exactly and tie 2 or 3 ways; the other points are generic.
    """
    shape = np.array([draw(st.integers(1, 10)), draw(st.integers(1, 10)),
                      draw(st.integers(1, 6))])
    s = draw(st.sampled_from([0.5, 1.0]))
    size = np.array([s, s, draw(st.sampled_from([0.25, 0.5]))])
    lo = -size * [draw(st.integers(0, m)) for m in shape]
    hi = lo + shape * size
    cfg = GridConfig(*[(float(a), float(b)) for a, b in zip(lo, hi)], tuple(size.tolist()),
                     20, 4096)
    halves = draw(st.lists(st.tuples(*(st.integers(0, 2 * m - 1) for m in shape)),
                           max_size=40))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    generic = draw(st.lists(st.tuples(unit, unit, unit), max_size=12))
    pts = np.vstack([lo + np.reshape(halves, (-1, 3)) * size / 2,
                     lo + np.reshape(generic, (-1, 3)) * (hi - lo)])
    if origin_kind == "vertex":
        origin = lo + size * [draw(st.integers(0, m)) for m in shape]
    elif origin_kind == "inside":
        origin = lo + np.array([draw(unit) for _ in shape]) * (hi - lo)
    else:
        k = np.array([draw(st.integers(-2 * m, 4 * m)) for m in shape])
        if ((k >= 0) & (k <= 2 * shape)).all():  # inside the box: move one axis out
            k[draw(st.integers(0, 2))] = -1
        jitter = draw(unit) if draw(st.booleans()) else 0.0  # keeps the axis outside
        origin = lo + (k + jitter) * size / 2
    return cfg, pts, tuple(origin.tolist())


any_scene = st.sampled_from(ORIGINS).flatmap(scenes)


class TestTraverseCells2D:
    def test_axis_aligned(self):
        cfg = unit_grid()
        cells = traverse_cells_2d((0.5, 0.5), (2.5, 0.5), cfg)
        assert cells == [(0, 0), (0, 1), (0, 2)]

    def test_degenerate(self):
        cfg = unit_grid()
        assert traverse_cells_2d((3.5, 3.5), (3.5, 3.5), cfg) == [(3, 3)]

    def test_axis_parallel_segments_off_and_on_the_boundary(self):
        cfg = unit_grid()
        assert traverse_cells_2d((-1.0, 9.0), (10.0, 9.0), cfg) == []
        assert traverse_cells_2d((9.0, -1.0), (9.0, 10.0), cfg) == []
        # on the closed box's top edge: clipped to it, rows clamped to the last
        assert traverse_cells_2d((-1.0, 8.0), (10.0, 8.0), cfg) == \
            [(7, c) for c in range(8)]

    def test_diagonal_through_corner_includes_both_neighbors(self):
        cfg = unit_grid()
        cells = traverse_cells_2d((0.5, 0.5), (2.5, 2.5), cfg)
        assert (0, 0) in cells and (2, 2) in cells
        assert (0, 1) in cells and (1, 0) in cells  # corner at (1,1) touches both

    def test_matches_sampling_oracle_on_random_segments(self):
        cfg = unit_grid(16)
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.uniform(0.0, 16.0, 2)
            b = rng.uniform(0.0, 16.0, 2)
            cells = traverse_cells_2d(tuple(a), tuple(b), cfg)
            oracle = sampling_oracle_cells(a, b, cfg)
            assert oracle <= set(cells)
            for extra in set(cells) - oracle:
                assert segment_distance_to_cell(a, b, *extra, cfg) < 1e-9

    @given(any_scene)
    def test_matches_scalar_oracle_in_order(self, scene):
        # segments from the origin to each point, and from each point to the
        # origin's mirror image, which may miss the grid altogether
        cfg, pts, origin = scene
        centre = np.array([sum(cfg.x_range), sum(cfg.y_range)]) / 2
        for p in pts[:, :2]:
            for a, b in ((origin[:2], p), (p, 2 * centre - np.array(origin[:2]))):
                a, b = tuple(np.asarray(a, dtype=float)), tuple(b.tolist())
                assert traverse_cells_2d(a, b, cfg) == \
                    oracles.traverse_cells_2d(a, b, cfg)

    def test_chain_connectivity(self):
        cfg = unit_grid(16)
        rng = np.random.default_rng(12)
        for _ in range(50):
            a, b = rng.uniform(0, 16, 2), rng.uniform(0, 16, 2)
            cells = traverse_cells_2d(tuple(a), tuple(b), cfg)
            for prev, cur in zip(cells, cells[1:]):
                assert max(abs(prev[0] - cur[0]), abs(prev[1] - cur[1])) <= 1

    def test_includes_origin_and_endpoint_cells(self):
        cfg = unit_grid(16)
        rng = np.random.default_rng(13)
        for _ in range(20):
            a, b = rng.uniform(0, 16, 2), rng.uniform(0, 16, 2)
            cells = traverse_cells_2d(tuple(a), tuple(b), cfg)
            assert cells[0] == (int(a[1]), int(a[0]))
            assert cells[-1] == (int(b[1]), int(b[0]))


def point_voxel_mask(pts, lat):
    """The stop mask that `visibility` casts with: the voxels that hold a point."""
    holds = np.zeros(int(np.prod(lat.shape)), dtype=bool)
    holds[lat.strides @ occupancy._cells((pts - lat.lo) / lat.size, lat)] = True
    return holds


class TestBatchTraversal:
    """The batch steps finished rays by zero until it drops them; none of them
    may emit a cell after its last one. A ray's cells do not depend on the
    other rays of its batch."""

    @staticmethod
    def assert_batch_equals_its_rays(origin, pts, lat, stop=None):
        batch = occupancy._traverse(origin, pts, lat, stop)
        rays = [occupancy._traverse(origin, pts[:, i:i + 1], lat, stop)
                for i in range(pts.shape[1])]
        # batch[:0] makes a scene without rays an empty concatenation
        np.testing.assert_array_equal(np.sort(batch), np.sort(np.concatenate([batch[:0], *rays])))

    @given(any_scene)
    def test_2d_batch_equals_its_rays(self, scene):
        cfg, pts, origin = scene
        xy = np.ascontiguousarray(oracles.in_crop(pts, cfg)[:, :2].T)
        self.assert_batch_equals_its_rays(np.array(origin[:2]), xy, occupancy._lattice(cfg, 2))

    @given(any_scene)
    def test_3d_stopped_batch_equals_its_rays(self, scene):
        cfg, pts, origin = scene
        lat = occupancy._lattice(cfg, 3)
        xyz = np.ascontiguousarray(oracles.in_crop(pts, cfg).T)
        self.assert_batch_equals_its_rays(np.array(origin), xyz, lat, point_voxel_mask(xyz, lat))


class TestObservability:
    def test_empty_cloud(self):
        cfg = unit_grid()
        omap = occupancy.observability(make_cloud(np.zeros((0, 3))), cfg, (0.5, 0.5, 0.0))
        assert not omap.counts.any()

    def test_single_point_counts_one_everywhere_on_ray(self):
        cfg = unit_grid()
        omap = occupancy.observability(make_cloud([[6.5, 4.5, 0.0]]), cfg, (0.5, 0.5, 0.0))
        assert set(np.unique(omap.counts)) <= {0, 1}
        assert omap.counts[4, 6] == 1
        assert omap.counts[0, 0] == 1

    def test_two_collinear_points(self):
        # 1x8 grid: cells up to the near point count 2, strictly between 1
        cfg = GridConfig((0.0, 8.0), (0.0, 1.0), (-1, 1), (1.0, 1.0, 2.0), 20, 64)
        cloud = make_cloud([[2.5, 0.5, 0.0], [6.5, 0.5, 0.0]])
        omap = occupancy.observability(cloud, cfg, (0.5, 0.5, 0.0))
        np.testing.assert_array_equal(omap.counts[0], [2, 2, 2, 1, 1, 1, 1, 0])

    def test_superset_monotone_under_point_addition(self):
        cfg = unit_grid(16)
        rng = np.random.default_rng(21)
        base = rng.uniform(0.5, 15.5, (30, 3)) * [1, 1, 0]
        extra = rng.uniform(0.5, 15.5, (5, 3)) * [1, 1, 0]
        before = occupancy.observability(make_cloud(base), cfg, (8.0, 8.0, 0.0)).counts
        after = occupancy.observability(make_cloud(np.vstack([base, extra])), cfg,
                                        (8.0, 8.0, 0.0)).counts
        assert (after >= before).all()

    @given(any_scene)
    def test_batch_matches_scalar_traversal(self, scene):
        cfg, pts, origin = scene
        cloud = make_cloud(pts)
        omap = occupancy.observability(cloud, cfg, origin)
        assert omap.counts.dtype == np.int64
        np.testing.assert_array_equal(omap.counts,
                                      oracles.observability_counts(cloud.xyz, cfg, origin))

    def test_normalized_range(self):
        cfg = unit_grid()
        omap = occupancy.observability(make_cloud([[6.5, 4.5, 0.0]]), cfg, (0.5, 0.5, 0.0))
        norm = omap.normalized()
        assert norm.max() == 1.0
        assert norm.min() >= 0.0


class TestVisibility:
    def test_empty_cloud_all_unknown(self):
        cfg = unit_grid(8, z=(0.0, 2.0), dz=1.0)
        states = occupancy.visibility(make_cloud(np.zeros((0, 3))), cfg, (0.5, 0.5, 0.5))
        assert (states == occupancy.UNKNOWN).all()

    def test_single_point_ray(self):
        cfg = unit_grid(8, z=(0.0, 1.0), dz=1.0)
        states = occupancy.visibility(make_cloud([[5.5, 0.5, 0.5]]), cfg, (0.5, 0.5, 0.5))
        assert states[0, 5, 0] == occupancy.OCCUPIED
        assert (states[0, 0:5, 0] == occupancy.FREE).all()
        assert (states[1:] == occupancy.UNKNOWN).all()

    def test_hidden_point_stays_unknown(self):
        cfg = unit_grid(8, z=(0.0, 1.0), dz=1.0)
        cloud = make_cloud([[3.5, 0.5, 0.5], [6.5, 0.5, 0.5]])
        states = occupancy.visibility(cloud, cfg, (0.5, 0.5, 0.5))
        assert states[0, 3, 0] == occupancy.OCCUPIED
        # the voxel of the second point is never reached by any ray
        assert states[0, 6, 0] == occupancy.UNKNOWN
        assert states[0, 4, 0] == occupancy.UNKNOWN
        assert states[0, 5, 0] == occupancy.UNKNOWN

    @given(any_scene)
    def test_matches_scalar_oracle(self, scene):
        cfg, pts, origin = scene
        cloud = make_cloud(pts)
        states = occupancy.visibility(cloud, cfg, origin)
        assert states.dtype == np.uint8
        np.testing.assert_array_equal(states, oracles.visibility_states(
            cloud.xyz, cfg, origin, occupancy.UNKNOWN, occupancy.FREE, occupancy.OCCUPIED))

    def test_free_only_before_terminal(self):
        cfg = unit_grid(8, z=(0.0, 1.0), dz=1.0)
        states = occupancy.visibility(make_cloud([[4.5, 0.5, 0.5]]), cfg, (0.5, 0.5, 0.5))
        assert (states[0, 5:, 0] == occupancy.UNKNOWN).all()


def assert_matches_oracles(cloud, cfg, origin):
    np.testing.assert_array_equal(occupancy.observability(cloud, cfg, origin).counts,
                                  oracles.observability_counts(cloud.xyz, cfg, origin))
    np.testing.assert_array_equal(occupancy.visibility(cloud, cfg, origin),
                                  oracles.visibility_states(
                                      cloud.xyz, cfg, origin, occupancy.UNKNOWN,
                                      occupancy.FREE, occupancy.OCCUPIED))


def test_subnormal_direction_component():
    # 1 / 5e-324 overflows to inf: a crossing that never comes, no warning
    cfg = GridConfig((-1.0, 1.0), (-0.0, 1.0), (-0.0, 2.0), (0.5, 0.5, 0.5), 20, 4096)
    assert_matches_oracles(make_cloud([[0.75, 0.0, 1.75]]), cfg,
                           (0.0, 5e-324, 1.3012210532559685))


def test_toy_frame_matches_oracles():
    # the workload's scale: about 4,600 rays on 64 x 64 x 16, where most
    # steps leave finished rays in the working set and several compact it
    cfg = config.load_run_config("toy.cfg")
    cloud, _ = dataio.generate_synthetic_frame(train.frame_seed(cfg.seed, 0), cfg.scene,
                                               cfg.class_map)
    assert_matches_oracles(cloud, cfg.grid, (0.0, 0.0, 0.0))


class TestInjectNoise:
    def test_count_rule(self):
        cfg = unit_grid()
        rng = np.random.default_rng(31)
        cloud = make_cloud(rng.uniform(0, 8, (100, 3)))
        noisy = occupancy.inject_noise(cloud, 10.0, 0, cfg)
        assert len(noisy) == 110
        np.testing.assert_array_equal(noisy.xyz[:100], cloud.xyz)

    def test_huge_snr_adds_nothing(self):
        cfg = unit_grid()
        cloud = make_cloud(np.random.default_rng(32).uniform(0, 8, (100, 3)))
        assert len(occupancy.inject_noise(cloud, 1e9, 0, cfg)) == 100

    def test_deterministic(self):
        cfg = unit_grid()
        cloud = make_cloud(np.random.default_rng(33).uniform(0, 8, (50, 3)))
        a = occupancy.inject_noise(cloud, 5.0, 7, cfg)
        b = occupancy.inject_noise(cloud, 5.0, 7, cfg)
        np.testing.assert_array_equal(a.xyz, b.xyz)

    def test_noise_inside_crop(self):
        cfg = unit_grid()
        cloud = make_cloud(np.random.default_rng(34).uniform(1, 7, (60, 3)))
        noisy = occupancy.inject_noise(cloud, 2.0, 1, cfg)
        assert (noisy.xyz[60:, 0] >= 0).all() and (noisy.xyz[60:, 0] <= 8).all()
