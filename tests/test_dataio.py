import struct
import warnings

import numpy as np
import pytest

from pillarseg import dataio
from pillarseg.config import packaged_text
from pillarseg.errors import ConfigError, FormatError


def toy_class_map():
    return dataio.ClassMap.parse(packaged_text("toy.map"))


def pack_points(points):
    return b"".join(struct.pack("<4f", *p) for p in points)


class TestParsePointCloud:
    def test_single_record(self):
        cloud = dataio.parse_point_cloud(pack_points([(1.0, 2.0, 3.0, 0.5)]))
        assert len(cloud) == 1
        np.testing.assert_array_equal(cloud.xyz[0], [1.0, 2.0, 3.0])
        assert cloud.reflectance[0] == 0.5

    def test_empty(self):
        assert len(dataio.parse_point_cloud(b"")) == 0

    def test_bad_length(self):
        with pytest.raises(FormatError):
            dataio.parse_point_cloud(b"\x00" * 17)

    def test_non_finite_reports_record(self):
        data = pack_points([(0, 0, 0, 0)]) + struct.pack("<4f", 1.0, float("nan"), 0.0, 0.0)
        with pytest.raises(FormatError, match="record 1"):
            dataio.parse_point_cloud(data)

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        xyz = rng.normal(size=(257, 3)).astype(np.float32)
        refl = rng.uniform(size=257).astype(np.float32)
        cloud = dataio.PointCloud(xyz, refl)
        again = dataio.parse_point_cloud(dataio.serialize_point_cloud(cloud))
        assert again.xyz.tobytes() == xyz.tobytes()
        assert again.reflectance.tobytes() == refl.tobytes()


class TestParseLabels:
    def test_low_bits(self):
        data = struct.pack("<I", 0x0002000A)
        assert dataio.parse_labels(data)[0] == 10

    def test_zero(self):
        assert dataio.parse_labels(struct.pack("<I", 0))[0] == 0

    def test_empty(self):
        assert len(dataio.parse_labels(b"")) == 0

    def test_bad_length(self):
        with pytest.raises(FormatError):
            dataio.parse_labels(b"\x00\x00\x00")


class TestParsePoses:
    def test_identity(self):
        poses = dataio.parse_poses("1 0 0 0 0 1 0 0 0 0 1 0\n")
        assert len(poses) == 1
        np.testing.assert_array_equal(poses[0].rotation, np.eye(3))
        np.testing.assert_array_equal(poses[0].translation, np.zeros(3))

    def test_translation(self):
        pose = dataio.parse_poses("1 0 0 5 0 1 0 0 0 0 1 0")[0]
        np.testing.assert_array_equal(pose.translation, [5.0, 0.0, 0.0])

    def test_wrong_token_count(self):
        with pytest.raises(FormatError, match="line 1"):
            dataio.parse_poses("1 0 0\n")

    def test_mildly_non_orthonormal_warns(self):
        mat = np.eye(3) + 0.01
        line = " ".join(str(v) for v in np.hstack([mat, np.zeros((3, 1))]).ravel())
        with pytest.warns(UserWarning):
            dataio.parse_poses(line)

    def test_badly_non_orthonormal_rejected(self):
        mat = np.eye(3) * 2.0
        line = " ".join(str(v) for v in np.hstack([mat, np.zeros((3, 1))]).ravel())
        with pytest.raises(FormatError):
            dataio.parse_poses(line)

    def test_reflection_rejected(self):
        mat = np.diag([1.0, 1.0, -1.0])
        line = " ".join(str(v) for v in np.hstack([mat, np.zeros((3, 1))]).ravel())
        with pytest.raises(FormatError):
            dataio.parse_poses(line)

    def test_nan_translation_rejected(self):
        with pytest.raises(FormatError, match="non-finite"):
            dataio.parse_poses("1 0 0 nan 0 1 0 0 0 0 1 0")

    def test_huge_rotation_entry_rejected_without_warning(self):
        # r @ r.T of a 1e200 entry overflows; the entry bound rejects it first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="above 1.05"):
                dataio.parse_poses("1e200 0 0 0 0 1 0 0 0 0 1 0")

    def test_nan_rotation_rejected(self):
        # NaN compares False in both the orthonormality and the determinant test
        with pytest.raises(FormatError, match="non-finite"):
            dataio.parse_poses("nan 0 0 0 0 1 0 0 0 0 1 0")

    def test_infinite_value_rejected(self):
        with pytest.raises(FormatError, match="line 2: non-finite"):
            dataio.parse_poses("1 0 0 0 0 1 0 0 0 0 1 0\n1 0 0 0 0 1 0 -inf 0 0 1 0")

    @pytest.mark.parametrize("token", ["1_0", "٣"])
    def test_number_must_be_plain_ascii(self, token):
        with pytest.raises(FormatError, match="pose line 2"):
            dataio.parse_poses(f"1 0 0 0 0 1 0 0 0 0 1 0\n1 0 0 {token} 0 1 0 0 0 0 1 0")

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        # random rotation via QR with positive determinant
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        pose = dataio.Pose(q, rng.normal(size=3))
        again = dataio.parse_poses(dataio.serialize_poses([pose]))[0]
        np.testing.assert_allclose(again.rotation, pose.rotation, atol=1e-15)
        np.testing.assert_allclose(again.translation, pose.translation, atol=1e-15)


SEMANTICKITTI_IDS = {"car": 10, "bicycle": 11, "unlabeled": 0}


class TestClassMap:
    @pytest.fixture
    def kitti_map(self):
        from pillarseg.config import packaged_text

        return dataio.ClassMap.parse(packaged_text("semantickitti_12.map"))

    def test_car_maps_to_vehicle(self, kitti_map):
        idx = kitti_map.remap([SEMANTICKITTI_IDS["car"]])[0]
        assert kitti_map.class_names[idx] == "vehicle"

    def test_bicycle_maps_to_two_wheel(self, kitti_map):
        idx = kitti_map.remap([SEMANTICKITTI_IDS["bicycle"]])[0]
        assert kitti_map.class_names[idx] == "two-wheel"

    def test_unlabeled(self, kitti_map):
        assert kitti_map.remap([0])[0] == kitti_map.unlabeled_index

    def test_twelve_supervised_classes(self, kitti_map):
        assert kitti_map.num_supervised == 12

    def test_total_over_all_raw_ids(self, kitti_map):
        all_ids = np.arange(65536, dtype=np.uint16)
        merged = kitti_map.remap(all_ids)
        assert merged.min() >= 0
        assert merged.max() < kitti_map.num_merged

    def test_parse_rejects_garbage(self):
        with pytest.raises(FormatError):
            dataio.ClassMap.parse("not a mapping\n")

    @pytest.mark.parametrize("raw_id", ["1_0", "٣"])
    def test_raw_id_must_be_plain_ascii(self, raw_id):
        with pytest.raises(FormatError, match="bad raw id"):
            dataio.ClassMap.parse(f"0 = unlabeled\n{raw_id} = ground\n")

    @pytest.mark.parametrize("line", ["1 = parked car", "1 ="])
    def test_class_name_is_one_token(self, line):
        with pytest.raises(FormatError, match="one class name"):
            dataio.ClassMap.parse(f"0 = unlabeled\n{line}\n")

    def test_repeated_raw_id_takes_last_name_at_first_position(self):
        class_map = dataio.ClassMap.parse(
            "# ids\n1 = ground\n0 = unlabeled\n2 = vehicle  # car\n1 = object\n")
        assert class_map.class_names == ["object", "unlabeled", "vehicle"]
        assert list(class_map.remap([0, 1, 2, 3])) == [1, 0, 2, 1]

    def test_parse_rejects_map_without_supervised_class(self):
        with pytest.raises(FormatError, match="besides unlabeled"):
            dataio.ClassMap.parse("0 = unlabeled\n1 = unlabeled\n")


class TestSyntheticFrames:
    @pytest.fixture
    def spec(self):
        return dataio.SceneSpec(ground=(-8, 8, -8, 8), boxes=2, posts=2)

    def test_deterministic(self, spec):
        cmap = toy_class_map()
        cloud_a, classes_a = dataio.generate_synthetic_frame(7, spec, cmap)
        cloud_b, classes_b = dataio.generate_synthetic_frame(7, spec, cmap)
        np.testing.assert_array_equal(cloud_a.xyz, cloud_b.xyz)
        np.testing.assert_array_equal(classes_a, classes_b)

    def test_seeds_differ(self, spec):
        cmap = toy_class_map()
        cloud_a, _ = dataio.generate_synthetic_frame(1, spec, cmap)
        cloud_b, _ = dataio.generate_synthetic_frame(2, spec, cmap)
        assert cloud_a.xyz.shape != cloud_b.xyz.shape or not np.array_equal(cloud_a.xyz, cloud_b.xyz)

    def test_ground_only_single_class(self):
        cmap = toy_class_map()
        spec = dataio.SceneSpec(ground=(-4, 4, -4, 4), boxes=0, posts=0)
        _, classes = dataio.generate_synthetic_frame(0, spec, cmap)
        assert set(classes.tolist()) == {cmap.index_of("ground")}

    def test_empty_spec_errors(self):
        with pytest.raises(ConfigError):
            dataio.SceneSpec(ground=(-4, 4, -4, 4), ground_density=0, boxes=0, posts=0)

    def test_all_zero_densities_spec_errors(self):
        # boxes and posts at density 0 are no surfaces either
        with pytest.raises(ConfigError, match="no surfaces"):
            dataio.SceneSpec(ground=(-4, 4, -4, 4), ground_density=0,
                             boxes=2, box_density=0, posts=1, post_density=0)

    @pytest.mark.parametrize("kind", [
        dict(ground_density=0.001, boxes=0, posts=0),  # 64 m^2 of ground: 0.064 points
        dict(ground_density=0, boxes=1, box_density=0.04, box_size=(1.0, 2.0, 1.0), posts=0),
        dict(ground_density=0, boxes=0, posts=3, post_radius=0.1, post_height=0.5,
             post_density=0.1),
    ])
    def test_surfaces_rounding_to_no_points_spec_errors(self, kind):
        # a box face is at most 1.15^2 times its size: 2 m^2 * 1.3225 * 0.04 = 0.11 points
        with pytest.raises(ConfigError, match="no surfaces"):
            dataio.SceneSpec(ground=(-4, 4, -4, 4), **kind)

    def test_one_point_surface_is_accepted(self):
        # 2 m^2 * 1.3225 * 0.2 = 0.53 rounds to one point at the largest jitter
        spec = dataio.SceneSpec(ground=(-4, 4, -4, 4), ground_density=0, boxes=1,
                                box_density=0.2, box_size=(1.0, 2.0, 1.0), posts=0)
        assert spec.boxes == 1

    def test_zero_density_draws_no_points(self):
        cmap = toy_class_map()
        spec = dataio.SceneSpec(ground=(-4, 4, -4, 4), ground_density=1.5,
                                boxes=2, box_density=0, posts=1, post_density=0)
        _, classes = dataio.generate_synthetic_frame(0, spec, cmap)
        assert classes.tolist() == [cmap.index_of("ground")] * 96  # 64 m^2 at 1.5 per m^2

    @pytest.mark.parametrize("key", ["ground_class", "box_class", "post_class"])
    def test_scene_class_missing_from_class_map_errors(self, key):
        spec = dataio.SceneSpec(ground=(-4, 4, -4, 4), **{key: "truck"})
        with pytest.raises(ConfigError, match="'truck'"):
            dataio.generate_synthetic_frame(0, spec, toy_class_map())

    def test_scene_spec_parse(self):
        text = """
        ground = -10 10 -10 10
        ground_density = 2.0
        boxes = 3
        box_size = 2 4 1.5
        posts = 1
        """
        spec = dataio.SceneSpec.parse(text)
        assert spec.boxes == 3
        assert spec.box_size == (2.0, 4.0, 1.5)
        assert spec.ground_density == 2.0

    @pytest.mark.parametrize("line", [
        "ground = a b c d",  # ValueError before the reader
        "ground_density =",  # IndexError
        "box_size = 1 2",  # accepted
        "posts = -3",  # accepted
        "boxes = 1.5",
        "post_radius = nan",
        "ground_z_sigma = -1",  # ValueError when a frame is generated
        "post_height = -1",
        "ground = 0 0 0 0",  # no room for the boxes
        "box_size = -1.8 4.2 1.6",  # accepted: degenerate boxes
        "box_size = 0 0 0",
        "box_density = -12",
        "post_density = -60",
        "post_radius = 0",
        "ground_density = -1.2",
    ])
    def test_scene_spec_malformed_rejected(self, line):
        text = f"ground = -10 10 -10 10\n{line}\n"
        with pytest.raises(ConfigError, match=line.split()[0]):
            dataio.SceneSpec.parse(text)
