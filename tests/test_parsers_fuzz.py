"""Fuzzing of the parsers of external input.

Every parser either returns a well-formed result or raises one of the
package's typed errors (`PillarSegError` subclasses); a raw numpy, struct or
Unicode exception fails the property. The inputs are arbitrary bytes or text,
and valid encodings with a few bytes, tokens or entry names changed.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pillarseg import config, container, dataio, render, train
from pillarseg.errors import PillarSegError
from pillarseg.model import PillarSegNet


def parse_or_none(parse, *args):
    """`parse(*args)`, or None when it raises a typed error."""
    try:
        return parse(*args)
    except PillarSegError:
        return None


@st.composite
def mutated(draw, valid):
    """Bytes from the `valid` strategy with some bytes overwritten, then
    truncated or extended."""
    data = bytearray(draw(valid))
    for _ in range(draw(st.integers(0, 4)) if data else 0):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.integers(0, len(data)))
    return bytes(data[:cut]) if draw(st.booleans()) else bytes(data) + draw(st.binary(max_size=8))


finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
point_records = st.lists(st.tuples(finite32, finite32, finite32, finite32), max_size=6).map(
    lambda pts: dataio.serialize_point_cloud(dataio.PointCloud(
        np.reshape(pts, (-1, 4))[:, :3].astype(np.float32),
        np.reshape(pts, (-1, 4))[:, 3].astype(np.float32))))


class TestPointCloud:
    @given(st.binary(max_size=80) | mutated(point_records))
    def test_typed_errors_only(self, data):
        cloud = parse_or_none(dataio.parse_point_cloud, data)
        if cloud is not None:
            assert len(cloud) == len(data) // 16
            assert np.isfinite(cloud.xyz).all() and np.isfinite(cloud.reflectance).all()


label_records = st.binary(max_size=40).map(lambda b: b[: len(b) // 4 * 4])


class TestLabels:
    @given(st.binary(max_size=40) | mutated(label_records))
    def test_typed_errors_only(self, data):
        labels = parse_or_none(dataio.parse_labels, data)
        if labels is not None:
            assert labels.dtype == np.uint16 and len(labels) == len(data) // 4


POSE_TOKENS = st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "NaN", "0x1", "1_0",
                               "", "--1", "e", "٣"]) | st.floats().map(repr)


@st.composite
def mutated_poses(draw):
    """Valid pose lines (identity or a quarter turn about z) with some tokens replaced."""
    lines = [["1", "0", "0", "1.5", "0", "1", "0", "0", "0", "0", "1", "0"],
             ["0", "-1", "0", "0", "1", "0", "0", "2", "0", "0", "1", "0"]]
    lines = [list(line) for line in draw(st.lists(st.sampled_from(lines), min_size=1,
                                                  max_size=3))]
    for _ in range(draw(st.integers(1, 3))):
        line = draw(st.sampled_from(lines))
        line[draw(st.integers(0, 11))] = draw(POSE_TOKENS)
    return "\n".join(" ".join(line) for line in lines)


class TestPoses:
    @pytest.mark.filterwarnings("ignore:pose line")  # a nearly orthonormal rotation warns
    @given(st.text(max_size=60) | mutated_poses())
    def test_typed_errors_only(self, text):
        poses = parse_or_none(dataio.parse_poses, text)
        for pose in poses or []:
            assert np.isfinite(pose.rotation).all() and np.isfinite(pose.translation).all()
            assert pose.orthonormality_error() <= 1e-1
            assert np.linalg.det(pose.rotation) > 0


COLOR_TOKENS = st.sampled_from(["0", "255", "256", "-1", "300", "1e2", "0x10", "1_0", "٣",
                                "", "x", "# 1"]) | st.integers(-300, 300).map(str)


@st.composite
def mutated_palette(draw):
    """Lines of the packaged toy palette with one to three tokens replaced."""
    lines = [line.split() for line in config.packaged_text("palette_toy.txt").splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        line = draw(st.sampled_from(lines))
        line[draw(st.integers(0, 3))] = draw(COLOR_TOKENS)
    return "\n".join(" ".join(line) for line in lines)


class TestPalette:
    @example("ground 300 120 120")  # parsed to a color numpy cannot store in a uint8
    @given(st.text(max_size=40) | mutated_palette())
    def test_colors_in_range_or_typed_error(self, text):
        palette = parse_or_none(render.parse_palette, text)
        for color in (palette or {}).values():
            assert len(color) == 3 and all(0 <= c <= 255 for c in color)


class TestFlatConfig:
    @given(st.text(max_size=60) | st.lists(st.sampled_from(
        ["a = 1", "b=", "= x", "# c", "k = 1 2 # d", "no pair", "=", " \t"]), max_size=5)
        .map("\n".join))
    def test_typed_errors_only(self, text):
        values = parse_or_none(config.parse_flat, text)
        if values is not None:
            assert all(isinstance(tokens, list) for tokens in values.values())


VALUE_TOKENS = ["", "nan", "inf", "1e999", "-1", "0", "yes"]


@st.composite
def mutated_entries(draw, text):
    """The entries of flat `text` with the tokens of one or two keys replaced:
    by tokens of the pool above, or by the key's own tokens one short or one
    over."""
    values = config.parse_flat(text)
    for key in draw(st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=2,
                             unique=True)):
        tokens = values[key]
        values[key] = draw(st.lists(st.sampled_from(VALUE_TOKENS), max_size=3)
                           | st.just(tokens[:-1]) | st.just(tokens + tokens[:1]))
    return values


class TestRunConfigValues:
    @given(mutated_entries(config.packaged_text("toy.cfg")))
    def test_config_builds_its_model_or_raises_typed_error(self, values):
        cfg = parse_or_none(config.build_run_config, values)
        if cfg is not None:
            PillarSegNet(train.model_config(cfg), seed=cfg.seed)


class TestSceneSpecValues:
    @given(mutated_entries(config.packaged_text("toy_scene.txt")))
    def test_scene_generates_or_raises_typed_error(self, values):
        text = "\n".join(f"{key} = {' '.join(tokens)}" for key, tokens in values.items())
        spec = parse_or_none(dataio.SceneSpec.parse, text)
        if spec is not None:
            class_map = dataio.ClassMap.parse(config.packaged_text("toy.map"))
            parse_or_none(dataio.generate_synthetic_frame, 0, spec, class_map)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "data.pstc"


def encode(path, arrays):
    container.write_container(path, arrays)
    return path.read_bytes()


# entries named "#0", "#1", ...; the byte "#" occurs nowhere else in the file
entries = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(
    lambda sizes: {f"#{i}": np.arange(n, dtype=np.float32) for i, n in enumerate(sizes)})


class TestContainer:
    @given(st.data())
    def test_typed_errors_only(self, scratch, data):
        count = data.draw(st.integers(0, 3))
        header = container.MAGIC + struct.pack("<II", container.VERSION, count)
        raw = data.draw(st.binary(max_size=40).map(header.__add__)
                        | mutated(entries.map(lambda arrays: encode(scratch, arrays))))
        scratch.write_bytes(raw)
        arrays = parse_or_none(container.read_container, scratch)
        if arrays is not None:
            assert len(arrays) == struct.unpack_from("<I", raw, 8)[0]

    @given(entries, st.binary(min_size=1, max_size=40))
    def test_appended_bytes_rejected(self, scratch, arrays, tail):
        # a well-formed container with anything after its last entry
        scratch.write_bytes(encode(scratch, arrays) + tail)
        assert parse_or_none(container.read_container, scratch) is None

    @given(st.data())
    def test_renamed_entries(self, scratch, data):
        raw = bytearray(data.draw(entries.map(lambda arrays: encode(scratch, arrays))))
        offsets = [i for i, byte in enumerate(raw) if byte == ord("#")]
        for i in data.draw(st.lists(st.sampled_from(range(len(offsets))), max_size=2)):
            raw[offsets[i] : offsets[i] + 2] = data.draw(
                st.binary(min_size=2, max_size=2) | st.sampled_from([b"#0", b"#1", b"#2"]))
        scratch.write_bytes(raw)
        try:
            names = [raw[i : i + 2].decode("utf-8") for i in offsets]
        except UnicodeDecodeError:
            names = None
        arrays = parse_or_none(container.read_container, scratch)
        if names is None or len(set(names)) < len(names):
            assert arrays is None
        else:
            assert list(arrays) == names
