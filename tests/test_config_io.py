import struct

import numpy as np
import pytest

from pillarseg import config, container, dataio, render
from pillarseg.errors import ConfigError, FormatError
from pillarseg.flat import read_value


class TestFlatConfig:
    def test_parse_tokens_and_comments(self):
        values = config.parse_flat("a = 1 2 3\n# comment\nb = x  # trailing\n\n")
        assert values == {"a": ["1", "2", "3"], "b": ["x"]}

    def test_bad_line_rejected(self):
        with pytest.raises(FormatError):
            config.parse_flat("not a pair\n")

    @pytest.mark.parametrize("token", ["1_0", "٣"])
    def test_number_must_be_plain_ascii(self, token):
        # int() and float() alone read a digit separator and a non-ASCII digit
        for key in ("epochs", "learning_rate"):
            with pytest.raises(ConfigError, match=f"bad value for key '{key}'"):
                config.load_run_config(None, {key: [token]})
        with pytest.raises(ConfigError, match="bad value for key 'boxes'"):
            dataio.SceneSpec.parse(f"ground = -3 3 -3 3\nboxes = {token}\n")

    def test_non_ascii_text_value_kept(self):
        assert read_value("palette", ["٣.txt"], str) == "٣.txt"

    def test_defaults_build(self):
        cfg = config.load_run_config(None)
        assert cfg.grid.height == 64 and cfg.grid.width == 64
        assert cfg.class_map.num_supervised == 3

    def test_packaged_toy_config(self):
        cfg = config.load_run_config("toy.cfg")
        assert cfg.label_weights[cfg.class_map.index_of("vehicle")] == 5.0
        assert cfg.loss_weights[cfg.class_map.index_of("object")] == 5.0

    def test_unknown_key_rejected(self):
        # the attention block order and the BatchNorm momentum are fixed, not
        # keys; training and evaluation use sparse labels only, so there is no
        # mode key until a dense mode changes what they do
        for key, tokens in (("no_such_key", ["1"]), ("ma_order", ["G", "L", "P"]),
                            ("bn_momentum", ["0.9"]), ("mode", ["sparse-train"]),
                            ("eval_mode", ["sparse-eval"])):
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                config.load_run_config(None, {key: tokens})

    def test_dense_train_requires_dense_eval(self):
        # no dense mode is wired, so dense training is rejected with either eval mode
        for eval_mode in ("sparse-eval", "dense-eval"):
            with pytest.raises(ConfigError, match="unknown config key 'mode'"):
                config.load_run_config(None, {"mode": ["dense-train"],
                                              "eval_mode": [eval_mode]})

    def test_dense_modes_rejected_until_wired(self):
        # dense labels are not wired into training or evaluation yet
        with pytest.raises(ConfigError, match="unknown config key 'eval_mode'"):
            config.load_run_config(None, {"eval_mode": ["dense-eval"]})
        with pytest.raises(ConfigError, match="unknown config key 'mode'"):
            config.load_run_config(None, {"mode": ["dense-train"]})

    def test_overrides_replace_file_values(self):
        cfg = config.load_run_config("toy.cfg", {"epochs": ["2"]})
        assert cfg.epochs == 2

    def test_unlabeled_label_weight_forced_zero(self):
        cfg = config.load_run_config(None)
        assert cfg.label_weights[cfg.class_map.unlabeled_index] == 0.0

    def test_echo_is_sorted_and_stable(self):
        text = config.echo_config({"b": ["2"], "a": ["1", "3"]})
        assert text == "a = 1 3\nb = 2\n"

    @pytest.mark.parametrize("key", ["batch_size", "train_frames", "pfn_channels",
                                     "lstm_hidden", "graph_hidden", "feast_heads",
                                     "fusion_hidden", "unet_widths", "val_frames"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_count_below_one_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be at least 1"):
            config.load_run_config(None, {key: [value]})

    @pytest.mark.parametrize("value", ["0", "-1", "2"])
    def test_threads_must_be_one(self, value):
        # frames are prepared serially
        assert config.load_run_config(None, {"threads": ["1"]}).threads == 1
        with pytest.raises(ConfigError, match="threads must be exactly 1"):
            config.load_run_config(None, {"threads": [value]})

    @pytest.mark.parametrize("key", ["seed", "epochs"])
    def test_count_below_zero_rejected(self, key):
        assert getattr(config.load_run_config(None, {key: ["0"]}), key) == 0
        with pytest.raises(ConfigError, match=f"{key} must be at least 0"):
            config.load_run_config(None, {key: ["-1"]})

    @pytest.mark.parametrize("key, tokens", [
        ("x_range", "0 inf"),  # OverflowError before the reader checked finiteness
        ("pillar_size", "0.5"),  # IndexError before it checked token counts
        ("z_range", "1 2 3"),
        ("rotation_range", "1"),
        ("unet_widths", "16 0"),
        ("pfn_channels", "-3"),
        ("learning_rate", "nan"),
        ("noise_snr", "1e999"),
        ("epochs", "2 3"),
        ("classmap", "toy.map toy.map"),
    ])
    def test_malformed_value_rejected(self, key, tokens):
        with pytest.raises(ConfigError, match=key):
            config.build_run_config({key: tokens.split()})

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", "0"), ("learning_rate", "-1"),
        ("beta1", "1"), ("beta1", "-0.1"), ("beta2", "1"), ("beta2", "-0.5"),
        ("weight_decay", "-5"),
        ("fps_rate", "0"), ("fps_rate", "1.5"),
        ("label_weight_vehicle", "-1"), ("loss_weight_vehicle", "0"),
        ("pose_threshold", "0"), ("noise_snr", "0"),
        ("translate_clip", "-1"), ("translate_std", "-5 5 0.05"),
        ("label_weight_unlabeled", "1"), ("loss_weight_unlabeled", "1"),
        ("augment", "rotate none"),
    ])
    def test_out_of_range_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            config.load_run_config("toy.cfg", {key: value.split()})

    @pytest.mark.parametrize("overrides, grid", [
        ({"x_range": ["-16", "17"]}, "66 x 64"),
        ({"y_range": ["-16", "15"]}, "64 x 62"),
        ({"unet_widths": ["4"] * 7}, "64 x 64"),
        ({"pillar_size": ["0.64", "0.5", "0.25"]}, "50 x 64"),
    ], ids=["x-range", "y-range", "unet-levels", "pillar-size"])
    def test_unpoolable_grid_rejected(self, overrides, grid):
        # the M-UNet pools the grid by 2 once per unet_widths entry; a grid
        # that does not divide by 2^levels used to fail in maxpool2d
        with pytest.raises(ConfigError, match=f"x_range, y_range and pillar_size give a {grid} "
                                              f"grid that .* unet_widths cannot pool"):
            config.load_run_config("toy.cfg", overrides)
        assert config.load_run_config("toy.cfg", {"x_range": ["-16", "18"]}).grid.width == 68

    def test_class_map_without_scene_classes_loads(self):
        # the default scene names toy classes; only generating a frame needs them
        cfg = config.load_run_config(None, {"classmap": ["nuscenes_16.map"]})
        assert cfg.class_map.num_supervised == 16

    def test_bad_weight_value_rejected(self):
        with pytest.raises(ConfigError, match="label_weight_vehicle"):
            config.load_run_config("toy.cfg", {"label_weight_vehicle": ["inf"]})

    def test_semantickitti_reference_config_parses(self):
        cfg = config.load_run_config("semantickitti.cfg")
        assert cfg.grid.width == 1024 and cfg.grid.height == 512
        assert cfg.class_map.num_supervised == 12
        assert cfg.use_ma


class TestContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "floats": rng.normal(size=(3, 4)).astype(np.float32),
            "empty": np.zeros((0, 5), dtype=np.float32),
        }
        path = tmp_path / "data.pstc"
        container.write_container(path, arrays)
        back = container.read_container(path)
        assert set(back) == set(arrays)
        for k in arrays:
            np.testing.assert_array_equal(back[k], arrays[k])
            assert back[k].dtype == arrays[k].dtype

    def test_non_float32_write_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="float32 arrays only, got float64 for 'x'"):
            container.write_container(tmp_path / "f8.pstc", {"x": np.zeros(3)})

    def test_non_float32_code_rejected(self, tmp_path):
        # code 0, float32, is the only dtype code
        path = tmp_path / "f8.pstc"
        path.write_bytes(container.MAGIC + struct.pack("<IIH", container.VERSION, 1, 1) + b"a"
                         + struct.pack("<BBI", 1, 1, 1) + b"\x00" * 8)
        with pytest.raises(FormatError, match="unknown dtype code 1 for entry 'a'"):
            container.read_container(path)

    def test_deterministic_bytes(self, tmp_path):
        arrays = {"x": np.arange(6, dtype=np.float32).reshape(2, 3)}
        a, b = tmp_path / "a.pstc", tmp_path / "b.pstc"
        container.write_container(a, arrays)
        container.write_container(b, arrays)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pstc"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            container.read_container(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "ok.pstc"
        container.write_container(path, {"x": np.ones(10, dtype=np.float32)})
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError):
            container.read_container(path)


    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.pstc"
        container.write_container(path, {"x": np.ones(3, dtype=np.float32)})
        path.write_bytes(path.read_bytes() + b"\x00" * 19)
        with pytest.raises(FormatError, match="19 trailing bytes after the last entry"):
            container.read_container(path)

    def test_non_utf8_name_rejected(self, tmp_path):
        path = tmp_path / "name.pstc"
        container.write_container(path, {"ab": np.ones(2, dtype=np.float32)})
        path.write_bytes(path.read_bytes().replace(b"ab", b"\xff\xfe", 1))
        with pytest.raises(FormatError, match="not UTF-8"):
            container.read_container(path)

    @pytest.mark.parametrize("dims", [(1,) * 70, (65536,) * 4])  # too many; 2**64 elements
    def test_impossible_shape_rejected(self, tmp_path, dims):
        path = tmp_path / "shape.pstc"
        path.write_bytes(container.MAGIC + struct.pack("<IIH", container.VERSION, 1, 1) + b"a"
                         + struct.pack(f"<BB{len(dims)}I", 0, len(dims), *dims) + b"\x00" * 4)
        with pytest.raises(FormatError, match="entry 'a'"):
            container.read_container(path)

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "twice.pstc"
        container.write_container(path, {"ab": np.ones(2, dtype=np.float32),
                                         "cd": np.zeros(3, dtype=np.float32)})
        path.write_bytes(path.read_bytes().replace(b"cd", b"ab", 1))
        with pytest.raises(FormatError, match="duplicate entry 'ab'"):
            container.read_container(path)


class TestRender:
    def test_pgm8_header_and_payload(self, tmp_path):
        path = tmp_path / "img.pgm"
        render.write_pgm8(path, np.array([[0, 128], [255, 64]], dtype=np.int64))
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        assert data[-4:] == bytes([0, 128, 255, 64])

    def test_pgm8_float_scaling(self, tmp_path):
        path = tmp_path / "img.pgm"
        render.write_pgm8(path, np.array([[0.0, 2.0], [4.0, 1.0]]))
        assert path.read_bytes()[-4:] == bytes([0, 128, 255, 64])

    def test_pgm16_big_endian(self, tmp_path):
        path = tmp_path / "img16.pgm"
        render.write_pgm16(path, np.array([[1, 258]], dtype=np.int64))
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 1\n65535\n")
        assert data[-4:] == bytes([0, 1, 1, 2])

    def test_raw16_round_trip(self, tmp_path):
        path = tmp_path / "labels.raw"
        values = np.array([[1, 2], [3, 4]], dtype=np.int16)
        render.write_raw16(path, values)
        np.testing.assert_array_equal(np.fromfile(path, dtype="<u2").reshape(2, 2), values)

    def test_ppm_and_palette(self, tmp_path):
        palette = render.parse_palette("ground 10 20 30\nvehicle 1 2 3\nunlabeled 255 255 255\n")
        labels = np.array([[0, 1], [2, 1]])
        colors = render.class_colors(["unlabeled", "ground", "vehicle"], palette)
        observed = np.array([[True, True], [True, False]])
        rgb = render.render_class_map(labels, colors, observed)
        np.testing.assert_array_equal(rgb[0, 1], [10, 20, 30])
        np.testing.assert_array_equal(rgb[1, 1], [255, 255, 255])  # unobserved -> white
        path = tmp_path / "img.ppm"
        render.write_ppm(path, rgb)
        assert path.read_bytes().startswith(b"P6\n2 2\n255\n")

    def test_missing_palette_entry_rejected(self):
        palette = render.parse_palette("ground 1 2 3\n")
        with pytest.raises(ConfigError):
            render.class_colors(["sky"], palette)

    @pytest.mark.parametrize("component", ["256", "-1"])
    def test_palette_component_out_of_range_rejected(self, component):
        with pytest.raises(FormatError, match="palette line 2: color components must be in 0-255"):
            render.parse_palette(f"ground 1 2 3\nvehicle 1 {component} 3\n")

    @pytest.mark.parametrize("component", ["1_0", "٣"])
    def test_palette_component_must_be_plain_ascii(self, component):
        with pytest.raises(FormatError, match="palette line 2: bad color"):
            render.parse_palette(f"ground 1 2 3\nvehicle 1 {component} 3\n")
