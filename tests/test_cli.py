"""Tests for the config, CLI commands and point-cloud handling."""

import copy
import json
import re
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import (
    BAND_RGB,
    GREEN,
    RED,
    SIZE_SMALL,
    pasted,
    scene_at,
)

from bandpointer import cli, synthetic
from bandpointer.cli import (
    Config,
    EXIT_ERROR,
    EXIT_NO_ASSOCIATION,
    EXIT_OK,
    EXIT_POINTER_NOT_FOUND,
    EXIT_POSE_FAILURE,
    evaluate_sweep,
    load_color_model,
    main,
    outlier_flags,
    run_pipeline,
    save_color_model,
    write_ply,
)
from bandpointer.color_model import (
    ColorClassSet,
    calibrate_colors,
    classify_image_masked,
    deserialize_color_set,
    serialize_color_set,
)
from bandpointer.detection import DetectionParams
from bandpointer.errors import BandPointerError, ConfigError, NoEdgesError, NumericError
from bandpointer.imaging import (
    RasterImage,
    load_image,
    rgb_to_hue_saturation,
    save_pgm,
    save_ppm,
)
from bandpointer.pose import PoseEstimate


def make_config_dict():
    return {
        "camera": {
            "image_size_px": [612, 512],
            "k_row_major": [1000.0, 0.0, 305.5, 0.0, 1000.0, 255.5, 0.0, 0.0, 1.0],
            "rotation_row_major": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            "translation_mm": [0.0, 0.0, 0.0],
            "distortion": {"k1": 0.0, "k2": 0.0, "k3": 0.0, "p1": 0.0, "p2": 0.0},
        },
        "pointer": {
            "total_length_mm": 100.0,
            "edge_distances_mm": [25.0, 55.0, 78.0],
            "edge_diameters_mm": [4.0, 4.0, 4.0],
            "band_colors": ["red", "green", "red", "green"],
        },
        "colors": {"red": 1, "green": 2},
        "detection": {
            "s1": 0.25,
            "s2": 0.12,
            "r1": 3,
            "r2": 2,
            "ransac_seed": 0,
        },
    }


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, quad_spec, small_camera, small_colors):
    """Config, color model and a rendered probe frame on disk."""
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(make_config_dict()))
    colors_path = root / "colors.json"
    save_color_model(small_colors, colors_path)

    scene = scene_at(quad_spec, small_camera, 330.0, 8.0, 4.0)
    img, _ = synthetic.render(scene, small_camera, SIZE_SMALL)
    frame_path = root / "frame.ppm"
    save_ppm(img, frame_path)
    return {
        "root": root,
        "config": config_path,
        "colors": colors_path,
        "frame": frame_path,
        "scene": scene,
    }


def probe(workspace, image=None, config=None, colors=None):
    """main's exit code for probe on image under config and color model,
    each the workspace's unless given."""
    return main([
        "--config", str(config or workspace["config"]),
        "probe", "--image", str(image or workspace["frame"]),
        "--color-model", str(colors or workspace["colors"]),
    ])


def track(workspace, frames, prefix, *flags):
    """main's exit code for track on the frames directory under the
    workspace's config and color model, writing outputs at prefix."""
    return main([
        "--config", str(workspace["config"]),
        "track", "--frames", str(frames),
        "--color-model", str(workspace["colors"]),
        "--out-prefix", str(prefix), *flags,
    ])


def frame_dir(workspace, path, names):
    """A directory at path holding the workspace's frame under each name."""
    path.mkdir()
    for name in names:
        (path / name).write_bytes(workspace["frame"].read_bytes())
    return path


def config_error(code, capsys):
    """stderr of a run that exited 1 with one config error line."""
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    return err


def assert_config_holds(config, data):
    """Every field of the config dict data, as the parsed config holds it:
    radii are half the diameters and band colors are class ids."""
    cam, ptr = data["camera"], data["pointer"]
    assert config.image_size == tuple(cam["image_size_px"])
    assert config.camera.K.ravel().tolist() == cam["k_row_major"]
    assert config.camera.R.ravel().tolist() == cam["rotation_row_major"]
    assert config.camera.t.tolist() == cam["translation_mm"]
    assert asdict(config.camera.distortion) == cam["distortion"]
    assert config.pointer.total_length_mm == ptr["total_length_mm"]
    assert config.pointer.distances_mm.tolist() == ptr["edge_distances_mm"]
    assert config.pointer.radii_mm.tolist() == [d / 2 for d in ptr["edge_diameters_mm"]]
    assert config.pointer.band_labels == tuple(
        None if name is None else data["colors"][name] for name in ptr["band_colors"]
    )
    assert config.color_names == data["colors"]
    assert asdict(config.detection) == data["detection"]


class TestConfig:
    def test_round_trip_identity(self):
        data = make_config_dict()
        assert_config_holds(Config.from_dict(data), data)
        assert data == make_config_dict()  # the input is left as it is

    def test_radii_are_half_diameters(self):
        config = Config.from_dict(make_config_dict())
        assert config.pointer.radii_mm[0] == pytest.approx(2.0)

    def test_readme_config_parses_with_every_detection_field(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Configuration", 1)[1]
        data = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        Config.from_dict(data)
        assert set(data["detection"]) == {f.name for f in fields(DetectionParams)}

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_band_colors_round_trip_and_side_labels_chain(self, data):
        names = st.sampled_from(["red", "green", "blue", None])
        band_names = [data.draw(names)]
        n = data.draw(st.integers(1, 9))
        for _ in range(n):
            band_names.append(data.draw(names.filter(lambda c: c is None or c != band_names[-1])))
        spacings = data.draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
        cfg = make_config_dict()
        cfg["colors"] = {"red": 1, "green": 2, "blue": 3}
        cfg["pointer"] = {
            "total_length_mm": float(sum(spacings) + 5),
            "edge_distances_mm": [float(d) for d in np.cumsum(spacings)],
            "edge_diameters_mm": [4.0] * n,
            "band_colors": band_names,
        }
        try:
            config = Config.from_dict(cfg)
        except ConfigError as exc:  # indistinguishable from its reversal
            assert "reversal" in str(exc)
            reject()
        assert_config_holds(config, cfg)
        ids = config.pointer.band_labels
        assert config.pointer.side_labels == tuple(zip(ids, ids[1:]))

    def test_unknown_band_color_rejected(self):
        data = make_config_dict()
        data["pointer"]["band_colors"][0] = "purple"
        with pytest.raises(
            ConfigError,
            match=r"^pointer\.band_colors\[0\] must be null or a name in colors, got 'purple'$",
        ):
            Config.from_dict(data)

    def test_config_that_is_not_an_object_rejected(self):
        with pytest.raises(ConfigError, match="^the document must be a JSON object, got list$"):
            Config.from_dict([make_config_dict()])


DELETE = object()  # a mutation that deletes the key or list entry

# Each replaces one key or list entry of a document at a time: every kind
# of JSON value, the edges of the integer ranges, numbers too large for a
# float64 or for a frame, a nested list and an unknown key.
MUTATIONS = (True, None, "x", "0.5", [1], [], {}, -1, 0, 10**400, 1e308, [[1]], {"a": 1}, DELETE)

# A mutation that another field names: a band color names the class id
# that colors gives it.
CONFIG_CROSS_REFS = {
    ("colors",): ("pointer", "band_colors", 0),
    ("colors", "red"): ("pointer", "band_colors", 0),
    ("colors", "green"): ("pointer", "band_colors", 1),
}


def _mutated(doc, path, value):
    """Copy of doc with the key or entry at path set to value, or deleted;
    the empty path replaces the whole document."""
    if not path:
        return value
    data = copy.deepcopy(doc)
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return data


def _set(path, value):
    """Copy of the test config with the key at `path` set to `value`."""
    return _mutated(make_config_dict(), path, value)


def _paths(doc, entries=None, path=()):
    """The path of every section, list entry and leaf in doc, taking the
    first `entries` entries of each list (all of them with None)."""
    items = doc.items() if isinstance(doc, dict) else list(enumerate(doc))[:entries]
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, entries, path + (key,))


def _assert_named(message, path, cross_refs=None):
    """The rule every document error keeps: one line that leads with the
    mutated path, a section above or below it, or the path cross_refs lists
    for it; not a Python repr, a signature or a catch-all text. The whole
    document is named as the document."""
    assert "\n" not in message and "__init__" not in message, message
    assert not message.startswith("bad config"), message
    if not path:
        assert message.startswith("the document must be a JSON object"), message
        return
    lead = re.match(r"[A-Za-z_]\w*(?:\.\w+|\[\d+\])*", message)
    assert lead, message
    named = tuple(
        int(index) if index else key
        for key, index in re.findall(r"(\w+)|\[(\d+)\]", lead.group(0))
    )
    for target in (path, (cross_refs or {}).get(path)):
        if target and (named == target[:len(named)] or target == named[:len(target)]):
            return
    raise AssertionError(f"{path}: {message}")


def _assert_named_error_line(workspace, tmp_path, capsys, doc, path, value, message):
    """Run probe (eval for the sweep doc) with the key at path of the test
    config, color model or sweep spec set to value, the empty path
    replacing the document, and check that it exits 1 with one config
    error line holding the message."""
    docs = {
        "config": make_config_dict(),
        "colors": json.loads(workspace["colors"].read_text()),
        "sweep": {"depths_mm": [330.0], "angles_deg": [0.0], "noise_px": 0.0, "roll_deg": 4.0},
    }
    docs[doc] = _mutated(docs[doc], path, value)
    for name, data in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    out_path = tmp_path / "report.csv"
    if doc == "sweep":
        code = main(["--config", str(tmp_path / "config.json"), "eval",
                     "--sweep", str(tmp_path / "sweep.json"), "--out", str(out_path)])
    else:
        code = probe(workspace, config=tmp_path / "config.json", colors=tmp_path / "colors.json")
    assert message in config_error(code, capsys)
    assert not out_path.exists()


class TestConfigValidation:
    @pytest.mark.parametrize(
        "doc, path, value, message",
        [
            ("config", ("pointer", "edge_distances_mm", 1), "55",
             "pointer.edge_distances_mm[1] must be a number, got '55'"),
            ("config", ("pointer", "edge_diameters_mm", 0), "4",
             "pointer.edge_diameters_mm[0] must be a number, got '4'"),
            ("config", ("pointer", "total_length_mm"), "100",
             "pointer.total_length_mm must be a number, got '100'"),
            ("config", ("camera", "k_row_major", 0), "1000",
             "camera.k_row_major[0] must be a number, got '1000'"),
            ("config", ("camera", "rotation_row_major", 4), "1",
             "camera.rotation_row_major[4] must be a number, got '1'"),
            ("config", ("camera", "translation_mm", 2), "0",
             "camera.translation_mm[2] must be a number, got '0'"),
            ("config", ("camera", "k_row_major"), [[1000.0, 0.0, 305.5]] * 3,
             "camera.k_row_major[0] must be a number, got a list"),
            ("config", ("pointer", "total_length_mm"), None,
             "pointer.total_length_mm must be a number, got None"),
            ("colors", ("classes", 1, "lut", 3), "0.5",
             "classes[1].lut[3] must be a number, got '0.5'"),
            ("sweep", ("depths_mm", 0), "330", "depths_mm[0] must be a number, got '330'"),
            ("sweep", ("angles_deg", 0), "0", "angles_deg[0] must be a number, got '0'"),
            ("sweep", ("noise_px",), "0.5", "noise_px must be a number, got '0.5'"),
            ("sweep", ("roll_deg",), "4", "roll_deg must be a number, got '4'"),
            ("config", ("detection", "s1"), "0.25", "detection.s1 must be a number, got '0.25'"),
        ],
        ids=["str-edge-distance", "str-diameter", "str-length", "str-focal-length",
             "str-rotation", "str-translation", "nested-k", "null-length", "str-lut",
             "str-depth", "str-angle", "str-noise", "str-roll", "str-s1"],
    )
    def test_number_read_from_text_named(
        self, workspace, tmp_path, capsys, doc, path, value, message
    ):
        _assert_named_error_line(workspace, tmp_path, capsys, doc, path, value, message)

    @pytest.mark.parametrize(
        "doc, path, value, message",
        [
            ("config", ("camera",), [1], "camera must be a JSON object, got list"),
            ("config", ("detection",), [1], "detection must be a JSON object, got list"),
            ("config", ("camera", "distortion"), [0.0] * 5,
             "camera.distortion must be a JSON object, got list"),
            ("config", ("pointer", "band_colors", 0), ["red"],
             "pointer.band_colors[0] must be null or a name in colors, got ['red']"),
            ("config", ("camera", "k_row_major"), [1000.0] * 8,
             "camera.k_row_major must hold 9 entries, got 8"),
            ("config", ("camera", "translation_mm"), [0.0, 0.0],
             "camera.translation_mm must hold 3 entries, got 2"),
            ("sweep", (), [330.0, 0.0],
             "sweep.json: the document must be a JSON object, got list"),
        ],
        ids=["list-camera", "list-detection", "list-distortion", "list-band-color",
             "short-k", "short-translation", "list-sweep"],
    )
    def test_bad_structure_named(self, workspace, tmp_path, capsys, doc, path, value, message):
        # a misshapen section or list is named by its field, not reported
        # through the Python error it would cause further on
        _assert_named_error_line(workspace, tmp_path, capsys, doc, path, value, message)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("detection", "r1"), 3.5),
            (("camera", "image_size_px"), [612]),
            (("camera", "image_size_px"), [612.5, 512]),
            (("camera", "image_size_px"), [612, 0]),
            (("camera", "image_size_px"), [float("inf"), 512]),
            (("camera", "image_size_px"), [612, float("nan")]),
            (("colors",), [1, 2]),
            (("detection", "ransac_iterations"), 0),
            (("detection", "ransac_iterations"), 200.5),
            (("detection", "ransac_seed"), -1),
            (("colors", "red"), 1.5),
            (("colors", "red"), True),
            (("colors", "red"), 0),
            (("colors", "red"), 300),
            (("detection", "major_expand"), -1),
            (("detection", "minor_expand"), 0),
            (("detection", "binarize_threshold"), 2.0),
            (("detection", "binarize_threshold"), 0.0),
            (("detection", "line_inlier_sigmas"), float("nan")),
            (("detection", "pair_separation_sigmas"), -3),
            (("detection", "pair_separation_sigmas"), float("inf")),
            (("pointer", "edge_distances_mm", 1), float("nan")),
            (("pointer", "edge_diameters_mm", 0), float("nan")),
            (("pointer", "edge_diameters_mm", 2), float("inf")),
            (("pointer", "total_length_mm"), float("inf")),
            (("pointer", "total_length_mm"), float("nan")),
            (("camera", "k_row_major", 0), float("inf")),
            (("camera", "translation_mm", 2), float("nan")),
            (("camera", "distortion", "k1"), float("nan")),
            (("camera", "distortion", "p2"), float("-inf")),
            (("camera", "distortion"), [0.0, 0.0, 0.0, 0.0, 0.0]),
            (("camera", "distortion"), None),
            (("camera", "distortion", "k_1"), 0.0),
            (("pointer", "band_colors"), ["red", "green", "red"]),
            (("pointer", "edge_diameters_mm"), [4.0, 4.0]),
            (("pointer", "edge_distances_mm"), []),
            (("pointer", "edge_distances_mm", 0), 0.0),
            (("pointer", "edge_distances_mm", 2), 100.5),
            (("pointer", "edge_diameters_mm", 1), 0.0),
            (("pointer", "band_colors", 0), "purple"),
            ((), [make_config_dict()]),
        ],
        ids=["fractional-r1", "one-size", "fractional-size", "zero-size",
             "infinite-size", "nan-size",
             "colors-list", "zero-ransac-iterations", "fractional-ransac-iterations",
             "negative-seed", "fractional-color-id", "bool-color-id",
             "background-color-id", "wide-color-id", "negative-major-expand",
             "zero-minor-expand", "binarize-above-one", "zero-binarize",
             "nan-line-sigmas", "negative-pair-sigmas", "infinite-pair-sigmas",
             "nan-edge-distance", "nan-diameter", "infinite-diameter",
             "infinite-length", "nan-length", "infinite-focal-length",
             "nan-translation", "nan-k1", "infinite-p2", "distortion-list",
             "distortion-null", "unknown-distortion-key", "missing-band-color",
             "missing-diameter", "no-edges", "edge-at-tip", "edge-past-end",
             "zero-diameter", "unknown-band-color", "list-config"],
    )
    def test_bad_config_exits_with_one_line(
        self, workspace, tmp_path, capsys, path, value
    ):
        # inputs the mutation test takes besides its value list, run through
        # the CLI: a one-line error that names the field by the same rule
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(_set(path, value)))
        code = probe(workspace, config=config_path)
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        label = f"config error: {config_path}: "
        assert err.startswith(label) and err.endswith("\n")
        _assert_named(err[len(label):-1], path, CONFIG_CROSS_REFS)

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"edge_distances_mm": "123", "edge_diameters_mm": "333"}, "edge_distances_mm"),
            ({"edge_diameters_mm": "444"}, "edge_diameters_mm"),
            ({"band_colors": "rgrg"}, "band_colors"),
        ],
        ids=["str-distances", "str-diameters", "str-band-colors"],
    )
    def test_pointer_lists_must_be_arrays(self, workspace, tmp_path, capsys, changes, field):
        # a string is iterable: "123" would load as edges at 1, 2 and 3 mm
        data = make_config_dict()
        data["pointer"].update(changes)
        data["colors"] = {"r": 1, "g": 2}
        data["pointer"]["band_colors"] = changes.get("band_colors", list("rgrg"))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        err = config_error(probe(workspace, config=config_path), capsys)
        assert f"pointer.{field} must be a list" in err

    @pytest.mark.parametrize(
        "key, value",
        [("major_expand", 1.1), ("minor_expand", 1.5), ("binarize_threshold", 0.3),
         ("line_inlier_sigmas", 3.0), ("pair_separation_sigmas", 5.0),
         ("ransac_iterations", 200)],
    )
    def test_removed_detection_key_is_named(self, workspace, tmp_path, capsys, key, value):
        # fixed settings are module constants, not config keys: a config
        # naming one, at any value, is rejected by name rather than ignored
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(_set(("detection", key), value)))
        assert key in config_error(probe(workspace, config=config_path), capsys)

    def test_integral_float_radii_accepted(self, workspace, tmp_path, capsys):
        data = _set(("detection", "r1"), 3.0)
        data["detection"]["r2"] = 2.0
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        assert probe(workspace, config=config_path) == EXIT_OK
        assert probe(workspace) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == out[1]

    def test_whole_float_class_ids_accepted(self, workspace, tmp_path, capsys):
        # 1.0 names class 1 in the config's colors and in the color model,
        # as 3.0 names radius 3
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(_set(("colors",), {"red": 1.0, "green": 2.0})))
        model = json.loads(workspace["colors"].read_text())
        for entry in model["classes"]:
            entry["label"] = float(entry["label"])
        colors_path = tmp_path / "colors.json"
        colors_path.write_text(json.dumps(model))
        runs = ((config_path, colors_path), (workspace["config"], workspace["colors"]))
        for config, colors in runs:
            assert probe(workspace, config=config, colors=colors) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == out[1]
        assert Config.from_dict(json.loads(config_path.read_text())).color_names == {
            "red": 1, "green": 2
        }

    def test_numpy_labels_saved_as_ints(self, workspace, tmp_path):
        colors = load_color_model(workspace["colors"])
        relabeled = ColorClassSet(
            labels=tuple(np.int64(label) for label in colors.labels), luts=colors.luts
        )
        assert all(type(label) is int for label in relabeled.labels)
        save_color_model(relabeled, tmp_path / "colors.json")
        assert (tmp_path / "colors.json").read_bytes() == workspace["colors"].read_bytes()


    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("camera", "image_size_px"), [True, True], "camera.image_size_px[0]"),
            (("detection", "ransac_seed"), True, "detection.ransac_seed"),
            (("detection", "s1"), True, "detection.s1"),
            (("pointer", "edge_distances_mm", 1), True, "pointer.edge_distances_mm[1]"),
            (("camera", "distortion", "k1"), True, "camera.distortion.k1"),
            (("pointer", "total_length_mm"), False, "pointer.total_length_mm"),
        ],
        ids=["bool-size", "bool-ransac-seed", "bool-s1", "bool-edge-distance",
             "bool-k1", "bool-length"],
    )
    def test_boolean_number_rejected_by_name(
        self, workspace, tmp_path, capsys, path, value, field
    ):
        # JSON true/false would otherwise load as 1/0, e.g. a 1x1 camera
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(_set(path, value)))
        err = config_error(probe(workspace, config=config_path), capsys)
        assert f"{field} must not be a boolean" in err

    @pytest.mark.parametrize(
        "name, value",
        [("s1", True), ("s2", False), ("r1", True), ("r2", True), ("ransac_seed", False)],
    )
    def test_detection_params_reject_booleans(self, name, value):
        kwargs = dict(s1=0.25, s2=0.12, r1=3, r2=2, ransac_seed=0) | {name: value}
        with pytest.raises(
            ValueError, match=f"^{name} must not be a boolean, got {json.dumps(value)}$"
        ):
            DetectionParams(**kwargs)

    @pytest.mark.parametrize(
        "name, value, shown",
        [("s1", "0.25", "'0.25'"), ("s2", None, "None"), ("s1", [0.25], "a list"),
         ("r1", "3", "'3'"), ("ransac_seed", None, "None")],
        ids=["str-s1", "null-s2", "list-s1", "str-r1", "null-seed"],
    )
    def test_detection_params_reject_non_numbers(self, name, value, shown):
        # checked before the 0 <= s2 < s1 <= 1 comparison, whose TypeError
        # would name no field
        kwargs = dict(s1=0.25, s2=0.12, r1=3, r2=2, ransac_seed=0) | {name: value}
        with pytest.raises(ValueError, match=f"^{name} must be a number, got {re.escape(shown)}$"):
            DetectionParams(**kwargs)

    @pytest.mark.parametrize(
        "name, value, shown",
        [("k1", "x", "'x'"), ("p2", None, "None"), ("k3", [0.1], "a list"),
         ("k2", "0.1", "'0.1'")],
        ids=["string-k1", "null-p2", "list-k3", "numeric-string-k2"],
    )
    def test_non_number_distortion_named(
        self, workspace, tmp_path, capsys, name, value, shown
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(_set(("camera", "distortion", name), value)))
        err = config_error(probe(workspace, config=config_path), capsys)
        assert f"camera.distortion.{name} must be a number, got {shown}" in err

    def test_overflowing_distortion_fails_the_pose(self, workspace, tmp_path, capsys):
        # a lens coefficient has no natural bound, so 1e308 loads; the
        # polynomial then overflows, which is a NumericError naming the
        # point, not a numpy warning, and probe reports a pose failure
        config = _set(("camera", "distortion", "k1"), 1e308)
        camera = Config.from_dict(config).camera
        for fn in (camera.undistort, camera.distort):
            with pytest.raises(NumericError, match=re.escape("point [10.0, 20.0]")):
                fn(np.array([[10.0, 20.0]]))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code = probe(workspace, config=config_path)
        assert code == EXIT_POSE_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("pose-failure: ") and err.count("\n") == 1

    @pytest.mark.parametrize("r1", [256, 1e308], ids=["one-past-frame", "huge"])
    def test_erosion_radius_must_fit_the_frame(self, r1):
        # loading only: erode_disk would allocate the (2 r1 + 1)^2 footprint
        with pytest.raises(ConfigError, match=r"^detection\.r1 must be at most 255 for a 612x512 frame"):
            Config.from_dict(_set(("detection", "r1"), r1))

    def test_largest_erosion_radius_accepted(self):
        assert Config.from_dict(_set(("detection", "r1"), 255)).detection.r1 == 255

    @pytest.mark.parametrize("side", [0, 1])
    def test_image_side_bounded(self, workspace, tmp_path, capsys, side):
        # 1e308 is a whole number: unbounded, it loads and every frame is a bad image
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(_set(("camera", "image_size_px", side), 1e308)))
        code = probe(workspace, config=config_path)
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == (
            f"config error: {config_path}: camera.image_size_px[{side}] must be at most 65535, "
            "got 1e+308\n"
        )

    def test_largest_image_side_accepted(self):
        size = Config.from_dict(_set(("camera", "image_size_px"), [65535, 65535])).image_size
        assert size == (65535, 65535)

    @pytest.mark.parametrize(
        "source, path, field",
        [
            ("config", ("detection", "r1"), "detection.r1"),
            ("config", ("detection", "ransac_seed"), "detection.ransac_seed"),
            ("config", ("camera", "image_size_px", 1), "camera.image_size_px[1]"),
            ("sweep", ("depths_mm", 0), "depths_mm[0]"),
            ("colors", ("classes", 0, "lut", 3), "classes[0].lut[3]"),
        ],
        ids=["config-r1", "config-ransac-seed", "config-image-size", "sweep-depth",
             "color-model-lut"],
    )
    def test_integer_too_large_for_a_float_exits_with_one_line(
        self, workspace, tmp_path, capsys, source, path, field
    ):
        # float() of a 401-digit integer raises OverflowError
        data = {
            "config": make_config_dict(),
            "sweep": {"depths_mm": [330.0], "angles_deg": [0.0]},
            "colors": json.loads(workspace["colors"].read_text()),
        }
        node = data[source]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = 10**400
        paths = {"config": workspace["config"], "colors": workspace["colors"]}
        paths[source] = tmp_path / f"{source}.json"
        paths[source].write_text(json.dumps(data[source]))
        if source == "sweep":
            code = main(["--config", str(paths["config"]), "eval", "--sweep",
                         str(paths["sweep"]), "--out", str(tmp_path / "r.csv")])
        else:
            code = probe(workspace, config=paths["config"], colors=paths["colors"])
        assert f"{field} is an integer too large for a float64" in config_error(code, capsys)


class TestDocumentMutations:
    def test_every_mutation_loads_or_is_named(self, small_colors):
        # every section, list entry and leaf of the config, the color model
        # (first 3 entries of a list) and the sweep spec, replaced or
        # deleted one at a time
        sweep = {"depths_mm": [330.0, 400.0], "angles_deg": [0.0], "trials": 2,
                 "noise_px": 0.5, "seed": 1, "roll_deg": 4.0}
        docs = [
            (make_config_dict(), None, Config.from_dict, CONFIG_CROSS_REFS),
            (serialize_color_set(small_colors), 3, deserialize_color_set, None),
            (sweep, None, cli.SWEEP_FIELDS, None),
        ]
        outcomes = []
        for doc, entries, read, cross_refs in docs:
            for path in _paths(doc, entries):
                for value in MUTATIONS:
                    try:
                        read(_mutated(doc, path, value))
                        outcomes.append("loads")
                    except ConfigError as exc:
                        _assert_named(str(exc), path, cross_refs)
                        outcomes.append("named")
        assert outcomes.count("named") > outcomes.count("loads") > 0

    def test_trials_bounded_before_any_cell_runs(self, monkeypatch):
        # 1e308 is a whole number: unbounded, eval would run 10^308 trials
        monkeypatch.setattr(synthetic, "sweep", lambda *args, **kwargs: pytest.fail("a cell ran"))
        config = Config.from_dict(make_config_dict())
        with pytest.raises(
            ConfigError, match=rf"^trials must be at most {cli.MAX_TRIALS}, got 1e\+308$"
        ):
            evaluate_sweep(config, [400.0], [10.0], trials=1e308)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["probe", "--color-model", "colors.json"],
            ["track", "--frames", "f", "--out-prefix", "o", "--jobs", "x"],
            ["eval", "--sweep", "s.json", "--out", "r.csv", "--seed", "3"],
            ["fly"],
            [],
        ],
        ids=["probe-without-image", "non-integer-jobs", "removed-seed-flag",
             "unknown-command", "no-command"],
    )
    def test_usage_error_exits_1(self, workspace, capsys, args):
        # exit 2 means "pointer not found"; argparse would exit 2 here too
        assert main(["--config", str(workspace["config"]), *args]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "usage:" in err and "error:" in err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "usage:" in capsys.readouterr().out


def _calibration_frame(spec, camera):
    """A blurred rendered frame of the pointer and its exact class mask."""
    scene = scene_at(spec, camera, 330.0, 5.0, 3.0, blur_sigma=2.0)
    img, _ = synthetic.render(scene, camera, SIZE_SMALL)
    return img, synthetic.render_class_mask(scene, camera, SIZE_SMALL)


class TestCalibrateCommand:
    def test_calibrate_writes_model(
        self, workspace, quad_spec, small_camera, capsys, tmp_path
    ):
        img, mask = _calibration_frame(quad_spec, small_camera)
        img_path = tmp_path / "cal.ppm"
        mask_path = tmp_path / "cal_mask.pgm"
        out_path = tmp_path / "model.json"
        save_ppm(img, img_path)
        save_pgm(mask, mask_path)
        code = main([
            "--config", str(workspace["config"]),
            "calibrate", "--image", str(img_path),
            "--mask", str(mask_path), "--out", str(out_path),
        ])
        assert code == EXIT_OK
        model = load_color_model(out_path)
        assert model.labels == (1, 2)
        # modal hues land near the rendered band hues
        red, green = model.modal_hues()
        assert red == pytest.approx(0.80, abs=0.05)
        assert green == pytest.approx(1.29, abs=0.05)
        assert capsys.readouterr().out.splitlines() == [
            f"class 1 (red): modal hue {red:.3f} rad",
            f"class 2 (green): modal hue {green:.3f} rad",
            f"color model written to {out_path}",
        ]

    def test_model_round_trips_through_json(self, quad_spec, small_camera, tmp_path):
        img, mask = _calibration_frame(quad_spec, small_camera)
        model = calibrate_colors(img, mask, min_saturation=0.12)
        save_color_model(model, tmp_path / "model.json")
        loaded = load_color_model(tmp_path / "model.json")
        assert loaded.labels == model.labels
        assert loaded.luts.tobytes() == model.luts.tobytes()
        hs = rgb_to_hue_saturation(img)
        raster = pasted(classify_image_masked(model, hs, 0.12), img.pixels.shape[:2])
        assert set(np.unique(raster).tolist()) == {0, 1, 2}
        assert np.array_equal(
            pasted(classify_image_masked(loaded, hs, 0.12), img.pixels.shape[:2]), raster
        )

    def test_unknown_mask_class_is_config_mismatch(self, workspace, tmp_path, capsys):
        px = np.full((SIZE_SMALL[1], SIZE_SMALL[0], 3), 0.5)
        img_path = tmp_path / "cal.ppm"
        mask_path = tmp_path / "mask.pgm"
        from bandpointer.imaging import RasterImage
        save_ppm(RasterImage(px), img_path)
        mask = np.zeros((SIZE_SMALL[1], SIZE_SMALL[0]), dtype=np.uint8)
        mask[10:30, 10:30] = 7  # class 7 not in config
        save_pgm(mask, mask_path)
        code = main([
            "--config", str(workspace["config"]),
            "calibrate", "--image", str(img_path),
            "--mask", str(mask_path), "--out", str(tmp_path / "m.json"),
        ])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: mask references class ids [7]")

    def test_one_labeled_class_exits_with_one_line(self, workspace, tmp_path, capsys):
        px = np.empty((SIZE_SMALL[1], SIZE_SMALL[0], 3))
        px[:] = (0.9, 0.1, 0.1)
        from bandpointer.imaging import RasterImage
        img_path = tmp_path / "red.ppm"
        mask_path = tmp_path / "mask.pgm"
        out_path = tmp_path / "m.json"
        save_ppm(RasterImage(px), img_path)
        mask = np.zeros((SIZE_SMALL[1], SIZE_SMALL[0]), dtype=np.uint8)
        mask[:100] = 1
        save_pgm(mask, mask_path)
        code = main([
            "--config", str(workspace["config"]),
            "calibrate", "--image", str(img_path),
            "--mask", str(mask_path), "--out", str(out_path),
        ])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: calibration mask labels 1 color class")
        assert err.count("\n") == 1
        assert not out_path.exists()

    def test_mask_size_mismatch_exits_with_one_line(self, workspace, tmp_path, capsys):
        mask_path = tmp_path / "mask.pgm"
        mask = np.zeros((SIZE_SMALL[1] - 1, SIZE_SMALL[0]), dtype=np.uint8)
        mask[:100] = 1
        save_pgm(mask, mask_path)
        out_path = tmp_path / "m.json"
        code = main([
            "--config", str(workspace["config"]),
            "calibrate", "--image", str(workspace["frame"]),
            "--mask", str(mask_path), "--out", str(out_path),
        ])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: mask shape") and err.count("\n") == 1
        assert not out_path.exists()

    def test_grayscale_image_insufficient(self, workspace, tmp_path):
        px = np.full((SIZE_SMALL[1], SIZE_SMALL[0], 3), 0.5)
        from bandpointer.imaging import RasterImage
        img_path = tmp_path / "gray.ppm"
        mask_path = tmp_path / "mask.pgm"
        save_ppm(RasterImage(px), img_path)
        mask = np.zeros((SIZE_SMALL[1], SIZE_SMALL[0]), dtype=np.uint8)
        mask[:100] = 1
        mask[100:200] = 2
        save_pgm(mask, mask_path)
        code = main([
            "--config", str(workspace["config"]),
            "calibrate", "--image", str(img_path),
            "--mask", str(mask_path), "--out", str(tmp_path / "m.json"),
        ])
        assert code == EXIT_ERROR


class TestProbeCommand:
    def test_probe_success_record(self, workspace, capsys):
        assert probe(workspace) == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        record = out[0]
        assert record.startswith("tip_mm=")
        tip = np.array([float(v) for v in record.split()[0].split("=")[1].split(",")])
        # raster detection accuracy is in the low millimeters
        assert np.linalg.norm(tip - workspace["scene"].pose.tip) < 5.0

    def test_probe_without_pointer_exits_not_found(self, workspace, tmp_path, capsys):
        from bandpointer.imaging import RasterImage
        px = np.full((SIZE_SMALL[1], SIZE_SMALL[0], 3), 0.45)
        path = tmp_path / "empty.ppm"
        save_ppm(RasterImage(px), path)
        code = probe(workspace, image=path)
        assert code == EXIT_POINTER_NOT_FOUND
        assert capsys.readouterr().out == ""

    def test_probe_two_visible_edges_insufficient(
        self, workspace, quad_spec, small_camera, tmp_path, capsys
    ):
        # occlude the first junction; two junctions stay visible, below
        # the three-correspondence minimum
        scene = workspace["scene"]
        gt = synthetic.ground_truth(scene, small_camera, SIZE_SMALL)
        e0 = gt.edges[0]
        lo = np.minimum(e0.p_a, e0.p_b) - 12
        hi = np.maximum(e0.p_a, e0.p_b) + 12
        occluded = replace(scene, occluders=(synthetic.Occluder(lo[0], lo[1], hi[0], hi[1]),))
        img, _ = synthetic.render(occluded, small_camera, SIZE_SMALL)
        path = tmp_path / "occluded.ppm"
        save_ppm(img, path)
        code = probe(workspace, image=path)
        err = capsys.readouterr().err
        assert code == EXIT_NO_ASSOCIATION
        assert "three" in err or "insufficient" in err.lower()

    def test_frame_of_other_size_is_bad_image(self, workspace, tmp_path, capsys):
        # one pixel narrower than the config's camera: its K does not apply
        narrow = RasterImage(load_image(workspace["frame"]).pixels[:, 1:])
        path = tmp_path / "narrow.ppm"
        save_ppm(narrow, path)
        code = probe(workspace, image=path)
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bad image:") and captured.err.count("\n") == 1
        assert "611x512" in captured.err and "612x512" in captured.err

    @pytest.mark.parametrize(
        "data",
        [b"P6\n2 2\n65535\n" + bytes(24), b"P5\n2 2\n255\n" + bytes(4)],
        ids=["16-bit", "magic"],
    )
    def test_bad_image_is_not_a_config_error(self, workspace, tmp_path, capsys, data):
        path = tmp_path / "frame.ppm"
        path.write_bytes(data)
        code = probe(workspace, image=path)
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("bad image:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["probe", "track"])
    def test_color_model_missing_band_color_exits_with_one_line(
        self, workspace, tmp_path, capsys, command
    ):
        # the model's green class relabeled to a class the pattern never uses
        data = json.loads(workspace["colors"].read_text())
        for entry in data["classes"]:
            if entry["label"] == GREEN:
                entry["label"] = 3
        path = tmp_path / "colors.json"
        path.write_text(json.dumps(data))
        args = {
            "probe": ["--image", str(tmp_path / "never-read.ppm")],
            "track": ["--frames", str(tmp_path / "never-read"),
                      "--out-prefix", str(tmp_path / "out" / "run")],
        }[command]
        code = main([
            "--config", str(workspace["config"]), command, "--color-model", str(path), *args,
        ])
        assert "'green'" in config_error(code, capsys)
        assert not (tmp_path / "out").exists()

    def test_missing_color_model_exits_with_one_line(self, workspace, monkeypatch, capsys):
        monkeypatch.delenv("BANDPOINTER_COLOR_MODEL", raising=False)
        code = main(["--config", str(workspace["config"]), "probe",
                     "--image", str(workspace["frame"])])
        assert config_error(code, capsys).startswith("config error: --color-model required")

    @pytest.mark.parametrize(
        "entry, index, value",
        [(0, None, True), (1, 7, True), (0, 500, False)],
        ids=["all-true", "one-true", "one-false"],
    )
    def test_boolean_color_model_density_named(
        self, workspace, tmp_path, capsys, entry, index, value
    ):
        # JSON true/false would otherwise load as a density of 1.0 or 0.0
        data = json.loads(workspace["colors"].read_text())
        cls = data["classes"][entry]
        if index is None:
            cls["lut"] = [value] * len(cls["lut"])
            index = 0
        else:
            cls["lut"][index] = value
        path = tmp_path / "colors.json"
        path.write_text(json.dumps(data))
        err = config_error(probe(workspace, colors=path), capsys)
        word = json.dumps(value)
        assert f"classes[{entry}].lut[{index}] must not be a boolean, got {word}" in err

    def test_malformed_color_model_exits_with_one_line(self, workspace, tmp_path, capsys):
        data = json.loads(workspace["colors"].read_text())
        data["classes"][0]["lut"] = [1.0]
        path = tmp_path / "colors.json"
        path.write_text(json.dumps(data))
        config_error(probe(workspace, colors=path), capsys)


_PALETTE = np.array([BAND_RGB[RED], BAND_RGB[GREEN], (0.45, 0.45, 0.45), (0.0, 0.0, 0.0)])


def _frame_of_kind(kind, rng, frame):
    """An adversarial (H, W, 3) frame of one kind; `frame` shows the pointer."""
    h, w = (int(n) for n in rng.integers(1, 48, 2))
    if kind == "random":
        return rng.random((h, w, 3))
    if kind == "mosaic":  # blocks of band colors: many small regions
        block = int(rng.integers(1, 17))
        cells = _PALETTE[rng.integers(0, len(_PALETTE), (h // 4 + 1, w // 4 + 1))]
        return np.repeat(np.repeat(cells, block, axis=0), block, axis=1)
    if kind == "bands":  # a red/green banded bar at a random angle
        h, w = (int(n) for n in rng.integers(16, 160, 2))
        ys, xs = np.mgrid[0:h, 0:w]
        phi = rng.uniform(0.0, np.pi)
        along = (xs - w / 2) * np.cos(phi) + (ys - h / 2) * np.sin(phi)
        across = -(xs - w / 2) * np.sin(phi) + (ys - h / 2) * np.cos(phi)
        edges = np.cumsum(rng.uniform(6.0, 40.0, 12)) - rng.uniform(0.0, 200.0)
        band = np.searchsorted(edges, along) % 2
        bar = np.abs(across) < rng.uniform(3.0, 12.0)
        return np.where(bar[..., None], _PALETTE[band], _PALETTE[2])
    if kind == "blank":
        return np.full((h, w, 3), rng.random())
    if kind == "saturated":
        return rng.integers(0, 2, (h, w, 3)).astype(np.float64)
    if kind == "single-color":
        return np.broadcast_to(_PALETTE[rng.integers(0, 2)], (h, w, 3))
    fh, fw = frame.shape[:2]
    if kind == "clipped":  # a window that cuts the pointer at its borders
        x0, x1 = np.sort(rng.integers(0, fw + 1, 2))
        y0, y1 = np.sort(rng.integers(0, fh + 1, 2))
        return frame[y0:max(y1, y0 + 1), x0:max(x1, x0 + 1)]
    occluded = frame.copy()  # rectangles of background or band color
    for _ in range(int(rng.integers(1, 5))):
        x0, y0 = rng.integers(0, fw), rng.integers(0, fh)
        dx, dy = rng.integers(1, 120, 2)
        occluded[y0:y0 + dy, x0:x0 + dx] = _PALETTE[rng.integers(0, len(_PALETTE))]
    return occluded


class TestPipelineRobustness:
    """Any frame gives a finite pose or a typed BandPointerError."""

    @given(
        st.sampled_from(
            ["random", "mosaic", "bands", "blank", "saturated", "single-color", "clipped",
             "occluded"]
        ),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_pose_or_typed_error(self, workspace, small_colors, kind, seed):
        frame = load_image(workspace["frame"]).pixels / 255.0
        img = RasterImage(_frame_of_kind(kind, np.random.default_rng(seed), frame))
        config = Config.from_dict(make_config_dict())
        try:
            estimate = run_pipeline(img, small_colors, config)
        except BandPointerError:
            return
        assert isinstance(estimate, PoseEstimate)
        assert np.all(np.isfinite(estimate.pose.tip))
        assert abs(np.linalg.norm(estimate.pose.direction) - 1.0) < 1e-9

    def test_single_junction_pixel_is_pointer_not_found(self, workspace, small_colors, tmp_path):
        # a banded bar whose junction filter keeps one pixel: no line fits
        px = _frame_of_kind("bands", np.random.default_rng(1748), None)
        data = make_config_dict()
        data["camera"]["image_size_px"] = [px.shape[1], px.shape[0]]
        config = Config.from_dict(data)
        with pytest.raises(NoEdgesError, match="one junction pixel"):
            run_pipeline(RasterImage(px), small_colors, config)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        colors_path = tmp_path / "colors.json"
        save_color_model(small_colors, colors_path)
        save_ppm(RasterImage(px), tmp_path / "bar.ppm")
        code = probe(workspace, image=tmp_path / "bar.ppm", config=config_path, colors=colors_path)
        assert code == EXIT_POINTER_NOT_FOUND


class TestTrackCommand:
    def test_identical_frames_identical_rows(self, workspace, tmp_path, capsys):
        names = [f"frame_{i:03d}.ppm" for i in range(5)]
        frames_dir = frame_dir(workspace, tmp_path / "frames", names)
        # one corrupted frame: uniform background
        from bandpointer.imaging import RasterImage
        blank = RasterImage(np.full((SIZE_SMALL[1], SIZE_SMALL[0], 3), 0.45))
        save_ppm(blank, frames_dir / "frame_002.ppm")

        prefix = tmp_path / "out" / "run"
        assert track(workspace, frames_dir, prefix) == EXIT_OK
        rows = (prefix.with_suffix(".csv")).read_text().strip().splitlines()
        assert len(rows) == 6  # header + 5 frames
        ok_rows = [r for r in rows[1:] if ",ok," in r]
        fail_rows = [r for r in rows[1:] if ",pointer-not-found," in r]
        assert len(ok_rows) == 4 and len(fail_rows) == 1
        # determinism: identical frames give byte-identical records
        payloads = {r.split(",", 1)[1] for r in ok_rows}
        assert len(payloads) == 1
        raw_ply = (prefix.parent / "run_raw.ply").read_text()
        assert "element vertex 4" in raw_ply

    def test_bad_frame_does_not_abort_batch(self, workspace, tmp_path):
        frames_dir = frame_dir(workspace, tmp_path / "frames", ["b_good.ppm"])
        (frames_dir / "a_16bit.ppm").write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
        prefix = tmp_path / "out" / "run"
        assert track(workspace, frames_dir, prefix) == EXIT_OK
        rows = prefix.with_suffix(".csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [
            ["a_16bit.ppm", "bad-image"], ["b_good.ppm", "ok"],
        ]

    def test_frame_of_other_size_does_not_abort_batch(self, workspace, tmp_path):
        frames_dir = frame_dir(workspace, tmp_path / "frames", ["b_good.ppm"])
        narrow = RasterImage(load_image(workspace["frame"]).pixels[:, 1:])
        save_ppm(narrow, frames_dir / "a_narrow.ppm")
        prefix = tmp_path / "out" / "run"
        assert track(workspace, frames_dir, prefix) == EXIT_OK
        rows = prefix.with_suffix(".csv").read_text().strip().splitlines()[1:]
        assert [r.split(",") for r in rows][0] == ["a_narrow.ppm", "bad-image"] + [""] * 8
        assert rows[1].split(",")[:2] == ["b_good.ppm", "ok"]
        assert "element vertex 1" in (prefix.parent / "run_raw.ply").read_text()

    def test_outputs_byte_identical_across_runs(self, workspace, tmp_path):
        frames_dir = frame_dir(workspace, tmp_path / "frames", ["f0.ppm", "f1.ppm", "f2.ppm"])
        outputs = []
        for run in range(2):
            prefix = tmp_path / f"out{run}" / "run"
            assert track(workspace, frames_dir, prefix) == EXIT_OK
            outputs.append((
                prefix.with_suffix(".csv").read_bytes(),
                (prefix.parent / "run_raw.ply").read_bytes(),
                (prefix.parent / "run_filtered.ply").read_bytes(),
            ))
        assert outputs[0] == outputs[1]

    def test_parallel_jobs_match_serial(self, workspace, tmp_path):
        frames_dir = frame_dir(workspace, tmp_path / "frames", ["f0.ppm", "f1.ppm", "f2.ppm"])
        csvs = []
        for jobs in (1, 2):
            prefix = tmp_path / f"j{jobs}" / "run"
            assert track(workspace, frames_dir, prefix, "--jobs", str(jobs)) == EXIT_OK
            csvs.append(prefix.with_suffix(".csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_workers_capped_at_frame_count(self, workspace, tmp_path, monkeypatch):
        made = []

        class RecordingExecutor:
            """Runs the map in-process and records the pool size asked for."""

            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingExecutor)
        frames_dir = frame_dir(workspace, tmp_path / "frames", ["f0.ppm", "f1.ppm", "f2.ppm"])
        single_dir = frame_dir(workspace, tmp_path / "single", ["f0.ppm"])
        for frames, jobs in ((frames_dir, 8), (frames_dir, 2), (single_dir, 4)):
            prefix = tmp_path / "out" / f"j{jobs}"
            assert track(workspace, frames, prefix, "--jobs", str(jobs)) == EXIT_OK
        # one frame runs in-process: no pool at all
        assert made == [3, 2]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, workspace, tmp_path, monkeypatch, capsys, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        prefix = tmp_path / "out" / "run"
        code = track(workspace, workspace["root"], prefix, "--jobs", str(jobs))
        assert "--jobs" in config_error(code, capsys)
        assert not prefix.parent.exists()

    def test_png_frame_reads_and_tracks_as_its_ppm(self, workspace, tmp_path):
        image = pytest.importorskip("PIL.Image")
        frames_dir = frame_dir(workspace, tmp_path / "frames", ["a.ppm"])
        ppm = load_image(workspace["frame"])
        image.fromarray(ppm.pixels).save(frames_dir / "b.png")
        assert np.array_equal(load_image(frames_dir / "b.png").pixels, ppm.pixels)
        prefix = tmp_path / "out" / "run"
        assert track(workspace, frames_dir, prefix) == EXIT_OK
        rows = [r.split(",", 2) for r in prefix.with_suffix(".csv").read_text().splitlines()[1:]]
        assert [r[:2] for r in rows] == [["a.ppm", "ok"], ["b.png", "ok"]]
        assert rows[0][2] == rows[1][2]

    def test_dotted_prefix_kept_in_every_output(self, workspace, tmp_path):
        frames_dir = frame_dir(workspace, tmp_path / "frames", ["f0.ppm"])
        out = tmp_path / "out"
        assert track(workspace, frames_dir, out / "run.v2") == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "run.v2.csv", "run.v2_filtered.ply", "run.v2_raw.ply",
        ]


class TestEvalCommand:
    def test_zero_noise_sweep_tiny_rms(self, workspace, tmp_path):
        config = Config.from_dict(make_config_dict())
        records = evaluate_sweep(
            config,
            depths_mm=[330.0, 400.0],
            angles_deg=[0.0, 30.0],
            trials=1,
            noise_px=0.0,
            seed=0,
        )
        assert all(r["failures"] == 0 for r in records)
        assert all(r["rms_tip_error_mm"] < 0.01 for r in records)

    def test_noisy_sweep_rms_grows_with_depth(self):
        config = Config.from_dict(make_config_dict())
        depths = [300.0, 420.0, 560.0, 700.0]
        records = evaluate_sweep(
            config,
            depths_mm=depths,
            angles_deg=[10.0],
            trials=40,
            noise_px=0.5,
            seed=3,
        )
        rms = [r["rms_tip_error_mm"] for r in records]
        # Spearman rank correlation over the depth grid
        ranks = np.argsort(np.argsort(rms))
        rho = np.corrcoef(np.arange(len(rms)), ranks)[0, 1]
        assert rho > 0

    def test_eval_command_writes_deterministic_csv(self, workspace, tmp_path):
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps({
            "depths_mm": [330.0, 420.0],
            "angles_deg": [0.0, 25.0],
            "trials": 10,
            "noise_px": 0.5,
            "seed": 7,
        }))
        outs = []
        for run in range(2):
            out_path = tmp_path / f"report{run}.csv"
            code = main([
                "--config", str(workspace["config"]),
                "eval", "--sweep", str(sweep_path), "--out", str(out_path),
            ])
            assert code == EXIT_OK
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]
        header = outs[0].decode().splitlines()[0]
        assert header.startswith("depth_mm,angle_deg,trials,failures")

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps({"angles_deg": [0.0]}),
            json.dumps({"depths_mm": [330.0], "angles_deg": [0.0], "trials": "x"}),
            json.dumps([330.0, 0.0]),
            "{not json",
            json.dumps({"depths_mm": [], "angles_deg": [0.0]}),
            json.dumps({"depths_mm": [330.0], "angles_deg": []}),
            json.dumps({"depths_mm": "330", "angles_deg": [0.0]}),
            json.dumps({"depths_mm": [330.0], "angles_deg": [0.0], "trials": 2.7}),
            json.dumps({"depths_mm": [330.0], "angles_deg": [0.0], "trials": 0}),
            json.dumps({"depths_mm": [330.0], "angles_deg": [0.0], "trials": -3}),
            json.dumps({"depths_mm": [330.0], "angles_deg": [0.0], "noise_px": -1}),
            json.dumps({"depths_mm": [330.0], "angles_deg": [0.0], "noise_px": float("nan")}),
            json.dumps({"depths_mm": [330.0, float("nan")], "angles_deg": [0.0]}),
            json.dumps({"depths_mm": [330.0], "angles_deg": [float("inf")]}),
            json.dumps({"depths_mm": [330.0], "angles_deg": [0.0], "roll_deg": float("nan")}),
            json.dumps({"depths_mm": [400.0], "angles_deg": [10.0], "seed": -3}),
            json.dumps({"depths_mm": [330.0], "angles_deg": [0.0], "seed": 1.5}),
            json.dumps({"depths_mm": [330.0], "angles_deg": [0.0], "seed": True}),
        ],
        ids=[
            "no-depths-key", "str-trials", "json-list", "not-json", "no-depths",
            "no-angles", "str-depths", "fractional-trials", "zero-trials",
            "negative-trials", "negative-noise", "nan-noise", "nan-depth",
            "infinite-angle", "nan-roll", "negative-seed", "fractional-seed", "bool-seed",
        ],
    )
    def test_malformed_sweep_spec_exits_with_one_line(
        self, workspace, tmp_path, capsys, text
    ):
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(text)
        out_path = tmp_path / "report.csv"
        code = main([
            "--config", str(workspace["config"]),
            "eval", "--sweep", str(sweep_path), "--out", str(out_path),
        ])
        err = config_error(code, capsys)
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"depths_mm": [330.0], "angles_deg": [0.0], "noise_px": True}, "noise_px"),
            ({"depths_mm": [True], "angles_deg": [0.0]}, "depths_mm[0]"),
            ({"depths_mm": [330.0], "angles_deg": [0.0, False]}, "angles_deg[1]"),
            ({"depths_mm": [330.0], "angles_deg": [0.0], "roll_deg": True}, "roll_deg"),
        ],
        ids=["bool-noise", "bool-depth", "bool-angle", "bool-roll"],
    )
    def test_boolean_sweep_number_rejected_by_name(
        self, workspace, tmp_path, capsys, spec, field
    ):
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps(spec))
        out_path = tmp_path / "report.csv"
        code = main([
            "--config", str(workspace["config"]),
            "eval", "--sweep", str(sweep_path), "--out", str(out_path),
        ])
        err = config_error(code, capsys)
        assert f"{field} must not be a boolean" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(seed=-3), "seed must be an integer >= 0, got -3"),
            (dict(seed=1.5), "seed must be an integer >= 0, got 1.5"),
            (dict(seed=True), "seed must not be a boolean, got true"),
            (dict(seed="1"), "seed must be a number, got '1'"),
            (dict(trials=0), "trials must be an integer >= 1, got 0"),
            (dict(trials=2.5), "trials must be an integer >= 1, got 2.5"),
            (dict(trials=True), "trials must not be a boolean, got true"),
            (dict(seed=10**400), "seed is an integer too large for a float64"),
        ],
        ids=["negative-seed", "fractional-seed", "bool-seed", "str-seed",
             "zero-trials", "float-trials", "bool-trials", "huge-seed"],
    )
    def test_sweep_rejects_bad_trials_and_seed(self, bad, message):
        config = Config.from_dict(make_config_dict())
        grid = dict(trials=1, noise_px=0.0, seed=0) | bad
        with pytest.raises(ConfigError, match=f"^{message}$"):
            evaluate_sweep(config, [400.0], [10.0], **grid)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(noise_px=-1.0), "noise_px must be finite and >= 0"),
            (dict(noise_px=float("nan")), "noise_px must be finite and >= 0"),
            (dict(depths_mm=[400.0, float("nan")]), r"depths_mm\[1\] must be finite, got nan$"),
            (dict(angles_deg=[float("-inf")]), r"angles_deg\[0\] must be finite, got -inf$"),
            (dict(roll_deg=float("inf")), "roll_deg must be finite, got inf$"),
            (dict(depths_mm=[]), "depths_mm must not be empty$"),
            (dict(angles_deg=()), "angles_deg must not be empty$"),
            (dict(depths_mm=400.0), "depths_mm must be a list, got 400.0$"),
            (dict(depths_mm=["330"]), r"depths_mm\[0\] must be a number, got '330'"),
            (dict(angles_deg=[[10.0]]), r"angles_deg\[0\] must be a number, got a list"),
            (dict(noise_px="0.5"), "noise_px must be a number, got '0.5'"),
            (dict(roll_deg=None), "roll_deg must be a number, got None"),
            (dict(depths_mm=(400.0, True)), r"depths_mm\[1\] must not be a boolean, got true"),
        ],
        ids=["negative-noise", "nan-noise", "nan-depth", "infinite-angle", "infinite-roll",
             "empty-depths", "empty-angles", "scalar-depths", "str-depth", "nested-angles",
             "str-noise", "none-roll", "bool-in-tuple"],
    )
    def test_sweep_rejects_bad_noise_and_grid(self, bad, message):
        config = Config.from_dict(make_config_dict())
        grid = dict(depths_mm=[400.0], angles_deg=[10.0]) | bad
        with pytest.raises(ConfigError, match=f"^{message}"):
            evaluate_sweep(config, **grid)

    def test_sweep_takes_numpy_integers(self):
        config = Config.from_dict(make_config_dict())
        got = evaluate_sweep(config, [400.0], [10.0], trials=np.int64(2), noise_px=0.5,
                             seed=np.int64(3))
        want = evaluate_sweep(config, [400.0], [10.0], trials=2, noise_px=0.5, seed=3)
        assert got == want

    def test_sweep_takes_whole_floats(self):
        # 2.0 reads as 2, as r1 and r2 do in the config
        config = Config.from_dict(make_config_dict())
        got = evaluate_sweep(config, [400.0], [10.0], trials=2.0, noise_px=0.5, seed=3.0)
        want = evaluate_sweep(config, [400.0], [10.0], trials=2, noise_px=0.5, seed=3)
        assert got == want
        assert type(got[0]["trials"]) is int

    def test_unseeable_cell_counts_as_failures(self):
        # at 40 mm the 100 mm pointer overfills the 612 px frame, leaving
        # fewer than two junctions in view
        config = Config.from_dict(make_config_dict())
        near, far = evaluate_sweep(
            config, depths_mm=[40.0, 300.0], angles_deg=[0.0],
            trials=3, noise_px=0.0, seed=0,
        )
        assert near["failures"] == near["trials"] == 3
        assert np.isnan(near["rms_tip_error_mm"])
        assert far["failures"] == 0
        assert far["rms_tip_error_mm"] < 0.01

    def test_cell_behind_camera_counts_as_failures(self, tmp_path):
        # at 20 mm and 80 deg the far end of the 100 mm pointer lies behind
        # the camera; that cell fails, the 300 mm cell is still reported
        data = make_config_dict()
        data["camera"]["k_row_major"] = [600.0, 0.0, 305.5, 0.0, 600.0, 255.5, 0.0, 0.0, 1.0]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps(
            {"depths_mm": [20.0, 300.0], "angles_deg": [80.0], "trials": 2}
        ))
        out_path = tmp_path / "report.csv"
        code = main([
            "--config", str(config_path),
            "eval", "--sweep", str(sweep_path), "--out", str(out_path),
        ])
        assert code == EXIT_OK
        _, near, far = [r.split(",") for r in out_path.read_text().splitlines()]
        assert near[:5] == ["20.000", "80.000", "2", "2", "nan"]
        assert far[:4] == ["300.000", "80.000", "2", "0"]

    @pytest.mark.parametrize("depth", [1e160, 1e308])
    def test_cell_too_far_to_project_counts_as_failures(self, depth):
        # finite depths whose projection overflows float64: the cell fails
        # like one behind the camera, with no numpy warning on the way
        config = Config.from_dict(make_config_dict())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far, near = evaluate_sweep(config, [depth, 300.0], [0.0], trials=2)
        assert far["failures"] == far["trials"] == 2
        assert np.isnan(far["rms_tip_error_mm"])
        assert near["failures"] == 0


class TestFilterPointCloud:
    def test_identical_points_keep_all(self):
        flags = outlier_flags(np.tile([1.0, 2.0, 3.0], (8, 1)))
        assert flags is not None
        assert not flags.any()

    def test_single_far_outlier_flagged(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(0, 1.0, (99, 3))
        pts = np.vstack([pts, [500.0, 0.0, 0.0]])
        flags = outlier_flags(pts)
        # oracle: distance to componentwise median over 5x median distance
        med = np.median(pts, axis=0)
        d = np.linalg.norm(pts - med, axis=1)
        expected = d > 5 * np.median(d)
        np.testing.assert_array_equal(flags, expected)
        assert flags.sum() == 1
        assert flags[-1]

    def test_square_perimeter_none_filtered(self):
        # points spread over a 37 mm square boundary
        t = np.linspace(0, 1, 50, endpoint=False)
        side = 37.0
        edges = []
        for k in range(4):
            if k == 0:
                edges.append(np.column_stack([t * side, np.zeros(50)]))
            elif k == 1:
                edges.append(np.column_stack([np.full(50, side), t * side]))
            elif k == 2:
                edges.append(np.column_stack([side - t * side, np.full(50, side)]))
            else:
                edges.append(np.column_stack([np.zeros(50), side - t * side]))
        xy = np.vstack(edges)
        pts = np.column_stack([xy, np.full(len(xy), 480.0)])
        assert not outlier_flags(pts).any()

    def test_too_few_points_skips(self):
        assert outlier_flags(np.zeros((4, 3))) is None

    def test_five_points_are_filtered(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                        [-1.0, 0.0, 0.0], [500.0, 0.0, 0.0]])
        np.testing.assert_array_equal(
            outlier_flags(pts), [False, False, False, False, True]
        )

    def test_ply_written(self, tmp_path):
        pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        path = tmp_path / "cloud.ply"
        write_ply(pts, np.array([0.1, 0.2]), path)
        text = path.read_text()
        assert text.startswith("ply\nformat ascii 1.0\nelement vertex 2\n")
        assert "1.000000 2.000000 3.000000 0.100000" in text
