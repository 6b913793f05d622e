"""Tests for the config, CLI commands and point-cloud handling."""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BAND_RGB,
    GREEN,
    RED,
    SIZE_SMALL,
    build_spec,
    make_calibrated_colors,
    pose_at,
)

from bandpointer import synthetic
from bandpointer.cli import (
    Config,
    EXIT_ERROR,
    EXIT_NO_ASSOCIATION,
    EXIT_OK,
    EXIT_POINTER_NOT_FOUND,
    PointCloud,
    evaluate_sweep,
    filter_point_cloud,
    load_color_model,
    main,
    run_pipeline,
    save_color_model,
    write_ply,
)
from bandpointer.detection import DetectionParams
from bandpointer.errors import BandPointerError, ConfigError, NoEdgesError
from bandpointer.imaging import RasterImage, load_image, save_pgm, save_ppm
from bandpointer.pose import CameraModel, PoseEstimate


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
def cli_spec():
    return build_spec([25.0, 55.0, 78.0], [RED, GREEN, RED, GREEN], 100.0, radius=2.0)


@pytest.fixture(scope="module")
def cli_camera():
    return CameraModel(
        K=np.array([[1000.0, 0, 305.5], [0, 1000.0, 255.5], [0, 0, 1.0]])
    )


@pytest.fixture(scope="module")
def cli_colors(cli_spec, cli_camera):
    return make_calibrated_colors(cli_spec, cli_camera, SIZE_SMALL)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, cli_spec, cli_camera, cli_colors):
    """Config, color model and a rendered probe frame on disk."""
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(make_config_dict()))
    colors_path = root / "colors.json"
    save_color_model(cli_colors, colors_path)

    pose = pose_at(330.0, 8.0, cli_camera, cli_spec, roll_deg=4.0)
    scene = synthetic.SceneSpec(pose=pose, spec=cli_spec, band_colors=BAND_RGB)
    img, gt = synthetic.render(scene, cli_camera, SIZE_SMALL)
    frame_path = root / "frame.ppm"
    save_ppm(img, frame_path)
    return {
        "root": root,
        "config": config_path,
        "colors": colors_path,
        "frame": frame_path,
        "pose": pose,
        "scene": scene,
    }


class TestConfig:
    def test_round_trip_identity(self):
        data = make_config_dict()
        config = Config.from_dict(data)
        assert config.to_dict() == data
        # parse -> serialize -> parse is also stable
        again = Config.from_dict(config.to_dict())
        assert again.to_dict() == data

    def test_radii_are_half_diameters(self):
        config = Config.from_dict(make_config_dict())
        assert config.pointer.edges[0].radius_mm == pytest.approx(2.0)

    def test_readme_config_parses_with_every_detection_field(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Configuration", 1)[1]
        data = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        Config.from_dict(data)
        assert set(data["detection"]) == {f.name for f in fields(DetectionParams)}

    def test_unknown_band_color_rejected(self):
        data = make_config_dict()
        data["pointer"]["band_colors"][0] = "purple"
        from bandpointer.errors import ConfigError
        with pytest.raises((ConfigError, KeyError)):
            Config.from_dict(data)


def _set(path, value):
    """Copy of the test config with the key at `path` set to `value`."""
    data = make_config_dict()
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


class TestConfigValidation:
    @pytest.mark.parametrize(
        "path, value",
        [
            (("detection", "r1"), 3.5),
            (("camera", "image_size_px"), [612]),
            (("camera", "image_size_px"), [612.5, 512]),
            (("camera", "image_size_px"), [612, 0]),
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
        ],
        ids=["fractional-r1", "one-size", "fractional-size", "zero-size",
             "colors-list", "zero-ransac-iterations", "fractional-ransac-iterations",
             "negative-seed", "fractional-color-id", "bool-color-id",
             "background-color-id", "wide-color-id", "negative-major-expand",
             "zero-minor-expand", "binarize-above-one", "zero-binarize",
             "nan-line-sigmas", "negative-pair-sigmas", "infinite-pair-sigmas",
             "nan-edge-distance", "nan-diameter", "infinite-diameter",
             "infinite-length", "nan-length", "infinite-focal-length",
             "nan-translation", "nan-k1", "infinite-p2", "distortion-list",
             "distortion-null", "unknown-distortion-key"],
    )
    def test_bad_config_exits_with_one_line(
        self, workspace, tmp_path, capsys, path, value
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(_set(path, value)))
        code = main([
            "--config", str(config_path), "probe", "--image", str(workspace["frame"]),
            "--color-model", str(workspace["colors"]),
        ])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

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
        code = main([
            "--config", str(config_path), "probe", "--image", str(workspace["frame"]),
            "--color-model", str(workspace["colors"]),
        ])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert key in err

    def test_integral_float_radii_accepted(self, workspace, tmp_path, capsys):
        data = _set(("detection", "r1"), 3.0)
        data["detection"]["r2"] = 2.0
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        args = ["probe", "--image", str(workspace["frame"]),
                "--color-model", str(workspace["colors"])]
        assert main(["--config", str(config_path)] + args) == EXIT_OK
        assert main(["--config", str(workspace["config"])] + args) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == out[1]


class TestCalibrateCommand:
    def test_calibrate_writes_model(
        self, workspace, cli_spec, cli_camera, capsys, tmp_path
    ):
        pose = pose_at(330.0, 5.0, cli_camera, cli_spec, roll_deg=3.0)
        scene = synthetic.SceneSpec(
            pose=pose, spec=cli_spec, band_colors=BAND_RGB, blur_sigma=2.0
        )
        img, _ = synthetic.render(scene, cli_camera, SIZE_SMALL)
        mask = synthetic.render_class_mask(scene, cli_camera, SIZE_SMALL)
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
        out = capsys.readouterr().out
        assert "class 1" in out and "class 2" in out
        model = load_color_model(out_path)
        assert model.labels == [1, 2]
        # modal hues land near the rendered band hues
        assert model.kde(1).modal_hue() == pytest.approx(0.80, abs=0.05)
        assert model.kde(2).modal_hue() == pytest.approx(1.29, abs=0.05)

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
        code = main([
            "--config", str(workspace["config"]),
            "probe", "--image", str(workspace["frame"]),
            "--color-model", str(workspace["colors"]),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        record = out[0]
        assert record.startswith("tip_mm=")
        tip = np.array([float(v) for v in record.split()[0].split("=")[1].split(",")])
        # raster detection accuracy is in the low millimeters
        assert np.linalg.norm(tip - workspace["pose"].tip) < 5.0

    def test_probe_without_pointer_exits_not_found(self, workspace, tmp_path, capsys):
        from bandpointer.imaging import RasterImage
        px = np.full((SIZE_SMALL[1], SIZE_SMALL[0], 3), 0.45)
        path = tmp_path / "empty.ppm"
        save_ppm(RasterImage(px), path)
        code = main([
            "--config", str(workspace["config"]),
            "probe", "--image", str(path),
            "--color-model", str(workspace["colors"]),
        ])
        assert code == EXIT_POINTER_NOT_FOUND
        assert capsys.readouterr().out == ""

    def test_probe_two_visible_edges_insufficient(
        self, workspace, cli_spec, cli_camera, tmp_path, capsys
    ):
        # occlude the first junction; two junctions stay visible, below
        # the three-correspondence minimum
        scene = workspace["scene"]
        gt = synthetic.ground_truth(scene, cli_camera, SIZE_SMALL)
        e0 = gt.edges[0]
        lo = np.minimum(e0.p_a, e0.p_b) - 12
        hi = np.maximum(e0.p_a, e0.p_b) + 12
        occluded = synthetic.SceneSpec(
            pose=scene.pose,
            spec=cli_spec,
            band_colors=BAND_RGB,
            occluders=(synthetic.Occluder(lo[0], lo[1], hi[0], hi[1]),),
        )
        img, _ = synthetic.render(occluded, cli_camera, SIZE_SMALL)
        path = tmp_path / "occluded.ppm"
        save_ppm(img, path)
        code = main([
            "--config", str(workspace["config"]),
            "probe", "--image", str(path),
            "--color-model", str(workspace["colors"]),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_NO_ASSOCIATION
        assert "three" in err or "insufficient" in err.lower()

    @pytest.mark.parametrize(
        "data",
        [b"P6\n2 2\n65535\n" + bytes(24), b"P5\n2 2\n255\n" + bytes(4)],
        ids=["16-bit", "magic"],
    )
    def test_bad_image_is_not_a_config_error(self, workspace, tmp_path, capsys, data):
        path = tmp_path / "frame.ppm"
        path.write_bytes(data)
        code = main([
            "--config", str(workspace["config"]),
            "probe", "--image", str(path),
            "--color-model", str(workspace["colors"]),
        ])
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
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "'green'" in err
        assert not (tmp_path / "out").exists()

    def test_missing_color_model_exits_with_one_line(self, workspace, monkeypatch, capsys):
        monkeypatch.delenv("BANDPOINTER_COLOR_MODEL", raising=False)
        code = main(["--config", str(workspace["config"]), "probe",
                     "--image", str(workspace["frame"])])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: --color-model required") and err.count("\n") == 1

    def test_malformed_color_model_exits_with_one_line(self, workspace, tmp_path, capsys):
        data = json.loads(workspace["colors"].read_text())
        data["classes"][0]["lut"] = [1.0]
        path = tmp_path / "colors.json"
        path.write_text(json.dumps(data))
        code = main([
            "--config", str(workspace["config"]),
            "probe", "--image", str(workspace["frame"]),
            "--color-model", str(path),
        ])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1


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
    def test_pose_or_typed_error(self, workspace, cli_colors, kind, seed):
        frame = load_image(workspace["frame"]).pixels / 255.0
        img = RasterImage(_frame_of_kind(kind, np.random.default_rng(seed), frame))
        config = Config.from_dict(make_config_dict())
        try:
            estimate = run_pipeline(img, cli_colors, config)
        except BandPointerError:
            return
        assert isinstance(estimate, PoseEstimate)
        assert np.all(np.isfinite(estimate.pose.tip))
        assert abs(np.linalg.norm(estimate.pose.direction) - 1.0) < 1e-9

    def test_single_junction_pixel_is_pointer_not_found(self, cli_colors, tmp_path, capsys):
        # a banded bar whose junction filter keeps one pixel: no line fits
        px = _frame_of_kind("bands", np.random.default_rng(1748), None)
        config = Config.from_dict(make_config_dict())
        with pytest.raises(NoEdgesError, match="one junction pixel"):
            run_pipeline(RasterImage(px), cli_colors, config)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(make_config_dict()))
        colors_path = tmp_path / "colors.json"
        save_color_model(cli_colors, colors_path)
        save_ppm(RasterImage(px), tmp_path / "bar.ppm")
        code = main([
            "--config", str(config_path),
            "probe", "--image", str(tmp_path / "bar.ppm"),
            "--color-model", str(colors_path),
        ])
        assert code == EXIT_POINTER_NOT_FOUND


class TestTrackCommand:
    def test_identical_frames_identical_rows(self, workspace, tmp_path, capsys):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        src = workspace["frame"].read_bytes()
        for i in range(5):
            (frames_dir / f"frame_{i:03d}.ppm").write_bytes(src)
        # one corrupted frame: uniform background
        from bandpointer.imaging import RasterImage
        blank = RasterImage(np.full((SIZE_SMALL[1], SIZE_SMALL[0], 3), 0.45))
        save_ppm(blank, frames_dir / "frame_002.ppm")

        prefix = tmp_path / "out" / "run"
        code = main([
            "--config", str(workspace["config"]),
            "track", "--frames", str(frames_dir),
            "--color-model", str(workspace["colors"]),
            "--out-prefix", str(prefix),
        ])
        assert code == EXIT_OK
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
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        (frames_dir / "a_16bit.ppm").write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
        (frames_dir / "b_good.ppm").write_bytes(workspace["frame"].read_bytes())
        prefix = tmp_path / "out" / "run"
        code = main([
            "--config", str(workspace["config"]),
            "track", "--frames", str(frames_dir),
            "--color-model", str(workspace["colors"]),
            "--out-prefix", str(prefix),
        ])
        assert code == EXIT_OK
        rows = prefix.with_suffix(".csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [
            ["a_16bit.ppm", "bad-image"], ["b_good.ppm", "ok"],
        ]

    def test_outputs_byte_identical_across_runs(self, workspace, tmp_path):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        src = workspace["frame"].read_bytes()
        for i in range(3):
            (frames_dir / f"f{i}.ppm").write_bytes(src)
        outputs = []
        for run in range(2):
            prefix = tmp_path / f"out{run}" / "run"
            code = main([
                "--config", str(workspace["config"]),
                "track", "--frames", str(frames_dir),
                "--color-model", str(workspace["colors"]),
                "--out-prefix", str(prefix),
            ])
            assert code == EXIT_OK
            outputs.append((
                prefix.with_suffix(".csv").read_bytes(),
                (prefix.parent / "run_raw.ply").read_bytes(),
                (prefix.parent / "run_filtered.ply").read_bytes(),
            ))
        assert outputs[0] == outputs[1]

    def test_parallel_jobs_match_serial(self, workspace, tmp_path):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        src = workspace["frame"].read_bytes()
        for i in range(3):
            (frames_dir / f"f{i}.ppm").write_bytes(src)
        csvs = []
        for jobs in (1, 2):
            prefix = tmp_path / f"j{jobs}" / "run"
            code = main([
                "--config", str(workspace["config"]),
                "track", "--frames", str(frames_dir),
                "--color-model", str(workspace["colors"]),
                "--out-prefix", str(prefix), "--jobs", str(jobs),
            ])
            assert code == EXIT_OK
            csvs.append(prefix.with_suffix(".csv").read_bytes())
        assert csvs[0] == csvs[1]


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
        "text, flags",
        [
            (json.dumps({"angles_deg": [0.0]}), []),
            (json.dumps({"depths_mm": [330.0], "angles_deg": [0.0], "trials": "x"}), []),
            (json.dumps([330.0, 0.0]), []),
            ("{not json", []),
            (json.dumps({"depths_mm": [], "angles_deg": [0.0]}), []),
            (json.dumps({"depths_mm": [330.0], "angles_deg": []}), []),
            (json.dumps({"depths_mm": "330", "angles_deg": [0.0]}), []),
            (json.dumps({"depths_mm": [330.0], "angles_deg": [0.0], "trials": 2.7}), []),
            (json.dumps({"depths_mm": [330.0], "angles_deg": [0.0], "trials": 0}), []),
            (json.dumps({"depths_mm": [330.0], "angles_deg": [0.0], "trials": -3}), []),
            (json.dumps({"depths_mm": [330.0], "angles_deg": [0.0], "noise_px": -1}), []),
            (json.dumps({"depths_mm": [330.0], "angles_deg": [0.0], "noise_px": float("nan")}), []),
            (json.dumps({"depths_mm": [330.0, float("nan")], "angles_deg": [0.0]}), []),
            (json.dumps({"depths_mm": [330.0], "angles_deg": [float("inf")]}), []),
            (json.dumps({"depths_mm": [330.0], "angles_deg": [0.0], "roll_deg": float("nan")}), []),
            (json.dumps({"depths_mm": [400.0], "angles_deg": [10.0], "seed": -3}), []),
            (json.dumps({"depths_mm": [330.0], "angles_deg": [0.0]}), ["--seed", "-1"]),
            (json.dumps({"depths_mm": [330.0], "angles_deg": [0.0], "seed": 1.5}), []),
            (json.dumps({"depths_mm": [330.0], "angles_deg": [0.0], "seed": True}), []),
        ],
        ids=[
            "no-depths-key", "str-trials", "json-list", "not-json", "no-depths",
            "no-angles", "str-depths", "fractional-trials", "zero-trials",
            "negative-trials", "negative-noise", "nan-noise", "nan-depth",
            "infinite-angle", "nan-roll", "negative-seed", "negative-seed-flag",
            "fractional-seed", "bool-seed",
        ],
    )
    def test_malformed_sweep_spec_exits_with_one_line(
        self, workspace, tmp_path, capsys, text, flags
    ):
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(text)
        out_path = tmp_path / "report.csv"
        code = main([
            "--config", str(workspace["config"]),
            "eval", "--sweep", str(sweep_path), "--out", str(out_path), *flags,
        ])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "bad",
        [dict(seed=-3), dict(seed=1.5), dict(seed=True), dict(seed="1"),
         dict(trials=0), dict(trials=2.0), dict(trials=True)],
        ids=["negative-seed", "fractional-seed", "bool-seed", "str-seed",
             "zero-trials", "float-trials", "bool-trials"],
    )
    def test_sweep_rejects_bad_trials_and_seed(self, bad):
        config = Config.from_dict(make_config_dict())
        grid = dict(trials=1, noise_px=0.0, seed=0) | bad
        name = next(iter(bad))
        with pytest.raises(ConfigError, match=f"^{name} must be an integer >= "):
            evaluate_sweep(config, [400.0], [10.0], **grid)

    def test_sweep_takes_numpy_integers(self):
        config = Config.from_dict(make_config_dict())
        got = evaluate_sweep(config, [400.0], [10.0], trials=np.int64(2), noise_px=0.5,
                             seed=np.int64(3))
        want = evaluate_sweep(config, [400.0], [10.0], trials=2, noise_px=0.5, seed=3)
        assert got == want

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


class TestFilterPointCloud:
    def make_cloud(self, points):
        points = np.asarray(points, dtype=np.float64)
        return PointCloud(
            points=points,
            rms_px=np.zeros(len(points)),
        )

    def test_identical_points_keep_all(self):
        cloud = self.make_cloud(np.tile([1.0, 2.0, 3.0], (8, 1)))
        out = filter_point_cloud(cloud)
        assert not out.filtered_flags.any()
        assert not out.filter_skipped

    def test_single_far_outlier_flagged(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(0, 1.0, (99, 3))
        pts = np.vstack([pts, [500.0, 0.0, 0.0]])
        out = filter_point_cloud(self.make_cloud(pts))
        # oracle: distance to componentwise median over 5x median distance
        med = np.median(pts, axis=0)
        d = np.linalg.norm(pts - med, axis=1)
        expected = d > 5 * np.median(d)
        np.testing.assert_array_equal(out.filtered_flags, expected)
        assert out.filtered_flags.sum() == 1
        assert out.filtered_flags[-1]

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
        out = filter_point_cloud(self.make_cloud(pts))
        assert not out.filtered_flags.any()

    def test_too_few_points_skips(self):
        cloud = self.make_cloud(np.zeros((4, 3)))
        out = filter_point_cloud(cloud)
        assert out.filter_skipped
        assert not out.filtered_flags.any()

    def test_ply_written(self, tmp_path):
        pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        path = tmp_path / "cloud.ply"
        write_ply(pts, np.array([0.1, 0.2]), path)
        text = path.read_text()
        assert text.startswith("ply\nformat ascii 1.0\nelement vertex 2\n")
        assert "1.000000 2.000000 3.000000 0.100000" in text
