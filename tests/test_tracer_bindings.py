"""The benchmark's tracer (perfbench/tracing.py) wraps pipeline functions
by module and name and reads some of their arguments by name. A rename
would silently drop spans or counts from `perfbench/run.py --trace 1`,
so the bindings it relies on are checked here."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from conftest import SIZE_SMALL, inside_boxes, kde_lut, scene_at

from bandpointer import detection, synthetic
from bandpointer.color_model import ColorClassSet, classify_image_masked
from bandpointer.geometry import boxes_mask
from bandpointer.imaging import RasterImage, rgb_to_hue_saturation

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# argument names the tracer's span namers and per-op counts read
READ_ARGUMENTS = {
    ("color_model", "classify_image_masked"): {"hs", "s_min", "roi_mask"},
    ("detection", "detect_band_regions"): {"roi"},
    ("detection", "ransac_centroid_line"): {"regions"},
    ("imaging", "rgb_to_hue_saturation"): {"img"},
}
# whole-frame rasters the tracer reads off the hue/saturation image
# (`imaging.frame_mb`, the gated pixel counts); the pipeline never reads them
HUE_SAT_RASTERS = ("hue", "saturation", "hue_valid", "value")


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return [(mod_name, fn_name) for mod_name, fn_name, _ in module.TRACED]


def test_every_traced_function_resolves():
    traced = _traced()
    assert set(READ_ARGUMENTS) <= set(traced)
    for mod_name, fn_name in traced:
        module = importlib.import_module(f"bandpointer.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_read_arguments_are_parameters():
    for (mod_name, fn_name), names in READ_ARGUMENTS.items():
        fn = getattr(importlib.import_module(f"bandpointer.{mod_name}"), fn_name)
        assert names <= set(inspect.signature(fn).parameters), f"{mod_name}.{fn_name}"


def test_read_attributes_exist():
    img = RasterImage(np.zeros((3, 4, 3), dtype=np.uint8))
    assert img.pixels.nbytes == 3 * 4 * 3
    hs = rgb_to_hue_saturation(img)
    for name in HUE_SAT_RASTERS:
        assert getattr(hs, name).shape == (3, 4), name


def test_pass_one_binds_roi_mask_explicitly(monkeypatch):
    # the tracer reads roi_mask from the bound arguments, which omit
    # defaulted parameters, so the detector must pass it even when None
    bound = []
    signature = inspect.signature(classify_image_masked)

    def recording(*args, **kwargs):
        bound.append(signature.bind(*args, **kwargs).arguments)
        return classify_image_masked(*args, **kwargs)

    monkeypatch.setattr(detection, "classify_image_masked", recording)
    px = np.zeros((8, 8, 3))
    px[:, :4] = (1.0, 0.0, 0.0)
    px[:, 4:] = (0.0, 1.0, 0.0)
    hs = rgb_to_hue_saturation(RasterImage(px))
    lut = kde_lut([0.0], 0.1)
    colors = ColorClassSet(labels=(1, 2), luts=[lut, lut])
    detection.detect_band_regions(hs, colors, {frozenset((1, 2))}, 0.25, 1)
    assert len(bound) == 1 and {"hs", "s_min", "roi_mask"} <= set(bound[0])


def test_pass_two_roi_mask_has_the_shape_of_hs(monkeypatch, quad_spec, small_camera, small_colors):
    # the tracer counts hs.hue_valid & (hs.saturation >= s_min) & roi_mask
    # from the two recorded arguments, so they must share a shape; the count
    # is then the frame's gated pixels inside the pass-1 boxes
    bound, rois = [], []
    signature = inspect.signature(classify_image_masked)

    def recording(*args, **kwargs):
        bound.append(signature.bind(*args, **kwargs).arguments)
        return classify_image_masked(*args, **kwargs)

    def recording_boxes(boxes, width, height):
        rois.append(boxes)
        return boxes_mask(boxes, width, height)

    monkeypatch.setattr(detection, "classify_image_masked", recording)
    monkeypatch.setattr(detection, "boxes_mask", recording_boxes)
    scene = scene_at(quad_spec, small_camera, 330.0, 30.0, 3.0)
    img, _ = synthetic.render(scene, small_camera, SIZE_SMALL)
    detection.detect_pointer(img, small_colors, quad_spec, detection.DetectionParams(r1=3, r2=2))
    assert len(bound) == 2 and len(rois) == 1
    hs, s_min, roi_mask = (bound[1][k] for k in ("hs", "s_min", "roi_mask"))
    assert roi_mask.shape == (hs.height, hs.width)
    traced = np.count_nonzero(hs.hue_valid & (hs.saturation >= s_min) & roi_mask)
    frame = rgb_to_hue_saturation(img)
    expected = np.count_nonzero(frame.gate(s_min) & inside_boxes(rois[0], img.width, img.height))
    assert traced == expected > 0
