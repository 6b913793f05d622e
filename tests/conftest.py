"""Shared fixtures: cameras, pointer patterns, synthetic scene helpers."""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from backend_reference import _fit_reference

from bandpointer import synthetic
from bandpointer.association import Correspondence, PointerSpec
from bandpointer.color_model import _wrapped_gaussian_lut
from bandpointer.pose import CameraModel, project_pointer_edges

RED, GREEN, BLUE = 1, 2, 3

# band colors used by the synthetic scenes; background stays low-saturation.
# the first two are exact red/green channel swaps: their hues mirror about
# h6 = 1, so blends classify symmetrically and defocus cannot push the
# detected junction off center. adjacent hues sit ~0.5 rad apart: far
# enough for ~10-sigma class separation, close enough that defocus blends
# stay inside the calibrated hue support instead of opening a background
# seam that would break the border-adjacency test
BAND_RGB = {
    RED: (0.90, 0.702, 0.06),    # orange, hue ~0.80
    GREEN: (0.702, 0.90, 0.06),  # yellow-green, hue ~1.29
    BLUE: (0.10, 0.85, 0.10),    # green, hue ~2.09
}


def quantize(rgb):
    """8-bit channels of [0, 1] values, by RasterImage's rule."""
    return np.round(np.asarray(rgb, dtype=np.float64) * 255.0).astype(np.uint8)


def float_hsv(rgb8):
    """Reference: hexcone hue, saturation, hue validity and value of 8-bit
    pixels, by the float formula on rgb / 255, for every pixel at once."""
    px = np.asarray(rgb8) / 255.0
    r, g, b = px[..., 0], px[..., 1], px[..., 2]
    cmax = np.maximum(np.maximum(r, g), b)
    delta = cmax - np.minimum(np.minimum(r, g), b)
    sat = np.zeros_like(cmax)
    np.divide(delta, cmax, out=sat, where=cmax > 0.0)
    valid = delta > 0.0
    safe = np.where(valid, delta, 1.0)
    h6 = np.zeros_like(cmax)
    rmax = valid & (cmax == r)
    gmax = valid & ~rmax & (cmax == g)
    bmax = valid & ~rmax & ~gmax
    h6 = np.where(rmax, (g - b) / safe, h6)
    h6 = np.where(gmax, (b - r) / safe + 2.0, h6)
    h6 = np.where(bmax, (r - g) / safe + 4.0, h6)
    hue = np.mod(h6, 6.0) * (np.pi / 3.0)
    return np.where(hue >= 2 * np.pi, 0.0, hue), sat, valid, cmax


def pasted(window_result, shape):
    """A (box, raster) result, such as the classifier's labels or
    boxes_mask's mask, pasted into a zero frame of the given shape."""
    box, raster = window_result
    frame = np.zeros(shape, dtype=raster.dtype)
    frame[box] = raster
    return frame


def inside_boxes(boxes, width, height):
    """Reference: the (height, width) raster of pixels whose centers lie
    inside any OrientedBox, each pixel tested as a point, (p - c) @ axes.T."""
    ys, xs = np.mgrid[0:height, 0:width]
    pts = np.column_stack([xs.ravel(), ys.ravel()]).astype(np.float64)
    inside = np.zeros(len(pts), dtype=bool)
    for box in boxes:
        local = (pts - box.center) @ box.axes.T
        inside |= (np.abs(local) <= box.half_extents + 1e-12).all(axis=1)
    return inside.reshape(height, width)


def kde_lut(hues, bandwidth=0.1):
    """A class's lookup table: the wrapped-Gaussian density of the hues,
    each with the one bandwidth."""
    hues = np.atleast_1d(np.asarray(hues, dtype=np.float64))
    return _wrapped_gaussian_lut(hues, np.full(len(hues), bandwidth))


def build_spec(distances, bands, total_length, radius=1.5):
    """A spec of one radius; bands past the last edge's tail band are
    ignored, so one band list serves every edge count."""
    return PointerSpec(
        distances_mm=distances,
        radii_mm=[radius] * len(distances),
        band_labels=bands[: len(distances) + 1],
        total_length_mm=total_length,
    )


# irregular band lengths of the 251 mm pointer pattern; 10 edges, 11 bands.
# every band is at least 20 mm so the two-pass bounding boxes keep covering
# the junctions at the far end of the depth sweep
SKEWER_DISTANCES = [22.0, 47.0, 67.0, 95.0, 116.0, 142.0, 162.0, 186.0, 209.0, 231.0]
SKEWER_BANDS_RG = [RED, GREEN, RED, GREEN, RED, GREEN, RED, GREEN, RED, GREEN, RED]
# same pointer with one blue band, as used for the reconstruction experiment
SKEWER_BANDS_RGB = [RED, GREEN, RED, BLUE, RED, GREEN, RED, GREEN, RED, GREEN, RED]
# skewer-like slenderness: junction halos stay compact blobs, which the
# orientation-selective filter handles much better than wide bent strips
POINTER_RADIUS_MM = 0.75


@pytest.fixture(scope="session")
def skewer_spec():
    return build_spec(
        SKEWER_DISTANCES, SKEWER_BANDS_RG, total_length=251.0,
        radius=POINTER_RADIUS_MM,
    )


@pytest.fixture(scope="session")
def skewer_spec_blue():
    return build_spec(
        SKEWER_DISTANCES, SKEWER_BANDS_RGB, total_length=251.0,
        radius=POINTER_RADIUS_MM,
    )


@pytest.fixture(scope="session")
def camera_full():
    """2448 x 2048 sensor, similar to the evaluation camera."""
    K = np.array([
        [3600.0, 0.0, 1223.5],
        [0.0, 3600.0, 1023.5],
        [0.0, 0.0, 1.0],
    ])
    return CameraModel(K=K)


@pytest.fixture(scope="session")
def camera_small():
    """Quarter-scale camera for fast rendering tests."""
    K = np.array([
        [600.0, 0.0, 305.5],
        [0.0, 600.0, 255.5],
        [0.0, 0.0, 1.0],
    ])
    return CameraModel(K=K)


SIZE_FULL = (2448, 2048)
SIZE_SMALL = (612, 512)

# detection parameters used by the synthetic-scene fixtures: smaller
# erosion radii than the spec defaults so the bounding boxes of pass 1
# keep covering the junctions of this slender pointer when foreshortened
FIXTURE_PARAMS = dict(r1=3, r2=2)


@pytest.fixture(scope="session")
def small_camera():
    """612 x 512 camera for fast rendered unit tests."""
    K = np.array([
        [1000.0, 0.0, 305.5],
        [0.0, 1000.0, 255.5],
        [0.0, 0.0, 1.0],
    ])
    return CameraModel(K=K)


# short 4-band pointer for small-image detection tests
QUAD_DISTANCES = [25.0, 55.0, 78.0]
QUAD_BANDS = [RED, GREEN, RED, GREEN]


@pytest.fixture(scope="session")
def quad_spec():
    return build_spec(QUAD_DISTANCES, QUAD_BANDS, total_length=100.0, radius=2.0)


# pointer midpoint on the optical axis at a depth and tilt
pose_at = synthetic.pose_on_axis


def scene_at(spec, camera, depth_mm, tilt_deg, roll_deg=0.0, **scene):
    """The pointer posed by pose_at, painted in BAND_RGB; scene holds any
    other SceneSpec fields."""
    pose = pose_at(depth_mm, tilt_deg, camera, spec, roll_deg=roll_deg)
    return synthetic.SceneSpec(pose=pose, spec=spec, band_colors=BAND_RGB, **scene)


def with_hidden(gt, hidden):
    """gt with the edges whose index is in hidden made invisible."""
    return replace(gt, edges=[
        replace(e, visible=e.visible and e.index not in hidden) for e in gt.edges
    ])


def make_calibrated_colors(spec, camera, size, depth_mm=350.0, blur_sigma=2.0):
    """Color model from a rendered, blurred calibration image + exact mask."""
    from bandpointer.color_model import calibrate_colors

    scene = scene_at(spec, camera, depth_mm, 5.0, 3.0, blur_sigma=blur_sigma)
    img, _ = synthetic.render(scene, camera, size)
    mask = synthetic.render_class_mask(scene, camera, size)
    return calibrate_colors(img, mask, min_saturation=0.12)


@pytest.fixture(scope="session")
def small_colors(quad_spec, small_camera):
    return make_calibrated_colors(quad_spec, small_camera, SIZE_SMALL)


@pytest.fixture(scope="session")
def full_colors(skewer_spec, camera_full):
    return make_calibrated_colors(
        skewer_spec, camera_full, SIZE_FULL, depth_mm=450.0
    )


@pytest.fixture(scope="session")
def benchmark_setup():
    """The frame benchmark's binned camera (1224 x 1024, f = 1800 px), its
    3 mm RG pointer and colors calibrated as the benchmark calibrates:
    450 mm, 5 deg, roll 3, blur 1 binned px. (size, camera, spec, colors)"""
    size = (1224, 1024)
    camera = CameraModel(K=np.array([[1800.0, 0.0, 611.5], [0.0, 1800.0, 511.5], [0, 0, 1]]))
    spec = build_spec(SKEWER_DISTANCES, SKEWER_BANDS_RG, 251.0, radius=1.5)
    colors = make_calibrated_colors(spec, camera, size, depth_mm=450.0, blur_sigma=1.0)
    return size, camera, spec, colors


def detection_from_pose(
    pose, camera, spec, indices=None, noise_px=0.0, rng=None
):
    """Exact DetectionResult + true Correspondence via the pose projector.

    The points come from the pose projector, optionally perturbed; their
    order and side labels from synthetic.ground_truth_detection. Useful
    for tests that exercise association or optimization in isolation;
    cross-validation against the independent renderer path happens in
    the synthetic tests.
    """
    if indices is None:
        indices = list(range(len(spec.distances_mm)))
    pairs = project_pointer_edges(pose, camera, spec, indices)
    if noise_px > 0:
        pairs += rng.normal(0, noise_px, pairs.shape)
    gt = synthetic.GroundTruth(
        edges=[synthetic.EdgeGroundTruth(i, a, b, True) for i, (a, b) in zip(indices, pairs)],
        pose=pose,
    )
    result = synthetic.ground_truth_detection(gt, spec)
    index_of = {pair[0].tobytes(): i for i, pair in zip(indices, pairs)}
    mapping = [(k, index_of[e.p_a.tobytes()]) for k, e in enumerate(result.edges)]
    forward = mapping[0][1] < mapping[-1][1]

    b = spec.distances_mm
    sample = [mapping[0], mapping[len(mapping) // 2], mapping[-1]]
    homog = _fit_reference(
        [(result.edges[k].axis_coordinate, b[i]) for k, i in sample]
    )
    corr = Correspondence(
        pairs=mapping,
        homography=homog,
        orientation="forward" if forward else "reversed",
    )
    return result, corr


def traced_peak(fn):
    """fn's result and the most memory it held at once, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
