"""Tests for the two-pass band detector and junction pair extraction."""

import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from backend_reference import moment_ellipse
from conftest import (
    BAND_RGB,
    BLUE,
    FIXTURE_PARAMS,
    GREEN,
    QUAD_BANDS,
    QUAD_DISTANCES,
    RED,
    SIZE_FULL,
    SIZE_SMALL,
    build_spec,
    inside_boxes,
    kde_lut,
    make_calibrated_colors,
    pasted,
    scene_at,
    traced_peak,
)

from bandpointer import detection, synthetic
from bandpointer.color_model import ColorClassSet, classify_image_masked
from bandpointer.detection import (
    BINARIZE_THRESHOLD,
    MAJOR_EXPAND,
    MINOR_EXPAND,
    PAIR_SEPARATION_SIGMAS,
    DetectionParams,
    EdgePointPair,
    _halo_groups,
    _junction_images,
    _orientation_kernel,
    _refine_subpixel,
    _region_pass,
    detect_band_regions,
    detect_pointer,
    expand_bounding_boxes,
    extract_edge_pairs,
    label_edge_pairs,
    ransac_centroid_line,
)
from bandpointer.errors import (
    BandPointerError,
    DegenerateSampleError,
    InsufficientEdgesError,
    InsufficientRegionsError,
    NoEdgesError,
    PointerNotFoundError,
)
from bandpointer.geometry import (
    Line2D,
    OrientedBox,
    boxes_mask,
    coincident,
    fit_line_tls,
    pixel_box,
    principal_axes,
)
from bandpointer.imaging import (
    RasterImage,
    Region,
    connected_components,
    convolve_unit_sum,
    erode_disk,
    rgb_to_hue_saturation,
)
from bandpointer.pose import PointerPose


@pytest.fixture
def params():
    return DetectionParams(**FIXTURE_PARAMS)


def hs_of(pixels):
    return rgb_to_hue_saturation(RasterImage(pixels))


@pytest.fixture
def rg_colors():
    """Narrow single-sample densities at the fixture band hues."""
    return ColorClassSet(labels=(RED, GREEN), luts=[kde_lut(0.798, 0.08), kde_lut(1.294, 0.08)])


ADJ_RG = {frozenset((RED, GREEN))}


def two_band_strip(shape=(64, 96)):
    """Gray pixels of the given (height, width) holding a 12 px tall red
    band and the green band right of it."""
    px = np.full(shape + (3,), 0.45)
    px[26:38, 8:48] = BAND_RGB[RED]
    px[26:38, 48:88] = BAND_RGB[GREEN]
    return px


class TestDetectBandRegions:
    def test_blank_image(self, rg_colors, params):
        px = np.full((64, 64, 3), 0.45)
        regions = detect_band_regions(hs_of(px), rg_colors, ADJ_RG, 0.25, 2)
        assert regions == []

    def test_two_band_cylinder(self, rg_colors, params):
        regions = detect_band_regions(hs_of(two_band_strip()), rg_colors, ADJ_RG, 0.25, 2)
        assert sorted(r.label for r in regions) == [RED, GREEN]

    def test_isolated_blob_removed_by_adjacency(self, rg_colors, params):
        px = two_band_strip((100, 180))
        # same color, far beyond the adjacency distance of 2*2+4
        px[70:90, 150:170] = BAND_RGB[RED]
        regions = detect_band_regions(hs_of(px), rg_colors, ADJ_RG, 0.25, 2)
        assert sorted(r.label for r in regions) == [RED, GREEN]
        for reg in regions:
            assert reg.centroid[1] < 50

    def test_roi_restricts_classification(self, rg_colors, params):
        far_box = [OrientedBox(
            center=np.array([10.0, 55.0]), axes=np.eye(2), half_extents=np.array([6.0, 6.0]),
        )]
        hs = hs_of(two_band_strip())
        assert detect_band_regions(hs, rg_colors, ADJ_RG, 0.25, 2, roi=far_box) == []

    @pytest.mark.parametrize("center", [(-20.0, -20.0), (120.0, 30.0), (40.0, 90.0)],
                             ids=["above-left", "right", "below"])
    def test_roi_wholly_outside_frame_finds_nothing(self, rg_colors, center):
        # the boxes' window is empty, so nothing is classified
        outside = [OrientedBox(
            center=np.array(center), axes=np.eye(2), half_extents=np.array([6.0, 6.0]),
        )]
        assert boxes_mask(outside, 96, 64)[1].size == 0
        hs = hs_of(two_band_strip())
        assert detect_band_regions(hs, rg_colors, ADJ_RG, 0.25, 2, roi=outside) == []


class TestAdjacencyReach:
    """Eroded regions of adjacent colors are kept up to 2r + 5 px apart,
    center to center, and no farther."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize(
        "dx, dy, kept", [(5, 0, True), (6, 0, False), (5, 1, False)],
        ids=["2r+5", "2r+6", "2r+5-and-1-down"],
    )
    def test_exact_boundary(self, rg_colors, r, dx, dy, kept):
        # the disk erosion trims r px off each side of a rectangle, so the
        # nearest eroded pixels are (2r + dx, dy) apart
        red = np.zeros((90, 100), dtype=bool)
        green = np.zeros_like(red)
        red_bottom = 30 + 2 * r  # last painted row
        red[20 : red_bottom + 1, 10:30] = True
        green_top = 20 if dy == 0 else red_bottom - 2 * r + dy
        green[green_top : green_top + 11 + 2 * r, 29 + dx : 49 + dx] = True
        a = np.argwhere(erode_disk(red, r))
        b = np.argwhere(erode_disk(green, r))
        assert ((a[:, None] - b[None]) ** 2).sum(axis=2).min() == (2 * r + dx) ** 2 + dy**2

        px = np.full(red.shape + (3,), 0.45)
        px[red] = BAND_RGB[RED]
        px[green] = BAND_RGB[GREEN]
        regions = detect_band_regions(hs_of(px), rg_colors, ADJ_RG, 0.25, r)
        assert sorted(reg.label for reg in regions) == ([RED, GREEN] if kept else [])


def _band_regions_reference(hs, colors, spec_adjacency, s, r, roi=None):
    """Whole-frame form of detect_band_regions: a whole-frame ROI raster
    and label raster, per label a full-frame mask, its whole-frame
    erosion and labeling, and adjacency distances from masks rebuilt out
    of the region pixels."""
    roi_mask = inside_boxes(roi, hs.width, hs.height) if roi is not None else None
    labels_raster = pasted(classify_image_masked(colors, hs, s, roi_mask), (hs.height, hs.width))
    regions = []
    for label in colors.labels:
        mask = labels_raster == label
        if not mask.any():
            continue
        dist = ndimage.distance_transform_edt(np.pad(mask, r + 1))
        eroded = dist[r + 1 : -r - 1, r + 1 : -r - 1] > r
        labeled, _ = ndimage.label(eroded, structure=np.ones((3, 3), dtype=int))
        for idx in range(1, labeled.max() + 1):
            ys, xs = np.nonzero(labeled == idx)
            regions.append(Region(pixels=np.column_stack([xs, ys]), label=label))
    masks = {}
    for reg in regions:
        mask = masks.setdefault(reg.label, np.zeros(labels_raster.shape, dtype=bool))
        mask[reg.pixels[:, 1], reg.pixels[:, 0]] = True
    dist_to = {label: ndimage.distance_transform_edt(~m) for label, m in masks.items()}
    kept = []
    for reg in regions:
        others = [b for pair in spec_adjacency if reg.label in pair
                  for b in pair if b != reg.label and b in dist_to]
        if any(
            max(dist_to[b][reg.pixels[:, 1], reg.pixels[:, 0]].min() - 1.0, 0.0)
            <= 2 * r + 4
            for b in others
        ):
            kept.append(reg)
    return kept


def _disk(radius):
    y, x = np.ogrid[-radius : radius + 1, -radius : radius + 1]
    return x * x + y * y <= radius * radius


def _region_window_scene(rng, cell, r):
    """A label raster for the region-window test, 0 for the gray
    background: pure-color cells over part of the frame or none of it,
    then features finer than pass 1's lattice (single pixels, 1-2 px
    lines) and, near the frame's border, touching RED and GREEN disks just
    over 2r wide, whose erosion keeps a pixel or a few."""
    h, w = rng.integers(4 * r + 8, 4 * r + 60, 2)
    labels = np.zeros((h, w), dtype=int)
    if rng.random() < 0.5:
        grid = rng.choice([0, RED, GREEN], size=rng.integers(3, 13, 2), p=[0.6, 0.2, 0.2])
        mosaic = np.kron(grid, np.ones((cell, cell), dtype=int))[:h, :w]
        y, x = rng.integers(0, [h - mosaic.shape[0] + 1, w - mosaic.shape[1] + 1])
        labels[y : y + mosaic.shape[0], x : x + mosaic.shape[1]] = mosaic
    for _ in range(rng.integers(0, 4)):  # single saturated pixels
        labels[rng.integers(0, h), rng.integers(0, w)] = rng.choice([RED, GREEN])
    for _ in range(rng.integers(0, 3)):  # 1-2 px lines, straight or diagonal
        (y, x), length = rng.integers(0, [h, w]), rng.integers(3, max(h, w))
        dy, dx = [(0, 1), (1, 0), (1, 1), (1, -1)][rng.integers(4)]
        steps = np.arange(length)
        oy, ox = (1, 0) if dy == 0 else (0, 1)  # a 2 px line's second row or column
        for k in range(rng.integers(1, 3)):
            ys, xs = y + dy * steps + k * oy, x + dx * steps + k * ox
            inside = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
            labels[ys[inside], xs[inside]] = rng.choice([RED, GREEN])
    for _ in range(rng.integers(1, 4)):  # disk pairs near a border
        radius = r + (rng.random() < 0.25)
        disk, size = _disk(radius), 2 * radius + 1
        along = rng.integers(2)  # the pair runs along rows or columns
        extent = np.array([size, size])
        extent[along] *= 2
        y0, x0 = rng.integers(0, [h, w] - extent + 1)
        gap = rng.integers(0, 3)  # from the top, bottom, left or right border
        y0, x0 = [(gap, x0), (h - extent[0] - gap, x0),
                  (y0, gap), (y0, w - extent[1] - gap)][rng.integers(4)]
        for k, label in enumerate(rng.permutation([RED, GREEN])):
            y, x = y0 + k * size * (along == 0), x0 + k * size * (along == 1)
            labels[y : y + size, x : x + size][disk] = label
    return labels


class TestBandRegionsWindow:
    """Erosion, labeling and adjacency in the classified pixels' box, and
    pass 1's lattice window, give the whole frame's regions, in its
    order."""

    @given(
        st.integers(0, 10_000),
        st.integers(3, 6),
        st.integers(1, 6),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    # pass 1 with disks the lattice misses, or whose hits lie a + r from
    # their far side: a lattice step of 2a + 2 or a pad of 2r - 2 fails
    @example(seed=0, cell=4, r=3, with_roi=False)
    @example(seed=9, cell=4, r=2, with_roi=False)
    def test_matches_whole_frame_reference(self, seed, cell, r, with_roi):
        rng = np.random.default_rng(seed)
        # BLUE is never painted, and the unclassified background keeps
        # some pieces beyond the adjacency distance
        grid = _region_window_scene(rng, cell, r)
        px = np.full(grid.shape + (3,), 0.45)
        for label in (RED, GREEN):
            px[grid == label] = BAND_RGB[label]
        hs = hs_of(px)
        colors = ColorClassSet(
            labels=(RED, GREEN, BLUE), luts=[kde_lut(hue, 0.08) for hue in (0.798, 1.294, 2.09)]
        )
        adjacency = {frozenset((RED, GREEN)), frozenset((GREEN, BLUE))}
        roi = None
        if with_roi:  # pass 2: classification only inside oriented boxes
            h, w = grid.shape
            roi = [
                OrientedBox(
                    center=rng.uniform([0, 0], [w, h]),
                    axes=np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]]),
                    half_extents=rng.uniform(2.0, 0.6 * max(w, h), 2),
                )
                for a in rng.uniform(0.0, np.pi, rng.integers(1, 3))
            ]
        got = detect_band_regions(hs, colors, adjacency, 0.25, r, roi=roi)
        want = _band_regions_reference(hs, colors, adjacency, 0.25, r, roi=roi)
        assert [g.label for g in got] == [ref.label for ref in want]
        for g, ref in zip(got, want):
            np.testing.assert_array_equal(g.pixels, ref.pixels)
            np.testing.assert_array_equal(g.centroid, ref.centroid)


def region_from_rect(x0, y0, w, h, label=RED):
    xs, ys = np.meshgrid(np.arange(x0, x0 + w), np.arange(y0, y0 + h))
    return Region(
        pixels=np.column_stack([xs.ravel(), ys.ravel()]), label=label
    )


def _ransac_reference(regions, params):
    """Per-pair, per-region loop form of ransac_centroid_line: every pair
    i < j in turn, the first of the tied best."""
    def crosses(reg, line):
        d = line.perp_distance(reg.pixels.astype(np.float64))
        return bool((d > 0).any() and (d < 0).any())

    centroids = np.array([r.centroid for r in regions])
    best_line, best_crossing = None, []
    for i, j in itertools.combinations(range(len(regions)), 2):
        if coincident(centroids[i], centroids[j]):
            continue
        line = Line2D(centroids[i], centroids[j] - centroids[i])
        crossing = [k for k, reg in enumerate(regions) if crosses(reg, line)]
        if best_line is None or len(crossing) > len(best_crossing):
            best_line, best_crossing = line, crossing
    if best_line is None:
        raise DegenerateSampleError("all centroid pairs coincide")
    dist = best_line.perp_distance(centroids)
    if len(best_crossing) >= 2:
        sigma = float(np.sqrt(np.mean(dist[best_crossing] ** 2)))
    else:
        sigma = float(params.r2)
    keep = np.abs(dist) <= detection.LINE_INLIER_SIGMAS * max(sigma, 0.5)
    return best_line, [reg for reg, k in zip(regions, keep) if k]


class TestRansacCentroidLine:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_region_reference(self, params, seed):
        rng = np.random.default_rng(seed)
        regions = []
        for _ in range(rng.integers(2, 14)):
            x0, y0 = rng.integers(0, 120, 2)
            w, h = rng.integers(1, 12, 2)
            keep = rng.random(w * h) < 0.8
            keep[0] = True  # irregular but never empty
            reg = region_from_rect(x0, y0, w, h)
            regions.append(Region(pixels=reg.pixels[keep], label=RED))
        line, keep = ransac_centroid_line(regions, params)
        ref_line, ref_keep = _ransac_reference(regions, params)
        assert np.array_equal(line.point, ref_line.point)
        assert np.array_equal(line.direction, ref_line.direction)
        assert [id(r) for r in keep] == [id(r) for r in ref_keep]

    def test_two_regions_both_returned(self, params):
        regions = [region_from_rect(0, 0, 8, 6), region_from_rect(30, 2, 8, 6)]
        line, keep = ransac_centroid_line(regions, params)
        assert len(keep) == 2

    def test_distractor_excluded(self, params):
        regions = [
            region_from_rect(10 + 25 * i, 40, 10, 8) for i in range(5)
        ]
        regions.append(region_from_rect(60, 120, 10, 8))  # far off-axis
        line, keep = ransac_centroid_line(regions, params)
        assert len(keep) == 5
        assert all(abs(r.centroid[1] - 43.5) < 1 for r in keep)

    def test_single_region_insufficient(self, params):
        with pytest.raises(InsufficientRegionsError):
            ransac_centroid_line([region_from_rect(0, 0, 5, 5)], params)

    def test_coincident_centroids_degenerate(self, params):
        regions = [region_from_rect(10, 10, 5, 5) for _ in range(3)]
        with pytest.raises(DegenerateSampleError):
            ransac_centroid_line(regions, params)

    def test_nearly_coincident_centroids_skipped(self, params):
        # a ring around a blob whose centroid sits 1/440 px off the ring's:
        # too close to define a line, so that pair is skipped, and the first
        # pair of a center and a far region, on the slope-1/2 line through
        # all four, wins
        ring = [(x, y) for x in range(980, 1021) for y in range(480, 521)
                if max(abs(x - 1000), abs(y - 500)) > 13]
        blob = [(x, y) for x in range(990, 1011) for y in range(490, 511)
                if (x, y) != (999, 500)]
        regions = [
            Region(pixels=np.array(ring)),
            Region(pixels=np.array(blob)),
            region_from_rect(198, 98, 5, 5),
            region_from_rect(1798, 898, 5, 5),
        ]
        assert 0 < regions[1].centroid[0] - 1000.0 < 0.01
        line, keep = ransac_centroid_line(regions, params)
        assert abs(line.direction @ np.array([-1.0, 2.0])) < 1e-12  # slope 1/2
        assert [id(r) for r in keep] == [id(r) for r in regions]
        assert np.array_equal(line.point, _ransac_reference(regions, params)[0].point)


def _region_sets():
    """2-16 irregular regions on a small grid: one-pixel rows and columns,
    single pixels, and odd rectangles whose centroids sit on pixel centers,
    so centroid lines run axis-aligned or through pixels."""
    shape = st.tuples(
        st.integers(0, 30), st.integers(0, 30),  # corner
        st.sampled_from([1, 1, 2, 3, 5, 8]), st.sampled_from([1, 1, 2, 3, 5, 8]),
        st.integers(0, 2**32 - 1),  # which pixels to drop
    )
    return st.lists(shape, min_size=2, max_size=16)


def _irregular(x0, y0, w, h, seed):
    reg = region_from_rect(x0, y0, w, h)
    keep = np.random.default_rng(seed).random(w * h) < 0.75
    keep[seed % (w * h)] = True  # never empty
    if seed % 3 == 0:
        keep[:] = True
    pixels = reg.pixels[keep]
    if seed % 5 == 0:  # pixels in no particular order
        pixels = pixels[np.random.default_rng(seed).permutation(len(pixels))]
    return Region(pixels=pixels, label=RED)


class TestRansacCentroidLineEquivalence:
    @given(_region_sets(), st.sampled_from([0, 10**6, 10**7]))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, shapes, offset):
        # far from the origin, centroids up to 10 or 100 px apart are too
        # close to define a line, so such pairs are skipped
        regions = [_irregular(*shape) for shape in shapes]
        regions = [Region(pixels=r.pixels + offset, label=r.label) for r in regions]
        params = DetectionParams(r1=3, r2=2)
        try:
            line, keep = ransac_centroid_line(regions, params)
        except DegenerateSampleError:
            with pytest.raises(DegenerateSampleError):
                _ransac_reference(regions, params)
            return
        ref_line, ref_keep = _ransac_reference(regions, params)
        assert line.point.tobytes() == ref_line.point.tobytes()
        assert line.direction.tobytes() == ref_line.direction.tobytes()
        assert [id(r) for r in keep] == [id(r) for r in ref_keep]


class TestPixelBox:
    def test_floor_and_ceil_with_margin(self):
        pts = np.array([[2.5, 3.2], [7.1, 4.0]])
        assert pixel_box(pts, 1.0, (0, 0), (100, 100)) == (1, 2, 10, 6)
        assert pixel_box(pts, 0.0, (0, 0), (100, 100)) == (2, 3, 9, 5)

    def test_clipped_to_window(self):
        assert pixel_box([(2.5, 3.2)], 5.0, (0, 0), (4, 100)) == (0, 0, 4, 10)
        assert pixel_box([(2.5, 3.2)], 5.0, (1, 2), (100, 100)) == (1, 2, 9, 10)

    def test_outside_window_is_empty(self):
        x0, y0, x1, y1 = pixel_box([(50, 50)], 1, (0, 0), (10, 10))
        assert x0 >= x1 and y0 >= y1


@st.composite
def oriented_boxes(draw):
    """A frame size and one to three boxes: anywhere from well inside to
    wholly outside the frame, axis-aligned or turned, with half extents
    from the 0.5 px floor (as stretched by expand_bounding_boxes) up."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    boxes = []
    for _ in range(draw(st.integers(1, 3))):
        center = np.array([draw(st.floats(-30, w + 30)), draw(st.floats(-30, h + 30))])
        if draw(st.booleans()):  # on a pixel center or halfway between two
            center = np.round(2 * center) / 2
        angle = draw(st.one_of(st.sampled_from([0.0, np.pi / 4, np.pi / 2]), st.floats(0, np.pi)))
        floor = st.sampled_from([0.5, MAJOR_EXPAND * 0.5, MINOR_EXPAND * 0.5])
        half = [draw(st.one_of(floor, st.floats(0.5, 25))) for _ in range(2)]
        boxes.append(OrientedBox(
            center=center,
            axes=np.array([[np.cos(angle), np.sin(angle)], [-np.sin(angle), np.cos(angle)]]),
            half_extents=np.array(half),
        ))
    return w, h, boxes


class TestBoxesMask:
    """boxes_mask rasterizes over the pixel box of all the boxes' corners
    the pixels of the per-pixel rule, (p - c) @ axes.T within the half
    extents."""

    @given(oriented_boxes())
    @settings(max_examples=300, deadline=None)
    def test_window_equals_per_pixel_reference(self, case):
        w, h, boxes = case
        box, mask = boxes_mask(boxes, w, h)
        x0, y0, x1, y1 = pixel_box(np.vstack([b.corners() for b in boxes]), 0.0, (0, 0), (w, h))
        assert mask.dtype == bool
        assert (box[1].start, box[0].start) == (x0, y0)
        assert mask.shape == (max(y1 - y0, 0), max(x1 - x0, 0))
        assert pasted((box, mask), (h, w)).tobytes() == inside_boxes(boxes, w, h).tobytes()

    def test_box_outside_the_frame_gives_an_empty_window(self):
        far = OrientedBox(center=np.array([-20.0, 5.0]), axes=np.eye(2),
                          half_extents=np.array([3.0, 3.0]))
        box, mask = boxes_mask([far], 10, 10)
        assert mask.size == 0 and np.zeros((10, 10))[box].size == 0

    def test_single_pixel_floor(self):
        (one,) = expand_bounding_boxes([Region(pixels=np.array([[7, 9]]), label=RED)])
        box, mask = boxes_mask([one], 20, 20)
        assert np.argwhere(pasted((box, mask), (20, 20))).tolist() == [[9, 7]]


@st.composite
def pixel_sets(draw):
    """Region pixels: one pixel, a collinear run, a filled rectangle or a
    random blob in shuffled order, anywhere in a 2448 x 2048 frame."""
    kind = draw(st.sampled_from(["pixel", "run", "rect", "blob"]))
    x0, y0 = draw(st.integers(0, 2447)), draw(st.integers(0, 2047))
    if kind == "pixel":
        return np.array([[x0, y0]])
    if kind == "run":
        step = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (-1, 3)]))
        k = np.arange(draw(st.integers(2, 80)))[:, None]
        return np.array([x0, y0]) + k * np.array(step)
    w, h = draw(st.integers(1, 50)), draw(st.integers(1, 50))
    ys, xs = np.mgrid[y0:y0 + h, x0:x0 + w]
    pixels = np.column_stack([xs.ravel(), ys.ravel()])
    if kind == "blob":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        keep = rng.random(len(pixels)) < draw(st.floats(0.05, 0.95))
        keep[rng.integers(len(pixels))] = True
        pixels = rng.permutation(pixels[keep])
    return pixels


class TestExpandBoundingBoxes:
    @settings(max_examples=300, deadline=None)
    @given(pixels=pixel_sets())
    def test_matches_moment_ellipse(self, pixels):
        region = Region(pixels=pixels, label=RED)
        (box,) = expand_bounding_boxes([region])
        semi, axes, center = moment_ellipse(region.pixels)
        half_extents = np.array([MAJOR_EXPAND * semi[0], MINOR_EXPAND * semi[1]])
        assert box.center.tobytes() == center.tobytes()
        assert box.axes.tobytes() == axes.tobytes()
        assert box.half_extents.tobytes() == half_extents.tobytes()

    def test_rectangle_moment_oracle(self):
        # moments of a 10x4 rectangle: discrete variance (n^2 - 1) / 12
        region = region_from_rect(5, 5, 10, 4)
        (box,) = expand_bounding_boxes([region])
        semi_major = np.sqrt(3 * (10**2 - 1) / 12)
        semi_minor = np.sqrt(3 * (4**2 - 1) / 12)
        np.testing.assert_allclose(
            box.half_extents, [1.1 * semi_major, 1.5 * semi_minor], atol=1e-9
        )
        # box extents land near 11 x 6
        assert 2 * box.half_extents[0] == pytest.approx(11.0, abs=0.1)
        assert 2 * box.half_extents[1] == pytest.approx(6.0, abs=0.25)

    def test_circle_gets_axis_expansions(self):
        ys, xs = np.mgrid[-8:9, -8:9]
        inside = xs**2 + ys**2 <= 64
        region = Region(
            pixels=np.column_stack([xs[inside] + 20, ys[inside] + 20]),
            label=RED,
        )
        (box,) = expand_bounding_boxes([region])
        ratio = box.half_extents[0] / box.half_extents[1]
        assert ratio == pytest.approx(1.1 / 1.5, rel=1e-6)

    def test_single_pixel_floor(self):
        region = Region(pixels=np.array([[7, 9]]), label=RED)
        (box,) = expand_bounding_boxes([region])
        np.testing.assert_allclose(
            box.half_extents, [1.1 * 0.5, 1.5 * 0.5], atol=1e-12
        )


class TestOrientationKernel:
    def test_unit_sum_and_point_symmetry(self):
        for phi in (0.0, 0.4, -1.2, np.pi / 2):
            kernel = _orientation_kernel(phi, sigma_d=5.0)
            assert kernel.sum() == pytest.approx(1.0)
            np.testing.assert_allclose(kernel, kernel[::-1, ::-1], atol=1e-15)

    def test_emphasizes_lines_at_phi(self):
        kernel = _orientation_kernel(0.0, sigma_d=5.0)
        half = kernel.shape[0] // 2
        # along the x axis vs along the y axis at equal radius
        assert kernel[half, half + 4] > 20 * kernel[half + 4, half]


@pytest.fixture(scope="module")
def quad_scene(quad_spec, small_camera):
    scene = scene_at(quad_spec, small_camera, 330.0, 0.0, 3.0)
    img, gt = synthetic.render(scene, small_camera, SIZE_SMALL)
    return scene, img, gt


class TestExtractEdgePairs:
    def test_four_band_pointer_three_pairs(
        self, quad_scene, quad_spec, small_colors, small_camera, params
    ):
        scene, img, gt = quad_scene
        result = detect_pointer(img, small_colors, quad_spec, params)
        assert len(result.edges) == 3
        for edge, gt_edge in zip(result.edges, gt.edges):
            gt_pts = np.vstack([gt_edge.p_a, gt_edge.p_b])
            for p in (edge.p_a, edge.p_b):
                err = np.linalg.norm(gt_pts - p, axis=1).min()
                assert err < 1.0, f"contour point off by {err:.2f} px"

    def test_highlight_gap_reconnected(self, small_camera, params):
        # thick enough that the colored stubs beside the specular line
        # survive erosion, leaving a split halo for the kernel to bridge
        spec = build_spec(QUAD_DISTANCES, QUAD_BANDS, 100.0, radius=4.0)
        colors = make_calibrated_colors(spec, small_camera, SIZE_SMALL)
        highlighted = scene_at(spec, small_camera, 330.0, 0.0, 3.0, highlights=(
            synthetic.HighlightStripe(53.0, 57.0, 0.92, side_fraction=(-0.3, 0.1)),
        ))
        img_hl, _ = synthetic.render(highlighted, small_camera, SIZE_SMALL)
        result = detect_pointer(img_hl, colors, spec, params)
        # the highlight saddles the middle junction; it must survive
        assert len(result.edges) == 3

    def test_halo_conjunction_subset(
        self, quad_scene, quad_spec, small_colors, small_camera, params
    ):
        scene, img, gt = quad_scene
        hs = rgb_to_hue_saturation(img)
        adj = quad_spec.adjacent_label_pairs()
        regions = detect_band_regions(hs, small_colors, adj, params.s2, params.r2)
        line, surviving = ransac_centroid_line(regions, params)
        (x0, y0), halo, filtered, ys, xs = _junction_images(
            surviving, adj, params, SIZE_SMALL, line
        )
        assert halo.shape == filtered.shape
        # the halo's pixel list, in scan order
        assert all(map(np.array_equal, (ys, xs), np.nonzero(halo)))
        h, w = halo.shape
        assert 0 <= x0 and x0 + w <= SIZE_SMALL[0] and 0 <= y0 and y0 + h <= SIZE_SMALL[1]
        # every region pixel lies in the crop
        px = np.vstack([reg.pixels for reg in surviving])
        assert (px >= (x0, y0)).all() and (px < (x0 + w, y0 + h)).all()
        combined = halo & filtered  # I_b3
        assert combined.any()
        assert (filtered & ~halo).any()  # the response spreads past I_b1

    def test_pair_filters_hold(
        self, quad_scene, quad_spec, small_colors, params
    ):
        scene, img, gt = quad_scene
        result = detect_pointer(img, small_colors, quad_spec, params)
        e = params.edge_halo
        seps = np.array([np.linalg.norm(edge.p_a - edge.p_b) for edge in result.edges])
        assert (seps >= e).all()
        mu, sd = seps.mean(), seps.std()
        if sd > 0:
            assert (np.abs(seps - mu) <= PAIR_SEPARATION_SIGMAS * sd).all()

    def test_pass2_regions_inside_pass1_boxes(
        self, quad_scene, quad_spec, small_colors, params
    ):
        scene, img, gt = quad_scene
        boxes, _, pass2 = _two_passes(img, small_colors, quad_spec, params)
        assert pass2
        inside = inside_boxes(boxes, img.width, img.height)
        for reg in pass2:
            assert inside[reg.pixels[:, 1], reg.pixels[:, 0]].all()


def _two_passes(img, colors, spec, params):
    """The pass-1 boxes, the pass-2 centroid line and the surviving pass-2
    regions, as detect_pointer finds them."""
    hs = rgb_to_hue_saturation(img)
    adjacency = spec.adjacent_label_pairs()
    _, pass1 = _region_pass(1, hs, colors, adjacency, params.s1, params.r1, params)
    boxes = expand_bounding_boxes(pass1)
    line, pass2 = _region_pass(2, hs, colors, adjacency, params.s2, params.r2, params, roi=boxes)
    return boxes, line, pass2


def _frame_junction_images(img, colors, spec, params, monkeypatch):
    """_junction_images on a frame as detect_pointer calls it, and the
    orientation kernel it built."""
    _, line, pass2 = _two_passes(img, colors, spec, params)
    kernels = []

    def recorded_kernel(phi, sigma_d):
        kernels.append(_orientation_kernel(phi, sigma_d))
        return kernels[-1]

    monkeypatch.setattr(detection, "_orientation_kernel", recorded_kernel)
    size = (img.width, img.height)
    out = _junction_images(pass2, spec.adjacent_label_pairs(), params, size, line)
    (kernel,) = kernels
    return out, kernel


def _halo_groups_reference(halo, half):
    """Halo groups by crop-wide dilation and labeling: each 8-connected
    component of the halo dilated by the (2 half + 1)-square, as its box
    and its halo pixels over the box."""
    dilated = ndimage.maximum_filter(halo, size=2 * half + 1, mode="constant", cval=False)
    labeled, _ = ndimage.label(dilated, structure=np.ones((3, 3), dtype=int))
    for idx, box in enumerate(ndimage.find_objects(labeled), start=1):
        yield box, halo[box] & (labeled[box] == idx)


def _group_sets(groups):
    """(box, pixels) groups as a set of (box bounds, frame pixel set)."""
    out = set()
    for (rows, cols), pixels in groups:
        ys, xs = np.nonzero(pixels)
        bounds = (rows.start, rows.stop, cols.start, cols.stop)
        out.add((bounds, frozenset(zip(ys + rows.start, xs + cols.start))))
    return out


@st.composite
def _random_halos(draw):
    """Sparse random halos, some with pixels along the crop border and some
    with a diagonal chain of small blobs one step either side of joining
    for the drawn kernel half widths."""
    shape = (draw(st.integers(1, 48)), draw(st.integers(1, 48)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    halo = rng.random(shape) < draw(st.sampled_from([0.0, 0.005, 0.02, 0.1]))
    if draw(st.booleans()):
        for edge in (halo[0], halo[-1], halo[:, 0], halo[:, -1]):
            edge |= rng.random(edge.shape) < 0.2
    if draw(st.booleans()):
        step = draw(st.integers(1, 11))  # 2 half + 1 and 2 half + 2 for half 0-4
        y, x = draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))
        sy, sx = draw(st.sampled_from([(1, 1), (1, -1), (1, 0), (0, 1)]))
        size = draw(st.integers(1, 3))
        while 0 <= y < shape[0] and 0 <= x < shape[1]:
            halo[y:y + size, x:x + size] = True
            y, x = y + sy * (step + size - 1), x + sx * (step + size - 1)
    return halo


class TestGroupedOrientationFilter:
    """I_b2 is filtered one group of nearby halo pixels at a time; it must
    equal the filter over the whole crop."""

    @pytest.mark.parametrize(
        "angle_deg, blur, shift_mm",
        [(0.0, 0.0, 0.0), (35.0, 2.0, 0.0), (60.0, 0.0, 0.0), (71.0, 3.0, 0.0), (0.0, 0.0, 69.0)],
        ids=["flat-sharp", "35-blurred", "60-groups-merge", "71-blurred-groups-merge",
             "junction-at-frame-border"],
    )
    def test_equals_whole_crop_filter(
        self, quad_spec, small_camera, small_colors, params, monkeypatch,
        angle_deg, blur, shift_mm,
    ):
        scene = scene_at(quad_spec, small_camera, 330.0, angle_deg, 3.0, blur_sigma=blur)
        pose = scene.pose
        scene = replace(scene, pose=PointerPose(
            tip=pose.tip + (shift_mm, 0.0, 0.0), direction=pose.direction))
        img, _ = synthetic.render(scene, small_camera, SIZE_SMALL)
        ((x0, _), halo, filtered, ys, xs), kernel = _frame_junction_images(
            img, small_colors, quad_spec, params, monkeypatch
        )
        whole = convolve_unit_sum(halo, kernel) >= BINARIZE_THRESHOLD
        assert np.array_equal(filtered, whole)
        half = kernel.shape[0] // 2
        groups = len(list(_halo_groups(ys, xs, halo.shape, half)))
        if angle_deg >= 60.0:
            # foreshortened junctions lie within the kernel's reach of each other
            assert groups < len(connected_components(halo))
        if shift_mm:
            # the crop ends at the frame's right edge, inside a group's reach
            assert x0 + halo.shape[1] == SIZE_SMALL[0] and halo[:, -half:].any()

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(-np.pi / 2, np.pi / 2),
        st.sampled_from([3, 5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_groups_partition_the_halo_and_sum_to_the_whole_filter(self, seed, phi, sigma_d):
        # a kernel of half-width h: halo pixels 2h apart still share an
        # output pixel, and a box short by one misses the kernel's rim
        rng = np.random.default_rng(seed)
        halo = rng.random(tuple(rng.integers(5, 80, 2))) < rng.uniform(0.002, 0.05)
        kernel = _orientation_kernel(phi, sigma_d)
        summed = np.zeros(halo.shape)
        covered = np.zeros_like(halo)
        for box, group in _halo_groups(*np.nonzero(halo), halo.shape, kernel.shape[0] // 2):
            assert not (covered[box] & group).any()
            covered[box] |= group
            summed[box] += convolve_unit_sum(group, kernel)
        assert np.array_equal(covered, halo)
        np.testing.assert_allclose(summed, convolve_unit_sum(halo, kernel), rtol=0, atol=1e-12)

    @given(_random_halos(), st.integers(0, 4))
    @example(np.zeros((7, 9), dtype=bool), 2)
    @example(np.eye(6, dtype=bool), 0)
    @settings(max_examples=200, deadline=None)
    def test_groups_equal_the_dilated_components(self, halo, half):
        # a coarser or finer grouping still partitions the halo, but moves
        # the FFT boxes and so the round-off of I_b2
        got = _halo_groups(*np.nonzero(halo), halo.shape, half)
        assert _group_sets(got) == _group_sets(_halo_groups_reference(halo, half))


class TestIsotropicHalo:
    """A halo with no dominant direction, a square ring between a red
    square and a green square frame, takes the orientation kernel's angle
    from the fallback axis: across it, folded into [-pi/2, pi/2)."""

    @pytest.mark.parametrize("angle", [0.0, 0.4, -1.2, np.pi / 2])
    def test_phi_across_fallback_axis(self, params, monkeypatch, angle):
        ys, xs = np.mgrid[12:38, 12:38]
        frame = (np.abs(xs - 24.5) > 9) | (np.abs(ys - 24.5) > 9)
        regions = [
            region_from_rect(20, 20, 10, 10, label=RED),
            Region(pixels=np.column_stack([xs[frame], ys[frame]]), label=GREEN),
        ]
        phis = []

        def recorded_kernel(phi, sigma_d):
            phis.append(phi)
            return _orientation_kernel(phi, sigma_d)

        monkeypatch.setattr(detection, "_orientation_kernel", recorded_kernel)
        axis = Line2D(np.zeros(2), np.array([np.cos(angle), np.sin(angle)]))
        _, halo, *_ = _junction_images(regions, ADJ_RG, params, (50, 50), axis)
        evals, _ = principal_axes(np.argwhere(halo).astype(np.float64))
        assert evals[0] - evals[1] <= 0.01 * evals[0]  # the isotropic branch
        across = np.arctan2(axis.direction[1], axis.direction[0]) + np.pi / 2.0
        assert phis == [pytest.approx(np.mod(across + np.pi / 2.0, np.pi) - np.pi / 2.0)]
        assert abs(np.cos(phis[0] - angle)) < 1e-12  # perpendicular to the axis


def _benchmark_sized_frame(setup, depth_mm, tilt_deg, blur_sigma=0.0):
    """A frame of the benchmark_setup fixture's camera (1224x1024,
    f = 1800 px, 3 mm pointer, roll 4 deg), with its pointer spec and
    calibrated colors."""
    size, camera, spec, colors = setup
    img, _ = synthetic.render(
        scene_at(spec, camera, depth_mm, tilt_deg, 4.0, blur_sigma=blur_sigma), camera, size
    )
    return img, spec, colors


class TestPassOneLatticeOnRenderedFrames:
    """Pass 1 classifies only the window of its gate's lattice hits; on
    benchmark-sized frames its regions equal the whole-frame reference's,
    pixel for pixel and in order."""

    @pytest.mark.parametrize("tilt_deg", [0.0, 35.5, 71.0])
    @pytest.mark.parametrize("blur_sigma", [0.0, 1.5], ids=["sharp", "blurred"])
    def test_regions_equal_whole_frame_reference(self, benchmark_setup, tilt_deg, blur_sigma):
        img, spec, colors = _benchmark_sized_frame(benchmark_setup, 505.0, tilt_deg, blur_sigma)
        hs = rgb_to_hue_saturation(img)
        params = DetectionParams(**FIXTURE_PARAMS)
        adjacency = spec.adjacent_label_pairs()
        got = detect_band_regions(hs, colors, adjacency, params.s1, params.r1)
        want = _band_regions_reference(hs, colors, adjacency, params.s1, params.r1)
        assert got and [g.label for g in got] == [ref.label for ref in want]
        for g, ref in zip(got, want):
            np.testing.assert_array_equal(g.pixels, ref.pixels)
            np.testing.assert_array_equal(g.centroid, ref.centroid)


class TestJunctionMemory:
    """Peak memory of the junction images on a benchmark-sized frame at
    400 mm / 35.5 deg. Measured: 10.31 bytes per pixel of its 119k px
    crop (6.9 for the bool masks, their disk dilations, the halo and
    I_b2, the rest the float work over the largest group's box), against
    58 for one float64 FFT over the whole crop; a crop-sized int32 raster
    alone (14.3) breaks the bound."""

    def test_holds_no_crop_sized_float(self, benchmark_setup):
        img, spec, colors = _benchmark_sized_frame(benchmark_setup, 400.0, 35.5)
        size = (img.width, img.height)
        params = DetectionParams(**FIXTURE_PARAMS)
        _, line, pass2 = _two_passes(img, colors, spec, params)
        (_, halo, *_), peak = traced_peak(
            lambda: _junction_images(pass2, spec.adjacent_label_pairs(), params, size, line)
        )
        assert peak <= 12 * halo.size


class TestRegionPassMemory:
    """Peak memory of both region passes on a benchmark-sized frame at
    505 mm / 53.2 deg. Measured: 0.559 bytes per frame pixel for pass 1,
    most of it the float64 hue work on its 6.7k gated pixels, since its
    rasters span only the gate's lattice and the window of its hits (3%
    of this frame), and 0.425 for pass 2. A whole-frame raster breaks
    either bound: pass 1 read 1.37 with a whole-frame bool gate and its
    row block, and pass 2 read 2.36 with a whole-frame ROI raster."""

    def test_no_frame_sized_label_or_roi_raster(self, benchmark_setup):
        img, spec, colors = _benchmark_sized_frame(benchmark_setup, 505.0, 53.2)
        hs = rgb_to_hue_saturation(img)
        params = DetectionParams(**FIXTURE_PARAMS)
        adjacency = spec.adjacent_label_pairs()
        pass1, peak1 = traced_peak(
            lambda: detect_band_regions(hs, colors, adjacency, params.s1, params.r1, roi=None)
        )
        boxes = expand_bounding_boxes(ransac_centroid_line(pass1, params)[1])
        pass2, peak2 = traced_peak(
            lambda: detect_band_regions(hs, colors, adjacency, params.s2, params.r2, roi=boxes)
        )
        assert pass1 and pass2
        assert peak1 <= 0.75 * img.width * img.height
        assert peak2 <= 0.75 * img.width * img.height


def _extract_reference(regions, adjacency, params, size, fallback_axis):
    """Junction pairs as the stage found them with a crop-wide mask per
    label of I_b2 and lists of pairs: (line, [(t, p_a, p_b)]), raising the
    stage's errors."""
    origin, halo, filtered, *_ = _junction_images(regions, adjacency, params, size, fallback_axis)
    combined = halo & filtered
    if not combined.any():
        raise NoEdgesError("junction filter response below threshold everywhere")
    offset = np.array(origin, dtype=np.float64)
    ys, xs = np.nonzero(combined)
    if len(xs) < 2:
        raise NoEdgesError("one junction pixel defines no line")
    line1 = fit_line_tls(np.column_stack([xs, ys]).astype(np.float64) + offset)

    comp_labels, n_comp = ndimage.label(filtered, structure=np.ones((3, 3), dtype=int))
    raw = []
    for idx in range(1, n_comp + 1):
        sy, sx = np.nonzero((comp_labels == idx) & combined)
        if len(sy) == 0:
            continue
        perp = line1.perp_distance(np.column_stack([sx, sy]).astype(np.float64) + offset)
        hi, lo = int(np.argmax(perp)), int(np.argmin(perp))
        if perp[hi] > 0 and perp[lo] < 0:
            raw.append((_refine_subpixel(combined, sx[lo], sy[lo]) + offset,
                        _refine_subpixel(combined, sx[hi], sy[hi]) + offset))
    raw = [(a, b) for a, b in raw if np.linalg.norm(a - b) >= params.edge_halo]
    if len(raw) >= 2:
        u = line1.axis_coord(np.vstack([np.vstack(p) for p in raw]))
        mutual = []
        for k, pair in enumerate(raw):
            da = np.abs(u - u[2 * k])
            da[2 * k] = np.inf
            db = np.abs(u - u[2 * k + 1])
            db[2 * k + 1] = np.inf
            if int(np.argmin(da)) == 2 * k + 1 and int(np.argmin(db)) == 2 * k:
                mutual.append(pair)
        raw = mutual
    seps = np.array([np.linalg.norm(a - b) for a, b in raw])
    if len(seps) >= 2 and seps.std() > 0:
        keep = np.abs(seps - seps.mean()) <= PAIR_SEPARATION_SIGMAS * seps.std()
        raw = [p for p, k in zip(raw, keep) if k]
    if len(raw) < 2:
        raise InsufficientEdgesError(f"{len(raw)} contour point pairs after filtering, need 2")
    line2 = fit_line_tls(np.array([0.5 * (a + b) for a, b in raw]))
    edges = [(float(line2.axis_coord(0.5 * (a + b))[0]), a, b) for a, b in raw]
    return line2, sorted(edges, key=lambda e: e[0])


def _strip_regions(seed):
    """Band-colored regions of a speckled, banded strip at a random angle
    in an 80x60 raster, the strip's axis and the raster's size."""
    rng = np.random.default_rng(seed)
    w, h = 80, 60
    center = rng.uniform((25, 20), (55, 40))
    angle = rng.uniform(0.0, np.pi)
    axis = np.array([np.cos(angle), np.sin(angle)])
    ys, xs = np.mgrid[0:h, 0:w]
    rel = np.stack([xs, ys], axis=-1) - center
    along = rel @ axis
    across = rel @ np.array([-axis[1], axis[0]])
    band = np.floor((along + rng.uniform(0, 20)) / rng.uniform(8.0, 20.0)).astype(int)
    inside = (np.abs(across) <= rng.uniform(2.0, 8.0)) & (np.abs(along) <= rng.uniform(12, 40))
    raster = np.where(inside, np.where(band % 2 == 0, RED, GREEN), 0)
    raster[rng.random((h, w)) < rng.uniform(0.0, 0.1)] = 0
    stray = rng.random((h, w)) < rng.uniform(0.0, 0.02)
    raster[stray] = rng.choice([RED, GREEN], size=int(stray.sum()))
    regions = []
    for label in (RED, GREEN):
        regions += connected_components(raster == label, label=label)
    return regions, Line2D(center, axis), (w, h)


def _label_reference(pairs, regions, line2):
    """Per-pair form of label_edge_pairs: each junction's normal from a
    Line2D through its two points, turned to point along the axis; the
    (left, right) labels of the pairs."""
    normals = []
    for ep in pairs:
        assert not coincident(ep.p_a, ep.p_b)
        jl = Line2D(ep.p_a, ep.p_b - ep.p_a)
        normal = np.array([-jl.direction[1], jl.direction[0]])
        normals.append(-normal if normal @ line2.direction < 0 else normal)
    pieces = []  # (cell, axis coordinate, label, area) per clipped region piece
    for reg in regions:
        pts = reg.pixels.astype(np.float64)
        d = line2.perp_distance(pts)
        if not ((d > 0).any() and (d < 0).any()):
            continue
        cell = sum(((pts - ep.midpoint) @ n > 0).astype(int) for ep, n in zip(pairs, normals))
        for value in np.unique(cell):
            sel = pts[cell == value]
            t = float(line2.axis_coord(sel.mean(axis=0))[0])
            pieces.append((value, t, reg.label, len(sel)))
    dominant = {}
    for cell, _, _, area in pieces:
        dominant[cell] = max(dominant.get(cell, 0), area)
    kept = [(t, label) for cell, t, label, area in pieces if area >= 0.25 * dominant[cell]]
    labels = []
    for ep in pairs:
        below = [p for p in kept if p[0] < ep.axis_coordinate]
        above = [p for p in kept if p[0] > ep.axis_coordinate]
        left = max(below, key=lambda p: p[0])[1] if below else None
        right = min(above, key=lambda p: p[0])[1] if above else None
        labels.append((None, None) if left is not None and left == right else (left, right))
    return tuple(labels)


class TestExtractEdgePairsEquivalence:
    """extract_edge_pairs, over component pixel lists and one pair array,
    keeps the bits of the per-label-mask reference, and label_edge_pairs,
    with its junction normals as one array, labels those pairs as the
    per-pair reference does."""

    def assert_same(self, regions, params, size, fallback):
        """The pairs' (left, right) labels, if extraction finds pairs."""
        try:
            ref = _extract_reference(regions, ADJ_RG, params, size, fallback)
        except BandPointerError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                extract_edge_pairs(regions, ADJ_RG, params, size, fallback)
            return
        result = extract_edge_pairs(regions, ADJ_RG, params, size, fallback)
        line, edges = ref
        assert result.line.point.tobytes() == line.point.tobytes()
        assert result.line.direction.tobytes() == line.direction.tobytes()
        assert [(e.axis_coordinate, e.p_a.tobytes(), e.p_b.tobytes()) for e in result.edges] == [
            (t, a.tobytes(), b.tobytes()) for t, a, b in edges
        ]
        labeled = label_edge_pairs(result.edges, regions, result.line)
        # the pairs come through in their order, only labeled
        assert all(r.p_a is e.p_a and r.p_b is e.p_b
                   for r, e in zip(labeled.edges, result.edges, strict=True))
        assert labeled.side_labels == _label_reference(result.edges, regions, result.line)
        return labeled.side_labels

    @pytest.mark.parametrize("angle_deg, blur", [(0.0, 0.0), (35.0, 2.0), (60.0, 0.0), (71.0, 3.0)])
    def test_quad_scenes(self, quad_spec, small_camera, small_colors, params, angle_deg, blur):
        scene = scene_at(quad_spec, small_camera, 330.0, angle_deg, 3.0, blur_sigma=blur)
        img, _ = synthetic.render(scene, small_camera, SIZE_SMALL)
        hs = rgb_to_hue_saturation(img)
        adj = quad_spec.adjacent_label_pairs()
        assert adj == ADJ_RG
        regions = detect_band_regions(hs, small_colors, adj, params.s2, params.r2)
        line, surviving = ransac_centroid_line(regions, params)
        labels = self.assert_same(surviving, params, SIZE_SMALL, line)
        assert sum(left is not None for left, _ in labels) >= 2  # labels to compare

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_random_rasters(self, seed, r2):
        regions, fallback, size = _strip_regions(seed)
        if not regions:
            return
        params = DetectionParams(r1=r2 + 1, r2=r2)
        self.assert_same(regions, params, size, fallback)


def make_pair(t, y_split=5.0):
    return EdgePointPair(
        p_a=np.array([t, -y_split]),
        p_b=np.array([t, y_split]),
        axis_coordinate=t,
    )


class TestLabelEdgePairs:
    def line(self):
        return Line2D(np.array([0.0, 0.0]), np.array([1.0, 0.0]))

    def band_region(self, x0, x1, label):
        return region_from_rect(x0, -4, x1 - x0, 9, label=label)

    def test_alternating_labels(self):
        regions = [
            self.band_region(0, 20, RED),
            self.band_region(21, 40, GREEN),
            self.band_region(41, 60, RED),
            self.band_region(61, 80, GREEN),
        ]
        pairs = [make_pair(20.5), make_pair(40.5), make_pair(60.5)]
        result = label_edge_pairs(pairs, regions, self.line())
        assert result.side_labels == ((RED, GREEN), (GREEN, RED), (RED, GREEN))

    def test_terminal_junction_undefined_outside(self):
        regions = [self.band_region(0, 20, RED)]
        pairs = [make_pair(20.5)]
        result = label_edge_pairs(pairs, regions, self.line())
        assert result.edges[0].left_label == RED
        assert result.edges[0].right_label is None

    def test_region_not_crossing_line_excluded(self):
        regions = [
            self.band_region(0, 20, RED),
            # fully above the axis line: does not cross it
            region_from_rect(22, 3, 18, 6, label=GREEN),
        ]
        pairs = [make_pair(20.5)]
        result = label_edge_pairs(pairs, regions, self.line())
        assert result.edges[0].right_label is None

    def test_equal_side_labels_become_undefined(self):
        regions = [
            self.band_region(0, 20, RED),
            self.band_region(21, 40, RED),
        ]
        pairs = [make_pair(20.5)]
        result = label_edge_pairs(pairs, regions, self.line())
        assert result.edges[0].left_label is None
        assert result.edges[0].right_label is None


class TestDetectPointer:
    def test_full_camera_parallel(
        self, skewer_spec, full_colors, camera_full
    ):
        params = DetectionParams(**FIXTURE_PARAMS)
        scene = scene_at(skewer_spec, camera_full, 500.0, 0.0, 4.0)
        img, gt = synthetic.render(scene, camera_full, SIZE_FULL)
        result = detect_pointer(img, full_colors, skewer_spec, params)
        assert len(result.edges) == 10

    def test_full_camera_steep_angle(
        self, skewer_spec, full_colors, camera_full
    ):
        params = DetectionParams(**FIXTURE_PARAMS)
        scene = scene_at(skewer_spec, camera_full, 500.0, 71.0, 4.0)
        img, gt = synthetic.render(scene, camera_full, SIZE_FULL)
        result = detect_pointer(img, full_colors, skewer_spec, params)
        assert len(result.edges) >= 6

    def test_distractor_only_not_found(
        self, quad_spec, small_colors, small_camera, params
    ):
        px = np.full((SIZE_SMALL[1], SIZE_SMALL[0], 3), 0.45)
        # skin-toned blob, hue ~0.5 rad: nowhere near both band hues
        px[200:260, 200:280] = (0.85, 0.55, 0.35)
        img = RasterImage(px)
        with pytest.raises(PointerNotFoundError):
            detect_pointer(img, small_colors, quad_spec, params)

    def test_ransac_seed_has_no_effect(self, quad_spec, small_colors, small_camera):
        scene = scene_at(quad_spec, small_camera, 330.0, 10.0, 6.0)
        img, _ = synthetic.render(scene, small_camera, SIZE_SMALL)
        seeded = [DetectionParams(**{**FIXTURE_PARAMS, "ransac_seed": seed}) for seed in (0, 7)]
        base, other = (detect_pointer(img, small_colors, quad_spec, p) for p in seeded)
        assert len(base.edges) >= 2
        assert base.line.point.tobytes() == other.line.point.tobytes()
        assert base.line.direction.tobytes() == other.line.direction.tobytes()
        assert base.side_labels == other.side_labels
        for e0, e1 in zip(base.edges, other.edges, strict=True):
            assert e0.p_a.tobytes() == e1.p_a.tobytes()
            assert e0.p_b.tobytes() == e1.p_b.tobytes()
        base_pass2, other_pass2 = (_two_passes(img, small_colors, quad_spec, p)[2] for p in seeded)
        assert [r.pixels.tobytes() for r in base_pass2] == [
            r.pixels.tobytes() for r in other_pass2
        ]

    def test_translation_equivariance(
        self, quad_spec, small_colors, small_camera, params
    ):
        scene = scene_at(quad_spec, small_camera, 330.0, 10.0, 6.0)
        img, _ = synthetic.render(scene, small_camera, SIZE_SMALL)

        canvas = np.empty((SIZE_SMALL[1] + 40, SIZE_SMALL[0] + 40, 3))
        canvas[:] = np.asarray(scene.background)
        results = []
        for dx, dy in ((0, 0), (23, 11)):
            shifted = canvas.copy()
            shifted[dy : dy + SIZE_SMALL[1], dx : dx + SIZE_SMALL[0]] = img.pixels / 255.0
            res = detect_pointer(
                RasterImage(shifted), small_colors, quad_spec, params
            )
            results.append((res, (dx, dy)))
        (base, _), (moved, (dx, dy)) = results
        assert len(base.edges) == len(moved.edges)
        for e0, e1 in zip(base.edges, moved.edges):
            np.testing.assert_allclose(e1.p_a - e0.p_a, [dx, dy], atol=1e-9)
            np.testing.assert_allclose(e1.p_b - e0.p_b, [dx, dy], atol=1e-9)
