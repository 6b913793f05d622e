"""Tests for the two-pass band detector and junction pair extraction."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from conftest import (
    BAND_RGB,
    BLUE,
    FIXTURE_PARAMS,
    GREEN,
    RED,
    SIZE_FULL,
    SIZE_SMALL,
    pose_at,
)

from bandpointer import detection, synthetic
from bandpointer.color_model import ColorClassSet, HueKde, classify_image_masked
from bandpointer.detection import (
    PAIR_SEPARATION_SIGMAS,
    DetectionParams,
    EdgePointPair,
    _junction_images,
    _orientation_kernel,
    _refine_subpixel,
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
from bandpointer.geometry import Line2D, OrientedBox, boxes_mask, fit_line_tls, line_through
from bandpointer.imaging import (
    RasterImage,
    Region,
    connected_components,
    erode_disk,
    rgb_to_hue_saturation,
)


@pytest.fixture
def params():
    return DetectionParams(**FIXTURE_PARAMS)


def hs_of(pixels):
    return rgb_to_hue_saturation(RasterImage(pixels))


@pytest.fixture
def rg_colors():
    """Narrow single-sample KDEs at the fixture band hues."""
    def kde(hue):
        return HueKde(samples=np.array([hue]), bandwidths=np.array([0.08]))
    return ColorClassSet(classes=((RED, kde(0.798)), (GREEN, kde(1.294))))


ADJ_RG = {frozenset((RED, GREEN))}


class TestDetectBandRegions:
    def test_blank_image(self, rg_colors, params):
        px = np.full((64, 64, 3), 0.45)
        regions = detect_band_regions(hs_of(px), rg_colors, ADJ_RG, 0.25, 2)
        assert regions == []

    def test_two_band_cylinder(self, rg_colors, params):
        px = np.full((64, 96, 3), 0.45)
        px[26:38, 8:48] = BAND_RGB[RED]
        px[26:38, 48:88] = BAND_RGB[GREEN]
        regions = detect_band_regions(hs_of(px), rg_colors, ADJ_RG, 0.25, 2)
        assert sorted(r.label for r in regions) == [RED, GREEN]

    def test_isolated_blob_removed_by_adjacency(self, rg_colors, params):
        px = np.full((100, 180, 3), 0.45)
        px[26:38, 8:48] = BAND_RGB[RED]
        px[26:38, 48:88] = BAND_RGB[GREEN]
        # same color, far beyond the adjacency distance of 2*2+4
        px[70:90, 150:170] = BAND_RGB[RED]
        regions = detect_band_regions(hs_of(px), rg_colors, ADJ_RG, 0.25, 2)
        assert sorted(r.label for r in regions) == [RED, GREEN]
        for reg in regions:
            assert reg.centroid[1] < 50

    def test_roi_restricts_classification(self, rg_colors, params):
        from bandpointer.geometry import OrientedBox

        px = np.full((64, 96, 3), 0.45)
        px[26:38, 8:48] = BAND_RGB[RED]
        px[26:38, 48:88] = BAND_RGB[GREEN]
        far_box = [OrientedBox(
            center=np.array([10.0, 55.0]),
            axes=np.eye(2),
            half_extents=np.array([6.0, 6.0]),
        )]
        regions = detect_band_regions(
            hs_of(px), rg_colors, ADJ_RG, 0.25, 2, roi=far_box
        )
        assert regions == []


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
    """Whole-frame form of detect_band_regions: per label a full-frame
    mask, its whole-frame erosion and labeling, and adjacency distances
    from masks rebuilt out of the region pixels."""
    roi_mask = boxes_mask(roi, hs.width, hs.height) if roi is not None else None
    labels_raster = classify_image_masked(colors, hs, s, roi_mask)
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


class TestBandRegionsWindow:
    """Erosion, labeling and adjacency in the classified pixels' box give
    the whole frame's regions, in its order."""

    @given(
        st.integers(0, 10_000),
        st.integers(3, 6),
        st.integers(1, 3),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_whole_frame_reference(self, seed, cell, r, with_roi):
        rng = np.random.default_rng(seed)
        # a mosaic of pure-color cells: classified pixels reach the frame's
        # border, BLUE is never painted, and the unclassified background
        # keeps some cells beyond the adjacency distance
        grid = rng.choice([0, RED, GREEN], size=(rng.integers(3, 13), rng.integers(3, 13)),
                          p=[0.6, 0.2, 0.2])
        grid = np.kron(grid, np.ones((cell, cell), dtype=int))
        px = np.full(grid.shape + (3,), 0.45)
        for label in (RED, GREEN):
            px[grid == label] = BAND_RGB[label]
        hs = hs_of(px)
        def kde(hue):
            return HueKde(samples=np.array([hue]), bandwidths=np.array([0.08]))
        colors = ColorClassSet(classes=((RED, kde(0.798)), (GREEN, kde(1.294)),
                                        (BLUE, kde(2.09))))
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
        try:
            line = line_through(centroids[i], centroids[j])
        except DegenerateSampleError:
            continue
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
        # too close for line_through, so that pair is skipped, and the first
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
        # close for line_through, so such pairs are skipped
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


class TestExpandBoundingBoxes:
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
    pose = pose_at(330.0, 0.0, small_camera, quad_spec, roll_deg=3.0)
    scene = synthetic.SceneSpec(pose=pose, spec=quad_spec, band_colors=BAND_RGB)
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
        from conftest import QUAD_BANDS, QUAD_DISTANCES, build_spec, make_calibrated_colors

        spec = build_spec(QUAD_DISTANCES, QUAD_BANDS, 100.0, radius=4.0)
        colors = make_calibrated_colors(spec, small_camera, SIZE_SMALL)
        pose = pose_at(330.0, 0.0, small_camera, spec, roll_deg=3.0)
        base = synthetic.SceneSpec(pose=pose, spec=spec, band_colors=BAND_RGB)
        highlighted = synthetic.SceneSpec(
            pose=pose,
            spec=spec,
            band_colors=BAND_RGB,
            highlights=(
                synthetic.HighlightStripe(
                    53.0, 57.0, 0.92, side_fraction=(-0.3, 0.1)
                ),
            ),
        )
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
        (x0, y0), halo, filtered = _junction_images(surviving, adj, params, SIZE_SMALL, line)
        assert halo.shape == filtered.shape
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
        seps = np.array([edge.separation for edge in result.edges])
        assert (seps >= e).all()
        mu, sd = seps.mean(), seps.std()
        if sd > 0:
            assert (np.abs(seps - mu) <= PAIR_SEPARATION_SIGMAS * sd).all()

    def test_pass2_regions_inside_pass1_boxes(
        self, quad_scene, quad_spec, small_colors, params
    ):
        scene, img, gt = quad_scene
        result = detect_pointer(img, small_colors, quad_spec, params)
        boxes = expand_bounding_boxes(result.pass1_regions)
        for reg in result.pass2_regions:
            pts = reg.pixels.astype(np.float64)
            inside = np.zeros(len(pts), dtype=bool)
            for box in boxes:
                inside |= box.contains(pts)
            assert inside.all()



def _extract_reference(regions, adjacency, params, size, fallback_axis):
    """Junction pairs as the stage found them with a crop-wide mask per
    label of I_b2 and lists of pairs: (line, [(t, p_a, p_b)]), raising the
    stage's errors."""
    origin, halo, filtered = _junction_images(regions, adjacency, params, size, fallback_axis)
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
    in an 80x60 raster, and the strip's axis (None for every third seed)."""
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
        for reg in connected_components(raster == label):
            reg.label = label
            regions.append(reg)
    fallback = None if seed % 3 == 0 else Line2D(center, axis)
    return regions, fallback, (w, h)


class TestExtractEdgePairsEquivalence:
    """extract_edge_pairs, over component pixel lists and one pair array,
    keeps the bits of the per-label-mask reference."""

    def assert_same(self, regions, params, size, fallback):
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

    @pytest.mark.parametrize("angle_deg, blur", [(0.0, 0.0), (35.0, 2.0), (60.0, 0.0), (71.0, 3.0)])
    def test_quad_scenes(self, quad_spec, small_camera, small_colors, params, angle_deg, blur):
        pose = pose_at(330.0, angle_deg, small_camera, quad_spec, roll_deg=3.0)
        scene = synthetic.SceneSpec(
            pose=pose, spec=quad_spec, band_colors=BAND_RGB, blur_sigma=blur
        )
        img, _ = synthetic.render(scene, small_camera, SIZE_SMALL)
        hs = rgb_to_hue_saturation(img)
        adj = quad_spec.adjacent_label_pairs()
        assert adj == ADJ_RG
        regions = detect_band_regions(hs, small_colors, adj, params.s2, params.r2)
        line, surviving = ransac_centroid_line(regions, params)
        self.assert_same(surviving, params, SIZE_SMALL, line)

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
        labels = [(e.left_label, e.right_label) for e in result.edges]
        assert labels == [(RED, GREEN), (GREEN, RED), (RED, GREEN)]

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
        pose = pose_at(500.0, 0.0, camera_full, skewer_spec, roll_deg=4.0)
        scene = synthetic.SceneSpec(
            pose=pose, spec=skewer_spec, band_colors=BAND_RGB
        )
        img, gt = synthetic.render(scene, camera_full, SIZE_FULL)
        result = detect_pointer(img, full_colors, skewer_spec, params)
        assert len(result.edges) == 10

    def test_full_camera_steep_angle(
        self, skewer_spec, full_colors, camera_full
    ):
        params = DetectionParams(**FIXTURE_PARAMS)
        pose = pose_at(500.0, 71.0, camera_full, skewer_spec, roll_deg=4.0)
        scene = synthetic.SceneSpec(
            pose=pose, spec=skewer_spec, band_colors=BAND_RGB
        )
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
        pose = pose_at(330.0, 10.0, small_camera, quad_spec, roll_deg=6.0)
        scene = synthetic.SceneSpec(pose=pose, spec=quad_spec, band_colors=BAND_RGB)
        img, _ = synthetic.render(scene, small_camera, SIZE_SMALL)
        results = [
            detect_pointer(img, small_colors, quad_spec,
                           DetectionParams(**{**FIXTURE_PARAMS, "ransac_seed": seed}))
            for seed in (0, 7)
        ]
        base, other = results
        assert len(base.edges) >= 2
        assert base.line.point.tobytes() == other.line.point.tobytes()
        assert base.line.direction.tobytes() == other.line.direction.tobytes()
        for e0, e1 in zip(base.edges, other.edges, strict=True):
            assert e0.p_a.tobytes() == e1.p_a.tobytes()
            assert e0.p_b.tobytes() == e1.p_b.tobytes()
            assert (e0.left_label, e0.right_label) == (e1.left_label, e1.right_label)
        assert [r.pixels.tobytes() for r in base.pass2_regions] == [
            r.pixels.tobytes() for r in other.pass2_regions
        ]

    def test_translation_equivariance(
        self, quad_spec, small_colors, small_camera, params
    ):
        pose = pose_at(330.0, 10.0, small_camera, quad_spec, roll_deg=6.0)
        scene = synthetic.SceneSpec(
            pose=pose, spec=quad_spec, band_colors=BAND_RGB
        )
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
