"""Tests for the ground-truth renderer and scene sweeps."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from conftest import BAND_RGB, GREEN, RED, SIZE_SMALL, build_spec, quantize, scene_at

from bandpointer import synthetic
from bandpointer.cli import _associate_and_pose
from bandpointer.errors import BehindCameraError
from bandpointer.geometry import pixel_box
from bandpointer.imaging import DistortionModel, RasterImage
from bandpointer.pose import CameraModel, PointerPose, project_pointer_edges


@pytest.fixture(scope="module")
def tilted_camera():
    """Nontrivial extrinsics so the two projection paths can disagree."""
    angle = np.deg2rad(8.0)
    R = np.array([
        [np.cos(angle), 0.0, np.sin(angle)],
        [0.0, 1.0, 0.0],
        [-np.sin(angle), 0.0, np.cos(angle)],
    ])
    K = np.array([[1000.0, 0.0, 305.5], [0.0, 1000.0, 255.5], [0.0, 0.0, 1.0]])
    return CameraModel(K=K, R=R, t=np.array([12.0, -8.0, 30.0]))


class TestGroundTruth:
    def test_matches_pose_projector_within_1e9(self, tilted_camera, quad_spec):
        lens = replace(
            tilted_camera, distortion=DistortionModel(k1=-0.1, k2=0.02, p1=1e-3, p2=-5e-4)
        )
        for camera in (tilted_camera, lens):
            scene = scene_at(quad_spec, camera, 330.0, 10.0, 5.0)
            gt = synthetic.ground_truth(scene, camera, SIZE_SMALL)
            ideal = project_pointer_edges(scene.pose, camera, quad_spec)
            pairs = camera.distort(ideal.reshape(-1, 2)).reshape(-1, 2, 2)
            for edge, (lo, hi) in zip(gt.edges, pairs):
                assert np.linalg.norm(edge.p_a - lo) < 1e-9
                assert np.linalg.norm(edge.p_b - hi) < 1e-9
        # the lens moves the points far beyond the tolerance, so the second
        # pass checked the distortion too
        assert np.linalg.norm(pairs - ideal) > 0.05

    def test_behind_camera_raises(self, tilted_camera, quad_spec):
        pose = PointerPose(tip=[0.0, 0.0, -400.0], direction=[1.0, 0.0, 0.0])
        scene = synthetic.SceneSpec(pose=pose, spec=quad_spec, band_colors=BAND_RGB)
        with pytest.raises(BehindCameraError):
            synthetic.render(scene, tilted_camera, SIZE_SMALL)

    def test_occluder_flags(self, small_camera, quad_spec):
        scene = scene_at(quad_spec, small_camera, 330.0, 0.0, 5.0)
        gt_clear = synthetic.ground_truth(scene, small_camera, SIZE_SMALL)
        # occlude the second junction only
        e1 = gt_clear.edges[1]
        lo_x = min(e1.p_a[0], e1.p_b[0]) - 8
        hi_x = max(e1.p_a[0], e1.p_b[0]) + 8
        lo_y = min(e1.p_a[1], e1.p_b[1]) - 8
        hi_y = max(e1.p_a[1], e1.p_b[1]) + 8
        occluded_scene = replace(scene, occluders=(synthetic.Occluder(lo_x, lo_y, hi_x, hi_y),))
        gt = synthetic.ground_truth(occluded_scene, small_camera, SIZE_SMALL)
        assert [e.visible for e in gt.edges] == [True, False, True]

    def test_partially_covered_edge_stays_visible(self, small_camera, quad_spec):
        scene = scene_at(quad_spec, small_camera, 330.0, 0.0, 5.0)
        gt_clear = synthetic.ground_truth(scene, small_camera, SIZE_SMALL)
        e1 = gt_clear.edges[1]
        # rectangle covering only one of the two contour points
        top = min(e1.p_a, e1.p_b, key=lambda p: p[1])
        occ = synthetic.Occluder(top[0] - 5, top[1] - 5, top[0] + 5, top[1] + 2)
        gt = synthetic.ground_truth(replace(scene, occluders=(occ,)), small_camera, SIZE_SMALL)
        assert gt.edges[1].visible  # both points must fall inside to occlude

    @pytest.mark.parametrize("corners", [(10.0, 0.0, 5.0, 5.0), (0.0, 10.0, 5.0, 5.0)])
    def test_inverted_occluder_rejected(self, corners):
        with pytest.raises(ValueError, match="x0 <= x1"):
            synthetic.Occluder(*corners)


class TestSceneValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(bare_color=(0.5, 1.2, 0.5)),
            dict(occluder_color=(-0.1, 0.3, 0.3)),
            dict(distractors=(synthetic.Distractor((80.0, 60.0), 10.0, (0.9, 0.2, 1.5)),)),
            dict(background=(0.5, float("nan"), 0.5)),
        ],
        ids=["bare", "occluder", "distractor", "nan-background"],
    )
    def test_unpaintable_color_rejected(self, quad_spec, kw):
        pose = PointerPose(tip=[0.0, 0.0, 300.0], direction=[1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="colors must lie in"):
            synthetic.SceneSpec(pose=pose, spec=quad_spec, band_colors=BAND_RGB, **kw)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(start_mm=30.0, end_mm=20.0),
            dict(desaturation=-0.1),
            dict(desaturation=1.5),
            dict(desaturation=float("nan")),
            dict(side_fraction=(-1.5, 0.0)),
            dict(side_fraction=(0.0, 1.01)),
            dict(side_fraction=(0.5, 0.2)),
        ],
        ids=["reversed-range", "negative-desat", "desat-above-one", "nan-desat",
             "fraction-below-minus-one", "fraction-above-one", "fraction-lo-above-hi"],
    )
    def test_bad_highlight_rejected(self, kw):
        with pytest.raises(ValueError, match="^highlight"):
            synthetic.HighlightStripe(**(dict(start_mm=20.0, end_mm=30.0, desaturation=0.5) | kw))

    @pytest.mark.parametrize(
        "blur", [float("nan"), float("inf"), -0.5], ids=["nan", "infinite", "negative"]
    )
    def test_bad_blur_rejected(self, quad_spec, blur):
        pose = PointerPose(tip=[0.0, 0.0, 300.0], direction=[1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="^blur_sigma must be finite and >= 0"):
            synthetic.SceneSpec(pose=pose, spec=quad_spec, band_colors=BAND_RGB, blur_sigma=blur)

    @pytest.mark.parametrize(
        "center, radius, field",
        [
            ((float("nan"), 60.0), 10.0, "center"),
            ((80.0, float("inf")), 10.0, "center"),
            ((80.0, 60.0), -1.0, "radius_px"),
            ((80.0, 60.0), float("nan"), "radius_px"),
            ((80.0, 60.0), float("inf"), "radius_px"),
        ],
        ids=["nan-center", "infinite-center", "negative-radius", "nan-radius",
             "infinite-radius"],
    )
    def test_bad_distractor_rejected(self, center, radius, field):
        with pytest.raises(ValueError, match=f"^distractor {field} must be finite"):
            synthetic.Distractor(center, radius, (0.9, 0.2, 0.2))

    @pytest.mark.parametrize(
        "corners, field",
        [
            ((float("-inf"), 0.0, 10.0, 10.0), "x0"),
            ((0.0, float("nan"), 10.0, 10.0), "y0"),
            ((0.0, 0.0, float("inf"), 10.0), "x1"),
            ((0.0, 0.0, 10.0, float("inf")), "y1"),
        ],
        ids=["infinite-x0", "nan-y0", "infinite-x1", "infinite-y1"],
    )
    def test_bad_occluder_rejected(self, corners, field):
        with pytest.raises(ValueError, match=f"^occluder {field} must be finite"):
            synthetic.Occluder(*corners)

    def test_zero_radius_distractor_accepted(self):
        synthetic.Distractor((80.0, 60.0), 0.0, (0.9, 0.2, 0.2))

    def test_highlight_bounds_accepted(self):
        synthetic.HighlightStripe(20.0, 20.0, 0.0, side_fraction=(-1.0, 1.0))
        synthetic.HighlightStripe(20.0, 30.0, 1.0, side_fraction=(0.3, 0.3))


class TestRender:
    def test_deterministic_bit_identical(self, tilted_camera, quad_spec):
        scene = scene_at(quad_spec, tilted_camera, 330.0, 10.0, 5.0, blur_sigma=1.5)
        img1, _ = synthetic.render(scene, tilted_camera, SIZE_SMALL)
        img2, _ = synthetic.render(scene, tilted_camera, SIZE_SMALL)
        assert np.array_equal(img1.pixels, img2.pixels)

    def test_peak_memory_below_one_float_frame(self, camera_small, quad_spec):
        # the frame is uint8 and floats live only in the crop around the
        # pointer, so the peak stays below a float64 RGB frame (7.5 MB)
        scene = scene_at(quad_spec, camera_small, 600.0, 40.0, 5.0, blur_sigma=1.5)
        tracemalloc.start()
        try:
            img, _ = synthetic.render(scene, camera_small, SIZE_SMALL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (img.pixels != quantize(scene.background)).any()
        assert peak < SIZE_SMALL[0] * SIZE_SMALL[1] * 3 * 8

    def test_vanishing_radius_degenerates_to_antialiased_line(self, small_camera):
        # limiting geometry: a sub-pixel radius leaves a thin blended line
        spec = build_spec(
            [25.0, 55.0, 78.0], [RED, GREEN, RED, GREEN], 100.0, radius=0.12
        )
        scene = scene_at(spec, small_camera, 330.0, 0.0, 5.0)
        img, gt = synthetic.render(scene, small_camera, SIZE_SMALL)
        diff = np.abs(img.pixels / 255.0 - np.asarray(scene.background)).max(axis=2)
        colored = diff > 0.02
        assert colored.any()
        ys, xs = np.nonzero(colored)
        # all colored pixels hug the projected axis segment
        p0 = gt.edges[0].p_a
        p1 = gt.edges[-1].p_a
        d = p1 - p0
        d = d / np.linalg.norm(d)
        dist = np.abs((ys - p0[1]) * d[0] - (xs - p0[0]) * d[1])
        assert dist.max() < 2.0
        # partial pixel coverage everywhere: blended, not solid color
        full = np.abs(
            np.asarray(BAND_RGB[RED]) - np.asarray(scene.background)
        ).max()
        assert diff.max() < 0.8 * full

    def test_band_colors_present(self, tilted_camera, quad_spec):
        scene = scene_at(quad_spec, tilted_camera, 330.0, 10.0, 5.0)
        img, gt = synthetic.render(scene, tilted_camera, SIZE_SMALL)
        mid01 = 0.5 * (gt.edges[0].p_a + gt.edges[0].p_b)
        mid12 = 0.5 * (gt.edges[1].p_a + gt.edges[1].p_b)
        probe_red = (0.55 * mid01 + 0.45 * mid12).astype(int)
        sample = img.pixels[probe_red[1], probe_red[0]] / 255.0
        assert np.linalg.norm(sample - BAND_RGB[GREEN]) < 0.1

    def test_distractor_drawn(self, tilted_camera, quad_spec):
        scene = scene_at(
            quad_spec, tilted_camera, 330.0, 10.0, 5.0,
            distractors=(synthetic.Distractor((80.0, 60.0), 10.0, (0.9, 0.2, 0.2)),),
        )
        img, _ = synthetic.render(scene, tilted_camera, SIZE_SMALL)
        assert np.array_equal(img.pixels[60, 80], quantize((0.9, 0.2, 0.2)))


class TestCompositing:
    """Bands cover distractors; distractors and background fill the rest;
    highlights whiten only the pointer."""

    DISC_RGB = (0.2, 0.3, 0.9)

    def _scenes(self, spec, camera, center):
        plain = scene_at(spec, camera, 330.0, 0.0, 5.0)
        disc = synthetic.Distractor(tuple(center), 10.0, self.DISC_RGB)
        return plain, replace(plain, distractors=(disc,))

    def _junction_disc(self, spec, camera):
        gt = synthetic.ground_truth(scene_at(spec, camera, 330.0, 0.0, 5.0), camera, SIZE_SMALL)
        return self._scenes(spec, camera, 0.5 * (gt.edges[1].p_a + gt.edges[1].p_b))

    def test_distractor_on_junction_paints_background_only(self, quad_spec, small_camera):
        plain, scene = self._junction_disc(quad_spec, small_camera)
        center = np.asarray(scene.distractors[0].center)
        img_plain, _ = synthetic.render(plain, small_camera, SIZE_SMALL)
        img, _ = synthetic.render(scene, small_camera, SIZE_SMALL)
        mask = synthetic.render_class_mask(plain, small_camera, SIZE_SMALL)
        ys, xs = np.mgrid[: SIZE_SMALL[1], : SIZE_SMALL[0]]
        # every subpixel center of these pixels lies inside the disc
        in_disc = np.hypot(xs - center[0], ys - center[1]) <= 10.0 - 1.0
        # fully band-covered pixels keep their band color
        covered = in_disc & (mask > 0)
        assert covered.sum() > 20
        assert np.array_equal(img.pixels[covered], img_plain.pixels[covered])
        # pixels no ray of which hits the pointer take the distractor color
        # (one band subpixel moves a pixel many 8-bit steps off the background)
        off = in_disc & (img_plain.pixels == quantize(plain.background)).all(axis=2)
        assert off.sum() > 20
        assert (img.pixels[off] == quantize(self.DISC_RGB)).all()

    def test_class_mask_ignores_distractor(self, quad_spec, small_camera):
        plain, scene = self._junction_disc(quad_spec, small_camera)
        mask = synthetic.render_class_mask(scene, small_camera, SIZE_SMALL)
        assert np.array_equal(mask, synthetic.render_class_mask(plain, small_camera, SIZE_SMALL))
        # and every pixel it labels shows its band's color in the render
        img, _ = synthetic.render(scene, small_camera, SIZE_SMALL)
        for label in (RED, GREEN):
            assert (mask == label).any()
            assert (img.pixels[mask == label] == quantize(BAND_RGB[label])).all()

    def test_side_highlight_whitens_only_the_pointer(self, quad_spec, small_camera):
        # a stripe along one side of band 1, under a disc on the same band
        gt = synthetic.ground_truth(
            scene_at(quad_spec, small_camera, 330.0, 0.0, 5.0), small_camera, SIZE_SMALL
        )
        mids = [0.5 * (e.p_a + e.p_b) for e in gt.edges]
        center = 0.5 * (mids[0] + mids[1])
        _, scene = self._scenes(quad_spec, small_camera, center)
        stripe = synthetic.HighlightStripe(25.0, 55.0, 0.5, side_fraction=(0.2, 0.8))
        img, _ = synthetic.render(scene, small_camera, SIZE_SMALL)
        lit, _ = synthetic.render(replace(scene, highlights=(stripe,)), small_camera, SIZE_SMALL)
        mask = synthetic.render_class_mask(scene, small_camera, SIZE_SMALL)
        img_plain, _ = synthetic.render(replace(scene, distractors=()), small_camera, SIZE_SMALL)
        on_pointer = (img_plain.pixels != quantize(scene.background)).any(axis=2)
        changed = (lit.pixels != img.pixels).any(axis=2)
        assert changed.any()
        assert not (changed & ~on_pointer).any()
        # a fully band-covered pixel moves from its band color toward white,
        # also under the disc: one step t > 0 in every channel, where each
        # 8-bit channel q bounds its t by the value interval (q -+ 0.5) / 255
        band = mask == GREEN
        assert (changed & band).sum() > 20
        ys, xs = np.nonzero(changed & band)
        assert (np.hypot(xs - center[0], ys - center[1]) < 10.0 - 1.0).sum() > 5
        base = np.asarray(BAND_RGB[GREEN])
        q = lit.pixels[changed & band].astype(np.float64)
        t_lo = ((q - 0.5) / 255.0 - base) / (1.0 - base)
        t_hi = ((q + 0.5) / 255.0 - base) / (1.0 - base)
        assert (t_lo.max(axis=1) <= t_hi.min(axis=1)).all()
        assert (t_hi.min(axis=1) > 0).all()


class TestSideFraction:
    """A stripe's side fraction is the offset from the silhouette pair's
    midpoint along p_a - p_b over half the pair length."""

    @pytest.fixture(scope="class")
    def cameras(self, tilted_camera):
        lens = DistortionModel(k1=-0.1, k2=0.02, p1=1e-3, p2=-5e-4)
        return tilted_camera, replace(tilted_camera, distortion=lens)

    @pytest.mark.parametrize("angle, roll", [(10.0, 5.0), (40.0, -30.0), (65.0, 120.0)])
    def test_junction_points_read_plus_minus_one(self, cameras, quad_spec, angle, roll):
        for camera in cameras:
            scene = scene_at(quad_spec, camera, 330.0, angle, roll)
            gt = synthetic.ground_truth(scene, camera, SIZE_SMALL)
            assert len(gt.visible_edges()) == 3
            for edge in gt.visible_edges():
                s = np.full(3, quad_spec.distances_mm[edge.index])
                pts = np.vstack([edge.p_a, edge.p_b, 0.5 * (edge.p_a + edge.p_b)])
                frac = synthetic._side_fraction(scene, camera, s, pts)
                np.testing.assert_allclose(frac, [1.0, -1.0, 0.0], rtol=0, atol=1e-9)

    def test_half_stripe_lights_only_its_side(self, cameras, quad_spec):
        for camera in cameras:
            scene = scene_at(quad_spec, camera, 330.0, 30.0, 5.0)
            img, gt = synthetic.render(scene, camera, SIZE_SMALL)
            for edge in gt.edges:
                d = quad_spec.distances_mm[edge.index]
                across = edge.p_a - edge.p_b
                half = 0.5 * np.linalg.norm(across)
                mid = 0.5 * (edge.p_a + edge.p_b)
                # (0, 1) is the p_a side, (-1, 0) the p_b side
                for sign, side in ((1.0, (0.0, 1.0)), (-1.0, (-1.0, 0.0))):
                    stripe = synthetic.HighlightStripe(d - 0.5, d + 0.5, 1.0, side_fraction=side)
                    lit, _ = synthetic.render(replace(scene, highlights=(stripe,)), camera, SIZE_SMALL)
                    ys, xs = np.nonzero((lit.pixels != img.pixels).any(axis=2))
                    offset = sign * (np.column_stack([xs, ys]) - mid) @ across / (2.0 * half)
                    assert len(offset) > 5
                    # a pixel changes when one of its subpixels is lit, and
                    # subpixel centres lie within 0.53 px of the pixel centre
                    assert offset.min() > -0.6
                    assert offset.max() > 0.5 * half


class TestRayCastFootprint:
    """The render box bounds every hit, and a hit's band is the segment it
    lies on, on a 160 x 128 camera small enough to cast the full frame."""

    SIZE = (160, 128)
    LENS = DistortionModel(k1=-0.1, k2=0.02, p1=1e-3, p2=-5e-4)

    @pytest.fixture(scope="class")
    def cameras(self, tilted_camera):
        K = np.array([[250.0, 0.0, 79.5], [0.0, 250.0, 63.5], [0.0, 0.0, 1.0]])
        tilted = replace(tilted_camera, K=K)
        return {
            "plain": CameraModel(K=K),
            "tilted": tilted,
            "lens": replace(tilted, distortion=self.LENS),
        }

    CASES = {
        # camera, angle, roll, extra scene fields
        "tilted": ("tilted", 10.0, 5.0, {}),
        "rolled": ("plain", 20.0, 40.0, {}),
        "lens": ("lens", 30.0, -20.0, {}),
        "steep-75": ("plain", 75.0, 4.0, {}),
        "steep-81-lens": ("lens", 81.0, 30.0, {}),
        "steep-87": ("tilted", 87.0, 4.0, {}),
        "off-frame": ("plain", 15.0, 10.0, {"shift": (85.0, 20.0, 0.0)}),
        "distractors": ("plain", 10.0, 5.0, {"distractors": (
            synthetic.Distractor((12.0, 15.0), 6.0, (0.2, 0.3, 0.9)),
            synthetic.Distractor((80.0, 64.0), 5.0, (0.9, 0.2, 0.2)),
            synthetic.Distractor((158.0, 125.0), 9.0, (0.2, 0.9, 0.2)),
        )}),
        "edge-at-end": ("tilted", 25.0, 15.0, {"end_edge": True}),
    }

    def _scene(self, case, cameras, quad_spec):
        name, angle, roll, extra = self.CASES[case]
        camera = cameras[name]
        spec = quad_spec
        if extra.get("end_edge"):  # a final edge exactly at the pointer end
            spec = build_spec([25.0, 55.0, 100.0], [RED, GREEN, RED, GREEN], 100.0, radius=2.0)
        scene = scene_at(spec, camera, 330.0, angle, roll, distractors=extra.get("distractors", ()))
        if "shift" in extra:
            pose = scene.pose
            scene = replace(scene, pose=PointerPose(
                tip=pose.tip + np.asarray(extra["shift"]), direction=pose.direction))
        return scene, camera

    @pytest.mark.parametrize("case", list(CASES))
    def test_full_frame_cast_hits_only_inside_the_box(self, cameras, quad_spec, case):
        scene, camera = self._scene(case, cameras, quad_spec)
        (x0, y0, x1, y1), s_box, band_box = synthetic._subpixel_bands(scene, camera, self.SIZE)
        frame = (0, 0, *self.SIZE)
        segments = len(synthetic._stations(scene.spec)[0]) - 1
        s_full, band_full = synthetic._raycast(scene, camera, frame, [frame] * segments)
        ss = synthetic.SUPERSAMPLE
        inside = (slice(y0 * ss, y1 * ss), slice(x0 * ss, x1 * ss))
        outside = np.ones(band_full.shape, dtype=bool)
        outside[inside] = False
        assert (band_full >= 0).sum() > 200
        assert (band_full[outside] == -1).all()
        assert np.isnan(s_full[outside]).all()
        np.testing.assert_array_equal(band_full[inside], band_box)
        np.testing.assert_array_equal(s_full[inside], s_box)
        if case == "off-frame":  # the pointer leaves the frame
            gt = synthetic.ground_truth(scene, camera, self.SIZE)
            assert 0 < len(gt.visible_edges()) < len(gt.edges)

    @pytest.mark.parametrize("case", list(CASES))
    def test_band_is_the_sorted_position_of_the_station(self, cameras, quad_spec, case):
        scene, camera = self._scene(case, cameras, quad_spec)
        _, s_hit, band = synthetic._subpixel_bands(scene, camera, self.SIZE)
        hit = band >= 0
        assert (hit == np.isfinite(s_hit)).all()
        s, b = s_hit[hit], band[hit]
        distances = scene.spec.distances_mm
        away = np.abs(s[:, None] - distances[None, :]).min(axis=1) > 1e-9
        assert away.sum() > 200
        expected = np.searchsorted(distances, s[away], side="right")
        np.testing.assert_array_equal(b[away], expected)


def whole_frame_render(scene, camera, size):
    """Reference: the frame composed whole in float64, background
    everywhere, then the render box, the occluders and the blur crop,
    clipped and quantized as one image."""
    width, height = size
    image = np.empty((height, width, 3), dtype=np.float64)
    image[:] = np.asarray(scene.background)
    (x0, y0, x1, y1), s_hit, band_idx = synthetic._subpixel_bands(scene, camera, size)
    if s_hit is not None:
        palette = np.array(
            [scene.band_colors.get(lbl, scene.bare_color) for lbl in scene.spec.band_labels]
            + [scene.background],
            dtype=np.float64,
        )
        colors = palette[band_idx]
        synthetic._paint_distractors(scene, colors, band_idx < 0, x0, y0)
        synthetic._paint_highlights(scene, camera, colors, s_hit, x0, y0)
        ss = synthetic.SUPERSAMPLE
        image[y0:y1, x0:x1] = colors.reshape(y1 - y0, ss, x1 - x0, ss, 3).mean(axis=(1, 3))
    corners = [(x0, y0), (x1 - 1, y1 - 1)] if s_hit is not None else []
    for occ in scene.occluders:
        occ_corners = [(occ.x0, occ.y0), (occ.x1, occ.y1)]
        ox0, oy0, ox1, oy1 = pixel_box(occ_corners, 0.0, (0, 0), size)
        if ox1 > ox0 and oy1 > oy0:
            image[oy0:oy1, ox0:ox1] = np.asarray(scene.occluder_color)
        corners += occ_corners
    if scene.blur_sigma > 0 and corners:
        pad = int(np.ceil(4.0 * scene.blur_sigma)) + 1
        bx0, by0, bx1, by1 = pixel_box(corners, pad, (0, 0), size)
        for ch in range(3):
            image[by0:by1, bx0:bx1, ch] = ndimage.gaussian_filter(
                image[by0:by1, bx0:bx1, ch], scene.blur_sigma, mode="nearest"
            )
    np.clip(image, 0.0, 1.0, out=image)
    return RasterImage(image)


class TestCropMatchesWholeFrame:
    """render composes floats only in one crop; its bytes equal those of
    the whole frame composed in floats, on a 160 x 128 camera."""

    SIZE = (160, 128)
    LENS = DistortionModel(k1=-0.1, k2=0.02, p1=1e-3, p2=-5e-4)
    AWAY = (400.0, 0.0, 0.0)  # shifts the pointer out of view
    DISC = synthetic.Distractor((40.0, 30.0), 8.0, (0.2, 0.3, 0.9))
    ACROSS_EDGE = synthetic.Occluder(-10.0, 55.0, 50.5, 70.2)
    OFF_FRAME = synthetic.Occluder(-50.0, -40.0, -20.0, -10.0)
    STRIPES = (
        synthetic.HighlightStripe(25.0, 55.0, 0.5, side_fraction=(0.2, 0.8)),
        synthetic.HighlightStripe(60.0, 70.0, 1.0, side_fraction=(-1.0, 0.0)),
    )

    CASES = {
        # lens, angle, roll, pointer shift, extra scene fields
        "blur-occluder-across-edge": (False, 10.0, 5.0, None, dict(
            blur_sigma=1.5, occluders=(ACROSS_EDGE,))),
        "occluder-off-frame": (False, 10.0, 5.0, None, dict(occluders=(OFF_FRAME,))),
        "blur-occluder-off-frame": (False, 10.0, 5.0, None, dict(
            blur_sigma=2.0, occluders=(OFF_FRAME,))),
        "out-of-view": (False, 10.0, 5.0, AWAY, {}),
        "out-of-view-occluders-blur": (False, 10.0, 5.0, AWAY, dict(
            blur_sigma=2.0, occluders=(ACROSS_EDGE, OFF_FRAME))),
        "out-of-view-off-frame-occluder-blur": (False, 10.0, 5.0, AWAY, dict(
            blur_sigma=2.0, occluders=(OFF_FRAME,))),
        "distractor-alone": (False, 10.0, 5.0, AWAY, dict(distractors=(DISC,))),
        "side-stripes": (False, 30.0, 5.0, None, dict(
            highlights=STRIPES, distractors=(DISC,), blur_sigma=0.8)),
        "lens": (True, 30.0, -20.0, None, dict(blur_sigma=1.0, highlights=STRIPES)),
        "rolled": (False, 20.0, 40.0, None, {}),
        "steep-75-blur": (False, 75.0, 4.0, None, dict(blur_sigma=1.5)),
        "steep-87-lens": (True, 87.0, 4.0, None, {}),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bytes_equal_whole_frame_composition(self, quad_spec, case):
        lens, angle, roll, shift, extra = self.CASES[case]
        camera = CameraModel(K=np.array([[250.0, 0, 79.5], [0, 250.0, 63.5], [0, 0, 1.0]]))
        if lens:
            camera = replace(camera, distortion=self.LENS)
        scene = scene_at(quad_spec, camera, 330.0, angle, roll, **extra)
        if shift is not None:
            pose = scene.pose
            scene = replace(scene, pose=PointerPose(
                tip=pose.tip + np.asarray(shift), direction=pose.direction))
        img, _ = synthetic.render(scene, camera, self.SIZE)
        reference = whole_frame_render(scene, camera, self.SIZE)
        assert img.pixels.dtype == np.uint8
        np.testing.assert_array_equal(img.pixels, reference.pixels)
        in_view = synthetic._subpixel_bands(scene, camera, self.SIZE)[1] is not None
        assert in_view == (shift is None or "distractors" in extra)


class TestClassMask:
    def test_mask_matches_band_pattern(self, small_camera, quad_spec):
        scene = scene_at(quad_spec, small_camera, 330.0, 0.0, 5.0)
        mask = synthetic.render_class_mask(scene, small_camera, SIZE_SMALL)
        img, gt = synthetic.render(scene, small_camera, SIZE_SMALL)
        assert set(np.unique(mask)) == {0, RED, GREEN}
        # away from boundaries the mask matches the rendered band color
        mid01 = (0.5 * (gt.edges[0].p_a + gt.edges[0].p_b)).astype(int)
        probe = img.pixels[mid01[1], mid01[0] - 6] / 255.0
        label = mask[mid01[1], mid01[0] - 6]
        expected = BAND_RGB[RED] if label == RED else BAND_RGB[GREEN]
        assert label != 0
        np.testing.assert_allclose(probe, expected, atol=0.05)


class TestGroundTruthDetection:
    def test_forward_orientation_labels(self, tilted_camera, quad_spec):
        scene = scene_at(quad_spec, tilted_camera, 330.0, 10.0, 5.0)
        gt = synthetic.ground_truth(scene, tilted_camera, SIZE_SMALL)
        det = synthetic.ground_truth_detection(gt, quad_spec)
        assert len(det.edges) == 3
        spec_labels = quad_spec.side_labels
        assert det.side_labels in (spec_labels, tuple((r, l) for l, r in reversed(spec_labels)))

    def test_noise_perturbs_points(self, tilted_camera, quad_spec):
        scene = scene_at(quad_spec, tilted_camera, 330.0, 10.0, 5.0)
        gt = synthetic.ground_truth(scene, tilted_camera, SIZE_SMALL)
        rng = np.random.default_rng(1)
        det = synthetic.ground_truth_detection(gt, quad_spec, noise_px=0.5, rng=rng)
        clean = synthetic.ground_truth_detection(gt, quad_spec)
        deltas = [
            np.linalg.norm(a.p_a - b.p_a) for a, b in zip(det.edges, clean.edges)
        ]
        assert max(deltas) > 0.05
        assert max(deltas) < 3.0

    def test_noise_needs_an_rng(self, tilted_camera, quad_spec):
        # a fixed default seed would add the same noise on every call
        gt = synthetic.ground_truth(
            scene_at(quad_spec, tilted_camera, 330.0, 10.0, 5.0), tilted_camera, SIZE_SMALL
        )
        with pytest.raises(ValueError, match="needs an rng"):
            synthetic.ground_truth_detection(gt, quad_spec, noise_px=0.5)

    @pytest.mark.parametrize("roll_deg", [0.0, 4.0])
    def test_steep_pointer_poses(self, camera_small, quad_spec, roll_deg):
        scene = scene_at(quad_spec, camera_small, 300.0, 85.0, roll_deg)
        gt = synthetic.ground_truth(scene, camera_small, SIZE_SMALL)
        det = synthetic.ground_truth_detection(gt, quad_spec)
        estimate = _associate_and_pose(det, quad_spec, camera_small)
        np.testing.assert_allclose(estimate.pose.tip, scene.pose.tip, atol=1e-3)


class TestSweep:
    def test_single_cell(self, tilted_camera, quad_spec):
        template = scene_at(quad_spec, tilted_camera, 330.0, 10.0, 5.0)
        cells = synthetic.sweep([500.0], [10.0], template, tilted_camera)
        assert len(cells) == 1
        assert cells[0].depth_mm == 500.0

    def test_depth_sweep_tip_approaches_principal_point(self, small_camera, quad_spec):
        template = scene_at(quad_spec, small_camera, 330.0, 0.0, 5.0)
        depths = np.linspace(330, 520, 6)
        cells = synthetic.sweep(depths, [0.0], template, small_camera)
        offsets = []
        for cell in cells:
            gt = synthetic.ground_truth(cell.scene, small_camera, SIZE_SMALL)
            tip_proj = 0.5 * (gt.edges[0].p_a + gt.edges[0].p_b)
            offsets.append(abs(tip_proj[0] - 305.5))
        assert all(np.diff(offsets) < 0)

    def test_angle_sweep_foreshortening_analytic(self, small_camera, quad_spec):
        template = scene_at(quad_spec, small_camera, 330.0, 10.0, 5.0)
        depth = 400.0
        angles = [0.0, 20.0, 40.0, 60.0]
        cells = synthetic.sweep([depth], angles, template, small_camera, roll_deg=0.0)
        lengths = []
        expected = []
        f = 1000.0
        half = quad_spec.total_length_mm / 2.0
        for cell, angle in zip(cells, angles):
            # a cell differs from the template only in its pose
            assert cell.scene == replace(template, pose=cell.scene.pose)
            gt = synthetic.ground_truth(cell.scene, small_camera, SIZE_SMALL)
            p0 = 0.5 * (gt.edges[0].p_a + gt.edges[0].p_b)
            p1 = 0.5 * (gt.edges[-1].p_a + gt.edges[-1].p_b)
            lengths.append(np.linalg.norm(p1 - p0))
            # analytic perspective projection of the two junction stations
            a = np.deg2rad(angle)
            b0, b1 = quad_spec.distances_mm[0], quad_spec.distances_mm[-1]
            u = []
            for b in (b0, b1):
                x = (b - half) * np.cos(a)
                z = depth + (b - half) * np.sin(a)
                u.append(f * x / z)
            expected.append(abs(u[1] - u[0]))
        np.testing.assert_allclose(lengths, expected, rtol=0.01)
        assert all(np.diff(lengths) < 0)
