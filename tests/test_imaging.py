"""Tests for raster types and low-level image operations."""

import sys

import numpy as np
import pytest
from scipy import ndimage
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float_hsv, quantize, traced_peak

from bandpointer.errors import ImageFormatError, NumericError
from bandpointer.imaging import (
    _GATE_ROWS,
    _HUE_VALID,
    _SATURATION,
    DistortionModel,
    RasterImage,
    Region,
    connected_components,
    convolve_unit_sum,
    dilate_disk,
    distort_points,
    erode_disk,
    load_image,
    load_pgm,
    load_ppm,
    rgb_to_hue_saturation,
    save_pgm,
    save_ppm,
    undistort_points,
)


def _single_pixel_image(rgb):
    return RasterImage(np.array([[rgb]], dtype=np.float64))


class TestRasterImage:
    def test_uint8_is_kept(self):
        px = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
        assert RasterImage(px).pixels is px

    def test_float_is_quantized_once(self):
        px = np.linspace(0.0, 1.0, 30).reshape(2, 5, 3)
        img = RasterImage(px)
        assert img.pixels.dtype == np.uint8
        assert np.array_equal(img.pixels, quantize(px))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.01, 1.01])
    def test_non_finite_or_out_of_range_rejected(self, bad):
        px = np.full((2, 2, 3), 0.5)
        px[1, 0, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            RasterImage(px)

    @pytest.mark.parametrize("shape", [(4, 4), (4, 4, 4), (0, 4, 3)])
    def test_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="H, W, 3"):
            RasterImage(np.zeros(shape, dtype=np.uint8))

    def test_frames_compare_and_hash_by_identity(self):
        px = np.zeros((2, 2, 3), dtype=np.uint8)
        a, b = RasterImage(px), RasterImage(px.copy())
        assert a == a and a != b and not (a == RasterImage(px))
        assert hash(a) == hash(a) and len({a, b}) == 2


class TestHueSaturation:
    def test_pure_red_is_hue_origin(self):
        hs = rgb_to_hue_saturation(_single_pixel_image([1.0, 0.0, 0.0]))
        assert hs.hue[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert hs.saturation[0, 0] == pytest.approx(1.0)
        assert hs.hue_valid[0, 0]

    def test_achromatic_pixel_has_no_hue(self):
        hs = rgb_to_hue_saturation(_single_pixel_image([0.5, 0.5, 0.5]))
        assert hs.saturation[0, 0] == pytest.approx(0.0)
        assert not hs.hue_valid[0, 0]

    def test_cyan_is_antipodal_to_red(self):
        hs = rgb_to_hue_saturation(_single_pixel_image([0.0, 1.0, 1.0]))
        assert hs.hue[0, 0] == pytest.approx(np.pi, abs=1e-12)
        assert hs.saturation[0, 0] == pytest.approx(1.0)

    def test_black_pixel(self):
        hs = rgb_to_hue_saturation(_single_pixel_image([0.0, 0.0, 0.0]))
        assert hs.saturation[0, 0] == 0.0
        assert not hs.hue_valid[0, 0]

    def test_hue_range_and_value_channel(self):
        rng = np.random.default_rng(7)
        img = RasterImage(rng.uniform(0, 1, (16, 16, 3)))
        hs = rgb_to_hue_saturation(img)
        assert hs.hue.min() >= 0.0 and hs.hue.max() < 2 * np.pi
        assert hs.saturation.min() >= 0.0 and hs.saturation.max() <= 1.0
        assert np.array_equal(hs.value, img.pixels.max(axis=2) / 255.0)

    @given(
        st.tuples(
            st.floats(0, 1, allow_nan=False),
            st.floats(0, 1, allow_nan=False),
            st.floats(0, 1, allow_nan=False),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_channel_rotation_shifts_hue_by_third_turn(self, rgb):
        r, g, b = rgb
        base = rgb_to_hue_saturation(_single_pixel_image([r, g, b]))
        rotated = rgb_to_hue_saturation(_single_pixel_image([b, r, g]))
        if not base.hue_valid[0, 0]:
            assert not rotated.hue_valid[0, 0]
            return
        # compared on the circle: a hue a rounding error below 2 pi is 0
        turn = rotated.hue[0, 0] - base.hue[0, 0] - 2 * np.pi / 3
        assert abs(np.mod(turn + np.pi, 2 * np.pi) - np.pi) <= 1e-9


_level = st.integers(0, 255)
_pixel = st.one_of(
    _level.map(lambda v: (v, v, v)),  # gray
    st.just((0, 0, 0)),  # black
    st.permutations([0, 255, 128]).map(tuple),  # saturated
    st.tuples(_level, _level).map(lambda t: (max(t), max(t), min(t))),  # r = g = max
    st.tuples(_level, _level).map(lambda t: (min(t), max(t), max(t))),  # g = b = max
    st.tuples(_level, _level, _level),
)


@st.composite
def _image_and_mask(draw):
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    px = draw(st.lists(_pixel, min_size=h * w, max_size=h * w))
    mask = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    return np.array(px, dtype=np.uint8).reshape(h, w, 3), np.array(mask).reshape(h, w)


class TestHueAt:
    @given(_image_and_mask())
    @settings(max_examples=300, deadline=None)
    def test_masked_hue_equals_whole_frame_formula(self, case):
        px, mask = case
        hs = rgb_to_hue_saturation(RasterImage(px))
        oracle, _, valid, value = float_hsv(px)
        assert np.array_equal(hs.hue, oracle)
        assert np.array_equal(hs.hue_at(np.flatnonzero(mask)), hs.hue[mask])
        assert np.array_equal(hs.hue_at(np.flatnonzero(mask)), oracle[mask])
        assert np.array_equal(hs.value, value)
        assert np.array_equal(hs.hue_valid, valid)
        assert np.array_equal(hs.hue_valid, px.max(axis=2) > px.min(axis=2))


# pixel (i, j, j) for every pair of 8-bit levels: 65 536 pixels whose
# (max, min) channels take every value with max >= min
_LEVELS = np.arange(256, dtype=np.uint8)
_ALL_PAIRS = np.stack(np.broadcast_arrays(
    _LEVELS[:, None], _LEVELS[None, :], _LEVELS[None, :]), axis=-1)
_PAIR_SATURATIONS = np.unique(float_hsv(_ALL_PAIRS)[1])


# heights around the gate's row block: one block short, exact and over
_BLOCK_EDGE_ROWS = [1, _GATE_ROWS - 1, _GATE_ROWS, _GATE_ROWS + 1]


def _every_key_image(rows: int) -> np.ndarray:
    """rows x ceil(65536 / rows) pixels repeating _ALL_PAIRS in scan
    order, so every (max, min) pair occurs."""
    pairs = _ALL_PAIRS.reshape(-1, 3)
    return np.resize(pairs, (rows, -(-len(pairs) // rows), 3))


class TestSaturationGate:
    """The gate's table lookup gives the float formula's bits."""

    def test_rasters_equal_float_formula(self):
        hs = rgb_to_hue_saturation(RasterImage(_ALL_PAIRS))
        _, sat, valid, value = float_hsv(_ALL_PAIRS)
        assert np.array_equal(hs.saturation, sat)
        assert np.array_equal(hs.hue_valid, valid)
        assert np.array_equal(hs.value, value)

    @given(st.one_of(
        st.sampled_from([0.25, 0.12]),  # the default pass thresholds s1, s2
        st.sampled_from(_PAIR_SATURATIONS.tolist()),  # on a table entry
        st.floats(-0.5, 1.5, allow_nan=False),
    ))
    @settings(max_examples=200, deadline=None)
    def test_gate_equals_float_formula(self, s_min):
        hs = rgb_to_hue_saturation(RasterImage(_ALL_PAIRS))
        _, sat, valid, _ = float_hsv(_ALL_PAIRS)
        assert np.array_equal(hs.gate(s_min), valid & (sat >= s_min))

    @pytest.mark.parametrize("rows", _BLOCK_EDGE_ROWS)
    @pytest.mark.parametrize(
        "s_min", [0.0, 1.0, 0.25, 0.12, float(_PAIR_SATURATIONS[len(_PAIR_SATURATIONS) // 2])],
        ids=["0", "1", "s1", "s2", "table-entry"],
    )
    def test_blocked_gate_equals_table_on_every_key(self, rows, s_min):
        px = _every_key_image(rows)
        key = (px.max(axis=2).astype(np.int64) << 8) | px.min(axis=2)
        expected = _HUE_VALID[key] & (_SATURATION[key] >= s_min)
        hs = rgb_to_hue_saturation(RasterImage(px))
        assert np.array_equal(hs.gate(s_min), expected)
        # the same pixels as a window of a larger frame
        frame = np.zeros((rows + 3, px.shape[1] + 5, 3), dtype=np.uint8)
        box = (slice(1, rows + 1), slice(2, px.shape[1] + 2))
        frame[box] = px
        window = rgb_to_hue_saturation(RasterImage(frame)).window(box)
        assert np.array_equal(window.gate(s_min), expected)

    @pytest.mark.parametrize("rows", _BLOCK_EDGE_ROWS)
    def test_gathered_pixels_equal_float_formula(self, rows):
        px = _every_key_image(rows)
        hue, sat, _, value = float_hsv(px)
        mask = np.random.default_rng(rows).uniform(size=px.shape[:2]) < 0.5
        hs = rgb_to_hue_saturation(RasterImage(px))
        at = np.flatnonzero(mask)
        assert hs.hue_at(at).tobytes() == hue[mask].tobytes()
        assert hs.saturation_value_at(at).tobytes() == (sat * value)[mask].tobytes()

    def test_window_gates_its_box(self):
        rng = np.random.default_rng(5)
        hs = rgb_to_hue_saturation(RasterImage(rng.integers(0, 256, (9, 7, 3), dtype=np.uint8)))
        box = (slice(2, 8), slice(1, 4))
        window = hs.window(box)
        # a view: pass 2 never copies the frame
        assert np.shares_memory(window.pixels, hs.pixels)
        assert np.array_equal(window.gate(0.3), hs.gate(0.3)[box])
        mask = window.gate(0.3)
        at = np.flatnonzero(mask)
        assert np.array_equal(window.hue_at(at), hs.hue[box][mask])
        rows, cols = np.nonzero(mask)
        in_frame = np.ravel_multi_index((rows + box[0].start, cols + box[1].start), (9, 7))
        assert window.saturation_value_at(at).tobytes() == hs.saturation_value_at(in_frame).tobytes()


class TestWindowGather:
    """hue_at and saturation_value_at gather a window's pixels by row and
    column, so a strided view of the frame is never copied whole."""

    @pytest.fixture(scope="class")
    def frame(self):
        rng = np.random.default_rng(11)
        return RasterImage(rng.integers(0, 256, (1024, 1224, 3), dtype=np.uint8))

    def test_window_gather_equals_contiguous_copy(self, frame):
        box = (slice(100, 900), slice(50, 1150))
        window = frame.window(box)
        copy = RasterImage(np.ascontiguousarray(frame.pixels[box]))
        at = np.sort(np.random.default_rng(1).choice(800 * 1100, 5000, replace=False))
        assert window.hue_at(at).tobytes() == copy.hue_at(at).tobytes()
        assert window.saturation_value_at(at).tobytes() == copy.saturation_value_at(at).tobytes()

    def test_peak_is_per_gathered_pixel(self, frame):
        # measured: ~83 bytes per gathered pixel for the hue, ~26 for
        # saturation times value, plus a few kB; a copy of this 800 x 1100
        # window first would add 2.6 MB
        window = frame.window((slice(100, 900), slice(50, 1150)))
        at = np.sort(np.random.default_rng(2).choice(800 * 1100, 2000, replace=False))
        for gather in (window.hue_at, window.saturation_value_at):
            _, peak = traced_peak(lambda: gather(at))
            assert peak <= 96 * len(at) + 8192


def _brute_force_erode(bits: np.ndarray, radius: int) -> np.ndarray:
    """Oracle: check every pixel in the disk, out of bounds counts as 0."""
    h, w = bits.shape
    out = np.zeros_like(bits)
    offsets = [
        (dy, dx)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
        if dx * dx + dy * dy <= radius * radius
    ]
    for y in range(h):
        for x in range(w):
            ok = True
            for dy, dx in offsets:
                yy, xx = y + dy, x + dx
                if not (0 <= yy < h and 0 <= xx < w) or not bits[yy, xx]:
                    ok = False
                    break
            out[y, x] = ok
    return out


class TestErosion:
    def test_radius_zero_is_identity(self):
        rng = np.random.default_rng(0)
        bits = rng.uniform(size=(12, 15)) > 0.5
        out = erode_disk(bits, 0)
        np.testing.assert_array_equal(out, bits)

    def test_thin_strip_vanishes(self):
        bits = np.zeros((20, 20), dtype=bool)
        bits[5:8, :] = True  # 3 px wide strip
        out = erode_disk(bits, 2)
        assert not out.any()

    def test_square_shrinks_to_oracle(self):
        bits = np.zeros((20, 20), dtype=bool)
        bits[4:15, 3:14] = True  # 11x11 solid square
        out = erode_disk(bits, 2)
        expected = _brute_force_erode(bits, 2)
        np.testing.assert_array_equal(out, expected)
        # the surviving area is the inner 7x7 square
        assert out.sum() == 49
        assert out[6:13, 5:12].all()

    @given(st.integers(0, 5), st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_and_is_anti_extensive(self, radius, seed):
        rng = np.random.default_rng(seed)
        # smoothed noise: blobs about as wide as the disk, with holes and
        # thin parts, so that most draws keep some pixels at every radius
        shape = (14 + 2 * radius, 11 + 2 * radius)
        noise = ndimage.gaussian_filter(rng.normal(size=shape), 1.0 + radius / 2)
        bits = noise > rng.uniform(-1.0, 0.0) * noise.std()
        out = erode_disk(bits, radius)
        np.testing.assert_array_equal(out, _brute_force_erode(bits, radius))
        assert not (out & ~bits).any()  # output subset of input

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(3)
        bits = rng.uniform(size=(30, 30)) > 0.2
        prev = erode_disk(bits, 1)
        for radius in (2, 3, 4):
            cur = erode_disk(bits, radius)
            assert not (cur & ~prev).any()
            prev = cur


class TestDilation:
    """The disk dilation is the Euclidean distance transform's threshold."""

    @given(st.integers(0, 8), st.integers(1, 12), st.integers(1, 12), st.integers(0, 5000))
    @settings(max_examples=150, deadline=None)
    def test_equals_distance_threshold(self, radius, h, w, seed):
        # shapes from 1 px up to 12 px, so often shorter or narrower than
        # the disk; sparse draws leave room for the disk to show
        rng = np.random.default_rng(seed)
        bits = rng.uniform(size=(h, w)) < rng.uniform(0.0, 0.3)
        out = dilate_disk(bits, radius)
        if bits.any():
            assert np.array_equal(out, ndimage.distance_transform_edt(~bits) <= radius)
        else:
            assert not out.any()

    @pytest.mark.parametrize("radius", range(9))
    def test_border_pixels_and_empty_mask(self, radius):
        bits = np.zeros((7, 10), dtype=bool)
        assert not dilate_disk(bits, radius).any()
        bits[0, 0] = bits[6, 4] = bits[3, 9] = True
        expected = ndimage.distance_transform_edt(~bits) <= radius
        assert np.array_equal(dilate_disk(bits, radius), expected)
        assert np.array_equal(dilate_disk(bits.T, radius), expected.T)
        assert np.array_equal(dilate_disk(bits, float(radius)), expected)

    def test_negative_or_fractional_radius_rejected(self):
        for radius in (-1, 1.5):
            with pytest.raises(ValueError):
                dilate_disk(np.ones((3, 3), dtype=bool), radius)


def _flood_fill_components(bits: np.ndarray) -> list[set]:
    """Oracle: 8-connected flood fill."""
    h, w = bits.shape
    seen = np.zeros_like(bits)
    comps = []
    for y in range(h):
        for x in range(w):
            if not bits[y, x] or seen[y, x]:
                continue
            stack = [(y, x)]
            seen[y, x] = True
            comp = set()
            while stack:
                cy, cx = stack.pop()
                comp.add((cx, cy))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = cy + dy, cx + dx
                        if 0 <= ny < h and 0 <= nx < w and bits[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            stack.append((ny, nx))
            comps.append(comp)
    return comps


def _full_frame_components(bits: np.ndarray) -> list[np.ndarray]:
    """Reference: label the whole frame, regions and pixels in scan order."""
    labeled, _ = ndimage.label(bits, structure=np.ones((3, 3), dtype=int))
    regions = []
    for idx, sl in enumerate(ndimage.find_objects(labeled), start=1):
        ys, xs = np.nonzero(labeled[sl] == idx)
        regions.append(np.column_stack([xs + sl[1].start, ys + sl[0].start]))
    return regions


class TestConnectedComponents:
    def test_empty_image(self):
        assert connected_components(np.zeros((5, 5), dtype=bool)) == []

    def test_diagonal_pixels_are_one_component(self):
        bits = np.zeros((4, 4), dtype=bool)
        bits[1, 1] = bits[2, 2] = True
        regions = connected_components(bits)
        assert len(regions) == 1
        assert regions[0].area == 2

    def test_isolated_blocks_match_flood_fill_oracle(self):
        bits = np.zeros((12, 12), dtype=bool)
        for by in (1, 5, 9):
            for bx in (1, 5, 9):
                bits[by : by + 2, bx : bx + 2] = True
        regions = connected_components(bits)
        oracle = _flood_fill_components(bits)
        assert len(regions) == len(oracle) == 9
        region_sets = [set(map(tuple, r.pixels.tolist())) for r in regions]
        for comp in oracle:
            assert comp in region_sets
        for reg in regions:
            xs = reg.pixels[:, 0]
            ys = reg.pixels[:, 1]
            np.testing.assert_allclose(reg.centroid, [xs.mean(), ys.mean()])
            assert reg.centroid[0] == pytest.approx(xs.min() + 0.5)

    def test_partition_property(self):
        rng = np.random.default_rng(11)
        bits = rng.uniform(size=(20, 20)) > 0.6
        regions = connected_components(bits)
        covered = np.zeros_like(bits)
        total = 0
        for reg in regions:
            covered[reg.pixels[:, 1], reg.pixels[:, 0]] = True
            total += reg.area
        np.testing.assert_array_equal(covered, bits)
        assert total == bits.sum()  # pairwise disjoint

    @given(
        st.integers(0, 10_000),
        st.floats(0.2, 0.8),
        st.integers(0, 30),
        st.integers(0, 30),
        st.integers(1, 30),
        st.integers(1, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_full_frame_labeling(self, seed, density, y0, x0, h, w):
        # set bits inside a random box of a 40 x 45 frame; the box may touch
        # any border. Labeling the box at its origin gives the frame's
        # regions in the frame's order, which feeds the line RANSAC's draws
        rng = np.random.default_rng(seed)
        bits = np.zeros((40, 45), dtype=bool)
        y1, x1 = min(y0 + h, 40), min(x0 + w, 45)
        bits[y0:y1, x0:x1] = rng.uniform(size=(y1 - y0, x1 - x0)) < density
        got = connected_components(bits[y0:y1, x0:x1], (x0, y0))
        want = _full_frame_components(bits)
        assert len(got) == len(want)
        for g, r in zip(got, want):
            np.testing.assert_array_equal(g.pixels, r)
            np.testing.assert_array_equal(g.centroid, Region(pixels=r).centroid)


class TestConvolution:
    def test_identity_kernel(self):
        rng = np.random.default_rng(5)
        bits = rng.uniform(size=(9, 9)) > 0.5
        out = convolve_unit_sum(bits, np.array([[1.0]]))
        np.testing.assert_allclose(out, bits.astype(float), atol=1e-12)

    def test_all_ones_interior_response(self):
        bits = np.ones((15, 15), dtype=bool)
        kernel = np.full((5, 5), 1 / 25)
        out = convolve_unit_sum(bits, kernel)
        np.testing.assert_allclose(out[2:-2, 2:-2], 1.0, atol=1e-9)

    def test_single_pixel_spreads_kernel(self):
        bits = np.zeros((7, 7), dtype=bool)
        bits[3, 3] = True
        out = convolve_unit_sum(bits, np.full((3, 3), 1 / 9))
        expected = np.zeros((7, 7))
        expected[2:5, 2:5] = 1 / 9  # direct evaluation
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_output_bounded_for_unit_sum_kernels(self):
        rng = np.random.default_rng(9)
        bits = rng.uniform(size=(20, 20)) > 0.4
        kernel = rng.uniform(0.1, 1.0, (5, 5))
        kernel /= kernel.sum()
        out = convolve_unit_sum(bits, kernel)
        assert out.min() >= 0.0 and out.max() <= 1.0


# fx != fy and an off-centre principal point, so that swapped intrinsics
# move the results
K_LENS = np.array([[1000.0, 0.0, 350.0], [0.0, 800.0, 260.0], [0.0, 0.0, 1.0]])


class TestDistortion:
    def test_zero_coefficients_identity(self):
        pts = np.array([[10.0, 20.0], [300.0, 200.0]])
        np.testing.assert_allclose(undistort_points(pts, DistortionModel(), K_LENS), pts)
        np.testing.assert_allclose(distort_points(pts, DistortionModel(), K_LENS), pts)

    def test_principal_point_fixed(self):
        model = DistortionModel(k1=-0.2, k2=0.05, p1=1e-3, p2=-1e-3)
        centre = np.array([[350.0, 260.0]])
        np.testing.assert_allclose(undistort_points(centre, model, K_LENS), centre, atol=1e-9)
        np.testing.assert_allclose(distort_points(centre, model, K_LENS), centre, atol=1e-9)

    def test_acts_in_normalized_coordinates_of_k(self):
        k1 = -0.1
        x, y = 0.3, -0.2  # normalized: (u - cx) / fx, (v - cy) / fy
        scale = 1.0 + k1 * (x * x + y * y)
        pt = np.array([[350.0 + 1000.0 * x, 260.0 + 800.0 * y]])
        expected = [[350.0 + 1000.0 * x * scale, 260.0 + 800.0 * y * scale]]
        distorted = distort_points(pt, DistortionModel(k1=k1), K_LENS)
        np.testing.assert_allclose(distorted, expected, rtol=0, atol=1e-9)
        recovered = undistort_points(distorted, DistortionModel(k1=k1), K_LENS)
        np.testing.assert_allclose(recovered, pt, rtol=0, atol=1e-3)

    def test_round_trip_at_half_radius(self):
        model = DistortionModel(k1=-0.1)
        # normalized radius 0.5
        pt = np.array([[350.0 + 1000 * 0.3, 260.0 + 800 * 0.4]])
        distorted = distort_points(pt, model, K_LENS)
        recovered = undistort_points(distorted, model, K_LENS)
        assert np.linalg.norm(recovered - pt) < 1e-3

    @given(
        st.floats(-0.2, 0.2),
        st.floats(-0.05, 0.05),
        st.floats(-0.01, 0.01),
        st.floats(-0.4, 0.4),
        st.floats(-0.4, 0.4),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_within_field_of_view(self, k1, k2, p1, xn, yn):
        model = DistortionModel(k1=k1, k2=k2, p1=p1)
        pt = np.array([[350.0 + 1000 * xn, 260.0 + 800 * yn]])
        distorted = distort_points(pt, model, K_LENS)
        recovered = undistort_points(distorted, model, K_LENS)
        assert np.linalg.norm(recovered - pt) < 1e-3

    def test_nonconvergence_raises(self):
        model = DistortionModel(k1=-5.0)
        K = np.array([[100.0, 0.0, 0.0], [0.0, 100.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(NumericError):
            undistort_points(np.array([[500.0, 500.0]]), model, K)


class TestImageIO:
    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = RasterImage(rng.integers(0, 256, (6, 5, 3), dtype=np.uint8))
        path = tmp_path / "img.ppm"
        save_ppm(img, path)
        assert path.read_bytes() == b"P6\n5 6\n255\n" + img.pixels.tobytes()
        loaded = load_ppm(path)
        assert loaded.pixels.dtype == np.uint8
        np.testing.assert_array_equal(loaded.pixels, img.pixels)

    def test_pgm_round_trip(self, tmp_path):
        mask = np.arange(20, dtype=np.uint8).reshape(4, 5)
        path = tmp_path / "mask.pgm"
        save_pgm(mask, path)
        np.testing.assert_array_equal(load_pgm(path), mask)

    @pytest.mark.parametrize(
        "payload",
        [
            b"P5\n2 2\n255\n" + bytes(4),  # wrong magic
            b"P6\n2 2\n65535\n" + bytes(24),  # 16-bit samples
            b"P6\n2 2\n255\n" + bytes(11),  # truncated payload
            b"P6\n2 x\n255\n" + bytes(12),  # unparsable header token
            b"P6\n2 2\n",  # header cut short
            b"P6\n0 2\n255\n",  # empty image
        ],
        ids=["magic", "maxval", "truncated", "token", "short-header", "empty"],
    )
    def test_malformed_ppm_is_image_format_error(self, tmp_path, payload):
        path = tmp_path / "bad.ppm"
        path.write_bytes(payload)
        with pytest.raises(ImageFormatError):
            load_image(path)

    def test_png_without_pillow_is_image_format_error(self, tmp_path, monkeypatch):
        monkeypatch.setitem(sys.modules, "PIL", None)
        path = tmp_path / "frame.png"
        path.write_bytes(b"\x89PNG\r\n\x1a\n")
        with pytest.raises(ImageFormatError, match="pillow"):
            load_image(path)

    def test_truncated_payload_named(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(11))
        with pytest.raises(ImageFormatError, match="^truncated P6 payload in "):
            load_image(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(ValueError):
            load_ppm(path)


class TestFrameMemory:
    """Peak memory of the whole-frame steps on a 1224x1024 frame, the
    benchmark's frame size. tracemalloc counts numpy's allocations, so the
    peaks are deterministic. Measured: loading holds the file's bytes plus
    4.9 kB, gating its bool output plus 0.46 MB; a second copy of the
    payload (3.8 MB) or a whole-frame key (2.5 MB) or index (10 MB) breaks
    either bound."""

    @pytest.fixture(scope="class")
    def frame_path(self, tmp_path_factory):
        rng = np.random.default_rng(7)
        path = tmp_path_factory.mktemp("frame") / "frame.ppm"
        save_ppm(RasterImage(rng.integers(0, 256, (1024, 1224, 3), dtype=np.uint8)), path)
        return path

    def test_load_keeps_one_copy_of_the_payload(self, frame_path):
        _, peak = traced_peak(lambda: load_image(frame_path))
        assert peak <= frame_path.stat().st_size + 64 * 1024

    def test_gate_holds_its_output_and_one_block(self, frame_path):
        hs = rgb_to_hue_saturation(load_image(frame_path))
        gated, peak = traced_peak(lambda: hs.gate(0.25))
        assert peak <= gated.nbytes + (1 << 20)
