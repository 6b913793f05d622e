"""Tests for the hue density models and pixel classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import float_hsv, kde_lut, pasted

from bandpointer.color_model import (
    BACKGROUND_DENSITY,
    BACKGROUND_LABEL,
    BANDWIDTH_CAP,
    BANDWIDTH_FLOOR,
    MEDIAN_TARGET_BANDWIDTH,
    MIN_CLASS_PIXELS,
    ColorClassSet,
    LUT_BINS,
    _wrapped_gaussian_lut,
    calibrate_colors,
    classify_hue,
    classify_image_masked,
    deserialize_color_set,
    serialize_color_set,
)
from bandpointer.errors import (
    ConfigError,
    InsufficientCalibrationDataError,
    MaskMismatchError,
    TooFewColorClassesError,
)
from bandpointer.imaging import HUE_PERIOD, RasterImage, rgb_to_hue_saturation


def _set(*modes, bandwidth=0.1):
    """Classes 1, 2, ... with one single-sample density per mode."""
    return ColorClassSet(
        labels=tuple(range(1, len(modes) + 1)),
        luts=[kde_lut(mode, bandwidth) for mode in modes],
    )


def _patch_image(rgb, shape=(12, 12)):
    px = np.empty(shape + (3,))
    px[:] = rgb
    return RasterImage(px)


def _calibration_hues_and_bandwidths(rgb, mask, s_min):
    """Per mask class: the usable pixels' hues and bandwidths by the float
    formula, scaled to the pooled median target and clipped."""
    hue, sat, valid, value = float_hsv(rgb)
    sels = {int(label): (mask == label) & valid & (sat >= s_min)
            for label in np.unique(mask) if label != BACKGROUND_LABEL}
    inv_sv = {label: 1.0 / np.maximum(sat[sel] * value[sel], 1e-6) for label, sel in sels.items()}
    scale = MEDIAN_TARGET_BANDWIDTH / float(np.median(np.concatenate(list(inv_sv.values()))))
    return {
        label: (hue[sel], np.clip(scale * inv_sv[label], BANDWIDTH_FLOOR, BANDWIDTH_CAP))
        for label, sel in sels.items()
    }


class TestColorClassSet:
    def test_normalization_by_quadrature(self):
        rng = np.random.default_rng(1)
        lut = kde_lut(rng.uniform(0, 2 * np.pi, 50), bandwidth=0.2)
        assert 0.999 <= lut.mean() * HUE_PERIOD <= 1.001

    def test_normalization_at_bandwidth_floor(self):
        lut = kde_lut([1.0, 4.0], bandwidth=0.01)
        assert 0.999 <= lut.mean() * HUE_PERIOD <= 1.001

    def test_periodicity(self):
        cs = ColorClassSet(labels=(1, 2), luts=[kde_lut([0.3, 2.0], 0.15), kde_lut([1.1], 0.15)])
        thetas = np.linspace(0, 2 * np.pi, 97, endpoint=False)
        got = classify_hue(cs, thetas)
        assert set(got.tolist()) == {BACKGROUND_LABEL, 1, 2}
        for period in (-1, 1, 2):
            assert np.array_equal(classify_hue(cs, thetas + period * HUE_PERIOD), got)

    def test_single_sample_peak_value(self):
        # wrapped Gaussian peak: 1 / (sqrt(2 pi) * 0.1) ~ 3.9894
        cs = _set(0.0, 3.0)
        expected = 1.0 / (np.sqrt(2 * np.pi) * 0.1)
        assert cs.luts[0, 0] == pytest.approx(expected, abs=5e-3)
        assert cs.luts[0, 0] > BACKGROUND_DENSITY

    def test_modal_hues_at_the_modes(self):
        np.testing.assert_allclose(
            _set(0.0, 3.0).modal_hues(), [0.0, 3.0], atol=HUE_PERIOD / LUT_BINS
        )

    def test_serialization_round_trip(self):
        cs = _set(0.1, 2.0)
        restored = deserialize_color_set(serialize_color_set(cs))
        assert restored.labels == cs.labels
        assert restored.luts.tobytes() == cs.luts.tobytes()

    def test_rows_follow_ascending_labels(self):
        a, b = kde_lut([0.1]), kde_lut([2.0])
        cs = ColorClassSet(labels=[255, 1], luts=[a, b])
        assert cs.labels == (1, 255)
        assert cs.luts.tobytes() == np.stack([b, a]).tobytes()
        assert not cs.luts.flags.writeable

    @pytest.mark.parametrize(
        "lut",
        [
            np.ones(3),
            np.ones(LUT_BINS + 1),
            np.ones((1, LUT_BINS)),
            np.full(LUT_BINS, np.nan),
            np.full(LUT_BINS, np.inf),
            np.r_[np.ones(LUT_BINS - 1), -1e-300],
        ],
        ids=["short", "long", "2d", "nan", "inf", "negative"],
    )
    def test_bad_lut_rejected(self, lut):
        # a short table used to construct and fail later in classify_hue
        # with a raw IndexError
        message = f"^color class 2: lut needs {LUT_BINS} finite non-negative"
        with pytest.raises(ValueError, match=message):
            ColorClassSet(labels=(1, 2), luts=[kde_lut([0.1]), lut])

    def test_given_lut_kept(self):
        lut = np.linspace(0.0, 1.0, LUT_BINS)
        cs = ColorClassSet(labels=(1, 2), luts=[list(lut), lut])
        assert cs.luts[0].tobytes() == lut.tobytes()
        assert classify_hue(cs, np.array([0.0])).tolist() == [BACKGROUND_LABEL]

    @pytest.mark.parametrize(
        "label, message",
        [
            (0, "must be an integer >= 1, got 0"),
            (-1, "must be an integer >= 1, got -1"),
            (256, "must be at most 255, got 256"),
            (300, "must be at most 255, got 300"),
        ],
        ids=["0", "-1", "256", "300"],
    )
    def test_label_outside_uint8_classes_rejected(self, label, message):
        with pytest.raises(ValueError, match=f"^color class label {message}$"):
            ColorClassSet(labels=(1, label), luts=[kde_lut([0.1]), kde_lut([2.0])])

    @pytest.mark.parametrize(
        "label, message",
        [
            (2.5, "must be an integer >= 1, got 2.5"),
            (True, "must not be a boolean, got true"),
            ("2", "must be a number, got '2'"),
            (None, "must be a number, got None"),
        ],
        ids=["float", "bool", "str", "none"],
    )
    def test_label_that_is_not_an_int_rejected(self, label, message):
        with pytest.raises(ValueError, match=f"^color class label {message}$"):
            ColorClassSet(labels=(1, label), luts=[kde_lut([0.1]), kde_lut([2.0])])

    @pytest.mark.parametrize("label", [2.0, np.int64(2)], ids=["float", "numpy-int"])
    def test_whole_number_label_read_as_int(self, label):
        cs = ColorClassSet(labels=(1, label), luts=[kde_lut([0.1]), kde_lut([2.0])])
        assert cs.labels == (1, 2)
        assert type(cs.labels[1]) is int

    def test_label_range_ends_accepted(self):
        cs = ColorClassSet(labels=(255, 1), luts=[kde_lut([0.1]), kde_lut([2.0])])
        assert cs.labels == (1, 255)

    @pytest.mark.parametrize(
        "labels, count, message",
        [
            ((1, 1), 2, "color class labels must be unique"),
            ((1,), 1, "a color model needs at least 2 color classes"),
            ((1, 2), 3, "zip"),
        ],
        ids=["duplicate", "one-class", "lut-count"],
    )
    def test_class_set_shape_rejected(self, labels, count, message):
        with pytest.raises(ValueError, match=message):
            ColorClassSet(labels=labels, luts=[kde_lut([0.1])] * count)


def _reference_lut(samples, bandwidths):
    """The kernel sum with one row per sample, in blocks of 4096."""
    grid = np.arange(LUT_BINS, dtype=np.float64) * (HUE_PERIOD / LUT_BINS)
    lut = np.zeros(LUT_BINS, dtype=np.float64)
    norm = 1.0 / (np.sqrt(2.0 * np.pi) * bandwidths)
    block = 4096
    for start in range(0, len(samples), block):
        mu = samples[start : start + block, None]
        bw = bandwidths[start : start + block, None]
        nm = norm[start : start + block, None]
        d = np.mod(grid[None, :] - mu + np.pi, HUE_PERIOD) - np.pi
        acc = np.zeros_like(d)
        for k in (-HUE_PERIOD, 0.0, HUE_PERIOD):
            acc += np.exp(-0.5 * ((d + k) / bw) ** 2)
        lut += (nm * acc).sum(axis=0)
    return lut / len(samples)


class TestDistinctPairLut:
    """One kernel row per distinct (sample, bandwidth) pair gives the
    bits of one row per sample, across the 4096-sample block bounds."""

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 8193])
    @pytest.mark.parametrize("distinct", [None, 7], ids=["all-distinct", "7-pairs"])
    def test_equals_one_row_per_sample(self, n, distinct):
        rng = np.random.default_rng(n)
        m = n if distinct is None else distinct
        hues = rng.uniform(0, HUE_PERIOD, m)
        bws = rng.uniform(BANDWIDTH_FLOOR, BANDWIDTH_CAP, m)
        bws[0], bws[-1] = BANDWIDTH_FLOOR, BANDWIDTH_CAP
        pick = np.arange(n) if distinct is None else rng.integers(0, m, n)
        samples, bandwidths = hues[pick], bws[pick]
        assert np.array_equal(
            _wrapped_gaussian_lut(samples, bandwidths), _reference_lut(samples, bandwidths)
        )


def _model(**changes):
    """Serialized two-class model with top-level or class-1 keys replaced.

    A class-1 key given as None is deleted.
    """
    data = serialize_color_set(_set(0.1, 2.0))
    for key, value in changes.items():
        if key in data:
            data[key] = value
        elif value is None:
            del data["classes"][0][key]
        else:
            data["classes"][0][key] = value
    return data


class TestDeserializeValidation:
    @pytest.mark.parametrize(
        "data",
        [
            _model(lut=[1.0]),
            _model(lut=None),
            _model(lut=[float("nan")] * LUT_BINS),
            _model(lut=[-1.0] * LUT_BINS),
            _model(lut=[[0.0] * LUT_BINS]),
            _model(label=1.5),
            _model(label="1"),
            _model(label=0),
            _model(label=256),
            _model(label=2),
            _model(classes=_model()["classes"][:1]),
            _model(classes=None),
            _model(lut_bins=LUT_BINS // 2),
            [],
        ],
        ids=[
            "short-lut", "missing-lut", "nan-lut", "negative-lut", "2d-lut",
            "float-label", "str-label", "background-label", "wide-label",
            "duplicate-label", "one-class", "no-classes", "lut-bins", "not-a-dict",
        ],
    )
    def test_malformed_model_is_config_error(self, data):
        with pytest.raises(ConfigError):
            deserialize_color_set(data)

    @pytest.mark.parametrize(
        "data, message",
        [
            (_model(classes=[1, 2]), "classes[0] must be a JSON object, got int"),
            (_model(classes="ab"), "classes must be a list, got 'ab'"),
            (_model(classes={"a": 1}), "classes must be a list, got {'a': 1}"),
            (_model(lut=None), "classes[0].lut is missing"),
            (_model(label=None), "classes[0].label is missing"),
            ({"lut_bins": LUT_BINS}, "classes is missing"),
        ],
        ids=["int-entries", "str-classes", "object-classes", "no-lut", "no-label", "no-classes"],
    )
    def test_misshapen_model_names_the_field(self, data, message):
        with pytest.raises(ConfigError) as info:
            deserialize_color_set(data)
        assert str(info.value) == message

    def test_bad_lut_message_names_the_class(self):
        with pytest.raises(ConfigError) as info:
            deserialize_color_set(_model(lut=[1.0] * 3))
        assert str(info.value) == f"classes[0].lut must hold {LUT_BINS} entries, got 3"
        # a check across the classes is led by their section
        with pytest.raises(ConfigError) as info:
            deserialize_color_set(_model(lut=[-1.0] * LUT_BINS))
        assert str(info.value) == (
            f"classes: color class 1: lut needs {LUT_BINS} finite non-negative entries"
        )


class TestClassifyHue:
    def test_background_wins_when_all_densities_low(self):
        # two distant narrow densities evaluated far from both modes
        cs = _set(0.0, 2.0, bandwidth=0.05)
        assert classify_hue(cs, np.array([1.0])).tolist() == [BACKGROUND_LABEL]

    def test_single_sample_class_beats_background_at_mode(self):
        cs = _set(0.0, 3.0)
        assert classify_hue(cs, np.array([0.0])).tolist() == [1]

    def test_exact_tie_goes_to_lower_class_when_above_background(self):
        # identical tables give bit-identical densities at every hue
        cs = _set(1.0, 1.0, bandwidth=0.3)
        assert classify_hue(cs, np.array([1.0])).tolist() == [1]

    def test_exact_tie_with_background_goes_to_background(self):
        flat = np.full(LUT_BINS, BACKGROUND_DENSITY)
        cs = ColorClassSet(labels=(1, 2), luts=[flat, flat])
        assert classify_hue(cs, np.array([2.0])).tolist() == [BACKGROUND_LABEL]

    def test_midpoint_tie_goes_to_background_when_densities_tiny(self):
        cs = _set(0.0, 2.0, bandwidth=0.01)
        assert classify_hue(cs, np.array([1.0])).tolist() == [BACKGROUND_LABEL]

    @given(st.floats(0, 2 * np.pi), st.floats(0.05, 0.4))
    @settings(max_examples=60, deadline=None)
    def test_circular_shift_equivariance(self, shift, bandwidth):
        base_samples = np.array([0.2, 0.9, 4.0])
        cs0 = _set(base_samples[:2], base_samples[2:], bandwidth=bandwidth)
        shifted = np.mod(base_samples + shift, 2 * np.pi)
        cs1 = _set(shifted[:2], shifted[2:], bandwidth=bandwidth)
        theta = np.array([0.1, 1.0, 2.5, 5.0])
        assert np.array_equal(
            classify_hue(cs0, theta),
            classify_hue(cs1, np.mod(theta + shift, 2 * np.pi)),
        )


class TestCalibration:
    def _two_patch_setup(self):
        px = np.empty((20, 20, 3))
        px[:, :10] = (1.0, 0.05, 0.05)  # red-ish
        px[:, 10:] = (0.05, 1.0, 0.05)  # green-ish
        img = RasterImage(px)
        mask = np.zeros((20, 20), dtype=np.uint8)
        mask[:, :10] = 1
        mask[:, 10:] = 2
        return img, mask

    def test_modes_land_on_patch_hues(self):
        img, mask = self._two_patch_setup()
        cs = calibrate_colors(img, mask, min_saturation=0.2)
        assert classify_hue(cs, np.array([0.0, 2 * np.pi / 3])).tolist() == [1, 2]

    def test_gray_patch_fails(self):
        img = _patch_image((0.5, 0.5, 0.5), (20, 20))
        mask = np.ones((20, 20), dtype=np.uint8)
        with pytest.raises(InsufficientCalibrationDataError) as err:
            calibrate_colors(img, mask, min_saturation=0.2)
        assert err.value.label == 1

    @pytest.mark.parametrize("shape", [(19, 20), (20, 21), (20, 20, 1), (400,)])
    def test_mask_size_mismatch_is_typed(self, shape):
        img, _ = self._two_patch_setup()
        with pytest.raises(MaskMismatchError, match="mask shape"):
            calibrate_colors(img, np.ones(shape, dtype=np.uint8), min_saturation=0.2)

    def test_too_few_pixels_fails_with_class_name(self):
        img, mask = self._two_patch_setup()
        mask[:, :10] = 0
        mask[:5, :5] = 1  # only 25 pixels for class 1
        with pytest.raises(InsufficientCalibrationDataError) as err:
            calibrate_colors(img, mask, min_saturation=0.2)
        assert err.value.label == 1
        assert err.value.count == 25

    def test_bandwidths_respect_floor_and_cap(self):
        img, mask = self._two_patch_setup()
        cs = calibrate_colors(img, mask, min_saturation=0.2)
        expected = _calibration_hues_and_bandwidths(img.pixels, mask, 0.2)
        for label, lut in zip(cs.labels, cs.luts):
            hues, bw = expected[label]
            assert bw.min() >= 0.01 - 1e-12
            assert bw.max() <= 0.5 + 1e-12
            assert np.array_equal(lut, _wrapped_gaussian_lut(hues, bw))

    def test_median_bandwidth_hits_target(self):
        rng = np.random.default_rng(8)
        px = rng.uniform(0.3, 1.0, (30, 30, 3))
        px[..., 0] = np.maximum(px[..., 0], 0.8)  # keep red dominant
        px[..., 1] *= 0.3
        px[..., 2] *= 0.3
        img = RasterImage(px)
        mask = np.full((30, 30), 1, dtype=np.uint8)
        mask[:, 15:] = 2
        cs = calibrate_colors(img, mask, min_saturation=0.05)
        expected = _calibration_hues_and_bandwidths(img.pixels, mask, 0.05)
        all_bw = np.concatenate([bw for _, bw in expected.values()])
        assert np.median(all_bw) == pytest.approx(0.05, rel=0.05)
        for label, lut in zip(cs.labels, cs.luts):
            assert np.array_equal(lut, _wrapped_gaussian_lut(*expected[label]))

    def test_one_labeled_class_fails_before_any_lut(self, monkeypatch):
        img, mask = self._two_patch_setup()
        mask[mask == 2] = 0

        def no_lut(*args):
            raise AssertionError("lookup table built")

        monkeypatch.setattr("bandpointer.color_model._wrapped_gaussian_lut", no_lut)
        with pytest.raises(TooFewColorClassesError):
            calibrate_colors(img, mask, min_saturation=0.2)
        with pytest.raises(TooFewColorClassesError):
            calibrate_colors(img, np.zeros_like(mask), min_saturation=0.2)

    def test_luts_cross_block_bounds(self):
        # 4900 usable pixels per class from 1024 distinct colors: blocks of
        # 4096 samples with repeated (hue, bandwidth) pairs
        rng = np.random.default_rng(5)
        rgb = np.empty((70, 140, 3), dtype=np.uint8)
        rgb[..., 0] = rng.integers(240, 256, (70, 140))
        rgb[..., 1:] = rng.integers(0, 8, (70, 140, 2))
        rgb[:, 70:] = rgb[:, 70:, ::-1]  # blue-dominant second class
        mask = np.ones((70, 140), dtype=np.uint8)
        mask[:, 70:] = 2
        cs = calibrate_colors(RasterImage(rgb), mask, min_saturation=0.2)
        expected = _calibration_hues_and_bandwidths(rgb, mask, 0.2)
        for label, lut in zip(cs.labels, cs.luts):
            hues, bw = expected[label]
            assert len(hues) == 4900
            assert np.array_equal(lut, _reference_lut(hues, bw))


def _classified(color_set, hs, s_min, roi_mask=None):
    """The classifier's labels over the whole frame, once its box is
    checked to be the tightest around the labeled pixels."""
    box, labels = classify_image_masked(color_set, hs, s_min, roi_mask)
    frame = pasted((box, labels), (hs.height, hs.width))
    rows, cols = np.nonzero(frame)
    if len(rows):
        assert box == (slice(rows.min(), rows.max() + 1), slice(cols.min(), cols.max() + 1))
    else:
        assert labels.shape == (0, 0)
    return frame


class TestClassifyImage:
    def _set(self):
        return _set(0.0, 2 * np.pi / 3)

    def test_saturation_gate(self):
        img = _patch_image((0.9, 0.5, 0.5))  # saturated below 1
        hs = rgb_to_hue_saturation(img)
        labels = _classified(self._set(), hs, s_min=1.0)
        assert (labels == BACKGROUND_LABEL).all()

    def test_two_band_classification(self):
        px = np.empty((10, 20, 3))
        px[:, :10] = (1.0, 0.0, 0.0)
        px[:, 10:] = (0.0, 1.0, 0.0)
        hs = rgb_to_hue_saturation(RasterImage(px))
        labels = _classified(self._set(), hs, s_min=0.3)
        assert (labels[:, :10] == 1).all()
        assert (labels[:, 10:] == 2).all()

    def test_hue_shifted_distractor_is_background(self):
        # hexcone: (1, g, 0) has hue g * pi/3, so g below puts the patch
        # 0.5 rad from both narrow classes
        g = 0.5 * 3 / np.pi
        px = np.empty((5, 5, 3))
        px[:] = (1.0, g, 0.0)
        hs = rgb_to_hue_saturation(RasterImage(px))
        cs = _set(0.0, 1.0, bandwidth=0.05)
        labels = _classified(cs, hs, s_min=0.3)
        assert (labels == BACKGROUND_LABEL).all()

    def test_invalid_hue_is_background(self):
        img = _patch_image((0.6, 0.6, 0.6))
        hs = rgb_to_hue_saturation(img)
        labels = _classified(self._set(), hs, s_min=0.0)
        assert (labels == BACKGROUND_LABEL).all()

    def test_raising_s_min_never_adds_labels(self):
        rng = np.random.default_rng(4)
        img = RasterImage(rng.uniform(0, 1, (15, 15, 3)))
        hs = rgb_to_hue_saturation(img)
        cs = self._set()
        prev = _classified(cs, hs, s_min=0.1)
        for s_min in (0.3, 0.5, 0.8):
            cur = _classified(cs, hs, s_min=s_min)
            newly_labeled = (prev == BACKGROUND_LABEL) & (cur != BACKGROUND_LABEL)
            assert not newly_labeled.any()
            prev = cur

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.floats(0, 1),
        st.floats(0, 2 * np.pi),
        st.floats(0, 2 * np.pi),
        st.floats(0.02, 0.5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_raster_equals_hue_rule_inside_gate(self, h, w, s_min, mode1, mode2, bw, seed):
        rng = np.random.default_rng(seed)
        px = rng.uniform(0, 1, (h, w, 3))
        px[rng.uniform(size=(h, w)) < 0.2] = 0.4  # gray: hue undefined
        hs = rgb_to_hue_saturation(RasterImage(px))
        cs = _set(mode1, mode2, bandwidth=bw)
        gate = hs.hue_valid & (hs.saturation >= s_min)
        expected = np.where(gate, classify_hue(cs, hs.hue), BACKGROUND_LABEL)
        assert np.array_equal(_classified(cs, hs, s_min), expected)


# 8-bit frames whose channels often tie or saturate
_frame = st.tuples(st.integers(1, 24), st.integers(1, 24)).flatmap(
    lambda hw: arrays(np.uint8, hw + (3,), elements=st.one_of(
        st.sampled_from([0, 1, 127, 128, 254, 255]), st.integers(0, 255))))


class TestFloatFormulaEquivalence:
    """Classification and calibration on 8-bit frames give the bits of
    the float formula applied to rgb / 255."""

    @given(_frame, st.floats(0, 1), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_classify_image_masked(self, rgb, s_min, seed, with_roi):
        rng = np.random.default_rng(seed)
        roi = rng.uniform(size=rgb.shape[:2]) < rng.uniform() if with_roi else None
        cs = _set(rng.uniform(0, 2 * np.pi, 3), rng.uniform(0, 2 * np.pi, 3), bandwidth=0.3)
        hue, sat, valid, _ = float_hsv(rgb)
        gate = valid & (sat >= s_min)
        if roi is not None:
            gate &= roi
        expected = np.zeros(rgb.shape[:2], dtype=np.uint8)
        expected[gate] = classify_hue(cs, hue[gate])
        got = _classified(cs, rgb_to_hue_saturation(RasterImage(rgb)), s_min, roi)
        assert np.array_equal(got, expected)

    @given(
        arrays(np.uint8, (20, 24, 3)),
        st.floats(0, 0.5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_calibrate_colors(self, rgb, s_min, seed):
        mask = np.random.default_rng(seed).integers(0, 3, rgb.shape[:2]).astype(np.uint8)
        _, sat, valid, _ = float_hsv(rgb)
        usable = valid & (sat >= s_min)
        if min(int(((mask == label) & usable).sum()) for label in (1, 2)) < MIN_CLASS_PIXELS:
            with pytest.raises(InsufficientCalibrationDataError):
                calibrate_colors(RasterImage(rgb), mask, s_min)
            return
        expected = _calibration_hues_and_bandwidths(rgb, mask, s_min)
        cs = calibrate_colors(RasterImage(rgb), mask, s_min)
        assert cs.labels == (1, 2)
        for label, lut in zip(cs.labels, cs.luts):
            assert np.array_equal(lut, _wrapped_gaussian_lut(*expected[label]))
