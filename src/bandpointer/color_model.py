"""Hue density models for the pointer's band colors.

One circular kernel density estimator per band color, built from a single
annotated image; pixels classify to the densest class or to a uniform
background. Bandwidths vary per sample with the hue uncertainty implied
by low saturation and low intensity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import (
    ConfigError,
    InsufficientCalibrationDataError,
    MaskMismatchError,
    TooFewColorClassesError,
    _reject_booleans,
)
from .imaging import (
    HUE_PERIOD,
    HueSatImage,
    RasterImage,
    _content_box,
    rgb_to_hue_saturation,
)

LUT_BINS = 1024
BACKGROUND_DENSITY = 1.0 / HUE_PERIOD
BANDWIDTH_FLOOR = 0.01
BANDWIDTH_CAP = 0.5
MEDIAN_TARGET_BANDWIDTH = 0.05
MIN_CLASS_PIXELS = 100
BACKGROUND_LABEL = 0


def _wrapped_gaussian_lut(samples: np.ndarray, bandwidths: np.ndarray) -> np.ndarray:
    """Mean wrapped-Gaussian density sampled on the hue lookup grid.

    Three period images bound the wrapping error below 1e-9 for
    bandwidths under 1 radian. Samples enter in blocks of 4096; a block
    evaluates one kernel row per distinct (sample, bandwidth) pair and
    sums the rows gathered back in sample order, which gives the bits of
    summing one row per sample.
    """
    grid = np.arange(LUT_BINS, dtype=np.float64) * (HUE_PERIOD / LUT_BINS)
    lut = np.zeros(LUT_BINS, dtype=np.float64)
    block = 4096
    for start in range(0, len(samples), block):
        pairs = np.stack(
            (samples[start : start + block], bandwidths[start : start + block]), axis=1
        )
        distinct, inverse = np.unique(pairs, axis=0, return_inverse=True)
        mu = distinct[:, :1]
        bw = distinct[:, 1:]
        nm = 1.0 / (np.sqrt(2.0 * np.pi) * bw)
        d = np.mod(grid[None, :] - mu + np.pi, HUE_PERIOD) - np.pi
        acc = np.zeros_like(d)
        for k in (-HUE_PERIOD, 0.0, HUE_PERIOD):
            acc += np.exp(-0.5 * ((d + k) / bw) ** 2)
        lut += (nm * acc)[inverse].sum(axis=0)
    return lut / len(samples)


@dataclass(frozen=True)
class HueKde:
    """Circular hue density backed by a precomputed lookup table of
    LUT_BINS finite, non-negative densities."""

    samples: np.ndarray  # hue radians, empty when deserialized
    bandwidths: np.ndarray
    lut: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        bandwidths = np.asarray(self.bandwidths, dtype=np.float64)
        if (
            samples.ndim != 1
            or bandwidths.shape != samples.shape
            or not np.all(np.isfinite(samples))
            or not np.all(np.isfinite(bandwidths) & (bandwidths > 0))
        ):
            raise ValueError(
                "HueKde needs 1-D finite samples and as many finite positive bandwidths"
            )
        lut = self.lut
        if lut is None:
            if len(samples) == 0:
                raise ValueError("HueKde needs samples or a lookup table")
            lut = _wrapped_gaussian_lut(samples, bandwidths)
        lut = np.asarray(lut, dtype=np.float64)
        if lut.shape != (LUT_BINS,) or not np.all(np.isfinite(lut)) or np.any(lut < 0):
            raise ValueError(f"lut needs {LUT_BINS} finite non-negative entries")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "bandwidths", bandwidths)
        object.__setattr__(self, "lut", lut)

    def density(self, theta) -> np.ndarray | float:
        """Linear interpolation on the 2pi-periodic lookup table."""
        theta = np.asarray(theta, dtype=np.float64)
        pos = np.mod(theta, HUE_PERIOD) * (LUT_BINS / HUE_PERIOD)
        i0 = np.floor(pos).astype(np.int64) % LUT_BINS
        i1 = (i0 + 1) % LUT_BINS
        frac = pos - np.floor(pos)
        out = self.lut[i0] * (1.0 - frac) + self.lut[i1] * frac
        return float(out) if out.ndim == 0 else out

    def modal_hue(self) -> float:
        return float(np.argmax(self.lut) * (HUE_PERIOD / LUT_BINS))


def _span(labels: range) -> str:
    return f"{labels.start}..{labels.stop - 1}"


@dataclass(frozen=True)
class ColorClassSet:
    """Band color KDEs (ordered by class label) plus the uniform background."""

    classes: tuple[tuple[int, HueKde], ...]
    # labels fit the uint8 label rasters, where 0 is the background
    label_range: ClassVar[range] = range(BACKGROUND_LABEL + 1, 256)
    min_classes: ClassVar[int] = 2

    def __post_init__(self):
        labels = [label for label, _ in self.classes]
        if len(labels) != len(set(labels)):
            raise ValueError("class labels must be unique")
        if len(labels) < self.min_classes:
            raise ValueError(f"need at least {self.min_classes} color classes")
        if any(label not in self.label_range for label in labels):
            raise ValueError(f"class labels must be integers in {_span(self.label_range)}")
        ordered = tuple(sorted(self.classes, key=lambda c: c[0]))
        object.__setattr__(self, "classes", ordered)

    @property
    def labels(self) -> list[int]:
        return [label for label, _ in self.classes]


def calibrate_colors(
    img: RasterImage, mask: np.ndarray, min_saturation: float
) -> ColorClassSet:
    """Build one hue KDE per labeled class in the calibration mask.

    Mask value 0 marks unlabeled pixels; value n marks class n. Pixels
    with saturation below the threshold or without a defined hue are
    unusable; each class needs at least 100 usable pixels, and the mask
    at least two classes.
    """
    mask = np.asarray(mask)
    if mask.shape != (img.height, img.width):
        raise MaskMismatchError(f"mask shape {mask.shape} != image shape {img.pixels.shape[:2]}")
    hs = rgb_to_hue_saturation(img)
    usable = hs.gate(min_saturation)

    labels = sorted(int(v) for v in np.unique(mask) if v != BACKGROUND_LABEL)
    per_class: list[tuple[int, np.ndarray, np.ndarray]] = []
    inv_sv_all: list[np.ndarray] = []
    for label in labels:
        sel = (mask == label) & usable
        count = int(sel.sum())
        if count < MIN_CLASS_PIXELS:
            raise InsufficientCalibrationDataError(label, count, MIN_CLASS_PIXELS)
        hues = hs.hue_at(sel)
        inv_sv = 1.0 / np.maximum(hs.saturation_value_at(sel), 1e-6)
        per_class.append((label, hues, inv_sv))
        inv_sv_all.append(inv_sv)

    if len(per_class) < ColorClassSet.min_classes:
        raise TooFewColorClassesError(
            f"calibration mask labels {len(labels)} color class(es), "
            f"a color model needs {ColorClassSet.min_classes}"
        )

    # scale the uncertainty proxy so the pooled median bandwidth lands on
    # the target, then clamp per sample
    pooled = np.concatenate(inv_sv_all)
    scale = MEDIAN_TARGET_BANDWIDTH / float(np.median(pooled))
    classes = []
    for label, hues, inv_sv in per_class:
        bw = np.clip(scale * inv_sv, BANDWIDTH_FLOOR, BANDWIDTH_CAP)
        classes.append((label, HueKde(samples=hues, bandwidths=bw)))
    return ColorClassSet(classes=tuple(classes))


def classify_hue(color_set: ColorClassSet, hues: np.ndarray) -> np.ndarray:
    """Per hue: the label of the densest class, or 0 for background.

    Ties between classes resolve to the lower label; a tie with the
    background resolves to the background.
    """
    hues = np.asarray(hues, dtype=np.float64)
    stack = np.empty((len(color_set.classes) + 1,) + hues.shape, dtype=np.float64)
    stack[0] = BACKGROUND_DENSITY
    for i, (_, kde) in enumerate(color_set.classes):
        stack[i + 1] = kde.density(hues)
    # background first and classes by label, so argmax's first-maximum
    # rule implements both tie breaks
    labels = np.array([BACKGROUND_LABEL] + color_set.labels, dtype=np.uint8)
    return labels[stack.argmax(axis=0)]


def classify_image_masked(
    color_set: ColorClassSet,
    hs: HueSatImage,
    s_min: float,
    roi_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Label raster: classify_hue where the hue is defined, the saturation
    reaches s_min and the optional boolean roi_mask holds; 0 elsewhere.

    With a roi_mask, only the box of its set pixels is gated."""
    out = np.zeros((hs.height, hs.width), dtype=np.uint8)
    if roi_mask is None:
        box = (slice(None), slice(None))
    elif roi_mask.any():
        box = _content_box(roi_mask)
    else:
        return out
    window = hs.window(box)
    valid = window.gate(s_min)
    if roi_mask is not None:
        valid &= roi_mask[box]
    if valid.any():
        out[box][valid] = classify_hue(color_set, window.hue_at(valid))
    return out


def serialize_color_set(color_set: ColorClassSet) -> dict:
    return {
        "lut_bins": LUT_BINS,
        "classes": [
            {"label": label, "lut": kde.lut.tolist()}
            for label, kde in color_set.classes
        ],
    }


def deserialize_color_set(data: dict) -> ColorClassSet:
    """Inverse of serialize_color_set; ConfigError on a malformed model.

    Labels must fit the uint8 label rasters, and every lookup table must
    be one HueKde accepts.
    """
    if not isinstance(data, dict) or data.get("lut_bins") != LUT_BINS:
        raise ConfigError(f"color model needs lut_bins = {LUT_BINS}")
    try:
        classes = []
        for entry in data["classes"]:
            label = entry["label"]
            if type(label) is not int or label not in ColorClassSet.label_range:
                raise ConfigError(
                    f"color class label must be an int in "
                    f"{_span(ColorClassSet.label_range)}, got {label!r}"
                )
            try:
                _reject_booleans(entry["lut"], "lut")
                lut = np.asarray(entry["lut"], dtype=np.float64)
                kde = HueKde(samples=np.empty(0), bandwidths=np.empty(0), lut=lut)
            except ValueError as exc:
                raise ConfigError(f"color class {label}: {exc}") from exc
            classes.append((label, kde))
        return ColorClassSet(classes=tuple(classes))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad color model: {exc}") from exc
