"""Hue density models for the pointer's band colors.

One circular kernel density estimate per band color, built from a single
annotated image and kept as a lookup table; pixels classify to the
densest class or to a uniform background. Bandwidths vary per sample
with the hue uncertainty implied by low saturation and low intensity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    Field,
    InsufficientCalibrationDataError,
    MaskMismatchError,
    TooFewColorClassesError,
    built,
    integer,
    listed,
    number,
    section,
)
from .imaging import HUE_PERIOD, RasterImage

LUT_BINS = 1024
BACKGROUND_DENSITY = 1.0 / HUE_PERIOD
BANDWIDTH_FLOOR = 0.01
BANDWIDTH_CAP = 0.5
MEDIAN_TARGET_BANDWIDTH = 0.05
MIN_CLASS_PIXELS = 100
BACKGROUND_LABEL = 0
# a class id: labels fit the uint8 label rasters, where 0 is the background
CLASS_ID = integer(BACKGROUND_LABEL + 1, 255)


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


@dataclass(frozen=True, eq=False)
class ColorClassSet:
    """The color model: labels ascend, and row i of luts is band color
    class labels[i]'s hue density at LUT_BINS hues evenly spaced over the
    period. Hues no class outweighs go to the uniform background."""

    labels: tuple[int, ...]
    luts: np.ndarray  # (len(labels), LUT_BINS) float64, read-only
    min_classes: ClassVar[int] = 2

    def __post_init__(self):
        labels = tuple(CLASS_ID(label, "color class label") for label in self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError("color class labels must be unique")
        if len(labels) < self.min_classes:
            raise ValueError(f"a color model needs at least {self.min_classes} color classes")
        for label, lut in zip(labels, self.luts, strict=True):
            lut = np.asarray(lut, dtype=np.float64)
            if lut.shape != (LUT_BINS,) or not np.all(np.isfinite(lut)) or np.any(lut < 0):
                raise ValueError(
                    f"color class {label}: lut needs {LUT_BINS} finite non-negative entries"
                )
        luts = np.array(self.luts, dtype=np.float64)[np.argsort(labels)]
        luts.flags.writeable = False
        object.__setattr__(self, "labels", tuple(sorted(labels)))
        object.__setattr__(self, "luts", luts)

    def modal_hues(self) -> np.ndarray:
        """Per class, the hue (radians) of its lookup table's first maximum."""
        return np.argmax(self.luts, axis=1) * (HUE_PERIOD / LUT_BINS)


def calibrate_colors(
    img: RasterImage, mask: np.ndarray, min_saturation: float
) -> ColorClassSet:
    """Build one hue density table per labeled class in the calibration mask.

    Mask value 0 marks unlabeled pixels; value n marks class n. Pixels
    with saturation below the threshold or without a defined hue are
    unusable; each class needs at least 100 usable pixels, and the mask
    at least two classes.
    """
    mask = np.asarray(mask)
    if mask.shape != (img.height, img.width):
        raise MaskMismatchError(f"mask shape {mask.shape} != image shape {img.pixels.shape[:2]}")
    usable = img.gate(min_saturation)

    labels = sorted(int(v) for v in np.unique(mask) if v != BACKGROUND_LABEL)
    per_class: list[tuple[np.ndarray, np.ndarray]] = []  # hues, 1 / (s v)
    for label in labels:
        sel = np.flatnonzero((mask == label) & usable)
        if len(sel) < MIN_CLASS_PIXELS:
            raise InsufficientCalibrationDataError(label, len(sel), MIN_CLASS_PIXELS)
        per_class.append((img.hue_at(sel), 1.0 / np.maximum(img.saturation_value_at(sel), 1e-6)))

    if len(labels) < ColorClassSet.min_classes:
        raise TooFewColorClassesError(
            f"calibration mask labels {len(labels)} color class(es), "
            f"a color model needs {ColorClassSet.min_classes}"
        )

    # scale the uncertainty proxy so the pooled median bandwidth lands on
    # the target, then clamp per sample
    pooled = np.concatenate([inv_sv for _, inv_sv in per_class])
    scale = MEDIAN_TARGET_BANDWIDTH / float(np.median(pooled))
    luts = [
        _wrapped_gaussian_lut(hues, np.clip(scale * inv_sv, BANDWIDTH_FLOOR, BANDWIDTH_CAP))
        for hues, inv_sv in per_class
    ]
    return ColorClassSet(labels=tuple(labels), luts=luts)


def classify_hue(color_set: ColorClassSet, hues: np.ndarray) -> np.ndarray:
    """Per hue: the label of the densest class, or 0 for background.

    Ties between classes resolve to the lower label; a tie with the
    background resolves to the background.
    """
    hues = np.asarray(hues, dtype=np.float64)
    stack = np.empty((len(color_set.labels) + 1,) + hues.shape, dtype=np.float64)
    stack[0] = BACKGROUND_DENSITY
    # linear interpolation on the periodic table
    pos = np.mod(hues, HUE_PERIOD) * (LUT_BINS / HUE_PERIOD)
    i0 = np.floor(pos).astype(np.int64) % LUT_BINS
    i1 = (i0 + 1) % LUT_BINS
    frac = pos - np.floor(pos)
    for i, lut in enumerate(color_set.luts):
        stack[i + 1] = lut[i0] * (1.0 - frac) + lut[i1] * frac
    # background first and classes by label, so argmax's first-maximum
    # rule implements both tie breaks
    labels = np.array((BACKGROUND_LABEL,) + color_set.labels, dtype=np.uint8)
    return labels[stack.argmax(axis=0)]


def classify_image_masked(
    color_set: ColorClassSet,
    hs: RasterImage,
    s_min: float,
    roi_mask: np.ndarray | None = None,
) -> tuple[tuple[slice, slice], np.ndarray]:
    """classify_hue where the hue is defined, the saturation reaches s_min
    and the optional boolean roi_mask, of hs's shape, holds.

    Returns (box, labels): the (rows, cols) slices of the tightest box
    around the pixels given a class, and the uint8 label raster over that
    box, 0 at every other pixel; the box is empty when no pixel gets one.
    """
    valid = hs.gate(s_min)
    if roi_mask is not None:
        valid &= roi_mask
    at = np.flatnonzero(valid)
    del valid  # a whole-frame raster, not to be held through the hue work
    classes = classify_hue(color_set, hs.hue_at(at))
    labeled = classes != BACKGROUND_LABEL
    rows, cols = np.divmod(at[labeled], hs.width)
    if len(rows) == 0:
        return (slice(0, 0), slice(0, 0)), np.zeros((0, 0), dtype=np.uint8)
    r0, c0 = rows[0], cols.min()  # flat indices ascend, so rows do
    labels = np.zeros((rows[-1] + 1 - r0, cols.max() + 1 - c0), dtype=np.uint8)
    labels[rows - r0, cols - c0] = classes[labeled]
    return (slice(r0, r0 + labels.shape[0]), slice(c0, c0 + labels.shape[1])), labels


def serialize_color_set(color_set: ColorClassSet) -> dict:
    return {
        "lut_bins": LUT_BINS,
        "classes": [
            {"label": label, "lut": lut.tolist()}
            for label, lut in zip(color_set.labels, color_set.luts)
        ],
    }


COLOR_MODEL_FIELDS = section(
    Field("lut_bins", integer(LUT_BINS, LUT_BINS)),
    Field("classes", listed(section(
        Field("label", CLASS_ID),
        Field("lut", listed(number(), LUT_BINS)),
    ))),
)


def deserialize_color_set(data: dict) -> ColorClassSet:
    """Inverse of serialize_color_set: the model read by its field table,
    COLOR_MODEL_FIELDS. ConfigError leads with the path at fault, such as
    classes[0].lut[3], or with classes for a check ColorClassSet makes
    across the classes (unique labels, the lookup tables' values).
    """
    classes = COLOR_MODEL_FIELDS(data)["classes"]
    return built(
        "classes", ColorClassSet,
        labels=tuple(entry["label"] for entry in classes),
        luts=[entry["lut"] for entry in classes],
    )
