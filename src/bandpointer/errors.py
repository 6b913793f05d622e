"""Exception hierarchy for the tracking pipeline, and the number and
integer rules its JSON loaders share.

The CLI maps these onto distinct exit codes, so failure causes stay
separable all the way out of the process.
"""

import json
import numbers
import sys

import numpy as np


class BandPointerError(Exception):
    """Base class for all pipeline errors."""


class InvalidKernelError(BandPointerError):
    """Convolution kernel violates its contract (non-positive sum, even size)."""


class NumericError(BandPointerError):
    """A numeric procedure failed to converge or produced non-finite values."""


class InsufficientCalibrationDataError(BandPointerError):
    """A color class has too few usable calibration pixels."""

    def __init__(self, label: int, count: int, required: int):
        self.label = label
        self.count = count
        self.required = required
        super().__init__(
            f"color class {label} has {count} usable calibration pixels, "
            f"needs {required}"
        )


class TooFewColorClassesError(BandPointerError):
    """A calibration mask labels fewer color classes than a color model needs."""


class MaskMismatchError(BandPointerError, ValueError):
    """A calibration mask's size differs from its image's."""


class ConfigError(BandPointerError):
    """Configuration file is malformed or inconsistent with other inputs."""


class ImageFormatError(BandPointerError, ValueError):
    """An image file is not a supported 8-bit PPM/PGM (or PNG with pillow)."""


class DetectionError(BandPointerError):
    """Base class for detection-stage failures."""


class PointerNotFoundError(DetectionError):
    """A detection stage emptied the candidate region set."""

    def __init__(self, stage: str, detail: str = ""):
        self.stage = stage
        msg = f"pointer not found (stage: {stage})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class InsufficientRegionsError(DetectionError):
    """Fewer than two regions available for centroid line fitting."""


class DegenerateSampleError(BandPointerError):
    """A minimal sample for a line (a point pair, a point set) is degenerate."""


class NoEdgesError(DetectionError):
    """No junction pixels survived the edge-image construction."""


class InsufficientEdgesError(DetectionError):
    """Fewer than two contour point pairs survived filtering (or, in the
    synthetic ground truth, are in view)."""


class AssociationError(BandPointerError):
    """Base class for data-association failures."""


class NoAssociationError(AssociationError):
    """Label alignment found no detected edge compatible with the pattern."""


class InsufficientMatchesError(AssociationError):
    """No alignment supplies the three pairings a homography needs."""


class PoseError(BandPointerError):
    """Base class for pose-estimation failures."""


class DegenerateGeometryError(PoseError):
    """Pointer axis passes through the camera center; contour offset undefined."""


class BehindCameraError(PoseError):
    """A required 3D point has non-positive camera-frame depth."""


class DegenerateInitializationError(PoseError):
    """The linear depth-initialization system is rank deficient."""


class InsufficientCorrespondencesError(PoseError):
    """Fewer than three edge correspondences available for optimization."""


class PoseFailureError(PoseError):
    """Every association hypothesis failed pose estimation."""

    def __init__(self, causes: list[Exception]):
        self.causes = causes
        summary = "; ".join(f"{type(c).__name__}: {c}" for c in causes)
        super().__init__(f"all {len(causes)} hypotheses failed ({summary})")


def _json_floats(value, field: str, listed: bool = False):
    """The float64 value of a JSON number or, when listed, the float64
    array of a list of numbers.

    ValueError names the field (and the index in a list) for a boolean, a
    string, null, a nested list or an integer too large for a float64: no
    field reads a boolean as 1 or 0, nor a number from text.
    """
    if listed and not isinstance(value, (list, tuple, np.ndarray)):
        raise ValueError(f"{field} must be a list of numbers, got {value!r}")
    for i, item in enumerate(value if listed else [value]):
        name = f"{field}[{i}]" if listed else field
        if isinstance(item, bool):
            raise ValueError(f"{name} must not be a boolean, got {json.dumps(item)}")
        if not isinstance(item, numbers.Real):
            shown = "a list" if isinstance(item, (list, tuple)) else repr(item)
            raise ValueError(f"{name} must be a number, got {shown}")
        if isinstance(item, int) and abs(item) > sys.float_info.max:
            raise ValueError(f"{name} is an integer too large for a float64")
    return np.array(value, dtype=np.float64) if listed else float(value)


def _json_int(value, field: str, least: int) -> int:
    """The int value of a whole JSON number >= least (3.0 reads as 3);
    ValueError names the field, as _json_floats does."""
    if not (_json_floats(value, field).is_integer() and value >= least):
        raise ValueError(f"{field} must be an integer >= {least}, got {value!r}")
    return int(value)
