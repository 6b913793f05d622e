"""Exception hierarchy for the tracking pipeline, and the one reader of
its JSON documents: the number and integer rules, the kinds of value a
document's field table declares, and the walker over such a table.

The CLI maps the exceptions onto distinct exit codes, so failure causes
stay separable all the way out of the process.
"""

import json
import math
import sys
from numbers import Real
from typing import Callable, NamedTuple, Optional

import numpy as np


class BandPointerError(Exception):
    """Base class for all pipeline errors."""


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


class ConfigError(BandPointerError, ValueError):
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


class Field(NamedTuple):
    """A row of a JSON document's field table. kind(value, path, doc) reads
    the value at path, doc holding the top-level values read so far. A key
    not required may be left out: its reader's own default applies."""

    key: str
    kind: Callable
    required: bool = True


def number(least: Optional[float] = None) -> Callable:
    """A JSON number, read as a float: not a boolean, text, null or a list
    (no field reads true as 1 nor a number from text), nor an integer too
    large for a float64. With least given, a finite one >= least (-inf:
    any finite one)."""
    def read(value, path, doc=None):
        if isinstance(value, bool):
            raise ConfigError(f"{path} must not be a boolean, got {json.dumps(value)}")
        if not isinstance(value, Real):
            shown = "a list" if isinstance(value, (list, tuple)) else repr(value)
            raise ConfigError(f"{path} must be a number, got {shown}")
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ConfigError(f"{path} is an integer too large for a float64")
        if least is not None and not (math.isfinite(value) and value >= least):
            bound = f" and >= {least:g}" if least > -math.inf else ""
            raise ConfigError(f"{path} must be finite{bound}, got {value!r}")
        return float(value)
    return read


def integer(least: int, most: Optional[int] = None) -> Callable:
    """A whole JSON number in [least, most], read as an int (3.0 reads as 3)."""
    def read(value, path, doc=None):
        if not (number()(value, path).is_integer() and value >= least):
            raise ConfigError(f"{path} must be an integer >= {least}, got {value!r}")
        if most is not None and value > most:
            raise ConfigError(f"{path} must be at most {most}, got {value!r}")
        return int(value)
    return read


def listed(kind: Callable, count: Optional[int] = None) -> Callable:
    """A list of count values of kind; with count None, of at least one."""
    def read(value, path, doc=None):
        if not isinstance(value, (list, tuple, np.ndarray)):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        values = [kind(item, f"{path}[{i}]", doc) for i, item in enumerate(value)]
        if count is None and not values:
            raise ConfigError(f"{path} must not be empty")
        if count is not None and len(values) != count:
            raise ConfigError(f"{path} must hold {count} entries, got {len(values)}")
        return values
    return read


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        name = path or "the document"
        raise ConfigError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def mapping(kind: Callable) -> Callable:
    """A JSON object of any keys, each holding a value of kind."""
    def read(value, path, doc=None):
        items = _object(value, path).items()
        return {key: kind(item, f"{path}.{key}", doc) for key, item in items}
    return read


def name_in(key: str) -> Callable:
    """null, or a key of the document's top-level mapping at key, read as
    the value it maps to."""
    def read(value, path, doc):
        if value is not None and not (isinstance(value, str) and value in doc[key]):
            raise ConfigError(f"{path} must be null or a name in {key}, got {value!r}")
        return None if value is None else doc[key][value]
    return read


def section(*fields: Field, closed: bool = False) -> Callable:
    """A JSON object: the values of the keys fields name, each read by its
    kind at path.key; a closed one holds no other key. A document's field
    table is the section at the empty path, the whole document."""
    known = {f.key for f in fields}

    def read(data, path="", doc=None):
        prefix = f"{path}." if path else ""
        unknown = [key for key in _object(data, path) if key not in known]
        if closed and unknown:
            raise ConfigError(f"{prefix}{unknown[0]} is not a known key")
        values = {}
        for f in fields:
            if f.key in data:
                values[f.key] = f.kind(data[f.key], prefix + f.key, values if doc is None else doc)
            elif f.required:
                raise ConfigError(f"{prefix}{f.key} is missing")
        return values
    return read


def built(path: str, cls, /, **kwargs):
    """cls(**kwargs) for the section at path, whose ValueError (a check
    across the section's fields) is a ConfigError led by the path."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
