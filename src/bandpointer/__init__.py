"""Single-camera 3D tracking of a color-banded pointer."""

from .association import (
    Alignment,
    Correspondence,
    Homography1D,
    PointerSpec,
    align_labels_dp,
    associate_ransac,
)
from .color_model import (
    ColorClassSet,
    calibrate_colors,
    classify_hue,
)
from .detection import (
    DetectionParams,
    DetectionResult,
    EdgePointPair,
    detect_pointer,
)
from .errors import BandPointerError
from .imaging import DistortionModel, RasterImage
from .pose import (
    CameraModel,
    PointerPose,
    PoseEstimate,
    estimate_pose,
    init_depths_linear,
    project_pointer_edges,
    refine_pose_lm,
)
from .synthetic import GroundTruth, SceneSpec, render, sweep

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "BandPointerError",
    "CameraModel",
    "ColorClassSet",
    "Correspondence",
    "DetectionParams",
    "DetectionResult",
    "DistortionModel",
    "EdgePointPair",
    "GroundTruth",
    "Homography1D",
    "PointerPose",
    "PointerSpec",
    "PoseEstimate",
    "RasterImage",
    "SceneSpec",
    "align_labels_dp",
    "associate_ransac",
    "calibrate_colors",
    "classify_hue",
    "detect_pointer",
    "estimate_pose",
    "init_depths_linear",
    "project_pointer_edges",
    "refine_pose_lm",
    "render",
    "sweep",
]
