"""The package's export list, the imports README shows, the frozen
stage inputs and how its value types compare."""

import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import kde_lut
from test_cli import make_config_dict

import bandpointer
from bandpointer.association import Alignment, Correspondence, Homography1D, PointerSpec
from bandpointer.cli import Config
from bandpointer.color_model import ColorClassSet
from bandpointer.detection import DetectionParams, DetectionResult, EdgePointPair
from bandpointer.geometry import Line2D, OrientedBox
from bandpointer.imaging import DistortionModel, RasterImage, Region
from bandpointer.pose import CameraModel, PointerPose, PoseEstimate
from bandpointer.synthetic import (
    Distractor,
    EdgeGroundTruth,
    GroundTruth,
    HighlightStripe,
    Occluder,
    SceneSpec,
    SweepCell,
)


def test_every_export_resolves():
    missing = [name for name in bandpointer.__all__ if not hasattr(bandpointer, name)]
    assert missing == []
    assert len(set(bandpointer.__all__)) == len(bandpointer.__all__)


def test_star_import_binds_the_export_list():
    namespace: dict = {}
    exec("from bandpointer import *", namespace)
    assert set(bandpointer.__all__) <= set(namespace)


def _readme_import_statements() -> list[str]:
    """Every import statement in README's python code blocks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    return [
        ast.unparse(node)
        for block in blocks
        for node in ast.parse(block).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_readme_imports_resolve():
    statements = _readme_import_statements()
    assert any(s.startswith("from bandpointer import ") for s in statements)
    failures = []
    for statement in statements:
        try:
            exec(statement, {})
        except ImportError as exc:
            failures.append(f"{statement}: {exc}")
    assert failures == []



EDGE = EdgeGroundTruth(index=0, p_a=np.zeros(2), p_b=np.ones(2), visible=True)
TRUTH = GroundTruth(edges=[EDGE], pose=PointerPose(tip=np.zeros(3), direction=[1.0, 0.0, 0.0]))


@pytest.mark.parametrize(
    "instance, field",
    [(Config.from_dict(make_config_dict()), "detection"), (TRUTH, "edges"), (EDGE, "visible")],
    ids=["config", "ground-truth", "edge-ground-truth"],
)
def test_stage_inputs_are_frozen(instance, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(instance, field, getattr(instance, field))


def test_ground_truth_stores_its_edges_as_a_tuple():
    assert isinstance(TRUTH.edges, tuple) and TRUTH.edges[0] is EDGE


def _config():
    return Config.from_dict(make_config_dict())


# a fresh instance of each frozen dataclass per call, built from the same values
VALUES = {
    PointerSpec: lambda: _config().pointer,
    Homography1D: lambda: Homography1D(a=2.0, c=10.0, g=0.001),
    Alignment: lambda: Alignment("forward", ((0, 0), (1, 1)), 2),
    Correspondence: lambda: Correspondence([(0, 0), (1, 1)], VALUES[Homography1D](), "forward"),
    Config: _config,
    ColorClassSet: lambda: ColorClassSet(labels=(1, 2), luts=[kde_lut(0.8), kde_lut(1.3)]),
    DetectionParams: DetectionParams,
    EdgePointPair: lambda: EdgePointPair(np.zeros(2), np.ones(2), 1, 2, 0.5),
    DetectionResult: lambda: DetectionResult([VALUES[EdgePointPair]()], VALUES[Line2D]()),
    Line2D: lambda: Line2D(np.zeros(2), np.array([1.0, 0.0])),
    OrientedBox: lambda: OrientedBox(np.zeros(2), np.eye(2), np.ones(2)),
    RasterImage: lambda: RasterImage(np.full((2, 2, 3), 0.5)),
    DistortionModel: DistortionModel,
    Region: lambda: Region(np.array([[0, 0], [1, 0]]), label=1),
    CameraModel: lambda: _config().camera,
    PointerPose: lambda: PointerPose(np.zeros(3), np.array([1.0, 0.0, 0.0])),
    PoseEstimate: lambda: PoseEstimate(VALUES[PointerPose](), 0.1, VALUES[Correspondence]()),
    HighlightStripe: lambda: HighlightStripe(10.0, 20.0, 0.5),
    Occluder: lambda: Occluder(0.0, 0.0, 1.0, 1.0),
    Distractor: lambda: Distractor((1.0, 2.0), 3.0, (0.1, 0.2, 0.3)),
    SceneSpec: lambda: SceneSpec(VALUES[PointerPose](), _config().pointer, {1: (0.9, 0.1, 0.1)}),
    EdgeGroundTruth: lambda: EdgeGroundTruth(0, np.zeros(2), np.ones(2), True),
    GroundTruth: lambda: GroundTruth([VALUES[EdgeGroundTruth]()], VALUES[PointerPose]()),
    SweepCell: lambda: SweepCell(400.0, 10.0, VALUES[SceneSpec]()),
}
# the types holding an array compare and hash by identity
HASHABLE = {EdgePointPair, Line2D, OrientedBox, Region, CameraModel, PointerPose,
            EdgeGroundTruth, GroundTruth}
FROZEN = sorted({
    obj
    for info in pkgutil.iter_modules(bandpointer.__path__)
    for obj in vars(importlib.import_module(f"bandpointer.{info.name}")).values()
    if isinstance(obj, type) and dataclasses.is_dataclass(obj)
    and obj.__module__.startswith("bandpointer.") and obj.__dataclass_params__.frozen
}, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_equal_values_compare_without_raising(cls):
    a, b = VALUES[cls](), VALUES[cls]()
    assert type(a) is cls and a is not b
    assert isinstance(a == b, bool) and isinstance(a != b, bool)
    if cls in HASHABLE:
        assert isinstance(hash(a), int) and isinstance(hash(b), int)
