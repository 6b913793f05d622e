"""The package's export list, the imports README shows, and the frozen
stage inputs."""

import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from test_cli import make_config_dict

import bandpointer
from bandpointer.cli import Config
from bandpointer.pose import PointerPose
from bandpointer.synthetic import EdgeGroundTruth, GroundTruth


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
