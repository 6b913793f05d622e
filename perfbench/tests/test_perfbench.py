"""Self-tests of the benchmark: input determinism, metric names, smoke runs.

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
from bandpointer import synthetic  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE = inputs.PROFILES["smoke"]


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_deterministic(tmp_path, workload):
    a = inputs.build(workload, SMOKE, tmp_path / "a")
    b = inputs.build(workload, SMOKE, tmp_path / "b")
    assert inputs.digest(a) == inputs.digest(b)
    # the memory replay takes one sharp frame or trial 0 of every grid cell
    # at the middle depth or the middle tilt
    names = [a.items[i].truth.name for i in a.cell_ops]
    cells = {re.search(r"d[\d.]+-a[\d.]+-b0", n).group() for n in names}
    assert len(cells) == len(names) == len(SMOKE.depths_mm) + len(SMOKE.tilts_deg) - 1
    assert all(n.endswith("-b0" if a.renders else "-t0") for n in names)
    if a.renders:
        for x, y in zip(a.items, b.items):
            assert x.path.read_bytes() == y.path.read_bytes()


def test_cache_key_follows_renderer_source(tmp_path):
    pkg = Path(synthetic.__file__).parent
    copy = tmp_path / "bandpointer"
    shutil.copytree(pkg, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert inputs.source_digest(copy) == inputs.source_digest(pkg)
    with open(copy / "synthetic.py", "a") as f:
        f.write("\n# changed\n")
    assert inputs.source_digest(copy) != inputs.source_digest(pkg)


def _run(tmp_path, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main([*args, "--profile", "smoke", "--seconds", "0.1",
                         "--work-dir", str(tmp_path)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(tmp_path, workload, trace):
    code, result = _run(tmp_path, "--workload", workload, "--seed", "3", "--trace", str(trace))
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if trace and workload != "junctions-mc":
        assert result["metrics"]["trace.coverage"]["value"] > 0.95


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "frames-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
