"""Spans around the program's public functions, recorded from outside.

For the length of one traced op, every binding of a traced function in
the ``bandpointer`` modules is swapped for a wrapper that records a span:
name, start, end, parent span and op id. Spans stay in memory; ``dump``
writes them out when the run ends. Per-op facts (counts, ratios) are
taken from the wrapped calls' arguments and results right after each op,
outside its timed interval, and the references are then dropped.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bandpointer import errors

MATCH_PX = 2.0  # a detected junction within this of a true one is found
GROSS_MM = 10.0  # a returned tip farther than this from the truth is gross

# (module, function, span name); a callable name is chosen per call
TRACED = [
    ("imaging", "load_image", "imaging.load"),
    ("imaging", "rgb_to_hue_saturation", "imaging.hue_sat"),
    ("imaging", "erode_disk", "imaging.erode"),
    ("imaging", "connected_components", "imaging.components"),
    ("imaging", "convolve_unit_sum", "imaging.convolve"),
    ("color_model", "classify_image_masked",
     lambda t, a: {"detection.pass1": "color_model.classify1",
                   "detection.pass2": "color_model.classify2"}.get(
                       t.parent_name(), "color_model.classify")),
    # the pass-2 region of interest is built for the classifier
    ("geometry", "boxes_mask", "color_model.roi_mask"),
    ("detection", "detect_pointer", "detection.detect_pointer"),
    ("detection", "detect_band_regions",
     lambda t, a: "detection.pass1" if a.get("roi") is None else "detection.pass2"),
    ("detection", "ransac_centroid_line",
     lambda t, a: f"detection.line{t.calls_in_op('detection.line') + 1}"),
    ("detection", "expand_bounding_boxes", "detection.boxes"),
    ("detection", "extract_edge_pairs", "detection.junctions"),
    ("detection", "label_edge_pairs", "detection.labels"),
    ("association", "align_labels_dp", "association.align"),
    ("association", "associate_ransac", "association.ransac"),
    ("pose", "estimate_pose", "pose.estimate"),
    ("pose", "init_depths_linear", "pose.init"),
    ("pose", "refine_pose_lm", "pose.lm"),
    ("cli", "run_pipeline", "cli.run_pipeline"),
    ("synthetic", "ground_truth_detection", "synthetic.gt_detection"),
]
LAYERS = ("imaging", "color_model", "detection", "association", "pose", "cli", "synthetic")
DETECTION_FAIL_STAGES = (
    "pass1-regions", "pass1-line", "pass2-regions", "pass2-line",
    "no-edges", "insufficient-edges", "other",
)


@dataclass
class Span:
    name: str
    parent: int
    op: int
    start_ns: int = 0
    end_ns: int = 0
    call: dict = field(default_factory=dict)  # bound arguments, dropped after the op
    result: object = None
    error: BaseException | str | None = None  # the type name once released

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self.op_first = 0
        self._stack: list[int] = []
        self._bindings = []  # (module, attribute, original, wrapper)
        for mod_name, fn_name, namer in TRACED:
            original = getattr(sys.modules[f"bandpointer.{mod_name}"], fn_name)
            wrapper = self._wrap(original, namer)
            for name, module in list(sys.modules.items()):
                if name == "bandpointer" or name.startswith("bandpointer."):
                    for attr, value in vars(module).items():
                        if value is original:
                            self._bindings.append((module, attr, original, wrapper))

    def parent_name(self) -> str:
        return self.spans[self._stack[-1]].name if self._stack else ""

    def calls_in_op(self, prefix: str) -> int:
        return sum(s.name.startswith(prefix) for s in self.spans[self.op_first:])

    def _wrap(self, fn, namer):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            call = signature.bind(*args, **kwargs).arguments
            name = namer if isinstance(namer, str) else namer(self, call)
            span = Span(name, self._stack[-1] if self._stack else -1, self.op, call=call)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException as exc:
                span.error = exc
                raise
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()

        return wrapper

    def run(self, op_id: int, fn, *args):
        """Call fn(*args) as op `op_id` with every traced function wrapped."""
        self.op = op_id
        self.op_first = len(self.spans)
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        try:
            return fn(*args)
        finally:
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)

    def op_spans(self) -> list[Span]:
        return self.spans[self.op_first:]

    def release(self) -> None:
        """Drop the arguments and results the last op's spans refer to."""
        for span in self.op_spans():
            span.call, span.result = {}, None
            span.error = type(span.error).__name__ if span.error else None

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for sid, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": sid, "op": s.op, "name": s.name, "parent": s.parent,
                    "start_ns": s.start_ns, "end_ns": s.end_ns, "error": s.error,
                }) + "\n")


def _first(spans, name):
    return next((s for s in spans if s.name == name), None)


def _mapping_correct(edges, pairs, truth) -> bool:
    """Every chosen (detected edge, spec edge) pair names the visible true
    junction nearest to that detected edge."""
    for k, j in pairs:
        mid = edges[k].midpoint
        if j != min(truth.junctions, key=lambda i: np.linalg.norm(truth.junctions[i] - mid)):
            return False
    return True


def op_facts(spans: list[Span], first: int, truth, estimate, error, wall_ms: float) -> dict:
    """Timings, counts and outcome of one traced op, from its spans.

    `first` is the tracer index of spans[0]; span parents are tracer indices.
    """
    facts: dict = {"wall_ms": wall_ms, "stage_ms": {}, "self_ms": dict.fromkeys(LAYERS, 0.0)}
    child_ms = [0.0] * len(spans)
    for s in spans:
        facts["stage_ms"][s.name] = facts["stage_ms"].get(s.name, 0.0) + s.ms
        if s.parent >= first:
            child_ms[s.parent - first] += s.ms
    for s, inner in zip(spans, child_ms):
        facts["self_ms"][s.layer] += s.ms - inner
    facts["covered_ms"] = sum(v for k, v in facts["self_ms"].items() if k != "cli")

    counts = facts["counts"] = {}
    for n in (1, 2):
        s = _first(spans, f"detection.pass{n}")
        if s is not None and s.error is None:
            counts[f"regions{n}"] = len(s.result)
        s = _first(spans, f"detection.line{n}")
        if s is not None and s.error is None:
            counts[f"kept{n}"] = len(s.result[1])
            counts[f"line_in{n}"] = len(s.call["regions"])
        s = _first(spans, f"color_model.classify{n}")
        if s is not None:
            hs, roi = s.call["hs"], s.call["roi_mask"]
            gate = hs.hue_valid & (hs.saturation >= s.call["s_min"])
            counts[f"gated{n}"] = int(np.count_nonzero(gate if roi is None else gate & roi))
    s = _first(spans, "imaging.hue_sat")
    if s is not None and s.error is None:
        hs = s.result
        facts["frame_mb"] = (s.call["img"].pixels.nbytes + hs.hue.nbytes + hs.saturation.nbytes
                             + hs.hue_valid.nbytes + hs.value.nbytes) / 1e6
    detector = _first(spans, "detection.detect_pointer")
    source = detector or _first(spans, "synthetic.gt_detection")
    edges = source.result.edges if source is not None and source.error is None else None
    if detector is not None:
        counts["recall_found"] = sum(
            bool(edges) and min(np.linalg.norm(e.midpoint - mid) for e in edges) <= MATCH_PX
            for mid in truth.junctions.values())
        counts["recall_total"] = len(truth.junctions)
        if edges is not None:
            counts["edges"] = len(edges)
    for name, key in (("association.align", "alignments"), ("association.ransac", "hypotheses")):
        s = _first(spans, name)
        if s is not None and s.error is None:
            counts[key] = len(s.result)
    lm = [s for s in spans if s.name == "pose.lm" and s.error is None]
    if lm:
        counts["lm_steps"] = sum(len(s.result.cost_history) - 1 for s in lm)
    if estimate is not None:
        counts["inliers"] = len(estimate.correspondence.pairs)
        facts["rms_px"] = estimate.rms_px
        facts["tip_err_mm"] = float(np.linalg.norm(estimate.pose.tip - truth.tip))
        facts["correct"] = edges is not None and _mapping_correct(
            edges, estimate.correspondence.pairs, truth)
    facts["fail"] = _fail_key(spans, error)
    return facts


def _fail_key(spans, error) -> str | None:
    if error is None:
        return None
    if isinstance(error, errors.DetectionError):
        if isinstance(error, errors.PointerNotFoundError):
            return f"detection.fail.{error.stage}"
        if isinstance(error, errors.NoEdgesError):
            return "detection.fail.no-edges"
        if isinstance(error, errors.InsufficientEdgesError):
            return "detection.fail.insufficient-edges"
        return "detection.fail.other"
    if isinstance(error, errors.AssociationError):
        return "association.fail"
    if isinstance(error, errors.PoseError):
        return "pose.fail"
    # another typed error: charge the outermost stage span that raised it
    raised = [s for s in spans if s.error is not None and s.layer in ("association", "pose")]
    return f"{raised[0].layer}.fail" if raised else "detection.fail.other"


def _median(values) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(facts: list[dict], untraced_ms: list[float],
                  render_ms: float, ground_truth_ms: float) -> dict[str, float]:
    """Per-layer metrics of a traced pass, one `facts` entry per op.

    Stage times are medians over the ops that reached the stage; layer
    self times and counts are means per op; ratios are pooled.
    """
    def stage(*names):
        per_op = [sum(f["stage_ms"][n] for n in names if n in f["stage_ms"]) for f in facts
                  if any(n in f["stage_ms"] for n in names)]
        return _median(per_op)

    def count(key):
        return _mean(f["counts"][key] for f in facts if key in f["counts"])

    def total(key):
        return sum(f["counts"].get(key, 0) for f in facts)

    posed = [f for f in facts if "correct" in f]
    fails = [f["fail"] for f in facts if f["fail"]]
    m = {
        "imaging.load_ms": stage("imaging.load"),
        "imaging.hue_sat_ms": stage("imaging.hue_sat"),
        "imaging.frame_mb": _median(f["frame_mb"] for f in facts if "frame_mb" in f),
        "color_model.classify1_ms": stage("color_model.classify1"),
        "color_model.classify2_ms": stage("color_model.classify2", "color_model.roi_mask"),
        "color_model.gated_px1": count("gated1"),
        "color_model.gated_px2": count("gated2"),
        "detection.pass1_ms": stage("detection.pass1"),
        "detection.line1_ms": stage("detection.line1"),
        "detection.boxes_ms": stage("detection.boxes"),
        "detection.pass2_ms": stage("detection.pass2"),
        "detection.line2_ms": stage("detection.line2"),
        "detection.junctions_ms": stage("detection.junctions"),
        "detection.labels_ms": stage("detection.labels"),
        "detection.regions1": count("regions1"),
        "detection.kept1": count("kept1"),
        "detection.regions2": count("regions2"),
        "detection.kept2": count("kept2"),
        "detection.edges": count("edges"),
        "detection.line_keep_ratio": _ratio(
            total("kept1") + total("kept2"), total("line_in1") + total("line_in2")),
        "detection.edge_recall": _ratio(total("recall_found"), total("recall_total")),
        "association.align_ms": stage("association.align"),
        "association.ransac_ms": stage("association.ransac"),
        "association.alignments": count("alignments"),
        "association.hypotheses": count("hypotheses"),
        "association.inliers": count("inliers"),
        "association.correct_ratio": _ratio(sum(f["correct"] for f in posed), len(posed)),
        "association.fail": float(fails.count("association.fail")),
        "pose.estimate_ms": stage("pose.estimate"),
        "pose.init_ms": stage("pose.init"),
        "pose.lm_ms": stage("pose.lm"),
        "pose.lm_steps": count("lm_steps"),
        "pose.rms_px": _median(f["rms_px"] for f in posed),
        "pose.fail": float(fails.count("pose.fail")),
        "cli.run_pipeline_ms": stage("cli.run_pipeline"),
        "synthetic.render_ms": render_ms,
        "synthetic.ground_truth_ms": ground_truth_ms,
        "outcome.fail_rate": _ratio(len(fails), len(facts)),
        "outcome.gross_rate": _ratio(sum(f["tip_err_mm"] > GROSS_MM for f in posed), len(facts)),
        "trace.coverage": _ratio(sum(f["covered_ms"] for f in facts),
                                 sum(f["wall_ms"] for f in facts)),
        "trace.overhead_pct": 100.0 * (_median(f["wall_ms"] for f in facts)
                                       / _median(untraced_ms) - 1.0),
    }
    for stage_name in DETECTION_FAIL_STAGES:
        m[f"detection.fail.{stage_name}"] = float(fails.count(f"detection.fail.{stage_name}"))
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = _mean(f["self_ms"][layer] for f in facts)
    return m
