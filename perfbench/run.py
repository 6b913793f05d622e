"""bandpointer benchmark: one command, seeded synthetic inputs, every metric.

    python3 perfbench/run.py --workload frames-grid --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the program from
``src/``. Ops run closed loop in this one process, one op in flight:

* frame workloads: an op is ``load_image`` + ``cli.run_pipeline`` on one
  PPM frame;
* ``junctions-mc``: an op is ``ground_truth_detection`` (0.5 px noise) ->
  ``align_labels_dp`` -> ``associate_ransac`` -> ``estimate_pose``.

Each workload has a fixed scene set; ``--seed`` fixes the order the ops
are issued in and which one warms up. After set-up, one untimed warm-up
op runs, then whole passes over the scene set are timed until
``--seconds`` would be exceeded (at least one pass). Every op must return
a ``PoseEstimate`` with a finite tip and unit direction or raise a
``BandPointerError``; any other exception aborts the run with exit code 3,
and differing poses for the same input between passes print
``"correct": false`` and exit 1.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one pass
where every scene is run untraced and traced back to back (order
alternating), prints the per-layer metrics and writes the spans to
``<work-dir>/traces/``. The last stdout line is the JSON result; the
metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXIT_MISSING_PROGRAM = 2
EXIT_BENCHMARK_ERROR = 3


class CheckError(Exception):
    """An op's output violates the benchmark's output contract."""


@dataclass
class Outcome:
    seconds: float
    estimate: object = None  # PoseEstimate
    error: Exception | None = None  # BandPointerError

    def key(self):
        """What must repeat exactly for the same input."""
        if self.error is not None:
            return (type(self.error).__name__, str(self.error))
        p = self.estimate.pose
        return (p.tip.tobytes(), p.direction.tobytes())


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", default="bench", help="scene-set size (bench or smoke)")
    ap.add_argument("--work-dir", type=Path, default=HERE / ".work",
                    help="frame cache and span files")
    return ap.parse_args(argv)


def import_program():
    src = ROOT / "src"
    if not (src / "bandpointer" / "__init__.py").is_file():
        print(f"error: no bandpointer source under {src}", file=sys.stderr)
        sys.exit(EXIT_MISSING_PROGRAM)
    sys.path.insert(0, str(src))
    import bandpointer

    if Path(bandpointer.__file__).resolve().parent != (src / "bandpointer").resolve():
        print(f"error: bandpointer imported from {bandpointer.__file__}", file=sys.stderr)
        sys.exit(EXIT_MISSING_PROGRAM)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy as np

    import inputs
    import tracing
    from bandpointer import association, cli, imaging, pose, synthetic
    from bandpointer.color_model import calibrate_colors
    from bandpointer.errors import BandPointerError
    from bandpointer.pose import PoseEstimate

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload}", file=sys.stderr)
        return EXIT_BENCHMARK_ERROR
    t_begin = time.perf_counter()
    work = inputs.build(args.workload, inputs.PROFILES[args.profile], args.work_dir / "cache")
    t_inputs = time.perf_counter() - t_begin

    # set-up: what a user pays once before tracking
    setup_times = []
    for _ in range(inputs.SETUP_REPS):
        t0 = time.perf_counter()
        config = cli.Config.from_dict(work.config_data)
        colors = calibrate_colors(work.calib_image, work.calib_mask,
                                  min_saturation=config.detection.s2)
        setup_times.append(time.perf_counter() - t0)

    if args.workload == "junctions-mc":
        def op(item):
            spec_ = item.config.pointer
            det = synthetic.ground_truth_detection(
                item.gt, spec_, noise_px=inputs.MC_NOISE_PX,
                rng=np.random.default_rng(item.noise_seed))
            alignments = association.align_labels_dp(
                [(e.left_label, e.right_label) for e in det.edges], spec_)
            hypotheses = association.associate_ransac(
                det, spec_, alignments, seed=item.config.detection.ransac_seed)
            return pose.estimate_pose(det, hypotheses, item.config.camera, spec_)
    else:
        def op(item):
            return cli.run_pipeline(imaging.load_image(item.path), colors, config)

    def run_op(item, call=lambda f, x: f(x)) -> Outcome:
        t0 = time.perf_counter()
        try:
            estimate = call(op, item)
        except BandPointerError as exc:
            return Outcome(time.perf_counter() - t0, error=exc)
        out = Outcome(time.perf_counter() - t0, estimate=estimate)
        if not isinstance(estimate, PoseEstimate):
            raise CheckError(f"{item.truth.name}: returned {type(estimate).__name__}")
        tip, d = estimate.pose.tip, estimate.pose.direction
        if not (np.all(np.isfinite(tip)) and np.all(np.isfinite(d))
                and abs(np.linalg.norm(d) - 1.0) < 1e-9):
            raise CheckError(f"{item.truth.name}: non-finite tip or non-unit direction")
        return out

    items = work.items
    order = np.random.default_rng(args.seed).permutation(len(items))
    run_op(items[order[0]])  # warm-up, not counted
    mismatches = []

    def same(a: Outcome, b: Outcome, idx: int) -> None:
        if a.key() != b.key():
            mismatches.append(items[idx].truth.name)

    if args.trace:
        tracer = tracing.Tracer()
        facts, untraced_ms = [], []
        for j, idx in enumerate(order):
            for traced in ((False, True) if j % 2 == 0 else (True, False)):
                if traced:
                    t_out = run_op(items[idx], lambda f, x: tracer.run(j, f, x))
                    facts.append(tracing.op_facts(
                        tracer.op_spans(), tracer.op_first, items[idx].truth,
                        t_out.estimate, t_out.error, 1e3 * t_out.seconds))
                    tracer.release()
                else:
                    u_out = run_op(items[idx])
                    untraced_ms.append(1e3 * u_out.seconds)
            same(t_out, u_out, idx)
        tracer.dump(args.work_dir / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        # input generation, timed apart from the ops; junctions-mc renders nothing
        render_ms = (inputs.generation_ms(synthetic.render, work.scenes[:2], work.scene_config)
                     if work.renders else 0.0)
        values = tracing.layer_metrics(
            facts, untraced_ms, render_ms,
            inputs.generation_ms(synthetic.ground_truth, work.scenes, work.scene_config))
        attempted = len(facts)
        failed = sum(f["fail"] is not None for f in facts)
        declared = spec["per_layer"]
    else:
        passes = []
        t_start = time.perf_counter()
        while True:
            p0 = time.perf_counter()
            outs = {int(idx): run_op(items[idx]) for idx in order}
            passes.append(outs)
            now = time.perf_counter()
            if now - t_start + (now - p0) > args.seconds:
                break
        loop_s = time.perf_counter() - t_start
        first = passes[0]
        for later in passes[1:]:
            for idx, out in later.items():
                same(first[idx], out, idx)

        # memory: a cross of grid cells replayed untimed under tracemalloc,
        # which makes an op 2-10x slower, too slow to replay them all
        peaks = []
        tracemalloc.start()
        try:
            for idx in work.cell_ops:
                gc.collect()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                out = run_op(items[idx])
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                same(first[idx], out, idx)
        finally:
            tracemalloc.stop()

        latencies = [1e3 * o.seconds for p in passes for o in p.values()]
        tip_err, dir_err = [], []
        if all(o.estimate is None for o in first.values()):
            raise CheckError("no op returned a pose")
        for idx, out in first.items():
            if out.estimate is not None:
                truth = items[idx].truth
                tip_err.append(float(np.linalg.norm(out.estimate.pose.tip - truth.tip)))
                cos = float(np.clip(out.estimate.pose.direction @ truth.direction, -1.0, 1.0))
                dir_err.append(float(np.degrees(np.arccos(cos))))
        n = len(first)
        values = {
            "setup_s": float(np.median(setup_times)),
            "latency_ms_p50": float(np.percentile(latencies, 50)),
            "latency_ms_p80": float(np.percentile(latencies, 80)),
            "throughput_ops": len(latencies) / loop_s,
            "tip_err_mm_p50": float(np.percentile(tip_err, 50)),
            "tip_err_mm_p90": float(np.percentile(tip_err, 90)),
            "dir_err_deg_p50": float(np.percentile(dir_err, 50)),
            "pose_rate": len(tip_err) / n,
            "good_rate": sum(e <= tracing.GROSS_MM for e in tip_err) / n,
            "peak_mb": max(peaks) / 1e6,
        }
        attempted = len(latencies)
        failed = sum(o.error is not None for p in passes for o in p.values())
        declared = spec["end_to_end"]
        print(f"# {args.workload}: {len(passes)} pass(es) x {n} ops in {loop_s:.1f} s, "
              f"{len(peaks)} ops under tracemalloc; inputs {t_inputs:.1f} s, "
              f"total {time.perf_counter() - t_begin:.1f} s", file=sys.stderr)

    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return EXIT_BENCHMARK_ERROR
    correct = not mismatches
    if mismatches:
        print(f"error: outputs differ between passes for {mismatches}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CheckError as exc:
        print(f"error: output check failed: {exc}", file=sys.stderr)
        sys.exit(EXIT_BENCHMARK_ERROR)
    except Exception:  # noqa: BLE001 - any other exception is a benchmark error
        traceback.print_exc()
        sys.exit(EXIT_BENCHMARK_ERROR)
