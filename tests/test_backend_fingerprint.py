"""Fingerprint of the whole back end against its plain reference form.

Forty junction trials, built like the junctions-mc benchmark builds
them (full-size camera, exact junctions plus 0.5 px noise, 0-4 hidden
edges, the RG and RGB patterns), run through align_labels_dp ->
associate_ransac -> estimate_pose twice: as the package has them, and
with the plain forms of backend_reference patched in. Poses, costs,
hypotheses and errors must keep every bit.
"""

import numpy as np

import backend_reference as reference
from conftest import SIZE_FULL, scene_at, with_hidden

from bandpointer import association, pose, synthetic
from bandpointer.errors import BandPointerError

DEPTHS = np.linspace(400.0, 610.0, 5)
TILTS = np.linspace(0.0, 71.0, 5)
TRIALS_PER_PATTERN = 20


def _trials(specs, camera):
    """(spec, ground truth with hidden edges, noise seed) per trial."""
    trials = []
    for p, spec in enumerate(specs):
        rng = np.random.default_rng(p)
        for k in range(TRIALS_PER_PATTERN):  # 20 of the 25 depth x tilt cells
            depth, tilt = DEPTHS[k % 5], TILTS[(k + k // 5) % 5]
            gt = synthetic.ground_truth(scene_at(spec, camera, depth, tilt, 4.0), camera, SIZE_FULL)
            visible = [e.index for e in gt.visible_edges()]
            hidden = set(rng.choice(visible, size=int(rng.integers(0, 5)), replace=False).tolist())
            trials.append((spec, with_hidden(gt, hidden), 1000 * p + k))
    return trials


def _run(trial, camera):
    """Every back-end output of one trial, as bits, up to the first error."""
    spec, gt, seed = trial
    det = synthetic.ground_truth_detection(
        gt, spec, noise_px=0.5, rng=np.random.default_rng(seed)
    )
    out = {}
    try:
        alignments = association.align_labels_dp(det.side_labels, spec)
        out["alignments"] = repr(alignments)
        hypotheses = association.associate_ransac(det, spec, alignments)
        out["hypotheses"] = [reference.correspondence_bits(c) for c in hypotheses]
        estimate = pose.estimate_pose(det, hypotheses, camera, spec)
        out["estimate"] = reference.estimate_bits(estimate)
    except BandPointerError as exc:
        out["error"] = (type(exc).__name__, str(exc))
    return out


def test_back_end_keeps_reference_bits(monkeypatch, camera_full, skewer_spec, skewer_spec_blue):
    trials = _trials([skewer_spec, skewer_spec_blue], camera_full)
    package = [_run(t, camera_full) for t in trials]

    monkeypatch.setattr(pose, "init_depths_linear", reference.init_depths_linear)
    monkeypatch.setattr(pose, "refine_pose_lm", reference.refine_pose_lm)
    monkeypatch.setattr(association, "_match_table", reference._match_table)
    monkeypatch.setattr(association, "_prefix_scores", reference._prefix_scores)
    plain = [_run(t, camera_full) for t in trials]

    # the comparison covers posed trials and ties between hypotheses
    posed = [out for out in package if "estimate" in out]
    assert len(trials) == 40 and len(posed) >= 36
    assert sum(len(out["hypotheses"]) > 1 for out in posed) >= 5
    for trial, got, want in zip(trials, package, plain):
        assert got == want, f"trial with noise seed {trial[2]}"
