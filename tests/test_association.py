"""Tests for label alignment, 1D homographies and association RANSAC."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import backend_reference as reference
from backend_reference import _labels_match
from test_acceptance import _random_instance

from bandpointer.association import (
    Homography1D,
    PointerEdge,
    PointerSpec,
    _fit_homographies,
    _match_table,
    _prefix_scores,
    _reciprocal_matches,
    align_labels_dp,
    associate_ransac,
    fit_homography_1d,
)
from bandpointer.detection import DetectionResult, EdgePointPair
from bandpointer.errors import (
    DegenerateSampleError,
    InsufficientMatchesError,
    NoAssociationError,
)
from bandpointer.geometry import Line2D

RED, GREEN, BLUE = 1, 2, 3


def make_spec(distances, band_labels, total_length=None, radius=1.5):
    if total_length is None:
        total_length = distances[-1] + 10.0
    side_labels = [
        (band_labels[i], band_labels[i + 1]) for i in range(len(distances))
    ]
    return PointerSpec(
        edges=tuple(PointerEdge(d, radius) for d in distances),
        side_labels=tuple(side_labels),
        total_length_mm=total_length,
    )


@pytest.fixture
def alternating_spec():
    # irregular spacings keep the pattern distinct from its reversal
    distances = [20.0, 50.0, 66.0, 98.0, 120.0, 151.0, 163.0, 190.0]
    bands = [RED, GREEN, RED, GREEN, RED, GREEN, RED, GREEN, RED]
    return make_spec(distances, bands, total_length=210.0)


@pytest.fixture
def anchored_spec():
    # one blue band disambiguates orientation at the label level
    distances = [20.0, 50.0, 66.0, 98.0, 120.0, 151.0, 163.0, 190.0]
    bands = [RED, GREEN, RED, BLUE, RED, GREEN, RED, GREEN, RED]
    return make_spec(distances, bands, total_length=210.0)


@pytest.fixture
def cyclic3_spec():
    # R->G->B->R ordering never appears reversed, even with gaps
    distances = [20.0, 50.0, 66.0, 98.0, 120.0, 151.0]
    bands = [RED, GREEN, BLUE, RED, GREEN, BLUE, RED]
    return make_spec(distances, bands, total_length=170.0)


def detection_from(points_and_labels, line=None):
    """Build a DetectionResult from (t, left, right) triples on a line."""
    if line is None:
        line = Line2D(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    edges = []
    for t, left, right in sorted(points_and_labels):
        mid = line.at(t)
        offset = np.array([-line.direction[1], line.direction[0]]) * 4.0
        edges.append(
            EdgePointPair(
                p_a=mid - offset,
                p_b=mid + offset,
                left_label=left,
                right_label=right,
                axis_coordinate=float(t),
            )
        )
    return DetectionResult(edges=edges, line=line)


class TestPointerSpec:
    def test_reversal_symmetric_labels_and_spacing_rejected(self):
        # [R,G,R] with even spacing reads identically from both ends
        with pytest.raises(ValueError, match="reversal"):
            make_spec([10.0, 20.0], [RED, GREEN, RED], total_length=30.0)

    def test_reversal_broken_by_spacing_accepted(self, alternating_spec):
        assert len(alternating_spec.edges) == 8

    def test_adjacent_same_color_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            make_spec([10.0, 20.0], [RED, RED, GREEN])

    def test_nonincreasing_distances_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            make_spec([20.0, 20.0], [RED, GREEN, RED])

    def test_adjacency_pairs(self, alternating_spec):
        assert alternating_spec.adjacent_label_pairs() == {frozenset((RED, GREEN))}


class TestHomography1D:
    def test_identity_from_three_points(self):
        h = fit_homography_1d([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
        assert h.map_mm(5.0) == pytest.approx(5.0, abs=1e-9)

    def test_projective_example(self):
        # solves to b = 100 t / (t + 1)
        h = fit_homography_1d([(0.0, 0.0), (1.0, 50.0), (3.0, 75.0)])
        assert h.map_mm(4.0) == pytest.approx(80.0, abs=1e-9)
        for t, b in [(0.0, 0.0), (1.0, 50.0), (3.0, 75.0)]:
            assert h.map_mm(t) == pytest.approx(b, abs=1e-6)

    def test_repeated_coordinate_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            fit_homography_1d([(0.0, 0.0), (1.0, 1.0), (1.0, 2.0)])
        with pytest.raises(DegenerateSampleError):
            fit_homography_1d([(0.0, 0.0), (1.0, 2.0), (2.0, 2.0)])

    def test_inverse(self):
        h = fit_homography_1d([(0.0, 0.0), (1.0, 50.0), (3.0, 75.0)])
        for b in (10.0, 40.0, 70.0):
            assert h.map_mm(h.inverse_mm(b)) == pytest.approx(b, abs=1e-9)

    def test_monotonicity_detection(self):
        h = Homography1D(a=1.0, c=0.0, g=-0.1)  # pole at t = 10
        assert h.monotone_over(0.0, 5.0)
        assert not h.monotone_over(5.0, 15.0)

    def test_composition_recovery(self):
        # points transformed by a known projective map refit exactly
        inner = Homography1D(a=2.0, c=5.0, g=0.01)
        t = np.array([0.0, 10.0, 30.0])
        b = np.array([12.0, 80.0, 160.0])
        warped = [(float(inner.map_mm(ti)), float(bi)) for ti, bi in zip(t, b)]
        h = fit_homography_1d(warped)
        for (tw, bw) in warped:
            assert h.map_mm(tw) == pytest.approx(bw, rel=1e-6)


def brute_force_alignments(detected, spec_labels):
    """Oracle: enumerate every monotone pairing, keep max score."""

    def match(d, s):
        dl, dr = d
        sl, sr = s
        if dl is None and dr is None:
            return False
        if dl is not None and dl != sl:
            return False
        if dr is not None and dr != sr:
            return False
        return True

    n, m = len(detected), len(spec_labels)
    best_score = 0
    best_sets = set()
    for size in range(min(n, m), 0, -1):
        for det_idx in itertools.combinations(range(n), size):
            for spec_idx in itertools.combinations(range(m), size):
                if all(
                    match(detected[d], spec_labels[s])
                    for d, s in zip(det_idx, spec_idx)
                ):
                    if size > best_score:
                        best_score = size
                        best_sets = set()
                    if size == best_score:
                        best_sets.add(tuple(zip(det_idx, spec_idx)))
        if best_score >= size:
            break
    return best_score, best_sets


LABELS = st.sampled_from([None, RED, GREEN, BLUE])


@st.composite
def label_instances(draw):
    """A spec and detected side labels: random, or a window of the pattern
    read in either direction with sides hidden or recolored."""
    n_spec = draw(st.integers(1, 7))
    bands = [draw(LABELS)]
    for _ in range(n_spec):
        bands.append(draw(LABELS.filter(lambda c: c is None or c != bands[-1])))
    spacings = draw(st.lists(st.integers(5, 40), min_size=n_spec, max_size=n_spec))
    try:
        spec = make_spec(list(np.cumsum(spacings, dtype=float)), bands)
    except ValueError:  # indistinguishable from its reversal
        reject()
    if draw(st.booleans()):
        return spec, draw(st.lists(st.tuples(LABELS, LABELS), min_size=1, max_size=6))
    lo = draw(st.integers(0, n_spec - 1))
    detected = list(spec.side_labels[lo:draw(st.integers(lo + 1, n_spec))])
    if draw(st.booleans()):
        detected = [(r, l) for l, r in reversed(detected)]
    for k, (left, right) in enumerate(detected):
        change = draw(st.sampled_from(["keep", "hide-left", "hide-right", "hide-both", "recolor"]))
        if change in ("hide-left", "hide-both"):
            left = None
        if change in ("hide-right", "hide-both"):
            right = None
        if change == "recolor":
            left = draw(LABELS)
        detected[k] = (left, right)
    return spec, detected


class TestAlignLabelsDp:
    def test_full_sequence_identity(self, alternating_spec):
        detected = list(alternating_spec.side_labels)
        alignments = align_labels_dp(detected, alternating_spec)
        assert all(a.score == len(detected) for a in alignments)
        identity = tuple((i, i) for i in range(len(detected)))
        assert any(a.pairs == identity and a.orientation == "forward" for a in alignments)

    def test_interior_window_matches_oracle(self, alternating_spec):
        detected = list(alternating_spec.side_labels[3:7])
        alignments = align_labels_dp(detected, alternating_spec)
        fwd = [a for a in alignments if a.orientation == "forward"]
        oracle_score, oracle_sets = brute_force_alignments(
            detected, list(alternating_spec.side_labels)
        )
        assert fwd[0].score == oracle_score
        produced = set(fwd[0].pairs)
        assert produced == set().union(*oracle_sets)
        # the true window alignment lies in it
        assert {(k, k + 3) for k in range(4)} <= produced

    def test_reversed_subsequence_selects_reversed(self, cyclic3_spec):
        window = list(cyclic3_spec.side_labels[1:5])
        detected = [(r, l) for (l, r) in reversed(window)]
        alignments = align_labels_dp(detected, cyclic3_spec)
        assert all(a.orientation == "reversed" for a in alignments)
        expected = tuple((k, 4 - k) for k in range(4))
        assert any(a.pairs == expected for a in alignments)

    def test_reversed_alignment_matches_oracle(self, alternating_spec):
        window = list(alternating_spec.side_labels[2:6])
        detected = [(r, l) for (l, r) in reversed(window)]
        reversed_spec = [(r, l) for (l, r) in reversed(alternating_spec.side_labels)]
        oracle_score, _ = brute_force_alignments(detected, reversed_spec)
        alignments = align_labels_dp(detected, alternating_spec)
        assert alignments[0].score == oracle_score

    def test_undefined_sides_align_but_score_nothing(self, alternating_spec):
        detected = [(RED, GREEN), (None, None), (RED, GREEN)]
        alignments = align_labels_dp(detected, alternating_spec)
        # only the two labeled edges can contribute
        assert alignments[0].score == 2
        for a in alignments:
            assert all(d != 1 for d, _ in a.pairs)

    def test_one_sided_labels_count_as_match(self, alternating_spec):
        detected = [(RED, None), (GREEN, RED)]
        alignments = align_labels_dp(detected, alternating_spec)
        assert alignments[0].score == 2

    def test_no_match_raises(self, alternating_spec):
        with pytest.raises(NoAssociationError):
            align_labels_dp([(BLUE, None)], alternating_spec)

    def test_every_optimal_pair_covered(self, alternating_spec):
        # ambiguous alternating labels: many optimal alignments
        detected = list(alternating_spec.side_labels[0:3])
        alignments = align_labels_dp(detected, alternating_spec)
        fwd = [a for a in alignments if a.orientation == "forward"]
        _, oracle_sets = brute_force_alignments(
            detected, list(alternating_spec.side_labels)
        )
        oracle_pairs = set().union(*oracle_sets)
        covered = set().union(*(set(a.pairs) for a in fwd))
        assert covered == oracle_pairs

    @given(label_instances())
    # an orientation tie, and a reversed window read from the tail
    @example((make_spec([20.0, 50.0, 66.0], [RED, GREEN, RED, GREEN]), [(RED, GREEN)]))
    @example((make_spec([20.0, 50.0, 66.0, 98.0], [RED, GREEN, BLUE, RED, GREEN]),
              [(RED, BLUE), (BLUE, GREEN), (GREEN, RED)]))
    @settings(max_examples=300, deadline=None)
    def test_pairs_are_the_union_of_oracle_alignments(self, instance):
        spec, detected = instance
        labels = list(spec.side_labels)
        m = len(labels)
        # the reversed orientation reads the pattern from the tail, sides swapped
        oracle = {
            "forward": brute_force_alignments(detected, labels),
            "reversed": brute_force_alignments(detected, [(r, l) for l, r in labels[::-1]]),
        }
        best = max(score for score, _ in oracle.values())
        if best == 0:
            with pytest.raises(NoAssociationError):
                align_labels_dp(detected, spec)
            return
        alignments = align_labels_dp(detected, spec)
        assert [a.orientation for a in alignments] == [
            o for o in ("forward", "reversed") if oracle[o][0] == best
        ]
        for a in alignments:
            _, sets = oracle[a.orientation]
            union = set().union(*sets)
            if a.orientation == "reversed":  # back to tip numbering
                union = {(d, m - 1 - j) for d, j in union}
            assert a.score == best
            assert a.pairs == tuple(sorted(union))


def exact_detection(spec, indices, homography, reversed_=False):
    """Detected edges at exactly homography-consistent positions."""
    entries = []
    for i in indices:
        b = spec.edges[i].distance_mm
        t = homography.inverse_mm(b)
        left, right = spec.side_labels[i]
        if reversed_:
            left, right = right, left
        entries.append((-t if reversed_ else t, left, right))
    return detection_from(entries)


class TestAssociateRansac:
    def test_clean_subset_recovers_true_mapping(self, alternating_spec):
        h = Homography1D(a=3.0, c=50.0, g=0.001)
        indices = [0, 2, 3, 4, 6, 7]
        det = exact_detection(alternating_spec, indices, h)
        alignments = align_labels_dp(
            [(e.left_label, e.right_label) for e in det.edges], alternating_spec
        )
        hypotheses = associate_ransac(det, alternating_spec, alignments)
        assert all(h2.inlier_flags.sum() == len(indices) for h2 in hypotheses)
        # the true forward mapping ties at the maximum; ambiguous
        # alternating patterns leave the final pick to the pose stage
        true_pairs = list(enumerate(indices))
        assert any(h2.pairs == true_pairs for h2 in hypotheses)

    def test_anchored_subset_single_hypothesis(self, anchored_spec):
        h = Homography1D(a=3.0, c=50.0, g=0.001)
        indices = [1, 2, 3, 4, 6, 7]
        det = exact_detection(anchored_spec, indices, h)
        alignments = align_labels_dp(
            [(e.left_label, e.right_label) for e in det.edges], anchored_spec
        )
        hypotheses = associate_ransac(det, anchored_spec, alignments)
        assert len(hypotheses) == 1
        winner = hypotheses[0]
        assert [s for _, s in winner.pairs] == indices
        assert winner.inlier_flags.sum() == len(indices)

    def test_spurious_edge_not_inlier(self, anchored_spec):
        h = Homography1D(a=3.0, c=50.0, g=0.001)
        indices = [0, 1, 2, 3, 4, 5, 6, 7]
        det = exact_detection(anchored_spec, indices, h)
        # inject an off-pattern spurious edge between edges 3 and 4
        t_spur = 0.5 * (det.edges[3].axis_coordinate + det.edges[4].axis_coordinate)
        spur = detection_from([(t_spur, RED, GREEN)]).edges[0]
        edges = sorted(det.edges + [spur], key=lambda e: e.axis_coordinate)
        det_with_spur = DetectionResult(edges=edges, line=det.line)
        alignments = align_labels_dp(
            [(e.left_label, e.right_label) for e in det_with_spur.edges],
            anchored_spec,
        )
        hypotheses = associate_ransac(det_with_spur, anchored_spec, alignments)
        spur_idx = next(i for i, e in enumerate(edges) if e is spur)
        best = hypotheses[0]
        assert best.inlier_flags.sum() == len(indices)
        assert not best.inlier_flags[spur_idx]

    def test_three_detections_trivial(self, alternating_spec):
        h = Homography1D(a=2.0, c=10.0, g=0.0)
        det = exact_detection(alternating_spec, [1, 2, 3], h)
        alignments = align_labels_dp(
            [(e.left_label, e.right_label) for e in det.edges], alternating_spec
        )
        hypotheses = associate_ransac(det, alternating_spec, alignments)
        assert max(h2.inlier_flags.sum() for h2 in hypotheses) == 3

    def test_fewer_than_three_matches_raises(self, alternating_spec):
        det = detection_from([(0.0, RED, GREEN), (10.0, GREEN, RED)])
        alignments = align_labels_dp(
            [(e.left_label, e.right_label) for e in det.edges], alternating_spec
        )
        with pytest.raises(InsufficientMatchesError):
            associate_ransac(det, alternating_spec, alignments)

    def test_reversed_detection_recovered(self, anchored_spec):
        h = Homography1D(a=3.0, c=40.0, g=0.0005)
        indices = [1, 2, 3, 5, 6]
        det = exact_detection(anchored_spec, indices, h, reversed_=True)
        alignments = align_labels_dp(
            [(e.left_label, e.right_label) for e in det.edges], anchored_spec
        )
        hypotheses = associate_ransac(det, anchored_spec, alignments)
        best = hypotheses[0]
        assert best.orientation == "reversed"
        assert sorted(s for _, s in best.pairs) == indices

    def test_scale_invariant_inlier_count(self, alternating_spec):
        h = Homography1D(a=3.0, c=50.0, g=0.001)
        indices = [0, 2, 3, 5, 6, 7]
        det = exact_detection(alternating_spec, indices, h)
        labels = [(e.left_label, e.right_label) for e in det.edges]
        alignments = align_labels_dp(labels, alternating_spec)
        base = associate_ransac(det, alternating_spec, alignments)

        scaled_edges = []
        for e in det.edges:
            scaled_edges.append(
                EdgePointPair(
                    p_a=e.p_a * 3.7,
                    p_b=e.p_b * 3.7,
                    left_label=e.left_label,
                    right_label=e.right_label,
                    axis_coordinate=e.axis_coordinate * 3.7,
                )
            )
        det_scaled = DetectionResult(edges=scaled_edges, line=det.line)
        scaled = associate_ransac(det_scaled, alternating_spec, alignments)
        assert (
            scaled[0].inlier_flags.sum() == base[0].inlier_flags.sum()
        )
        assert scaled[0].pairs == base[0].pairs

    def test_every_edge_seen_matches_reference(self, alternating_spec):
        h = Homography1D(a=3.0, c=50.0, g=0.001)
        det = exact_detection(alternating_spec, range(8), h)
        got = _assert_same_hypotheses(det, alternating_spec)
        assert any(hyp.pairs == [(k, k) for k in range(8)] for hyp in got)
        assert all(hyp.inlier_flags.all() for hyp in got)

    def test_noiseless_projective_image_all_triplets_agree(self, anchored_spec):
        # every exhaustive triplet reaches all-inlier status and they agree
        h = Homography1D(a=2.5, c=30.0, g=0.0008)
        indices = list(range(8))
        det = exact_detection(anchored_spec, indices, h)
        alignments = align_labels_dp(
            [(e.left_label, e.right_label) for e in det.edges], anchored_spec
        )
        hypotheses = associate_ransac(det, anchored_spec, alignments)
        assert len(hypotheses) == 1
        assert hypotheses[0].inlier_flags.all()


def _fit_reference(pairs):
    """The one-triplet fit, solved alone; None for a degenerate triplet."""
    t = np.array([p[0] for p in pairs], dtype=np.float64)
    b = np.array([p[1] for p in pairs], dtype=np.float64)
    if len(np.unique(t)) < 3 or len(np.unique(b)) < 3:
        return None
    m = np.column_stack([t, np.ones(3), -b * t])
    try:
        a, c, g = np.linalg.solve(m, b)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite([a, c, g])):
        return None
    return Homography1D(a=float(a), c=float(c), g=float(g))


def _inliers_reference(h, t, labels, spec, reversed_flag):
    """Reciprocal nearest neighbors with consistent labels, one at a time."""
    mm = (h.a * t + h.c) / (h.g * t + 1.0)
    if not np.all(np.isfinite(mm)):
        return []
    b = spec.distances_mm
    nearest_spec = [int(np.argmin(np.abs(x - b))) for x in mm]
    nearest_det = [int(np.argmin(np.abs(mm - y))) for y in b]
    return [
        (k, j)
        for k, j in enumerate(nearest_spec)
        if nearest_det[j] == k
        and _labels_match(labels[k], spec.side_labels[j], reversed_flag)
    ]


def _associate_reference(result, spec, alignments):
    """Per-triplet loop form of associate_ransac: every triplet, same rules.

    Returns (orientation, pairs, inlier flags, homography) per hypothesis.
    """
    t_coords = np.array([e.axis_coordinate for e in result.edges], dtype=np.float64)
    labels = [(e.left_label, e.right_label) for e in result.edges]
    t_lo, t_hi = float(t_coords.min()), float(t_coords.max())
    b = spec.distances_mm
    pools = {}
    for al in alignments:
        pool = pools.setdefault(al.orientation, [])
        for pair in al.pairs:
            if pair not in pool:
                pool.append(pair)
    if not pools or max(len(p) for p in pools.values()) < 3:
        raise InsufficientMatchesError("no alignment orientation supplies three pairings")
    best, best_count = {}, 0
    for orientation in ("forward", "reversed"):
        pairs = sorted(pools.get(orientation, []))
        if len(pairs) < 3:
            continue
        reversed_flag = orientation == "reversed"
        direction = -1 if reversed_flag else 1
        triplets = [
            trip
            for trip in itertools.combinations(pairs, 3)
            if len({d for d, _ in trip}) == 3
            and len({s for _, s in trip}) == 3
            and np.all(np.diff([s for _, s in sorted(trip)]) * direction > 0)
        ]
        for trip in triplets:
            h = _fit_reference([(t_coords[d], b[s]) for d, s in trip])
            if h is None:
                continue
            if h.g == 0.0:
                monotone = h.a != 0.0
            else:
                monotone = not (min(t_lo, t_hi) <= -1.0 / h.g <= max(t_lo, t_hi))
            if not monotone:
                continue
            matches = _inliers_reference(h, t_coords, labels, spec, reversed_flag)
            if len(matches) < best_count or len(matches) < 3:
                continue
            if np.any(np.diff([s for _, s in sorted(matches)]) * direction <= 0):
                continue
            if len(matches) > best_count:
                best_count, best = len(matches), {}
            key = (orientation, tuple(sorted(matches)))
            if key not in best:
                flags = [any(k == m for m, _ in matches) for k in range(len(t_coords))]
                best[key] = (orientation, sorted(matches), flags, h)
    if not best:
        raise InsufficientMatchesError("no hypothesis reached three inliers")
    ordered = sorted(best.items(), key=lambda kv: (kv[0][0] != "forward", kv[0][1]))
    return [v for _, v in ordered]


def _assert_same_hypotheses(det, spec, seed=0):
    labels = [(e.left_label, e.right_label) for e in det.edges]
    try:
        alignments = align_labels_dp(labels, spec)
    except NoAssociationError:
        return None
    try:
        ref = _associate_reference(det, spec, alignments)
    except InsufficientMatchesError as exc:
        with pytest.raises(InsufficientMatchesError, match=str(exc)):
            associate_ransac(det, spec, alignments, seed)
        return None
    got = associate_ransac(det, spec, alignments, seed)
    assert len(got) == len(ref)
    for hyp, (orientation, pairs, flags, h) in zip(got, ref):
        assert hyp.orientation == orientation
        assert hyp.pairs == pairs
        assert hyp.inlier_flags.tolist() == flags
        bits = np.array([hyp.homography.a, hyp.homography.c, hyp.homography.g]).tobytes()
        assert bits == np.array([h.a, h.c, h.g]).tobytes()
    return got


class TestAssociateRansacEquivalence:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([None, 0.5, 4.0]))
    @settings(max_examples=80, deadline=None)
    def test_random_instances_match_reference(self, seed, grid):
        spec, det = _random_instance(np.random.default_rng(seed))
        if grid is not None:  # repeated axis coordinates: degenerate triplets
            for e in det.edges:
                e.axis_coordinate = grid * round(e.axis_coordinate / grid)
        _assert_same_hypotheses(det, spec, seed)

    @given(
        st.lists(st.integers(0, 7), min_size=3, max_size=5, unique=True),
        st.floats(1.0, 4.0),
        st.floats(-0.001, 0.001),
        st.booleans(),
    )
    @example([1, 2, 3], 2.0, 0.0, False)
    @settings(max_examples=60, deadline=None)
    def test_orientation_ties_match_reference(self, indices, a, g, reversed_):
        # few edges of an alternating pattern fit both orientations
        distances = [20.0, 50.0, 66.0, 98.0, 120.0, 151.0, 163.0, 190.0]
        bands = [RED, GREEN, RED, GREEN, RED, GREEN, RED, GREEN, RED]
        spec = make_spec(distances, bands, total_length=210.0)
        h = Homography1D(a=a, c=10.0, g=g)
        det = exact_detection(spec, sorted(indices), h, reversed_=reversed_)
        _assert_same_hypotheses(det, spec)

    def test_clutter_scores_every_triplet(self):
        # the README's 10-junction red/green pattern, every junction seen,
        # plus two spurious junctions in each of three gaps that keep the
        # colors alternating: 3768 triplets per orientation, and more tied
        # hypotheses than a sample of 1000 of them finds
        spec = make_spec([22.0, 47.0, 67.0, 95.0, 116.0, 142.0, 162.0, 186.0, 209.0, 231.0],
                         [RED, GREEN] * 5 + [RED], total_length=251.0)
        det = exact_detection(spec, range(10), Homography1D(a=3.0, c=50.0, g=0.001))
        entries = [(e.axis_coordinate, e.left_label, e.right_label) for e in det.edges]
        for i in (0, 2, 4):
            t0, t1 = entries[i][0], entries[i + 1][0]
            tip_side, tail_side = entries[i][1:]
            entries += [(t0 + 0.3 * (t1 - t0), tail_side, tip_side),
                        (t0 + 0.6 * (t1 - t0), tip_side, tail_side)]
        det = detection_from(entries)
        got = [_assert_same_hypotheses(det, spec, seed) for seed in (0, 5)]
        assert len(got[0]) == 6
        for a, b in zip(*got, strict=True):
            assert (a.orientation, a.pairs) == (b.orientation, b.pairs)
            assert a.inlier_flags.tolist() == b.inlier_flags.tolist()
            assert a.homography == b.homography

    def test_orientation_tie_keeps_both(self, alternating_spec):
        det = exact_detection(alternating_spec, [1, 2, 3], Homography1D(a=2.0, c=10.0, g=0.0))
        got = _assert_same_hypotheses(det, alternating_spec)
        assert {hyp.orientation for hyp in got} == {"forward", "reversed"}

    @given(
        st.lists(st.lists(st.integers(0, 12), min_size=4, max_size=4), min_size=1, max_size=5),
        st.lists(st.integers(0, 12), min_size=2, max_size=5, unique=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_reciprocal_matches_break_ties_to_the_first(self, rows, b):
        # integer positions put detections midway between edges and at
        # equal distance from one edge
        mm = np.array(rows, dtype=np.float64)
        b = np.array(sorted(b), dtype=np.float64)
        label_ok = np.ones((mm.shape[1], len(b)), dtype=bool)
        matched, nearest = _reciprocal_matches(mm, b, label_ok)
        for row, got_matched, got_nearest in zip(mm, matched, nearest):
            nearest_spec = [int(np.argmin(np.abs(x - b))) for x in row]
            nearest_det = [int(np.argmin(np.abs(row - y))) for y in b]
            assert got_nearest.tolist() == nearest_spec
            assert got_matched.tolist() == [nearest_det[j] == k for k, j in enumerate(nearest_spec)]

    def test_shadowed_inlier_leaves_two(self):
        # a label-less twin at the same axis coordinate comes first, takes
        # the nearest-neighbor slot of spec edge 0 and matches no label:
        # the only triplet keeps two inliers, which is not a hypothesis
        spec = make_spec([20.0, 50.0, 66.0], [RED, GREEN, BLUE, RED], 80.0)
        det = detection_from([(0.0, RED, RED), (0.0, RED, GREEN), (10.0, GREEN, BLUE),
                              (20.0, BLUE, RED)])
        assert _assert_same_hypotheses(det, spec) is None
        alignments = align_labels_dp([(e.left_label, e.right_label) for e in det.edges], spec)
        with pytest.raises(InsufficientMatchesError, match="three inliers"):
            associate_ransac(det, spec, alignments)

    def test_singular_triplet_skipped(self):
        # t = (1, 2, 3) against b = (4, 7, 8): b = 10 - 6 / t makes the
        # system [t, 1, -b t] exactly singular, failing its whole chunk
        spec = make_spec([4.0, 7.0, 8.0, 20.0], [RED, GREEN, RED, GREEN, RED], 30.0)
        with pytest.raises(DegenerateSampleError, match="singular"):
            fit_homography_1d([(1.0, 4.0), (2.0, 7.0), (3.0, 8.0)])
        t = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 10.0]])
        b = np.array([[4.0, 7.0, 8.0], [4.0, 7.0, 20.0]])
        _, status = _fit_homographies(t, b)
        assert status.tolist() == [2, 0]
        det = detection_from([(1.0, RED, GREEN), (2.0, GREEN, RED), (3.0, RED, GREEN),
                              (10.0, GREEN, RED)])
        _assert_same_hypotheses(det, spec)


_LABEL_PAIRS = st.lists(
    st.tuples(st.sampled_from([None, RED, GREEN, BLUE]), st.sampled_from([None, RED, GREEN, BLUE])),
    max_size=12,
)


class TestAlignmentTablesEquivalence:
    """The label table and the DP score table equal their per-cell
    reference forms."""

    @given(arrays(bool, st.tuples(st.integers(0, 12), st.integers(0, 12))))
    @settings(max_examples=300, deadline=None)
    def test_prefix_scores(self, ok):
        table = _prefix_scores(ok)
        ref = reference._prefix_scores(ok)
        assert table.dtype == ref.dtype and table.shape == ref.shape
        assert table.tobytes() == ref.tobytes()
        reversed_table = _prefix_scores(ok[::-1, ::-1])
        assert reversed_table.tobytes() == reference._prefix_scores(ok[::-1, ::-1]).tobytes()

    @given(_LABEL_PAIRS, _LABEL_PAIRS.filter(len), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_match_table(self, detected, spec_labels, reversed_flag):
        table = _match_table(detected, spec_labels, reversed_flag)
        ref = reference._match_table(detected, spec_labels, reversed_flag)
        assert table.dtype == ref.dtype and table.shape == ref.shape
        assert table.tobytes() == ref.tobytes()
