"""Matching detected band junctions to the pointer's measured junctions.

Label alignment by dynamic programming supplies candidate pairings;
every triplet of them fits a 1D projective map from image-axis
coordinates to millimeters, and the hypotheses with the most
reciprocal-nearest-neighbor inliers are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import InsufficientMatchesError, NoAssociationError

if TYPE_CHECKING:
    from .detection import DetectionResult

LabelPair = tuple[Optional[int], Optional[int]]


@dataclass(frozen=True, eq=False)
class PointerSpec:
    """Measured band pattern of the pointer, tip to tail.

    ``distances_mm[i]`` is junction i's distance from the tip along the
    axis and ``radii_mm[i]`` the pointer's radius there; both are
    read-only float64 arrays. ``band_labels`` holds the color class of
    each of the n + 1 bands the n junctions separate, tip band first;
    ``None`` stands for an uncolored band. ``total_length_mm`` runs from
    the tip to the tail end.
    """

    distances_mm: np.ndarray
    radii_mm: np.ndarray
    band_labels: tuple[Optional[int], ...]
    total_length_mm: float

    def __post_init__(self):
        b = np.array(self.distances_mm, dtype=np.float64)
        w = np.array(self.radii_mm, dtype=np.float64)
        b.flags.writeable = w.flags.writeable = False
        object.__setattr__(self, "distances_mm", b)
        object.__setattr__(self, "radii_mm", w)
        object.__setattr__(self, "band_labels", tuple(self.band_labels))
        if len(b) < 1:
            raise ValueError("pointer needs at least one edge")
        if w.shape != b.shape:
            raise ValueError("one radius per edge required")
        if len(self.band_labels) != len(b) + 1:
            raise ValueError("one band color per band (edges + 1) required")
        if not np.isfinite(np.r_[b, w, self.total_length_mm]).all():
            raise ValueError("edge distances, radii and total length must be finite")
        if b[0] <= 0.0:
            raise ValueError("first edge must sit strictly past the tip")
        spacing = np.diff(b)
        if np.any(spacing <= 0.0):
            raise ValueError("edge distances must be strictly increasing")
        if b[-1] > self.total_length_mm:
            raise ValueError("edges cannot lie past the pointer end")
        if np.any(w <= 0.0):
            raise ValueError("edge radii must be positive")
        for left, right in self.side_labels:
            if left is not None and left == right:
                raise ValueError("adjacent bands must differ in color")
        # neither the colors nor the junction spacings break the symmetry
        if self.band_labels == self.band_labels[::-1] and np.allclose(
            spacing, spacing[::-1], atol=1e-9
        ):
            raise ValueError("band pattern is indistinguishable from its reversal")

    def __reduce__(self):
        # rebuilt through __post_init__, so a copy in a worker process
        # keeps its arrays read-only
        return PointerSpec, (
            self.distances_mm, self.radii_mm, self.band_labels, self.total_length_mm
        )

    @property
    def side_labels(self) -> tuple[LabelPair, ...]:
        """The (tip side, tail side) band colors of each junction."""
        return tuple(zip(self.band_labels[:-1], self.band_labels[1:]))

    def adjacent_label_pairs(self) -> set[frozenset[int]]:
        return {frozenset(pair) for pair in self.side_labels if None not in pair}


def _projective(a, c, g, t):
    """The 1D projective map t -> (a t + c) / (g t + 1); broadcasts."""
    return (a * t + c) / (g * t + 1.0)


def _pole_outside(a, g, t_lo: float, t_hi: float):
    """True where the pole g t + 1 = 0 stays outside [t_lo, t_hi]; a map
    with g = 0 has no pole and is monotone unless a = 0. Broadcasts."""
    flat = g == 0.0
    with np.errstate(over="ignore"):  # a subnormal g puts the pole at infinity
        pole = -1.0 / np.where(flat, 1.0, g)
    inside = (min(t_lo, t_hi) <= pole) & (pole <= max(t_lo, t_hi))
    return np.where(flat, a != 0.0, ~inside)


@dataclass(frozen=True)
class Homography1D:
    """1D projective map t -> (a t + c) / (g t + 1), image px to axis mm."""

    a: float
    c: float
    g: float

    def inverse_mm(self, b) -> np.ndarray | float:
        b = np.asarray(b, dtype=np.float64)
        denom = self.a - self.g * b
        out = (b - self.c) / denom
        return float(out) if out.ndim == 0 else out


def _repeated(x: np.ndarray) -> np.ndarray:
    """Rows of an (n, 3) array holding an entry twice; NaNs count as equal."""
    def same(u, v):
        return (u == v) | (np.isnan(u) & np.isnan(v))

    return same(x[:, 0], x[:, 1]) | same(x[:, 0], x[:, 2]) | same(x[:, 1], x[:, 2])


def _fit_homographies(t: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact 1D projective interpolation through n triplets of (t, b) pairs.

    t and b are (n, 3). Returns the (n, 3) rows (a, c, g) and an (n,)
    mask of the valid maps: a triplet with repeated coordinates, a
    singular system or a non-finite solution gives none.
    """
    valid = ~(_repeated(t) | _repeated(b))
    # b (g t + 1) = a t + c  =>  [t, 1, -b t] . [a, c, g] = b
    m = np.stack([t, np.ones_like(t), -b * t], axis=-1)
    abc = np.full(t.shape, np.nan)
    rows = np.flatnonzero(valid)
    try:
        abc[rows] = np.linalg.solve(m[rows], b[rows, :, None])[..., 0]
    except np.linalg.LinAlgError:
        # one singular system fails the whole stack: solve row by row
        for r in rows:
            try:
                abc[r] = np.linalg.solve(m[r], b[r])
            except np.linalg.LinAlgError:
                valid[r] = False
    valid &= np.isfinite(abc).all(axis=1)
    return abc, valid


@dataclass(frozen=True)
class Alignment:
    """The label pairs of one orientation's optimal alignments.

    pairs holds every (detected, spec) index pair, sorted, that lies on
    some alignment reaching score; spec indices count from the tip.
    """

    orientation: str  # "forward" | "reversed"
    pairs: tuple[tuple[int, int], ...]
    score: int


@dataclass(frozen=True)
class Correspondence:
    """Detected-to-spec edge mapping induced by one homography hypothesis."""

    pairs: list[tuple[int, int]]
    homography: Homography1D
    orientation: str

    def __post_init__(self):
        spec_idx = [s for _, s in self.pairs]
        diffs = np.diff(spec_idx)
        if self.orientation == "forward" and np.any(diffs <= 0):
            raise ValueError("forward correspondence must increase spec indices")
        if self.orientation == "reversed" and np.any(diffs >= 0):
            raise ValueError("reversed correspondence must decrease spec indices")


def _match_table(
    detected: Sequence[LabelPair],
    spec_labels: Sequence[LabelPair],
    reversed_orientation: bool,
) -> np.ndarray:
    """(n_det, n_spec) table: detected side labels consistent with a spec edge.

    Undefined detected sides carry no information and never match a
    color; an edge with no defined side matches nothing at all.
    """
    det = np.array(detected, dtype=object).reshape(-1, 1, 2)
    spec = np.array(spec_labels, dtype=object).reshape(1, -1, 2)
    if reversed_orientation:
        spec = spec[:, :, ::-1]
    known = np.not_equal(det, None)
    agree = np.equal(det, spec) | ~known
    return agree.all(axis=2) & known.any(axis=2)


def _prefix_scores(ok: np.ndarray) -> np.ndarray:
    """Alignment score table of a match mask: entry [i, j] is the best
    score of detected[:i] against spec[:j].

    Classic global alignment with free gaps: a match scores 1,
    incompatible labels cannot pair.
    """
    m = ok.shape[1]
    table = [[0] * (m + 1)]
    for ok_row in ok.tolist():
        above = table[-1]
        row = [0]
        for j, match in enumerate(ok_row):
            best = max(above[j + 1], row[j])
            if match:
                best = max(best, above[j] + 1)
            row.append(best)
        table.append(row)
    return np.array(table, dtype=np.int64)


def align_labels_dp(
    detected: Sequence[LabelPair], spec: PointerSpec
) -> list[Alignment]:
    """Optimal order-preserving label alignment, both orientations.

    Returns one Alignment per orientation reaching the maximum score over
    the forward and reversed pattern, holding every pair that lies on
    some optimal alignment of that orientation.
    """
    if len(detected) < 1:
        raise ValueError("need at least one detected edge")
    results: list[Alignment] = []
    for orientation in ("forward", "reversed"):
        reversed_flag = orientation == "reversed"
        spec_seq = spec.side_labels[::-1] if reversed_flag else spec.side_labels
        ok = _match_table(detected, spec_seq, reversed_flag)
        before = _prefix_scores(ok)
        # after[i, j]: best score of detected[i:] against spec[j:]
        after = _prefix_scores(ok[::-1, ::-1])[::-1, ::-1]
        score = int(before[-1, -1])
        # a pair is optimal when the best alignments before and after it,
        # plus the pair itself, reach the score
        optimal = ok & (before[:-1, :-1] + 1 + after[1:, 1:] == score)
        if reversed_flag:  # spec indices back to tip-based numbering
            optimal = optimal[:, ::-1]
        pairs = tuple(map(tuple, np.argwhere(optimal).tolist()))
        results.append(Alignment(orientation, pairs, score))
    best_score = max(al.score for al in results)
    if best_score == 0:
        raise NoAssociationError("no detected label matches the pattern")
    return [al for al in results if al.score == best_score]


def _reciprocal_matches(
    mm: np.ndarray, b: np.ndarray, label_ok: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reciprocal nearest-neighbor matches with consistent labels, in mm.

    mm is (n, n_det): each row the detections mapped by one hypothesis.
    Returns the (n, n_det) matched flags and each detection's nearest spec
    edge; a row with a non-finite position matches nothing. Ties go to
    the first edge or detection.
    """
    nearest_spec = np.zeros(mm.shape, dtype=np.intp)
    nearest_det = np.empty((len(mm), len(b)), dtype=np.intp)
    # one spec edge at a time keeps the memory to a few (n, n_det) arrays
    for j, b_j in enumerate(b):
        dist = np.abs(mm - b_j)
        nearest_det[:, j] = dist.argmin(axis=1)
        if j == 0:
            best = dist
            continue
        closer = dist < best
        nearest_spec[closer] = j
        best = np.where(closer, dist, best)
    k = np.arange(mm.shape[1])
    matched = (
        (np.take_along_axis(nearest_det, nearest_spec, axis=1) == k)
        & label_ok[k, nearest_spec]
        & np.isfinite(mm).all(axis=1, keepdims=True)
    )
    return matched, nearest_spec


def _triplets(pairs: np.ndarray, direction: int) -> np.ndarray:
    """Index triplets into the sorted (detected, spec) pairs, in
    itertools.combinations order, with three distinct detections and spec
    indices strictly monotone along the orientation's direction."""
    d, s = pairs[:, 0], pairs[:, 1]
    # follows[i, j]: pair j can come after pair i in a triplet, with a later
    # detection and a spec index further along the direction
    follows = (d[None, :] > d[:, None]) & ((s[None, :] - s[:, None]) * direction > 0)
    return np.argwhere(follows[:, :, None] & follows[None, :, :])


# triplet homographies fitted and scored at once. The chunk also bounds
# the op's peak memory, which the benchmark measures: on the junctions-mc
# cell ops the tracemalloc peak is 0.080 MB with chunks of 64 and 0.148 MB
# with all triplets in one chunk.
_TRIPLET_CHUNK = 64


def associate_ransac(
    result: "DetectionResult",
    spec: PointerSpec,
    alignments: Sequence[Alignment],
    seed: int = 0,
) -> list[Correspondence]:
    """Hypotheses tied at the maximal inlier count, one per distinct mapping.

    alignments holds at most one Alignment per orientation, as
    align_labels_dp returns them. Every triplet of the pairs on any
    optimal label alignment of each orientation is scored, in chunks; the
    first of the hypotheses with equal inliers is kept. seed is read by
    nothing in the library: the search draws no sample.
    """
    t_coords = np.array([e.axis_coordinate for e in result.edges], dtype=np.float64)
    t_lo, t_hi = float(t_coords.min()), float(t_coords.max())
    b = spec.distances_mm

    pools = {al.orientation: al.pairs for al in alignments}
    if not pools or max(len(p) for p in pools.values()) < 3:
        raise InsufficientMatchesError(
            "no alignment orientation supplies three pairings"
        )

    best: dict[tuple, Correspondence] = {}
    best_count = 0
    for orientation in ("forward", "reversed"):
        pairs = np.array(pools.get(orientation, ()), dtype=np.intp).reshape(-1, 2)
        if len(pairs) < 3:
            continue
        reversed_flag = orientation == "reversed"
        direction = -1 if reversed_flag else 1
        triplets = _triplets(pairs, direction)
        label_ok = _match_table(result.side_labels, spec.side_labels, reversed_flag)
        for start in range(0, len(triplets), _TRIPLET_CHUNK):
            trip = pairs[triplets[start:start + _TRIPLET_CHUNK]]
            abc, valid = _fit_homographies(t_coords[trip[..., 0]], b[trip[..., 1]])
            rows = np.flatnonzero(valid)
            rows = rows[_pole_outside(abc[rows, 0], abc[rows, 2], t_lo, t_hi)]
            a, c, g = abc[rows, :, None].transpose(1, 0, 2)
            matched, nearest = _reciprocal_matches(_projective(a, c, g, t_coords), b, label_ok)
            counts = matched.sum(axis=1)
            # spec indices strictly monotone along the detections: each
            # match's oriented index tops all before it (they are distinct)
            seq = np.where(matched, nearest * direction, -len(b))
            monotone = ((seq == np.maximum.accumulate(seq, axis=1)) | ~matched).all(axis=1)
            rows_ok = np.flatnonzero((counts >= max(best_count, 3)) & monotone)
            # rows with the same matches share a key, and only the first counts
            _, first = np.unique(
                np.where(matched[rows_ok], nearest[rows_ok], -1), axis=0, return_index=True
            )
            for r in rows_ok[np.sort(first)]:
                count = int(counts[r])
                if count < best_count:
                    continue
                if count > best_count:
                    best_count = count
                    best = {}
                matches = [(int(k), int(nearest[r, k])) for k in np.flatnonzero(matched[r])]
                key = (orientation, tuple(matches))
                if key in best:
                    continue
                best[key] = Correspondence(
                    pairs=matches,
                    homography=Homography1D(*(float(v) for v in abc[rows[r]])),
                    orientation=orientation,
                )
    if not best:
        raise InsufficientMatchesError("no hypothesis reached three inliers")
    ordered = sorted(best.items(), key=lambda kv: (kv[0][0] != "forward", kv[0][1]))
    return [corr for _, corr in ordered]
