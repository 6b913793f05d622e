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

from .errors import (
    DegenerateSampleError,
    InsufficientMatchesError,
    NoAssociationError,
)

if TYPE_CHECKING:
    from .detection import DetectionResult

LabelPair = tuple[Optional[int], Optional[int]]


@dataclass(frozen=True)
class PointerEdge:
    distance_mm: float  # from the tip, along the axis
    radius_mm: float


@dataclass(frozen=True)
class PointerSpec:
    """Measured band pattern: junction distances, radii and side colors.

    ``side_labels[i]`` holds the color class on the tip side and the tail
    side of junction i; ``None`` stands for an uncolored stretch.
    """

    edges: tuple[PointerEdge, ...]
    side_labels: tuple[LabelPair, ...]
    total_length_mm: float

    def __post_init__(self):
        edges = tuple(self.edges)
        side_labels = tuple((l, r) for l, r in self.side_labels)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "side_labels", side_labels)
        if len(edges) != len(side_labels):
            raise ValueError("one side-label pair per edge required")
        if len(edges) < 1:
            raise ValueError("pointer needs at least one edge")
        b = self.distances_mm
        if not np.isfinite(np.r_[b, self.radii_mm, self.total_length_mm]).all():
            raise ValueError("edge distances, radii and total length must be finite")
        if b[0] <= 0.0:
            raise ValueError("first edge must sit strictly past the tip")
        if np.any(np.diff(b) <= 0.0):
            raise ValueError("edge distances must be strictly increasing")
        if b[-1] > self.total_length_mm:
            raise ValueError("edges cannot lie past the pointer end")
        if any(e.radius_mm <= 0.0 for e in edges):
            raise ValueError("edge radii must be positive")
        for left, right in side_labels:
            if left is not None and left == right:
                raise ValueError("adjacent bands must differ in color")
        for i in range(len(side_labels) - 1):
            if side_labels[i][1] != side_labels[i + 1][0]:
                raise ValueError(
                    f"edge {i} tail label disagrees with edge {i + 1} tip label"
                )
        if self._is_reversal_symmetric():
            raise ValueError(
                "band pattern is indistinguishable from its reversal"
            )

    def _is_reversal_symmetric(self) -> bool:
        """Neither the colors nor the junction spacings break the symmetry."""
        labels_rev = tuple((r, l) for (l, r) in reversed(self.side_labels))
        if labels_rev != self.side_labels:
            return False
        spacing = np.diff(self.distances_mm)
        return bool(np.allclose(spacing, spacing[::-1], atol=1e-9))

    @property
    def distances_mm(self) -> np.ndarray:
        return np.array([e.distance_mm for e in self.edges], dtype=np.float64)

    @property
    def radii_mm(self) -> np.ndarray:
        return np.array([e.radius_mm for e in self.edges], dtype=np.float64)

    @property
    def band_labels(self) -> list[Optional[int]]:
        """Colors of the bands the edges separate, tip band first."""
        return [self.side_labels[0][0]] + [r for _, r in self.side_labels]

    def adjacent_label_pairs(self) -> set[frozenset[int]]:
        pairs = set()
        for left, right in self.side_labels:
            if left is not None and right is not None:
                pairs.add(frozenset((left, right)))
        return pairs


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

    def map_mm(self, t) -> np.ndarray | float:
        out = _projective(self.a, self.c, self.g, np.asarray(t, dtype=np.float64))
        return float(out) if out.ndim == 0 else out

    def inverse_mm(self, b) -> np.ndarray | float:
        b = np.asarray(b, dtype=np.float64)
        denom = self.a - self.g * b
        out = (b - self.c) / denom
        return float(out) if out.ndim == 0 else out

    def monotone_over(self, t_lo: float, t_hi: float) -> bool:
        """True when the pole g t + 1 = 0 stays outside [t_lo, t_hi]."""
        return bool(_pole_outside(self.a, self.g, t_lo, t_hi))


# why _fit_homographies rejects a triplet, by its status code
_DEGENERATE = {
    1: "triplet has repeated coordinates",
    2: "singular homography system",
    3: "non-finite homography solution",
}


def _repeated(x: np.ndarray) -> np.ndarray:
    """Rows of an (n, 3) array holding an entry twice; NaNs count as equal."""
    def same(u, v):
        return (u == v) | (np.isnan(u) & np.isnan(v))

    return same(x[:, 0], x[:, 1]) | same(x[:, 0], x[:, 2]) | same(x[:, 1], x[:, 2])


def _fit_homographies(t: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact 1D projective interpolation through n triplets of (t, b) pairs.

    t and b are (n, 3). Returns the (n, 3) rows (a, c, g) and an (n,)
    status: 0 for a valid map, otherwise the _DEGENERATE code.
    """
    status = np.where(_repeated(t) | _repeated(b), 1, 0)
    # b (g t + 1) = a t + c  =>  [t, 1, -b t] . [a, c, g] = b
    m = np.stack([t, np.ones_like(t), -b * t], axis=-1)
    abc = np.full(t.shape, np.nan)
    rows = np.flatnonzero(status == 0)
    try:
        abc[rows] = np.linalg.solve(m[rows], b[rows, :, None])[..., 0]
    except np.linalg.LinAlgError:
        # one singular system fails the whole stack: solve row by row
        for r in rows:
            try:
                abc[r] = np.linalg.solve(m[r], b[r])
            except np.linalg.LinAlgError:
                status[r] = 2
    status[(status == 0) & ~np.isfinite(abc).all(axis=1)] = 3
    return abc, status


def fit_homography_1d(pairs: Sequence[tuple[float, float]]) -> Homography1D:
    """Exact 1D projective interpolation through three (t, b) pairs."""
    if len(pairs) != 3:
        raise ValueError("exactly three pairs define the map")
    t = np.array([[p[0] for p in pairs]], dtype=np.float64)
    b = np.array([[p[1] for p in pairs]], dtype=np.float64)
    abc, status = _fit_homographies(t, b)
    if status[0]:
        raise DegenerateSampleError(_DEGENERATE[status[0]])
    return Homography1D(*(float(v) for v in abc[0]))


@dataclass(frozen=True)
class Alignment:
    """The label pairs of one orientation's optimal alignments.

    pairs holds every (detected, spec) index pair, sorted, that lies on
    some alignment reaching score; spec indices count from the tip.
    """

    orientation: str  # "forward" | "reversed"
    pairs: tuple[tuple[int, int], ...]
    score: int


@dataclass
class Correspondence:
    """Detected-to-spec edge mapping induced by one homography hypothesis."""

    pairs: list[tuple[int, int]]
    homography: Homography1D
    inlier_flags: np.ndarray  # per detected edge
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


def _count_inliers(
    homog: Homography1D,
    t_coords: np.ndarray,
    detected_labels: Sequence[LabelPair],
    spec: PointerSpec,
    reversed_orientation: bool,
) -> list[tuple[int, int]]:
    """Reciprocal nearest-neighbor matches with consistent labels, in mm."""
    mm = np.asarray(homog.map_mm(t_coords), dtype=np.float64)
    label_ok = _match_table(detected_labels, spec.side_labels, reversed_orientation)
    matched, nearest = _reciprocal_matches(mm[None], spec.distances_mm, label_ok)
    return [(int(k), int(nearest[0, k])) for k in np.flatnonzero(matched[0])]


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
    detected_labels = [(e.left_label, e.right_label) for e in result.edges]
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
        label_ok = _match_table(detected_labels, spec.side_labels, reversed_flag)
        for start in range(0, len(triplets), _TRIPLET_CHUNK):
            trip = pairs[triplets[start:start + _TRIPLET_CHUNK]]
            abc, status = _fit_homographies(t_coords[trip[..., 0]], b[trip[..., 1]])
            rows = np.flatnonzero(status == 0)
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
                    inlier_flags=matched[r].copy(),
                    orientation=orientation,
                )
    if not best:
        raise InsufficientMatchesError("no hypothesis reached three inliers")
    ordered = sorted(best.items(), key=lambda kv: (kv[0][0] != "forward", kv[0][1]))
    return [corr for _, corr in ordered]
