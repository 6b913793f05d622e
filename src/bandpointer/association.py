"""Matching detected band junctions to the pointer's measured junctions.

Label alignment by dynamic programming supplies candidate pairings;
RANSAC over pairing triplets fits 1D projective maps from image-axis
coordinates to millimeters and keeps the hypotheses with the most
reciprocal-nearest-neighbor inliers.
"""

from __future__ import annotations

import itertools
import logging
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

logger = logging.getLogger(__name__)

LabelPair = tuple[Optional[int], Optional[int]]

MAX_ALIGNMENTS = 32
MAX_TRIPLETS = 1000


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

    def band_of(self, s: float) -> Optional[int]:
        """Color label at axial position s (mm from the tip)."""
        idx = int(np.searchsorted(self.distances_mm, s, side="right"))
        return self.band_labels[idx]


@dataclass(frozen=True)
class Homography1D:
    """1D projective map t -> (a t + c) / (g t + 1), image px to axis mm."""

    a: float
    c: float
    g: float

    def map_mm(self, t) -> np.ndarray | float:
        t = np.asarray(t, dtype=np.float64)
        out = (self.a * t + self.c) / (self.g * t + 1.0)
        return float(out) if out.ndim == 0 else out

    def inverse_mm(self, b) -> np.ndarray | float:
        b = np.asarray(b, dtype=np.float64)
        denom = self.a - self.g * b
        out = (b - self.c) / denom
        return float(out) if out.ndim == 0 else out

    def monotone_over(self, t_lo: float, t_hi: float) -> bool:
        """True when the pole g t + 1 = 0 stays outside [t_lo, t_hi]."""
        if self.g == 0.0:
            return self.a != 0.0
        pole = -1.0 / self.g
        return not (min(t_lo, t_hi) <= pole <= max(t_lo, t_hi))


def fit_homography_1d(pairs: Sequence[tuple[float, float]]) -> Homography1D:
    """Exact 1D projective interpolation through three (t, b) pairs."""
    if len(pairs) != 3:
        raise ValueError("exactly three pairs define the map")
    t = np.array([p[0] for p in pairs], dtype=np.float64)
    b = np.array([p[1] for p in pairs], dtype=np.float64)
    if len(np.unique(t)) < 3 or len(np.unique(b)) < 3:
        raise DegenerateSampleError("triplet has repeated coordinates")
    # b (g t + 1) = a t + c  =>  [t, 1, -b t] . [a, c, g] = b
    m = np.column_stack([t, np.ones(3), -b * t])
    try:
        a, c, g = np.linalg.solve(m, b)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSampleError("singular homography system") from exc
    if not np.all(np.isfinite([a, c, g])):
        raise DegenerateSampleError("non-finite homography solution")
    return Homography1D(a=float(a), c=float(c), g=float(g))


@dataclass(frozen=True)
class Alignment:
    """One optimal label alignment: matched (detected, spec) index pairs."""

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


def _labels_match(
    detected: LabelPair, spec_pair: LabelPair, reversed_orientation: bool
) -> bool:
    """Detected side labels are consistent with a spec edge.

    Undefined detected sides carry no information and never match a
    color; an edge with no defined side matches nothing at all.
    """
    if reversed_orientation:
        spec_pair = (spec_pair[1], spec_pair[0])
    dl, dr = detected
    sl, sr = spec_pair
    if dl is None and dr is None:
        return False
    if dl is not None and dl != sl:
        return False
    if dr is not None and dr != sr:
        return False
    return True


def _score_tables(
    detected: Sequence[LabelPair],
    spec_labels: Sequence[LabelPair],
    reversed_orientation: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Match mask plus prefix/suffix alignment score tables.

    Classic global alignment with free gaps: a match scores 1,
    incompatible labels cannot pair. prefix[i, j] covers detected[:i] vs
    spec[:j]; suffix[i, j] covers detected[i-1:] vs spec[j-1:].
    """
    n, m = len(detected), len(spec_labels)
    ok = np.zeros((n, m), dtype=bool)
    for i in range(n):
        for j in range(m):
            ok[i, j] = _labels_match(detected[i], spec_labels[j], reversed_orientation)

    prefix = np.zeros((n + 1, m + 1), dtype=np.int64)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            best = max(prefix[i - 1, j], prefix[i, j - 1])
            if ok[i - 1, j - 1]:
                best = max(best, prefix[i - 1, j - 1] + 1)
            prefix[i, j] = best
    suffix = np.zeros((n + 2, m + 2), dtype=np.int64)
    for i in range(n, 0, -1):
        for j in range(m, 0, -1):
            best = max(suffix[i + 1, j], suffix[i, j + 1])
            if ok[i - 1, j - 1]:
                best = max(best, suffix[i + 1, j + 1] + 1)
            suffix[i, j] = best
    return ok, prefix, suffix


def _alignment_through(
    pair: tuple[int, int],
    ok: np.ndarray,
    prefix: np.ndarray,
    suffix: np.ndarray,
) -> tuple[tuple[int, int], ...]:
    """Deterministic optimal alignment containing one given pair.

    Walks the score tables outward from the pair, always taking the
    lexicographically smallest continuation that preserves optimality.
    """
    n, m = ok.shape
    chain = [pair]
    # forward: need pairs worth suffix[i+2, j+2] after the current one
    i, j = pair
    need = int(suffix[i + 2, j + 2])
    while need > 0:
        found = None
        for ci in range(i + 1, n):
            for cj in range(j + 1, m):
                if ok[ci, cj] and suffix[ci + 2, cj + 2] == need - 1:
                    found = (ci, cj)
                    break
            if found:
                break
        i, j = found
        chain.append(found)
        need -= 1
    # backward: need pairs worth prefix[i, j] before the original one
    i, j = pair
    need = int(prefix[i, j])
    while need > 0:
        found = None
        for ci in range(i - 1, -1, -1):
            for cj in range(j - 1, -1, -1):
                if ok[ci, cj] and prefix[ci, cj] == need - 1:
                    found = (ci, cj)
                    break
            if found:
                break
        i, j = found
        chain.insert(0, found)
        need -= 1
    return tuple(chain)


def align_labels_dp(
    detected: Sequence[LabelPair], spec: PointerSpec
) -> list[Alignment]:
    """Optimal order-preserving label alignments, both orientations.

    Returns alignments achieving the maximum score over the forward and
    reversed pattern; every pair belonging to some optimal alignment is
    covered by at least one returned alignment, capped at 32 with a log
    message on truncation.
    """
    if len(detected) < 1:
        raise ValueError("need at least one detected edge")
    spec_pairs = list(spec.side_labels)
    results: list[Alignment] = []
    best_score = 0
    for orientation in ("forward", "reversed"):
        reversed_flag = orientation == "reversed"
        spec_seq = spec_pairs[::-1] if reversed_flag else spec_pairs
        ok, prefix, suffix = _score_tables(detected, spec_seq, reversed_flag)
        score = int(prefix[-1, -1])
        if score == 0:
            continue
        if score > best_score:
            best_score = score
            results = []
        elif score < best_score:
            continue
        # every pair on some optimal path gets one covering alignment
        pool = [
            (i, j)
            for i in range(ok.shape[0])
            for j in range(ok.shape[1])
            if ok[i, j] and prefix[i, j] + 1 + suffix[i + 2, j + 2] == score
        ]
        # spec indices are reported in original (tip-based) numbering
        remap = (
            (lambda j: len(spec_pairs) - 1 - j) if reversed_flag else (lambda j: j)
        )
        seen: set[tuple[tuple[int, int], ...]] = set()
        for pair in pool:
            chain = _alignment_through(pair, ok, prefix, suffix)
            mapped = tuple((d, remap(j)) for d, j in chain)
            if mapped in seen:
                continue
            seen.add(mapped)
            results.append(
                Alignment(orientation=orientation, pairs=mapped, score=score)
            )
    if best_score == 0:
        raise NoAssociationError("no detected label matches the pattern")
    if len(results) > MAX_ALIGNMENTS:
        logger.info(
            "truncating %d optimal alignments to %d", len(results), MAX_ALIGNMENTS
        )
        results = results[:MAX_ALIGNMENTS]
    return results


def _count_inliers(
    homog: Homography1D,
    t_coords: np.ndarray,
    detected_labels: Sequence[LabelPair],
    spec: PointerSpec,
    reversed_orientation: bool,
) -> list[tuple[int, int]]:
    """Reciprocal nearest-neighbor matches with consistent labels, in mm."""
    mm = np.asarray(homog.map_mm(t_coords), dtype=np.float64)
    if not np.all(np.isfinite(mm)):
        return []
    # (n_det, n_spec) distances; argmin keeps the first of tied minima
    dist = np.abs(mm[:, None] - spec.distances_mm)
    nearest_spec = dist.argmin(axis=1)
    nearest_det = dist.argmin(axis=0)
    return [
        (k, int(j))
        for k, j in enumerate(nearest_spec)
        if nearest_det[j] == k
        and _labels_match(detected_labels[k], spec.side_labels[j], reversed_orientation)
    ]


def associate_ransac(
    result: "DetectionResult",
    spec: PointerSpec,
    alignments: Sequence[Alignment],
    max_triplets: int = MAX_TRIPLETS,
    seed: int = 0,
) -> list[Correspondence]:
    """Hypotheses tied at the maximal inlier count, one per distinct mapping.

    Triplets are drawn from the pooled pairs of the optimal alignments of
    each orientation, exhaustively when few, otherwise as a seeded random
    sample.
    """
    t_coords = np.array([e.axis_coordinate for e in result.edges], dtype=np.float64)
    detected_labels = [(e.left_label, e.right_label) for e in result.edges]
    t_lo, t_hi = float(t_coords.min()), float(t_coords.max())

    pools: dict[str, list[tuple[int, int]]] = {}
    for al in alignments:
        pool = pools.setdefault(al.orientation, [])
        for pair in al.pairs:
            if pair not in pool:
                pool.append(pair)
    if not pools or max(len(p) for p in pools.values()) < 3:
        raise InsufficientMatchesError(
            "no alignment orientation supplies three pairings"
        )

    best: dict[tuple, Correspondence] = {}
    best_count = 0
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
        if len(triplets) > max_triplets:
            rng = np.random.default_rng(seed)
            idx = rng.choice(len(triplets), size=max_triplets, replace=False)
            triplets = [triplets[i] for i in sorted(idx)]
        b = spec.distances_mm
        for trip in triplets:
            try:
                homog = fit_homography_1d(
                    [(t_coords[d], b[s]) for d, s in trip]
                )
            except DegenerateSampleError:
                continue
            if not homog.monotone_over(t_lo, t_hi):
                continue
            matches = _count_inliers(
                homog, t_coords, detected_labels, spec, reversed_flag
            )
            if len(matches) < best_count or len(matches) < 3:
                continue
            spec_seq = [s for _, s in sorted(matches)]
            if np.any(np.diff(spec_seq) * direction <= 0):
                continue
            if len(matches) > best_count:
                best_count = len(matches)
                best = {}
            key = (orientation, tuple(sorted(matches)))
            if key in best:
                continue
            flags = np.zeros(len(result.edges), dtype=bool)
            for k, _ in matches:
                flags[k] = True
            best[key] = Correspondence(
                pairs=sorted(matches),
                homography=homog,
                inlier_flags=flags,
                orientation=orientation,
            )
    if not best:
        raise InsufficientMatchesError("no hypothesis reached three inliers")
    ordered = sorted(best.items(), key=lambda kv: (kv[0][0] != "forward", kv[0][1]))
    if len(ordered) > 1 and len({o for (o, _) in best} ) > 1:
        logger.debug("orientation tie broken toward forward")
    return [corr for _, corr in ordered]
