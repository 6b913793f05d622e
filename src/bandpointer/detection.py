"""Two-pass detection of band junction contour points.

Pass 1 finds candidate colored regions at a strict saturation threshold;
pass 2 re-detects inside expanded bounding boxes with a permissive
threshold, then junction halos are filtered with an orientation-selective
kernel and reduced to sub-pixel contour point pairs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .color_model import ColorClassSet, classify_image_masked
from .association import PointerSpec
from .errors import (
    DegenerateSampleError,
    InsufficientEdgesError,
    InsufficientRegionsError,
    NoEdgesError,
    PointerNotFoundError,
)
from .geometry import (
    Line2D,
    OrientedBox,
    boxes_mask,
    coincident,
    fit_line_tls,
    line_through,
    principal_axes,
    signed_distance,
)
from .imaging import (
    HueSatImage,
    RasterImage,
    Region,
    _content_box,
    connected_components,
    convolve_unit_sum,
    erode_disk,
    rgb_to_hue_saturation,
)


# Detection settings that stay fixed while scale and lighting change
MAJOR_EXPAND = 1.1  # pass-1 moment box stretch along the band
MINOR_EXPAND = 1.5  # and across it
BINARIZE_THRESHOLD = 0.3  # orientation-filtered halo level kept as junction
ORIENTATION_SIGMA_A = np.pi / 12.0  # angular spread of the orientation kernel
LINE_INLIER_SIGMAS = 3.0  # centroid-line inlier band
PAIR_SEPARATION_SIGMAS = 5.0  # pair separations farther from the mean drop


@dataclass(frozen=True)
class DetectionParams:
    """Thresholds and radii that change with scale and lighting.

    ransac_seed is read by nothing in the library: both searches are
    exhaustive. It stays a validated field so configs that set it load.
    """

    s1: float = 0.25
    s2: float = 0.12
    r1: int = 5
    r2: int = 2
    ransac_seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.s2 < self.s1 <= 1.0):
            raise ValueError("need 0 <= s2 < s1 <= 1")
        for name in ("r1", "r2", "ransac_seed"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and float(value).is_integer()):
                raise ValueError(f"{name} must be an integer")
            object.__setattr__(self, name, int(value))  # 3.0 names 3
        if not (0 < self.r2 < self.r1):
            raise ValueError("need 0 < r2 < r1")
        if self.ransac_seed < 0:
            raise ValueError("need ransac_seed >= 0")

    @property
    def edge_halo(self) -> int:
        return 2 * self.r2 + 1


@dataclass
class EdgePointPair:
    """Two sub-pixel contour points of one band junction."""

    p_a: np.ndarray  # negative side of the halo line
    p_b: np.ndarray
    left_label: Optional[int] = None
    right_label: Optional[int] = None
    axis_coordinate: float = 0.0

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.p_a + self.p_b)

    @property
    def separation(self) -> float:
        return float(np.linalg.norm(self.p_a - self.p_b))


@dataclass
class DetectionResult:
    """Contour point pairs in the order of their axis coordinates.

    Each edge's ``axis_coordinate`` is its midpoint's coordinate on
    ``line``, as ``order_along_axis`` computes it; later stages read the
    stored value instead of projecting again.
    """

    edges: list[EdgePointPair]
    line: Line2D  # L2, fit to the pair points
    pass1_regions: list[Region] = field(default_factory=list)
    pass2_regions: list[Region] = field(default_factory=list)


def detect_band_regions(
    hs: HueSatImage,
    colors: ColorClassSet,
    spec_adjacency: set[frozenset[int]],
    s: float,
    r: int,
    roi: Optional[list[OrientedBox]] = None,
) -> list[Region]:
    """Classified regions that survive erosion and the color-adjacency test.

    A region stays only if a pixel of some region of an adjacent pattern
    color lies within 2r + 5 pixels of one of its pixels, center to center
    (2r + 4 pixels between their borders). Erosion and labeling run in the
    box of the classified pixels: every label is 0 outside it, as beyond
    the frame's border.
    """
    roi_mask = boxes_mask(roi, hs.width, hs.height) if roi is not None else None
    labels_raster = classify_image_masked(colors, hs, s, roi_mask)
    if not labels_raster.any():
        return []
    box = _content_box(labels_raster)
    window = labels_raster[box]
    origin = (box[1].start, box[0].start)

    regions: list[Region] = []
    for label in colors.labels:
        mask = window == label
        if not mask.any():
            continue
        for reg in connected_components(erode_disk(mask, r), origin):
            reg.label = label
            regions.append(reg)

    trees = {
        label: cKDTree(np.vstack([reg.pixels for reg in regions if reg.label == label]))
        for label in {reg.label for reg in regions}
    }
    reach = 2 * r + 5

    def near_adjacent_color(reg: Region) -> bool:
        return any(
            other in trees and trees[other].query(reg.pixels)[0].min() <= reach
            for pair in spec_adjacency if reg.label in pair
            for other in pair - {reg.label}
        )

    return [reg for reg in regions if near_adjacent_color(reg)]


# distances computed per block of lines: keeps each (lines, pixels)
# temporary near 128 kB
_CROSSING_BLOCK = 1 << 14


def _regions_crossed(
    regions: list[Region], points: np.ndarray, directions: np.ndarray
) -> np.ndarray:
    """(m, n_regions) table of m lines, given as (m, 1, 2) points and unit
    directions: the region has pixels strictly on both sides of the line."""
    pts = np.vstack([reg.pixels for reg in regions]).astype(np.float64)
    starts = np.r_[0, np.cumsum([reg.area for reg in regions])[:-1]]
    step = max(1, _CROSSING_BLOCK // len(pts))
    blocks = []
    for k in range(0, len(points), step):
        d = signed_distance(points[k:k + step], directions[k:k + step], pts)
        hi = np.maximum.reduceat(d, starts, axis=-1)
        lo = np.minimum.reduceat(d, starts, axis=-1)
        blocks.append((hi > 0) & (lo < 0))
    return np.concatenate(blocks)


def ransac_centroid_line(
    regions: list[Region], params: DetectionParams
) -> tuple[Line2D, list[Region]]:
    """Line through two region centroids maximizing the crossed-region count.

    Every pair i < j of distinct centroids is scored, and the first of the
    tied best wins. Regions whose centroids sit within 3 sigma of the
    winning line are returned; sigma comes from the crossing regions'
    perpendicular distances, with a half-pixel floor against degenerate
    collinearity. Only params.r2 is read.
    """
    if len(regions) < 2:
        raise InsufficientRegionsError(f"{len(regions)} regions, need 2")
    centroids = np.array([r.centroid for r in regions])
    i, j = np.triu_indices(len(regions), k=1)
    valid = ~coincident(centroids[i], centroids[j])
    if not valid.any():
        raise DegenerateSampleError("all centroid pairs coincide")
    i, j = i[valid], j[valid]
    # built as line_through builds them: np.linalg.norm goes through the BLAS
    # dot kernel, which a vectorized norm does not round like
    lines = [Line2D(centroids[a], centroids[b] - centroids[a]) for a, b in zip(i, j)]
    directions = np.array([line.direction for line in lines])[:, None, :]
    crossed = _regions_crossed(regions, centroids[i][:, None, :], directions)
    best = int(np.argmax(crossed.sum(axis=1)))  # the first of the tied best
    best_line = lines[best]
    best_crossing = np.flatnonzero(crossed[best])

    dist = best_line.perp_distance(centroids)
    if len(best_crossing) >= 2:
        sigma = float(np.sqrt(np.mean(dist[best_crossing] ** 2)))
    else:
        sigma = float(params.r2)
    sigma = max(sigma, 0.5)
    keep = np.abs(dist) <= LINE_INLIER_SIGMAS * sigma
    return best_line, [reg for reg, k in zip(regions, keep) if k]


def expand_bounding_boxes(regions: list[Region]) -> list[OrientedBox]:
    """Oriented boxes from moment ellipses, stretched per axis."""
    boxes = []
    for reg in regions:
        semi, axes, center = reg.ellipse()
        boxes.append(
            OrientedBox(
                center=center,
                axes=axes,
                half_extents=np.array([MAJOR_EXPAND * semi[0], MINOR_EXPAND * semi[1]]),
            )
        )
    return boxes


def _orientation_kernel(phi: float, sigma_d: float) -> np.ndarray:
    """Unit-sum kernel selective for lines at angle phi through each pixel.

    The angle term uses the undirected line angle, folded into a half
    period, and is defined as zero at the central pixel.
    """
    half = int(np.ceil(3.0 * sigma_d))
    coords = np.arange(-half, half + 1, dtype=np.float64)
    x = coords[None, :]
    y = coords[:, None]
    ang = np.arctan2(y, x)
    diff = np.mod(ang - phi + np.pi / 2.0, np.pi) - np.pi / 2.0
    rad2 = x * x + y * y
    h = np.exp(-rad2 / (2.0 * sigma_d**2) - diff**2 / (2.0 * ORIENTATION_SIGMA_A**2))
    h[half, half] = 1.0  # radius 0, angle term defined as 0
    return h / h.sum()


def _junction_images(
    regions: list[Region],
    spec_adjacency: set[frozenset[int]],
    params: DetectionParams,
    image_size: tuple[int, int],
    fallback_axis: Optional[Line2D] = None,
) -> tuple[tuple[int, int], np.ndarray, np.ndarray]:
    """The crop's (x, y) origin in the frame, the halo I_b1 and the
    orientation-filtered halo I_b2, both over the crop."""
    e = params.edge_halo
    margin = e + int(np.ceil(3.0 * e)) + 2  # the halo and the kernel's half width
    # crop covering all region pixels plus the margin, clipped to the frame
    all_px = np.vstack([reg.pixels for reg in regions])
    x0, y0 = np.maximum(all_px.min(axis=0) - margin, 0)
    x1, y1 = np.minimum(all_px.max(axis=0) + margin + 1, image_size)
    masks: dict[int, np.ndarray] = {}
    for reg in regions:
        mask = masks.setdefault(reg.label, np.zeros((y1 - y0, x1 - x0), dtype=bool))
        mask[reg.pixels[:, 1] - y0, reg.pixels[:, 0] - x0] = True
    near = {label: ndimage.distance_transform_edt(~mask) <= e for label, mask in masks.items()}
    halo = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    for pair in spec_adjacency:
        a, b = tuple(pair)
        if a in near and b in near:
            halo |= near[a] & near[b]
    if not halo.any():
        raise NoEdgesError("no pixels near two adjacent band colors")

    ys, xs = np.nonzero(halo)
    pts = np.column_stack([xs, ys]).astype(np.float64)
    evals, evecs = principal_axes(pts)
    anisotropic = evals[0] > 0 and (evals[0] - evals[1]) > 0.01 * evals[0]
    if anisotropic or fallback_axis is None:
        second = evecs[:, 1]
        phi = float(np.arctan2(second[1], second[0]))
    else:
        d = fallback_axis.direction
        phi = float(np.arctan2(d[1], d[0]) + np.pi / 2.0)
    phi = float(np.mod(phi + np.pi / 2.0, np.pi) - np.pi / 2.0)

    kernel = _orientation_kernel(phi, e)
    filtered = convolve_unit_sum(halo, kernel) >= BINARIZE_THRESHOLD
    return (int(x0), int(y0)), halo, filtered


def _refine_subpixel(combined: np.ndarray, px: int, py: int) -> np.ndarray:
    """Centroid of the junction pixels in the 3x3 neighborhood."""
    h, w = combined.shape
    y0, y1 = max(py - 1, 0), min(py + 2, h)
    x0, x1 = max(px - 1, 0), min(px + 2, w)
    ys, xs = np.nonzero(combined[y0:y1, x0:x1])
    return np.array([xs.mean() + x0, ys.mean() + y0])


def order_along_axis(pairs: np.ndarray) -> tuple[Line2D, np.ndarray, np.ndarray]:
    """Axis line, midpoint coordinates and order of (n, 2, 2) point pairs.

    The line is the TLS fit through the n pair midpoints, which follows
    the axis even where a steep pointer's pairs are wider apart than its
    junctions; each pair's coordinate is its midpoint's on that line, one
    axis_coord call per pair (a stacked call rounds differently); the
    order is a stable sort of them.
    """
    line = fit_line_tls(pairs.mean(axis=1))
    t = np.array([float(line.axis_coord(0.5 * (a + b))[0]) for a, b in pairs])
    return line, t, np.argsort(t, kind="stable")


def extract_edge_pairs(
    regions: list[Region],
    spec_adjacency: set[frozenset[int]],
    params: DetectionParams,
    image_size: tuple[int, int],
    fallback_axis: Optional[Line2D] = None,
) -> DetectionResult:
    """Sub-pixel contour point pairs of band junctions, ordered along L2.

    Each component of I_b2 gives the I_b3 = I_b1 & I_b2 pixels farthest
    on either side of L1, the TLS line through all of I_b3. Pairs that are
    close together, not mutual nearest neighbors along L1, or with an
    outlying separation are rejected.
    """
    origin, halo, filtered = _junction_images(
        regions, spec_adjacency, params, image_size, fallback_axis
    )
    combined = halo & filtered
    ys, xs = np.nonzero(combined)
    if len(xs) == 0:
        raise NoEdgesError("junction filter response below threshold everywhere")
    if len(xs) < 2:
        raise NoEdgesError("one junction pixel defines no line")
    offset = np.array(origin, dtype=np.float64)
    line1 = fit_line_tls(np.column_stack([xs, ys]) + offset)

    pairs = []
    for comp in connected_components(filtered, origin):
        local = comp.pixels - origin  # (x, y) in the crop, row-major
        local = local[combined[local[:, 1], local[:, 0]]]
        if len(local) == 0:
            continue
        perp = line1.perp_distance(local + offset)
        hi, lo = int(np.argmax(perp)), int(np.argmin(perp))
        if perp[hi] > 0 and perp[lo] < 0:
            pairs.append([_refine_subpixel(combined, *local[k]) + offset for k in (lo, hi)])
    pairs = np.array(pairs, dtype=np.float64).reshape(-1, 2, 2)

    # one norm per pair: a vectorized norm rounds differently
    sep = np.array([np.linalg.norm(a - b) for a, b in pairs])
    keep = sep >= params.edge_halo
    pairs, sep = pairs[keep], sep[keep]
    if len(pairs) >= 2:
        # mutual nearest neighbors along L1; argmin ties go to the first
        u = line1.axis_coord(pairs.reshape(-1, 2))
        gap = np.abs(u - u[:, None])
        np.fill_diagonal(gap, np.inf)
        partner = np.arange(len(u)) ^ 1
        keep = (gap.argmin(axis=1) == partner).reshape(-1, 2).all(axis=1)
        pairs, sep = pairs[keep], sep[keep]
    if len(sep) >= 2 and sep.std() > 0:
        pairs = pairs[np.abs(sep - sep.mean()) <= PAIR_SEPARATION_SIGMAS * sep.std()]
    if len(pairs) < 2:
        raise InsufficientEdgesError(
            f"{len(pairs)} contour point pairs after filtering, need 2"
        )

    line2, t, order = order_along_axis(pairs)
    edges = [
        EdgePointPair(p_a=pairs[k, 0], p_b=pairs[k, 1], axis_coordinate=float(t[k]))
        for k in order
    ]
    return DetectionResult(edges=edges, line=line2)


def label_edge_pairs(
    pairs: list[EdgePointPair],
    regions: list[Region],
    line2: Line2D,
) -> DetectionResult:
    """Attach side color labels to each junction pair.

    Regions are clipped at the junction lines; the label on a side is the
    clipped piece with the closest centroid along the axis. Regions that
    do not cross the axis line are ignored, and an equal label on both
    sides marks a leak, reported as undefined.
    """
    if not pairs:
        raise InsufficientEdgesError("no pairs to label")
    pairs = sorted(pairs, key=lambda ep: ep.axis_coordinate)
    crossed = []
    if regions:
        crossed = _regions_crossed(
            regions, line2.point[None, None], line2.direction[None, None]
        )[0]
    crossing = [reg for reg, c in zip(regions, crossed) if c]

    junction_lines = []
    for ep in pairs:
        if np.linalg.norm(ep.p_b - ep.p_a) > 1e-9:
            jl = line_through(ep.p_a, ep.p_b)
        else:
            jl = Line2D(ep.midpoint, np.array([-line2.direction[1], line2.direction[0]]))
        normal = np.array([-jl.direction[1], jl.direction[0]])
        if normal @ line2.direction < 0:
            normal = -normal
        junction_lines.append((ep.midpoint, normal))

    raw_pieces: list[tuple[int, float, int, int]] = []  # cell, coord, label, area
    for reg in crossing:
        pts = reg.pixels.astype(np.float64)
        cell = np.zeros(len(pts), dtype=np.int64)
        for mid, normal in junction_lines:
            cell += ((pts - mid) @ normal > 0).astype(np.int64)
        for value in np.unique(cell):
            sel = pts[cell == value]
            centroid = sel.mean(axis=0)
            raw_pieces.append(
                (int(value), float(line2.axis_coord(centroid)[0]), reg.label, len(sel))
            )
    # curved junction boundaries leave slivers of a band just past its own
    # clipping line; drop pieces dwarfed by their cell's dominant piece
    cell_max: dict[int, int] = {}
    for cell, _, _, area in raw_pieces:
        cell_max[cell] = max(cell_max.get(cell, 0), area)
    pieces = [
        (coord, label)
        for cell, coord, label, area in raw_pieces
        if area >= 0.25 * cell_max[cell]
    ]

    labeled = []
    for ep in pairs:
        t = ep.axis_coordinate
        below = [(pt, lbl) for pt, lbl in pieces if pt < t]
        above = [(pt, lbl) for pt, lbl in pieces if pt > t]
        left = max(below, key=lambda p: p[0])[1] if below else None
        right = min(above, key=lambda p: p[0])[1] if above else None
        if left is not None and left == right:
            left = right = None
        labeled.append(replace(ep, left_label=left, right_label=right))
    return DetectionResult(edges=labeled, line=line2)


def _region_pass(
    n: int,
    hs: HueSatImage,
    colors: ColorClassSet,
    adjacency: set[frozenset[int]],
    s: float,
    r: int,
    params: DetectionParams,
    roi: Optional[list[OrientedBox]] = None,
) -> tuple[Line2D, list[Region]]:
    """Pass n's regions, their centroid line and the regions near it; an
    empty stage raises PointerNotFoundError naming it."""
    regions = detect_band_regions(hs, colors, adjacency, s, r, roi=roi)
    if not regions:
        raise PointerNotFoundError(f"pass{n}-regions")
    try:
        line, surviving = ransac_centroid_line(regions, params)
    except (InsufficientRegionsError, DegenerateSampleError) as exc:
        raise PointerNotFoundError(f"pass{n}-line", str(exc)) from exc
    if not surviving:
        raise PointerNotFoundError(f"pass{n}-line", "no regions near the axis")
    return line, surviving


def detect_pointer(
    img: RasterImage,
    colors: ColorClassSet,
    spec: PointerSpec,
    params: DetectionParams,
) -> DetectionResult:
    """Full two-pass detection on one frame."""
    hs = rgb_to_hue_saturation(img)
    adjacency = spec.adjacent_label_pairs()
    size = (img.width, img.height)

    _, surviving1 = _region_pass(1, hs, colors, adjacency, params.s1, params.r1, params)
    boxes = expand_bounding_boxes(surviving1)
    line2_centroids, surviving2 = _region_pass(
        2, hs, colors, adjacency, params.s2, params.r2, params, roi=boxes
    )

    extracted = extract_edge_pairs(
        surviving2, adjacency, params, size, fallback_axis=line2_centroids
    )
    result = label_edge_pairs(extracted.edges, surviving2, extracted.line)
    result.pass1_regions = surviving1
    result.pass2_regions = surviving2
    return result
