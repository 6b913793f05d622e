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
    BinaryImage,
    HueSatImage,
    RasterImage,
    Region,
    connected_components,
    convolve_unit_sum,
    erode_disk,
    rgb_to_hue_saturation,
)

_EIGHT = np.ones((3, 3), dtype=int)


@dataclass(frozen=True)
class DetectionParams:
    """Tunable thresholds; the derived distances follow the erosion radii."""

    s1: float = 0.25
    s2: float = 0.12
    r1: int = 5
    r2: int = 2
    major_expand: float = 1.1
    minor_expand: float = 1.5
    binarize_threshold: float = 0.3
    line_inlier_sigmas: float = 3.0
    pair_separation_sigmas: float = 5.0
    ransac_iterations: int = 200
    ransac_seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.s2 < self.s1 <= 1.0):
            raise ValueError("need 0 <= s2 < s1 <= 1")
        for name in ("r1", "r2", "ransac_iterations", "ransac_seed"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and float(value).is_integer()):
                raise ValueError(f"{name} must be an integer")
            object.__setattr__(self, name, int(value))  # 3.0 names 3
        if not (0 < self.r2 < self.r1):
            raise ValueError("need 0 < r2 < r1")
        if self.ransac_iterations < 1 or self.ransac_seed < 0:
            raise ValueError("need ransac_iterations >= 1 and ransac_seed >= 0")

    @property
    def edge_halo(self) -> int:
        return 2 * self.r2 + 1

    @property
    def sigma_d(self) -> float:
        return float(self.edge_halo)

    @property
    def sigma_a(self) -> float:
        return np.pi / 12.0


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
    edges: list[EdgePointPair]
    line: Line2D  # L2, fit to the pair points
    pass1_regions: list[Region] = field(default_factory=list)
    pass2_regions: list[Region] = field(default_factory=list)


def _distance_maps(
    regions: list[Region], margin: int, size: tuple[int, int]
) -> tuple[tuple[int, int, int, int], dict[int, np.ndarray]]:
    """Crop (x0, y0, w, h) covering all region pixels plus the margin, and
    per label the crop's distance to the nearest pixel of that label."""
    width, height = size
    all_px = np.vstack([r.pixels for r in regions])
    x0 = max(int(all_px[:, 0].min()) - margin, 0)
    y0 = max(int(all_px[:, 1].min()) - margin, 0)
    x1 = min(int(all_px[:, 0].max()) + margin + 1, width)
    y1 = min(int(all_px[:, 1].max()) + margin + 1, height)
    masks: dict[int, np.ndarray] = {}
    for reg in regions:
        mask = masks.setdefault(reg.label, np.zeros((y1 - y0, x1 - x0), dtype=bool))
        mask[reg.pixels[:, 1] - y0, reg.pixels[:, 0] - x0] = True
    dist_to = {
        label: ndimage.distance_transform_edt(~mask) for label, mask in masks.items()
    }
    return (x0, y0, x1 - x0, y1 - y0), dist_to


def detect_band_regions(
    hs: HueSatImage,
    colors: ColorClassSet,
    spec_adjacency: set[frozenset[int]],
    s: float,
    r: int,
    roi: Optional[list[OrientedBox]] = None,
) -> list[Region]:
    """Classified regions that survive erosion and the color-adjacency test.

    A region stays only if some region of an adjacent pattern color comes
    within 2r + 4 pixels of its border.
    """
    roi_mask = boxes_mask(roi, hs.width, hs.height) if roi is not None else None
    labels_raster = classify_image_masked(colors, hs, s, roi_mask)

    regions: list[Region] = []
    for label in colors.labels:
        mask = labels_raster == label
        if not mask.any():
            continue
        eroded = erode_disk(BinaryImage(mask), r)
        for reg in connected_components(eroded):
            reg.label = label
            regions.append(reg)
    if not regions:
        return []

    w_adj = 2 * r + 4
    (x0, y0, _, _), dist_to = _distance_maps(regions, w_adj + 2, (hs.width, hs.height))

    neighbors: dict[int, set[int]] = {}
    for pair in spec_adjacency:
        a, b = tuple(pair)
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)

    kept = []
    for reg in regions:
        ys = reg.pixels[:, 1] - y0
        xs = reg.pixels[:, 0] - x0
        for other in neighbors.get(reg.label, ()):
            if other not in dist_to:
                continue
            # center-to-center minus one: touching pixels have border
            # distance zero
            border_dist = max(float(dist_to[other][ys, xs].min()) - 1.0, 0.0)
            if border_dist <= w_adj:
                kept.append(reg)
                break
    return kept


def _stack_pixels(regions: list[Region]) -> tuple[np.ndarray, np.ndarray]:
    """All region pixels as float (x, y) rows, plus each region's first row."""
    pts = np.vstack([reg.pixels for reg in regions]).astype(np.float64)
    starts = np.cumsum([0] + [reg.area for reg in regions[:-1]])
    return pts, starts


def _end_pixels(regions: list[Region]) -> tuple[np.ndarray, np.ndarray]:
    """Each region's row-end or column-end pixels, whichever are fewer, as
    float (x, y) rows grouped by region, plus each region's first row.

    A line's signed distance has the same extremes over these pixels as
    over all of the region's pixels: along a pixel row, y - p_y is one
    float and the rounded (x - p_x) d_y is monotone in x, so the rounded
    distance is monotone along the row; likewise along a column.
    """
    owner = np.repeat(np.arange(len(regions)), [reg.area for reg in regions])
    pts = np.vstack([reg.pixels for reg in regions]).astype(np.int64)
    rel = pts - pts.min(axis=0)
    span = rel.max(axis=0) + 1
    ends, runs = [], []
    for run in (1, 0):  # pixel rows share y, pixel columns share x
        strip = owner * span[run] + rel[:, run]  # one region's row or column
        order = np.argsort(strip * span[1 - run] + rel[:, 1 - run])
        strip = strip[order]
        first = np.flatnonzero(np.r_[True, strip[1:] != strip[:-1]])
        last = np.r_[first[1:], len(order)] - 1
        ends.append(order[np.column_stack([first, last]).ravel()])
        runs.append(np.bincount(owner[order[first]], minlength=len(regions)))
    by_rows = runs[0] <= runs[1]
    sel = np.concatenate([ends[0][by_rows[owner[ends[0]]]], ends[1][~by_rows[owner[ends[1]]]]])
    sel = sel[np.argsort(owner[sel], kind="stable")]
    starts = np.r_[0, np.cumsum(np.where(by_rows, runs[0], runs[1]))[:-1]] * 2
    return pts[sel].astype(np.float64), starts


def _regions_crossed(
    pts: np.ndarray, starts: np.ndarray, point: np.ndarray, direction: np.ndarray
) -> np.ndarray:
    """Per region of a _stack_pixels or _end_pixels stack: pixels lie
    strictly on both sides of the line; (m, 1, 2) stacks of lines give an
    (m, n_regions) table."""
    d = signed_distance(point, direction, pts)
    hi = np.maximum.reduceat(d, starts, axis=-1)
    lo = np.minimum.reduceat(d, starts, axis=-1)
    return (hi > 0) & (lo < 0)


# distances computed per block of lines: keeps each (lines, end pixels)
# temporary near 128 kB
_CROSSING_BLOCK = 1 << 14


def ransac_centroid_line(
    regions: list[Region], params: DetectionParams
) -> tuple[Line2D, list[Region]]:
    """Line through two region centroids maximizing the crossed-region count.

    Regions whose centroids sit within 3 sigma of the winning line are
    returned; sigma comes from the crossing regions' perpendicular
    distances, with a half-pixel floor against degenerate collinearity.
    """
    if len(regions) < 2:
        raise InsufficientRegionsError(f"{len(regions)} regions, need 2")
    centroids = np.array([r.centroid for r in regions])
    rng = np.random.default_rng(params.ransac_seed)
    draws = [
        tuple(rng.choice(len(regions), size=2, replace=False))
        for _ in range(params.ransac_iterations)
    ]
    # a repeated draw rebuilds the same line, which cannot beat the strict
    # best-so-far, so only the first of each is scored
    i, j = np.array(list(dict.fromkeys(draws))).T
    valid = ~coincident(centroids[i], centroids[j])
    if not valid.any():
        raise DegenerateSampleError("all sampled centroid pairs coincide")
    i, j = i[valid], j[valid]
    # built as line_through builds them: np.linalg.norm goes through the BLAS
    # dot kernel, which a vectorized norm does not round like
    lines = [Line2D(centroids[a], centroids[b] - centroids[a]) for a, b in zip(i, j)]
    points = centroids[i][:, None, :]
    directions = np.array([line.direction for line in lines])[:, None, :]
    pts, starts = _end_pixels(regions)
    step = max(1, _CROSSING_BLOCK // len(pts))
    crossed = np.concatenate([
        _regions_crossed(pts, starts, points[k:k + step], directions[k:k + step])
        for k in range(0, len(lines), step)
    ])
    best = int(np.argmax(crossed.sum(axis=1)))  # the first of the tied best
    best_line = lines[best]
    best_crossing = np.flatnonzero(crossed[best])

    dist = best_line.perp_distance(centroids)
    if len(best_crossing) >= 2:
        sigma = float(np.sqrt(np.mean(dist[best_crossing] ** 2)))
    else:
        sigma = float(params.r2)
    sigma = max(sigma, 0.5)
    keep = np.abs(dist) <= params.line_inlier_sigmas * sigma
    return best_line, [reg for reg, k in zip(regions, keep) if k]


def expand_bounding_boxes(
    regions: list[Region], major: float = 1.1, minor: float = 1.5
) -> list[OrientedBox]:
    """Oriented boxes from moment ellipses, stretched per axis."""
    boxes = []
    for reg in regions:
        semi, axes, center = reg.ellipse()
        boxes.append(
            OrientedBox(
                center=center,
                axes=axes,
                half_extents=np.array([major * semi[0], minor * semi[1]]),
            )
        )
    return boxes


def _orientation_kernel(phi: float, sigma_d: float, sigma_a: float) -> np.ndarray:
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
    h = np.exp(-rad2 / (2.0 * sigma_d**2) - diff**2 / (2.0 * sigma_a**2))
    h[half, half] = 1.0  # radius 0, angle term defined as 0
    return h / h.sum()


@dataclass
class JunctionImages:
    """Intermediate binary images of the junction-extraction stage."""

    crop: tuple[int, int, int, int]  # x0, y0, w, h
    halo: np.ndarray  # I_b1
    filtered: np.ndarray  # I_b2
    combined: np.ndarray  # I_b3
    phi: float


def _junction_images(
    regions: list[Region],
    spec_adjacency: set[frozenset[int]],
    params: DetectionParams,
    image_size: tuple[int, int],
    fallback_axis: Optional[Line2D] = None,
) -> JunctionImages:
    e = params.edge_halo
    margin = e + int(np.ceil(3.0 * params.sigma_d)) + 2
    crop, dist_to = _distance_maps(regions, margin, image_size)
    _, _, w, h = crop
    halo = np.zeros((h, w), dtype=bool)
    for pair in spec_adjacency:
        a, b = tuple(pair)
        if a in dist_to and b in dist_to:
            halo |= (dist_to[a] <= e) & (dist_to[b] <= e)
    if not halo.any():
        raise NoEdgesError("no pixels near two adjacent band colors")

    ys, xs = np.nonzero(halo)
    pts = np.column_stack([xs, ys]).astype(np.float64)
    evals, evecs = principal_axes(pts)
    if evals[0] > 0 and (evals[0] - evals[1]) > 0.01 * evals[0]:
        second = evecs[:, 1]
        phi = float(np.arctan2(second[1], second[0]))
    elif fallback_axis is not None:
        d = fallback_axis.direction
        phi = float(np.arctan2(d[1], d[0]) + np.pi / 2.0)
    else:
        second = evecs[:, 1]
        phi = float(np.arctan2(second[1], second[0]))
    phi = float(np.mod(phi + np.pi / 2.0, np.pi) - np.pi / 2.0)

    kernel = _orientation_kernel(phi, params.sigma_d, params.sigma_a)
    response = convolve_unit_sum(BinaryImage(halo), kernel)
    filtered = response >= params.binarize_threshold
    combined = halo & filtered
    if not combined.any():
        raise NoEdgesError("junction filter response below threshold everywhere")
    return JunctionImages(
        crop=crop, halo=halo, filtered=filtered, combined=combined, phi=phi
    )


def _refine_subpixel(combined: np.ndarray, px: int, py: int) -> np.ndarray:
    """Centroid of the junction pixels in the 3x3 neighborhood."""
    h, w = combined.shape
    y0, y1 = max(py - 1, 0), min(py + 2, h)
    x0, x1 = max(px - 1, 0), min(px + 2, w)
    ys, xs = np.nonzero(combined[y0:y1, x0:x1])
    return np.array([xs.mean() + x0, ys.mean() + y0])


def extract_edge_pairs(
    regions: list[Region],
    spec_adjacency: set[frozenset[int]],
    params: DetectionParams,
    image_size: tuple[int, int],
    fallback_axis: Optional[Line2D] = None,
) -> DetectionResult:
    """Sub-pixel contour point pairs of band junctions, ordered along L2.

    See the module docstring for the stage sequence; pairs that are close
    together, not mutual nearest neighbors along the halo line, or with an
    outlying separation are rejected.
    """
    imgs = _junction_images(regions, spec_adjacency, params, image_size, fallback_axis)
    x0, y0, _, _ = imgs.crop
    offset = np.array([x0, y0], dtype=np.float64)

    ys, xs = np.nonzero(imgs.combined)
    if len(xs) < 2:
        raise NoEdgesError("one junction pixel defines no line")
    line1 = fit_line_tls(np.column_stack([xs, ys]).astype(np.float64) + offset)

    comp_labels, n_comp = ndimage.label(imgs.filtered, structure=_EIGHT)
    raw_pairs: list[tuple[np.ndarray, np.ndarray]] = []
    for idx in range(1, n_comp + 1):
        sel = (comp_labels == idx) & imgs.combined
        sy, sx = np.nonzero(sel)
        if len(sy) == 0:
            continue
        pts = np.column_stack([sx, sy]).astype(np.float64) + offset
        perp = line1.perp_distance(pts)
        hi = int(np.argmax(perp))
        lo = int(np.argmin(perp))
        if not (perp[hi] > 0 and perp[lo] < 0):
            continue
        p_lo = _refine_subpixel(imgs.combined, sx[lo], sy[lo]) + offset
        p_hi = _refine_subpixel(imgs.combined, sx[hi], sy[hi]) + offset
        raw_pairs.append((p_lo, p_hi))

    e = params.edge_halo
    raw_pairs = [
        (a, b) for a, b in raw_pairs if np.linalg.norm(a - b) >= e
    ]
    if len(raw_pairs) >= 2:
        raw_pairs = _mutual_nearest_filter(raw_pairs, line1)
    seps = np.array([np.linalg.norm(a - b) for a, b in raw_pairs])
    if len(seps) >= 2:
        mu, sd = seps.mean(), seps.std()
        if sd > 0:
            keep = np.abs(seps - mu) <= params.pair_separation_sigmas * sd
            raw_pairs = [p for p, k in zip(raw_pairs, keep) if k]
    if len(raw_pairs) < 2:
        raise InsufficientEdgesError(
            f"{len(raw_pairs)} contour point pairs after filtering, need 2"
        )

    all_pts = np.vstack([np.vstack(p) for p in raw_pairs])
    line2 = fit_line_tls(all_pts)
    edges = []
    for p_lo, p_hi in raw_pairs:
        mid = 0.5 * (p_lo + p_hi)
        edges.append(
            EdgePointPair(
                p_a=p_lo,
                p_b=p_hi,
                axis_coordinate=float(line2.axis_coord(mid)[0]),
            )
        )
    edges.sort(key=lambda ep: ep.axis_coordinate)
    return DetectionResult(edges=edges, line=line2, pass2_regions=list(regions))


def _mutual_nearest_filter(
    pairs: list[tuple[np.ndarray, np.ndarray]], line1: Line2D
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Keep pairs whose points are mutual nearest neighbors along the line."""
    pts = np.vstack([np.vstack(p) for p in pairs])
    u = line1.axis_coord(pts)
    n = len(u)
    keep = []
    for k in range(len(pairs)):
        ia, ib = 2 * k, 2 * k + 1
        da = np.abs(u - u[ia])
        da[ia] = np.inf
        db = np.abs(u - u[ib])
        db[ib] = np.inf
        if int(np.argmin(da)) == ib and int(np.argmin(db)) == ia:
            keep.append(pairs[k])
    return keep


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
    crossed = (
        _regions_crossed(*_stack_pixels(regions), line2.point, line2.direction)
        if regions else []
    )
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

    regions1 = detect_band_regions(hs, colors, adjacency, params.s1, params.r1)
    if not regions1:
        raise PointerNotFoundError("pass1-regions")
    try:
        _, surviving1 = ransac_centroid_line(regions1, params)
    except (InsufficientRegionsError, DegenerateSampleError) as exc:
        raise PointerNotFoundError("pass1-line", str(exc)) from exc
    if not surviving1:
        raise PointerNotFoundError("pass1-line", "no regions near the axis")
    boxes = expand_bounding_boxes(surviving1, params.major_expand, params.minor_expand)

    regions2 = detect_band_regions(
        hs, colors, adjacency, params.s2, params.r2, roi=boxes
    )
    if not regions2:
        raise PointerNotFoundError("pass2-regions")
    try:
        line2_centroids, surviving2 = ransac_centroid_line(regions2, params)
    except (InsufficientRegionsError, DegenerateSampleError) as exc:
        raise PointerNotFoundError("pass2-line", str(exc)) from exc
    if not surviving2:
        raise PointerNotFoundError("pass2-line", "no regions near the axis")

    extracted = extract_edge_pairs(
        surviving2, adjacency, params, size, fallback_axis=line2_centroids
    )
    result = label_edge_pairs(extracted.edges, surviving2, extracted.line)
    result.pass1_regions = surviving1
    result.pass2_regions = surviving2
    return result
