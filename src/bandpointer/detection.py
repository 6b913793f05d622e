"""Two-pass detection of band junction contour points.

Pass 1 finds candidate colored regions at a strict saturation threshold;
pass 2 re-detects inside expanded bounding boxes with a permissive
threshold, then junction halos are filtered with an orientation-selective
kernel and reduced to sub-pixel contour point pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar, Optional

import numpy as np
from scipy import ndimage
from scipy.sparse import coo_matrix, csgraph
from scipy.spatial import cKDTree

from .color_model import ColorClassSet, classify_image_masked
from .association import PointerSpec
from .errors import (
    DegenerateSampleError,
    InsufficientEdgesError,
    InsufficientRegionsError,
    NoEdgesError,
    PointerNotFoundError,
    Field,
    integer,
    number,
    section,
)
from .geometry import (
    Line2D,
    OrientedBox,
    boxes_mask,
    coincident,
    fit_line_tls,
    pixel_box,
    principal_axes,
    signed_distance,
)
from .imaging import (
    RasterImage,
    Region,
    _EIGHT_CONNECTED,
    connected_components,
    convolve_unit_sum,
    dilate_disk,
    erode_disk,
    rgb_to_hue_saturation,
)


# Detection settings that stay fixed while scale and lighting change
MAJOR_EXPAND = 1.1  # pass-1 region box stretch along the band
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
    # the rows of the config's detection section, which may leave any key out
    json_fields: ClassVar[tuple[Field, ...]] = tuple(Field(*row, required=False) for row in (
        ("s1", number()), ("s2", number()), ("r1", integer(1)), ("r2", integer(1)),
        ("ransac_seed", integer(0)),
    ))

    def __post_init__(self):
        for name, value in section(*self.json_fields)(vars(self)).items():
            object.__setattr__(self, name, value)
        if not 0.0 <= self.s2 < self.s1 <= 1.0:
            raise ValueError(
                f"s1 and s2 must satisfy 0 <= s2 < s1 <= 1, got {self.s1} and {self.s2}"
            )
        if not self.r2 < self.r1:
            raise ValueError(f"r2 must be below r1, got {self.r2} and {self.r1}")

    @property
    def edge_halo(self) -> int:
        return 2 * self.r2 + 1


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DetectionResult:
    """Contour point pairs in the order of their axis coordinates.

    Each edge's ``axis_coordinate`` is its midpoint's coordinate on
    ``line``, as ``order_along_axis`` computes it; later stages read the
    stored value instead of projecting again.
    """

    edges: list[EdgePointPair]
    line: Line2D  # L2, fit to the pair points


def detect_band_regions(
    hs: RasterImage,
    colors: ColorClassSet,
    spec_adjacency: set[frozenset[int]],
    s: float,
    r: int,
    roi: Optional[list[OrientedBox]] = None,
) -> list[Region]:
    """Classified regions that survive erosion and the color-adjacency test.

    A region stays only if a pixel of some region of an adjacent pattern
    color lies within 2r + 5 pixels of one of its pixels, center to center
    (2r + 4 pixels between their borders). The pass classifies only a
    window, a view of the frame, and finds no region when it is empty.
    With roi, the window is the boxes'. Without, it is _lattice_window's,
    which holds every disk the erosion can keep. Erosion and labeling run
    in the box the classifier returns: every label is 0 outside it, as
    beyond the frame's border.
    """
    if roi is None:
        window, roi_mask = _lattice_window(hs, s, r), None
    else:
        window, roi_mask = boxes_mask(roi, hs.width, hs.height)
    if window[0].start >= window[0].stop or window[1].start >= window[1].stop:
        return []  # no lattice pixel passes the gate, or the boxes miss the frame
    box, labels = classify_image_masked(colors, hs.window(window), s, roi_mask=roi_mask)
    origin = (window[1].start + box[1].start, window[0].start + box[0].start)

    regions: list[Region] = []
    for label in colors.labels:
        mask = labels == label
        if not mask.any():
            continue
        regions += connected_components(erode_disk(mask, r), origin, label)

    trees = {
        label: cKDTree(np.vstack([reg.pixels for reg in regions if reg.label == label]))
        for label in {reg.label for reg in regions}
    }
    # cKDTree's bound is strict: nudged up, a pixel exactly 2r + 5 away counts
    bound = np.nextafter(2 * r + 5, np.inf)

    def near_adjacent_color(reg: Region) -> bool:
        return any(
            other in trees
            and np.isfinite(trees[other].query(reg.pixels, distance_upper_bound=bound)[0]).any()
            for pair in spec_adjacency if reg.label in pair
            for other in pair - {reg.label}
        )

    return [reg for reg in regions if near_adjacent_color(reg)]


def _lattice_window(hs: RasterImage, s: float, r: int) -> tuple[slice, slice]:
    """(rows, cols) box, clipped to the frame, of the gated pixels of the
    lattice with step k = 2a + 1, a = floor(r / sqrt 2), padded by 2r.

    An r-disk the erosion keeps is all gated, and it holds the (2a + 1)-
    square around its center, so a lattice pixel within a of the center;
    the disk then lies within a + r <= 2r of that pixel. The box is empty
    when no lattice pixel passes the gate."""
    k = 2 * math.isqrt(r * r // 2) + 1
    ys, xs = np.nonzero(hs.window((slice(0, None, k),) * 2).gate(s))
    if len(xs) == 0:
        return slice(0, 0), slice(0, 0)
    x0, y0, x1, y1 = pixel_box(
        np.column_stack([xs, ys]) * k, 2 * r, (0, 0), (hs.width, hs.height)
    )
    return slice(y0, y1), slice(x0, x1)


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
    winning line are returned, so never none: the line passes through two
    of them. Sigma comes from the crossing regions' perpendicular
    distances, with a half-pixel floor against degenerate collinearity.
    Only params.r2 is read.
    """
    if len(regions) < 2:
        raise InsufficientRegionsError(f"{len(regions)} regions, need 2")
    centroids = np.array([r.centroid for r in regions])
    i, j = np.triu_indices(len(regions), k=1)
    valid = ~coincident(centroids[i], centroids[j])
    if not valid.any():
        raise DegenerateSampleError("all centroid pairs coincide")
    i, j = i[valid], j[valid]
    d = centroids[j] - centroids[i]
    directions = d / np.linalg.norm(d, axis=1)[:, None]
    crossed = _regions_crossed(regions, centroids[i][:, None, :], directions[:, None, :])
    best = int(np.argmax(crossed.sum(axis=1)))  # the first of the tied best
    best_line = Line2D(centroids[i[best]], d[best])
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
    """Oriented boxes along each region's principal axes, stretched per axis.

    The semi-axes are sqrt(3 * eigenvalue) of the pixel scatter, so a
    uniform rectangle gives its half extents, floored at 0.5 px.
    """
    boxes = []
    for reg in regions:
        w, v = principal_axes(reg.pixels)
        semi = np.maximum(np.sqrt(3.0 * np.clip(w, 0.0, None)), 0.5)
        boxes.append(
            OrientedBox(
                center=reg.centroid,
                axes=v.T,
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
    fallback_axis: Line2D,
) -> tuple[tuple[int, int], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The crop's (x, y) origin in the frame, the halo I_b1 and the
    orientation-filtered halo I_b2, both over the crop, and the halo's
    pixel rows and columns in scan order.

    I_b1 holds the pixels within distance edge_halo of two adjacent band
    colors' region pixels; each color's disk dilation is exact integer
    work, with no distance transform. Its pixel list is found once and
    gives the orientation, the groups and, in extract_edge_pairs, I_b3.
    I_b2 is filtered one group of nearby halo pixels at a time, over the
    group's box (_halo_groups): that equals the filter over the whole crop
    but for FFT round-off, without a crop-sized float array or spectrum."""
    e = params.edge_halo
    margin = e + int(np.ceil(3.0 * e)) + 2  # the halo and the kernel's half width
    # crop covering all region pixels plus the margin, clipped to the frame
    all_px = np.vstack([reg.pixels for reg in regions])
    x0, y0, x1, y1 = pixel_box(all_px, margin, (0, 0), image_size)
    masks: dict[int, np.ndarray] = {}
    for reg in regions:
        mask = masks.setdefault(reg.label, np.zeros((y1 - y0, x1 - x0), dtype=bool))
        mask[reg.pixels[:, 1] - y0, reg.pixels[:, 0] - x0] = True
    near = {label: dilate_disk(mask, e) for label, mask in masks.items()}
    halo = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    for pair in spec_adjacency:
        a, b = tuple(pair)
        if a in near and b in near:
            halo |= near[a] & near[b]
    ys, xs = np.nonzero(halo)
    if len(ys) == 0:
        raise NoEdgesError("no pixels near two adjacent band colors")

    pts = np.column_stack([xs, ys]).astype(np.float64)
    evals, evecs = principal_axes(pts)
    anisotropic = evals[0] > 0 and (evals[0] - evals[1]) > 0.01 * evals[0]
    if anisotropic:  # across the halo's major axis
        phi = float(np.arctan2(evecs[1, 1], evecs[0, 1]))
    else:
        d = fallback_axis.direction
        phi = float(np.arctan2(d[1], d[0]) + np.pi / 2.0)
    phi = float(np.mod(phi + np.pi / 2.0, np.pi) - np.pi / 2.0)

    kernel = _orientation_kernel(phi, e)
    filtered = np.zeros_like(halo)
    for box, group in _halo_groups(ys, xs, halo.shape, kernel.shape[0] // 2):
        filtered[box] |= convolve_unit_sum(group, kernel) >= BINARIZE_THRESHOLD
    return (x0, y0), halo, filtered, ys, xs


def _halo_groups(ys: np.ndarray, xs: np.ndarray, shape: tuple[int, int], half: int):
    """Each group of halo pixels (ys, xs, in scan order, over a raster of
    shape) that a (2 half + 1)-square kernel sums together, as (box,
    pixels): the box of the group's pixels grown by half and clipped to the
    raster, and the group's pixels over the box.

    Two halo pixels add to one output pixel only if they lie within 2 half
    of each other, so a group joins pixels within Chebyshev distance
    2 half + 1: the 8-connected components of the halo dilated by the
    square, found as the graph components of the pixels' row runs, two
    runs joined where they come that close, instead of a crop-sized
    dilation and labeling. Every output pixel within the kernel's reach
    of a group lies in its box."""
    reach = 2 * half + 1
    if len(ys) == 0:
        return
    start = np.flatnonzero(np.r_[True, (np.diff(ys) != 0) | (np.diff(xs) != 1)])
    end = np.r_[start[1:], len(ys)]
    row, first, last = ys[start], xs[start], xs[end - 1]
    # each run against every later run within reach rows; join those within
    # reach columns
    n = len(start)
    later = np.searchsorted(row, row + reach, side="right") - np.arange(1, n + 1)
    i = np.repeat(np.arange(n), later)
    j = np.arange(len(i)) - np.repeat(np.cumsum(later) - later, later) + i + 1
    near = (first[j] - last[i] <= reach) & (first[i] - last[j] <= reach)
    i, j = i[near], j[near]
    joined = coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
    group = np.repeat(csgraph.connected_components(joined, directed=False)[1], end - start)
    by_group = np.argsort(group, kind="stable")
    for members in np.split(by_group, np.flatnonzero(np.diff(group[by_group])) + 1):
        gy, gx = ys[members], xs[members]
        y0, x0 = max(gy[0] - half, 0), max(gx.min() - half, 0)
        y1 = min(gy[-1] + half + 1, shape[0])
        x1 = min(gx.max() + half + 1, shape[1])
        pixels = np.zeros((y1 - y0, x1 - x0), dtype=bool)
        pixels[gy - y0, gx - x0] = True
        yield (slice(y0, y1), slice(x0, x1)), pixels


def _refine_subpixel(combined: np.ndarray, px: int, py: int) -> np.ndarray:
    """Centroid of the junction pixels in the 3x3 neighborhood."""
    x0, y0, x1, y1 = pixel_box([px, py], 1.0, (0, 0), combined.shape[::-1])
    ys, xs = np.nonzero(combined[y0:y1, x0:x1])
    return np.array([xs.mean() + x0, ys.mean() + y0])


def order_along_axis(pairs: np.ndarray) -> tuple[Line2D, np.ndarray, np.ndarray]:
    """Axis line, midpoint coordinates and order of (n, 2, 2) point pairs.

    The line is the TLS fit through the n pair midpoints, which follows
    the axis even where a steep pointer's pairs are wider apart than its
    junctions; each pair's coordinate is its midpoint's on that line; the
    order is a stable sort of them.
    """
    line = fit_line_tls(pairs.mean(axis=1))
    # per pair: t reaches association and the LM, and a stacked call rounds it differently
    t = np.array([float(line.axis_coord(0.5 * (a + b))[0]) for a, b in pairs])
    return line, t, np.argsort(t, kind="stable")


def extract_edge_pairs(
    regions: list[Region],
    spec_adjacency: set[frozenset[int]],
    params: DetectionParams,
    image_size: tuple[int, int],
    fallback_axis: Line2D,
) -> DetectionResult:
    """Sub-pixel contour point pairs of band junctions, ordered along L2.

    Each I_b2 component, in scan order, gives the I_b3 = I_b1 & I_b2
    pixels farthest on either side of L1, the TLS line through all of
    I_b3. Pairs closer than edge_halo, not mutual nearest neighbors along
    L1, or with an outlying separation are rejected; the rest, in axis
    order, are what label_edge_pairs takes.
    """
    origin, halo, filtered, ys, xs = _junction_images(
        regions, spec_adjacency, params, image_size, fallback_axis
    )
    on = filtered[ys, xs]  # I_b3, in the halo's scan order
    ys, xs = ys[on], xs[on]
    combined = halo & filtered
    if len(xs) == 0:
        raise NoEdgesError("junction filter response below threshold everywhere")
    if len(xs) < 2:
        raise NoEdgesError("one junction pixel defines no line")
    offset = np.array(origin, dtype=np.float64)
    pts = np.column_stack([xs, ys]) + offset
    line1 = fit_line_tls(pts)
    perp = line1.perp_distance(pts)

    # I_b3 pixels grouped by I_b2 component, each group in row-major order
    comp = ndimage.label(filtered, structure=_EIGHT_CONNECTED)[0][ys, xs]
    by_comp = np.argsort(comp, kind="stable")
    pairs = []
    for group in np.split(by_comp, np.flatnonzero(np.diff(comp[by_comp])) + 1):
        lo, hi = group[np.argmin(perp[group])], group[np.argmax(perp[group])]
        if perp[hi] > 0 and perp[lo] < 0:
            pairs.append([_refine_subpixel(combined, xs[k], ys[k]) + offset for k in (lo, hi)])
    pairs = np.array(pairs, dtype=np.float64).reshape(-1, 2, 2)

    sep = np.linalg.norm(pairs[:, 1] - pairs[:, 0], axis=1)
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
    """Attach side color labels to junction pairs in axis order, each at
    least edge_halo wide, as extract_edge_pairs returns them.

    Regions are clipped at the junction lines; the label on a side is the
    clipped piece with the closest centroid along the axis. Regions that
    do not cross the axis line are ignored, and an equal label on both
    sides marks a leak, reported as undefined.
    """
    crossed = _regions_crossed(regions, line2.point[None, None], line2.direction[None, None])[0]
    crossing = [reg for reg, c in zip(regions, crossed) if c]

    # each junction line's unit normal, pointing along the axis
    d = np.array([ep.p_b - ep.p_a for ep in pairs])
    normals = np.column_stack([-d[:, 1], d[:, 0]]) / np.linalg.norm(d, axis=1)[:, None]
    normals[normals @ line2.direction < 0] *= -1.0
    mids = [ep.midpoint for ep in pairs]

    raw_pieces: list[tuple[int, float, int, int]] = []  # cell, coord, label, area
    for reg in crossing:
        pts = reg.pixels.astype(np.float64)
        cell = np.zeros(len(pts), dtype=np.int64)
        for mid, normal in zip(mids, normals):
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
    hs: RasterImage,
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
        return ransac_centroid_line(regions, params)
    except (InsufficientRegionsError, DegenerateSampleError) as exc:
        raise PointerNotFoundError(f"pass{n}-line", str(exc)) from exc


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
    return label_edge_pairs(extracted.edges, surviving2, extracted.line)
