"""Small 2D geometry helpers shared by detection and pose estimation.

Image points are (x, y) with x along columns and y along rows; pixel
centers sit at integer coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError


def canonical_direction(d: np.ndarray) -> np.ndarray:
    """Flip a direction vector into a canonical half-plane.

    Lines are undirected; canonicalizing the direction makes axis
    coordinates deterministic across runs.
    """
    d = np.asarray(d, dtype=np.float64)
    if d[0] < 0 or (d[0] == 0 and d[1] < 0):
        d = -d
    return d


@dataclass(frozen=True, eq=False)
class Line2D:
    """Undirected image line given by a point and a unit direction."""

    point: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.point, dtype=np.float64)
        d = np.asarray(self.direction, dtype=np.float64)
        n = np.linalg.norm(d)
        if n == 0:
            raise DegenerateSampleError("line direction is zero")
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "direction", canonical_direction(d / n))

    def axis_coord(self, pts: np.ndarray) -> np.ndarray:
        """Signed coordinate of points along the line direction."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        return (pts - self.point) @ self.direction

    def perp_distance(self, pts: np.ndarray) -> np.ndarray:
        """Signed perpendicular distance; positive on the left of direction."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        return signed_distance(self.point, self.direction, pts)

    def at(self, t) -> np.ndarray:
        """Point at coordinate t, or an (n, 2) array for n coordinates."""
        return self.point + np.multiply.outer(np.asarray(t, dtype=np.float64), self.direction)


def signed_distance(point: np.ndarray, direction: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Signed perpendicular distance of (n, 2) points from the line through
    point along the unit direction, positive on the left of the direction.

    (m, 1, 2) stacks of points and directions give the (m, n) distances
    from m lines, each with the bits one line gives.
    """
    rel_x = pts[:, 0] - point[..., 0]
    rel_y = pts[:, 1] - point[..., 1]
    return rel_y * direction[..., 0] - rel_x * direction[..., 1]


def coincident(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Whether points are too close to define a line, per (..., 2) row."""
    return np.isclose(p, q, atol=1e-12).all(axis=-1)


def fit_line_tls(points: np.ndarray) -> Line2D:
    """Total-least-squares line through 2D points (principal axis)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[0] < 2:
        raise DegenerateSampleError("need at least 2 points to fit a line")
    mean = pts.mean(axis=0)
    centered = pts - mean
    cov = centered.T @ centered
    w, v = np.linalg.eigh(cov)
    if w[-1] <= 1e-18:
        raise DegenerateSampleError("all points coincident")
    return Line2D(mean, v[:, -1])


def principal_axes(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors (columns) of point scatter."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / max(len(pts), 1)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


@dataclass(frozen=True, eq=False)
class OrientedBox:
    """Rectangle with arbitrary orientation: center, unit axes, half extents."""

    center: np.ndarray
    axes: np.ndarray  # (2, 2), rows are unit vectors
    half_extents: np.ndarray  # (2,)

    def corners(self) -> np.ndarray:
        e0 = self.axes[0] * self.half_extents[0]
        e1 = self.axes[1] * self.half_extents[1]
        return np.array([
            self.center + e0 + e1,
            self.center + e0 - e1,
            self.center - e0 - e1,
            self.center - e0 + e1,
        ])


def pixel_box(
    points: np.ndarray, margin: float, lo: tuple[int, int], hi: tuple[int, int]
) -> tuple[int, int, int, int]:
    """(x0, y0, x1, y1): the pixels from floor(min - margin) through
    ceil(max + margin) of (n, 2) points, clipped to [lo, hi) per axis.

    The box is empty, x0 >= x1 or y0 >= y1, when it misses the window.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    first = np.floor(pts.min(axis=0) - margin)
    last = np.ceil(pts.max(axis=0) + margin)
    x0, y0 = (max(int(f), bound) for f, bound in zip(first, lo))
    x1, y1 = (min(int(c) + 1, bound) for c, bound in zip(last, hi))
    return x0, y0, x1, y1


def boxes_mask(
    boxes: list[OrientedBox], width: int, height: int
) -> tuple[tuple[slice, slice], np.ndarray]:
    """(box, mask): the (rows, cols) pixel box of one or more boxes'
    corners, clipped to the frame, and over it the pixels whose centers
    lie within some box's half_extents + 1e-12 along both of its axes."""
    corners = np.vstack([b.corners() for b in boxes])
    x0, y0, x1, y1 = pixel_box(corners, 0.0, (0, 0), (width, height))
    mask = np.zeros((max(y1 - y0, 0), max(x1 - x0, 0)), dtype=bool)
    for b in boxes:
        bx0, by0, bx1, by1 = pixel_box(b.corners(), 0.0, (0, 0), (width, height))
        if bx0 >= bx1 or by0 >= by1:
            continue
        dx = np.arange(bx0, bx1) - b.center[0]
        dy = np.arange(by0, by1)[:, None] - b.center[1]
        a, half = b.axes, b.half_extents + 1e-12
        mask[by0 - y0 : by1 - y0, bx0 - x0 : bx1 - x0] |= (
            np.abs(dx * a[0, 0] + dy * a[0, 1]) <= half[0]
        ) & (np.abs(dx * a[1, 0] + dy * a[1, 1]) <= half[1])
    return (slice(y0, y0 + mask.shape[0]), slice(x0, x0 + mask.shape[1])), mask
