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


@dataclass(frozen=True)
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


def line_through(p: np.ndarray, q: np.ndarray) -> Line2D:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if coincident(p, q):
        raise DegenerateSampleError("coincident points define no line")
    return Line2D(p, q - p)


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


@dataclass(frozen=True)
class OrientedBox:
    """Rectangle with arbitrary orientation: center, unit axes, half extents."""

    center: np.ndarray
    axes: np.ndarray  # (2, 2), rows are unit vectors
    half_extents: np.ndarray  # (2,)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        rel = pts - self.center
        local = rel @ self.axes.T
        return (np.abs(local) <= self.half_extents + 1e-12).all(axis=1)

    def corners(self) -> np.ndarray:
        e0 = self.axes[0] * self.half_extents[0]
        e1 = self.axes[1] * self.half_extents[1]
        return np.array([
            self.center + e0 + e1,
            self.center + e0 - e1,
            self.center - e0 - e1,
            self.center - e0 + e1,
        ])


def boxes_mask(boxes: list[OrientedBox], width: int, height: int) -> np.ndarray:
    """Boolean raster of pixels whose centers fall inside any box."""
    mask = np.zeros((height, width), dtype=bool)
    for box in boxes:
        corners = box.corners()
        x0 = max(int(np.floor(corners[:, 0].min())), 0)
        x1 = min(int(np.ceil(corners[:, 0].max())) + 1, width)
        y0 = max(int(np.floor(corners[:, 1].min())), 0)
        y1 = min(int(np.ceil(corners[:, 1].max())) + 1, height)
        if x0 >= x1 or y0 >= y1:
            continue
        ys, xs = np.mgrid[y0:y1, x0:x1]
        pts = np.column_stack([xs.ravel(), ys.ravel()]).astype(np.float64)
        inside = box.contains(pts).reshape(ys.shape)
        mask[y0:y1, x0:x1] |= inside
    return mask
