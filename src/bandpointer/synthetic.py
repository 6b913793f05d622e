"""Ground-truth oracle: renders a banded pointer under a known camera.

The pointer body is ray-cast per 4x-supersampled subpixel as a stack of
conical frusta (piecewise-linear radius between measured edges), so band
boundaries land exactly where the projection equations put them. Exact
junction contour points come from a projection path written separately
from the pose module, giving the tests two independent implementations
to cross-check. That one silhouette projection also places highlight
stripes and bounds each conical segment's ray-cast box; the render box
is the box of those segment boxes and the distractor discs, and the
segment a ray hits names its band. Every pixel box (segments, render,
occluders, distractors, crop) comes from `pixel_box`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy import ndimage

from .association import PointerSpec
from .color_model import BACKGROUND_LABEL
from .detection import DetectionResult, EdgePointPair, order_along_axis
from .errors import (
    BehindCameraError,
    DegenerateGeometryError,
    InsufficientEdgesError,
    NumericError,
)
from .geometry import pixel_box
from .imaging import RasterImage
from .pose import CameraModel, PointerPose

SUPERSAMPLE = 4


@dataclass(frozen=True)
class HighlightStripe:
    """Desaturated patch on the pointer surface.

    Covers the axial interval [start_mm, end_mm]. `side_fraction` (lo, hi)
    optionally restricts it to a band of the visible width, the shape of
    a specular line running along the cylinder: a subpixel whose ray hits
    station s is lit when lo <= f <= hi, f being the offset of its centre
    from the midpoint of the silhouette pair (p_a, p_b) at s, along
    p_a - p_b, over half the pair length: +1 at p_a, -1 at p_b. The pair
    is projected as the ground-truth junctions are, at the radius
    interpolated between the edges. None covers the full circumference.
    """

    start_mm: float
    end_mm: float
    desaturation: float  # 0 = untouched, 1 = white
    side_fraction: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if not self.start_mm <= self.end_mm:
            raise ValueError("highlight needs start_mm <= end_mm")
        if not 0.0 <= self.desaturation <= 1.0:
            raise ValueError("highlight desaturation must lie in [0, 1]")
        if self.side_fraction is not None:
            lo, hi = self.side_fraction
            if not -1.0 <= lo <= hi <= 1.0:
                raise ValueError("highlight side_fraction needs -1 <= lo <= hi <= 1")


@dataclass(frozen=True)
class Occluder:
    """Axis-aligned image-space rectangle painted over the scene."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        for name in ("x0", "y0", "x1", "y1"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"occluder {name} must be finite, got {value!r}")
        if not (self.x0 <= self.x1 and self.y0 <= self.y1):
            raise ValueError("occluder needs x0 <= x1 and y0 <= y1")

    def contains(self, pt: np.ndarray) -> bool:
        return bool(
            self.x0 <= pt[0] <= self.x1 and self.y0 <= pt[1] <= self.y1
        )


@dataclass(frozen=True)
class Distractor:
    center: tuple[float, float]
    radius_px: float
    color: tuple[float, float, float]

    def __post_init__(self):
        if not np.isfinite(self.center).all():
            raise ValueError("distractor center must be finite")
        if not 0.0 <= self.radius_px < np.inf:
            raise ValueError("distractor radius_px must be finite and >= 0")


@dataclass(frozen=True)
class SceneSpec:
    pose: PointerPose
    spec: PointerSpec
    band_colors: dict[int, tuple[float, float, float]]
    background: tuple[float, float, float] = (0.45, 0.45, 0.47)
    bare_color: tuple[float, float, float] = (0.52, 0.48, 0.42)
    occluder_color: tuple[float, float, float] = (0.35, 0.35, 0.35)
    blur_sigma: float = 0.0
    highlights: tuple[HighlightStripe, ...] = ()
    occluders: tuple[Occluder, ...] = ()
    distractors: tuple[Distractor, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.blur_sigma < np.inf:
            raise ValueError("blur_sigma must be finite and >= 0")
        painted = [self.background, self.bare_color, self.occluder_color]
        for rgb in [*self.band_colors.values(), *painted, *(d.color for d in self.distractors)]:
            arr = np.asarray(rgb, dtype=np.float64)
            if not ((arr >= 0) & (arr <= 1)).all():
                raise ValueError("colors must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class EdgeGroundTruth:
    index: int
    p_a: np.ndarray  # negative contour side, raw image px
    p_b: np.ndarray
    visible: bool


@dataclass(frozen=True)
class GroundTruth:
    edges: tuple[EdgeGroundTruth, ...]  # a sequence given is stored as a tuple
    pose: PointerPose

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))

    def visible_edges(self) -> list[EdgeGroundTruth]:
        return [e for e in self.edges if e.visible]


def _camera_center_from_p(p_mat: np.ndarray) -> np.ndarray:
    m = p_mat[:, :3]
    return -np.linalg.solve(m, p_mat[:, 3])


def _project_p(p_mat: np.ndarray, pts: np.ndarray) -> np.ndarray:
    hom = np.hstack([pts, np.ones((len(pts), 1))]) @ p_mat.T
    if np.any(hom[:, 2] <= 0):
        raise BehindCameraError("point behind camera in ground-truth projection")
    return hom[:, :2] / hom[:, 2:3]


def _silhouette_uv(
    scene: SceneSpec, camera: CameraModel, s: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """Raw-image silhouette points of the axis circles at stations s, radii
    r: an (n, 2, 2) array, the negative contour side first.

    Deliberately re-derives the projection from the camera matrix rather
    than calling the pose module, so the two stay independent checks.
    """
    p_mat = camera.P
    center = _camera_center_from_p(p_mat)
    tip = scene.pose.tip
    direction = scene.pose.direction
    # a pointer too far away for float64 overflows to a projection that is
    # not finite, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        normal = np.cross(direction, tip - center)
        nn = np.linalg.norm(normal)
        if nn < 1e-9 * max(np.linalg.norm(tip - center), 1.0):
            raise DegenerateGeometryError("axis through camera center")
        normal = normal / nn
        axis_pts = tip + np.asarray(s)[:, None] * direction
        offsets = np.asarray(r)[:, None] * normal
        pts = np.stack([axis_pts - offsets, axis_pts + offsets], axis=1)
        uv = camera.distort(_project_p(p_mat, pts.reshape(-1, 3)))
    if not np.isfinite(uv).all():
        raise NumericError("ground-truth projection is not finite")
    return uv.reshape(-1, 2, 2)


def ground_truth(
    scene: SceneSpec, camera: CameraModel, size: tuple[int, int]
) -> GroundTruth:
    """Exact junction contour points in raw image coordinates."""
    width, height = size
    uv = _silhouette_uv(scene, camera, scene.spec.distances_mm, scene.spec.radii_mm)
    inside = np.all((uv >= 0) & (uv <= (width - 1, height - 1)), axis=(1, 2))
    edges = []
    for i, pair in enumerate(uv):
        occluded = bool(scene.occluders) and all(
            any(occ.contains(pt) for occ in scene.occluders) for pt in pair
        )
        edges.append(
            EdgeGroundTruth(
                index=i, p_a=pair[0], p_b=pair[1],
                visible=bool(inside[i]) and not occluded,
            )
        )
    return GroundTruth(edges=edges, pose=scene.pose)


def _stations(spec: PointerSpec) -> tuple[np.ndarray, np.ndarray]:
    """Tip, edge and end stations with their radii: the conical segment
    between stations k and k + 1 is band k. An edge at the very end adds
    no end station (its band is empty)."""
    b, w = spec.distances_mm, spec.radii_mm
    n_end = int(b[-1] < spec.total_length_mm)
    s = np.concatenate([[0.0], b, [spec.total_length_mm] * n_end])
    r = np.concatenate([[w[0]], w, [w[-1]] * n_end])
    return s, r


def _subpixel_rays(camera: CameraModel, px0, py0, px1, py1):
    """World-frame ray directions for subpixel centers of a pixel window."""
    ss = SUPERSAMPLE
    xs = px0 + (np.arange((px1 - px0) * ss) + 0.5) / ss - 0.5
    ys = py0 + (np.arange((py1 - py0) * ss) + 0.5) / ss - 0.5
    px, py = np.meshgrid(xs, ys)
    flat = np.column_stack([px.ravel(), py.ravel()])
    flat = camera.undistort(flat)
    hom = np.column_stack([flat, np.ones(len(flat))]) @ camera.K_inv.T
    dirs = hom @ camera.R  # R^T applied to rows
    return dirs.reshape(py.shape[0], px.shape[1], 3)


def _raycast(
    scene: SceneSpec, camera: CameraModel, box: tuple[int, int, int, int],
    segment_boxes: Sequence[tuple[int, int, int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Axial station (nan = miss) and band (-1 = miss) of the nearest
    frustum hit per subpixel ray of box.

    Segment k, band k, is intersected only inside segment_boxes[k], which
    must lie in box; a z-buffer merges overlapping segments.
    """
    x0, y0, x1, y1 = box
    ss = SUPERSAMPLE
    h, w = (y1 - y0) * ss, (x1 - x0) * ss
    t_buf = np.full((h, w), np.inf)
    s_buf = np.full((h, w), np.nan)
    band_buf = np.full((h, w), -1, dtype=np.intp)

    center = camera.center
    tip = scene.pose.tip
    d_axis = scene.pose.direction
    q = center - tip
    s0 = q @ d_axis
    q2 = q @ q
    s_list, r_list = _stations(scene.spec)

    for k, (bx0, by0, bx1, by1) in enumerate(segment_boxes):
        if bx1 <= bx0 or by1 <= by0:
            continue
        dirs = _subpixel_rays(camera, bx0, by0, bx1, by1)
        d_dot_axis = dirs @ d_axis
        q_dot_d = dirs @ q
        d_norm2 = np.einsum("ijk,ijk->ij", dirs, dirs)

        s_lo, s_hi = s_list[k], s_list[k + 1]
        r_lo, r_hi = r_list[k], r_list[k + 1]
        c1 = (r_hi - r_lo) / (s_hi - s_lo)
        c0 = r_lo - c1 * s_lo
        k0 = c0 + c1 * s0
        k1 = c1 * d_dot_axis
        a = d_norm2 - d_dot_axis**2 - k1**2
        b = 2.0 * q_dot_d - 2.0 * s0 * d_dot_axis - 2.0 * k0 * k1
        c = q2 - s0**2 - k0**2
        disc = b * b - 4.0 * a * c
        valid = (disc >= 0.0) & (np.abs(a) > 1e-12)
        if not valid.any():
            continue
        sq = np.sqrt(np.where(valid, disc, 0.0))
        a_safe = np.where(valid, a, 1.0)
        sy = slice((by0 - y0) * ss, (by1 - y0) * ss)
        sx = slice((bx0 - x0) * ss, (bx1 - x0) * ss)
        t_loc = t_buf[sy, sx]
        s_loc = s_buf[sy, sx]
        band_loc = band_buf[sy, sx]
        for sign in (-1.0, 1.0):
            t = np.where(valid, (-b + sign * sq) / (2.0 * a_safe), np.inf)
            s_hit = s0 + np.where(valid, t, 0.0) * d_dot_axis
            ok = (
                valid
                & (t > 1e-9)
                & (t < t_loc)
                & (s_hit >= s_lo - 1e-12)
                & (s_hit <= s_hi + 1e-12)
            )
            t_loc[ok] = t[ok]
            s_loc[ok] = s_hit[ok]
            band_loc[ok] = k
    return s_buf, band_buf


def _subpixel_bands(scene: SceneSpec, camera: CameraModel, size):
    """The scene's render box and, per subpixel ray in it, the axial
    station hit (nan = miss) and its band index (-1 = miss); both None
    when the box is empty.

    Each segment's box holds its end silhouettes, grown by the widest
    projected radius plus 3 px and clipped to the frame. The render box
    is the box of those segment boxes and the distractor discs, so no
    hit or disc lies outside it.
    """
    s_list, r_list = _stations(scene.spec)
    uv = _silhouette_uv(scene, camera, s_list, r_list)
    tip = scene.pose.tip
    depth_min = camera.to_camera(
        np.vstack([tip, tip + scene.spec.total_length_mm * scene.pose.direction])
    )[:, 2].min()
    bulge = float(r_list.max()) * camera.K[0, 0] / max(depth_min, 1.0)
    segment_boxes = [
        pixel_box(np.vstack([uv[k], uv[k + 1]]), 3.0 + bulge, (0, 0), size)
        for k in range(len(uv) - 1)
    ]
    corners = []
    for bx0, by0, bx1, by1 in segment_boxes:
        if bx1 > bx0 and by1 > by0:
            corners += [(bx0, by0), (bx1 - 1, by1 - 1)]
    for d in scene.distractors:
        c = np.asarray(d.center, dtype=np.float64)
        corners += [c - d.radius_px, c + d.radius_px]
    box = pixel_box(corners, 0.0, (0, 0), size) if corners else (0, 0, 0, 0)
    x0, y0, x1, y1 = box
    if x1 <= x0 or y1 <= y0:
        return box, None, None
    return (box, *_raycast(scene, camera, box, segment_boxes))


def render(
    scene: SceneSpec, camera: CameraModel, size: tuple[int, int]
) -> tuple[RasterImage, GroundTruth]:
    """Rasterize the scene and return it, as the 8-bit frame a PPM of it
    holds, with exact junction ground truth. Only one crop is composed in
    floats; every pixel outside it holds the background's byte."""
    gt = ground_truth(scene, camera, size)
    background = np.asarray(scene.background, dtype=np.float64)
    frame = np.tile(RasterImage(background[None, None]).pixels, (size[1], size[0], 1))

    (x0, y0, x1, y1), s_hit, band_idx = _subpixel_bands(scene, camera, size)
    corners = [(x0, y0), (x1 - 1, y1 - 1)] if s_hit is not None else []
    occluders = [((occ.x0, occ.y0), (occ.x1, occ.y1)) for occ in scene.occluders]
    # everything outside the render box and the occluders is constant
    # background, so blurring the box of their corners grown by the
    # filter's support matches the full-frame filter
    pad = int(np.ceil(4.0 * scene.blur_sigma)) + 1 if scene.blur_sigma > 0 else 0
    corners += [c for pair in occluders for c in pair]
    cx0, cy0, cx1, cy1 = pixel_box(corners, pad, (0, 0), size) if corners else (0, 0, 0, 0)
    if cx1 <= cx0 or cy1 <= cy0:
        return RasterImage(frame), gt
    crop = np.tile(background, (cy1 - cy0, cx1 - cx0, 1))

    if s_hit is not None:
        # band -1 (a missed ray) reads the background, the last entry
        palette = np.array(
            [scene.band_colors.get(lbl, scene.bare_color) for lbl in scene.spec.band_labels]
            + [scene.background],
            dtype=np.float64,
        )
        colors = palette[band_idx]
        _paint_distractors(scene, colors, band_idx < 0, x0, y0)
        _paint_highlights(scene, camera, colors, s_hit, x0, y0)
        down = colors.reshape(
            y1 - y0, SUPERSAMPLE, x1 - x0, SUPERSAMPLE, 3
        ).mean(axis=(1, 3))
        crop[y0 - cy0:y1 - cy0, x0 - cx0:x1 - cx0] = down
    for pair in occluders:
        ox0, oy0, ox1, oy1 = pixel_box(pair, 0.0, (cx0, cy0), (cx1, cy1))
        if ox1 > ox0 and oy1 > oy0:
            crop[oy0 - cy0:oy1 - cy0, ox0 - cx0:ox1 - cx0] = np.asarray(scene.occluder_color)
    if scene.blur_sigma > 0:
        sigma = scene.blur_sigma
        crop = ndimage.gaussian_filter(crop, (sigma, sigma, 0.0), mode="nearest")
    frame[cy0:cy1, cx0:cx1] = RasterImage(np.clip(crop, 0.0, 1.0)).pixels
    return RasterImage(frame), gt


def _side_fraction(
    scene: SceneSpec, camera: CameraModel, s: np.ndarray, pts: np.ndarray
) -> np.ndarray:
    """Where image points pts lie across the silhouette at stations s: the
    offset from the pair midpoint along p_a - p_b over half the pair
    length, +1 at p_a and -1 at p_b."""
    radii = np.interp(s, scene.spec.distances_mm, scene.spec.radii_mm)
    pair = _silhouette_uv(scene, camera, s, radii)
    across = pair[:, 0] - pair[:, 1]
    offset = pts - 0.5 * (pair[:, 0] + pair[:, 1])
    return 2.0 * np.einsum("ij,ij->i", offset, across) / np.einsum("ij,ij->i", across, across)


def _paint_highlights(
    scene: SceneSpec, camera: CameraModel, colors: np.ndarray, s_hit: np.ndarray,
    x0: int, y0: int,
):
    """Whiten each highlight stripe, in order, on the subpixels whose ray
    hit the pointer inside it (a missed ray's nan station is in none)."""
    for stripe in scene.highlights:
        lit = (s_hit >= stripe.start_mm) & (s_hit <= stripe.end_mm)
        if stripe.side_fraction is not None and lit.any():
            rows, cols = np.nonzero(lit)
            # subpixel centres, as _subpixel_rays places them
            centres = (x0, y0) + (np.column_stack([cols, rows]) + 0.5) / SUPERSAMPLE - 0.5
            frac = _side_fraction(scene, camera, s_hit[rows, cols], centres)
            lo, hi = stripe.side_fraction
            lit[rows, cols] = (frac >= lo) & (frac <= hi)
        colors[lit] = colors[lit] * (1.0 - stripe.desaturation) + stripe.desaturation


def _paint_distractors(
    scene: SceneSpec, colors: np.ndarray, miss: np.ndarray, x0: int, y0: int
):
    """Paint each distractor disc, in order, onto the subpixels whose ray
    missed the pointer."""
    ss = SUPERSAMPLE
    ss_h, ss_w, _ = colors.shape
    for d in scene.distractors:
        cx = (d.center[0] - x0 + 0.5) * ss - 0.5
        cy = (d.center[1] - y0 + 0.5) * ss - 0.5
        rad = d.radius_px * ss
        ax0, ay0, ax1, ay1 = pixel_box((cx, cy), rad, (0, 0), (ss_w, ss_h))
        if ax1 <= ax0 or ay1 <= ay0:
            continue
        ys, xs = np.mgrid[ay0:ay1, ax0:ax1]
        inside = (xs - cx) ** 2 + (ys - cy) ** 2 <= rad * rad
        inside &= miss[ay0:ay1, ax0:ax1]
        colors[ay0:ay1, ax0:ax1][inside] = np.asarray(d.color)


def render_class_mask(
    scene: SceneSpec, camera: CameraModel, size: tuple[int, int]
) -> np.ndarray:
    """Calibration mask: a pixel carries a band's class only when every
    subpixel hits that same band (junction and silhouette blends stay 0)."""
    width, height = size
    mask = np.zeros((height, width), dtype=np.uint8)
    (x0, y0, x1, y1), _, band_idx = _subpixel_bands(scene, camera, size)
    if band_idx is None:
        return mask
    # an unlabeled band reads as background, a missed ray (band -1) the
    # last entry, -1; only class ids lie above the background
    labels = np.array(
        [lbl if lbl is not None else BACKGROUND_LABEL for lbl in scene.spec.band_labels] + [-1],
        dtype=np.int64,
    )
    sub_label = labels[band_idx]
    ss = SUPERSAMPLE
    tiles = sub_label.reshape(y1 - y0, ss, x1 - x0, ss)
    first = tiles[:, 0, :, 0]
    uniform = (tiles == first[:, None, :, None]).all(axis=(1, 3)) & (first > BACKGROUND_LABEL)
    mask[y0:y1, x0:x1] = first * uniform
    return mask


def ground_truth_detection(
    gt: GroundTruth,
    spec: PointerSpec,
    noise_px: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> DetectionResult:
    """DetectionResult assembled from exact (optionally perturbed) points.

    Used by the evaluation harness to exercise association and pose
    estimation without the raster detector in the loop. Noise is drawn
    from rng, which noise_px > 0 requires, so repeated calls draw anew.
    """
    if noise_px > 0 and rng is None:
        raise ValueError("ground_truth_detection needs an rng to add noise")
    visible = gt.visible_edges()
    if len(visible) < 2:
        raise InsufficientEdgesError(
            f"{len(visible)} visible edges, need at least two"
        )
    pairs = np.array([(e.p_a, e.p_b) for e in visible], dtype=np.float64)
    if noise_px > 0:
        pairs += rng.normal(0.0, noise_px, pairs.shape)
    line, t, order = order_along_axis(pairs)
    forward = visible[order[0]].index < visible[order[-1]].index

    edges = []
    for k in order:
        left, right = spec.side_labels[visible[k].index]
        if not forward:
            left, right = right, left
        edges.append(
            EdgePointPair(
                p_a=pairs[k, 0], p_b=pairs[k, 1], left_label=left, right_label=right,
                axis_coordinate=float(t[k]),
            )
        )
    return DetectionResult(edges=edges, line=line)


@dataclass(frozen=True)
class SweepCell:
    depth_mm: float
    angle_deg: float
    scene: SceneSpec


def pose_on_axis(
    depth_mm: float,
    angle_deg: float,
    camera: CameraModel,
    spec: PointerSpec,
    roll_deg: float = 0.0,
) -> PointerPose:
    """Pointer midpoint on the optical axis at the given depth, tilted
    toward depth by angle_deg and rolled about the axis by roll_deg."""
    axis = camera.R.T @ np.array([0.0, 0.0, 1.0])
    side = camera.R.T @ np.array([1.0, 0.0, 0.0])
    up = camera.R.T @ np.array([0.0, 1.0, 0.0])
    alpha = np.deg2rad(angle_deg)
    roll = np.deg2rad(roll_deg)
    d = (
        np.cos(alpha) * np.cos(roll) * side
        + np.cos(alpha) * np.sin(roll) * up
        + np.sin(alpha) * axis
    )
    mid = camera.center + depth_mm * axis
    tip = mid - 0.5 * spec.total_length_mm * d
    return PointerPose(tip=tip, direction=d)


def sweep(
    depths_mm: Sequence[float],
    angles_deg: Sequence[float],
    template: SceneSpec,
    camera: CameraModel,
    roll_deg: float = 0.0,
) -> list[SweepCell]:
    """One scene per grid cell (depth-major), the template posed by
    pose_on_axis."""
    if len(depths_mm) == 0 or len(angles_deg) == 0:
        raise ValueError("sweep grid must be non-empty")
    return [
        SweepCell(depth, angle, replace(
            template, pose=pose_on_axis(depth, angle, camera, template.spec, roll_deg)
        ))
        for depth in depths_mm
        for angle in angles_deg
    ]
