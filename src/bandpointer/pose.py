"""5-DoF pointer pose from labeled contour point pairs.

The pose (tip position plus unit axis direction) is initialized from a
linear system over the tip/tail camera depths, then refined by
Levenberg-Marquardt on the contour-point reprojection error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .association import Correspondence, PointerSpec
from .errors import (
    BehindCameraError,
    DegenerateGeometryError,
    DegenerateInitializationError,
    InsufficientCorrespondencesError,
    NumericError,
    PoseError,
    PoseFailureError,
)
from .imaging import DistortionModel, distort_points, undistort_points

if TYPE_CHECKING:
    from .detection import DetectionResult

LM_INITIAL_LAMBDA = 1e-3
LM_MAX_ITERATIONS = 200
LM_RELATIVE_TOL = 1e-10
MIN_CORRESPONDENCES = 3


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: intrinsics, extrinsics and optional lens distortion."""

    K: np.ndarray  # 3x3
    R: np.ndarray = field(default_factory=lambda: np.eye(3))
    t: np.ndarray = field(default_factory=lambda: np.zeros(3))  # mm
    distortion: DistortionModel | None = None

    def __post_init__(self):
        K = np.asarray(self.K, dtype=np.float64)
        R = np.asarray(self.R, dtype=np.float64)
        t = np.asarray(self.t, dtype=np.float64).reshape(3)
        if K.shape != (3, 3) or R.shape != (3, 3):
            raise ValueError("K and R must be 3x3")
        if not np.allclose(K, np.triu(K)) or np.any(np.diag(K)[:2] <= 0) or K[2, 2] != 1.0:
            raise ValueError("K must be upper triangular with positive focal lengths")
        if not np.allclose(R @ R.T, np.eye(3), atol=1e-9) or np.linalg.det(R) < 0:
            raise ValueError("R must be a rotation matrix")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)

    @property
    def P(self) -> np.ndarray:
        return self.K @ np.hstack([self.R, self.t[:, None]])

    @property
    def center(self) -> np.ndarray:
        """Camera center in the world frame."""
        return -self.R.T @ self.t

    def to_camera(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        return pts @ self.R.T + self.t

    def project(self, pts: np.ndarray) -> np.ndarray:
        """World points to ideal (undistorted) pixel coordinates."""
        cam = self.to_camera(pts)
        if np.any(cam[:, 2] <= 0):
            raise BehindCameraError("point has non-positive camera depth")
        hom = cam @ self.K.T
        return hom[:, :2] / hom[:, 2:3]

    def undistort(self, pts: np.ndarray) -> np.ndarray:
        if self.distortion is None or self.distortion.is_identity():
            return np.atleast_2d(np.asarray(pts, dtype=np.float64)).copy()
        return undistort_points(pts, self.distortion)

    def distort(self, pts: np.ndarray) -> np.ndarray:
        """Inverse of undistort: ideal to raw image pixels."""
        if self.distortion is None or self.distortion.is_identity():
            return np.atleast_2d(np.asarray(pts, dtype=np.float64)).copy()
        return distort_points(pts, self.distortion)


@dataclass(frozen=True)
class PointerPose:
    """Tip position (mm, world frame) and unit tip-to-tail direction."""

    tip: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        tip = np.asarray(self.tip, dtype=np.float64).reshape(3)
        d = np.asarray(self.direction, dtype=np.float64).reshape(3)
        n = np.linalg.norm(d)
        if abs(n - 1.0) > 1e-6:
            d = d / n
        object.__setattr__(self, "tip", tip)
        object.__setattr__(self, "direction", d)


@dataclass
class PoseEstimate:
    pose: PointerPose
    rms_px: float
    per_edge_residuals_px: dict[int, float]  # keyed by spec edge index
    correspondence: Correspondence
    v0_mm: float
    vn_mm: float
    cost_history: list[float] = field(default_factory=list)


def _contour_normal(direction: np.ndarray, tip: np.ndarray, center: np.ndarray):
    """Unit normal of the plane through the camera center and the axis."""
    n = np.cross(direction, tip - center)
    norm = np.linalg.norm(n)
    scale = max(np.linalg.norm(tip - center), 1.0)
    if norm < 1e-9 * scale:
        raise DegenerateGeometryError("pointer axis passes through camera center")
    return n / norm, n, norm


def project_pointer_edges(
    pose: PointerPose,
    camera: CameraModel,
    spec: PointerSpec,
    edge_indices: Sequence[int] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Predicted contour point pairs (ideal pixels) for the given edges.

    Each junction circle contributes the two silhouette points offset
    from the axis by its radius along the contour normal; the first
    element of a pair is the negative-offset side.
    """
    if edge_indices is None:
        edge_indices = range(len(spec.edges))
    u_hat, _, _ = _contour_normal(pose.direction, pose.tip, camera.center)
    out = []
    for i in edge_indices:
        edge = spec.edges[i]
        axis_point = pose.tip + edge.distance_mm * pose.direction
        lo = camera.project(axis_point - edge.radius_mm * u_hat)[0]
        hi = camera.project(axis_point + edge.radius_mm * u_hat)[0]
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise NumericError("non-finite projection")
        out.append((lo, hi))
    return out


def _inlier_data(
    corr: Correspondence,
    result: "DetectionResult",
    camera: CameraModel,
    spec: PointerSpec,
):
    """Undistorted detected pair points and spec data for the inlier edges."""
    if len(corr.pairs) < MIN_CORRESPONDENCES:
        raise InsufficientCorrespondencesError(
            f"{len(corr.pairs)} correspondences, need {MIN_CORRESPONDENCES}"
        )
    det_points = []
    spec_indices = []
    for det_idx, spec_idx in corr.pairs:
        edge = result.edges[det_idx]
        pts = camera.undistort(np.vstack([edge.p_a, edge.p_b]))
        det_points.append(pts)
        spec_indices.append(spec_idx)
    return det_points, spec_indices


def init_depths_linear(
    corr: Correspondence,
    result: "DetectionResult",
    camera: CameraModel,
    spec: PointerSpec,
) -> tuple[PointerPose, float, float]:
    """Linear tip/tail depth initialization from the association homography.

    The homography locates the images of the tip and of the last measured
    edge on the detected axis line; every inlier edge then constrains the
    depth ratio through a cross-product equation, solved in least squares
    and scaled by the known tip-to-last-edge distance.
    """
    if len(corr.pairs) < MIN_CORRESPONDENCES:
        raise InsufficientCorrespondencesError(
            f"{len(corr.pairs)} correspondences, need {MIN_CORRESPONDENCES}"
        )
    b = spec.distances_mm
    b_n = float(b[-1])
    line = result.line

    t0 = corr.homography.inverse_mm(0.0)
    tn = corr.homography.inverse_mm(b_n)
    if not (np.isfinite(t0) and np.isfinite(tn)):
        raise DegenerateInitializationError("homography inverse undefined at ends")
    # the axis line and its t coordinates live in raw image space; each
    # constructed point gets undistorted exactly once, here
    q0 = np.append(camera.undistort(line.at(t0))[0], 1.0)
    qn = np.append(camera.undistort(line.at(tn))[0], 1.0)

    mids = []
    alphas = []
    t_mids = []
    for det_idx, spec_idx in corr.pairs:
        edge = result.edges[det_idx]
        mid_raw = 0.5 * (edge.p_a + edge.p_b)
        t_mid = float(line.axis_coord(mid_raw)[0])
        t_mids.append(t_mid)
        mids.append(np.append(camera.undistort(line.at(t_mid))[0], 1.0))
        alphas.append(float(b[spec_idx] / b_n))
    if np.ptp(t_mids) < 1e-9:
        raise DegenerateInitializationError("edge midpoints coincide on the axis")

    rows = []
    for x_mid, alpha in zip(mids, alphas):
        rows.append(
            np.column_stack([
                (1.0 - alpha) * np.cross(x_mid, q0),
                alpha * np.cross(x_mid, qn),
            ])
        )
    a_mat = np.vstack(rows)
    _, svals, vt = np.linalg.svd(a_mat)
    if svals[0] < 1e-12:
        raise DegenerateInitializationError("rank-deficient depth system")
    v0, vn = vt[-1]

    k_inv = np.linalg.inv(camera.K)
    r0 = k_inv @ q0
    rn = k_inv @ qn
    baseline = np.linalg.norm(vn * rn - v0 * r0)
    if baseline < 1e-12:
        raise DegenerateInitializationError("tip and tail rays coincide")
    scale = b_n / baseline
    v0 *= scale
    vn *= scale
    if v0 < 0 and vn < 0:
        v0, vn = -v0, -vn
    if v0 <= 0 or vn <= 0:
        raise BehindCameraError("no positive-depth initialization")

    tip_cam = v0 * r0
    tail_cam = vn * rn
    tip_world = camera.R.T @ (tip_cam - camera.t)
    dir_world = camera.R.T @ (tail_cam - tip_cam)
    pose = PointerPose(tip=tip_world, direction=dir_world / np.linalg.norm(dir_world))
    return pose, float(v0), float(vn)


def _direction_basis(d0: np.ndarray) -> np.ndarray:
    """Orthonormal basis with the initial direction on its first axis.

    Anchoring the spherical parameterization at the initial direction
    keeps the optimization far from the angle poles.
    """
    b0 = d0 / np.linalg.norm(d0)
    helper = np.array([0.0, 0.0, 1.0])
    if abs(b0 @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    b1 = np.cross(b0, helper)
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(b0, b1)
    return np.column_stack([b0, b1, b2])


_EL_LIMIT = np.pi / 2 - 1e-6


def _direction_from_angles(basis: np.ndarray, az: float, el: float):
    el = float(np.clip(el, -_EL_LIMIT, _EL_LIMIT))
    ce, se = np.cos(el), np.sin(el)
    ca, sa = np.cos(az), np.sin(az)
    s = np.array([ce * ca, ce * sa, se])
    ds_daz = np.array([-ce * sa, ce * ca, 0.0])
    ds_del = np.array([-se * ca, -se * sa, ce])
    return basis @ s, basis @ ds_daz, basis @ ds_del


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


class _Residuals:
    """Reprojection residual and analytic Jacobian over the 5 parameters."""

    def __init__(self, camera, spec_b, spec_w, det_points, sides, basis):
        self.camera = camera
        self.b = spec_b
        self.w = spec_w
        self.det = det_points  # (n_edges, 2, 2) detected, undistorted
        self.sides = sides  # (n_edges, 2) j in {-1, +1} per detected point
        self.basis = basis
        self.center = camera.center

    def residual(self, params: np.ndarray) -> np.ndarray:
        r, _ = self._eval(params, want_jacobian=False)
        return r

    def residual_and_jacobian(self, params: np.ndarray):
        return self._eval(params, want_jacobian=True)

    def _eval(self, params: np.ndarray, want_jacobian: bool):
        tip = params[:3]
        az, el = params[3], params[4]
        d, dd_daz, dd_del = _direction_from_angles(self.basis, az, el)
        a = tip - self.center
        n = np.cross(d, a)
        n_norm = np.linalg.norm(n)
        if n_norm < 1e-12:
            raise DegenerateGeometryError("axis through camera center")
        u = n / n_norm
        proj_u = (np.eye(3) - np.outer(u, u)) / n_norm

        dn_dtip = _skew(d)
        dn_daz = -_skew(a) @ dd_daz
        dn_del = -_skew(a) @ dd_del
        du_dtip = proj_u @ dn_dtip
        du_daz = proj_u @ dn_daz
        du_del = proj_u @ dn_del

        K, R, t = self.camera.K, self.camera.R, self.camera.t
        n_edges = len(self.b)
        res = np.zeros(n_edges * 4)
        jac = np.zeros((n_edges * 4, 5)) if want_jacobian else None
        row = 0
        for i in range(n_edges):
            for side_idx in range(2):
                j = self.sides[i, side_idx]
                X = tip + self.b[i] * d + j * self.w[i] * u
                y = R @ X + t
                if y[2] <= 0:
                    raise BehindCameraError("predicted point behind camera")
                hom = K @ y
                uv = hom[:2] / hom[2]
                res[row : row + 2] = uv - self.det[i, side_idx]
                if want_jacobian:
                    dproj = (K[:2, :] - np.outer(uv, K[2, :])) / hom[2]
                    dX = np.zeros((3, 5))
                    dX[:, :3] = np.eye(3) + j * self.w[i] * du_dtip
                    dX[:, 3] = self.b[i] * dd_daz + j * self.w[i] * du_daz
                    dX[:, 4] = self.b[i] * dd_del + j * self.w[i] * du_del
                    jac[row : row + 2, :] = dproj @ R @ dX
                row += 2
        if not np.all(np.isfinite(res)):
            raise NumericError("non-finite residual")
        return res, jac


def _assign_sides(predicted, det_points):
    """Match each detected pair to the predicted pair, once, at the start."""
    sides = np.zeros((len(det_points), 2), dtype=np.float64)
    ordered = []
    for i, (pred, det) in enumerate(zip(predicted, det_points)):
        lo, hi = pred
        direct = np.sum((lo - det[0]) ** 2) + np.sum((hi - det[1]) ** 2)
        swapped = np.sum((lo - det[1]) ** 2) + np.sum((hi - det[0]) ** 2)
        if direct <= swapped:
            ordered.append(det)
        else:
            ordered.append(det[::-1])
        sides[i] = (-1.0, 1.0)
    return np.array(ordered), sides


def refine_pose_lm(
    initial: PointerPose,
    corr: Correspondence,
    result: "DetectionResult",
    camera: CameraModel,
    spec: PointerSpec,
) -> PoseEstimate:
    """Levenberg-Marquardt refinement of the 5 pose parameters.

    Damping starts at 1e-3, grows tenfold on a rejected step and shrinks
    tenfold on an accepted one; iteration stops on a relative cost change
    below 1e-10 or after 200 iterations.
    """
    det_points, spec_indices = _inlier_data(corr, result, camera, spec)
    b = spec.distances_mm[spec_indices]
    w = spec.radii_mm[spec_indices]

    predicted = project_pointer_edges(initial, camera, spec, spec_indices)
    det_arr, sides = _assign_sides(predicted, det_points)

    basis = _direction_basis(initial.direction)
    fn = _Residuals(camera, b, w, det_arr, sides, basis)
    params = np.concatenate([initial.tip, [0.0, 0.0]])

    res, jac = fn.residual_and_jacobian(params)
    cost = float(res @ res)
    history = [cost]
    lam = LM_INITIAL_LAMBDA
    for _ in range(LM_MAX_ITERATIONS):
        jtj = jac.T @ jac
        g = jac.T @ res
        damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-12))
        try:
            step = np.linalg.solve(damped, -g)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        trial = params + step
        try:
            trial_res, trial_jac = fn.residual_and_jacobian(trial)
            trial_cost = float(trial_res @ trial_res)
        except PoseError:
            trial_cost = np.inf
            trial_res = trial_jac = None
        if trial_cost < cost:
            rel_change = (cost - trial_cost) / max(cost, 1e-300)
            params, res, jac, cost = trial, trial_res, trial_jac, trial_cost
            history.append(cost)
            lam /= 10.0
            if rel_change < LM_RELATIVE_TOL:
                break
        else:
            lam *= 10.0
            if lam > 1e14:
                break

    tip = params[:3]
    d, _, _ = _direction_from_angles(basis, params[3], params[4])
    pose = PointerPose(tip=tip, direction=d)

    # report residuals recomputed from the final pose with the free side
    # assignment, so they are reproducible from the estimate alone
    final_pred = project_pointer_edges(pose, camera, spec, spec_indices)
    per_edge = {}
    total = 0.0
    for pred, det, spec_idx in zip(final_pred, det_points, spec_indices):
        lo, hi = pred
        direct = np.sum((lo - det[0]) ** 2) + np.sum((hi - det[1]) ** 2)
        swapped = np.sum((lo - det[1]) ** 2) + np.sum((hi - det[0]) ** 2)
        sq = min(direct, swapped)
        per_edge[spec_idx] = float(np.sqrt(sq / 2.0))
        total += sq
    rms = float(np.sqrt(total / (2 * len(spec_indices))))
    return PoseEstimate(
        pose=pose,
        rms_px=rms,
        per_edge_residuals_px=per_edge,
        correspondence=corr,
        v0_mm=np.nan,
        vn_mm=np.nan,
        cost_history=history,
    )


def estimate_pose(
    result: "DetectionResult",
    hypotheses: Sequence[Correspondence],
    camera: CameraModel,
    spec: PointerSpec,
) -> PoseEstimate:
    """Refine every hypothesis and keep the one with the lowest RMS error."""
    if not hypotheses:
        raise PoseFailureError([ValueError("no hypotheses")])
    best: PoseEstimate | None = None
    causes: list[Exception] = []
    for corr in hypotheses:
        try:
            init_pose, v0, vn = init_depths_linear(corr, result, camera, spec)
            estimate = refine_pose_lm(init_pose, corr, result, camera, spec)
            estimate.v0_mm = v0
            estimate.vn_mm = vn
        except (PoseError, NumericError) as exc:
            causes.append(exc)
            continue
        if best is None or estimate.rms_px < best.rms_px:
            best = estimate
    if best is None:
        raise PoseFailureError(causes)
    return best
