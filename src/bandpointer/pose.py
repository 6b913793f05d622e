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
    """Pinhole camera: intrinsics, extrinsics and lens distortion (none
    by default)."""

    K: np.ndarray  # 3x3
    R: np.ndarray = field(default_factory=lambda: np.eye(3))
    t: np.ndarray = field(default_factory=lambda: np.zeros(3))  # mm
    distortion: DistortionModel = DistortionModel()
    # camera center in the world frame, -R^T t, and K^-1, computed once
    center: np.ndarray = field(init=False, repr=False, compare=False)
    K_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        K = np.asarray(self.K, dtype=np.float64)
        R = np.asarray(self.R, dtype=np.float64)
        t = np.asarray(self.t, dtype=np.float64).reshape(3)
        if K.shape != (3, 3) or R.shape != (3, 3):
            raise ValueError("K and R must be 3x3")
        d = self.distortion
        if not np.isfinite(np.r_[K.ravel(), t, d.k1, d.k2, d.k3, d.p1, d.p2]).all():
            raise ValueError("K, t and the distortion coefficients must be finite")
        if not np.allclose(K, np.triu(K)) or np.any(np.diag(K)[:2] <= 0):
            raise ValueError("K must be upper triangular with positive focal lengths")
        if np.any(K[2] != (0.0, 0.0, 1.0)):
            raise ValueError("the last row of K must be (0, 0, 1)")
        # a rotation's entries lie in [-1, 1]; a huge one would overflow R R^T
        orthogonal = np.abs(R).max() <= 1.0 + 1e-9 and np.allclose(R @ R.T, np.eye(3), atol=1e-9)
        if not orthogonal or np.linalg.det(R) < 0:
            raise ValueError("R must be a rotation matrix")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "center", -R.T @ t)
        object.__setattr__(self, "K_inv", np.linalg.inv(K))

    @property
    def P(self) -> np.ndarray:
        return self.K @ np.hstack([self.R, self.t[:, None]])

    def to_camera(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        return pts @ self.R.T + self.t

    def project(self, pts: np.ndarray) -> np.ndarray:
        """World points to ideal (undistorted) pixel coordinates."""
        return self.project_camera(self.to_camera(pts))

    def project_camera(self, cam: np.ndarray) -> np.ndarray:
        """Camera-frame points, (n, 3), to ideal pixel coordinates."""
        if (cam[:, 2] <= 0).any():
            raise BehindCameraError("point has non-positive camera depth")
        hom = cam @ self.K.T
        return hom[:, :2] / hom[:, 2:3]

    def undistort(self, pts: np.ndarray) -> np.ndarray:
        return undistort_points(pts, self.distortion, self.K)

    def distort(self, pts: np.ndarray) -> np.ndarray:
        """Inverse of undistort: ideal to raw image pixels."""
        return distort_points(pts, self.distortion, self.K)


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


@dataclass(frozen=True)
class PoseEstimate:
    pose: PointerPose
    rms_px: float
    correspondence: Correspondence
    cost_history: list[float] = field(default_factory=list)


def _cross(a, b):
    """Cross product a x b with the 3-vector components on the first axis.

    Each component is one rounded product minus another, as in np.cross,
    without its axis handling; on arrays the components broadcast.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def _contour_normal(direction: np.ndarray, offset: np.ndarray):
    """Unit normal of the plane through the camera center and the axis,
    and the length of the unnormalized normal d x (tip - center), where
    ``offset`` is tip - center."""
    n = np.array(_cross(direction.tolist(), offset.tolist()))
    norm = np.linalg.norm(n)
    scale = max(np.linalg.norm(offset), 1.0)
    if norm < 1e-9 * scale:
        raise DegenerateGeometryError("pointer axis passes through camera center")
    return n / norm, norm


def _point_rows(b: np.ndarray, w: np.ndarray):
    """Axis distance and signed side offset of each silhouette point, as
    (2n, 1) columns: rows 2i and 2i + 1 belong to junction i, the
    negative-offset side first."""
    return np.repeat(b, 2)[:, None], (np.array([-1.0, 1.0]) * w[:, None]).reshape(-1, 1)


def _contour_points(tip, direction, u_hat, b_rows, w_rows) -> np.ndarray:
    """Silhouette points tip + b d + w u, one row per point of _point_rows;
    adding the signed -w u gives the bits of subtracting w u."""
    return tip + b_rows * direction + w_rows * u_hat


def project_pointer_edges(
    pose: PointerPose,
    camera: CameraModel,
    spec: PointerSpec,
    edge_indices: Sequence[int] | None = None,
) -> np.ndarray:
    """Predicted contour point pairs (ideal pixels) for the given edges.

    Each junction circle contributes the two silhouette points offset
    from the axis by its radius along the contour normal. The result is
    an (n, 2, 2) array: one row per edge, the negative-offset side first,
    each point as (u, v).
    """
    idx = slice(None) if edge_indices is None else list(edge_indices)
    u_hat, _ = _contour_normal(pose.direction, pose.tip - camera.center)
    b_rows, w_rows = _point_rows(spec.distances_mm[idx], spec.radii_mm[idx])
    points = _contour_points(pose.tip, pose.direction, u_hat, b_rows, w_rows)
    uv = camera.project(points).reshape(-1, 2, 2)
    if not np.all(np.isfinite(uv)):
        raise NumericError("non-finite projection")
    return uv


def _pair_indices(corr: Correspondence) -> tuple[np.ndarray, np.ndarray]:
    """Detected and spec edge indices of the inlier pairs."""
    if len(corr.pairs) < MIN_CORRESPONDENCES:
        raise InsufficientCorrespondencesError(
            f"{len(corr.pairs)} correspondences, need {MIN_CORRESPONDENCES}"
        )
    det_idx, spec_idx = np.array(corr.pairs).T
    return det_idx, spec_idx


def _inlier_data(corr: Correspondence, result: "DetectionResult", camera: CameraModel):
    """Undistorted detected pair points, (n, 2, 2), and the spec indices of
    the inlier edges."""
    det_idx, spec_idx = _pair_indices(corr)
    raw = np.array([(result.edges[k].p_a, result.edges[k].p_b) for k in det_idx])
    return camera.undistort(raw.reshape(-1, 2)).reshape(-1, 2, 2), spec_idx


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
    det_idx, spec_idx = _pair_indices(corr)
    b = spec.distances_mm
    b_n = float(b[-1])
    line = result.line

    t0 = corr.homography.inverse_mm(0.0)
    tn = corr.homography.inverse_mm(b_n)
    if not (np.isfinite(t0) and np.isfinite(tn)):
        raise DegenerateInitializationError("homography inverse undefined at ends")
    t_mids = np.array([result.edges[k].axis_coordinate for k in det_idx])
    # the axis line and its t coordinates live in raw image space; each
    # constructed point gets undistorted exactly once, here
    on_axis = camera.undistort(line.at(np.concatenate([[t0, tn], t_mids])))
    q = np.column_stack([on_axis, np.ones(len(on_axis))])
    q0, qn, mids = q[0], q[1], q[2:]
    if np.ptp(t_mids) < 1e-9:
        raise DegenerateInitializationError("edge midpoints coincide on the axis")

    # row 3i + k: component k of mid_i x q0 and of mid_i x qn, weighted by
    # the depth ratios 1 - alpha_i and alpha_i
    alpha = b[spec_idx] / b_n
    weights = np.column_stack([1.0 - alpha, alpha])
    crosses = np.stack(_cross(mids.T[:, :, None], q[:2].T[:, None, :]), axis=1)
    a_mat = (weights[:, None, :] * crosses).reshape(-1, 2)
    _, svals, vt = np.linalg.svd(a_mat)
    if svals[0] < 1e-12:
        raise DegenerateInitializationError("rank-deficient depth system")
    v0, vn = vt[-1]

    r0 = camera.K_inv @ q0
    rn = camera.K_inv @ qn
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
    b1 = np.array(_cross(b0, helper))
    b1 /= np.linalg.norm(b1)
    b2 = np.array(_cross(b0, b1))
    return np.column_stack([b0, b1, b2])


_EL_LIMIT = np.pi / 2 - 1e-6


def _direction_from_angles(basis: np.ndarray, az: float, el: float):
    el = min(max(float(el), -_EL_LIMIT), _EL_LIMIT)
    ce, se = np.cos(el), np.sin(el)
    ca, sa = np.cos(az), np.sin(az)
    s = np.array([ce * ca, ce * sa, se])
    ds_daz = np.array([-ce * sa, ce * ca, 0.0])
    ds_del = np.array([-se * ca, -se * sa, ce])
    return basis @ s, basis @ ds_daz, basis @ ds_del


def _skew(v: np.ndarray) -> np.ndarray:
    x, y, z = v.tolist()
    return np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])


def _residual_model(camera, b, w, det, basis):
    """Reprojection residual and analytic Jacobian over the 5 parameters.

    Returns ``evaluate(params) -> (res, jacobian)``: ``params`` holds the
    tip (3) and the direction's azimuth/elevation about ``basis``, and
    ``jacobian()`` builds the (4n, 5) Jacobian at those parameters on
    request, so a rejected LM trial never builds one. ``det`` holds the
    detected, undistorted pairs as an (n, 2, 2) array ordered like the
    predicted pairs. The 4n residual rows are edge-major, the
    negative-offset side first, then (u, v). What stays fixed over a run
    is computed here once.

    The LM stop rule turns a last-bit change into other step counts and
    tips, so every float here keeps the operations and their order of the
    plain formulas: products stay ungrouped and np.cross is written out.
    """
    K, R = camera.K, camera.R
    b_rows, w_rows = _point_rows(b, w)
    b_mats, w_mats = b_rows[:, :, None], w_rows[:, :, None]
    detected = det.reshape(-1, 2)
    eye3, dx0 = np.eye(3), np.eye(3, 5)

    def evaluate(params):
        tip = params[:3]
        d, dd_daz, dd_del = _direction_from_angles(basis, params[3], params[4])
        a = tip - camera.center
        u, n_norm = _contour_normal(d, a)
        cam = camera.to_camera(_contour_points(tip, d, u, b_rows, w_rows))
        uv = camera.project_camera(cam)
        res = (uv - detected).ravel()
        if not np.isfinite(res).all():
            raise NumericError("non-finite residual")

        def jacobian():
            proj_u = (eye3 - u[:, None] * u) / n_norm
            # d(u)/d(tip, az, el), and d(axis point)/d(params) per unit of b
            neg_skew_a = -_skew(a)
            du = np.empty((3, 5))
            du[:, :3] = proj_u @ _skew(d)
            du[:, 3] = proj_u @ (neg_skew_a @ dd_daz)
            du[:, 4] = proj_u @ (neg_skew_a @ dd_del)
            dd = np.zeros((3, 5))
            dd[:, 3] = dd_daz
            dd[:, 4] = dd_del
            # K's last row is (0, 0, 1), so the homogeneous depth is the camera z
            dproj = (K[:2] - uv[:, :, None] * K[2]) / cam[:, 2, None, None]
            dx = dx0 + b_mats * dd + w_mats * du
            return (dproj @ R @ dx).reshape(-1, 5)

        return res, jacobian

    return evaluate


def _match_sides(predicted: np.ndarray, det: np.ndarray):
    """Order each detected pair like its predicted pair, (n, 2, 2) both.

    The direct order wins unless the swapped one is strictly closer.
    Returns the reordered pairs and each edge's squared residual.
    """
    swapped = det[:, ::-1]
    sq_direct = ((predicted - det) ** 2).sum(axis=2).sum(axis=1)
    sq_swapped = ((predicted - swapped) ** 2).sum(axis=2).sum(axis=1)
    swap = sq_swapped < sq_direct
    ordered = np.where(swap[:, None, None], swapped, det)
    return ordered, np.where(swap, sq_swapped, sq_direct)


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
    below 1e-10 or after 200 iterations. That stop rule makes the step
    count and the tip sensitive to the last bit of every residual, which
    is why _residual_model keeps the operation order of the plain
    formulas. The Jacobian and normal equations are built once per
    accepted step and reused while steps are rejected.
    """
    det, spec_idx = _inlier_data(corr, result, camera)
    b = spec.distances_mm[spec_idx]
    w = spec.radii_mm[spec_idx]
    # each detected pair is matched to the predicted sides once, at the start
    det, _ = _match_sides(project_pointer_edges(initial, camera, spec, spec_idx), det)

    basis = _direction_basis(initial.direction)
    params = np.concatenate([initial.tip, [0.0, 0.0]])

    evaluate = _residual_model(camera, b, w, det, basis)
    res, jacobian = evaluate(params)
    cost = float(res @ res)
    history = [cost]
    lam = LM_INITIAL_LAMBDA
    jtj = None  # normal equations at params, built after each accepted step
    for _ in range(LM_MAX_ITERATIONS):
        if jtj is None:
            jac = jacobian()
            jtj = jac.T @ jac
            g = jac.T @ res
            damping = np.diag(np.maximum(np.diag(jtj), 1e-12))
        damped = jtj + lam * damping
        try:
            step = np.linalg.solve(damped, -g)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        trial = params + step
        try:
            trial_res, trial_jacobian = evaluate(trial)
            trial_cost = float(trial_res @ trial_res)
        except PoseError:
            trial_cost = np.inf
        if trial_cost < cost:
            rel_change = (cost - trial_cost) / max(cost, 1e-300)
            params, res, jacobian, cost = trial, trial_res, trial_jacobian, trial_cost
            jtj = None
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
    _, sq = _match_sides(project_pointer_edges(pose, camera, spec, spec_idx), det)
    return PoseEstimate(
        pose=pose,
        rms_px=float(np.sqrt(sq.sum() / (2 * len(sq)))),
        correspondence=corr,
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
            init_pose, _, _ = init_depths_linear(corr, result, camera, spec)
            estimate = refine_pose_lm(init_pose, corr, result, camera, spec)
        except (PoseError, NumericError) as exc:
            causes.append(exc)
            continue
        if best is None or estimate.rms_px < best.rms_px:
            best = estimate
    if best is None:
        raise PoseFailureError(causes)
    return best
