"""Reference forms: label alignment, triplet scoring, pose and the
pass-1 region ellipse in their plain form.

These are the association and pose functions written with np.cross, two
camera transforms per residual, a per-cell label table and a NumPy DP
table, as they stood before the inner loops were rewritten for fewer
NumPy calls. The equivalence and fingerprint tests require the rewrite
to give the same bits; the LM stop rule turns any last-bit change into
other step counts and tips, so nothing here may be "simplified".
"""

import numpy as np

from bandpointer.association import Homography1D
from bandpointer.errors import (
    BehindCameraError,
    DegenerateGeometryError,
    DegenerateInitializationError,
    NumericError,
    PoseError,
)
from bandpointer.pose import (
    LM_INITIAL_LAMBDA,
    LM_MAX_ITERATIONS,
    LM_RELATIVE_TOL,
    PointerPose,
    PoseEstimate,
    _inlier_data,
    _match_sides,
    _pair_indices,
)

_EL_LIMIT = np.pi / 2 - 1e-6


def _center(camera):
    return -camera.R.T @ camera.t


def _contour_normal(direction, tip, center):
    n = np.cross(direction, tip - center)
    norm = np.linalg.norm(n)
    scale = max(np.linalg.norm(tip - center), 1.0)
    if norm < 1e-9 * scale:
        raise DegenerateGeometryError("pointer axis passes through camera center")
    return n / norm, norm


def _contour_points(tip, direction, u_hat, b, w):
    axis_points = tip + b[:, None] * direction
    offsets = w[:, None] * u_hat
    return np.stack([axis_points - offsets, axis_points + offsets], axis=1)


def project_pointer_edges(pose, camera, spec, edge_indices=None):
    idx = slice(None) if edge_indices is None else list(edge_indices)
    u_hat, _ = _contour_normal(pose.direction, pose.tip, _center(camera))
    points = _contour_points(
        pose.tip, pose.direction, u_hat, spec.distances_mm[idx], spec.radii_mm[idx]
    )
    uv = camera.project(points.reshape(-1, 3)).reshape(-1, 2, 2)
    if not np.all(np.isfinite(uv)):
        raise NumericError("non-finite projection")
    return uv


def init_depths_linear(corr, result, camera, spec):
    det_idx, spec_idx = _pair_indices(corr)
    b = spec.distances_mm
    b_n = float(b[-1])
    line = result.line

    t0 = corr.homography.inverse_mm(0.0)
    tn = corr.homography.inverse_mm(b_n)
    if not (np.isfinite(t0) and np.isfinite(tn)):
        raise DegenerateInitializationError("homography inverse undefined at ends")
    t_mids = np.array([result.edges[k].axis_coordinate for k in det_idx])
    on_axis = camera.undistort(line.at(np.concatenate([[t0, tn], t_mids])))
    q = np.column_stack([on_axis, np.ones(len(on_axis))])
    q0, qn, mids = q[0], q[1], q[2:]
    if np.ptp(t_mids) < 1e-9:
        raise DegenerateInitializationError("edge midpoints coincide on the axis")

    alpha = (b[spec_idx] / b_n)[:, None]
    a_mat = np.stack(
        [(1.0 - alpha) * np.cross(mids, q0), alpha * np.cross(mids, qn)], axis=2
    ).reshape(-1, 2)
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


def _direction_basis(d0):
    b0 = d0 / np.linalg.norm(d0)
    helper = np.array([0.0, 0.0, 1.0])
    if abs(b0 @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    b1 = np.cross(b0, helper)
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(b0, b1)
    return np.column_stack([b0, b1, b2])


def _direction_from_angles(basis, az, el):
    el = float(np.clip(el, -_EL_LIMIT, _EL_LIMIT))
    ce, se = np.cos(el), np.sin(el)
    ca, sa = np.cos(az), np.sin(az)
    s = np.array([ce * ca, ce * sa, se])
    ds_daz = np.array([-ce * sa, ce * ca, 0.0])
    ds_del = np.array([-se * ca, -se * sa, ce])
    return basis @ s, basis @ ds_daz, basis @ ds_del


def _skew(v):
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def _residuals(params, camera, b, w, det, basis):
    """Residual and (4n, 5) Jacobian, both built on every call."""
    tip = params[:3]
    d, dd_daz, dd_del = _direction_from_angles(basis, params[3], params[4])
    center = _center(camera)
    a = tip - center
    u, n_norm = _contour_normal(d, tip, center)
    proj_u = (np.eye(3) - np.outer(u, u)) / n_norm
    dn = (_skew(d), -_skew(a) @ dd_daz, -_skew(a) @ dd_del)
    du = np.column_stack([proj_u @ m for m in dn])
    dd = np.column_stack([np.zeros((3, 3)), dd_daz, dd_del])

    points = _contour_points(tip, d, u, b, w).reshape(-1, 3)
    uv = camera.project(points)
    res = (uv - det.reshape(-1, 2)).ravel()
    if not np.all(np.isfinite(res)):
        raise NumericError("non-finite residual")

    K, R = camera.K, camera.R
    z = camera.to_camera(points)[:, 2]
    dproj = (K[:2] - uv[:, :, None] * K[2]) / z[:, None, None]
    jw = (np.array([-1.0, 1.0]) * w[:, None]).reshape(-1, 1, 1)
    dx = np.eye(3, 5) + np.repeat(b, 2)[:, None, None] * dd + jw * du
    jac = (dproj @ R @ dx).reshape(-1, 5)
    return res, jac


def refine_pose_lm(initial, corr, result, camera, spec):
    """LM that rebuilds the Jacobian and normal equations every iteration."""
    det, spec_idx = _inlier_data(corr, result, camera)
    b = spec.distances_mm[spec_idx]
    w = spec.radii_mm[spec_idx]
    det, _ = _match_sides(project_pointer_edges(initial, camera, spec, spec_idx), det)

    basis = _direction_basis(initial.direction)
    params = np.concatenate([initial.tip, [0.0, 0.0]])

    res, jac = _residuals(params, camera, b, w, det, basis)
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
            trial_res, trial_jac = _residuals(trial, camera, b, w, det, basis)
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
    _, sq = _match_sides(project_pointer_edges(pose, camera, spec, spec_idx), det)
    return PoseEstimate(
        pose=pose,
        rms_px=float(np.sqrt(sq.sum() / (2 * len(sq)))),
        correspondence=corr,
        cost_history=history,
    )


def _labels_match(detected, spec_pair, reversed_orientation):
    """Detected side labels are consistent with a spec edge: undefined
    detected sides never match a color, and an edge with no defined side
    matches nothing at all."""
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


def _match_table(detected, spec_labels, reversed_orientation):
    ok = np.zeros((len(detected), len(spec_labels)), dtype=bool)
    for i, det in enumerate(detected):
        for j, spec_pair in enumerate(spec_labels):
            ok[i, j] = _labels_match(det, spec_pair, reversed_orientation)
    return ok


def _prefix_scores(ok):
    n, m = ok.shape
    prefix = np.zeros((n + 1, m + 1), dtype=np.int64)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            best = max(prefix[i - 1, j], prefix[i, j - 1])
            if ok[i - 1, j - 1]:
                best = max(best, prefix[i - 1, j - 1] + 1)
            prefix[i, j] = best
    return prefix


def correspondence_bits(corr):
    """A Correspondence as reprs and bytes: equal values mean equal bits."""
    h = corr.homography
    return repr(corr.pairs), repr((h.a, h.c, h.g)), corr.orientation


def estimate_bits(estimate):
    """Everything a PoseEstimate reports, as reprs and bytes."""
    return (
        estimate.pose.tip.tobytes(),
        estimate.pose.direction.tobytes(),
        repr(estimate.rms_px),
        repr(estimate.cost_history),
        correspondence_bits(estimate.correspondence),
    )


def _fit_reference(pairs):
    """The one-triplet fit, solved alone; None for a degenerate triplet."""
    t = np.array([p[0] for p in pairs], dtype=np.float64)
    b = np.array([p[1] for p in pairs], dtype=np.float64)
    if len(np.unique(t)) < 3 or len(np.unique(b)) < 3:
        return None
    m = np.column_stack([t, np.ones(3), -b * t])
    try:
        a, c, g = np.linalg.solve(m, b)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite([a, c, g])):
        return None
    return Homography1D(a=float(a), c=float(c), g=float(g))


def _monotone_reference(h, t_lo, t_hi):
    """The map's pole -1 / g stays outside [t_lo, t_hi]; with g = 0 there
    is no pole, and the map is monotone unless a = 0."""
    if h.g == 0.0:
        return h.a != 0.0
    return not (min(t_lo, t_hi) <= -1.0 / h.g <= max(t_lo, t_hi))


def _inliers_reference(h, t, labels, spec, reversed_flag):
    """Reciprocal nearest neighbors with consistent labels, one at a time."""
    mm = (h.a * t + h.c) / (h.g * t + 1.0)
    if not np.all(np.isfinite(mm)):
        return []
    b = spec.distances_mm
    nearest_spec = [int(np.argmin(np.abs(x - b))) for x in mm]
    nearest_det = [int(np.argmin(np.abs(mm - y))) for y in b]
    return [
        (k, j)
        for k, j in enumerate(nearest_spec)
        if nearest_det[j] == k
        and _labels_match(labels[k], spec.side_labels[j], reversed_flag)
    ]


def moment_ellipse(pixels):
    """A pixel set's moment ellipse as regions carried it: semi-axes in
    descending order, axis directions as rows, and the centroid.

    Semi-axes are sqrt(3 * eigenvalue) of the second central moments per
    unit area, floored at 0.5 px.
    """
    fpts = np.asarray(pixels).astype(np.float64)
    centroid = fpts.mean(axis=0)
    centered = fpts - centroid
    moments = centered.T @ centered / len(fpts)
    w, v = np.linalg.eigh(moments)
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, None)
    semi = np.maximum(np.sqrt(3.0 * w), 0.5)
    axes = v[:, order].T.copy()
    return semi, axes, centroid.copy()
