"""Tests for projection, depth initialization and LM refinement."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import backend_reference as reference
from conftest import (
    BLUE, GREEN, RED, SIZE_FULL, build_spec, detection_from_pose, pose_at, scene_at, with_hidden,
)

from bandpointer import synthetic
from bandpointer.association import Correspondence, align_labels_dp, associate_ransac
from bandpointer.cli import _associate_and_pose
from bandpointer.errors import (
    BandPointerError,
    BehindCameraError,
    DegenerateGeometryError,
    DegenerateInitializationError,
    PoseFailureError,
)
from bandpointer.imaging import DistortionModel
from bandpointer.pose import (
    CameraModel,
    PointerPose,
    _direction_basis,
    _residual_model,
    estimate_pose,
    init_depths_linear,
    project_pointer_edges,
    refine_pose_lm,
)


@pytest.fixture
def identity_camera():
    return CameraModel(K=np.eye(3))


def simple_spec(distances, total_length, radius=2.0):
    bands = [RED if i % 2 == 0 else GREEN for i in range(len(distances) + 1)]
    return build_spec(list(distances), bands, total_length, radius=radius)


class TestProjection:
    def test_pinhole_division(self, identity_camera):
        spec = simple_spec([100.0], 150.0, radius=2.0)
        pose = PointerPose(tip=[0.0, 0.0, 2000.0], direction=[1.0, 0.0, 0.0])
        # zero-radius limit checked through a tiny radius
        thin = simple_spec([100.0], 150.0, radius=1e-9)
        (lo, hi), = project_pointer_edges(pose, identity_camera, thin, [0])
        np.testing.assert_allclose(lo, [0.05, 0.0], atol=1e-12)
        np.testing.assert_allclose(hi, [0.05, 0.0], atol=1e-12)

    def test_radius_splits_pair_in_y(self, identity_camera):
        spec = simple_spec([100.0], 150.0, radius=2.0)
        pose = PointerPose(tip=[0.0, 0.0, 2000.0], direction=[1.0, 0.0, 0.0])
        (lo, hi), = project_pointer_edges(pose, identity_camera, spec, [0])
        # u_hat = (0, -1, 0): pair split by +-2 mm in y at depth 2000
        np.testing.assert_allclose(sorted([lo[1], hi[1]]), [-0.001, 0.001], atol=1e-12)
        assert lo[0] == pytest.approx(0.05)
        assert hi[0] == pytest.approx(0.05)

    def test_axis_through_camera_center_degenerate(self, identity_camera):
        spec = simple_spec([100.0], 150.0)
        pose = PointerPose(tip=[0.0, 0.0, 1000.0], direction=[0.0, 0.0, 1.0])
        with pytest.raises(DegenerateGeometryError):
            project_pointer_edges(pose, identity_camera, spec, [0])

    def test_behind_camera(self, identity_camera):
        spec = simple_spec([100.0], 150.0)
        pose = PointerPose(tip=[0.0, 0.0, -500.0], direction=[1.0, 0.0, 0.0])
        with pytest.raises(BehindCameraError):
            project_pointer_edges(pose, identity_camera, spec, [0])


class TestInitDepthsLinear:
    def test_parallel_pointer_recovers_depths(self, identity_camera):
        spec = simple_spec([150.0, 420.0, 600.0, 800.0], 1000.0, radius=2.0)
        pose = PointerPose(tip=[0.0, 0.0, 4000.0], direction=[1.0, 0.0, 0.0])
        result, corr = detection_from_pose(pose, identity_camera, spec)
        init_pose, v0, vn = init_depths_linear(corr, result, identity_camera, spec)
        assert v0 == pytest.approx(4000.0, rel=1e-6)
        assert vn == pytest.approx(4000.0, rel=1e-6)
        np.testing.assert_allclose(init_pose.tip, pose.tip, atol=1e-3)
        np.testing.assert_allclose(init_pose.direction, pose.direction, atol=1e-8)

    def test_tilted_in_depth_recovers_direction(self, identity_camera):
        spec = simple_spec([150.0, 420.0, 600.0, 800.0], 1000.0, radius=2.0)
        direction = np.array([1000.0, 0.0, 500.0])
        direction /= np.linalg.norm(direction)
        pose = PointerPose(tip=[-300.0, 50.0, 4000.0], direction=direction)
        result, corr = detection_from_pose(pose, identity_camera, spec)
        init_pose, v0, vn = init_depths_linear(corr, result, identity_camera, spec)
        np.testing.assert_allclose(init_pose.direction, pose.direction, atol=1e-6)
        true_v0 = pose.tip[2]
        true_vn = pose.tip[2] + 800.0 * direction[2]
        assert v0 == pytest.approx(true_v0, rel=1e-6)
        assert vn == pytest.approx(true_vn, rel=1e-6)

    def test_coincident_midpoints_degenerate(self, identity_camera):
        spec = simple_spec([150.0, 420.0, 600.0], 800.0)
        pose = PointerPose(tip=[0.0, 0.0, 4000.0], direction=[1.0, 0.0, 0.0])
        result, corr = detection_from_pose(pose, identity_camera, spec)
        first = result.edges[0]
        result = replace(result, edges=[
            replace(e, p_a=first.p_a.copy(), p_b=first.p_b.copy(),
                    axis_coordinate=first.axis_coordinate)
            for e in result.edges
        ])
        with pytest.raises(DegenerateInitializationError):
            init_depths_linear(corr, result, identity_camera, spec)


class TestJacobian:
    def test_matches_central_finite_differences(self, camera_full, skewer_spec):
        rng = np.random.default_rng(42)
        failures = 0
        for _ in range(100):
            depth = rng.uniform(400, 610)
            angle = rng.uniform(0, 60)
            roll = rng.uniform(-20, 20)
            pose = pose_at(depth, angle, camera_full, skewer_spec, roll_deg=roll)
            result, corr = detection_from_pose(pose, camera_full, skewer_spec)
            det = np.array([[e.p_a, e.p_b] for e in result.edges])
            basis = _direction_basis(pose.direction)

            evaluate = _residual_model(
                camera_full, skewer_spec.distances_mm, skewer_spec.radii_mm, det, basis
            )

            def fn(params):
                res, jacobian = evaluate(params)
                return res, jacobian()

            params = np.concatenate([
                pose.tip + rng.normal(0, 5.0, 3),
                rng.normal(0, 0.05, 2),
            ])
            _, jac = fn(params)
            fd = np.zeros_like(jac)
            for p in range(5):
                step = 1e-6 * max(1.0, abs(params[p]))
                hi = params.copy()
                hi[p] += step
                lo = params.copy()
                lo[p] -= step
                fd[:, p] = (fn(hi)[0] - fn(lo)[0]) / (2 * step)
            scale = np.maximum(np.abs(fd), np.abs(jac)).max()
            if not np.allclose(jac, fd, atol=1e-4 * scale):
                failures += 1
        assert failures == 0


class TestRefinePoseLm:
    def test_noiseless_round_trip(self, camera_full, skewer_spec):
        pose = pose_at(500.0, 20.0, camera_full, skewer_spec, roll_deg=5.0)
        result, corr = detection_from_pose(pose, camera_full, skewer_spec)
        init_pose, _, _ = init_depths_linear(corr, result, camera_full, skewer_spec)
        estimate = refine_pose_lm(init_pose, corr, result, camera_full, skewer_spec)
        assert estimate.rms_px < 1e-6
        np.testing.assert_allclose(estimate.pose.tip, pose.tip, atol=1e-4)
        assert np.dot(estimate.pose.direction, pose.direction) > 1 - 1e-10

    def test_perturbed_start_reaches_same_optimum(self, camera_full, skewer_spec):
        pose = pose_at(520.0, 30.0, camera_full, skewer_spec)
        result, corr = detection_from_pose(pose, camera_full, skewer_spec)
        init_pose, _, _ = init_depths_linear(corr, result, camera_full, skewer_spec)
        baseline = refine_pose_lm(init_pose, corr, result, camera_full, skewer_spec)

        rot = np.deg2rad(5.0)
        perturbed_dir = np.array([
            np.cos(rot) * init_pose.direction[0] - np.sin(rot) * init_pose.direction[2],
            init_pose.direction[1],
            np.sin(rot) * init_pose.direction[0] + np.cos(rot) * init_pose.direction[2],
        ])
        perturbed = PointerPose(
            tip=init_pose.tip + np.array([12.0, -9.0, 11.0]),
            direction=perturbed_dir,
        )
        shifted = refine_pose_lm(perturbed, corr, result, camera_full, skewer_spec)
        np.testing.assert_allclose(shifted.pose.tip, baseline.pose.tip, atol=1e-4)
        assert np.dot(shifted.pose.direction, baseline.pose.direction) > 1 - 1e-9

    def test_accepted_iterations_never_increase_cost(self, camera_full, skewer_spec):
        rng = np.random.default_rng(3)
        pose = pose_at(480.0, 40.0, camera_full, skewer_spec)
        result, corr = detection_from_pose(
            pose, camera_full, skewer_spec, noise_px=0.5, rng=rng
        )
        init_pose, _, _ = init_depths_linear(corr, result, camera_full, skewer_spec)
        estimate = refine_pose_lm(init_pose, corr, result, camera_full, skewer_spec)
        costs = np.array(estimate.cost_history)
        assert (np.diff(costs) <= 0).all()
        assert costs[-1] <= costs[0]

    def test_reported_residuals_reproducible(self, camera_full, skewer_spec):
        rng = np.random.default_rng(4)
        pose = pose_at(500.0, 10.0, camera_full, skewer_spec)
        result, corr = detection_from_pose(
            pose, camera_full, skewer_spec, noise_px=0.5, rng=rng
        )
        init_pose, _, _ = init_depths_linear(corr, result, camera_full, skewer_spec)
        estimate = refine_pose_lm(init_pose, corr, result, camera_full, skewer_spec)

        indices = [i for _, i in corr.pairs]
        predicted = project_pointer_edges(
            estimate.pose, camera_full, skewer_spec, indices
        )
        minima = []
        for (det_k, _), (lo, hi) in zip(corr.pairs, predicted):
            det = camera_full.undistort(
                np.vstack([result.edges[det_k].p_a, result.edges[det_k].p_b])
            )
            direct = np.sum((lo - det[0]) ** 2) + np.sum((hi - det[1]) ** 2)
            swapped = np.sum((lo - det[1]) ** 2) + np.sum((hi - det[0]) ** 2)
            minima.append(min(direct, swapped))
        expected = np.sqrt(sum(minima) / (2 * len(minima)))
        assert estimate.rms_px == pytest.approx(expected, abs=1e-12)

    def test_frame_covariance(self, camera_full, skewer_spec):
        rng = np.random.default_rng(5)
        pose = pose_at(520.0, 25.0, camera_full, skewer_spec)
        result, corr = detection_from_pose(
            pose, camera_full, skewer_spec, noise_px=0.3, rng=rng
        )
        init_pose, _, _ = init_depths_linear(corr, result, camera_full, skewer_spec)
        base = refine_pose_lm(init_pose, corr, result, camera_full, skewer_spec)

        # rotate the camera extrinsics by a rigid transform
        angle = np.deg2rad(30.0)
        rot = np.array([
            [np.cos(angle), 0.0, np.sin(angle)],
            [0.0, 1.0, 0.0],
            [-np.sin(angle), 0.0, np.cos(angle)],
        ])
        shift = np.array([100.0, -50.0, 20.0])
        # world' = rot @ world + shift, same camera pixels
        camera2 = CameraModel(
            K=camera_full.K,
            R=camera_full.R @ rot.T,
            t=camera_full.t - camera_full.R @ rot.T @ shift,
        )
        init2 = PointerPose(
            tip=rot @ init_pose.tip + shift, direction=rot @ init_pose.direction
        )
        moved = refine_pose_lm(init2, corr, result, camera2, skewer_spec)
        assert moved.rms_px == pytest.approx(base.rms_px, abs=1e-9)
        np.testing.assert_allclose(
            moved.pose.tip, rot @ base.pose.tip + shift, atol=1e-6
        )
        np.testing.assert_allclose(
            moved.pose.direction, rot @ base.pose.direction, atol=1e-8
        )


class TestEstimatePose:
    def test_single_hypothesis(self, camera_full, skewer_spec):
        pose = pose_at(500.0, 15.0, camera_full, skewer_spec)
        result, corr = detection_from_pose(pose, camera_full, skewer_spec)
        estimate = estimate_pose(result, [corr], camera_full, skewer_spec)
        np.testing.assert_allclose(estimate.pose.tip, pose.tip, atol=1e-3)
        np.testing.assert_allclose(estimate.pose.direction, pose.direction, atol=1e-6)

    def test_misassociated_hypothesis_loses(self, camera_full, skewer_spec):
        pose = pose_at(500.0, 15.0, camera_full, skewer_spec)
        indices = list(range(1, 9))
        result, corr = detection_from_pose(
            pose, camera_full, skewer_spec, indices=indices
        )
        # shift the correspondence by one band: same labels, wrong geometry
        wrong_pairs = [(k, i + 1) for k, i in corr.pairs]
        b = skewer_spec.distances_mm
        wrong_h = reference._fit_reference([
            (result.edges[k].axis_coordinate, b[i])
            for k, i in (wrong_pairs[0], wrong_pairs[4], wrong_pairs[-1])
        ])
        wrong = Correspondence(
            pairs=wrong_pairs,
            homography=wrong_h,
            orientation="forward",
        )
        estimate = estimate_pose(result, [wrong, corr], camera_full, skewer_spec)
        assert [i for _, i in estimate.correspondence.pairs] == indices
        np.testing.assert_allclose(estimate.pose.tip, pose.tip, atol=1e-3)

    def test_failing_hypothesis_isolated(self, camera_full, skewer_spec):
        pose = pose_at(500.0, 15.0, camera_full, skewer_spec)
        result, corr = detection_from_pose(pose, camera_full, skewer_spec)
        broken = Correspondence(
            pairs=corr.pairs[:2],
            homography=corr.homography,
            orientation="forward",
        )
        estimate = estimate_pose(result, [broken, corr], camera_full, skewer_spec)
        np.testing.assert_allclose(estimate.pose.tip, pose.tip, atol=1e-3)

    def test_all_failures_aggregate(self, camera_full, skewer_spec):
        pose = pose_at(500.0, 15.0, camera_full, skewer_spec)
        result, corr = detection_from_pose(pose, camera_full, skewer_spec)
        broken = Correspondence(
            pairs=corr.pairs[:2],
            homography=corr.homography,
            orientation="forward",
        )
        with pytest.raises(PoseFailureError) as err:
            estimate_pose(result, [broken], camera_full, skewer_spec)
        assert len(err.value.causes) == 1


class TestLensDistortion:
    @pytest.mark.parametrize(
        "coefficients",
        [dict(k1=-0.2, k2=0.05), dict(k1=0.1, p1=1e-3, p2=-1e-3)],
        ids=["radial", "radial-tangential"],
    )
    def test_exact_junctions_recover_pose(self, camera_full, skewer_spec, coefficients):
        # the detected points are raw (distorted) pixels; estimation has
        # to undistort them, and the initialization's axis points, exactly
        camera = CameraModel(K=camera_full.K, distortion=DistortionModel(**coefficients))
        for depth, angle in [(400.0, 0.0), (480.0, 25.0), (550.0, 45.0), (610.0, 65.0)]:
            scene = scene_at(skewer_spec, camera, depth, angle, 4.0)
            gt = synthetic.ground_truth(scene, camera, SIZE_FULL)
            assert all(e.visible for e in gt.edges)
            det = synthetic.ground_truth_detection(gt, skewer_spec)
            estimate = _associate_and_pose(det, skewer_spec, camera)
            assert np.linalg.norm(estimate.pose.tip - scene.pose.tip) < 1e-6
            assert estimate.rms_px < 1e-6

    def test_tiny_distortion_barely_moves_points(self, camera_full):
        # the coefficients act in K's normalized coordinates, where this
        # point sits at radius ~0.02; centred on fx = fy = 1, cx = cy = 0
        # instead, k1 = -1e-8 moved it to (1338.1, 1029.3)
        camera = CameraModel(K=camera_full.K, distortion=DistortionModel(k1=-1e-8))
        pts = np.array([[1300.0, 1000.0]])
        assert np.linalg.norm(camera.undistort(pts) - pts) < 1e-3

    def test_identity_distortion_needs_no_centre(self, camera_full):
        camera = CameraModel(K=camera_full.K, distortion=DistortionModel())
        pts = np.array([[1300.0, 1000.0]])
        assert camera.undistort(pts).tolist() == pts.tolist()


def _rotation(rng, max_deg):
    """Rodrigues rotation about a random axis by up to max_deg."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = np.deg2rad(rng.uniform(0.0, max_deg))
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _random_camera(rng, distorted, f=None):
    """A camera with a random pose in the world and, when distorted,
    radial and tangential coefficients like TestLensDistortion's."""
    f = rng.uniform(1500.0, 4000.0) if f is None else f
    K = np.array([
        [f, 0.0, rng.uniform(1150.0, 1300.0)],
        [0.0, f * rng.uniform(0.98, 1.02), rng.uniform(950.0, 1100.0)],
        [0.0, 0.0, 1.0],
    ])
    distortion = DistortionModel()
    if distorted:
        distortion = DistortionModel(
            k1=rng.uniform(-0.2, 0.1), k2=rng.uniform(-0.05, 0.05),
            p1=rng.uniform(-1e-3, 1e-3), p2=rng.uniform(-1e-3, 1e-3),
        )
    return CameraModel(
        K=K, R=_rotation(rng, 30.0), t=rng.uniform(-50.0, 50.0, 3), distortion=distortion
    )


def _init_bits(init):
    pose, v0, vn = init
    return pose.tip.tobytes(), pose.direction.tobytes(), repr(v0), repr(vn)


def _outcome(bits, fn, *args):
    """bits(fn(*args)), or the type and message of the error it raises."""
    try:
        return bits(fn(*args))
    except BandPointerError as exc:
        return type(exc), str(exc)


class TestBackEndEquivalence:
    """The rewritten residual, direction basis, initialization and LM keep
    the bits of the plain forms in backend_reference on random scenes:
    250-900 mm, 0-85 deg tilt, pinhole and distorted cameras."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        depth=st.floats(250.0, 900.0),
        tilt=st.floats(0.0, 85.0),
        n_edges=st.integers(3, 10),
        distorted=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_residual_and_jacobian(self, seed, depth, tilt, n_edges, distorted):
        rng = np.random.default_rng(seed)
        camera = _random_camera(rng, distorted)
        distances = np.sort(rng.choice(np.arange(5.0, 246.0), n_edges, replace=False))
        # a blue tip band keeps the pattern distinct from its reversal
        spec = build_spec(
            list(distances), [BLUE] + [RED, GREEN] * 5, 251.0, radius=rng.uniform(0.5, 3.0)
        )
        pose = pose_at(depth, tilt, camera, spec, roll_deg=rng.uniform(-30.0, 30.0))
        basis = _direction_basis(pose.direction)
        assert basis.tobytes() == reference._direction_basis(pose.direction).tobytes()

        b, w = spec.distances_mm, spec.radii_mm
        det = project_pointer_edges(pose, camera, spec)
        assert det.tobytes() == reference.project_pointer_edges(pose, camera, spec).tobytes()
        det = det + rng.normal(0.0, 0.5, det.shape)
        evaluate = _residual_model(camera, b, w, det, basis)
        for scale in (0.0, 1.0, 10.0):
            params = np.concatenate([
                pose.tip + scale * rng.normal(0.0, 5.0, 3), scale * rng.normal(0.0, 0.05, 2)
            ])
            try:
                ref_res, ref_jac = reference._residuals(params, camera, b, w, det, basis)
            except BandPointerError as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    evaluate(params)
                continue
            res, jacobian = evaluate(params)
            assert res.tobytes() == ref_res.tobytes()
            assert jacobian().tobytes() == ref_jac.tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        depth=st.floats(250.0, 900.0),
        tilt=st.floats(0.0, 85.0),
        hidden=st.integers(0, 4),
        blue=st.booleans(),
        distorted=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_init_and_refinement(
        self, skewer_spec, skewer_spec_blue, seed, depth, tilt, hidden, blue, distorted
    ):
        rng = np.random.default_rng(seed)
        spec = skewer_spec_blue if blue else skewer_spec
        camera = _random_camera(rng, distorted, f=3600.0)
        scene = scene_at(spec, camera, depth, tilt, rng.uniform(-30.0, 30.0))
        gt = synthetic.ground_truth(scene, camera, SIZE_FULL)
        gt = with_hidden(gt, rng.permutation(len(spec.distances_mm))[:hidden])
        try:
            det = synthetic.ground_truth_detection(gt, spec, noise_px=0.5, rng=rng)
            labels = [(e.left_label, e.right_label) for e in det.edges]
            hypotheses = associate_ransac(det, spec, align_labels_dp(labels, spec))
        except BandPointerError:
            return
        for corr in hypotheses:
            args = (corr, det, camera, spec)
            assert _outcome(_init_bits, init_depths_linear, *args) == _outcome(
                _init_bits, reference.init_depths_linear, *args
            )
            try:
                init, _, _ = reference.init_depths_linear(*args)
            except BandPointerError:
                continue
            assert _outcome(reference.estimate_bits, refine_pose_lm, init, *args) == _outcome(
                reference.estimate_bits, reference.refine_pose_lm, init, *args
            )
