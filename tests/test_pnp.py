"""Soft-argmax decoding and PnP extrinsic estimation."""

import hashlib
import re

import numpy as np
import pytest
import scipy.special

from conftest import random_rotation

from reconkit import pnp
from reconkit.camera import Intrinsics, project
from reconkit.oracle.bundle import generate_scene, random_scene_spec
from reconkit.pnp import (
    _CUBE_ROTATIONS,
    DegenerateConfigurationError,
    NonConvergenceError,
    soft_argmax,
    solve_pnp,
)
from reconkit.transforms import RigidTransform, rotation_angle, rotation_from_vector


def gaussian_bump(h, w, cx, cy, sigma):
    us, vs = np.arange(w, dtype=float), np.arange(h, dtype=float)
    return np.exp(
        -(((us[None, :] - cx) ** 2) + ((vs[:, None] - cy) ** 2)) / (2 * sigma**2)
    )


def weighted_mean_oracle(channel, temperature):
    """Independent expectation: scipy softmax over the normalized channel."""
    h, w = channel.shape
    logits = (channel / channel.max() - 1.0) / temperature
    weights = scipy.special.softmax(logits.ravel())
    us, vs = np.meshgrid(np.arange(w), np.arange(h), indexing="xy")
    return np.array([weights @ us.ravel(), weights @ vs.ravel()])


class TestSoftArgmax:
    def test_one_hot_peak(self):
        hm = np.zeros((120, 160))
        hm[50, 100] = 1.0
        kp = soft_argmax(hm, temperature=0.01)
        assert abs(kp[0, 0] - 100.0) < 0.01
        assert abs(kp[0, 1] - 50.0) < 0.01

    def test_uniform_returns_exact_center(self):
        kp = soft_argmax(np.full((120, 160), 0.7), temperature=1.0)
        assert kp[0, 0] == (160 - 1) / 2.0
        assert kp[0, 1] == (120 - 1) / 2.0

    def test_gaussian_bump_vs_weighted_mean_oracle(self):
        hm = gaussian_bump(64, 128, cx=64.5, cy=32.25, sigma=3.0)
        kp = soft_argmax(hm, temperature=0.05)
        oracle = weighted_mean_oracle(hm, 0.05)
        assert np.abs(kp[0] - oracle).max() < 0.1
        assert np.abs(kp[0] - [64.5, 32.25]).max() < 0.1

    def test_all_zero_channel_errors(self):
        with pytest.raises(ValueError, match="all-zero"):
            soft_argmax(np.zeros((8, 8)))

    def test_positive_scale_invariance(self, rng):
        hm = rng.random((32, 48, 4))
        base = soft_argmax(hm, temperature=0.7)
        for lam in (1e-3, 2.0, 1e5):
            np.testing.assert_allclose(soft_argmax(lam * hm, 0.7), base, atol=1e-9)

    def test_coordinates_inside_image(self, rng):
        hm = rng.random((16, 24, 6))
        kp = soft_argmax(hm)
        assert (kp[:, 0] >= 0).all() and (kp[:, 0] < 24).all()
        assert (kp[:, 1] >= 0).all() and (kp[:, 1] < 16).all()

    @pytest.mark.parametrize("temperature", [np.nan, np.inf])
    def test_rejects_bad_temperature(self, temperature):
        with pytest.raises(ValueError, match=f"temperature must be finite and positive, got {temperature}"):
            soft_argmax(np.ones((4, 4)), temperature=temperature)

    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(ValueError, match="temperature"):
            soft_argmax(np.ones((4, 4)), temperature=0.0)
        with pytest.raises(ValueError, match="finite"):
            soft_argmax(-np.ones((4, 4)))

    def test_heatmap_must_be_three_dimensional(self):
        with pytest.raises(ValueError, match=re.escape("heatmap must be HxWxN, got shape (2, 2, 2, 2)")):
            soft_argmax(np.ones((2, 2, 2, 2)))


def test_cube_rotations_pinned():
    """The 24 fallback seeds of solve_pnp, in order, as the signed-permutation loop built them."""
    assert len(_CUBE_ROTATIONS) == 24
    digest = hashlib.sha256(b"".join(r.tobytes() for r in _CUBE_ROTATIONS)).hexdigest()
    assert digest == "2eb1a0e75ea50dc5d5dfe52dfa103d3d1c87f7a38606ef093010e6cb8d556e80"


def synth_problem(rng, n=8, z=1.0, spread=0.3):
    k = Intrinsics(fx=500.0, fy=510.0, cx=320.0, cy=240.0, width=640, height=480)
    while True:
        pts = rng.uniform(-spread, spread, (n, 3))
        pose = RigidTransform(
            random_rotation(rng),
            np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(0.8, 1.0) * z + 0.5 * z - 0.5]),
        )
        cam = pose.apply(pts)
        if np.all(cam[:, 2] > 0.1):
            return k, pts, pose, project(cam, k)


class TestSolvePnP:
    def test_noiseless_round_trips(self, rng):
        for _ in range(100):
            k, pts, pose, px = synth_problem(rng)
            res = solve_pnp(pts, px, k)
            assert np.linalg.norm(res.extrinsic.translation - pose.translation) < 1e-6
            assert rotation_angle(res.extrinsic.rotation, pose.rotation) < 1e-6
            assert res.reprojection_error < 1e-6

    def test_pixel_noise_monte_carlo(self):
        errs = []
        for t in range(100):
            rng = np.random.default_rng(5000 + t)
            k, pts, pose, px = synth_problem(rng, z=1.0)
            px = px + 0.5 * rng.standard_normal(px.shape)
            res = solve_pnp(pts, px, k)
            errs.append(np.linalg.norm(res.extrinsic.translation - pose.translation))
        assert np.median(errs) < 0.005

    def test_three_points_degenerate(self, rng):
        k, pts, pose, px = synth_problem(rng)
        with pytest.raises(DegenerateConfigurationError, match="at least 4"):
            solve_pnp(pts[:3], px[:3], k)

    @pytest.mark.parametrize("spread", [0.0, 1e-10, 4.9e-4])
    def test_coincident_pixels_degenerate(self, rng, spread):
        # pixels within `spread` of one point, so within 2 * spread of their centroid
        k, pts, pose, px = synth_problem(rng)
        offsets = rng.normal(size=px.shape)
        px = px[0] + spread * offsets / np.linalg.norm(offsets, axis=1, keepdims=True)
        with pytest.raises(DegenerateConfigurationError, match="within 0.001 px"):
            solve_pnp(pts, px, k)

    def test_collinear_points_degenerate(self, rng):
        k = Intrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
        pts = np.outer(np.linspace(0, 1, 6), [1.0, 0.5, 0.2])
        pose = RigidTransform(np.eye(3), np.array([0.0, 0.0, 2.0]))
        px = project(pose.apply(pts), k)
        with pytest.raises(DegenerateConfigurationError, match="collinear"):
            solve_pnp(pts, px, k)

    def test_coplanar_square_homography_path(self, rng):
        k = Intrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
        s = 0.2
        pts = np.array(
            [[-s, -s, 0.0], [s, -s, 0.0], [s, s, 0.0], [-s, s, 0.0], [0.0, s / 2, 0.0]]
        )
        for _ in range(20):
            pose = RigidTransform(
                random_rotation(rng), np.array([0.1, -0.05, rng.uniform(0.8, 1.5)])
            )
            cam = pose.apply(pts)
            if np.any(cam[:, 2] < 0.1):
                continue
            res = solve_pnp(pts, project(cam, k), k)
            assert np.linalg.norm(res.extrinsic.translation - pose.translation) < 1e-6
            assert rotation_angle(res.extrinsic.rotation, pose.rotation) < 1e-6

    def test_five_noncoplanar_points(self, rng):
        for _ in range(20):
            k, pts, pose, px = synth_problem(rng, n=5)
            res = solve_pnp(pts, px, k)
            assert np.linalg.norm(res.extrinsic.translation - pose.translation) < 1e-6

    def test_nonfinite_rejected(self, rng):
        k, pts, pose, px = synth_problem(rng)
        pts[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            solve_pnp(pts, px, k)

    @pytest.mark.parametrize("far", ["all", "one"])
    def test_overflowing_pixels_do_not_converge(self, rng, far):
        """Finite pixels whose squared reprojection errors overflow are a NonConvergenceError, without a warning."""
        k, pts, pose, px = synth_problem(rng)
        if far == "all":
            px = 1e300 + 1e298 * rng.standard_normal(px.shape)
        else:
            px[0] = 1e308
        with pytest.raises(NonConvergenceError, match="no initialization led to a converged solution"):
            solve_pnp(pts, px, k)

    @pytest.mark.parametrize("count", [2, 3])
    def test_overflowing_centroid_does_not_converge(self, rng, count):
        """Pixels whose centroid overflows have an infinite spread: a NonConvergenceError, without a warning."""
        k, pts, pose, px = synth_problem(rng)
        px[:count] = 1e308
        with pytest.raises(NonConvergenceError, match="no initialization led to a converged solution"):
            solve_pnp(pts, px, k)

    def test_point_and_pixel_counts_must_match(self, rng):
        k, pts, pose, px = synth_problem(rng, n=8)
        with pytest.raises(ValueError, match="^8 points vs 7 pixels$"):
            solve_pnp(pts, px[:7], k)

    def test_singular_normal_equations_take_least_squares(self, rng, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        k, pts, pose, px = synth_problem(rng)
        monkeypatch.setattr(np.linalg, "solve", singular)
        res = solve_pnp(pts, px, k)
        assert np.linalg.norm(res.extrinsic.translation - pose.translation) < 1e-6
        assert rotation_angle(res.extrinsic.rotation, pose.rotation) < 1e-6

    def test_iteration_cap(self, rng, monkeypatch):
        from reconkit import pnp

        k, pts, pose, px = synth_problem(rng)
        monkeypatch.setattr(pnp, "MAX_ITERATIONS", 1)
        with pytest.raises(NonConvergenceError, match="^no convergence after 1 iterations$"):
            pnp._gauss_newton(pts, px + rng.standard_normal(px.shape), k, pose)

    def test_nonfinite_step_does_not_converge(self, rng, monkeypatch):
        from reconkit.pnp import _gauss_newton

        k, pts, pose, px = synth_problem(rng)
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(6, np.nan))
        with pytest.raises(NonConvergenceError, match="step is not finite"):
            _gauss_newton(pts, px + 1.0, k, pose)


@pytest.fixture(scope="module")
def sweep_scenes():
    """The fixed sweep: binocular 320x240 oracle scenes of seeds 0-39."""
    return [generate_scene(random_scene_spec(seed, views=2, width=320, height=240), seed) for seed in range(40)]


def sweep_pixels(bundle, seed, view, outlier):
    """A view's keypoints with 0.5 px Gaussian noise, then keypoint 0 moved `outlier` px in a drawn direction, both
    drawn from default_rng([seed, view])."""
    rng = np.random.default_rng([seed, view])
    kp = bundle.keypoints_2d[view]
    px = kp + 0.5 * rng.standard_normal(kp.shape)
    direction = rng.standard_normal(2)
    px[0] += outlier * direction / np.linalg.norm(direction)
    return px


class TestCandidateRule:
    """Gauss-Newton runs from the linear pose, if one forms, then from the 24 look-at seeds; the best fit wins."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """Every _gauss_newton run of a solve, in order: its initial pose and mean error, None if it failed."""
        runs = []
        gauss_newton = pnp._gauss_newton

        def recorded(pts, px, k, init, trace=None):
            try:
                result = gauss_newton(pts, px, k, init, trace)
            except NonConvergenceError:
                runs.append((init, None))
                raise
            runs.append((init, result[1]))
            return result

        monkeypatch.setattr(pnp, "_gauss_newton", recorded)
        return runs

    # sha256 over each view's returned extrinsic matrix bytes, reprojection error and iteration count, in sweep order
    SWEEP_SHA256 = {
        0.0: "b03a8c369643344ce25a3f870ecd594010f086a4aa125b97b2819fef61602d27",
        20.0: "12cf3af2f428c746854f62dee195fc6dc8100f6003819ab3d1f3db01d338427b",
    }

    @pytest.mark.parametrize("outlier", [0.0, 20.0])
    def test_sweep_solves_every_view(self, sweep_scenes, runs, outlier):
        """No view fails.  A linear pose that converges is the one run; otherwise every seed runs and the best wins."""
        rescued, first_not_best = 0, 0
        digest = hashlib.sha256()
        for seed, bundle in enumerate(sweep_scenes):
            for view in range(2):
                runs.clear()
                pts = bundle.keypoints_3d
                res = solve_pnp(pts, sweep_pixels(bundle, seed, view, outlier), bundle.views[view].intrinsics)
                digest.update(res.extrinsic.matrix().tobytes())
                digest.update(np.float64(res.reprojection_error).tobytes())
                digest.update(np.int64(res.iterations).tobytes())
                if len(runs) == 1:
                    assert res.reprojection_error == runs[0][1]
                    continue
                rescued += 1
                assert len(runs) <= 25 and all(err is None for _, err in runs[:-24])
                seeds = runs[-24:]
                assert [init.matrix().tobytes() for init, _ in seeds] == [
                    init.matrix().tobytes() for init in pnp._fallback_inits(pts)
                ]
                errors = [err for _, err in seeds if err is not None]
                assert res.reprojection_error == min(errors)
                first_not_best += errors[0] > min(errors)
        # the outlier puts a point behind the camera of many views' DLT poses; the first seed to converge is
        # often not the best one
        assert (rescued > 0, first_not_best > 0) == (outlier > 0, outlier > 0)
        assert digest.hexdigest() == self.SWEEP_SHA256[outlier]

    def test_linear_pose_that_converges_is_the_one_run(self, small_bundle, runs):
        for view in range(2):
            runs.clear()
            solve_pnp(small_bundle.keypoints_3d, small_bundle.keypoints_2d[view], small_bundle.views[view].intrinsics)
            assert len(runs) == 1 and runs[0][1] is not None


class TestGaussNewtonContract:
    def test_objective_never_increases(self, rng):
        from reconkit.pnp import _fallback_inits, _gauss_newton

        for _ in range(20):
            k, pts, pose, px = synth_problem(rng)
            px_noisy = px + 1.0 * rng.standard_normal(px.shape)
            init = next(iter(_fallback_inits(pts)))
            trace = []
            try:
                _gauss_newton(pts, px_noisy, k, init, trace=trace)
            except Exception:
                continue
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_one_pose_built_per_run(self, rng, monkeypatch):
        """A run checks one RigidTransform, the pose it returns, however many steps it takes or halves."""
        k, pts, pose, px = synth_problem(rng)
        init = next(iter(pnp._fallback_inits(pts)))
        built, candidates = [], []

        class Counted(RigidTransform):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        def counted_rotation(omega):
            candidates.append(omega)
            return rotation_from_vector(omega)

        monkeypatch.setattr(pnp, "RigidTransform", Counted)
        monkeypatch.setattr(pnp, "rotation_from_vector", counted_rotation)
        trace = []
        result, _, iterations = pnp._gauss_newton(pts, px + 1.0 * rng.standard_normal(px.shape), k, init, trace=trace)
        # each line-search candidate takes one rotation_from_vector; one that is not accepted halves the step
        assert iterations >= 2 and len(candidates) > len(trace) - 1
        assert len(built) == 1 and built[0] is result
