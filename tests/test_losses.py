"""Training objectives against independent oracles and hand-computed values."""

import numpy as np
import pytest

from conftest import random_rotation

from reconkit.camera import PointMap
from reconkit.losses import (
    BCE_EPS,
    GRADIENT_CHECKS,
    LOSS_TERMS,
    LossWeights,
    NonDifferentiableError,
    align_scale,
    check_gradient,
    compare_gradient,
    huber,
    keypoint_loss,
    mask_loss,
    normal_loss,
    normals_from_pointmap,
    point_loss,
    relative_pose_loss,
    st_loss,
    weighted_total,
)
from reconkit.masks import MaskSet
from reconkit.transforms import RigidTransform, Similarity, rotation_about_axis


def full_map(values):
    values = np.asarray(values, dtype=float)
    return PointMap(values, np.ones(values.shape[:2], dtype=bool))


def grid_search_scale_l1(pred, gt, lo=0.1, hi=10.0, step=1e-5):
    """Brute-force minimizer of the L1 point objective over s.

    The objective s -> sum |s a - b| is convex piecewise-linear, so scanning
    a coarse grid and refining around its argmin is equivalent to the full
    fine scan.
    """
    a = pred.reshape(-1)
    b = gt.reshape(-1)

    def objective(scales):
        return np.abs(scales[:, None] * a[None, :] - b[None, :]).sum(axis=1)

    coarse = np.arange(lo, hi + 1e-3, 1e-3)
    idx = np.argmin(objective(coarse))
    center = coarse[idx]
    fine = np.arange(max(lo, center - 2e-3), min(hi, center + 2e-3) + step, step)
    return fine[np.argmin(objective(fine))]


class TestAlignScale:
    def test_inverse_scaling(self, rng):
        gt = full_map(rng.uniform(0.5, 2.0, (4, 4, 3)))
        pred = full_map(0.5 * gt.values)
        assert abs(align_scale(pred, gt) - 2.0) < 1e-12

    def test_identity(self, rng):
        gt = full_map(rng.uniform(0.5, 2.0, (4, 4, 3)))
        assert align_scale(gt, gt) == 1.0

    def test_matches_l1_grid_search_oracle(self, rng):
        for _ in range(5):
            gt = rng.uniform(0.5, 2.0, (5, 5, 3))
            pred = 0.7 * gt + rng.uniform(-1e-6, 1e-6, gt.shape)
            s_closed = align_scale(full_map(pred), full_map(gt))
            s_grid = grid_search_scale_l1(pred, gt)
            assert abs(s_closed - s_grid) < 1e-4

    def test_matches_l2_grid_search_within_resolution(self, rng):
        # brute-force minimizer of the quadratic objective itself
        for _ in range(10):
            gt = rng.uniform(0.5, 2.0, (4, 4, 3))
            pred = rng.uniform(0.4, 0.9) * gt + rng.uniform(-0.01, 0.01, gt.shape)
            a, b = pred.ravel(), gt.ravel()
            grid = np.arange(0.1, 10.0, 1e-4)
            sse = ((grid[:, None] * a[None, :] - b[None, :]) ** 2).sum(axis=1)
            s_grid = grid[np.argmin(sse)]
            s_closed = align_scale(full_map(pred), full_map(gt))
            assert abs(s_closed - s_grid) <= 1e-4

    def test_empty_overlap_errors(self, rng):
        a = PointMap(np.ones((2, 2, 3)), np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="jointly valid"):
            align_scale(a, a)

    def test_all_zero_pred_errors(self):
        zeros = full_map(np.zeros((2, 2, 3)))
        ones = full_map(np.ones((2, 2, 3)))
        with pytest.raises(ValueError, match="zero"):
            align_scale(zeros, ones)


class TestPointLoss:
    def test_scale_invariance(self, rng):
        # lam * gt is not exactly representable, so zero holds to roundoff
        gt = full_map(rng.uniform(0.5, 2.0, (6, 6, 3)))
        assert point_loss(gt, gt) == 0.0
        for lam in (0.1, 7.3):
            assert point_loss(full_map(lam * gt.values), gt) < 1e-12

    def test_constant_offset_dilution(self, rng):
        # zero-mean gt coords of norm >> offset keep the aligned scale near 1,
        # so a (0.03, 0, 0) offset contributes ~0.01 after the 3HW mean
        gt_vals = rng.uniform(-100.0, 100.0, (16, 16, 3))
        pred_vals = gt_vals + np.array([0.03, 0.0, 0.0])
        loss = point_loss(full_map(pred_vals), full_map(gt_vals))
        assert abs(loss - 0.01) < 1e-3

    def test_single_pixel_perfect(self):
        pm = full_map(np.ones((1, 1, 3)))
        assert point_loss(pm, pm) == 0.0

    def test_direct_evaluation_oracle(self, rng):
        gt = rng.uniform(0.5, 2.0, (4, 4, 3))
        pred = gt + rng.uniform(-0.1, 0.1, gt.shape)
        s = align_scale(full_map(pred), full_map(gt))
        expected = np.abs(s * pred - gt).sum() / (3 * 16)
        assert abs(point_loss(full_map(pred), full_map(gt)) - expected) < 1e-15


class TestNormals:
    def plane_map(self, h=8, w=8, z=2.0):
        gx, gy = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
        return full_map(np.stack([gx * 0.01, gy * 0.01, np.full((h, w), z)], axis=-1))

    def test_flat_plane_normals(self):
        nm = normals_from_pointmap(self.plane_map())
        inner = nm.values[nm.valid]
        assert inner.shape[0] == 6 * 6
        np.testing.assert_allclose(np.abs(inner[:, 2]), 1.0, atol=1e-12)
        np.testing.assert_allclose(inner[:, :2], 0.0, atol=1e-12)

    def test_sphere_patch_radial_normals(self):
        # unit sphere sampled on a fine grid; normals align with the radius
        h = w = 9
        spacing = 1e-3
        gx, gy = np.meshgrid(
            (np.arange(w) - w // 2) * spacing, (np.arange(h) - h // 2) * spacing
        )
        gz = np.sqrt(1.0 - gx**2 - gy**2)
        pm = full_map(np.stack([gx, gy, gz], axis=-1))
        nm = normals_from_pointmap(pm)
        pts = pm.values[nm.valid]
        nrm = nm.values[nm.valid]
        cos = np.abs(np.sum(pts * nrm, axis=1) / np.linalg.norm(pts, axis=1))
        assert np.arccos(np.clip(cos, -1, 1)).max() < 1e-2

    def test_invalid_neighbor_propagates(self):
        pm = self.plane_map()
        valid = pm.valid.copy()
        valid[4, 4] = False
        nm = normals_from_pointmap(PointMap(pm.values, valid))
        assert not nm.valid[4, 4]
        assert not nm.valid[4, 3] and not nm.valid[4, 5]
        assert not nm.valid[3, 4] and not nm.valid[5, 4]

    def test_boundaries_invalid(self):
        nm = normals_from_pointmap(self.plane_map())
        assert not nm.valid[0, :].any() and not nm.valid[-1, :].any()
        assert not nm.valid[:, 0].any() and not nm.valid[:, -1].any()


class TestNormalLoss:
    def test_identical_maps_zero(self, rng):
        pm = full_map(rng.uniform(0.5, 2.0, (6, 6, 3)))
        assert normal_loss(pm, pm) == 0.0

    def test_uniform_tilt_by_construction(self):
        # rotating a plane's point map tilts every normal by exactly the
        # rotation angle
        h = w = 10
        gx, gy = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
        plane = np.stack([gx * 0.1, gy * 0.1, np.full((h, w), 2.0)], axis=-1)
        rot = rotation_about_axis([1.0, 0.0, 0.0], 0.2)
        tilted = plane @ rot.T
        loss = normal_loss(full_map(tilted), full_map(plane))
        assert abs(loss - 0.2) < 1e-9

    def test_antiparallel_is_pi(self):
        h = w = 5
        gx, gy = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
        plane = np.stack([gx, gy, np.full((h, w), 2.0)], axis=-1)
        mirrored = plane.copy()[:, ::-1]  # reverses x-order: flips the normal
        loss = normal_loss(full_map(mirrored), full_map(plane))
        assert abs(loss - np.pi) < 1e-12

    def test_symmetric_and_in_range(self, rng):
        a = full_map(rng.uniform(0.5, 2.0, (7, 7, 3)))
        b = full_map(rng.uniform(0.5, 2.0, (7, 7, 3)))
        fwd, rev = normal_loss(a, b), normal_loss(b, a)
        assert abs(fwd - rev) < 1e-12
        assert 0.0 <= fwd <= np.pi

    def test_k_zero_errors(self):
        pm = PointMap(np.ones((4, 4, 3)), np.zeros((4, 4), dtype=bool))
        with pytest.raises(ValueError, match="normal pairs"):
            normal_loss(pm, pm)


class TestMaskLoss:
    def _hard(self, rng, h=6, w=6):
        stacked = (rng.random((h, w, 3)) < 0.5).astype(float)
        return MaskSet.from_stacked(stacked)

    def test_perfect_prediction_floor(self, rng):
        gt = self._hard(rng)
        loss = mask_loss(gt, gt)
        assert 0.0 < loss <= 3 * -np.log1p(-BCE_EPS) + 1e-12
        assert loss < 1e-6

    def test_maximum_entropy_constant(self, rng):
        gt = self._hard(rng)
        pred = MaskSet.from_stacked(np.full((6, 6, 3), 0.5))
        assert abs(mask_loss(pred, gt) - np.log(2.0)) < 1e-12

    def test_flipped_pixels_vs_direct_summation(self, rng):
        h = w = 10
        gt = (rng.random((h, w, 3)) < 0.5).astype(float)
        flip = np.zeros((h, w, 3), dtype=bool)
        flat = rng.choice(h * w * 3, size=h * w * 3 // 10, replace=False)
        flip.ravel()[flat] = True
        pred = np.where(flip, 1.0 - gt, gt)
        actual = mask_loss(MaskSet.from_stacked(pred), MaskSet.from_stacked(gt))
        p = np.clip(pred, BCE_EPS, 1 - BCE_EPS)
        direct = 0.0
        for i in range(h):
            for j in range(w):
                for c in range(3):
                    m = gt[i, j, c]
                    direct += -(m * np.log(p[i, j, c]) + (1 - m) * np.log(1 - p[i, j, c]))
        direct /= h * w * 3
        assert abs(actual - direct) < 1e-12


class TestPoseLosses:
    def test_relative_identity(self, rng):
        p = RigidTransform(random_rotation(rng), rng.standard_normal(3))
        assert relative_pose_loss(p, p) == 0.0

    def test_relative_huber_quadratic_branch(self):
        gt = RigidTransform.identity()
        pred = RigidTransform(np.eye(3), np.array([0.5, 0.0, 0.0]))
        assert abs(relative_pose_loss(pred, gt, alpha=1.0) - 0.125) < 1e-15

    def test_relative_angle_term_only(self, rng):
        rot = rotation_about_axis(rng.standard_normal(3), 0.3)
        gt = RigidTransform(np.eye(3), np.zeros(3))
        pred = RigidTransform(rot, np.zeros(3))
        assert abs(relative_pose_loss(pred, gt) - 0.3) < 1e-12

    def test_huber_linear_branch(self):
        assert abs(huber(np.array([2.5])) - (2.5 - 0.5)) < 1e-15

    def test_st_identity(self, rng):
        s = Similarity(1.7, RigidTransform(random_rotation(rng), rng.standard_normal(3)))
        assert st_loss(s, s) == 0.0

    def test_st_scale_residual_only(self):
        gt = Similarity(1.0, RigidTransform.identity())
        pred = Similarity(1.2, RigidTransform.identity())
        assert abs(st_loss(pred, gt, beta1=1.0) - 0.02) < 1e-15

    def test_st_additivity(self, rng):
        r = rotation_about_axis(rng.standard_normal(3), 0.4)
        gt = Similarity(1.0, RigidTransform(np.eye(3), np.zeros(3)))
        pred = Similarity(1.3, RigidTransform(r, np.array([0.2, -0.4, 0.1])))
        b1, b2 = 1.5, 0.8
        expected = (
            b1 * huber(np.array([0.3]))
            + b2 * huber(np.array([0.2, -0.4, 0.1]))
            + 0.4
        )
        assert abs(st_loss(pred, gt, b1, b2) - expected) < 1e-12


class TestKeypointLoss:
    def test_perfect(self, rng):
        hm = rng.random((8, 8, 3))
        kp = rng.uniform(0, 7, (3, 2))
        assert keypoint_loss(hm, hm, kp, kp) == 0.0

    def test_coordinate_offset_mean(self, rng):
        hm = rng.random((8, 8, 3))
        kp = rng.uniform(0, 7, (3, 2))
        shifted = kp + np.array([1.0, 0.0])
        assert abs(keypoint_loss(hm, hm, shifted, kp) - 0.5) < 1e-15

    def test_gamma_scales_heatmap_term_only(self, rng):
        hm_gt = rng.random((8, 8, 3))
        hm_pred = rng.random((8, 8, 3))
        kp = rng.uniform(0, 7, (3, 2))
        kp_pred = kp + 0.25
        l1 = keypoint_loss(hm_pred, hm_gt, kp_pred, kp, gamma=1.0)
        l2 = keypoint_loss(hm_pred, hm_gt, kp_pred, kp, gamma=2.0)
        hm_term = np.abs(hm_pred - hm_gt).mean()
        assert abs((l2 - l1) - hm_term) < 1e-12
        assert abs(keypoint_loss(hm_pred, hm_gt, kp, kp, gamma=2.0) - 2 * hm_term) < 1e-12


class TestTotalLoss:
    """The six-term total as evaluate_losses_scene forms it, through weighted_total."""

    def _terms(self, rng):
        """All six terms, each nonzero, of a random prediction against a random target."""
        gt = full_map(rng.uniform(0.5, 2.0, (6, 6, 3)))
        pred = full_map(gt.values + rng.uniform(-0.05, 0.05, (6, 6, 3)))

        def masks():
            return MaskSet.from_stacked(rng.uniform(0.1, 0.9, (6, 6, 3)))

        def pose():
            return RigidTransform(random_rotation(rng), rng.standard_normal(3))

        hm = rng.random((6, 6, 2))
        kp = rng.uniform(0, 5, (2, 2))
        return {
            "point": point_loss(pred, gt),
            "normal": normal_loss(pred, gt),
            "mask": mask_loss(masks(), masks()),
            "relative_pose": relative_pose_loss(pose(), pose()),
            "similarity": st_loss(Similarity(1.2, pose()), Similarity(0.9, pose())),
            "keypoint": keypoint_loss(hm, rng.random((6, 6, 2)), kp + 0.3, kp),
        }

    def test_breakdown_additivity(self, rng):
        terms = self._terms(rng)
        assert abs(weighted_total(terms, LossWeights()) - sum(terms.values())) < 1e-12

    def test_lambda_linearity(self, rng):
        terms = self._terms(rng)
        assert all(value > 0 for value in terms.values())
        base = weighted_total(terms, LossWeights())
        for i, name in enumerate(LOSS_TERMS, 1):
            doubled = weighted_total(terms, LossWeights(**{f"lambda{i}": 2.0}))
            assert abs((doubled - base) - terms[name]) < 1e-12


class TestGradientChecker:
    @pytest.mark.parametrize("name", sorted(GRADIENT_CHECKS))
    def test_all_losses_below_tolerance(self, name):
        assert check_gradient(name, seed=0) < 1e-4

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_stable_across_seeds(self, seed):
        for name in ("mask", "point", "similarity"):
            assert check_gradient(name, seed=seed) < 1e-4

    def test_point_loss_fd_slope_sign(self, rng):
        # away from zero residual the two one-sided slopes share the sign
        # of +-s/(3HW) depending on the residual sign
        gt = rng.uniform(0.5, 1.5, (4, 4, 3))
        pred = 0.8 * gt + 0.1
        gmap, pmap = full_map(gt), full_map(pred)
        s = align_scale(pmap, gmap)
        eps = 1e-6
        bumped = pred.copy()
        bumped[2, 2, 1] += eps
        f0 = point_loss(pmap, gmap)
        f1 = point_loss(full_map(bumped), gmap)
        slope = (f1 - f0) / eps
        residual = s * pred[2, 2, 1] - gt[2, 2, 1]
        assert np.sign(slope) == np.sign(residual) * np.sign(s)
        assert abs(abs(slope) - s / (3 * 16)) / (s / 48) < 0.2  # chain term is small

    def test_kink_detection(self):
        x0 = np.zeros(1)
        with pytest.raises(NonDifferentiableError):
            compare_gradient(x0, lambda x: float(np.abs(x[0])), lambda x: np.sign(x), name="abs")

    def test_non_finite_difference_is_an_error(self):
        # inf - inf is nan: a step past the float range must not read as a zero error
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite difference at coordinate 0"):
            compare_gradient(np.ones(1), lambda x: float(x[0] ** 2), lambda x: 2 * x, 1e308, "square")

    def test_unknown_loss_name(self):
        with pytest.raises(KeyError, match="unknown loss"):
            check_gradient("nope")
