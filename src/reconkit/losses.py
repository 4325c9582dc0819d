"""Training objectives: point, normal, mask, relative-pose, similarity and
keypoint losses, plus a finite-difference gradient checker.

All reductions use numpy's fixed pairwise summation order, so repeated
evaluation of the same inputs is bit-reproducible.  Means are taken over the
participating entries (jointly valid pixels / all mask entries / all
coordinates), which matches the full-grid normalization whenever every pixel
is valid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import PointMap
from .masks import MaskSet
from .transforms import (
    RigidTransform,
    Similarity,
    rotation_about_axis,
    rotation_angle,
    rotation_axis,
)

BCE_EPS = 1e-7
HUBER_DELTA = 1.0
LOSS_TERMS = ("point", "normal", "mask", "relative_pose", "similarity", "keypoint")


class NonDifferentiableError(ValueError):
    """Raised when a gradient check lands on a kink or clamp."""


@dataclass(frozen=True)
class LossWeights:
    """Balancing coefficients for the individual objectives and their sum."""

    alpha: float = 1.0
    beta1: float = 1.0
    beta2: float = 1.0
    gamma: float = 1.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 1.0
    lambda4: float = 1.0
    lambda5: float = 1.0
    lambda6: float = 1.0

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"loss weight {name} must be positive, got {value}")


@dataclass(frozen=True, eq=False)
class NormalMap:
    """H x W unit normals with validity flags."""

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        m = np.asarray(self.valid, dtype=bool)
        if v.ndim != 3 or v.shape[2] != 3 or m.shape != v.shape[:2]:
            raise ValueError("normal map must be HxWx3 with an HxW valid grid")
        norms = _lengths(*np.take(v.reshape(-1, 3), np.flatnonzero(m), axis=0).T)
        if norms.size and np.abs(norms - 1.0).max() > 1e-9:
            raise ValueError("valid normals must have unit norm")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "valid", m)


def huber(residual, delta: float = HUBER_DELTA) -> float:
    """Per-coordinate Huber penalty, summed over all coordinates."""
    r = np.abs(np.asarray(residual, dtype=float))
    return float(np.sum(np.where(r <= delta, 0.5 * r * r, delta * (r - 0.5 * delta))))


def _huber_grad(residual, delta: float = HUBER_DELTA) -> np.ndarray:
    r = np.asarray(residual, dtype=float)
    return np.where(np.abs(r) <= delta, r, delta * np.sign(r))


def _joint_flat(pred: PointMap, gt: PointMap) -> tuple[np.ndarray, np.ndarray]:
    if pred.shape != gt.shape:
        raise ValueError(f"point map shapes differ: {pred.shape} vs {gt.shape}")
    both = pred.valid & gt.valid
    return pred.values[both], gt.values[both]


def align_scale(pred: PointMap, gt: PointMap) -> float:
    """Closed-form scale minimizing sum ||s * pred - gt||^2 over joint pixels."""
    p, g = _joint_flat(pred, gt)
    return align_scale_flat(p, g)


def align_scale_flat(pred_pts: np.ndarray, gt_pts: np.ndarray) -> float:
    pred_pts = np.asarray(pred_pts, dtype=float).reshape(-1, 3)
    gt_pts = np.asarray(gt_pts, dtype=float).reshape(-1, 3)
    if pred_pts.shape[0] == 0:
        raise ValueError("no jointly valid pixels to align")
    num = float(np.sum(pred_pts * gt_pts))
    den = float(np.sum(pred_pts * pred_pts))
    if den == 0.0:
        raise ValueError("cannot align scale: predicted points are all zero")
    return num / den


def point_loss(pred: PointMap, gt: PointMap) -> float:
    """Scale-aligned mean L1 over the 3 coordinates of every joint pixel."""
    p, g = _joint_flat(pred, gt)
    return point_loss_flat(p, g)


def point_loss_flat(pred_pts: np.ndarray, gt_pts: np.ndarray) -> float:
    pred_pts = np.asarray(pred_pts, dtype=float).reshape(-1, 3)
    gt_pts = np.asarray(gt_pts, dtype=float).reshape(-1, 3)
    s = align_scale_flat(pred_pts, gt_pts)
    return float(np.abs(s * pred_pts - gt_pts).mean())


def _cross(a0, a1, a2, b0, b1, b2):
    """Components of a x b, each formed as np.cross forms it."""
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def _lengths(x0, x1, x2) -> np.ndarray:
    """Euclidean lengths summed in np.linalg.norm's order over a length-3 axis."""
    return np.sqrt((x0 * x0 + x1 * x1) + x2 * x2)


def normals_from_pointmap(points: PointMap) -> NormalMap:
    """Central-difference normals: normalize((right-left) x (down-up)).

    Boundary pixels, pixels with any invalid 4-neighbor and pixels whose
    cross product has zero (or NaN) length are invalid.  The stencil is
    evaluated only at pixels whose five points are all valid; the cross
    product, its length and the division are formed per component in the
    order np.cross and np.linalg.norm use, so every value is bit-identical
    to the full-frame evaluation.
    """
    h, w = points.shape
    if h < 3 or w < 3:
        raise ValueError(f"need at least 3x3 points for normals, got {h}x{w}")
    v = points.values.reshape(-1, 3)
    m = points.valid
    ok = np.zeros((h, w), dtype=bool)
    ok[1:-1, 1:-1] = (
        m[1:-1, 1:-1]
        & m[1:-1, 2:]
        & m[1:-1, :-2]
        & m[2:, 1:-1]
        & m[:-2, 1:-1]
    )
    idx = np.flatnonzero(ok)
    dx = np.take(v, idx + 1, axis=0) - np.take(v, idx - 1, axis=0)
    dy = np.take(v, idx + w, axis=0) - np.take(v, idx - w, axis=0)
    n = _cross(*dx.T, *dy.T)
    lengths = _lengths(*n)
    nonzero = lengths > 0
    idx, lengths = idx[nonzero], lengths[nonzero]
    normals = np.zeros((h * w, 3))
    for k in range(3):
        normals[idx, k] = n[k][nonzero] / lengths
    valid = np.zeros(h * w, dtype=bool)
    valid[idx] = True
    return NormalMap(normals.reshape(h, w, 3), valid.reshape(h, w))


def normal_angles(pred: NormalMap, gt: NormalMap) -> np.ndarray:
    """Angles arctan2(||n_p x n_g||, n_p . n_g) over jointly valid pixels.

    Only jointly valid pixels are gathered; the cross product, its length
    and the dot product are formed per component in the order np.cross,
    np.linalg.norm and np.sum over a length-3 axis use, so the angles are
    bit-identical to the vectorized full-array form.
    """
    if pred.values.shape != gt.values.shape:
        raise ValueError("normal map shapes differ")
    idx = np.flatnonzero(pred.valid & gt.valid)
    p0, p1, p2 = np.take(pred.values.reshape(-1, 3), idx, axis=0).T
    g0, g1, g2 = np.take(gt.values.reshape(-1, 3), idx, axis=0).T
    cross = _lengths(*_cross(p0, p1, p2, g0, g1, g2))
    dot = (p0 * g0 + p1 * g1) + p2 * g2
    return np.arctan2(cross, dot)


def normal_loss(pred: PointMap, gt: PointMap) -> float:
    """Mean angle between normals derived from the two point maps."""
    angles = normal_angles(normals_from_pointmap(pred), normals_from_pointmap(gt))
    if angles.size == 0:
        raise ValueError("no jointly valid normal pairs")
    return float(angles.mean())


def mask_loss(pred: MaskSet, gt: MaskSet) -> float:
    """Mean binary cross-entropy over all pixels and all three parts."""
    if pred.shape != gt.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    p = np.clip(pred.stacked(), BCE_EPS, 1.0 - BCE_EPS)
    m = gt.stacked()
    bce = -(m * np.log(p) + (1.0 - m) * np.log(1.0 - p))
    return float(bce.mean())


def relative_pose_loss(
    pred: RigidTransform,
    gt: RigidTransform,
    alpha: float = 1.0,
    delta: float = HUBER_DELTA,
) -> float:
    """alpha * Huber(translation residual) + geodesic rotation angle."""
    return alpha * huber(pred.translation - gt.translation, delta) + rotation_angle(
        pred.rotation, gt.rotation
    )


def st_loss(
    pred: Similarity,
    gt: Similarity,
    beta1: float = 1.0,
    beta2: float = 1.0,
    delta: float = HUBER_DELTA,
) -> float:
    """beta1 * Huber(scale) + beta2 * Huber(translation) + rotation angle."""
    return (
        beta1 * huber(pred.scale - gt.scale, delta)
        + beta2 * huber(pred.rigid.translation - gt.rigid.translation, delta)
        + rotation_angle(pred.rigid.rotation, gt.rigid.rotation)
    )


def keypoint_loss(pred_hm, gt_hm, pred_kp, gt_kp, gamma: float = 1.0) -> float:
    """gamma * mean-L1 over heatmap entries + mean-L1 over coordinates."""
    ph = np.asarray(pred_hm, dtype=float)
    gh = np.asarray(gt_hm, dtype=float)
    if ph.shape != gh.shape:
        raise ValueError(f"heatmap shapes differ: {ph.shape} vs {gh.shape}")
    pk = np.asarray(pred_kp, dtype=float)
    gk = np.asarray(gt_kp, dtype=float)
    if pk.shape != gk.shape:
        raise ValueError(f"keypoint shapes differ: {pk.shape} vs {gk.shape}")
    return float(gamma * np.abs(ph - gh).mean() + np.abs(pk - gk).mean())


def weighted_total(terms: dict, weights: LossWeights) -> float:
    """Sum of lambda_i * term_i, with lambda1..lambda6 weighting LOSS_TERMS in order."""
    return float(
        sum(getattr(weights, f"lambda{i}") * terms[name] for i, name in enumerate(LOSS_TERMS, 1))
    )


# ---------------------------------------------------------------------------
# Gradient checking
#
# Each named loss provides (x0, f, analytic_grad) over a flat parameter
# vector sampled away from L1/Huber kinks and BCE clamps.  check_gradient
# compares central finite differences of f against the analytic gradient and
# flags non-differentiable points via forward/backward slope mismatch.
# ---------------------------------------------------------------------------


def _mask_check(rng):
    h = w = 4
    gt = (rng.random((h, w, 3)) < 0.5).astype(float)
    pred0 = rng.uniform(0.1, 0.9, size=(h, w, 3))
    n = pred0.size

    def f(x):
        return mask_loss(MaskSet.from_stacked(x.reshape(h, w, 3)), MaskSet.from_stacked(gt))

    def grad(x):
        p = x.reshape(h, w, 3)
        m = gt
        return ((-m / p + (1.0 - m) / (1.0 - p)) / n).ravel()

    return pred0.ravel(), f, grad


def _point_check(rng):
    h = w = 4
    gt = rng.uniform(0.5, 1.5, size=(h, w, 3))
    gt_map = PointMap(gt, np.ones((h, w), dtype=bool))
    # resample until every residual after alignment is clear of the L1 kink
    for _ in range(100):
        pred0 = 0.8 * gt + rng.uniform(0.05, 0.15, size=gt.shape)
        p = pred0.reshape(-1, 3)
        g = gt.reshape(-1, 3)
        s = np.sum(p * g) / np.sum(p * p)
        if np.abs(s * p - g).min() > 0.01:
            break

    def f(x):
        return point_loss(PointMap(x.reshape(h, w, 3), np.ones((h, w), bool)), gt_map)

    def grad(x):
        p = x.reshape(-1, 3)
        g = gt.reshape(-1, 3)
        num = np.sum(p * g)
        den = np.sum(p * p)
        s = num / den
        r = s * p - g
        sign = np.sign(r)
        n = r.size
        ds = (g * den - 2.0 * p * num) / den**2
        return ((s * sign + ds * np.sum(sign * p)) / n).ravel()

    return pred0.ravel(), f, grad


def _angle_grad(r_pred: np.ndarray, r_gt: np.ndarray) -> np.ndarray:
    """Gradient of rotation_angle wrt a right-multiplied axis-angle update."""
    return -rotation_axis(r_pred.T @ r_gt)


def _relative_pose_check(rng, alpha: float = 1.0):
    r_gt = rotation_about_axis(rng.standard_normal(3), rng.uniform(0.3, 1.0))
    t_gt = rng.standard_normal(3)
    r0 = r_gt @ rotation_about_axis(rng.standard_normal(3), rng.uniform(0.4, 1.2))
    # residuals away from 0 and from the Huber transition at |r| = delta
    t0 = t_gt + rng.choice([-1, 1], 3) * rng.uniform(0.3, 0.7, 3)
    gt = RigidTransform(r_gt, t_gt)

    def build(x):
        omega = x[3:6]
        angle = np.linalg.norm(omega)
        d = rotation_about_axis(omega, angle) if angle > 0 else np.eye(3)
        return RigidTransform(r0 @ d, x[0:3])

    def f(x):
        return relative_pose_loss(build(x), gt, alpha)

    def grad(x):
        pose = build(x)
        g = np.empty(6)
        g[0:3] = alpha * _huber_grad(x[0:3] - t_gt)
        g[3:6] = _angle_grad(pose.rotation, r_gt)
        return g

    return np.concatenate([t0, np.zeros(3)]), f, grad


def _st_check(rng, beta1: float = 1.0, beta2: float = 1.0):
    r_gt = rotation_about_axis(rng.standard_normal(3), rng.uniform(0.3, 1.0))
    t_gt = rng.standard_normal(3)
    s_gt = rng.uniform(0.8, 1.2)
    gt = Similarity(s_gt, RigidTransform(r_gt, t_gt))
    r0 = r_gt @ rotation_about_axis(rng.standard_normal(3), rng.uniform(0.4, 1.2))
    t0 = t_gt + rng.choice([-1, 1], 3) * rng.uniform(0.3, 0.7, 3)
    s0 = s_gt + rng.choice([-1, 1]) * rng.uniform(0.2, 0.6)

    def build(x):
        omega = x[4:7]
        angle = np.linalg.norm(omega)
        d = rotation_about_axis(omega, angle) if angle > 0 else np.eye(3)
        return Similarity(x[0], RigidTransform(r0 @ d, x[1:4]))

    def f(x):
        return st_loss(build(x), gt, beta1, beta2)

    def grad(x):
        sim = build(x)
        g = np.empty(7)
        g[0] = beta1 * _huber_grad(x[0] - s_gt)
        g[1:4] = beta2 * _huber_grad(x[1:4] - t_gt)
        g[4:7] = _angle_grad(sim.rigid.rotation, r_gt)
        return g

    return np.concatenate([[s0], t0, np.zeros(3)]), f, grad


def _keypoint_check(rng, gamma: float = 1.0):
    h, w, n = 6, 6, 3
    gt_hm = rng.random((h, w, n))
    gt_kp = rng.uniform(0, 5, size=(n, 2))
    hm0 = gt_hm + rng.choice([-1, 1], gt_hm.shape) * rng.uniform(0.1, 0.4, gt_hm.shape)
    kp0 = gt_kp + rng.choice([-1, 1], gt_kp.shape) * rng.uniform(0.3, 0.8, gt_kp.shape)
    n_hm = gt_hm.size
    n_kp = gt_kp.size

    def f(x):
        hm = x[:n_hm].reshape(h, w, n)
        kp = x[n_hm:].reshape(-1, 2)
        return keypoint_loss(hm, gt_hm, kp, gt_kp, gamma)

    def grad(x):
        hm = x[:n_hm].reshape(h, w, n)
        kp = x[n_hm:].reshape(-1, 2)
        g_hm = gamma * np.sign(hm - gt_hm) / n_hm
        g_kp = np.sign(kp - gt_kp) / n_kp
        return np.concatenate([g_hm.ravel(), g_kp.ravel()])

    return np.concatenate([hm0.ravel(), kp0.ravel()]), f, grad


def _rotation_angle_check(rng):
    r_gt = rotation_about_axis(rng.standard_normal(3), rng.uniform(0.3, 1.0))
    r0 = r_gt @ rotation_about_axis(rng.standard_normal(3), rng.uniform(0.2, 0.8))

    def build(x):
        angle = np.linalg.norm(x)
        d = rotation_about_axis(x, angle) if angle > 0 else np.eye(3)
        return r0 @ d

    def f(x):
        return rotation_angle(build(x), r_gt)

    def grad(x):
        return _angle_grad(build(x), r_gt)

    return np.zeros(3), f, grad


GRADIENT_CHECKS = {
    "mask": _mask_check,
    "point": _point_check,
    "relative_pose": _relative_pose_check,
    "similarity": _st_check,
    "keypoint": _keypoint_check,
    "rotation_angle": _rotation_angle_check,
}


def compare_gradient(x0, f, grad, eps: float = 1e-6, name: str = "loss") -> float:
    """Central differences of f vs the analytic gradient over all coordinates.

    Raises NonDifferentiableError when forward and backward slopes disagree,
    i.e. the point sits on an L1/Huber kink or a clamp boundary.
    """
    x0 = np.asarray(x0, dtype=float)
    g = np.asarray(grad(x0), dtype=float)
    f0 = f(x0)
    worst = 0.0
    for i in range(x0.size):
        step = np.zeros_like(x0)
        step[i] = eps
        f_plus = f(x0 + step)
        f_minus = f(x0 - step)
        central = (f_plus - f_minus) / (2.0 * eps)
        if not np.isfinite(central):  # a step so large that it leaves the float range
            raise ValueError(f"{name}: step {eps:g} gives a non-finite difference at coordinate {i}")
        forward = (f_plus - f0) / eps
        backward = (f0 - f_minus) / eps
        scale = max(abs(central), 1.0)
        if abs(forward - backward) > 1e-3 * scale + 1e-9:
            raise NonDifferentiableError(
                f"{name} is not differentiable at coordinate {i} "
                f"(forward slope {forward:.6g}, backward slope {backward:.6g})"
            )
        rel = abs(central - g[i]) / max(abs(central), abs(g[i]), 1e-12)
        worst = max(worst, rel)
    return worst


def check_gradient(loss_name: str, seed: int = 0, eps: float = 1e-6) -> float:
    """Max relative finite-difference error for one of the named losses."""
    if loss_name not in GRADIENT_CHECKS:
        raise KeyError(
            f"unknown loss {loss_name!r}; choose from {sorted(GRADIENT_CHECKS)}"
        )
    rng = np.random.default_rng(seed)
    x0, f, grad = GRADIENT_CHECKS[loss_name](rng)
    return compare_gradient(x0, f, grad, eps, name=loss_name)
