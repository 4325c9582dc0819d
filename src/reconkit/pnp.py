"""Keypoint decoding and Perspective-n-Point camera extrinsic estimation.

solve_pnp recovers the robot-base -> camera transform from >= 4 keypoint correspondences by
Gauss-Newton on an SE(3) parameterization with step-halving, run from a linear initialization
(12-parameter DLT for >= 6 non-coplanar points, best-fit-plane homography otherwise) and, when
that fails or only approximates, from 24 look-at seeds.  The Gauss-Newton objective is the sum of
squared reprojection errors; an accepted step never increases it.  A run iterates on the rotation and
translation arrays, forms its Jacobian in one batched product, and checks one RigidTransform, the pose
it returns.  The linear initializations observe each pixel at its `camera.normalize` coordinates, as
coordinate maps and rays do.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .camera import POSITIVE, Intrinsics, check_number, normalize, project
from .transforms import RigidTransform, orthogonalize_9d, rotation_from_vector

# Sharp enough that an oracle heatmap decodes to its bump centre (sub-0.01 px).
DEFAULT_TEMPERATURE = 0.05
MAX_ITERATIONS = 100
STEP_TOLERANCE = 1e-10
# Pixels all this close to their centroid (px) pin down no pose, only a direction.
MIN_PIXEL_SPREAD = 1e-3


class DegenerateConfigurationError(ValueError):
    """Raised for point sets PnP cannot handle (too few, collinear, coincident pixels)."""


class NonConvergenceError(RuntimeError):
    """Raised when Gauss-Newton fails to converge within the iteration cap."""


def soft_argmax(heatmap, temperature: float = DEFAULT_TEMPERATURE) -> np.ndarray:
    """Sub-pixel keypoints as the expectation of pixel positions per channel.

    Each H x W x N channel is divided by its max (making the decoding
    invariant to positive per-channel scaling), then softmax((h/max - 1)/T)
    weights the pixel grid.  Returns (N, 2) coordinates as (x, y) = (col, row).
    """
    hm = np.asarray(heatmap, dtype=float)
    if hm.ndim == 2:
        hm = hm[:, :, None]
    if hm.ndim != 3:
        raise ValueError(f"heatmap must be HxWxN, got shape {hm.shape}")
    check_number("temperature", temperature, *POSITIVE)
    if np.any(hm < 0) or not np.all(np.isfinite(hm)):
        raise ValueError("heatmap entries must be finite and >= 0")
    h, w, n = hm.shape
    us = np.arange(w, dtype=float)
    vs = np.arange(h, dtype=float)
    out = np.empty((n, 2))
    for c in range(n):
        ch = hm[:, :, c]
        peak = ch.max()
        if peak == 0.0:
            raise ValueError(f"heatmap channel {c} is all-zero")
        weights = np.exp((ch / peak - 1.0) / temperature)
        total = weights.sum()
        out[c, 0] = (weights.sum(axis=0) @ us) / total
        out[c, 1] = (weights.sum(axis=1) @ vs) / total
    return out


@dataclass(frozen=True)
class PnPResult:
    extrinsic: RigidTransform
    reprojection_error: float
    iterations: int


def _dlt_null_vector(points: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Last right-singular vector, as 3 rows of k, of the 2n x 3k DLT system of n points
    (n x (k-1), made homogeneous here) and their normalized observations."""
    n, k = points.shape[0], points.shape[1] + 1
    a = np.zeros((2 * n, 3 * k))
    xh = np.hstack([points, np.ones((n, 1))])
    a[0::2, k:2 * k] = -xh
    a[0::2, 2 * k:] = obs[:, 1:2] * xh
    a[1::2, 0:k] = xh
    a[1::2, 2 * k:] = -obs[:, 0:1] * xh
    _, _, vt = np.linalg.svd(a)
    return vt[-1].reshape(3, k)


def _init_dlt(pts: np.ndarray, obs: np.ndarray) -> RigidTransform:
    """12-parameter DLT on normalized observations; needs >= 6 points."""
    p = _dlt_null_vector(pts, obs)
    if np.linalg.det(p[:, :3]) < 0:
        p = -p
    m = p[:, :3]
    det = np.linalg.det(m)
    scale = det ** (1.0 / 3.0)
    if scale <= 0 or not np.isfinite(scale):
        raise DegenerateConfigurationError("DLT produced a singular projection")
    # det(M) > 0 already picks the cheirality-consistent sign of the null vector
    return RigidTransform(orthogonalize_9d(m / scale), p[:, 3] / scale)


def _init_homography(pts: np.ndarray, obs: np.ndarray) -> RigidTransform:
    """Pose from the homography of the (best-fit) plane through the points."""
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, _, vt = np.linalg.svd(centered)
    u_ax, v_ax = vt[0], vt[1]
    plane = np.stack([centered @ u_ax, centered @ v_ax], axis=1)
    hmat = _dlt_null_vector(plane, obs)

    def decompose(h):
        s = 0.5 * (np.linalg.norm(h[:, 0]) + np.linalg.norm(h[:, 1]))
        c1 = h[:, 0] / s
        c2 = h[:, 1] / s
        basis = np.stack([u_ax, v_ax, np.cross(u_ax, v_ax)], axis=1)
        r = orthogonalize_9d(np.stack([c1, c2, np.cross(c1, c2)], axis=1) @ basis.T)
        t = h[:, 2] / s - r @ centroid
        return RigidTransform(r, t)

    a_pose = decompose(hmat)
    b_pose = decompose(-hmat)
    a_front = np.min(a_pose.apply(pts)[:, 2])
    b_front = np.min(b_pose.apply(pts)[:, 2])
    return a_pose if a_front >= b_front else b_pose


def _cube_rotations():
    """The 24 axis-aligned orientations (signed permutations with det +1)."""
    signed = (np.eye(3)[list(perm)] * np.array(signs)[:, None]
              for perm in itertools.permutations(range(3)) for signs in itertools.product((1.0, -1.0), repeat=3))
    return [r for r in signed if np.linalg.det(r) > 0]


_CUBE_ROTATIONS = _cube_rotations()


def _fallback_inits(pts: np.ndarray):
    """Feasible look-at seeds: every cube orientation, centroid in front."""
    centroid = pts.mean(axis=0)
    spread = np.max(np.linalg.norm(pts - centroid, axis=1))
    d = max(4.0 * spread, 0.5)
    for r in _CUBE_ROTATIONS:
        yield RigidTransform(r, np.array([0.0, 0.0, d]) - r @ centroid)


def _gauss_newton(pts, px, k: Intrinsics, pose: RigidTransform, trace=None):
    """Gauss-Newton from `pose`, iterating on its rotation and translation arrays; the pose it returns is the run's
    one RigidTransform, so its one check_rotation."""
    def residuals(rot, t):
        """Residuals, camera-frame points and their sum of squares: inf behind the camera or past the float range."""
        cam = pts @ rot.T + t  # as RigidTransform.apply maps them
        if np.any(cam[:, 2] <= 1e-12):
            return None, None, np.inf
        with np.errstate(over="ignore"):  # pixels far enough out overflow the residuals or their squares
            res = (project(cam, k) - px).ravel()
            return res, cam, res @ res

    rot, t = pose.rotation, pose.translation
    res, cam, sse = residuals(rot, t)
    if res is None:
        raise NonConvergenceError("initialization places points behind the camera")
    if not np.isfinite(sse):
        raise NonConvergenceError("initialization's squared reprojection error is not finite")
    if trace is not None:
        trace.append(float(sse))

    n = pts.shape[0]
    zero = np.zeros(n)
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        x, y, z = cam.T
        # d(u,v)/d(p_cam) rows, chained with left perturbation p_cam' = p_cam + dt + omega x p_cam: one batched
        # product takes each point's two rows, (n, 2, 1, 3), times its -skew(p_cam), (n, 1, 3, 3)
        duv = np.stack([k.fx / z, zero, -k.fx * x / z**2, zero, k.fy / z, -k.fy * y / z**2], axis=1).reshape(n, 2, 3)
        cross = -np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=1).reshape(n, 1, 3, 3)
        jac = np.concatenate([duv, np.matmul(duv[:, :, None], cross)[:, :, 0]], axis=2).reshape(2 * n, 6)
        try:
            step = np.linalg.solve(jac.T @ jac, -jac.T @ res)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        if not np.all(np.isfinite(step)):
            raise NonConvergenceError("Gauss-Newton step is not finite")
        step_norm = np.linalg.norm(step)
        if step_norm < STEP_TOLERANCE:
            break

        # step-halving line search: never accept an increase of the objective
        for scale in (0.5**i for i in range(30)):
            d_rot = rotation_from_vector(scale * step[3:6])
            crot, ct = d_rot @ rot, d_rot @ t + scale * step[0:3]
            cres, ccam, csse = residuals(crot, ct)
            if csse <= sse:
                rot, t, res, cam, sse = crot, ct, cres, ccam, csse
                if trace is not None:
                    trace.append(float(sse))
                break
        else:
            break
        if scale * step_norm < STEP_TOLERANCE:
            break
    else:
        raise NonConvergenceError(f"no convergence after {MAX_ITERATIONS} iterations")

    mean_err = float(np.mean(np.linalg.norm(res.reshape(-1, 2), axis=1)))
    return RigidTransform(rot, t), mean_err, iterations


def solve_pnp(points3d, pixels, k: Intrinsics) -> PnPResult:
    """Estimate the robot-base -> camera extrinsic from 2D-3D correspondences.

    Gauss-Newton runs from each candidate in turn: the linear pose, if one forms, then the look-at seeds.  A
    candidate that fails is skipped and the lowest mean reprojection error wins.  The search stops at an exact fit,
    or once the linear pose converges, unless that pose is the homography of a non-coplanar set.
    """
    pts = np.asarray(points3d, dtype=float).reshape(-1, 3)
    px = np.asarray(pixels, dtype=float).reshape(-1, 2)
    if pts.shape[0] != px.shape[0]:
        raise ValueError(f"{pts.shape[0]} points vs {px.shape[0]} pixels")
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(px))):
        raise ValueError("PnP inputs must be finite")
    n = pts.shape[0]
    if n < 4:
        raise DegenerateConfigurationError(f"PnP needs at least 4 points, got {n}")
    with np.errstate(over="ignore"):  # an overflowed centroid is an infinite spread; hypot itself never overflows
        if np.hypot(*(px - px.mean(axis=0)).T).max() < MIN_PIXEL_SPREAD:
            raise DegenerateConfigurationError(f"pixels lie within {MIN_PIXEL_SPREAD} px of their centroid")

    sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    if sv[1] <= sv[0] * 1e-8:
        raise DegenerateConfigurationError("points are collinear")
    coplanar = sv[2] <= sv[0] * 1e-6

    obs = np.column_stack(normalize(k, *px.T))
    try:
        linear = [(_init_homography if coplanar or n < 6 else _init_dlt)(pts, obs)]
    except (DegenerateConfigurationError, np.linalg.LinAlgError):
        linear = []
    # a converged linear pose is final, unless it is the plane homography of a non-coplanar set, which only approximates
    final = linear[0] if linear and (coplanar or n >= 6) else None
    best = None
    for init in itertools.chain(linear, _fallback_inits(pts)):
        try:
            pose, err, iterations = _gauss_newton(pts, px, k, init)
        except NonConvergenceError:
            continue
        if best is None or err < best.reprojection_error:
            best = PnPResult(extrinsic=pose, reprojection_error=err, iterations=iterations)
        if best.reprojection_error < 1e-8 or init is final:
            break
    if best is None:
        raise NonConvergenceError("no initialization led to a converged solution")
    return best
