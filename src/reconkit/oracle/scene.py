"""Procedural desk-scale scenes rendered by analytic ray casting.

A scene is a table plane at z = 0 (background), a few spheres/boxes resting
on it (objects), and a serial-arm proxy rendered as capsules around its
links (robot).  The robot base sits at the world origin with z up, so the
world frame doubles as the canonical robot frame.

Cameras are sampled on a spherical shell around the workspace center
(randomized radius, azimuth, elevation), oriented by a look-at constraint
toward a jittered target with an extra random roll, and carry intrinsics
perturbed around defaults.  Rays are cast through pixel centers with
camera-frame direction (x, y, 1), so the hit parameter equals the z-depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from ..camera import POSITIVE, Intrinsics, check_number, pixel_grid, project
from ..kinematics import KinematicChain, KeypointSpec, forward_kinematics
from ..masks import LABEL_BACKGROUND, LABEL_OBJECT, LABEL_ROBOT
from ..transforms import RigidTransform, rotation_about_axis

RAY_EPS = 1e-9


def _squared_lengths(v: np.ndarray) -> np.ndarray:
    """Squared lengths over the last axis of (..., 3) vectors, summed in np.sum's order."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return (x * x + y * y) + z * z


# A primitive's intersect(origin, dirs) gives the hit parameter t of each ray
# origin + t * dir (dir unnormalized, inf on a miss), distance(pts) each point's
# distance to its surface and bound() a (center, radius) sphere around it.
@dataclass(frozen=True, eq=False)
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = [check_number("sphere center", v) for v in self.center]
        object.__setattr__(self, "center", np.asarray(center, dtype=float).reshape(3))
        check_number("sphere radius", self.radius, *POSITIVE)

    def to_dict(self) -> dict:
        return {"type": "sphere", "center": self.center.tolist(), "radius": self.radius}

    def bound(self) -> tuple[np.ndarray, float]:
        return self.center, self.radius

    def intersect(self, origin, dirs) -> np.ndarray:
        oc = origin - self.center
        a = _squared_lengths(dirs)
        b = 2.0 * (dirs @ oc)
        c = oc @ oc - self.radius**2
        disc = b * b - 4.0 * a * c
        hit = disc >= 0
        sq = np.sqrt(np.where(hit, disc, 0.0))
        t1 = (-b - sq) / (2.0 * a)
        t2 = (-b + sq) / (2.0 * a)
        return np.where(hit, np.where(t1 > RAY_EPS, t1, np.where(t2 > RAY_EPS, t2, np.inf)), np.inf)

    def distance(self, pts: np.ndarray) -> np.ndarray:
        return np.abs(np.linalg.norm(pts - self.center, axis=1) - self.radius)


@dataclass(frozen=True, eq=False)
class Box:
    pose: RigidTransform
    half_extents: np.ndarray

    def __post_init__(self):
        he = [check_number("box half extents", v, *POSITIVE) for v in self.half_extents]
        object.__setattr__(self, "half_extents", np.asarray(he, dtype=float).reshape(3))

    def to_dict(self) -> dict:
        return {"type": "box", "pose": self.pose.matrix().tolist(), "half_extents": self.half_extents.tolist()}

    def bound(self) -> tuple[np.ndarray, float]:
        return self.pose.translation, float(np.linalg.norm(self.half_extents))

    def intersect(self, origin, dirs) -> np.ndarray:
        inv = self.pose.inverse()
        o = inv.apply(origin)
        d = dirs @ inv.rotation.T
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_d = 1.0 / d
            t_lo = (-self.half_extents - o) * inv_d
            t_hi = (self.half_extents - o) * inv_d
        # slab entries and exits; fmax/fmin skip the NaN of a parallel ray on a slab face
        lo, hi = np.minimum(t_lo, t_hi), np.maximum(t_lo, t_hi)
        near = np.fmax(np.fmax(lo[..., 0], lo[..., 1]), lo[..., 2])
        far = np.fmin(np.fmin(hi[..., 0], hi[..., 1]), hi[..., 2])
        hit = (far >= near) & (far > RAY_EPS)  # false where both are NaN
        # axis-parallel rays miss unless the origin lies inside the slab
        for i in np.flatnonzero(np.abs(o) > self.half_extents):
            hit &= np.abs(d[..., i]) >= 1e-15
        return np.where(hit, np.where(near > RAY_EPS, near, far), np.inf)

    def distance(self, pts: np.ndarray) -> np.ndarray:
        local = np.abs(self.pose.inverse().apply(pts)) - self.half_extents
        # surface points satisfy max_i(|p_i| - h_i) == 0
        return np.abs(np.max(local, axis=1))


# meta.json primitive "type" -> the primitive built from its JSON object
PRIMITIVE_TYPES = {
    "sphere": lambda d: Sphere(center=d["center"], radius=d["radius"]),
    "box": lambda d: Box(pose=RigidTransform.from_matrix(np.array(d["pose"])), half_extents=d["half_extents"]),
}


@dataclass(frozen=True, eq=False)
class Capsule:
    p0: np.ndarray
    p1: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "p0", np.asarray(self.p0, dtype=float).reshape(3))
        object.__setattr__(self, "p1", np.asarray(self.p1, dtype=float).reshape(3))
        if not np.all(np.isfinite([*self.p0, *self.p1])):
            raise ValueError(f"capsule needs finite ends, got {self.p0} {self.p1}")
        check_number("capsule radius", self.radius, *POSITIVE)

    def bound(self) -> tuple[np.ndarray, float]:
        return 0.5 * (self.p0 + self.p1), 0.5 * float(np.linalg.norm(self.p1 - self.p0)) + self.radius

    def ends(self) -> tuple[Sphere, Sphere]:
        return Sphere(self.p0, self.radius), Sphere(self.p1, self.radius)

    def intersect(self, origin, dirs) -> np.ndarray:
        t = self.intersect_body(origin, dirs)
        for end in self.ends():
            t = np.minimum(t, end.intersect(origin, dirs))
        return t

    def intersect_body(self, origin, dirs) -> np.ndarray:
        """Hits on the cylinder between the end spheres; all inf when the axis is degenerate."""
        axis = self.p1 - self.p0
        length = np.linalg.norm(axis)
        if length < 1e-12:
            return np.full(dirs.shape[:-1], np.inf)
        u = axis / length
        oc = origin - self.p0
        d_par = dirs @ u
        oc_par = oc @ u
        d_perp = dirs - d_par[..., None] * u
        oc_perp = oc - oc_par * u
        a = _squared_lengths(d_perp)
        b = 2.0 * (d_perp @ oc_perp)
        c = oc_perp @ oc_perp - self.radius**2
        t = np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            disc = b * b - 4.0 * a * c
            ok = (disc >= 0) & (a > 1e-30)
            sq = np.sqrt(np.where(ok, disc, 0.0))
            for t_cand in ((-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)):
                s = oc_par + t_cand * d_par
                good = ok & (t_cand > RAY_EPS) & (s >= 0) & (s <= length)
                t = np.where(good & (t_cand < t), t_cand, t)
        return t

    def distance(self, pts: np.ndarray) -> np.ndarray:
        axis = self.p1 - self.p0
        denom = axis @ axis
        if denom < 1e-18:
            return Sphere(self.p0, self.radius).distance(pts)
        s = np.clip(((pts - self.p0) @ axis) / denom, 0.0, 1.0)
        return np.abs(np.linalg.norm(pts - (self.p0 + s[:, None] * axis), axis=1) - self.radius)


@dataclass(frozen=True, eq=False)
class Table:
    """Finite rectangle in the z = 0 plane of its local frame."""

    pose: RigidTransform
    half_extents: np.ndarray  # (ex, ey)

    def __post_init__(self):
        he = [check_number("table half extents", v, *POSITIVE) for v in self.half_extents]
        object.__setattr__(self, "half_extents", np.asarray(he, dtype=float).reshape(2))

    def to_dict(self) -> dict:
        return {"pose": self.pose.matrix().tolist(), "half_extents": self.half_extents.tolist()}

    def intersect(self, origin, dirs) -> np.ndarray:
        inv = self.pose.inverse()
        o = inv.apply(origin)
        d = dirs @ inv.rotation.T
        dz = d[..., 2]
        with np.errstate(divide="ignore", invalid="ignore"):  # a ray parallel to the plane is no hit
            t_hit = -o[2] / dz
            px = o[0] + t_hit * d[..., 0]
            py = o[1] + t_hit * d[..., 1]
        ok = (np.abs(dz) > 1e-15) & (t_hit > RAY_EPS)
        ok &= (np.abs(px) <= self.half_extents[0]) & (np.abs(py) <= self.half_extents[1])
        return np.where(ok, t_hit, np.inf)

    def distance(self, pts: np.ndarray) -> np.ndarray:
        return np.abs(self.pose.inverse().apply(pts)[:, 2])


@dataclass(frozen=True)
class CameraRanges:
    """Randomization ranges for the spherical-shell camera sampler."""

    radius: tuple[float, float] = (0.8, 1.6)
    elevation_deg: tuple[float, float] = (20.0, 70.0)
    azimuth_deg: tuple[float, float] = (0.0, 360.0)
    roll_deg: tuple[float, float] = (-15.0, 15.0)
    target_jitter: float = 0.05
    focal_jitter: float = 0.05
    center_jitter: float = 0.02

    def __post_init__(self):
        for f in fields(self):
            value, pair = getattr(self, f.name), isinstance(f.default, tuple)
            if pair and not (isinstance(value, tuple) and len(value) == 2):
                raise TypeError(f"camera {f.name} must be a (low, high) pair, got {value!r}")
            for v in value if pair else (value,):
                check_number(f"camera {f.name}", v)


@dataclass(frozen=True, eq=False)
class SceneSpec:
    table: Table
    primitives: tuple
    chain: KinematicChain
    keypoints: KeypointSpec
    joint_state: np.ndarray
    views: int = 2
    width: int = 630
    height: int = 476
    capsule_radius: float = 0.045
    heatmap_sigma: float = 3.0
    camera: CameraRanges = field(default_factory=CameraRanges)
    workspace_center: np.ndarray = field(default_factory=lambda: np.array([0.25, 0.0, 0.15]))

    def __post_init__(self):
        check_number("views", self.views, lambda v: v in (1, 2), "1 or 2", integer=True)
        for name in ("width", "height"):
            check_number(name, getattr(self, name), integer=True)
        for name in ("capsule_radius", "heatmap_sigma"):
            check_number(name, getattr(self, name), *POSITIVE)
        object.__setattr__(self, "primitives", tuple(self.primitives))
        for p in self.primitives:
            if not isinstance(p, (Sphere, Box)):
                raise TypeError(f"unknown primitive {type(p).__name__}")
        q = np.asarray(self.joint_state, dtype=float).reshape(-1)
        if not np.all(np.isfinite(q)):
            raise ValueError(f"joint state must be finite, got {q.tolist()}")
        object.__setattr__(self, "joint_state", self.chain.check_state(q))
        center = [check_number("workspace_center", v) for v in self.workspace_center]
        object.__setattr__(self, "workspace_center", np.asarray(center, dtype=float).reshape(3))


def default_intrinsics(width: int, height: int) -> Intrinsics:
    # ~60 degree horizontal field of view
    f = 0.866 * width
    return Intrinsics(fx=f, fy=f, cx=width / 2.0, cy=height / 2.0, width=width, height=height)


def sample_camera(
    center, rng: np.random.Generator, ranges: CameraRanges, width: int, height: int
) -> tuple[Intrinsics, RigidTransform]:
    """Spherical-shell camera pose plus jittered pinhole intrinsics.

    Zero-width ranges produce the deterministic canonical camera.  The
    returned pose is camera-to-world.
    """
    center = np.asarray(center, dtype=float).reshape(3)
    radius = rng.uniform(*ranges.radius)
    azimuth = math.radians(rng.uniform(*ranges.azimuth_deg))
    elevation = math.radians(rng.uniform(*ranges.elevation_deg))
    eye = center + radius * np.array(
        [
            math.cos(elevation) * math.cos(azimuth),
            math.cos(elevation) * math.sin(azimuth),
            math.sin(elevation),
        ]
    )
    target = center + rng.uniform(-ranges.target_jitter, ranges.target_jitter, 3)
    roll = math.radians(rng.uniform(*ranges.roll_deg))

    forward = target - eye
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, up)
    if np.linalg.norm(right) < 1e-12:
        right = np.cross(forward, np.array([0.0, 1.0, 0.0]))
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    rot = np.stack([right, down, forward], axis=1)
    rot = rot @ rotation_about_axis(np.array([0.0, 0.0, 1.0]), roll)
    pose = RigidTransform(rot, eye)

    base = default_intrinsics(width, height)
    fj, cj = ranges.focal_jitter, ranges.center_jitter
    intr = Intrinsics(
        fx=base.fx * (1.0 + rng.uniform(-fj, fj)),
        fy=base.fy * (1.0 + rng.uniform(-fj, fj)),
        cx=base.cx + rng.uniform(-cj, cj) * width,
        cy=base.cy + rng.uniform(-cj, cj) * height,
        width=width,
        height=height,
    )
    return intr, pose


def chain_capsules(spec: SceneSpec) -> list[Capsule]:
    """One capsule per link, between consecutive link origins; a zero-length link is its end sphere."""
    poses = forward_kinematics(spec.chain, spec.joint_state)
    return [Capsule(a.translation, b.translation, spec.capsule_radius) for a, b in zip(poses[:-1], poses[1:])]


def _pixel_window(k: Intrinsics, rows, cols):
    """(rows, cols) slices of the pixels within one pixel of float (lo, hi) ranges; None off-frame.

    Widened to two columns where the frame allows: numpy's single-column matmul path changes low bits.
    """
    bounds = []
    for (lo, hi), n in ((rows, k.height), (cols, k.width)):
        lo, hi = max(math.floor(lo) - 1, 0), min(math.ceil(hi) + 1, n - 1)
        if lo > hi:
            return None
        bounds.append([lo, hi])
    cols = bounds[1]
    if cols[0] == cols[1]:
        cols[0], cols[1] = max(cols[0] - 1, 0), min(cols[1] + 1, k.width - 1)
    return tuple(slice(lo, hi + 1) for lo, hi in bounds)


def _screen_window(center, radius, k: Intrinsics, pose: RigidTransform):
    """Conservative (rows, cols) slices of the pixels whose rays can meet a world sphere.

    None when the sphere is wholly off-screen; the whole frame when it reaches
    the camera plane.
    """
    c = pose.rotation.T @ (center - pose.translation)
    if c[2] - radius <= RAY_EPS:
        return slice(0, k.height), slice(0, k.width)
    ranges = []
    for axis, f, p in ((1, k.fy, k.cy), (0, k.fx, k.cx)):
        # exact tangent directions of the sphere's disk in the (axis, z) plane
        theta = math.atan2(c[axis], c[2])
        alpha = math.asin(radius / math.hypot(c[axis], c[2]))
        ranges.append((f * math.tan(theta - alpha) + p, f * math.tan(theta + alpha) + p))
    return _pixel_window(k, *ranges)


def _table_window(table: Table, k: Intrinsics, pose: RigidTransform):
    """`_screen_window` for the table: the box around its projected corners (a rectangle in front of
    the camera projects inside their hull), or the whole frame when one is not in front of it."""
    ex, ey = table.half_extents
    corners = table.pose.apply([[sx * ex, sy * ey, 0.0] for sx in (-1, 1) for sy in (-1, 1)])
    c = (corners - pose.translation) @ pose.rotation
    if np.any(c[:, 2] <= RAY_EPS):
        return slice(0, k.height), slice(0, k.width)
    u, v = project(c, k).T
    return _pixel_window(k, (v.min(), v.max()), (u.min(), u.max()))


def render(spec: SceneSpec, intrinsics: Intrinsics, pose: RigidTransform):
    """Ray-cast one view.

    Returns what a bundle view stores: (depth: HxW float64, labels: HxW
    uint8), both 0 at a miss pixel.  Each cast covers only its screen window:
    the table the box around its projected corners, an object its bounding
    sphere's window, and a capsule three casts, each end sphere in its own
    window and the cylinder, which projects inside their hull, in the box
    around those two.  The bits are those of casting over the whole frame.
    The kernels work on each x/y/z component; every matmul keeps its operands
    and shapes on purpose, because BLAS sets the low bits of those products.
    """
    k = intrinsics
    dirs_world = pixel_grid(k, np.ones((k.height, k.width, 3))) @ pose.rotation.T
    origin = pose.translation

    casts = [(spec.table.intersect, _table_window(spec.table, k, pose), LABEL_BACKGROUND)]
    casts += [(p.intersect, _screen_window(*p.bound(), k, pose), LABEL_OBJECT) for p in spec.primitives]
    for capsule in chain_capsules(spec):
        ends = capsule.ends()
        windows = [_screen_window(*end.bound(), k, pose) for end in ends]
        body = _screen_window(*capsule.bound(), k, pose)
        if body is not None and None not in windows:
            body = tuple(
                slice(max(b.start, min(e0.start, e1.start)), min(b.stop, max(e0.stop, e1.stop)))
                for b, e0, e1 in zip(body, *windows)
            )
        casts.append((capsule.intersect_body, body, LABEL_ROBOT))
        casts += [(end.intersect, window, LABEL_ROBOT) for end, window in zip(ends, windows)]

    # a strict < keeps the earlier cast on a tie; every robot part has one label
    best_t = np.full((k.height, k.width), np.inf)
    labels = np.zeros((k.height, k.width), dtype=np.uint8)
    for intersect, window, label in casts:
        if window is None:
            continue
        t = intersect(origin, dirs_world[window])
        near = best_t[window]
        closer = t < near
        np.copyto(near, t, where=closer)
        np.copyto(labels[window], label, where=closer)

    return np.where(np.isfinite(best_t), best_t, 0.0), labels
