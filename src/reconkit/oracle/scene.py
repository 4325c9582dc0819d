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
Each surface is cast only inside its screen window, the box around the
screen ranges of the spheres its `hull()` gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from ..camera import POSITIVE, Intrinsics, check_array, check_number, normalize
from ..kinematics import KinematicChain, KeypointSpec, forward_kinematics
from ..masks import LABEL_BACKGROUND, LABEL_OBJECT, LABEL_ROBOT
from ..transforms import RigidTransform, rotation_about_axis

RAY_EPS = 1e-9
# rows per cast call in `render`: a view's temporaries are a band of its window, not the whole frame
RENDER_BAND = 48
# check_number's (ok, must) for the number of cameras a scene has
VIEW_COUNTS = (lambda v: v in (1, 2), "1 or 2")


def _sum3(a, b):
    """a . b for 3-sequences of floats or arrays, summed left to right."""
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


def _frame(pose: RigidTransform, v, point: bool = True) -> list:
    """The world 3-vector v in pose's frame, in Python floats: R^T (v - t) for a point, R^T v for a direction."""
    q = np.subtract(v, pose.translation) if point else np.asarray(v, dtype=float)
    return [_sum3(col, q.tolist()) for col in pose.rotation.T.tolist()]


def _dot(v, x, y):
    """(x, y, 1) . v for a row x (w,) and a column y (h, 1): only the last + forms the (h, w) grid."""
    return x * v[0] + (y * v[1] + v[2])


def _local_rays(pose: RigidTransform, view: RigidTransform, x, y):
    """Origin (3 floats) and direction components of the rays (x, y, 1) of camera `view` in the frame of pose."""
    return _frame(pose, view.translation), [_dot(_frame(view, a, point=False), x, y) for a in pose.rotation.T]


# A primitive's cast(view, x, y) gives the depth of each ray (x, y, 1) from the centre of camera `view`
# (camera-to-world) to its first hit beyond RAY_EPS, inf on a miss; x is a row of normalized pixel columns,
# y a column of rows.  The primitive moves into the camera frame in Python floats, then each depth is
# fixed-order IEEE +, *, / and sqrt with no BLAS product; a NaN (a miss's sqrt, a ray along a face) fails
# every test.  distance(pts) gives each world point's distance to the surface, hull() world spheres
# ((centre, radius) pairs) whose convex hull contains it.
# In meta.json a primitive is {"type": its PRIMITIVE_TYPES tag, **transforms.to_json(primitive)}.
@dataclass(frozen=True, eq=False)
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", check_array("sphere center", self.center, (3,)))
        check_number("sphere radius", self.radius, *POSITIVE)

    def hull(self) -> tuple:
        return ((self.center, self.radius),)

    def cast(self, view, x, y) -> np.ndarray:
        c = _frame(view, self.center)
        a = x * x + (y * y + 1.0)
        b = _dot(c, x, y)  # half the quadratic's b, negated: the ray origin is 0
        with np.errstate(invalid="ignore"):
            sq = np.sqrt(b * b - a * (_sum3(c, c) - self.radius * self.radius))
            t1, t2 = (b - sq) / a, (b + sq) / a
            return np.where(t1 > RAY_EPS, t1, np.where(t2 > RAY_EPS, t2, np.inf))

    def distance(self, pts: np.ndarray) -> np.ndarray:
        return np.abs(np.linalg.norm(pts - self.center, axis=1) - self.radius)


@dataclass(frozen=True, eq=False)
class Box:
    pose: RigidTransform
    half_extents: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "half_extents", check_array("box half extents", self.half_extents, (3,), *POSITIVE))

    def hull(self) -> tuple:
        return ((self.pose.translation, float(np.linalg.norm(self.half_extents))),)

    def cast(self, view, x, y) -> np.ndarray:
        o, d = _local_rays(self.pose, view, x, y)
        lo, hi, hit = [], [], True
        with np.errstate(divide="ignore", invalid="ignore"):
            for i, h in enumerate(self.half_extents.tolist()):
                inv_d = 1.0 / d[i]
                t_lo, t_hi = (-h - o[i]) * inv_d, (h - o[i]) * inv_d
                lo.append(np.minimum(t_lo, t_hi))
                hi.append(np.maximum(t_lo, t_hi))
                if abs(o[i]) > h:  # an axis-parallel ray misses unless the origin lies inside the slab
                    hit = hit & (np.abs(d[i]) >= 1e-15)
            # slab entries and exits; fmax/fmin skip the NaN of a parallel ray on a slab face
            near = np.fmax(np.fmax(lo[0], lo[1]), lo[2])
            far = np.fmin(np.fmin(hi[0], hi[1]), hi[2])
            hit = hit & (far >= near) & (far > RAY_EPS)  # false where both are NaN
            return np.where(hit, np.where(near > RAY_EPS, near, far), np.inf)

    def distance(self, pts: np.ndarray) -> np.ndarray:
        local = np.abs(self.pose.inverse().apply(pts)) - self.half_extents
        # surface points satisfy max_i(|p_i| - h_i) == 0
        return np.abs(np.max(local, axis=1))


# the object types: a meta.json "type" tag, the lowercased class name -> the class
PRIMITIVE_TYPES = {cls.__name__.lower(): cls for cls in (Sphere, Box)}


@dataclass(frozen=True, eq=False)
class Capsule:
    p0: np.ndarray
    p1: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "p0", check_array("capsule end", self.p0, (3,)))
        object.__setattr__(self, "p1", check_array("capsule end", self.p1, (3,)))
        check_number("capsule radius", self.radius, *POSITIVE)

    def hull(self) -> tuple:
        """The cylinder's: its two end spheres."""
        return (self.p0, self.radius), (self.p1, self.radius)

    def ends(self) -> tuple[Sphere, Sphere]:
        return Sphere(self.p0, self.radius), Sphere(self.p1, self.radius)

    def cast_body(self, view, x, y) -> np.ndarray:
        """`cast` for the cylinder between the end spheres; all inf when the axis is degenerate."""
        axis = (self.p1 - self.p0).tolist()
        length = math.sqrt(_sum3(axis, axis))
        if length < 1e-12:
            return np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), np.inf)
        # rays in a frame (e1, e2, u) at p0, e1 and e2 from u as in Duff et al., JCGT 2017
        u = _frame(view, [a / length for a in axis], point=False)
        sign = math.copysign(1.0, u[2])
        g = -1.0 / (sign + u[2])
        h = u[0] * u[1] * g
        axes = ((1.0 + sign * u[0] * u[0] * g, sign * h, -sign * u[0]), (h, sign + u[1] * u[1] * g, -u[1]), u)
        p0 = _frame(view, self.p0)
        o = [-_sum3(p0, e) for e in axes]
        d0, d1, d_par = (_dot(e, x, y) for e in axes)
        a = d0 * d0 + d1 * d1
        b = d0 * o[0] + d1 * o[1]  # half the quadratic's b
        c = (o[0] * o[0] + o[1] * o[1]) - self.radius * self.radius
        t = np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            sq = np.sqrt(b * b - a * c)
            for t_cand in ((-b - sq) / a, (-b + sq) / a):
                s = o[2] + t_cand * d_par
                t = np.where((t_cand > RAY_EPS) & (s >= 0) & (s <= length) & (t_cand < t), t_cand, t)
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
        object.__setattr__(self, "half_extents", check_array("table half extents", self.half_extents, (2,), *POSITIVE))

    def hull(self) -> tuple:
        ex, ey = self.half_extents
        return tuple((c, 0.0) for c in self.pose.apply([[sx * ex, sy * ey, 0.0] for sx in (-1, 1) for sy in (-1, 1)]))

    def cast(self, view, x, y) -> np.ndarray:
        o, (dx, dy, dz) = _local_rays(self.pose, view, x, y)
        with np.errstate(divide="ignore", invalid="ignore"):  # a ray parallel to the plane is no hit
            t_hit = -o[2] / dz
            ok = ((dz > 1e-15) | (dz < -1e-15)) & (t_hit > RAY_EPS)
            # the hit's in-plane coordinates o + t d, formed in place and compared without np.abs: no float temporaries
            for p, o_i, h in zip((dx, dy), o, self.half_extents.tolist()):
                p *= t_hit
                p += o_i
                ok &= (p <= h) & (p >= -h)
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
    camera: CameraRanges = field(default_factory=CameraRanges)
    workspace_center: np.ndarray = field(default_factory=lambda: np.array([0.25, 0.0, 0.15]))

    def __post_init__(self):
        check_number("views", self.views, *VIEW_COUNTS, integer=True)
        for name in ("width", "height"):
            check_number(name, getattr(self, name), integer=True)
        check_number("capsule_radius", self.capsule_radius, *POSITIVE)
        object.__setattr__(self, "primitives", tuple(self.primitives))
        for p in self.primitives:
            if not isinstance(p, tuple(PRIMITIVE_TYPES.values())):
                raise TypeError(f"unknown primitive {type(p).__name__}")
        q = check_array("joint state", self.joint_state, (self.chain.dof,))
        object.__setattr__(self, "joint_state", self.chain.check_state(q))
        object.__setattr__(self, "workspace_center", check_array("workspace_center", self.workspace_center, (3,)))

    @cached_property
    def capsules(self) -> tuple:
        """`chain_capsules` of this scene, built once and shared by every view's render and validation."""
        return tuple(chain_capsules(self))


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

    f = 0.866 * width  # ~60 degree horizontal field of view, principal point at the image center
    fj, cj = ranges.focal_jitter, ranges.center_jitter
    intr = Intrinsics(
        fx=f * (1.0 + rng.uniform(-fj, fj)),
        fy=f * (1.0 + rng.uniform(-fj, fj)),
        cx=width / 2.0 + rng.uniform(-cj, cj) * width,
        cy=height / 2.0 + rng.uniform(-cj, cj) * height,
        width=width,
        height=height,
    )
    return intr, pose


def chain_capsules(spec: SceneSpec) -> list[Capsule]:
    """One capsule per link, between consecutive link origins; a zero-length link is its end sphere."""
    poses = forward_kinematics(spec.chain, spec.joint_state)
    return [Capsule(a.translation, b.translation, spec.capsule_radius) for a, b in zip(poses[:-1], poses[1:])]


def _window(hull, k: Intrinsics, pose: RigidTransform):
    """Conservative (rows, cols) slices of the pixels whose rays can meet a surface inside the convex hull
    of `hull`'s world spheres; None when no ray can.

    A hit's t is its camera z.  So none lies where every sphere is wholly at z <= RAY_EPS, and a sphere
    that reaches that plane may project anywhere: the whole frame.  Otherwise the hull projects inside
    the box around the spheres' exact tangent ranges, widened by a pixel and clipped to the frame (None
    off-frame).  A window may be one row or column wide: a cast's bits do not depend on its shape.
    """
    spheres = [(_frame(pose, c), r) for c, r in hull]
    if all(c[2] + r <= RAY_EPS for c, r in spheres):
        return None
    if any(c[2] - r <= RAY_EPS for c, r in spheres):
        return slice(0, k.height), slice(0, k.width)
    window = []
    for axis, f, p, n in ((1, k.fy, k.cy, k.height), (0, k.fx, k.cx, k.width)):
        # exact tangent directions of each sphere's disk in the (axis, z) plane
        ends = [f * math.tan(math.atan2(c[axis], c[2]) + side * math.asin(r / math.hypot(c[axis], c[2]))) + p
                for c, r in spheres for side in (-1, 1)]
        lo, hi = max(math.floor(min(ends)) - 1, 0), min(math.ceil(max(ends)) + 1, n - 1)
        if lo > hi:
            return None
        window.append(slice(lo, hi + 1))
    return tuple(window)


def render(spec: SceneSpec, intrinsics: Intrinsics, pose: RigidTransform):
    """Ray-cast one view.

    Returns what a bundle view stores: (depth: HxW float64, labels: HxW
    uint8), both 0 at a miss pixel.  Each cast covers only its `_window`,
    the box around the screen ranges of its surface's `hull()` spheres (a
    capsule is three casts: its cylinder, hulled by the two end spheres, and
    each end), in bands of at most RENDER_BAND rows.  The bits are those of
    casting over the whole frame: rays (x, y, 1) leave the camera centre,
    (x, y) = `camera.normalize` of pixel (u, v), and a kernel takes a row of x
    and a column of y.
    """
    k = intrinsics
    xs, ys = normalize(k, np.arange(k.width, dtype=float), np.arange(k.height, dtype=float)[:, None])

    casts = [(spec.table.cast, spec.table.hull(), LABEL_BACKGROUND)]
    casts += [(p.cast, p.hull(), LABEL_OBJECT) for p in spec.primitives]
    for capsule in spec.capsules:
        casts.append((capsule.cast_body, capsule.hull(), LABEL_ROBOT))
        casts += [(end.cast, end.hull(), LABEL_ROBOT) for end in capsule.ends()]

    # a strict < keeps the earlier cast on a tie; every robot part has one label
    best_t = np.full((k.height, k.width), np.inf)
    labels = np.zeros((k.height, k.width), dtype=np.uint8)
    for cast, hull, label in casts:
        window = _window(hull, k, pose)
        if window is None:
            continue
        rows, cols = window
        for start in range(rows.start, rows.stop, RENDER_BAND):
            band = slice(start, min(start + RENDER_BAND, rows.stop))
            t = cast(pose, xs[cols], ys[band])
            near = best_t[band, cols]
            closer = t < near
            np.copyto(near, t, where=closer)
            np.copyto(labels[band, cols], label, where=closer)

    best_t[~np.isfinite(best_t)] = 0.0
    return best_t, labels
