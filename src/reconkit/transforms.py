"""Rotation and rigid-transform algebra, and the similarity map that scales a rigid one.

Conventions used throughout the package:

- Rotations are 3x3 float64 arrays with orthonormal columns and det = +1.
- A RigidTransform maps points as x' = R @ x + t.  Camera poses are
  camera-to-world (the pose of the camera expressed in the outer frame),
  so ``pose.apply(p_cam)`` lands in that outer frame.
- A Similarity maps points as x' = s * (R @ x + t); the scale multiplies
  the full rigid result.  It only maps points: it has no compose or inverse.
- a.compose(b) applies b first: a.compose(b).apply(x) == a.apply(b.apply(x)).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .camera import POSITIVE, PointMap, check_array, check_number

ROTATION_TOL = 1e-9


class RankDeficientError(ValueError):
    """Raised when a 9D rotation input has two or more zero singular values."""


def _as_matrix3(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected 3x3 matrix, got shape {m.shape}")
    return m


def check_rotation(r: np.ndarray) -> np.ndarray:
    """Validate orthonormality and det = +1 within ROTATION_TOL; returns the matrix."""
    r = _as_matrix3(r)
    if not np.all(np.isfinite(r)):
        raise ValueError("rotation contains non-finite entries")
    err = np.abs(r.T @ r - np.eye(3)).max()
    if err > ROTATION_TOL:
        raise ValueError(f"matrix is not orthonormal (max deviation {err:.3e})")
    det = np.linalg.det(r)
    if abs(det - 1.0) > ROTATION_TOL:
        raise ValueError(f"matrix determinant {det:.12f} != +1")
    return r


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation of `angle` radians about `axis` (need not be unit)."""
    a = np.asarray(axis, dtype=float)
    n = np.linalg.norm(a)
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    a = a / n
    k = skew(a)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rotation_from_vector(omega) -> np.ndarray:
    """Rotation by |omega| radians about omega (the so(3) exponential); the identity at 0."""
    angle = np.linalg.norm(omega)
    return rotation_about_axis(omega, angle) if angle > 0 else np.eye(3)


def skew(v) -> np.ndarray:
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def orthogonalize_9d(raw) -> np.ndarray:
    """Project 9 raw scalars onto the nearest rotation in Frobenius norm.

    The reshaped 3x3 matrix M = U S V^T maps to U diag(1, 1, det(UV^T)) V^T,
    i.e. the direction of the smallest singular value is flipped when the
    input has negative determinant.
    """
    m = np.asarray(raw, dtype=float).reshape(3, 3)
    if not np.all(np.isfinite(m)):
        raise ValueError("9D rotation input contains non-finite entries")
    u, s, vt = np.linalg.svd(m)
    # Two (near-)zero singular values leave the projection undetermined.
    if s[1] <= s[0] * 1e-12:
        raise RankDeficientError(
            f"rank-deficient 9D input (singular values {s[0]:.3e}, {s[1]:.3e}, {s[2]:.3e})"
        )
    d = 1.0 if np.linalg.det(u @ vt) > 0 else -1.0
    return (u * np.array([1.0, 1.0, d])) @ vt


def rotation_angle(a, b) -> float:
    """Geodesic angle arccos((trace(a^T b) - 1) / 2), clamped into [0, pi].

    Bitwise-equal inputs short-circuit to exactly 0.0 so that the metric
    contract "zero iff prediction equals ground truth" holds without float
    noise from the trace.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.array_equal(a, b):
        return 0.0
    c = (np.trace(a.T @ b) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def rotation_axis(r: np.ndarray) -> np.ndarray:
    """Unit axis of a rotation with angle in (0, pi); undefined at 0 and pi."""
    r = _as_matrix3(r)
    v = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("rotation axis undefined at angle 0 or pi")
    return v / n


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """SE(3) element: x -> rotation @ x + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", check_rotation(self.rotation))
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if not np.all(np.isfinite(t)):
            raise ValueError("translation contains non-finite entries")
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, points) -> np.ndarray:
        """Transform points of shape (..., 3)."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    @staticmethod
    def from_matrix(m, name: str) -> "RigidTransform":
        """The 4x4 row-major matrix m (nested lists, as JSON gives it) read through check_array; its bottom
        row must be exactly (0, 0, 0, 1).  A ValueError or TypeError names `name`."""
        m = check_array(name, m, (4, 4))
        if m[3].tolist() != [0.0, 0.0, 0.0, 1.0]:
            raise ValueError(f"{name}: bottom row must be (0, 0, 0, 1), got {m[3].tolist()}")
        return RigidTransform(m[:3, :3], m[:3, 3])


def to_json(obj) -> dict:
    """The JSON object of dataclass obj: one key per field, a RigidTransform as its 4x4 row-major matrix and an
    array or tuple as a list."""
    out = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        v = v.matrix() if isinstance(v, RigidTransform) else v
        out[f.name] = v.tolist() if isinstance(v, np.ndarray) else list(v) if isinstance(v, tuple) else v
    return out


def json_kind(name: str, value, kind: type = dict):
    """value, if it is a JSON object (kind dict) or array (kind list) as json.loads gives it; else a TypeError that
    names `name`."""
    if not isinstance(value, kind):
        raise TypeError(f"{name}: must be a JSON {'object' if kind is dict else 'array'}, got {type(value).__name__}")
    return value


def from_json(cls, d):
    """Dataclass cls from its JSON object d, as to_json writes it; keys that are not fields are ignored.  A pose is
    read by from_matrix as "<class> <field>", a list as a tuple.  Only a field whose default is None may be absent."""
    json_kind(cls.__name__, d)
    values = {}
    for f in fields(cls):
        v = d.get(f.name) if f.default is None else d[f.name]  # any other missing field is a KeyError
        if f.type in (RigidTransform, "RigidTransform"):  # the class, or its name under postponed annotations
            v = RigidTransform.from_matrix(v, f"{cls.__name__.lower()} {f.name}")
        values[f.name] = tuple(v) if isinstance(v, list) else v
    return cls(**values)


@dataclass(frozen=True, eq=False)
class Similarity:
    """Scaled rigid transform: x -> scale * (R @ x + t)."""

    scale: float
    rigid: RigidTransform

    def __post_init__(self):
        object.__setattr__(self, "scale", float(check_number("similarity scale", self.scale, *POSITIVE)))

    def apply(self, points) -> np.ndarray:
        return self.scale * self.rigid.apply(points)


def relative_pose(pose_i: RigidTransform, pose_j: RigidTransform) -> RigidTransform:
    """Relative pose mapping view-j coordinates into view i.

    R_rel = R_i^-1 R_j and t_rel = R_i^-1 (t_j - t_i), so applying the result
    to pose_i recomposes pose_j.
    """
    return pose_i.inverse().compose(pose_j)


def _map_valid(pm: PointMap, transform) -> PointMap:
    """pm with its valid points mapped by transform.apply, at the same pixels."""
    return PointMap(pm.shape, pm.index, tuple(transform.apply(pm.stacked()).T))


def register_views(locals_, rels):
    """Map each view's local point map through its relative pose.

    `locals_` and `rels` are equal-length lists; entry i is transformed as
    R_rel_i @ p + t_rel_i.  Returns new point maps in the reference frame.
    """
    if len(locals_) != len(rels):
        raise ValueError(
            f"got {len(locals_)} point maps but {len(rels)} relative poses"
        )
    return [_map_valid(pm, rel) for pm, rel in zip(locals_, rels)]


def to_canonical(pointmaps, sim: Similarity):
    """Apply the global similarity s * (R @ p + t) to every point map."""
    return [_map_valid(pm, sim) for pm in pointmaps]
