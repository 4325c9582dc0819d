"""Rotation projection, pose algebra, registration and canonicalization."""

import dataclasses
import itertools
import json
import re

import numpy as np
import pytest
import scipy.linalg

from conftest import random_rigid, random_rotation

from reconkit.camera import Intrinsics, PointMap
from reconkit.kinematics import Joint
from reconkit.oracle.scene import Box, CameraRanges, Sphere, Table
from reconkit.transforms import (
    RankDeficientError,
    RigidTransform,
    Similarity,
    from_json,
    orthogonalize_9d,
    register_views,
    relative_pose,
    rotation_about_axis,
    rotation_angle,
    rotation_axis,
    to_canonical,
    to_json,
)


def so3_projection_oracle(m: np.ndarray) -> np.ndarray:
    """Independent nearest-rotation oracle: scipy SVD + exhaustive sign flips."""
    u, _, vt = scipy.linalg.svd(m)
    best, best_dist = None, np.inf
    for signs in itertools.product([1.0, -1.0], repeat=3):
        cand = (u * np.array(signs)) @ vt
        if np.linalg.det(cand) < 0:
            continue
        dist = np.linalg.norm(m - cand)
        if dist < best_dist:
            best, best_dist = cand, dist
    return best


@pytest.mark.parametrize(
    "make,message",
    [(lambda: RigidTransform(np.eye(2), np.zeros(3)), "expected 3x3 matrix, got shape (2, 2)"),
     (lambda: RigidTransform(np.full((3, 3), np.nan), np.zeros(3)), "rotation contains non-finite entries"),
     (lambda: RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3)), "matrix determinant -1.000000000000 != +1"),
     (lambda: RigidTransform(np.eye(3), [0.0, np.inf, 0.0]), "translation contains non-finite entries"),
     (lambda: rotation_about_axis(np.zeros(3), 0.5), "rotation axis must be nonzero"),
     (lambda: orthogonalize_9d([1.0] * 8 + [np.inf]), "9D rotation input contains non-finite entries"),
     (lambda: rotation_axis(np.eye(3)), "rotation axis undefined at angle 0 or pi")],
)
def test_input_errors(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


class TestOrthogonalize9D:
    def test_identity_passthrough(self):
        np.testing.assert_allclose(orthogonalize_9d(np.eye(3).ravel()), np.eye(3), atol=1e-15)

    def test_scale_absorbed(self, rng):
        r = random_rotation(rng)
        np.testing.assert_allclose(orthogonalize_9d((2.0 * r).ravel()), r, atol=1e-12)

    def test_noisy_rotation_vs_polar_oracle(self, rng):
        for _ in range(50):
            r = random_rotation(rng)
            m = r + 1e-3 * rng.standard_normal((3, 3))
            out = orthogonalize_9d(m.ravel())
            assert rotation_angle(out, r) < 1e-2
            # det(m) > 0 here, so the polar factor is the projection
            polar_u, _ = scipy.linalg.polar(m)
            np.testing.assert_allclose(out, polar_u, atol=1e-9)

    def test_negative_det_vs_exhaustive_oracle(self, rng):
        for _ in range(100):
            m = rng.standard_normal((3, 3))
            out = orthogonalize_9d(m.ravel())
            oracle = so3_projection_oracle(m)
            np.testing.assert_allclose(out, oracle, atol=1e-9)

    def test_outputs_always_valid_rotations(self, rng):
        for i in range(2000):
            m = rng.standard_normal((3, 3))
            if i % 4 == 0:
                # squash one direction to make it near-singular
                u, s, vt = np.linalg.svd(m)
                m = (u * np.array([s[0], s[1], 1e-12])) @ vt
            r = orthogonalize_9d(m.ravel())
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9
            assert abs(np.linalg.det(r) - 1.0) < 1e-9

    def test_scale_invariance(self, rng):
        raw = rng.standard_normal(9)
        a = orthogonalize_9d(raw)
        for lam in (1e-3, 0.5, 7.0, 1e4):
            np.testing.assert_allclose(orthogonalize_9d(lam * raw), a, atol=1e-9)

    def test_rank_deficient_error(self):
        m = np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(RankDeficientError):
            orthogonalize_9d(m.ravel())


class TestRelativePose:
    def test_self_relative_is_identity(self, rng):
        p = random_rigid(rng)
        rel = relative_pose(p, p)
        np.testing.assert_allclose(rel.rotation, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(rel.translation, 0.0, atol=1e-15)

    def test_pure_translation(self):
        a = RigidTransform(np.eye(3), np.zeros(3))
        b = RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0]))
        rel = relative_pose(a, b)
        np.testing.assert_array_equal(rel.rotation, np.eye(3))
        np.testing.assert_array_equal(rel.translation, [1.0, 2.0, 3.0])

    def test_composition_round_trip(self, rng):
        for _ in range(100):
            a, b = random_rigid(rng), random_rigid(rng)
            recomposed = a.compose(relative_pose(a, b))
            assert np.abs(recomposed.rotation - b.rotation).max() < 1e-12
            assert np.abs(recomposed.translation - b.translation).max() < 1e-12


class TestRegisterAndCanonicalize:
    def _grid(self, pts3, valid=None):
        h, w, _ = pts3.shape
        if valid is None:
            valid = np.ones((h, w), dtype=bool)
        return PointMap.from_dense(pts3, valid)

    def test_identity_registration(self, rng):
        pm = self._grid(rng.standard_normal((4, 5, 3)))
        out = register_views([pm], [RigidTransform.identity()])
        np.testing.assert_array_equal(out[0].values, pm.values)

    def test_two_views_of_plane_coplanar(self, rng):
        # plane z = 1 in world; each camera sees it at its own pose
        gx, gy = np.meshgrid(np.linspace(-1, 1, 8), np.linspace(-1, 1, 6), indexing="xy")
        w_pts = np.stack([gx, gy, np.ones((6, 8))], axis=-1)
        cam0, cam1 = random_rigid(rng), random_rigid(rng)
        local0 = self._grid(cam0.inverse().apply(w_pts))
        local1 = self._grid(cam1.inverse().apply(w_pts))
        rels = [relative_pose(cam0, cam0), relative_pose(cam0, cam1)]
        reg = register_views([local0, local1], rels)
        merged = np.concatenate([reg[0].values.reshape(-1, 3), reg[1].values.reshape(-1, 3)])
        # registered points live in camera-0 coordinates; coplanarity survives
        centered = merged - merged.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False)
        assert sv[2] < 1e-9

    def test_rotated_view_overlaps(self, rng):
        pts = rng.standard_normal((3, 4, 3))
        view1 = self._grid(pts)
        flip = RigidTransform(rotation_about_axis([0, 0, 1], np.pi), np.zeros(3))
        view2 = self._grid(flip.inverse().apply(pts))
        reg = register_views([view1, view2], [RigidTransform.identity(), flip])
        np.testing.assert_allclose(reg[1].values, view1.values, atol=1e-9)

    def test_length_mismatch(self, rng):
        pm = self._grid(rng.standard_normal((2, 2, 3)))
        with pytest.raises(ValueError, match="relative poses"):
            register_views([pm], [])

    def test_canonical_identity(self, rng):
        pm = self._grid(rng.standard_normal((3, 3, 3)))
        out = to_canonical([pm], Similarity(1.0, RigidTransform.identity()))
        np.testing.assert_array_equal(out[0].values, pm.values)

    def test_canonical_pure_scale(self):
        pm = self._grid(np.ones((1, 1, 3)))
        out = to_canonical([pm], Similarity(2.0, RigidTransform.identity()))
        np.testing.assert_array_equal(out[0].values[0, 0], [2.0, 2.0, 2.0])

    def test_invalid_pixels_stay_zero(self):
        valid = np.array([[True, False], [False, False]])
        pm = self._grid(np.where(valid[..., None], np.arange(1.0, 13.0).reshape(2, 2, 3), 0.0), valid)
        rel = RigidTransform(rotation_about_axis([0, 0, 1], 0.3), [1.0, 2.0, 3.0])
        registered = register_views([pm], [rel])[0]
        canonical = to_canonical([pm], Similarity(4.0, rel))[0]
        for out in (registered, canonical):
            np.testing.assert_array_equal(out.valid, valid)
            np.testing.assert_array_equal(out.values[~valid], 0.0)
        np.testing.assert_array_equal(registered.values[0, 0], rel.apply(pm.values[0, 0]))
        np.testing.assert_array_equal(canonical.values[0, 0], 4.0 * rel.apply(pm.values[0, 0]))


class TestRotationAngle:
    def test_equal_inputs_exactly_zero(self, rng):
        r = random_rotation(rng)
        assert rotation_angle(r, r) == 0.0

    def test_axis_angle_definition(self, rng):
        for axis in ([1, 0, 0], [0, 1, 0], rng.standard_normal(3)):
            r = rotation_about_axis(axis, 0.3)
            assert abs(rotation_angle(np.eye(3), r) - 0.3) < 1e-12

    def test_symmetry(self, rng):
        for _ in range(1000):
            a, b = random_rotation(rng), random_rotation(rng)
            assert abs(rotation_angle(a, b) - rotation_angle(b, a)) < 1e-12

    def test_triangle_inequality(self, rng):
        for _ in range(300):
            a, b, c = (random_rotation(rng) for _ in range(3))
            assert rotation_angle(a, c) <= rotation_angle(a, b) + rotation_angle(b, c) + 1e-9

    def test_clamp_guard(self):
        r = rotation_about_axis([0, 0, 1], np.pi)
        angle = rotation_angle(r, r @ rotation_about_axis([1, 0, 0], np.pi))
        assert 0.0 <= angle <= np.pi


class TestComposeInvert:
    def test_invert_identity(self):
        inv = RigidTransform.identity().inverse()
        np.testing.assert_array_equal(inv.rotation, np.eye(3))
        np.testing.assert_array_equal(inv.translation, np.zeros(3))

    def test_compose_with_inverse_rigid(self, rng):
        for _ in range(100):
            t = random_rigid(rng)
            ident = t.compose(t.inverse())
            assert np.abs(ident.rotation - np.eye(3)).max() < 1e-12
            assert np.abs(ident.translation).max() < 1e-12

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Similarity(-1.0, RigidTransform.identity())


_POSE = RigidTransform(rotation_about_axis([1.0, 2.0, 3.0], 0.7), [0.1, -1 / 3, 2 / 7])

# one object of each class the bundle JSON files hold, with floats that print to 17 digits
JSON_OBJECTS = {
    "intrinsics": Intrinsics(fx=525 / 3, fy=526 / 3, cx=160 + 1 / 3, cy=120 - 1 / 7, width=320, height=240),
    "camera": CameraRanges(radius=(0.7, 5 / 3), roll_deg=(-1 / 3, 2 / 3), target_jitter=0.1 / 3),
    "table": Table(_POSE, [0.6, 0.4 / 3]),
    "sphere": Sphere([0.3, -0.1 / 3, 0.05], 1 / 17),
    "box": Box(_POSE, [0.05, 0.07, 0.1 / 3]),
    "joint": Joint("revolute", [1 / 3, 2 / 3, 2 / 3], _POSE, (-2.9, 2.9 / 3)),
    "joint_no_limits": Joint("prismatic", [0.0, 0.0, 1.0], _POSE),
}


def _bits(value):
    """A field's value, bit for bit: the float64 bytes of an array, a pose's matrix, a tuple or a float."""
    value = value.matrix() if isinstance(value, RigidTransform) else value
    return np.asarray(value, dtype=float).tobytes() if isinstance(value, (np.ndarray, tuple, float)) else value


class TestJSONForm:
    """to_json and from_json: every bundle dataclass's JSON object, one key per field."""

    @pytest.mark.parametrize("name", sorted(JSON_OBJECTS))
    def test_round_trip_bit_exact(self, name):
        obj = JSON_OBJECTS[name]
        back = from_json(type(obj), json.loads(json.dumps(to_json(obj))))
        for f in dataclasses.fields(obj):
            a, b = getattr(obj, f.name), getattr(back, f.name)
            assert type(b) is type(a), f.name  # a pose comes back as a RigidTransform, a pair as a tuple
            assert _bits(b) == _bits(a), f.name

    @pytest.mark.parametrize("name,field", [("table", "pose"), ("box", "pose"), ("joint", "origin")])
    def test_nan_pose_entry_named(self, name, field):
        obj = JSON_OBJECTS[name]
        d = to_json(obj)
        d[field][1][3] = float("nan")
        with pytest.raises(ValueError, match=f"^{name} {field} must be finite, got nan$"):
            from_json(type(obj), json.loads(json.dumps(d)))

    @pytest.mark.parametrize("annotation", [RigidTransform, "RigidTransform"], ids=["class", "postponed"])
    def test_pose_field_found_with_or_without_postponed_annotations(self, annotation):
        mount = dataclasses.make_dataclass("Mount", [("pose", annotation)], frozen=True)
        back = from_json(mount, json.loads(json.dumps(to_json(mount(_POSE)))))
        assert isinstance(back.pose, RigidTransform)
        assert _bits(back.pose) == _bits(_POSE)
        with pytest.raises(ValueError, match=r"^mount pose: bottom row must be \(0, 0, 0, 1\)"):
            from_json(mount, {"pose": np.ones((4, 4)).tolist()})

    def test_only_a_none_default_may_be_absent(self):
        joint = to_json(JSON_OBJECTS["joint"])
        del joint["limits"]
        assert from_json(Joint, {"unused": 1, **joint}).limits is None  # a key that is no field is ignored
        camera = to_json(CameraRanges())
        del camera["center_jitter"]
        with pytest.raises(KeyError, match="center_jitter"):
            from_json(CameraRanges, camera)
