"""Forward kinematics and keypoint placement.

The planar-arm expectations come from the chain convention
pose(link k) = pose(link k-1) @ motion(q_k) @ origin_k, so a 2-link arm
with unit links has its end-link frame at the arm tip.
"""

import json
import re

import numpy as np
import pytest

from reconkit.kinematics import (
    Joint,
    JointLimitError,
    KeypointSpec,
    KinematicChain,
    chain_from_dict,
    forward_kinematics,
    keypoints_3d,
    save_chain,
)
from reconkit.oracle.bundle import default_chain
from reconkit.transforms import RigidTransform


def planar_arm(l1=1.0, l2=1.0, limits=None):
    z = np.array([0.0, 0.0, 1.0])
    return KinematicChain(
        joints=(
            Joint("revolute", z, RigidTransform(np.eye(3), [l1, 0.0, 0.0]), limits),
            Joint("revolute", z, RigidTransform(np.eye(3), [l2, 0.0, 0.0]), limits),
        ),
        name="planar2",
    )


def end_position(chain, angles):
    return forward_kinematics(chain, angles)[-1].translation


class TestForwardKinematics:
    def test_straight_configuration(self):
        np.testing.assert_allclose(end_position(planar_arm(), [0.0, 0.0]), [2.0, 0.0, 0.0], atol=1e-15)

    def test_quarter_turn(self):
        np.testing.assert_allclose(
            end_position(planar_arm(), [np.pi / 2, 0.0]), [0.0, 2.0, 0.0], atol=1e-15
        )

    def test_elbow_bend_planar_trig(self):
        # cos/sin sum oracle: (cos q1 + cos(q1+q2), sin q1 + sin(q1+q2))
        q1, q2 = np.pi / 2, -np.pi / 2
        expected = [np.cos(q1) + np.cos(q1 + q2), np.sin(q1) + np.sin(q1 + q2), 0.0]
        np.testing.assert_allclose(end_position(planar_arm(), [q1, q2]), expected, atol=1e-15)
        np.testing.assert_allclose(end_position(planar_arm(), [q1, q2]), [1.0, 1.0, 0.0], atol=1e-15)

    def test_zero_state_is_product_of_origins(self, rng):
        chain, _ = default_chain()
        poses = forward_kinematics(chain, np.zeros(chain.dof))
        running = RigidTransform.identity()
        for joint, pose in zip(chain.joints, poses[1:]):
            running = running.compose(joint.origin)
            np.testing.assert_allclose(pose.matrix(), running.matrix(), atol=1e-15)

    def test_state_length_mismatch(self):
        with pytest.raises(ValueError, match="chain has"):
            forward_kinematics(planar_arm(), [0.0])

    def test_limit_violation(self):
        chain = planar_arm(limits=(-1.0, 1.0))
        with pytest.raises(JointLimitError):
            forward_kinematics(chain, [0.0, 2.0])

    @pytest.mark.parametrize("limits", [(1.0, 1.0), (1.0, -1.0)])
    def test_limits_must_be_increasing(self, limits):
        with pytest.raises(ValueError, match=re.escape(f"joint limits must satisfy lo < hi, got {limits}")):
            planar_arm(limits=limits)

    def test_revolute_preserves_distance_to_axis(self, rng):
        chain, _ = default_chain()
        # joint 1 rotates about the base z-axis anchored at the origin
        probe = KeypointSpec(links=[1], offsets=[[0.07, -0.02, 0.03]])
        for _ in range(50):
            q = rng.uniform(-0.9, 0.9, chain.dof)
            p = keypoints_3d(chain, q, probe)[0]
            dist_to_z = np.hypot(p[0], p[1])
            q2 = q.copy()
            q2[0] = rng.uniform(-0.9, 0.9)
            p2 = keypoints_3d(chain, q2, probe)[0]
            assert abs(dist_to_z - np.hypot(p2[0], p2[1])) < 1e-12


class TestKeypoints:
    def test_base_offset_zero_is_origin(self, rng):
        chain, _ = default_chain()
        spec = KeypointSpec(links=[0], offsets=[[0.0, 0.0, 0.0]])
        for _ in range(10):
            q = rng.uniform(-0.9, 0.9, chain.dof)
            np.testing.assert_array_equal(keypoints_3d(chain, q, spec)[0], [0.0, 0.0, 0.0])

    def test_straight_arm_offset(self):
        spec = KeypointSpec(links=[1], offsets=[[0.5, 0.0, 0.0]])
        pts = keypoints_3d(planar_arm(), [0.0, 0.0], spec)
        np.testing.assert_allclose(pts[0], [1.5, 0.0, 0.0], atol=1e-15)

    def test_same_link_distances_are_state_invariant(self, rng):
        chain, _ = default_chain()
        spec = KeypointSpec(links=[2, 2], offsets=[[0.05, 0.01, -0.02], [-0.03, 0.04, 0.06]])
        ref = None
        for _ in range(100):
            q = rng.uniform(-0.9, 0.9, chain.dof)
            pts = keypoints_3d(chain, q, spec)
            d = np.linalg.norm(pts[0] - pts[1])
            if ref is None:
                ref = d
            assert abs(d - ref) < 1e-12

    def test_link_index_out_of_range(self):
        chain, _ = default_chain()
        spec = KeypointSpec(links=[99], offsets=[[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="link indices"):
            keypoints_3d(chain, np.zeros(chain.dof), spec)


class TestChainFile:
    def test_round_trip(self, tmp_path):
        chain, spec = default_chain()
        path = tmp_path / "chain.json"
        save_chain(path, chain, spec)
        loaded_chain, loaded_spec = chain_from_dict(json.loads(path.read_text()), path.stem)
        assert loaded_chain.dof == chain.dof
        assert loaded_chain.name == chain.name
        for a, b in zip(loaded_chain.joints, chain.joints):
            assert a.type == b.type
            np.testing.assert_array_equal(a.axis, b.axis)
            np.testing.assert_array_equal(a.origin.matrix(), b.origin.matrix())
            assert a.limits == b.limits
        np.testing.assert_array_equal(loaded_spec.links, spec.links)
        np.testing.assert_array_equal(loaded_spec.offsets, spec.offsets)

    def test_prismatic_joint_motion(self):
        chain = KinematicChain(
            joints=(
                Joint("prismatic", np.array([0.0, 0.0, 1.0]), RigidTransform.identity()),
            ),
            name="slider",
        )
        pose = forward_kinematics(chain, [0.7])[-1]
        np.testing.assert_allclose(pose.translation, [0.0, 0.0, 0.7], atol=1e-15)
        np.testing.assert_array_equal(pose.rotation, np.eye(3))

    def test_axis_must_be_unit(self):
        with pytest.raises(ValueError, match="unit"):
            Joint("revolute", np.array([0.0, 0.0, 2.0]), RigidTransform.identity())

    @pytest.mark.parametrize(
        "axis,offset,error,message",
        [
            ([0.0, float("nan"), 1.0], [0.0, 0.0, 0.0], ValueError, "joint axis must be finite, got nan"),
            ([0.0, 0.0, True], [0.0, 0.0, 0.0], TypeError, "joint axis: expected a number, got True"),
            ([0.0, 0.0, 1.0], [0.0, float("inf"), 0.0], ValueError, "keypoint offset must be finite, got inf"),
            ([0.0, 0.0, 1.0], [True, 0.0, 0.0], TypeError, "keypoint offset: expected a number, got True"),
        ],
    )
    def test_axis_and_offset_entries_checked(self, axis, offset, error, message):
        data = {
            "joints": [{"type": "revolute", "axis": axis, "origin": np.eye(4).tolist()}],
            "keypoints": [{"link": 1, "offset": offset}],
        }
        with pytest.raises(error, match=message):
            chain_from_dict(data, "arm")
