"""Serial-chain robot kinematics and keypoint placement.

Chain convention: joint k acts at the frame of link k-1 (its axis is
expressed there), and the joint's fixed origin transform then carries the
moved frame out to link k:

    pose(link 0) = identity (base)
    pose(link k) = pose(link k-1) @ motion(q_k) @ origin_k

so at the zero state the link poses are the running products of the origin
transforms alone.  Revolute joints rotate about the axis, prismatic joints
translate along it.

Chains and keypoint specs load from a JSON file, each joint its Joint's
fields (transforms.to_json):

    {
      "name": "arm",
      "joints": [
        {"type": "revolute", "axis": [0, 0, 1],
         "origin": [[...], [...], [...], [...]],      # 4x4 row-major
         "limits": [-3.1, 3.1]},                      # optional
        ...
      ],
      "keypoints": [{"link": 1, "offset": [0.05, 0.0, 0.1]}, ...]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .camera import check_array, check_number
from .transforms import RigidTransform, from_json, json_kind, rotation_about_axis, to_json

JOINT_TYPES = ("revolute", "prismatic")


class JointLimitError(ValueError):
    """Raised when a joint state violates declared limits."""


@dataclass(frozen=True, eq=False)
class Joint:
    type: str
    axis: np.ndarray
    origin: RigidTransform
    limits: tuple[float, float] | None = None

    def __post_init__(self):
        if self.type not in JOINT_TYPES:
            raise ValueError(f"unknown joint type {self.type!r}")
        a = check_array("joint axis", self.axis, (3,))
        n = np.linalg.norm(a)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"joint axis must be unit length, |axis| = {n}")
        object.__setattr__(self, "axis", a)
        if self.limits is not None:
            lo, hi = check_array("joint limits", self.limits, (2,)).tolist()
            if not lo < hi:
                raise ValueError(f"joint limits must satisfy lo < hi, got {self.limits}")
            object.__setattr__(self, "limits", (lo, hi))

    def motion(self, q: float) -> RigidTransform:
        if self.type == "revolute":
            return RigidTransform(rotation_about_axis(self.axis, q), np.zeros(3))
        return RigidTransform(np.eye(3), self.axis * q)


@dataclass(frozen=True, eq=False)
class KinematicChain:
    joints: tuple
    name: str = "chain"

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))

    @property
    def dof(self) -> int:
        return len(self.joints)

    @property
    def link_count(self) -> int:
        return len(self.joints) + 1

    def check_state(self, state) -> np.ndarray:
        q = np.asarray(state, dtype=float).reshape(-1)
        if q.shape[0] != self.dof:
            raise ValueError(f"joint state has {q.shape[0]} values, chain has {self.dof}")
        for k, (joint, qk) in enumerate(zip(self.joints, q)):
            if joint.limits is not None and not (joint.limits[0] <= qk <= joint.limits[1]):
                raise JointLimitError(
                    f"joint {k} value {qk} outside limits {joint.limits}"
                )
        return q


@dataclass(frozen=True, eq=False)
class KeypointSpec:
    """Keypoints pinned to links: (link index, offset in the link frame)."""

    links: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        links = np.asarray([check_number("keypoint link", v, integer=True) for v in self.links], dtype=int)
        offsets = check_array("keypoint offset", self.offsets, (len(links), 3))
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "offsets", offsets)

    def __len__(self) -> int:
        return len(self.links)

    def check(self, chain: KinematicChain):
        if len(self) and (self.links.min() < 0 or self.links.max() >= chain.link_count):
            raise ValueError(
                f"keypoint link indices must lie in [0, {chain.link_count - 1}]"
            )


def forward_kinematics(chain: KinematicChain, state) -> list[RigidTransform]:
    """Base-frame poses of all Q+1 links (base first)."""
    q = chain.check_state(state)
    poses = [RigidTransform.identity()]
    for joint, qk in zip(chain.joints, q):
        poses.append(poses[-1].compose(joint.motion(qk)).compose(joint.origin))
    return poses


def keypoints_3d(chain: KinematicChain, state, spec: KeypointSpec) -> np.ndarray:
    """N_kp base-frame positions: each keypoint is its link pose applied to its offset."""
    spec.check(chain)
    poses = forward_kinematics(chain, state)
    out = np.empty((len(spec), 3))
    for i, (link, offset) in enumerate(zip(spec.links, spec.offsets)):
        out[i] = poses[link].apply(offset)
    return out


def chain_from_dict(data: dict, default_name: str) -> tuple[KinematicChain, KeypointSpec]:
    """Chain and keypoint spec of a parsed chain file.

    `joints` and `keypoints` are required; the chain's `name` (default
    `default_name`) and a joint's `limits` (default none) are optional.
    """
    joints = json_kind("joints", data["joints"], list)
    chain = KinematicChain(joints=[from_json(Joint, j) for j in joints], name=data.get("name", default_name))
    kps = [json_kind("keypoint", kp) for kp in json_kind("keypoints", data["keypoints"], list)]
    spec = KeypointSpec(
        links=[kp["link"] for kp in kps],
        offsets=[kp["offset"] for kp in kps],
    )
    spec.check(chain)
    return chain, spec


def save_chain(path, chain: KinematicChain, spec: KeypointSpec):
    data = {
        "name": chain.name,
        "joints": [to_json(j) for j in chain.joints],
        "keypoints": [{"link": int(l), "offset": o.tolist()} for l, o in zip(spec.links, spec.offsets)],
    }
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True))
