"""Ground-truth scene bundles: generation, on-disk layout, validation.

A bundle is one directory:

    meta.json             all poses (4x4 row-major), intrinsics, keypoints,
                          similarity {scale, matrix}, joint state, scene echo
    chain.json            kinematic chain + keypoint spec
    view_{i}_depth.r3rb   float64 depth raster
    view_{i}_valid.r3rb   uint8 validity raster
    view_{i}_coords.r3rb  float64 2-channel coord raster
    view_{i}_masks.r3rb   float64 3-channel mask raster (robot, object, bg)

save/load is a lossless bit-exact round trip.  The robot base frame equals
the world frame, so the bundle's similarity (camera 1 -> robot base, unit
scale) canonicalizes registered camera-frame geometry onto the rendered
world surfaces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ..camera import CoordMap, DepthMap, Intrinsics, project, unproject
from ..kinematics import (
    Joint,
    KeypointSpec,
    KinematicChain,
    keypoints_3d,
    load_chain,
    save_chain,
)
from ..masks import LABEL_BACKGROUND, LABEL_OBJECT, LABEL_ROBOT, MaskSet
from ..transforms import RigidTransform, Similarity
from .raster import read_raster, write_raster
from .scene import (
    Box,
    CameraRanges,
    SceneSpec,
    Sphere,
    Table,
    chain_capsules,
    render,
    sample_camera,
)

FORMAT_VERSION = 1
META_NAME = "meta.json"
CHAIN_NAME = "chain.json"


class BundleError(ValueError):
    pass


class MissingMetadataError(BundleError):
    pass


class VersionMismatchError(BundleError):
    pass


class ShapeMismatchError(BundleError):
    """A raster or keypoint array whose shape disagrees with the metadata."""


@dataclass(frozen=True, eq=False)
class ViewRecord:
    depth: DepthMap
    coords: CoordMap
    masks: MaskSet
    intrinsics: Intrinsics
    pose_world: RigidTransform
    pose_robot: RigidTransform


@dataclass(frozen=True, eq=False)
class SceneBundle:
    views: tuple
    similarity: Similarity
    keypoints_3d: np.ndarray
    keypoints_2d: np.ndarray
    spec: SceneSpec
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "views", tuple(self.views))

    @property
    def joint_state(self) -> np.ndarray:
        return self.spec.joint_state

    @property
    def chain(self) -> KinematicChain:
        return self.spec.chain


# ---------------------------------------------------------------------------
# Default chain and randomized scene specs
# ---------------------------------------------------------------------------


def _translate(x, y, z) -> RigidTransform:
    return RigidTransform(np.eye(3), np.array([x, y, z], dtype=float))


def default_chain() -> tuple[KinematicChain, KeypointSpec]:
    """4-joint arm with 8 keypoints spread over all links.

    The lateral keypoint offsets keep the set non-coplanar in generic
    configurations, which PnP needs.
    """
    joints = (
        Joint("revolute", np.array([0.0, 0.0, 1.0]), _translate(0.0, 0.0, 0.25), (-2.9, 2.9)),
        Joint("revolute", np.array([0.0, 1.0, 0.0]), _translate(0.2, 0.0, 0.1), (-1.8, 1.8)),
        Joint("revolute", np.array([0.0, 1.0, 0.0]), _translate(0.2, 0.0, -0.05), (-2.2, 2.2)),
        Joint("revolute", np.array([1.0, 0.0, 0.0]), _translate(0.12, 0.0, 0.0), (-2.9, 2.9)),
    )
    chain = KinematicChain(joints=joints, name="arm4")
    spec = KeypointSpec(
        links=[0, 1, 1, 2, 2, 3, 4, 4],
        offsets=[
            [0.04, 0.03, 0.06],
            [0.02, -0.05, -0.10],
            [-0.06, 0.02, -0.18],
            [0.03, 0.04, 0.02],
            [-0.02, -0.05, 0.05],
            [0.05, 0.02, -0.03],
            [0.02, -0.03, 0.02],
            [-0.03, 0.04, 0.01],
        ],
    )
    return chain, spec


def random_scene_spec(
    seed: int,
    views: int = 2,
    width: int = 630,
    height: int = 476,
    camera: CameraRanges = CameraRanges(),
) -> SceneSpec:
    """Deterministic randomized scene: table, 1-3 primitives, random arm pose."""
    rng = np.random.default_rng(np.random.SeedSequence([0x5CE4E, int(seed)]))
    chain, kp_spec = default_chain()

    table = Table(
        pose=_translate(rng.uniform(0.1, 0.3), rng.uniform(-0.1, 0.1), 0.0),
        half_extents=rng.uniform([0.5, 0.4], [0.7, 0.55]),
    )

    primitives = []
    for _ in range(int(rng.integers(1, 4))):
        x = rng.uniform(0.25, 0.55)
        y = rng.uniform(-0.3, 0.3)
        if rng.random() < 0.5:
            r = rng.uniform(0.03, 0.08)
            primitives.append(Sphere(center=[x, y, r + rng.uniform(0.0, 0.02)], radius=r))
        else:
            he = rng.uniform([0.03, 0.03, 0.03], [0.08, 0.08, 0.1])
            yaw = rng.uniform(0.0, np.pi)
            pose = RigidTransform(
                np.array(
                    [
                        [np.cos(yaw), -np.sin(yaw), 0.0],
                        [np.sin(yaw), np.cos(yaw), 0.0],
                        [0.0, 0.0, 1.0],
                    ]
                ),
                np.array([x, y, he[2]]),
            )
            primitives.append(Box(pose=pose, half_extents=he))

    joint_state = rng.uniform(-0.9, 0.9, size=chain.dof)

    return SceneSpec(
        table=table,
        primitives=tuple(primitives),
        chain=chain,
        keypoints=kp_spec,
        joint_state=joint_state,
        views=views,
        width=width,
        height=height,
        camera=camera,
    )


def generate_scene(spec: SceneSpec, seed: int) -> SceneBundle:
    """Render all views of a scene; pure function of (spec, seed).

    Cameras are resampled (deterministically) preferring poses that project
    every keypoint inside the image with a small margin, so stored 2D
    projections are well defined and heatmaps decode cleanly; a camera with
    all keypoints merely in front is the fallback.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0xCA3E4A, int(seed)]))
    kp3d = keypoints_3d(spec.chain, spec.joint_state, spec.keypoints)
    margin_u = 0.05 * spec.width
    margin_v = 0.05 * spec.height

    views = []
    kp2d = []
    sim = None
    for _ in range(spec.views):
        fallback = None
        chosen = None
        for _attempt in range(64):
            intr, pose = sample_camera(
                spec.workspace_center, rng, spec.camera, spec.width, spec.height
            )
            kp_cam = pose.inverse().apply(kp3d)
            if not np.all(kp_cam[:, 2] > 0.05):
                continue
            if fallback is None:
                fallback = (intr, pose)
            uv = project(kp_cam, intr)
            if (
                np.all(uv[:, 0] >= margin_u)
                and np.all(uv[:, 0] <= spec.width - 1 - margin_u)
                and np.all(uv[:, 1] >= margin_v)
                and np.all(uv[:, 1] <= spec.height - 1 - margin_v)
            ):
                chosen = (intr, pose)
                break
        if chosen is None:
            chosen = fallback
        if chosen is None:
            raise BundleError(f"could not find a camera seeing all keypoints (seed {seed})")
        intr, pose = chosen
        kp_cam = pose.inverse().apply(kp3d)
        depth, coords, labels = render(spec, intr, pose)
        masks = MaskSet(
            robot=(labels == LABEL_ROBOT).astype(float),
            object=(labels == LABEL_OBJECT).astype(float),
            background=(labels == LABEL_BACKGROUND).astype(float),
        )
        # base frame == world frame, so both pose entries coincide by design
        views.append(
            ViewRecord(
                depth=depth,
                coords=coords,
                masks=masks,
                intrinsics=intr,
                pose_world=pose,
                pose_robot=pose,
            )
        )
        kp2d.append(project(kp_cam, intr))
        if sim is None:
            sim = Similarity(1.0, pose)

    return SceneBundle(
        views=tuple(views),
        similarity=sim,
        keypoints_3d=kp3d,
        keypoints_2d=np.stack(kp2d),
        spec=spec,
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _intrinsics_to_dict(k: Intrinsics) -> dict:
    return {
        "fx": k.fx,
        "fy": k.fy,
        "cx": k.cx,
        "cy": k.cy,
        "width": k.width,
        "height": k.height,
    }


def _spec_to_dict(spec: SceneSpec) -> dict:
    prims = []
    for p in spec.primitives:
        if isinstance(p, Sphere):
            prims.append({"type": "sphere", "center": p.center.tolist(), "radius": p.radius})
        else:
            prims.append(
                {
                    "type": "box",
                    "pose": p.pose.matrix().tolist(),
                    "half_extents": p.half_extents.tolist(),
                }
            )
    cam = spec.camera
    return {
        "table": {
            "pose": spec.table.pose.matrix().tolist(),
            "half_extents": spec.table.half_extents.tolist(),
        },
        "primitives": prims,
        "views": spec.views,
        "width": spec.width,
        "height": spec.height,
        "capsule_radius": spec.capsule_radius,
        "heatmap_sigma": spec.heatmap_sigma,
        "workspace_center": spec.workspace_center.tolist(),
        "camera": {
            "radius": list(cam.radius),
            "elevation_deg": list(cam.elevation_deg),
            "azimuth_deg": list(cam.azimuth_deg),
            "roll_deg": list(cam.roll_deg),
            "target_jitter": cam.target_jitter,
            "focal_jitter": cam.focal_jitter,
            "center_jitter": cam.center_jitter,
        },
    }


def _spec_from_dict(d: dict, chain: KinematicChain, kp: KeypointSpec, joint_state) -> SceneSpec:
    prims = []
    for p in d["primitives"]:
        if p["type"] == "sphere":
            prims.append(Sphere(center=p["center"], radius=p["radius"]))
        else:
            prims.append(
                Box(
                    pose=RigidTransform.from_matrix(np.array(p["pose"])),
                    half_extents=p["half_extents"],
                )
            )
    cam = d["camera"]
    return SceneSpec(
        table=Table(
            pose=RigidTransform.from_matrix(np.array(d["table"]["pose"])),
            half_extents=d["table"]["half_extents"],
        ),
        primitives=tuple(prims),
        chain=chain,
        keypoints=kp,
        joint_state=joint_state,
        views=d["views"],
        width=d["width"],
        height=d["height"],
        capsule_radius=d["capsule_radius"],
        heatmap_sigma=d["heatmap_sigma"],
        camera=CameraRanges(
            radius=tuple(cam["radius"]),
            elevation_deg=tuple(cam["elevation_deg"]),
            azimuth_deg=tuple(cam["azimuth_deg"]),
            roll_deg=tuple(cam["roll_deg"]),
            target_jitter=cam["target_jitter"],
            focal_jitter=cam["focal_jitter"],
            center_jitter=cam["center_jitter"],
        ),
        workspace_center=np.array(d["workspace_center"]),
    )


def save_bundle(path, bundle: SceneBundle):
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    save_chain(path / CHAIN_NAME, bundle.chain, bundle.spec.keypoints)

    view_entries = []
    for i, view in enumerate(bundle.views):
        files = {
            "depth": f"view_{i}_depth.r3rb",
            "valid": f"view_{i}_valid.r3rb",
            "coords": f"view_{i}_coords.r3rb",
            "masks": f"view_{i}_masks.r3rb",
        }
        write_raster(path / files["depth"], view.depth.values)
        write_raster(path / files["valid"], view.depth.valid.astype(np.uint8))
        write_raster(path / files["coords"], view.coords.values)
        write_raster(path / files["masks"], view.masks.stacked())
        view_entries.append(
            {
                "intrinsics": _intrinsics_to_dict(view.intrinsics),
                "pose_world": view.pose_world.matrix().tolist(),
                "pose_robot": view.pose_robot.matrix().tolist(),
                "files": files,
            }
        )

    meta = {
        "format_version": FORMAT_VERSION,
        "seed": bundle.seed,
        "chain_file": CHAIN_NAME,
        "joint_state": bundle.joint_state.tolist(),
        "similarity": {
            "scale": bundle.similarity.scale,
            "matrix": bundle.similarity.rigid.matrix().tolist(),
        },
        "keypoints_3d": bundle.keypoints_3d.tolist(),
        "keypoints_2d": bundle.keypoints_2d.tolist(),
        "views": view_entries,
        "scene": _spec_to_dict(bundle.spec),
    }
    (path / META_NAME).write_text(json.dumps(meta, indent=1, sort_keys=True))


class _Metadata(dict):
    """A meta.json object whose missing keys raise MissingMetadataError."""

    def __init__(self, path, items):
        super().__init__(items)
        self.path = path

    def __missing__(self, key):
        raise MissingMetadataError(f"{self.path}: missing key {key!r}")


def _check_shape(name, shape, expected):
    if shape != expected:
        raise ShapeMismatchError(f"{name}: shape {shape}, expected {expected}")


def _read_shaped(path, expected) -> np.ndarray:
    """A raster whose shape must be `expected` (HxW, or HxWxC for C > 1)."""
    arr = read_raster(path)
    _check_shape(path, arr.shape, expected)
    return arr


def load_bundle(path) -> SceneBundle:
    """Read a bundle, checking its metadata keys and every raster and keypoint shape."""
    path = Path(path)
    meta_path = path / META_NAME
    if not meta_path.exists():
        raise MissingMetadataError(f"bundle metadata file missing: {meta_path}")
    meta = json.loads(meta_path.read_text(), object_hook=lambda d: _Metadata(meta_path, d))
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"{meta_path}: format version {version}, supported {FORMAT_VERSION}"
        )

    chain, kp_spec = load_chain(path / meta["chain_file"])
    joint_state = np.array(meta["joint_state"], dtype=float)
    spec = _spec_from_dict(meta["scene"], chain, kp_spec, joint_state)

    views = []
    for entry in meta["views"]:
        files = entry["files"]
        ki = entry["intrinsics"]
        intrinsics = Intrinsics(**{f.name: ki[f.name] for f in fields(Intrinsics)})
        grid = (intrinsics.height, intrinsics.width)
        rasters = {
            key: _read_shaped(path / files[key], grid + channels)
            for key, channels in (("depth", ()), ("valid", ()), ("coords", (2,)), ("masks", (3,)))
        }
        views.append(
            ViewRecord(
                depth=DepthMap(rasters["depth"], rasters["valid"].astype(bool)),
                coords=CoordMap(rasters["coords"]),
                masks=MaskSet.from_stacked(rasters["masks"]),
                intrinsics=intrinsics,
                pose_world=RigidTransform.from_matrix(np.array(entry["pose_world"])),
                pose_robot=RigidTransform.from_matrix(np.array(entry["pose_robot"])),
            )
        )

    n_kp = len(kp_spec)
    kp3d = np.array(meta["keypoints_3d"], dtype=float)
    _check_shape(f"{meta_path}: keypoints_3d", kp3d.shape, (n_kp, 3))
    kp2d = np.array(meta["keypoints_2d"], dtype=float)
    _check_shape(f"{meta_path}: keypoints_2d", kp2d.shape, (len(views), n_kp, 2))
    return SceneBundle(
        views=tuple(views),
        similarity=Similarity(
            meta["similarity"]["scale"],
            RigidTransform.from_matrix(np.array(meta["similarity"]["matrix"])),
        ),
        keypoints_3d=kp3d,
        keypoints_2d=kp2d,
        spec=spec,
        seed=int(meta["seed"]),
    )


# ---------------------------------------------------------------------------
# Validation against the analytic surfaces
# ---------------------------------------------------------------------------


def _table_distance(table: Table, pts: np.ndarray) -> np.ndarray:
    local = table.pose.inverse().apply(pts)
    return np.abs(local[:, 2])


def _sphere_distance(s: Sphere, pts: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.norm(pts - s.center, axis=1) - s.radius)


def _box_distance(b: Box, pts: np.ndarray) -> np.ndarray:
    local = np.abs(b.pose.inverse().apply(pts)) - b.half_extents
    # surface points satisfy max_i(|p_i| - h_i) == 0
    return np.abs(np.max(local, axis=1))


def _segment_distance(p0, p1, pts) -> np.ndarray:
    axis = p1 - p0
    denom = axis @ axis
    if denom < 1e-18:
        return np.linalg.norm(pts - p0, axis=1)
    s = np.clip(((pts - p0) @ axis) / denom, 0.0, 1.0)
    closest = p0 + s[:, None] * axis
    return np.linalg.norm(pts - closest, axis=1)


def surface_distances(spec: SceneSpec, pts: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Distance of each labeled point to its part's nearest analytic surface."""
    out = np.full(pts.shape[0], np.inf)
    bg = labels == LABEL_BACKGROUND
    if np.any(bg):
        out[bg] = _table_distance(spec.table, pts[bg])
    obj = labels == LABEL_OBJECT
    if np.any(obj):
        d = np.full(obj.sum(), np.inf)
        for p in spec.primitives:
            if isinstance(p, Sphere):
                d = np.minimum(d, _sphere_distance(p, pts[obj]))
            else:
                d = np.minimum(d, _box_distance(p, pts[obj]))
        out[obj] = d
    rob = labels == LABEL_ROBOT
    if np.any(rob):
        d = np.full(rob.sum(), np.inf)
        for cap in chain_capsules(spec):
            d = np.minimum(
                d, np.abs(_segment_distance(cap.p0, cap.p1, pts[rob]) - cap.radius)
            )
        out[rob] = d
    return out


def validate_bundle(bundle: SceneBundle, tol: float = 1e-9) -> float:
    """Max distance of unprojected + pose-transformed pixels to the scene surfaces.

    Raises BundleError when the internal-consistency invariant is violated.
    Also checks that stored 2D keypoints re-project from the stored 3D
    keypoints and poses.
    """
    from ..masks import binarize

    worst = 0.0
    for i, view in enumerate(bundle.views):
        pm = unproject(view.coords, view.depth)
        world = view.pose_world.apply(pm.values[pm.valid])
        labels = binarize(view.masks, 0.5)[pm.valid]
        d = surface_distances(bundle.spec, world, labels)
        if d.size:
            worst = max(worst, float(d.max()))
        kp_cam = view.pose_robot.inverse().apply(bundle.keypoints_3d)
        kp_err = np.abs(project(kp_cam, view.intrinsics) - bundle.keypoints_2d[i]).max()
        worst = max(worst, float(kp_err))
    if worst > tol:
        raise BundleError(f"bundle inconsistency: max deviation {worst:.3e} > {tol:.0e}")
    return worst
