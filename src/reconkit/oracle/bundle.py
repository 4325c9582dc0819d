"""Ground-truth scene bundles: generation, on-disk layout, validation.

A bundle (format 4) is one directory:

    meta.json             view poses (4x4 row-major) and intrinsics, joint
                          state, scene geometry
    chain.json            kinematic chain + keypoint spec
    view_{i}_depth.r3rb   float64 depth raster, 0 at holes
    view_{i}_labels.r3rb  uint8 part labels (masks.LABEL_*, 0 at holes)

Nothing derivable is stored: file names follow from the view index, so a
bundle reads nothing outside its directory, and the scene's view count and
image size from the views, each of which must share view 0's size.
ViewRecord derives validity (depth > 0), coords (from the intrinsics) and
mask planes (one-hot labels), and SceneBundle the keypoints (forward
kinematics of the chain at the joint state, and their projections) and the
similarity, on one path for generated and loaded bundles.  Each JSON object
of a dataclass (intrinsics, table, primitive, camera ranges, joint) is its
fields, written by transforms.to_json and read by from_json, a pose as its
4x4 row-major matrix.  save/load is a lossless bit-exact round trip.
load_bundle checks both JSON files and every raster's header, size, shape
and (labels: uint8) dtype up front, so a missing or malformed file or key,
a value of the wrong type or form, or a wrong shape or dtype fails at load
as a named BundleError or RasterError.  A view's depth and labels are read
on first access only, and kept until ViewRecord.pop hands them over; a label
above LABEL_BACKGROUND then fails as a PayloadValueError naming the file.
The robot base frame is the world frame, so pose_world is also the
base-frame pose and the similarity (camera 0 -> robot base, unit scale)
canonicalizes registered camera-frame geometry.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ..camera import CoordMap, DepthMap, Intrinsics, check_number, coords_from_intrinsics, project, unproject
from ..kinematics import (
    Joint,
    JointLimitError,
    KeypointSpec,
    KinematicChain,
    chain_from_dict,
    keypoints_3d,
    save_chain,
)
from ..masks import LABEL_BACKGROUND, LABEL_OBJECT, LABEL_ROBOT, MaskSet
from ..transforms import RigidTransform, Similarity, from_json, json_kind, relative_pose, to_json
from .raster import RasterError, raster_header, read_raster, write_raster
from .scene import (
    PRIMITIVE_TYPES,
    Box,
    CameraRanges,
    SceneSpec,
    Sphere,
    Table,
    render,
    sample_camera,
)

FORMAT_VERSION = 4
META_NAME = "meta.json"
CHAIN_NAME = "chain.json"
RASTER_KEYS = ("depth", "labels")  # each view's HxW rasters
RASTER_NAME = "view_{i}_{key}.r3rb"  # view i's raster `key` in its bundle directory


class BundleError(ValueError):
    pass


class MissingMetadataError(BundleError):
    pass


class VersionMismatchError(BundleError):
    pass


class ShapeMismatchError(BundleError):
    """A raster whose shape disagrees with its view's intrinsics, or a view whose image size is not view 0's."""


class MalformedMetadataError(BundleError):
    """A meta.json or chain.json that is not valid JSON or holds a value of the wrong form."""


class PayloadValueError(BundleError):
    """A raster payload holding a value its map type rejects."""


class DtypeMismatchError(BundleError):
    """A raster whose dtype its file key does not allow."""


@dataclass(frozen=True, eq=False)
class ViewRecord:
    """One camera of a bundle.

    `rasters[key]` gives the stored depth or labels array: from a dict for a
    generated scene, read from the view's file for a loaded one.  Every
    property is built on first access and kept until `pop` hands it over;
    validity, coords and mask planes are derived here, the same way for both.
    """

    intrinsics: Intrinsics
    pose_world: RigidTransform
    rasters: object  # rasters[key] gives the array of that RASTER_KEYS key

    @cached_property
    def depth(self) -> DepthMap:
        return DepthMap(self.rasters["depth"])  # 0, NaN: holes

    @cached_property
    def labels(self) -> np.ndarray:
        return self.rasters["labels"]

    @cached_property
    def coords(self) -> CoordMap:
        return coords_from_intrinsics(self.intrinsics)

    @cached_property
    def masks(self) -> MaskSet:
        return MaskSet.from_labels(self.labels)

    def pop(self, name: str):
        """Property `name`, built now if not yet, handed over and forgotten: a later read builds it again."""
        getattr(self, name)
        return vars(self).pop(name)


@dataclass(frozen=True, eq=False)
class SceneBundle:
    """A scene's views, spec and seed; everything else is derived from them on first access."""

    views: tuple
    spec: SceneSpec
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "views", tuple(self.views))

    @cached_property
    def keypoints_3d(self) -> np.ndarray:
        """(N_kp, 3) base-frame keypoints: forward kinematics of the chain at the joint state."""
        return keypoints_3d(self.spec.chain, self.spec.joint_state, self.spec.keypoints)

    @cached_property
    def keypoints_2d(self) -> np.ndarray:
        """(views, N_kp, 2) projections of keypoints_3d into each view.

        A keypoint at or behind a view's camera, where its projection is
        undefined, is a BundleError naming the view.
        """
        out = []
        for i, view in enumerate(self.views):
            kp_cam = view.pose_world.inverse().apply(self.keypoints_3d)
            behind = np.flatnonzero(kp_cam[:, 2] <= 0)
            if behind.size:
                k = behind[0]
                raise BundleError(f"view {i}: keypoint {k} is at or behind the camera (depth {kp_cam[k, 2]:.3g})")
            out.append(project(kp_cam, view.intrinsics))
        return np.stack(out)

    @cached_property
    def similarity(self) -> Similarity:
        """Camera 0 -> robot base at unit scale: canonicalizes geometry registered into view 0's frame."""
        return Similarity(1.0, self.views[0].pose_world)

    @cached_property
    def rel_poses(self) -> tuple:
        """Per view, view j -> view 0 (first entry identity): the ground truth of Prediction.rel_poses."""
        first = self.views[0].pose_world
        return RigidTransform.identity(), *(relative_pose(first, v.pose_world) for v in self.views[1:])


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
    views: int = SceneSpec.views,
    width: int = SceneSpec.width,
    height: int = SceneSpec.height,
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
    )


def generate_scene(spec: SceneSpec, seed: int) -> SceneBundle:
    """Render all views of a scene; pure function of (spec, seed).

    Cameras are resampled (deterministically) preferring poses that project
    every keypoint inside the image with a small margin, so the 2D
    projections are well defined and heatmaps decode cleanly; a camera with
    all keypoints merely in front is the fallback.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0xCA3E4A, int(seed)]))
    kp3d = keypoints_3d(spec.chain, spec.joint_state, spec.keypoints)
    low = 0.05 * np.array([spec.width, spec.height])  # the in-frame (u, v) bounds: 5% inside the image
    high = np.array([spec.width - 1, spec.height - 1]) - low

    views = []
    for _ in range(spec.views):
        in_front = []  # cameras with every keypoint in front, in draw order; an in-frame one put first
        for _attempt in range(64):
            intr, pose = sample_camera(spec.workspace_center, rng, spec.camera, spec.width, spec.height)
            kp_cam = pose.inverse().apply(kp3d)
            if not np.all(kp_cam[:, 2] > 0.05):
                continue
            uv = project(kp_cam, intr)
            if np.all((low <= uv) & (uv <= high)):
                in_front.insert(0, (intr, pose))
                break
            in_front.append((intr, pose))
        if not in_front:
            raise BundleError(f"could not find a camera seeing all keypoints (seed {seed})")
        intr, pose = in_front[0]
        depth, labels = render(spec, intr, pose)
        views.append(ViewRecord(intr, pose, rasters={"depth": depth, "labels": labels}))

    return SceneBundle(views=tuple(views), spec=spec, seed=int(seed))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _spec_to_dict(spec: SceneSpec) -> dict:
    return {
        "table": to_json(spec.table),
        "primitives": [{"type": type(p).__name__.lower(), **to_json(p)} for p in spec.primitives],
        "capsule_radius": spec.capsule_radius,
        "workspace_center": spec.workspace_center.tolist(),
        "camera": to_json(spec.camera),
    }


def _spec_from_dict(d: dict, chain: KinematicChain, kp: KeypointSpec, joint_state, views, grid) -> SceneSpec:
    primitives = json_kind("primitives", d["primitives"], list)
    for p in primitives:
        if json_kind("primitive", p)["type"] not in PRIMITIVE_TYPES:  # its kind checked before its tag is read
            raise ValueError(f"unknown primitive type {p['type']!r}")
    return SceneSpec(
        table=from_json(Table, d["table"]),
        primitives=[from_json(PRIMITIVE_TYPES[p["type"]], p) for p in primitives],
        chain=chain,
        keypoints=kp,
        joint_state=joint_state,
        views=views,
        width=grid[1],
        height=grid[0],
        capsule_radius=d["capsule_radius"],
        camera=from_json(CameraRanges, d["camera"]),
        workspace_center=d["workspace_center"],
    )


def save_bundle(path, bundle: SceneBundle):
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    save_chain(path / CHAIN_NAME, bundle.spec.chain, bundle.spec.keypoints)

    view_entries = []
    for i, view in enumerate(bundle.views):
        for key in RASTER_KEYS:
            write_raster(path / RASTER_NAME.format(i=i, key=key), view.rasters[key])
        view_entries.append({"intrinsics": to_json(view.intrinsics), "pose_world": view.pose_world.matrix().tolist()})

    meta = {
        "format_version": FORMAT_VERSION,
        "seed": bundle.seed,
        "joint_state": bundle.spec.joint_state.tolist(),
        "views": view_entries,
        "scene": _spec_to_dict(bundle.spec),
    }
    (path / META_NAME).write_text(json.dumps(meta, indent=1, sort_keys=True))


def _read_json(path) -> dict:
    """The JSON object a bundle JSON file holds."""
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise MissingMetadataError(f"bundle metadata file missing: {path}") from None
    except ValueError as exc:  # invalid JSON or text
        raise MalformedMetadataError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedMetadataError(f"{path}: must hold a JSON object, got {type(doc).__name__}")
    return doc


@contextlib.contextmanager
def _parsing(path):
    """Errors while building a bundle from the JSON file at path, as BundleErrors."""
    try:
        yield
    except (BundleError, RasterError):
        raise
    except KeyError as exc:  # a key the file's JSON lacks
        raise MissingMetadataError(f"{path}: missing key {exc.args[0]!r}") from None
    except OSError as exc:  # a bundle file is missing, a directory or unreadable
        raise MissingMetadataError(f"{exc.filename}: {exc.strerror}") from None
    except (TypeError, ValueError, OverflowError) as exc:  # a string for a number, a NaN pose
        raise MalformedMetadataError(f"{path}: {exc}") from None


def _check_shape(name, shape, expected):
    if shape != expected:
        raise ShapeMismatchError(f"{name}: shape {shape}, expected {expected}")


def _check_raster(path, key, shape, dtype, grid):
    """A view raster's header: the intrinsics' HxW, uint8 for the labels and a float dtype for the depth."""
    _check_shape(path, shape, grid)
    if (dtype == np.uint8) != (key == "labels"):
        expected = "uint8 part labels" if key == "labels" else "float depths"
        raise DtypeMismatchError(f"{path}: dtype {dtype}, expected {expected}")


class _RasterFiles:
    """A loaded view's depth and labels, each read when looked up."""

    def __init__(self, root: Path, i: int, grid: tuple):
        self.root, self.i, self.grid = root, i, grid

    def __getitem__(self, key) -> np.ndarray:
        path = self.root / RASTER_NAME.format(i=self.i, key=key)
        arr = read_raster(path)
        _check_raster(path, key, arr.shape, arr.dtype, self.grid)
        if key == "labels" and arr.max(initial=0) > LABEL_BACKGROUND:
            raise PayloadValueError(f"{path}: part label {arr.max()} outside [0, {LABEL_BACKGROUND}]")
        return arr


def load_bundle(path) -> SceneBundle:
    """Read a bundle's metadata, checking its keys, every value and every raster's shape.

    Raster payloads are read on first access of a view's depth, labels,
    coords or masks (see the module docstring).
    """
    path = Path(path)
    meta_path = path / META_NAME
    with _parsing(meta_path):
        meta = _read_json(meta_path)
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise VersionMismatchError(
                f"{meta_path}: format version {version}, supported {FORMAT_VERSION}"
            )

        chain_path = path / CHAIN_NAME
        with _parsing(chain_path):
            chain, kp_spec = chain_from_dict(_read_json(chain_path), chain_path.stem)

        entries = [json_kind("view", entry) for entry in json_kind("views", meta["views"], list)]
        if not entries:
            raise ValueError("no views")
        intrinsics = [from_json(Intrinsics, entry["intrinsics"]) for entry in entries]
        grid = (intrinsics[0].height, intrinsics[0].width)  # every view's, the scene's image size
        try:
            spec = _spec_from_dict(json_kind("scene", meta["scene"]), chain, kp_spec, meta["joint_state"],
                                   len(intrinsics), grid)
        except JointLimitError as exc:  # the joint state, or the limits chain.json gives
            raise MalformedMetadataError(f"{meta_path}: {exc} of {chain_path}") from None

        views = []
        for i, (entry, intr) in enumerate(zip(entries, intrinsics)):
            _check_shape(f"{meta_path}: view {i} image (height, width)", (intr.height, intr.width), grid)
            for key in RASTER_KEYS:
                raster = path / RASTER_NAME.format(i=i, key=key)
                _check_raster(raster, key, *raster_header(raster), grid)
            pose = RigidTransform.from_matrix(entry["pose_world"], "pose_world")
            views.append(ViewRecord(intr, pose, rasters=_RasterFiles(path, i, grid)))
        seed = check_number("seed", meta["seed"], lambda v: v >= 0, "a non-negative integer", integer=True)
        return SceneBundle(views=tuple(views), spec=spec, seed=seed)


# ---------------------------------------------------------------------------
# Validation against the analytic surfaces
# ---------------------------------------------------------------------------


def surface_distances(spec: SceneSpec, pts: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Distance of each labeled point to its part's nearest analytic surface."""
    out = np.full(pts.shape[0], np.inf)
    parts = {LABEL_BACKGROUND: [spec.table], LABEL_OBJECT: spec.primitives, LABEL_ROBOT: spec.capsules}
    for label, prims in parts.items():
        sel = labels == label
        part = pts[sel]  # gathered once for all of the part's primitives
        out[sel] = np.min([prim.distance(part) for prim in prims], axis=0, initial=np.inf)
    return out


def _world_points(view: ViewRecord) -> tuple:
    """A view's valid pixels in the world frame and their part labels; its depth and coords are handed over."""
    pm = unproject(view.pop("coords"), view.pop("depth"))
    return view.pose_world.apply(pm.stacked()), np.take(view.labels, pm.index)


def validate_bundle(bundle: SceneBundle, tol: float = 1e-9) -> float:
    """Max distance of unprojected + pose-transformed pixels to the scene surfaces.

    Raises BundleError when the internal-consistency invariant is violated,
    or when a keypoint is at or behind a view's camera (see keypoints_2d).
    """
    check_number("tol", tol, lambda v: v >= 0, "finite and >= 0")
    bundle.keypoints_2d  # derived on first read, where a keypoint behind a camera fails
    worst = 0.0
    for i, view in enumerate(bundle.views):
        deviation = float(surface_distances(bundle.spec, *_world_points(view)).max(initial=0.0))  # NaN stays
        if not np.isfinite(deviation):
            raise BundleError(f"view {i}: deviation {deviation} from the analytic scene is not finite")
        worst = max(worst, deviation)
    if worst > tol:
        raise BundleError(f"bundle inconsistency: max deviation {worst:.3e} > {tol:.0e}")
    return worst
