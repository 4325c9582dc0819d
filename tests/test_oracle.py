"""Scene oracle: camera sampling, ray casting, bundles, mock predictor."""

import copy
import json
import math
import re
import shutil
import tempfile
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reconkit.camera import CoordMap, DepthMap, Intrinsics, coords_from_intrinsics, project, unproject
from reconkit.kinematics import keypoints_3d
from reconkit.losses import point_loss
from reconkit.masks import PART_NAMES, MaskSet, binarize
from reconkit.oracle import bundle as bundle_module
from reconkit.oracle import mock as mock_module
from reconkit.oracle.bundle import (
    BundleError,
    DtypeMismatchError,
    MalformedMetadataError,
    MissingMetadataError,
    PayloadValueError,
    SceneBundle,
    ShapeMismatchError,
    VersionMismatchError,
    default_chain,
    generate_scene,
    load_bundle,
    random_scene_spec,
    save_bundle,
    surface_distances,
    validate_bundle,
)
from reconkit.oracle.mock import (
    NoiseModel,
    _perturb_pose,
    ground_truth_heatmaps,
    mock_predict,
    synthesize_heatmaps,
)
from reconkit.oracle.raster import (
    HEADER,
    BadMagicError,
    RasterError,
    TruncatedRasterError,
    UnknownDtypeError,
    read_raster,
    write_raster,
)
from reconkit.masks import LABEL_BACKGROUND, LABEL_OBJECT, LABEL_ROBOT
from reconkit.oracle.scene import (
    RAY_EPS,
    RENDER_BAND,
    Box,
    CameraRanges,
    Capsule,
    SceneSpec,
    Sphere,
    Table,
    _window,
    chain_capsules,
    render,
    sample_camera,
)
from reconkit.pnp import soft_argmax
from reconkit.transforms import (
    RigidTransform,
    Similarity,
    register_views,
    relative_pose,
    rotation_about_axis,
    to_canonical,
)

CHI3_MEAN = np.sqrt(2.0) / 0.8862269254527580  # E||N(0, I3)|| = sqrt(2) Gamma(2)/Gamma(1.5)


def fixed_camera_ranges(radius=1.2, elevation=45.0, azimuth=30.0):
    return CameraRanges(
        radius=(radius, radius),
        elevation_deg=(elevation, elevation),
        azimuth_deg=(azimuth, azimuth),
        roll_deg=(0.0, 0.0),
        target_jitter=0.0,
        focal_jitter=0.0,
        center_jitter=0.0,
    )


class TestSampleCamera:
    def test_zero_ranges_deterministic_canonical(self):
        ranges = fixed_camera_ranges()
        center = np.array([0.2, 0.0, 0.1])
        k1, p1 = sample_camera(center, np.random.default_rng(0), ranges, 160, 120)
        k2, p2 = sample_camera(center, np.random.default_rng(99), ranges, 160, 120)
        np.testing.assert_array_equal(p1.matrix(), p2.matrix())
        assert (k1.fx, k1.fy, k1.cx, k1.cy) == (k2.fx, k2.fy, k2.cx, k2.cy)
        # looks at the center: the target projects to the principal point
        cam_pt = p1.inverse().apply(center)
        uv = project(cam_pt, k1)
        np.testing.assert_allclose(uv, [k1.cx, k1.cy], atol=1e-9)

    def test_target_always_in_image(self, rng):
        center = np.array([0.25, 0.0, 0.15])
        for _ in range(1000):
            k, pose = sample_camera(center, rng, CameraRanges(), 160, 120)
            uv = project(pose.inverse().apply(center), k)
            assert 0 <= uv[0] < k.width and 0 <= uv[1] < k.height

    def test_identical_seeds_identical_cameras(self):
        center = np.zeros(3)
        k1, p1 = sample_camera(center, np.random.default_rng(7), CameraRanges(), 64, 48)
        k2, p2 = sample_camera(center, np.random.default_rng(7), CameraRanges(), 64, 48)
        np.testing.assert_array_equal(p1.matrix(), p2.matrix())
        assert k1.fx == k2.fx and k1.cy == k2.cy

    def test_straight_down_takes_the_fallback_right_axis(self):
        # forward x (0, 0, 1) is ~1e-16 long here, so `right` comes from forward x (0, 1, 0)
        ranges = replace(CameraRanges(), elevation_deg=(90.0, 90.0), target_jitter=0.0)
        center = np.array([0.25, 0.0, 0.15])
        _, pose = sample_camera(center, np.random.default_rng(3), ranges, 64, 48)
        assert abs(np.linalg.det(pose.rotation) - 1.0) < 1e-12
        np.testing.assert_allclose(pose.rotation.T @ pose.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(pose.rotation[:, 2], [0.0, 0.0, -1.0], atol=1e-12)

    def test_range_must_be_a_pair(self):
        with pytest.raises(TypeError, match=re.escape("camera radius must be a (low, high) pair, got 0.5")):
            CameraRanges(radius=0.5)


def minimal_spec(primitives, camera, width=64, height=48, views=1):
    chain, kp = default_chain()
    return SceneSpec(
        table=Table(pose=RigidTransform.identity(), half_extents=np.array([5.0, 5.0])),
        primitives=tuple(primitives),
        chain=chain,
        keypoints=kp,
        joint_state=np.zeros(chain.dof),
        views=views,
        width=width,
        height=height,
        camera=camera,
    )


TILT = rotation_about_axis([1.0, 2.0, 3.0], 0.7)
# primitive, and the center and half-width of the cube its test rays aim into
SURFACE_CASES = {
    "sphere": (Sphere([0.4, 0.1, 0.08], 0.08), [0.4, 0.1, 0.08], 0.1),
    "rotated_box": (Box(RigidTransform(TILT, [0.3, -0.1, 0.2]), [0.05, 0.08, 0.03]), [0.3, -0.1, 0.2], 0.1),
    "capsule": (Capsule([0.0, 0.0, 0.2], [0.2, 0.1, 0.4], 0.05), [0.1, 0.05, 0.3], 0.15),
    "degenerate_capsule": (Capsule([0.1, 0.2, 0.3], [0.1, 0.2, 0.3], 0.05), [0.1, 0.2, 0.3], 0.06),
    "rotated_table": (Table(RigidTransform(TILT, [0.2, 0.0, -0.1]), [0.6, 0.4]), [0.2, 0.0, -0.1], 0.7),
}


class TestRender:
    @pytest.mark.parametrize("name", sorted(SURFACE_CASES))
    def test_hits_lie_on_surface(self, name):
        prim, center, half_width = SURFACE_CASES[name]
        rng = np.random.default_rng(3)
        direction = rng.normal(size=3)
        view = look_at(center + 4.0 * half_width * direction / np.linalg.norm(direction), center)
        # 50 x 40 rays (x, y, 1) toward the middle of the cube, which spans about +-0.44 at its distance
        x, y = rng.uniform(-0.25, 0.25, 50), rng.uniform(-0.25, 0.25, (40, 1))
        casts = [prim.cast_body, *(end.cast for end in prim.ends())] if isinstance(prim, Capsule) else [prim.cast]
        t = np.min([cast(view, x, y) for cast in casts], axis=0)
        hit = np.isfinite(t)
        assert hit.sum() > 200
        rays = np.stack(np.broadcast_arrays(x, y, 1.0), axis=-1)
        assert prim.distance(view.apply(t[hit, None] * rays[hit])).max() <= 1e-12

    def test_spec_rejects_non_object_primitive(self):
        with pytest.raises(TypeError, match="unknown primitive Capsule"):
            minimal_spec([SURFACE_CASES["capsule"][0]], fixed_camera_ranges())

    def test_fronto_parallel_plane_constant_depth(self):
        # camera 1 m straight above a huge table, looking straight down
        chain, kp = default_chain()
        spec = minimal_spec([], fixed_camera_ranges())
        k = Intrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)
        down = RigidTransform(
            np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]),
            np.array([2.0, 2.0, 1.0]),  # away from the arm at the origin
        )
        depth, labels = render(spec, k, down)
        table_px = labels == 3
        assert table_px.sum() > 1000
        np.testing.assert_allclose(depth[table_px], 1.0, atol=1e-12)

    def test_unit_sphere_center_depth(self):
        spec = minimal_spec(
            [Sphere(center=[4.0, 0.0, 1.0], radius=1.0)], fixed_camera_ranges()
        )
        k = Intrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)
        pose = RigidTransform(
            np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]),
            np.array([1.0, 0.0, 1.0]),
        )
        # optical axis +x toward the sphere center 3 m away
        depth, labels = render(spec, k, pose)
        assert labels[24, 32] == 2
        assert abs(depth[24, 32] - 2.0) < 1e-12

    def test_sphere_depth_matches_independent_quadratic(self, rng):
        sphere = Sphere(center=[0.4, 0.1, 0.08], radius=0.08)
        spec = minimal_spec([sphere], CameraRanges())
        seed_rng = np.random.default_rng(5)
        k, pose = sample_camera([0.4, 0.1, 0.08], seed_rng, CameraRanges(), 64, 48)
        depth, labels = render(spec, k, pose)
        coords = coords_from_intrinsics(k)
        ij = np.argwhere(labels == 2)
        assert len(ij) > 10
        picks = ij[rng.choice(len(ij), size=min(100, len(ij)), replace=False)]
        for v, u in picks:
            # independent reimplementation: normalized ray, geometric solution
            d_cam = np.array([coords.values[v, u, 0], coords.values[v, u, 1], 1.0])
            d_world = pose.rotation @ d_cam
            d_unit = d_world / np.linalg.norm(d_world)
            oc = sphere.center - pose.translation
            proj = oc @ d_unit
            perp2 = oc @ oc - proj**2
            thc = np.sqrt(sphere.radius**2 - perp2)
            t_geo = (proj - thc) / np.linalg.norm(d_world)  # back to z-depth units
            assert abs(depth[v, u] - t_geo) < 1e-9

    def test_generation_is_pure_function(self):
        spec = random_scene_spec(seed=11, views=2, width=64, height=48)
        b1 = generate_scene(spec, seed=11)
        b2 = generate_scene(spec, seed=11)
        for v1, v2 in zip(b1.views, b2.views):
            np.testing.assert_array_equal(v1.depth.values, v2.depth.values)
            np.testing.assert_array_equal(v1.coords.values, v2.coords.values)
            np.testing.assert_array_equal(v1.pose_world.matrix(), v2.pose_world.matrix())
        np.testing.assert_array_equal(b1.keypoints_2d, b2.keypoints_2d)

    @pytest.mark.parametrize("seed", range(10))
    def test_camera_search_falls_back_to_first_in_front_draw(self, seed):
        # at radius 0.3 the keypoints sit in front of every draw but never all 5% inside the frame
        spec = replace(random_scene_spec(seed, views=1, width=64, height=48), camera=CameraRanges(radius=(0.3, 0.3)))
        rng = np.random.default_rng(np.random.SeedSequence([0xCA3E4A, seed]))  # generate_scene's stream
        kp3d = keypoints_3d(spec.chain, spec.joint_state, spec.keypoints)
        draws = [sample_camera(spec.workspace_center, rng, spec.camera, 64, 48) for _ in range(64)]
        in_front = [(k, pose) for k, pose in draws if np.all(pose.inverse().apply(kp3d)[:, 2] > 0.05)]
        low = 0.05 * np.array([64, 48])
        for k, pose in in_front:
            uv = project(pose.inverse().apply(kp3d), k)
            assert not (np.all(uv >= low) and np.all(uv <= np.array([63, 47]) - low))
        k, pose = in_front[0]
        view = generate_scene(spec, seed).views[0]
        assert view.pose_world.matrix().tobytes() == pose.matrix().tobytes()
        assert (view.intrinsics.fx, view.intrinsics.fy, view.intrinsics.cx, view.intrinsics.cy) == (
            k.fx, k.fy, k.cx, k.cy)

    def test_camera_search_without_an_in_front_draw_raises(self):
        spec = replace(random_scene_spec(7, views=1, width=64, height=48), camera=CameraRanges(radius=(0.05, 0.05)))
        with pytest.raises(BundleError, match=re.escape("could not find a camera seeing all keypoints (seed 7)")):
            generate_scene(spec, 7)

    def test_bundle_self_consistency(self, small_bundles):
        for bundle in small_bundles:
            assert validate_bundle(bundle, tol=1e-9) < 1e-9


def full_frame_render(spec, k, pose):
    """Reference ray caster: every primitive against every ray of the frame, through the coords' x and y."""
    coords = coords_from_intrinsics(k).values
    x, y = coords[0, :, 0], coords[:, :1, 1]
    best = spec.table.cast(pose, x, y)
    labels = np.where(np.isfinite(best), LABEL_BACKGROUND, 0).astype(np.uint8)
    casts = [(p.cast, LABEL_OBJECT) for p in spec.primitives]
    for capsule in chain_capsules(spec):
        casts += [(capsule.cast_body, LABEL_ROBOT)] + [(end.cast, LABEL_ROBOT) for end in capsule.ends()]
    for cast, label in casts:
        t = cast(pose, x, y)
        closer = t < best
        best = np.where(closer, t, best)
        labels[closer] = label
    return np.where(np.isfinite(best), best, 0.0), labels


def assert_matches_full_frame(spec, k, pose):
    depth, labels = render(spec, k, pose)
    ref_depth, ref_labels = full_frame_render(spec, k, pose)
    assert depth.tobytes() == ref_depth.tobytes()
    np.testing.assert_array_equal(labels, ref_labels)
    return labels


def look_at(eye, target) -> RigidTransform:
    eye = np.asarray(eye, dtype=float)
    forward = np.asarray(target, dtype=float) - eye
    forward /= np.linalg.norm(forward)
    right = np.cross(forward, [0.0, 0.0, 1.0])
    if np.linalg.norm(right) < 1e-9:
        right = np.cross(forward, [0.0, 1.0, 0.0])
    right /= np.linalg.norm(right)
    return RigidTransform(np.stack([right, np.cross(forward, right), forward], axis=1), eye)


# optical axis along world +x, 1 m above the table; camera y is world -z
HORIZONTAL = RigidTransform(
    np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]), np.array([-3.0, 0.0, 1.0])
)
WIDE = Intrinsics(fx=40.0, fy=40.0, cx=32.0, cy=24.0, width=64, height=48)
FULL_FRAME = (slice(0, 48), slice(0, 64))


def camera_seeing(point_cam, world_point) -> RigidTransform:
    """A camera with HORIZONTAL's rotation that sees world_point at camera-frame point_cam."""
    return RigidTransform(HORIZONTAL.rotation, world_point - HORIZONTAL.rotation @ point_cam)
NARROW = Intrinsics(fx=200.0, fy=200.0, cx=32.0, cy=24.0, width=64, height=48)


def tangent_at_column(u, side, dist, radius) -> np.ndarray:
    """Camera-frame center of a sphere whose tangent (side = -1: right, 1: left) or center (0) is on WIDE's column u."""
    theta = math.atan((u - WIDE.cx) / WIDE.fx) + side * math.asin(radius / dist)
    return dist * np.array([math.sin(theta), 0.0, math.cos(theta)])


def window_area(window) -> int:
    rows, cols = window
    return (rows.stop - rows.start) * (cols.stop - cols.start)


class TestCulledRender:
    """`render` casts each primitive inside its screen window only; the bits must not change."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 80),
        height=st.integers(1, 60),
        near=st.booleans(),
    )
    @example(seed=0, width=1, height=1, near=False)
    @example(seed=1, width=2, height=2, near=True)
    @example(seed=2, width=5, height=3, near=False)
    @example(seed=3, width=5, height=3, near=True)
    def test_matches_full_frame(self, seed, width, height, near):
        spec = random_scene_spec(seed, views=1, width=width, height=height)
        # near cameras sit among the primitives, so bounds often reach the camera plane
        ranges = CameraRanges(radius=(0.05, 0.5)) if near else spec.camera
        k, pose = sample_camera(spec.workspace_center, np.random.default_rng(seed), ranges, width, height)
        assert_matches_full_frame(spec, k, pose)

    def test_camera_inside_capsule_bound_uses_whole_frame(self):
        spec = minimal_spec([], fixed_camera_ranges(), width=64, height=48)
        cap = max(chain_capsules(spec), key=lambda c: np.linalg.norm(c.p1 - c.p0))
        # its bounding sphere, which holds both ends
        center, radius = 0.5 * (cap.p0 + cap.p1), 0.5 * np.linalg.norm(cap.p1 - cap.p0) + cap.radius
        axis = (cap.p1 - cap.p0) / np.linalg.norm(cap.p1 - cap.p0)
        side = np.cross(axis, [1.0, 0.0, 0.0])
        eye = center + 2.0 * cap.radius * side / np.linalg.norm(side)
        assert cap.radius < np.linalg.norm(eye - center) < radius
        pose = look_at(eye, cap.p1)
        assert _window(((center, radius),), WIDE, pose) == FULL_FRAME
        assert _window(cap.hull(), WIDE, pose) == FULL_FRAME
        labels = assert_matches_full_frame(spec, WIDE, pose)
        assert np.any(labels == LABEL_ROBOT)

    @pytest.mark.parametrize("seed,cylinders", [(2, 4), (3, 3), (111, 2)])
    def test_spheres_behind_the_camera_skipped(self, monkeypatch, seed, cylinders):
        # near cameras of these seeds have capsule end spheres wholly behind them, and for 3 and 111 both
        # ends of one capsule; such a sphere has no window, and a cylinder is cast only where its hull has
        # one (at 111 another capsule's hull is off-frame too)
        spec = random_scene_spec(seed, views=1, width=64, height=48)
        k, pose = sample_camera(spec.workspace_center, np.random.default_rng(seed), CameraRanges(radius=(0.25, 0.6)),
                                64, 48)
        ends = [end for cap in spec.capsules for end in cap.ends()]
        behind = [end for end in ends if pose.inverse().apply(end.center)[2] + end.radius <= RAY_EPS]
        assert behind and all(_window(end.hull(), k, pose) is None for end in behind)
        cast = []
        cast_body = Capsule.cast_body
        monkeypatch.setattr(Capsule, "cast_body", lambda self, *args: cast.append(self) or cast_body(self, *args))
        render(spec, k, pose)
        assert len(cast) == cylinders == sum(_window(cap.hull(), k, pose) is not None for cap in spec.capsules)
        monkeypatch.undo()
        assert_matches_full_frame(spec, k, pose)

    def test_sphere_straddling_camera_plane(self):
        sphere = Sphere(HORIZONTAL.apply(np.array([0.4, 0.0, 0.1])), 0.35)
        spec = minimal_spec([sphere], fixed_camera_ranges())
        assert _window(sphere.hull(), WIDE, HORIZONTAL) == FULL_FRAME
        labels = assert_matches_full_frame(spec, WIDE, HORIZONTAL)
        assert np.any(labels == LABEL_OBJECT)

    def test_offscreen_primitive_skipped(self):
        sphere = Sphere(HORIZONTAL.apply(np.array([3.0, 0.0, 1.0])), 0.1)
        spec = minimal_spec([sphere], fixed_camera_ranges())
        assert _window(sphere.hull(), WIDE, HORIZONTAL) is None
        labels = assert_matches_full_frame(spec, WIDE, HORIZONTAL)
        assert not np.any(labels == LABEL_OBJECT)

    @pytest.mark.parametrize(
        "u,side,cols",
        [
            (-1.5, -1, slice(0, 1)),  # right tangent just left of the frame: the first column alone
            (64.5, 1, slice(63, 64)),  # left tangent just right of the frame: the last column alone
            (0.0, 0, None),  # centered on the first column
            (63.0, 0, None),  # centered on the last column
        ],
    )
    def test_window_clipped_to_edge_column(self, u, side, cols):
        # put the sphere's tangent (side = -1: right, 1: left) or center (0) on pixel column u
        radius = 0.2
        sphere = Sphere(HORIZONTAL.apply(tangent_at_column(u, side, 2.0, radius)), radius)
        spec = minimal_spec([sphere], fixed_camera_ranges())
        rows, window_cols = _window(sphere.hull(), WIDE, HORIZONTAL)
        labels = assert_matches_full_frame(spec, WIDE, HORIZONTAL)
        if cols is not None:
            assert window_cols == cols
            assert not np.any(labels == LABEL_OBJECT)
        else:
            assert int(u) in range(window_cols.start, window_cols.stop)
            assert window_cols.start == 0 or window_cols.stop == WIDE.width
            assert np.any(labels[:, int(u)] == LABEL_OBJECT)

    def test_table_corner_behind_camera_uses_whole_frame(self):
        spec = minimal_spec([], fixed_camera_ranges())
        assert HORIZONTAL.inverse().apply([-5.0, 5.0, 0.0])[2] < 0  # a corner of the 10 x 10 m table
        assert _window(spec.table.hull(), WIDE, HORIZONTAL) == FULL_FRAME
        labels = assert_matches_full_frame(spec, WIDE, HORIZONTAL)
        assert np.any(labels == LABEL_BACKGROUND)

    def test_table_behind_the_view_skipped(self):
        # looking up and away from a 1 x 1 m table that lies wholly in front of the camera plane
        spec = replace(minimal_spec([], fixed_camera_ranges()), table=Table(RigidTransform.identity(), [0.5, 0.5]))
        pose = look_at([-1.5, 0.0, 0.3], [0.0, 0.0, 1.5])
        assert _window(spec.table.hull(), WIDE, pose) is None
        labels = assert_matches_full_frame(spec, WIDE, pose)
        assert not np.any(labels == LABEL_BACKGROUND)

    def test_capsule_with_one_end_offscreen(self):
        # 0.3 m beside the top of the vertical base link, looking along +x: its foot is out of view
        spec = minimal_spec([], fixed_camera_ranges())
        cap = chain_capsules(spec)[0]
        pose = camera_seeing(np.array([0.0, 0.0, 0.3]), cap.p1)
        foot, top = cap.ends()
        assert _window(foot.hull(), NARROW, pose) is None
        assert _window(top.hull(), NARROW, pose) is not None
        labels = assert_matches_full_frame(spec, NARROW, pose)
        assert np.any(labels[-1] == LABEL_ROBOT)  # the body runs off the bottom of the frame

    def test_capsule_seen_end_on(self):
        spec = minimal_spec([], fixed_camera_ranges())
        cap = chain_capsules(spec)[-1]
        axis = (cap.p1 - cap.p0) / np.linalg.norm(cap.p1 - cap.p0)
        pose = look_at(cap.p1 + 0.4 * axis + [0.0, 2e-3, 0.0], cap.p0)
        labels = assert_matches_full_frame(spec, WIDE, pose)
        assert labels[24, 32] == LABEL_ROBOT

    @pytest.mark.parametrize("u,side,cols", [(-1.5, -1, slice(0, 1)), (64.5, 1, slice(63, 64))])
    def test_capsule_end_window_clipped_to_edge_column(self, u, side, cols):
        spec = minimal_spec([], fixed_camera_ranges())
        end = chain_capsules(spec)[-1].ends()[1]
        pose = camera_seeing(tangent_at_column(u, side, 1.0, end.radius), end.center)
        assert _window(end.hull(), WIDE, pose)[1] == cols
        assert_matches_full_frame(spec, WIDE, pose)

    @pytest.mark.parametrize("u,cols", [(-1.5, slice(0, 1)), (64.5, slice(63, 64))])
    def test_table_window_clipped_to_edge_column(self, u, cols):
        # a 1 x 1 m table 2.5 to 3.5 m ahead and 1 m below HORIZONTAL; its far corner nearest the frame is on column u
        edge_y = -(u - WIDE.cx) / WIDE.fx * 3.5
        table = Table(RigidTransform(np.eye(3), [0.0, edge_y + math.copysign(0.5, edge_y), 0.0]), [0.5, 0.5])
        spec = replace(minimal_spec([], fixed_camera_ranges()), table=table)
        assert _window(table.hull(), WIDE, HORIZONTAL)[1] == cols
        labels = assert_matches_full_frame(spec, WIDE, HORIZONTAL)
        assert not np.any(labels == LABEL_BACKGROUND)

    def test_casts_stay_in_their_windows(self, monkeypatch):
        # seed 2 has a sphere, a box and a capsule with one end off-frame
        spec = random_scene_spec(2, views=1, width=160, height=120)
        k, pose = sample_camera(spec.workspace_center, np.random.default_rng(2), spec.camera, 160, 120)
        received = {}  # surface -> pixels its cast was given, summed over its bands
        band_rows = []
        for cls, name in ((Sphere, "cast"), (Box, "cast"), (Table, "cast"), (Capsule, "cast_body")):
            def record(self, view, x, y, cast=getattr(cls, name)):
                received[self] = received.get(self, 0) + x.size * y.size
                band_rows.append(y.shape[0])
                return cast(self, view, x, y)

            monkeypatch.setattr(cls, name, record)
        render(spec, k, pose)
        assert max(band_rows) <= RENDER_BAND
        # each cast covers exactly its surface's window, and every surface that has one is cast
        for surface, n in received.items():
            assert n == window_area(_window(surface.hull(), k, pose))
        surfaces = [spec.table, *spec.primitives, *(s for cap in spec.capsules for s in (cap, *cap.ends()))]
        assert len(received) == sum(_window(s.hull(), k, pose) is not None for s in surfaces)
        # a cylinder's window lies inside its capsule's bounding-sphere window, also with one end off-frame
        one_end_off = 0
        for cap in spec.capsules:
            body = _window(cap.hull(), k, pose)
            bound = ((0.5 * (cap.p0 + cap.p1), 0.5 * np.linalg.norm(cap.p1 - cap.p0) + cap.radius),)
            assert body is not None
            assert all(o.start <= b.start and b.stop <= o.stop for b, o in zip(body, _window(bound, k, pose)))
            one_end_off += any(_window(end.hull(), k, pose) is None for end in cap.ends())
        assert one_end_off > 0
        [table_pixels] = [n for s, n in received.items() if isinstance(s, Table)]
        assert 0 < table_pixels < k.width * k.height


def zero_length_link_spec(seed: int) -> SceneSpec:
    """random_scene_spec(seed) with default_chain's last joint origin the identity: its last link has zero length."""
    spec = random_scene_spec(seed, views=2, width=64, height=48)
    *joints, last = spec.chain.joints
    chain = replace(spec.chain, joints=(*joints, replace(last, origin=RigidTransform.identity())))
    return replace(spec, chain=chain)


class TestZeroLengthLink:
    """A zero-length link's capsule is its end sphere: no cylinder, no nudged axis."""

    @pytest.mark.parametrize("seed", range(6))
    def test_renders_and_validates(self, seed):
        spec = zero_length_link_spec(seed)
        capsule = chain_capsules(spec)[-1]
        np.testing.assert_array_equal(capsule.p0, capsule.p1)
        bundle = generate_scene(spec, seed)
        for view in bundle.views:
            assert_matches_full_frame(spec, view.intrinsics, view.pose_world)
        assert validate_bundle(bundle, tol=1e-9) <= 1e-9


class TestCanonicalChain:
    def test_unproject_register_canonicalize_hits_surfaces(self, small_bundles):
        for bundle in small_bundles:
            locals_ = [unproject(v.coords, v.depth) for v in bundle.views]
            rels = [
                relative_pose(bundle.views[0].pose_world, v.pose_world)
                for v in bundle.views
            ]
            cano = to_canonical(register_views(locals_, rels), bundle.similarity)
            for view, pm in zip(bundle.views, cano):
                labels = binarize(view.masks)[pm.valid]
                d = surface_distances(bundle.spec, pm.values[pm.valid], labels)
                assert d.max() < 1e-9

    def test_canonical_matches_world_points(self, small_bundle):
        # with the oracle similarity, canonical coordinates equal world coords
        view = small_bundle.views[1]
        local = unproject(view.coords, view.depth)
        rel = relative_pose(small_bundle.views[0].pose_world, view.pose_world)
        cano = to_canonical(register_views([local], [rel]), small_bundle.similarity)[0]
        world = view.pose_world.apply(local.values[local.valid])
        np.testing.assert_allclose(cano.values[cano.valid], world, atol=1e-9)


class TestMockPredict:
    @pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["depth_sigma", "rotation_sigma", "mask_flip_rate"])
    def test_noise_rejects_negative_and_nonfinite(self, name, value):
        with pytest.raises(ValueError, match=name):
            NoiseModel(**{name: value})

    def test_zero_noise_bit_exact(self, small_bundle):
        pred = mock_predict(small_bundle, NoiseModel(), seed=3)
        for p, v in zip(pred.depths, small_bundle.views):
            np.testing.assert_array_equal(p.values, v.depth.values)
        for p, v in zip(pred.masks, small_bundle.views):
            np.testing.assert_array_equal(p.stacked(), v.masks.stacked())
        np.testing.assert_array_equal(
            pred.similarity.rigid.matrix(), small_bundle.similarity.rigid.matrix()
        )
        assert pred.similarity.scale == small_bundle.similarity.scale

    @pytest.mark.parametrize("flip_rate", [0.0, 0.3])
    def test_no_mask_stack_built(self, small_bundle, monkeypatch, flip_rate):
        from reconkit.masks import MaskSet

        def stacked(self):
            raise AssertionError("mock_predict stacked a mask set")

        monkeypatch.setattr(MaskSet, "stacked", stacked)
        pred = mock_predict(small_bundle, NoiseModel(mask_flip_rate=flip_rate), seed=3)
        assert len(pred.masks) == len(small_bundle.views)

    def test_zero_noise_losses_and_metrics(self, small_bundle):
        from reconkit.pipeline import evaluate_losses_scene, evaluate_pointmap_scene

        terms = evaluate_losses_scene(small_bundle, NoiseModel(), seed=0)
        assert terms["point"] == 0.0
        assert terms["normal"] == 0.0
        assert terms["mask"] <= 1e-6
        assert terms["relative_pose"] == 0.0
        assert terms["similarity"] == 0.0
        assert terms["keypoint"] == 0.0
        report = evaluate_pointmap_scene(small_bundle, NoiseModel(), seed=0)
        assert (report.point_err, report.normal_err, report.scale_err) == (0.0, 0.0, 0.0)

    def test_scale_err_reads_the_ground_truth_scale(self):
        """scale_err is relative to the bundle's own scale, so a ground-truth scale of 2 is not read as 1."""
        from reconkit.pipeline import evaluate_pointmap_scene

        bundle = generate_scene(random_scene_spec(seed=1, views=2, width=64, height=48), seed=1)
        bundle.__dict__["similarity"] = Similarity(2.0, bundle.views[0].pose_world)  # the cached property's value
        noise = NoiseModel(scale_sigma=0.1)
        want = abs(mock_predict(bundle, noise, 3).similarity.scale - 2.0) / 2.0
        assert evaluate_pointmap_scene(bundle, noise, 3).scale_err == want

    @pytest.mark.parametrize(
        "head,field,sigma",
        [("depths", "depth", "depth_sigma"), ("coords", "coords", "coord_sigma"), ("masks", "masks", "mask_flip_rate")],
    )
    def test_zero_sigma_head_is_the_bundle_map(self, small_bundle, head, field, sigma):
        """At sigma 0 a view head is the bundle's own map object, whatever the other sigmas are."""
        pred = mock_predict(small_bundle, replace(self.ALL_NOISE, **{sigma: 0.0}), seed=3)
        for i, view in enumerate(small_bundle.views):
            assert getattr(pred, head)[i] is getattr(view, field)

    def test_zero_scale_sigma_keeps_the_bundle_scale(self):
        """At scale_sigma 0 the predicted scale is the bundle's own, exactly, whatever the other sigmas are."""
        bundle = generate_scene(random_scene_spec(seed=1, views=2, width=64, height=48), seed=1)
        bundle.__dict__["similarity"] = Similarity(2.0, bundle.views[0].pose_world)  # the cached property's value
        assert mock_predict(bundle, replace(self.ALL_NOISE, scale_sigma=0.0), 3).similarity.scale == 2.0

    # every sigma nonzero, heatmap_blur included, so each head is perturbed
    ALL_NOISE = NoiseModel(
        depth_sigma=0.002, coord_sigma=0.0005, translation_sigma=0.01, rotation_sigma=0.005,
        scale_sigma=0.01, heatmap_blur=0.5, mask_flip_rate=0.05,
    )
    LOSS_TERMS_REPR = {
        "point": "0.0009569011950438664",
        "normal": "0.15144958951021417",
        "mask": "0.7926130453014177",
        "relative_pose": "0.004308978808840214",
        "similarity": "0.003193575809237197",
        "keypoint": "0.00294151798595147",
        "total": "0.9613466445826075",
    }

    def test_noisy_loss_terms_pinned(self, small_bundle):
        from reconkit.losses import LossWeights
        from reconkit.pipeline import evaluate_losses_scene

        weights = LossWeights(alpha=0.5, gamma=2.0, lambda6=3.0)
        terms = evaluate_losses_scene(small_bundle, self.ALL_NOISE, seed=7, weights=weights)
        assert {name: repr(value) for name, value in terms.items()} == self.LOSS_TERMS_REPR

    def test_identical_seeds_identical_predictions(self, small_bundle):
        noise = NoiseModel(depth_sigma=0.002, translation_sigma=0.01, mask_flip_rate=0.05)
        p1 = mock_predict(small_bundle, noise, seed=9)
        p2 = mock_predict(small_bundle, noise, seed=9)
        np.testing.assert_array_equal(p1.depths[0].values, p2.depths[0].values)
        np.testing.assert_array_equal(p1.masks[1].stacked(), p2.masks[1].stacked())
        np.testing.assert_array_equal(
            p1.rel_poses[1].matrix(), p2.rel_poses[1].matrix()
        )

    def test_rte_concentrates_at_analytic_chi3_mean(self, small_bundles):
        sigma = 0.01
        noise = NoiseModel(translation_sigma=sigma)
        rtes = []
        for bundle in small_bundles:
            for seed in range(40):
                pred = mock_predict(bundle, noise, seed=seed)
                rel_gt = relative_pose(
                    bundle.views[0].pose_world, bundle.views[1].pose_world
                )
                rtes.append(
                    np.linalg.norm(pred.rel_poses[1].translation - rel_gt.translation)
                )
        expected = sigma * CHI3_MEAN
        observed = np.mean(rtes)
        # std of chi_3 is ~0.67 sigma, so allow 5 standard errors
        assert abs(observed - expected) < 5 * sigma * 0.68 / np.sqrt(len(rtes))

    def test_noise_scales_monotonically_per_seed(self, small_bundle):
        # same seed => same standard draws => error strictly scales with sigma
        errs = []
        for sigma in (0.001, 0.002, 0.004):
            pred = mock_predict(small_bundle, NoiseModel(depth_sigma=sigma), seed=4)
            errs.append(
                point_loss(
                    unproject(pred.coords[0], pred.depths[0]),
                    unproject(small_bundle.views[0].coords, small_bundle.views[0].depth),
                )
            )
        assert errs[0] < errs[1] < errs[2]

    def test_handed_over_head_is_made_again_bit_for_bit(self, small_bundle):
        raw = {"depths": lambda d: d.values.tobytes(), "coords": lambda c: c.values.tobytes(),
               "masks": lambda m: m.stacked().tobytes(), "heatmaps": np.ndarray.tobytes,
               "keypoints_2d": np.ndarray.tobytes}
        pred = mock_predict(small_bundle, self.ALL_NOISE, seed=3)
        for head, bits in raw.items():
            views = getattr(pred, head)
            first = views.pop(1)
            assert views[1] is not first and bits(views[1]) == bits(first)

    def test_heatmaps_peak_at_keypoints(self, small_bundle):
        gt_hm = ground_truth_heatmaps(small_bundle)
        gt_kp = [soft_argmax(hm) for hm in gt_hm]
        for hm, kp, stored in zip(gt_hm, gt_kp, small_bundle.keypoints_2d):
            in_image = (
                (stored[:, 0] > 8)
                & (stored[:, 0] < small_bundle.spec.width - 8)
                & (stored[:, 1] > 8)
                & (stored[:, 1] < small_bundle.spec.height - 8)
            )
            assert np.abs(kp[in_image] - stored[in_image]).max() < 0.05


def assert_heatmaps_are_the_one_expression(keypoints, width, height, sigma):
    """synthesize_heatmaps equals its formula spelled out as one expression, bit for bit and stride for stride."""
    kp = np.asarray(keypoints, dtype=float)
    du2 = (np.arange(width, dtype=float)[None, :] - kp[:, 0][:, None]) ** 2
    dv2 = (np.arange(height, dtype=float)[None, :] - kp[:, 1][:, None]) ** 2
    want = np.moveaxis(np.exp(-(dv2[:, :, None] + du2[:, None, :]) / (2.0 * sigma * sigma)), 0, -1)
    got = synthesize_heatmaps(keypoints, width, height, sigma)
    assert (got.shape, got.strides, got.dtype) == (want.shape, want.strides, want.dtype)
    assert got.tobytes() == want.tobytes()


class TestHeatmapSynthesis:
    """Heatmaps are formed in one buffer with the expression's bits; ground truth is made per view."""

    @settings(max_examples=80, deadline=None)
    @given(
        keypoints=st.lists(st.tuples(st.floats(-40.0, 120.0), st.floats(-40.0, 100.0)), min_size=1, max_size=9),
        width=st.integers(1, 90),
        height=st.integers(1, 70),
        sigma=st.floats(0.25, 12.0),
    )
    @example(keypoints=[(-5.0, 3.5), (700.0, -80.0), (314.25, 237.5)], width=630, height=476, sigma=3.0)
    @example(keypoints=[(0.0, 0.0)], width=1, height=1, sigma=3.5)
    def test_is_the_one_expression(self, keypoints, width, height, sigma):
        assert_heatmaps_are_the_one_expression(keypoints, width, height, sigma)

    def test_drawn_keypoints(self, small_bundles):
        for bundle in small_bundles:
            for kp, blur in zip(bundle.keypoints_2d, (0.0, 0.5)):  # the ground-truth and a blurred predicted width
                assert_heatmaps_are_the_one_expression(kp, bundle.spec.width, bundle.spec.height,
                                                       mock_module.HEATMAP_SIGMA + blur)

    def test_ground_truth_view_made_alone(self, small_bundle, monkeypatch):
        calls = []
        synthesize = mock_module.synthesize_heatmaps
        monkeypatch.setattr(mock_module, "synthesize_heatmaps", lambda *args: calls.append(args) or synthesize(*args))
        gt = ground_truth_heatmaps(small_bundle)
        assert calls == [] and len(gt) == 2
        hm = gt[1]
        assert len(calls) == 1 and gt[-1] is hm
        spec = small_bundle.spec
        want = synthesize(small_bundle.keypoints_2d[1], spec.width, spec.height, mock_module.HEATMAP_SIGMA)
        assert hm.tobytes() == want.tobytes()
        first, second = gt
        assert second is hm and gt[0] is first and len(calls) == 2


class TestLazyViewsIndex:
    """LazyViews(n, build): entry i is build(i), made once, for an integer index only."""

    @pytest.fixture
    def built(self):
        return []

    @pytest.fixture
    def views(self, built):
        return mock_module.LazyViews(3, lambda i: built.append(i) or [i])

    def test_each_entry_built_once(self, views, built):
        assert built == []
        first = views[1]
        assert views[1] is first and views[-2] is first and views[np.int64(1)] is first
        assert list(views) == [[0], [1], [2]]
        assert built == [1, 0, 2]

    @pytest.mark.parametrize("i", [3, -4, 100])
    def test_index_past_the_end(self, views, built, i):
        with pytest.raises(IndexError):
            views[i]
        assert built == [] and len(views) == 3

    @pytest.mark.parametrize("i", [slice(0, 2), 1.0, "0"])
    def test_non_integer_index(self, views, built, i):
        with pytest.raises(TypeError):
            views[i]
        assert built == []

    def test_pop_hands_an_entry_over(self, views, built):
        first = views[1]
        assert views.pop(1) is first and views.pop(-3) == [0]  # a kept entry, then one made for the hand-over
        assert built == [1, 0]
        again = views[1]
        assert again == first and again is not first and views[1] is again
        assert views.pop(np.int64(1)) is again and built == [1, 0, 1]
        assert list(views) == [[0], [1], [2]] and built == [1, 0, 1, 0, 1, 2]

    @pytest.mark.parametrize("i", [3, -4, slice(0, 2)])
    def test_pop_takes_an_index_of_an_entry(self, views, built, i):
        with pytest.raises((IndexError, TypeError)):
            views.pop(i)
        assert built == []


class TestLazyKeypointHeads:
    """The predicted heatmap/keypoint head is built on first access only."""

    NOISE = NoiseModel(depth_sigma=0.002, translation_sigma=0.01, heatmap_blur=0.5)

    @pytest.fixture
    def calls(self, monkeypatch):
        from reconkit.oracle import mock

        counts = {"synthesize_heatmaps": 0, "soft_argmax": 0}

        def counted(name):
            original = getattr(mock, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in counts:
            monkeypatch.setattr(mock, name, counted(name))
        return counts

    def test_eval_steps_never_build_heads(self, small_bundle, tmp_path, calls):
        from reconkit.cli import main
        from reconkit.pipeline import RunConfig, evaluate_pointmap_scene, evaluate_pose_scene

        evaluate_pointmap_scene(small_bundle, self.NOISE, seed=1)
        evaluate_pose_scene(small_bundle, self.NOISE, 1, RunConfig(noise=self.NOISE))
        save_bundle(tmp_path / "scene", small_bundle)
        assert main(["compose-points", "--bundle", str(tmp_path / "scene"), "--noise-heatmap-blur",
                     "0.5", "--out", str(tmp_path / "composed")]) == 0
        assert calls == {"synthesize_heatmaps": 0, "soft_argmax": 0}

    def test_first_access_builds_cached_heads(self, small_bundle, calls):
        spec = small_bundle.spec
        pred = mock_predict(small_bundle, self.NOISE, seed=1)
        assert calls == {"synthesize_heatmaps": 0, "soft_argmax": 0}
        heatmaps = pred.heatmaps
        assert len(heatmaps) == len(small_bundle.views)
        for hm, kp in zip(heatmaps, small_bundle.keypoints_2d):
            expected = synthesize_heatmaps(kp, spec.width, spec.height, mock_module.HEATMAP_SIGMA + 0.5)
            np.testing.assert_array_equal(hm, expected)
        keypoints = pred.keypoints_2d
        for kp, hm in zip(keypoints, heatmaps):
            np.testing.assert_array_equal(kp, soft_argmax(hm))
        assert calls == {"synthesize_heatmaps": 2, "soft_argmax": 2}
        assert pred.heatmaps is heatmaps and pred.keypoints_2d is keypoints
        assert all(a is b for a, b in zip(pred.heatmaps, heatmaps))
        assert calls == {"synthesize_heatmaps": 2, "soft_argmax": 2}

    def test_heads_are_built_per_view(self, small_bundle, calls):
        pred = mock_predict(small_bundle, self.NOISE, seed=1)
        keypoints = pred.keypoints_2d[0]
        assert calls == {"synthesize_heatmaps": 1, "soft_argmax": 1}
        np.testing.assert_array_equal(keypoints, soft_argmax(pred.heatmaps[0]))  # view 0's cached heatmap
        pred.heatmaps[1]
        assert calls == {"synthesize_heatmaps": 2, "soft_argmax": 1}


class TestBundleIO:
    def _assert_bit_exact(self, a: SceneBundle, b: SceneBundle):
        assert a.seed == b.seed
        assert a.similarity.scale == b.similarity.scale
        np.testing.assert_array_equal(
            a.similarity.rigid.matrix(), b.similarity.rigid.matrix()
        )
        np.testing.assert_array_equal(a.keypoints_3d, b.keypoints_3d)
        np.testing.assert_array_equal(a.keypoints_2d, b.keypoints_2d)
        np.testing.assert_array_equal(a.spec.joint_state, b.spec.joint_state)
        assert len(a.views) == len(b.views)
        for va, vb in zip(a.views, b.views):
            np.testing.assert_array_equal(va.depth.values, vb.depth.values)
            np.testing.assert_array_equal(va.depth.valid, vb.depth.valid)
            np.testing.assert_array_equal(va.coords.values, vb.coords.values)
            np.testing.assert_array_equal(va.masks.stacked(), vb.masks.stacked())
            np.testing.assert_array_equal(va.pose_world.matrix(), vb.pose_world.matrix())
            np.testing.assert_array_equal(va.labels, vb.labels)
            assert va.intrinsics.fx == vb.intrinsics.fx
            assert va.intrinsics.cy == vb.intrinsics.cy
        assert a.spec.capsule_radius == b.spec.capsule_radius
        assert len(a.spec.primitives) == len(b.spec.primitives)

    def test_round_trip_bit_exact(self, small_bundles, tmp_path):
        for i, bundle in enumerate(small_bundles):
            path = tmp_path / f"scene_{i}"
            save_bundle(path, bundle)
            self._assert_bit_exact(load_bundle(path), bundle)

    def test_double_round_trip_identical_bytes(self, small_bundle, tmp_path):
        save_bundle(tmp_path / "a", small_bundle)
        save_bundle(tmp_path / "b", load_bundle(tmp_path / "a"))
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_stores_only_depth_and_labels(self, small_bundle, tmp_path):
        save_bundle(tmp_path / "s", small_bundle)
        assert sorted(f.name for f in (tmp_path / "s").iterdir()) == [
            "chain.json", "meta.json", "view_0_depth.r3rb", "view_0_labels.r3rb",
            "view_1_depth.r3rb", "view_1_labels.r3rb",
        ]
        meta = json.loads((tmp_path / "s" / "meta.json").read_text())
        assert meta["format_version"] == 4
        # derived (keypoints, similarity, file names, the scene's view count and image size) or fixed, not stored
        assert sorted(meta) == ["format_version", "joint_state", "scene", "seed", "views"]
        assert [sorted(view) for view in meta["views"]] == [["intrinsics", "pose_world"]] * 2
        assert not {"views", "width", "height", "heatmap_sigma"}.intersection(meta["scene"])
        assert read_raster(tmp_path / "s" / "view_1_labels.r3rb").dtype == np.uint8

    def test_truncated_raster_reports_byte_offset(self, small_bundle, tmp_path):
        save_bundle(tmp_path / "s", small_bundle)
        target = tmp_path / "s" / "view_0_depth.r3rb"
        data = target.read_bytes()
        target.write_bytes(data[: len(data) // 2])
        with pytest.raises(TruncatedRasterError, match=r"byte \d+"):
            load_bundle(tmp_path / "s")

    def test_bad_magic(self, small_bundle, tmp_path):
        save_bundle(tmp_path / "s", small_bundle)
        target = tmp_path / "s" / "view_0_labels.r3rb"
        data = bytearray(target.read_bytes())
        data[:4] = b"XXXX"
        target.write_bytes(bytes(data))
        with pytest.raises(BadMagicError, match="magic"):
            load_bundle(tmp_path / "s")

    def test_missing_metadata(self, small_bundle, tmp_path):
        save_bundle(tmp_path / "s", small_bundle)
        (tmp_path / "s" / "meta.json").unlink()
        with pytest.raises(MissingMetadataError, match="meta.json"):
            load_bundle(tmp_path / "s")

    @pytest.mark.parametrize(
        "keys",
        [("seed",), ("scene", "table", "pose"), ("views", 0, "intrinsics", "fx"), ("scene", "camera", "roll_deg"),
         "every"],
    )
    def test_missing_metadata_key_named(self, small_bundle, tmp_path, keys):
        """A dropped meta.json key fails at load, naming it; "every" drops each key the saved bundle holds in turn
        but format_version (a VersionMismatchError), so no key is optional, CameraRanges' defaulted fields included."""
        save_bundle(tmp_path / "s", small_bundle)
        text = (tmp_path / "s" / "meta.json").read_text()
        every = [path for path in key_paths(json.loads(text)) if path != ("format_version",)]
        for path in every if keys == "every" else [keys]:
            meta = json.loads(text)
            parent = meta
            for key in path[:-1]:
                parent = parent[key]
            del parent[path[-1]]
            (tmp_path / "s" / "meta.json").write_text(json.dumps(meta))
            with pytest.raises(MissingMetadataError, match=rf"meta\.json: missing key '{path[-1]}'"):
                load_bundle(tmp_path / "s")

    def test_version_mismatch(self, small_bundle, tmp_path):
        import json

        save_bundle(tmp_path / "s", small_bundle)
        meta = json.loads((tmp_path / "s" / "meta.json").read_text())
        meta["format_version"] = 99
        (tmp_path / "s" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(VersionMismatchError, match="99"):
            load_bundle(tmp_path / "s")

    @staticmethod
    def save_format_3(path, bundle) -> dict:
        """Save bundle at path, its meta.json holding what format 3 stored beside format 4's keys; return it."""
        save_bundle(path, bundle)
        meta = json.loads((path / "meta.json").read_text())
        meta.update(format_version=3, chain_file="chain.json")
        for i, view in enumerate(meta["views"]):
            view["files"] = {key: f"view_{i}_{key}.r3rb" for key in ("depth", "labels")}
        spec = bundle.spec
        meta["scene"].update(views=spec.views, width=spec.width, height=spec.height, heatmap_sigma=3.0)
        (path / "meta.json").write_text(json.dumps(meta))
        return meta

    def test_format_2_tree_rejected(self, small_bundle, tmp_path):
        meta = self.save_format_3(tmp_path / "s", small_bundle)
        meta.update(  # what format 2 stored beside format 3's keys
            format_version=2,
            keypoints_3d=small_bundle.keypoints_3d.tolist(),
            keypoints_2d=small_bundle.keypoints_2d.tolist(),
            similarity={"scale": 1.0, "matrix": small_bundle.views[0].pose_world.matrix().tolist()},
        )
        (tmp_path / "s" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(VersionMismatchError, match=r"meta\.json: format version 2, supported 4"):
            load_bundle(tmp_path / "s")

    def test_format_3_tree_rejected(self, small_bundle, tmp_path):
        self.save_format_3(tmp_path / "s", small_bundle)
        with pytest.raises(VersionMismatchError, match=r"meta\.json: format version 3, supported 4"):
            load_bundle(tmp_path / "s")

    @pytest.mark.parametrize("absolute", [False, True], ids=["relative", "absolute"])
    def test_stray_file_names_not_read(self, small_bundles, tmp_path, absolute):
        """File names in meta.json, as format 3 stored them, naming another bundle's files are not read."""
        save_bundle(tmp_path / "a", small_bundles[0])
        save_bundle(tmp_path / "b", small_bundles[1])
        other = tmp_path / "b" if absolute else Path("..", "b")
        meta = json.loads((tmp_path / "a" / "meta.json").read_text())
        meta["chain_file"] = str(other / "chain.json")
        for i, view in enumerate(meta["views"]):
            view["files"] = {key: str(other / f"view_{i}_{key}.r3rb") for key in ("depth", "labels")}
        (tmp_path / "a" / "meta.json").write_text(json.dumps(meta))
        loaded = load_bundle(tmp_path / "a")
        self._assert_bit_exact(loaded, small_bundles[0])
        assert not np.array_equal(loaded.views[0].depth.values, small_bundles[1].views[0].depth.values)
        assert validate_bundle(loaded) <= 1e-9

    @pytest.mark.parametrize(
        "case,named,got,want",
        [
            ("width", "view_0_depth.r3rb", (120, 160), (120, 168)),
            ("height", "view_0_depth.r3rb", (120, 160), (100, 160)),
            ("labels_channels", "view_1_labels.r3rb", (120, 160, 3), (120, 160)),
            ("labels_width", "view_0_labels.r3rb", (120, 159), (120, 160)),
            ("labels_height", "view_1_labels.r3rb", (119, 160), (120, 160)),
        ],
    )
    def test_shape_mismatch_named(self, small_bundle, tmp_path, case, named, got, want):
        import json
        import re

        save_bundle(tmp_path / "s", small_bundle)
        meta_path = tmp_path / "s" / "meta.json"
        meta = json.loads(meta_path.read_text())
        if case in ("width", "height"):
            meta["views"][0]["intrinsics"][case] = want[case == "width"]
        else:
            write_raster(tmp_path / "s" / named, np.zeros(got))
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ShapeMismatchError, match=re.escape(f"{named}: shape {got}, expected {want}")):
            load_bundle(tmp_path / "s")

    def test_depth_dtype_named(self, small_bundle, tmp_path):
        # whole-metre depths in a uint8 raster would load as a point map rounded to the metre
        save_bundle(tmp_path / "s", small_bundle)
        write_raster(tmp_path / "s" / "view_0_depth.r3rb", np.round(small_bundle.views[0].depth.values).astype(np.uint8))
        with pytest.raises(DtypeMismatchError, match=r"view_0_depth\.r3rb: dtype uint8, expected float depths"):
            load_bundle(tmp_path / "s")

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_labels_dtype_named(self, small_bundle, tmp_path, dtype):
        save_bundle(tmp_path / "s", small_bundle)
        write_raster(tmp_path / "s" / "view_1_labels.r3rb", small_bundle.views[1].labels.astype(dtype))
        with pytest.raises(DtypeMismatchError, match=r"view_1_labels\.r3rb: dtype .*, expected uint8"):
            load_bundle(tmp_path / "s")

    def test_nonpositive_and_nan_depths_are_holes(self, small_bundle, tmp_path):
        save_bundle(tmp_path / "s", small_bundle)
        depth = small_bundle.views[0].depth.values.copy()
        hit = np.argwhere(depth > 0)[:3]
        depth[tuple(hit.T)] = [-0.5, np.nan, 0.0]
        write_raster(tmp_path / "s" / "view_0_depth.r3rb", depth)
        view = load_bundle(tmp_path / "s").views[0]
        np.testing.assert_array_equal(view.depth.valid, small_bundle.views[0].depth.valid & (depth > 0))
        assert not view.depth.valid[tuple(hit.T)].any()

    def test_float32_raster_support(self, tmp_path, rng):
        arr = rng.standard_normal((8, 6, 2)).astype(np.float32)
        write_raster(tmp_path / "x.r3rb", arr)
        back = read_raster(tmp_path / "x.r3rb")
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, arr)

    def test_strided_raster_written_in_bands(self, tmp_path):
        hm = synthesize_heatmaps([[40.5 * i, 30.25 * i] for i in range(8)], 320, 240, 2.0)  # an (H, W, N) view
        assert not hm.flags.c_contiguous
        write_raster(tmp_path / "copy.r3rb", np.ascontiguousarray(hm))
        tracemalloc.start()
        try:
            write_raster(tmp_path / "view.r3rb", hm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "view.r3rb").read_bytes() == (tmp_path / "copy.r3rb").read_bytes()
        assert peak < hm.nbytes / 2, (peak, hm.nbytes)

    def test_unknown_dtype_rejected(self, tmp_path):
        with pytest.raises(UnknownDtypeError):
            write_raster(tmp_path / "x.r3rb", np.ones((2, 2), dtype=np.int64))

    def test_one_dimensional_raster_rejected(self, tmp_path):
        with pytest.raises(RasterError, match=re.escape("raster must be HxW or HxWxC, got shape (3,)")):
            write_raster(tmp_path / "x.r3rb", np.zeros(3))
        assert not (tmp_path / "x.r3rb").exists()


@pytest.fixture(scope="module")
def tiny_saved(tmp_path_factory):
    """A saved binocular 32x24 bundle."""
    path = tmp_path_factory.mktemp("tiny") / "scene"
    save_bundle(path, generate_scene(random_scene_spec(seed=7, views=2, width=32, height=24), 7))
    return path


@pytest.fixture(scope="module")
def boxed_saved(tmp_path_factory):
    """A saved binocular 32x24 bundle whose scene holds a box and a sphere."""
    path = tmp_path_factory.mktemp("boxed") / "scene"
    save_bundle(path, generate_scene(random_scene_spec(seed=6, views=2, width=32, height=24), 6))
    return path


def key_paths(obj, prefix=()):
    """Every key of a parsed JSON document, as a path of keys and list indices."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield prefix + (key,)
            yield from key_paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from key_paths(value, prefix + (i,))


def leaf_paths(obj, prefix=()):
    """Every leaf (a value that is not an object or a list) of a parsed JSON document."""
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from leaf_paths(value, prefix + (key,))
    else:
        yield prefix


def replaced(doc, path, value):
    """doc with the entry at a key path set to value, or to value(entry) if value is callable (in place)."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value(parent[path[-1]]) if callable(value) else value
    return doc


def load_edited(saved: Path, name: str, content: str | bytes):
    """load_bundle of a copy of `saved` whose file `name` holds `content`."""
    with tempfile.TemporaryDirectory() as tmp:
        scene = Path(tmp)
        for f in saved.iterdir():
            (scene / f.name).symlink_to(f)
        (scene / name).unlink()
        (scene / name).write_bytes(content.encode() if isinstance(content, str) else content)
        return load_bundle(scene)


def loads_or_fails_named(saved: Path, name: str, content: str | bytes):
    """load_edited returns, or raises a BundleError or RasterError; a
    MalformedMetadataError names the edited file."""
    try:
        load_edited(saved, name, content)
    except MalformedMetadataError as exc:
        assert name in str(exc)
    except (BundleError, RasterError):
        pass


class TestBundleJSONErrors:
    """Every malformed meta.json or chain.json fails at load, naming the file."""

    OPTIONAL_CHAIN_KEYS = {"name", "limits"}

    @staticmethod
    def chain(saved):
        return json.loads((saved / "chain.json").read_text())

    @pytest.mark.parametrize("key", ["joints", "keypoints"])
    def test_chain_top_level_key_named(self, tiny_saved, key):
        chain = self.chain(tiny_saved)
        del chain[key]
        with pytest.raises(MissingMetadataError, match=rf"chain\.json: missing key '{key}'"):
            load_edited(tiny_saved, "chain.json", json.dumps(chain))

    @pytest.mark.parametrize("name", ["meta.json", "chain.json"])
    def test_invalid_json_named(self, tiny_saved, name):
        with pytest.raises(MalformedMetadataError, match=rf"{name}: not valid JSON"):
            load_edited(tiny_saved, name, "{")

    @pytest.mark.parametrize("content,kind", [("[]", "list"), ("3", "int"), ('"x"', "str"), ("null", "NoneType")])
    @pytest.mark.parametrize("name", ["meta.json", "chain.json"])
    def test_non_object_file_named(self, tiny_saved, name, content, kind):
        """Valid JSON that is not an object fails at load, naming the file, as the --config check words it."""
        with pytest.raises(MalformedMetadataError, match=rf"{name}: must hold a JSON object, got {kind}$"):
            load_edited(tiny_saved, name, content)

    def test_missing_chain_file(self, small_bundle, tmp_path):
        save_bundle(tmp_path / "s", small_bundle)
        (tmp_path / "s" / "chain.json").unlink()
        with pytest.raises(MissingMetadataError, match=r"missing: .*chain\.json"):
            load_bundle(tmp_path / "s")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_chain_key_dropped(self, tiny_saved, data):
        chain = self.chain(tiny_saved)
        path = data.draw(st.sampled_from(sorted(key_paths(chain), key=str)))
        parent = chain
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        if path[-1] in self.OPTIONAL_CHAIN_KEYS:
            load_edited(tiny_saved, "chain.json", json.dumps(chain))
            return
        with pytest.raises(MissingMetadataError, match=rf"chain\.json: missing key '{path[-1]}'"):
            load_edited(tiny_saved, "chain.json", json.dumps(chain))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["meta.json", "chain.json"]))
    def test_json_truncated_at_any_byte(self, tiny_saved, data, name):
        text = (tiny_saved / name).read_text()
        cut = data.draw(st.integers(0, len(text) - 1))
        with pytest.raises(MalformedMetadataError, match=rf"{name}: not valid JSON"):
            load_edited(tiny_saved, name, text[:cut])

    # edit -> (file, key path, value, the text the error keeps from the check that failed)
    WRONG_VALUES = {
        "ragged_pose_world": ("meta.json", ("views", 0, "pose_world", 1), [1.0],
                              "pose_world: expected shape (4, 4), got [1.0]"),
        "joint_state": ("meta.json", ("joint_state",), "x", "joint state: expected shape (4,), got 'x'"),
        "seed": ("meta.json", ("seed",), "abc", "seed: expected an integer, got 'abc'"),
        "width": ("meta.json", ("views", 0, "intrinsics", "width"), "32", "image width: expected an integer, got '32'"),
        "nan_pose": ("meta.json", ("views", 1, "pose_world", 0, 3), float("nan"), "pose_world must be finite, got nan"),
        "pose_bottom_row": ("meta.json", ("views", 1, "pose_world", 3, 3), 5.0,
                            "pose_world: bottom row must be (0, 0, 0, 1), got [0.0, 0.0, 0.0, 5.0]"),
        "pose_entry_bool": ("meta.json", ("views", 1, "pose_world", 2, 2), True, "pose_world: expected a number, got True"),
        "table_pose_bottom_row_inf": ("meta.json", ("scene", "table", "pose", 3, 1), float("inf"),
                                      "table pose must be finite, got inf"),
        "origin_bottom_row_nan": ("chain.json", ("joints", 2, "origin", 3, 2), float("nan"),
                                  "joint origin must be finite, got nan"),
        "origin_bottom_row": ("chain.json", ("joints", 0, "origin", 3, 0), 0.5,
                              "joint origin: bottom row must be (0, 0, 0, 1), got [0.5, 0.0, 0.0, 1.0]"),
        "no_views": ("meta.json", ("views",), [], "no views"),
        "huge_link": ("chain.json", ("keypoints", 0, "link"), "9" * 30, "keypoint link: expected an integer, got '999"),
        "camera_radius": ("meta.json", ("scene", "camera", "radius"), ["a", "b"],
                          "camera radius: expected a number, got 'a'"),
        "primitive_type": ("meta.json", ("scene", "primitives", 0, "type"), "cylinder",
                           "unknown primitive type 'cylinder'"),
        "joint_state_short": ("meta.json", ("joint_state",), [0.0] * 3,
                              "joint state: expected shape (4,), got [0.0, 0.0, 0.0]"),
        "joint_state_nan": ("meta.json", ("joint_state", 2), float("nan"), "joint state must be finite"),
        "joint_state_bool": ("meta.json", ("joint_state", 0), True, "joint state: expected a number, got True"),
        "joint_state_outside_limit": ("meta.json", ("joint_state", 1), 1.9,
                                      "joint 1 value 1.9 outside limits (-1.8, 1.8) of "),
        "capsule_radius_negative": ("meta.json", ("scene", "capsule_radius"), -0.01,
                                    "capsule_radius must be finite and positive, got -0.01"),
        "seed_negative": ("meta.json", ("seed",), -1, "seed must be a non-negative integer, got -1"),
        "seed_float": ("meta.json", ("seed",), 1.5, "seed: expected an integer, got 1.5"),
        "seed_bool": ("meta.json", ("seed",), True, "seed: expected an integer, got True"),
        "seed_digits": ("meta.json", ("seed",), "7", "seed: expected an integer, got '7'"),
        "sphere_center_nan": ("meta.json", ("scene", "primitives", 0, "center", 1), float("nan"),
                              "sphere center must be finite, got nan"),
        "sphere_radius_nan": ("meta.json", ("scene", "primitives", 0, "radius"), float("nan"),
                              "sphere radius must be finite and positive, got nan"),
        "table_half_extent_nan": ("meta.json", ("scene", "table", "half_extents", 0), float("nan"),
                                  "table half extents must be finite and positive, got nan"),
        "width_float": ("meta.json", ("views", 0, "intrinsics", "width"), 32.0, "image width: expected an integer, got 32.0"),
        "height_bool": ("meta.json", ("views", 1, "intrinsics", "height"), True, "image height: expected an integer, got True"),
        "fx_inf": ("meta.json", ("views", 0, "intrinsics", "fx"), float("inf"), "fx must be finite and positive, got inf"),
        "fy_inf": ("meta.json", ("views", 1, "intrinsics", "fy"), float("inf"), "fy must be finite and positive, got inf"),
        # an integer that no finite float holds, which a float conversion would overflow
        "fx_past_float_range": ("meta.json", ("views", 0, "intrinsics", "fx"), 10**400,
                                f"fx must be finite and positive, got {10**400}"),
        # a third view, a copy of view 1: the scene's view count is the number of views
        "scene_views": ("meta.json", ("views",), lambda views: views + views[1:], "views must be 1 or 2, got 3"),
        "link_float": ("chain.json", ("keypoints", 0, "link"), 1.7, "keypoint link: expected an integer, got 1.7"),
        "limits_triple": ("chain.json", ("joints", 1, "limits"), [1, 2, 3],
                          "joint limits: expected shape (2,), got (1, 2, 3)"),
        "limits_number": ("chain.json", ("joints", 1, "limits"), 5, "joint limits: expected shape (2,), got 5"),
        "limits_string": ("chain.json", ("joints", 1, "limits"), "ab", "joint limits: expected shape (2,), got 'ab'"),
    }

    @pytest.mark.parametrize(
        "name,path,value,expected",
        [
            ("meta.json", ("scene", "table"), [], "Table"),
            ("meta.json", ("scene", "camera"), "x", "CameraRanges"),
            ("meta.json", ("views", 1, "intrinsics"), 3, "Intrinsics"),
            ("meta.json", ("scene", "primitives", 0), [], "primitive"),  # refused before its "type" is read
            ("chain.json", ("joints", 2), None, "Joint"),
        ],
        ids=["table", "camera", "intrinsics", "primitive", "joint"],
    )
    def test_nested_non_object_named(self, tiny_saved, name, path, value, expected):
        """A nested value that is not a JSON object fails naming the file and the object it should be."""
        doc = replaced(json.loads((tiny_saved / name).read_text()), path, value)
        message = f"{name}: {expected}: must be a JSON object, got {type(value).__name__}"
        with pytest.raises(MalformedMetadataError, match=re.escape(message) + "$"):
            load_edited(tiny_saved, name, json.dumps(doc))

    @pytest.mark.parametrize(
        "name,path,value,expected",
        [
            ("meta.json", ("scene", "primitives"), {}, "primitives: must be a JSON array, got dict"),
            ("chain.json", ("keypoints",), {}, "keypoints: must be a JSON array, got dict"),
            ("meta.json", ("scene",), [], "scene: must be a JSON object, got list"),
            ("meta.json", ("views", 0), "x", "view: must be a JSON object, got str"),
            ("chain.json", ("keypoints", 0), [], "keypoint: must be a JSON object, got list"),
            ("meta.json", ("views",), {}, "views: must be a JSON array, got dict"),
            ("chain.json", ("joints",), {}, "joints: must be a JSON array, got dict"),
        ],
        ids=["primitives_object", "keypoints_object", "scene_array", "view_string", "keypoint_array",
             "views_object", "joints_object"],
    )
    def test_container_kind_named(self, boxed_saved, name, path, value, expected):
        """A JSON object where an array belongs, or the reverse, fails naming the file and the key; an empty object
        is not read as no primitives or no keypoints."""
        doc = replaced(json.loads((boxed_saved / name).read_text()), path, value)
        with pytest.raises(MalformedMetadataError, match=re.escape(f"{name}: {expected}") + "$"):
            load_edited(boxed_saved, name, json.dumps(doc))

    @pytest.mark.parametrize("case", sorted(WRONG_VALUES))
    def test_wrong_value_named(self, tiny_saved, case):
        name, path, value, message = self.WRONG_VALUES[case]
        doc = replaced(json.loads((tiny_saved / name).read_text()), path, value)
        with pytest.raises(MalformedMetadataError, match=re.escape(f"{name}: ") + f".*{re.escape(message)}"):
            load_edited(tiny_saved, name, json.dumps(doc))

    # Leaves left out, and why: format_version fails first, as a VersionMismatchError naming
    # the file, and the chain's name is a label no code reads as a number.
    NOT_SCALAR = {"format_version", "name"}

    @pytest.mark.parametrize("value", [True, float("nan"), float("inf")], ids=["true", "NaN", "Infinity"])
    @pytest.mark.parametrize("name", ["meta.json", "chain.json"])
    def test_every_scalar_leaf_checked(self, boxed_saved, name, value):
        """Each scalar leaf set to true, NaN or Infinity fails at load as a MalformedMetadataError naming the file."""
        text = (boxed_saved / name).read_text()
        leaves = [p for p in leaf_paths(json.loads(text)) if not self.NOT_SCALAR.intersection(p)]
        assert leaves
        missed = []
        for path in leaves:
            try:
                load_edited(boxed_saved, name, json.dumps(replaced(json.loads(text), path, value)))
                missed.append((path, "loaded"))
            except MalformedMetadataError as exc:
                if not str(exc).split(": ")[0].endswith(f"/{name}"):  # the file the error blames
                    missed.append((path, str(exc)))
        assert missed == []

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        name=st.sampled_from(["meta.json", "chain.json"]),
        value=st.text() | st.from_regex(r"-?[0-9]{1,30}(\.[0-9]*)?", fullmatch=True),
    )
    def test_any_leaf_made_a_string(self, tiny_saved, data, name, value):
        doc = json.loads((tiny_saved / name).read_text())
        path = data.draw(st.sampled_from(sorted(leaf_paths(doc), key=str)))
        loads_or_fails_named(tiny_saved, name, json.dumps(replaced(doc, path, value)))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["meta.json", "chain.json"]), bit=st.integers(0, 7))
    def test_any_bit_flipped(self, tiny_saved, data, name, bit):
        content = bytearray((tiny_saved / name).read_bytes())
        content[data.draw(st.integers(0, len(content) - 1))] ^= 1 << bit
        loads_or_fails_named(tiny_saved, name, bytes(content))


class TestBundleConsistency:
    """Values that would make the bundle's derived keypoints non-finite, or a view whose image size is not
    view 0's, fail at load, naming the file."""

    # a non-finite entry in what keypoints_3d (an offset) and keypoints_2d (a pose's bottom row) derive from
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "path", [("chain.json", "keypoint offset", "keypoints", 0, "offset", 0),
                 ("meta.json", "pose_world", "views", 1, "pose_world", 3, 1)]
    )
    def test_non_finite_keypoints_named(self, tiny_saved, path, value):
        name, field, *keys = path
        doc = replaced(json.loads((tiny_saved / name).read_text()), keys, value)
        with pytest.raises(MalformedMetadataError, match=re.escape(f"{name}: {field} must be finite, got {value}")):
            load_edited(tiny_saved, name, json.dumps(doc))

    @pytest.mark.parametrize("key,value,size", [("width", 70, (24, 70)), ("height", 40, (40, 32))])
    def test_view_size_mismatch_named(self, tiny_saved, key, value, size):
        doc = replaced(json.loads((tiny_saved / "meta.json").read_text()), ("views", 1, "intrinsics", key), value)
        message = f"meta.json: view 1 image (height, width): shape {size}, expected (24, 32)"
        with pytest.raises(ShapeMismatchError, match=re.escape(message)):
            load_edited(tiny_saved, "meta.json", json.dumps(doc))


class TestValidateBundle:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_tolerance_must_be_finite_and_non_negative(self, small_bundle, tol):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            validate_bundle(small_bundle, tol=tol)

    def test_keypoint_behind_camera_named(self, small_bundle):
        view = small_bundle.views[1]
        turned = RigidTransform(view.pose_world.rotation @ np.diag([1.0, -1.0, -1.0]), view.pose_world.translation)
        bundle = replace(small_bundle, views=(small_bundle.views[0], replace(view, pose_world=turned)))
        with pytest.raises(BundleError, match=r"view 1: keypoint 0 is at or behind the camera \(depth -"):
            validate_bundle(bundle)

    def test_moved_view_is_an_inconsistency(self, small_bundle):
        view = small_bundle.views[1]
        moved = RigidTransform(view.pose_world.rotation, view.pose_world.translation + [0.001, 0.0, 0.0])
        bundle = replace(small_bundle, views=(small_bundle.views[0], replace(view, pose_world=moved)))
        with pytest.raises(BundleError, match=r"bundle inconsistency: max deviation .* > 1e-09"):
            validate_bundle(bundle)

    def test_non_finite_distance_named(self, small_bundle):
        sphere = copy.copy(small_bundle.spec.primitives[0])
        object.__setattr__(sphere, "center", np.array([np.nan, 0.0, 0.0]))  # past the constructor's check
        spec = replace(small_bundle.spec, primitives=(sphere, *small_bundle.spec.primitives[1:]))
        with pytest.raises(BundleError, match=r"view 0: deviation nan from the analytic scene is not finite"):
            validate_bundle(replace(small_bundle, spec=spec))


class TestLazyPayloads:
    """Raster payloads are read, and maps built, only when a caller reads them."""

    NOISE = NoiseModel(depth_sigma=0.002, coord_sigma=0.0005, translation_sigma=0.01,
                       rotation_sigma=0.005, scale_sigma=0.01, mask_flip_rate=0.05)

    @pytest.fixture
    def counts(self, monkeypatch):
        """Raster files read, maps built and masks flipped, counted at their bindings."""
        counts = {"reads": [], "DepthMap": 0, "CoordMap": 0, "MaskSet": 0, "flips": 0}
        read_raster_ = bundle_module.read_raster

        def read(path):
            counts["reads"].append(Path(path).name)
            return read_raster_(path)

        monkeypatch.setattr(bundle_module, "read_raster", read)
        for cls in (DepthMap, CoordMap, MaskSet):
            def post_init(self, _original=cls.__post_init__, _name=cls.__name__):
                counts[_name] += 1
                _original(self)

            monkeypatch.setattr(cls, "__post_init__", post_init)
        flipped = mock_module._flipped_masks

        def flips(*args):
            counts["flips"] += 1
            return flipped(*args)

        monkeypatch.setattr(mock_module, "_flipped_masks", flips)
        return counts

    @pytest.fixture
    def saved(self, small_bundle, tmp_path):
        save_bundle(tmp_path / "scene", small_bundle)
        return tmp_path / "scene"

    def test_pose_scene_reads_no_payload(self, saved, counts):
        from reconkit.pipeline import RunConfig, evaluate_pose_scene

        evaluate_pose_scene(load_bundle(saved), self.NOISE, 1, RunConfig(noise=self.NOISE))
        assert counts == {"reads": [], "DepthMap": 0, "CoordMap": 0, "MaskSet": 0, "flips": 0}

    def test_pointmap_scene_reads_no_masks(self, saved, counts):
        from reconkit.pipeline import evaluate_pointmap_scene

        evaluate_pointmap_scene(load_bundle(saved), self.NOISE, 1)
        assert sorted(counts["reads"]) == ["view_0_depth.r3rb", "view_1_depth.r3rb"]
        assert (counts["MaskSet"], counts["flips"]) == (0, 0)

    def test_pointmap_scene_makes_each_input_once(self, saved, counts, monkeypatch):
        """Each view's noisy depth and coords are drawn, its depth raster read and its coords made, once."""
        from reconkit.pipeline import evaluate_pointmap_scene

        calls = []
        for module, name in ((mock_module, "_noisy_depth"), (mock_module, "_noisy_coords"),
                             (bundle_module, "coords_from_intrinsics")):
            def counted(*args, _name=name, _original=getattr(module, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        evaluate_pointmap_scene(load_bundle(saved), self.NOISE, 1)
        assert sorted(calls) == sorted(["_noisy_depth", "_noisy_coords", "coords_from_intrinsics"] * 2)
        assert sorted(counts["reads"]) == ["view_0_depth.r3rb", "view_1_depth.r3rb"]

    @pytest.mark.parametrize("noise", [NoiseModel(), NOISE], ids=["zero", "noisy"])
    def test_scene_steps_keep_no_depth_or_coords(self, saved, monkeypatch, noise):
        """Once the point-map scene and validate_bundle return, neither the bundles nor the prediction
        hold any view's depth or coords: every map unprojected is gone while they are still alive."""
        from reconkit import pipeline

        unprojected, predictions = [], []
        unproject_, predict = pipeline.unproject, pipeline.mock_predict

        def unproject_tracked(coords, depth, *rest):
            unprojected.extend((weakref.ref(coords), weakref.ref(depth)))
            return unproject_(coords, depth, *rest)

        monkeypatch.setattr(pipeline, "unproject", unproject_tracked)
        monkeypatch.setattr(bundle_module, "unproject", unproject_tracked)
        monkeypatch.setattr(pipeline, "mock_predict", lambda *args: predictions.append(predict(*args)) or predictions[-1])
        scored, validated = load_bundle(saved), load_bundle(saved)
        pipeline.evaluate_pointmap_scene(scored, noise, 1)
        validate_bundle(validated)
        assert len(predictions) == 1 and len(unprojected) == 12  # 2 views: prediction and truth, then validation
        assert [ref() for ref in unprojected] == [None] * 12
        for view in scored.views + validated.views:
            assert not {"depth", "coords"} & vars(view).keys()

    def test_losses_scene_hands_over_every_heatmap(self, saved, monkeypatch):
        """Once the losses scene returns, neither heatmap LazyViews nor the decoded keypoints hold an entry, and
        each view's predicted and ground-truth grids were synthesized once each."""
        from reconkit import pipeline

        made, calls = [], []
        predict, truth = pipeline.mock_predict, pipeline.ground_truth_heatmaps
        synthesize = mock_module.synthesize_heatmaps
        monkeypatch.setattr(pipeline, "mock_predict", lambda *args: made.append(predict(*args)) or made[-1])
        monkeypatch.setattr(pipeline, "ground_truth_heatmaps", lambda b: made.append(truth(b)) or made[-1])
        monkeypatch.setattr(mock_module, "synthesize_heatmaps", lambda *args: calls.append(args) or synthesize(*args))
        pipeline.evaluate_losses_scene(load_bundle(saved), self.NOISE, 1)
        pred, gt = made
        assert [views._made for views in (pred.heatmaps, pred.keypoints_2d, gt)] == [{}, {}, {}]
        assert len(calls) == 4  # 2 views: the predicted and the ground-truth grid of each

    def test_view_hands_over_a_property(self, saved, counts):
        view = load_bundle(saved).views[0]
        depth = view.depth
        assert view.pop("depth") is depth and "depth" not in vars(view)
        assert view.depth is not depth and view.depth.values.tobytes() == depth.values.tobytes()
        coords = view.pop("coords")  # made for the hand-over, and not kept
        assert "coords" not in vars(view) and view.coords.values.tobytes() == coords.values.tobytes()
        assert counts["reads"] == ["view_0_depth.r3rb"] * 2 and counts["CoordMap"] == 2

    @pytest.mark.parametrize("view", [0, 1])
    def test_compose_points_reads_its_view_only(self, saved, tmp_path, counts, view):
        from reconkit.cli import main

        assert main(["compose-points", "--bundle", str(saved), "--view", str(view),
                     "--noise-mask-flip", "0.05", "--out", str(tmp_path / "out")]) == 0
        assert sorted(counts["reads"]) == sorted(
            f"view_{view}_{key}.r3rb" for key in ("depth", "labels")
        )
        assert counts["flips"] == 1

    def test_first_access_cached(self, saved, counts):
        b = load_bundle(saved)
        pred = mock_predict(b, self.NOISE, seed=2)
        assert pred.masks[1] is pred.masks[1] and b.views[1].masks is b.views[1].masks
        assert counts["reads"] == ["view_1_labels.r3rb"]
        assert (counts["MaskSet"], counts["flips"]) == (2, 1)  # the stored set, then the flipped one

    @pytest.mark.parametrize(
        "corrupt,error",
        [
            (lambda data: b"XXXX" + data[4:], BadMagicError),
            (lambda data: data[:16] + (9).to_bytes(4, "little") + data[20:], UnknownDtypeError),
            (lambda data: data[:-1], TruncatedRasterError),
            (lambda data: data + b"\0", TruncatedRasterError),
            (lambda data: data[:10], TruncatedRasterError),
        ],
    )
    def test_header_errors_fire_at_load(self, saved, counts, corrupt, error):
        target = saved / "view_1_labels.r3rb"
        target.write_bytes(corrupt(target.read_bytes()))
        with pytest.raises(error, match="view_1_labels.r3rb"):
            load_bundle(saved)
        assert counts["reads"] == []

    @settings(max_examples=60, deadline=None)
    @given(view=st.sampled_from([0, 1]), pixel=st.integers(0, 32 * 24 - 1), value=st.integers(4, 255))
    def test_bad_label_fails_only_mask_readers(self, tiny_saved, view, pixel, value):
        from reconkit.cli import main

        name = f"view_{view}_labels.r3rb"
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            shutil.copytree(tiny_saved, tree / "scene_00000")
            target = tree / "scene_00000" / name
            data = bytearray(target.read_bytes())
            data[HEADER.size + pixel] = value
            target.write_bytes(bytes(data))

            bundle = load_bundle(tree / "scene_00000")
            assert bundle.views[view].depth.valid.any()  # its depth reads cleanly
            assert bundle.views[1 - view].masks.shape == (24, 32)  # so does the other view's labels
            with pytest.raises(PayloadValueError, match=rf"{re.escape(name)}: part label {value} outside"):
                bundle.views[view].masks
            for command in ("eval-pose", "eval-pointmap"):
                assert main([command, "--bundles", str(tree), "--workers", "1"]) == 0


def eager_mock_predict(bundle: SceneBundle, noise: NoiseModel, seed: int):
    """mock_predict's depths, coords, masks, relative poses and similarity,
    drawn and perturbed eagerly, view by view, each head from its own child
    of the seed sequence, spawned through SeedSequence.spawn."""
    per_view = np.random.SeedSequence([0x30C4, int(seed), bundle.seed]).spawn(len(bundle.views) + 1)
    depths, coords, masks = [], [], []
    for view, seq in zip(bundle.views, per_view):
        depth_rng, coord_rng, flip_rng = (np.random.default_rng(s) for s in seq.spawn(3))
        eps_d = depth_rng.standard_normal(view.depth.values.shape)
        eps_c = coord_rng.standard_normal(view.coords.values.shape)
        flips = flip_rng.random(view.masks.shape + (3,))
        if noise.depth_sigma > 0:
            dv = view.depth.values + noise.depth_sigma * eps_d
            depths.append(DepthMap(np.where(view.depth.valid, dv, 0.0)))
        else:
            depths.append(view.depth)
        if noise.coord_sigma > 0:
            coords.append(CoordMap(view.coords.values + noise.coord_sigma * eps_c))
        else:
            coords.append(view.coords)
        if noise.mask_flip_rate > 0:
            flip = flips < noise.mask_flip_rate
            planes = (getattr(view.masks, part) for part in PART_NAMES)
            masks.append(
                MaskSet(*(np.where(flip[:, :, k], 1.0 - m, m) for k, m in enumerate(planes)))
            )
        else:
            masks.append(view.masks)
    rng = np.random.default_rng(per_view[-1])
    rel_poses = [RigidTransform.identity()]
    for view in bundle.views[1:]:
        rel = relative_pose(bundle.views[0].pose_world, view.pose_world)
        rel_poses.append(_perturb_pose(rel, noise.translation_sigma, noise.rotation_sigma, rng))
    sim_rigid = _perturb_pose(
        bundle.similarity.rigid, noise.translation_sigma, noise.rotation_sigma, rng
    )
    scale_eps = rng.standard_normal()
    scale = bundle.similarity.scale
    if noise.scale_sigma > 0:
        scale = scale * float(np.exp(noise.scale_sigma * scale_eps))
    return depths, coords, masks, rel_poses, Similarity(scale, sim_rigid)


@pytest.fixture(scope="module")
def mock_bundles():
    """A monocular and a binocular 40x30 scene."""
    return {
        views: generate_scene(random_scene_spec(seed=views, views=views, width=40, height=30), views)
        for views in (1, 2)
    }


def zero_or_up_to(high):
    return st.one_of(st.just(0.0), st.floats(1e-4, high))


class TestLazyMatchesEager:
    @settings(max_examples=60, deadline=None)
    @given(
        views=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
        noise=st.builds(
            NoiseModel, depth_sigma=zero_or_up_to(0.05), coord_sigma=zero_or_up_to(0.01),
            translation_sigma=zero_or_up_to(0.05), rotation_sigma=zero_or_up_to(0.05),
            scale_sigma=zero_or_up_to(0.1), mask_flip_rate=zero_or_up_to(1.0),
        ),
        data=st.data(),
    )
    def test_bit_identical(self, mock_bundles, views, seed, noise, data):
        bundle = mock_bundles[views]
        pred = mock_predict(bundle, noise, seed)
        depths, coords, masks, rel_poses, similarity = eager_mock_predict(bundle, noise, seed)
        # every (head, view) entry, read in any order, so no head can lean on an earlier read
        entries = [(head, i) for head in ("depths", "coords", "masks") for i in range(views)]
        eager = {"depths": depths, "coords": coords, "masks": masks}
        raw = {"depths": lambda d: d.values.tobytes() + d.valid.tobytes(),
               "coords": lambda c: c.values.tobytes(), "masks": lambda m: m.stacked().tobytes()}
        for head, i in data.draw(st.permutations(entries)):
            assert raw[head](getattr(pred, head)[i]) == raw[head](eager[head][i])
        assert len(pred.depths) == len(pred.coords) == len(pred.masks) == views
        for got, want in zip(pred.rel_poses, rel_poses):
            assert got.matrix().tobytes() == want.matrix().tobytes()
        assert pred.similarity.scale == similarity.scale
        assert pred.similarity.rigid.matrix().tobytes() == similarity.rigid.matrix().tobytes()


class TestHeadStreams:
    """Each head draws from its own generator, made only when that head is read."""

    NOISE = TestLazyPayloads.NOISE

    @pytest.fixture
    def draws(self, monkeypatch):
        """(spawn key, values) of every draw the mock makes, recorded at its generator factory."""
        log = []
        generator = mock_module._generator

        class Recorded:
            def __init__(self, entropy, key):
                self._rng, self._key = generator(entropy, key), key

            def __getattr__(self, name):
                def draw(*args, **kwargs):
                    out = getattr(self._rng, name)(*args, **kwargs)
                    log.append((self._key, np.asarray(out)))
                    return out

                return draw

        monkeypatch.setattr(mock_module, "_generator", Recorded)
        return log

    def test_pose_scene_makes_no_pixel_sized_draw(self, small_bundle, draws):
        from reconkit.pipeline import RunConfig, evaluate_pose_scene

        evaluate_pose_scene(small_bundle, self.NOISE, 1, RunConfig(noise=self.NOISE))
        # relative pose, then similarity rigid part: translation, axis, angle; then the scale
        sizes = [(key, out.size) for key, out in draws]
        assert sizes == [((2,), 3), ((2,), 3), ((2,), 1)] * 2 + [((2,), 1)]

    def test_pointmap_scene_draws_depth_and_coords_heads(self, small_bundle, draws):
        from reconkit.pipeline import evaluate_pointmap_scene

        evaluate_pointmap_scene(small_bundle, self.NOISE, 1)
        pixels = small_bundle.spec.width * small_bundle.spec.height
        assert sorted((key, out.size) for key, out in draws if out.size > 3) == [
            ((0, 0), pixels), ((0, 1), 2 * pixels), ((1, 0), pixels), ((1, 1), 2 * pixels)
        ]

    @pytest.mark.parametrize("view", [0, 1])
    def test_compose_points_draws_its_view_only(self, small_bundle, tmp_path, draws, view):
        from reconkit.cli import main

        save_bundle(tmp_path / "scene", small_bundle)
        assert main(["compose-points", "--bundle", str(tmp_path / "scene"), "--view", str(view),
                     "--noise-depth", "0.002", "--noise-coord", "0.0005", "--noise-mask-flip", "0.05",
                     "--out", str(tmp_path / "out")]) == 0
        assert {key for key, _ in draws} == {(view, 0), (view, 1), (view, 2), (2,)}

    def test_head_ignores_other_sigmas(self, small_bundle):
        alone = [
            mock_predict(small_bundle, NoiseModel(depth_sigma=0.002), 5).depths[1],
            mock_predict(small_bundle, NoiseModel(coord_sigma=0.0005), 5).coords[1],
            mock_predict(small_bundle, NoiseModel(mask_flip_rate=0.05), 5).masks[1],
        ]
        pred = mock_predict(small_bundle, self.NOISE, 5)
        together = [pred.depths[1], pred.coords[1], pred.masks[1]]
        for got, want in zip(together, alone):
            for a, b in zip(vars(got).values(), vars(want).values()):
                assert a.tobytes() == b.tobytes()

    def test_vga_draws_are_standard(self, draws):
        bundle = generate_scene(random_scene_spec(seed=11, views=1, width=630, height=476), 11)
        pred = mock_predict(bundle, NoiseModel(depth_sigma=1e-3, coord_sigma=1e-3, mask_flip_rate=0.25), 3)
        pred.depths[0], pred.coords[0], pred.masks[0]  # read each head once
        heads = dict(draws)
        assert heads[0, 0].shape == (476, 630) and heads[0, 1].shape == (476, 630, 2)
        for eps in (heads[0, 0], heads[0, 1][..., 0], heads[0, 1][..., 1]):
            assert abs(eps.mean()) < 5e-3 and abs(eps.std() - 1.0) < 5e-3
        # the two heads come from unrelated streams
        assert abs(np.corrcoef(heads[0, 0].ravel(), heads[0, 1][..., 0].ravel())[0, 1]) < 5e-3
        flips = heads[0, 2]
        assert flips.shape == (476, 630, 3) and abs(flips.mean() - 0.5) < 5e-3
