"""Scene oracle: camera sampling, ray casting, bundles, mock predictor."""

import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reconkit.camera import CoordMap, DepthMap, Intrinsics, coords_from_intrinsics, project, unproject
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
    Box,
    CameraRanges,
    Capsule,
    SceneSpec,
    Sphere,
    Table,
    _screen_window,
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
        origin = center + 4.0 * half_width * direction / np.linalg.norm(direction)
        dirs = center + rng.uniform(-half_width, half_width, (2000, 3)) - origin
        t = prim.intersect(origin, dirs)
        hit = np.isfinite(t)
        assert hit.sum() > 200
        assert prim.distance(origin + t[hit, None] * dirs[hit]).max() <= 1e-12

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

    def test_bundle_self_consistency(self, small_bundles):
        for bundle in small_bundles:
            assert validate_bundle(bundle, tol=1e-9) < 1e-9


def full_frame_render(spec, k, pose):
    """Reference ray caster: every primitive against every ray of the frame."""
    coords = coords_from_intrinsics(k)
    dirs = np.concatenate([coords.values, np.ones((k.height, k.width, 1))], axis=-1)
    dirs = dirs @ pose.rotation.T
    origin = pose.translation
    best = spec.table.intersect(origin, dirs)
    labels = np.where(np.isfinite(best), LABEL_BACKGROUND, 0).astype(np.uint8)
    casts = [(p, LABEL_OBJECT) for p in spec.primitives] + [(c, LABEL_ROBOT) for c in chain_capsules(spec)]
    for prim, label in casts:
        t = prim.intersect(origin, dirs)
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
        center, radius = cap.bound()
        axis = (cap.p1 - cap.p0) / np.linalg.norm(cap.p1 - cap.p0)
        side = np.cross(axis, [1.0, 0.0, 0.0])
        eye = center + 2.0 * cap.radius * side / np.linalg.norm(side)
        assert cap.radius < np.linalg.norm(eye - center) < radius
        pose = look_at(eye, cap.p1)
        assert _screen_window(center, radius, WIDE, pose) == FULL_FRAME
        labels = assert_matches_full_frame(spec, WIDE, pose)
        assert np.any(labels == LABEL_ROBOT)

    def test_sphere_straddling_camera_plane(self):
        sphere = Sphere(HORIZONTAL.apply(np.array([0.4, 0.0, 0.1])), 0.35)
        spec = minimal_spec([sphere], fixed_camera_ranges())
        assert _screen_window(sphere.center, sphere.radius, WIDE, HORIZONTAL) == FULL_FRAME
        labels = assert_matches_full_frame(spec, WIDE, HORIZONTAL)
        assert np.any(labels == LABEL_OBJECT)

    def test_offscreen_primitive_skipped(self):
        sphere = Sphere(HORIZONTAL.apply(np.array([3.0, 0.0, 1.0])), 0.1)
        spec = minimal_spec([sphere], fixed_camera_ranges())
        assert _screen_window(sphere.center, sphere.radius, WIDE, HORIZONTAL) is None
        labels = assert_matches_full_frame(spec, WIDE, HORIZONTAL)
        assert not np.any(labels == LABEL_OBJECT)

    @pytest.mark.parametrize(
        "u,side,cols",
        [
            (-1.5, -1, slice(0, 2)),  # right tangent just left of the frame: widened
            (64.5, 1, slice(62, 64)),  # left tangent just right of the frame: widened
            (0.0, 0, None),  # centered on the first column
            (63.0, 0, None),  # centered on the last column
        ],
    )
    def test_window_clipped_to_edge_column(self, u, side, cols):
        # put the sphere's tangent (side = -1: right, 1: left) or center (0) on pixel column u
        dist, radius = 2.0, 0.2
        theta = math.atan((u - WIDE.cx) / WIDE.fx) + side * math.asin(radius / dist)
        sphere = Sphere(HORIZONTAL.apply(dist * np.array([math.sin(theta), 0.0, math.cos(theta)])), radius)
        spec = minimal_spec([sphere], fixed_camera_ranges())
        rows, window_cols = _screen_window(sphere.center, sphere.radius, WIDE, HORIZONTAL)
        labels = assert_matches_full_frame(spec, WIDE, HORIZONTAL)
        if cols is not None:
            assert window_cols == cols
            assert not np.any(labels == LABEL_OBJECT)
        else:
            assert int(u) in range(window_cols.start, window_cols.stop)
            assert window_cols.start == 0 or window_cols.stop == WIDE.width
            assert np.any(labels[:, int(u)] == LABEL_OBJECT)


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

    # every sigma nonzero, heatmap_blur included, so each head is perturbed
    ALL_NOISE = NoiseModel(
        depth_sigma=0.002, coord_sigma=0.0005, translation_sigma=0.01, rotation_sigma=0.005,
        scale_sigma=0.01, heatmap_blur=0.5, mask_flip_rate=0.05,
    )
    LOSS_TERMS_REPR = {
        "point": "0.0009569011950438666",
        "normal": "0.15144958951021406",
        "mask": "0.7926130453014177",
        "relative_pose": "0.004308978808840214",
        "similarity": "0.003193575809237197",
        "keypoint": "0.00294151798595147",
        "total": "0.9613466445826074",
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
            expected = synthesize_heatmaps(kp, spec.width, spec.height, spec.heatmap_sigma + 0.5)
            np.testing.assert_array_equal(hm, expected)
        keypoints = pred.keypoints_2d
        for kp, hm in zip(keypoints, heatmaps):
            np.testing.assert_array_equal(kp, soft_argmax(hm))
        assert calls == {"synthesize_heatmaps": 2, "soft_argmax": 2}
        assert pred.heatmaps is heatmaps and pred.keypoints_2d is keypoints
        assert all(a is b for a, b in zip(pred.heatmaps, heatmaps))
        assert calls == {"synthesize_heatmaps": 2, "soft_argmax": 2}


class TestBundleIO:
    def _assert_bit_exact(self, a: SceneBundle, b: SceneBundle):
        assert a.seed == b.seed
        assert a.similarity.scale == b.similarity.scale
        np.testing.assert_array_equal(
            a.similarity.rigid.matrix(), b.similarity.rigid.matrix()
        )
        np.testing.assert_array_equal(a.keypoints_3d, b.keypoints_3d)
        np.testing.assert_array_equal(a.keypoints_2d, b.keypoints_2d)
        np.testing.assert_array_equal(a.joint_state, b.joint_state)
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
        assert meta["format_version"] == 2
        assert [sorted(view) for view in meta["views"]] == [["files", "intrinsics", "pose_world"]] * 2
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
        [("seed",), ("similarity", "scale"), ("views", 0, "intrinsics", "fx"), ("scene", "camera", "roll_deg")],
    )
    def test_missing_metadata_key_named(self, small_bundle, tmp_path, keys):
        import json

        save_bundle(tmp_path / "s", small_bundle)
        meta = json.loads((tmp_path / "s" / "meta.json").read_text())
        parent = meta
        for key in keys[:-1]:
            parent = parent[key]
        del parent[keys[-1]]
        (tmp_path / "s" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(MissingMetadataError, match=rf"meta\.json: missing key '{keys[-1]}'"):
            load_bundle(tmp_path / "s")

    def test_version_mismatch(self, small_bundle, tmp_path):
        import json

        save_bundle(tmp_path / "s", small_bundle)
        meta = json.loads((tmp_path / "s" / "meta.json").read_text())
        meta["format_version"] = 99
        (tmp_path / "s" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(VersionMismatchError, match="99"):
            load_bundle(tmp_path / "s")

    @pytest.mark.parametrize(
        "case,named,got,want",
        [
            ("width", "view_0_depth.r3rb", (120, 160), (120, 168)),
            ("height", "view_0_depth.r3rb", (120, 160), (100, 160)),
            ("labels_channels", "view_1_labels.r3rb", (120, 160, 3), (120, 160)),
            ("labels_width", "view_0_labels.r3rb", (120, 159), (120, 160)),
            ("labels_height", "view_1_labels.r3rb", (119, 160), (120, 160)),
            ("keypoints_2d_views", "keypoints_2d", (1, 8, 2), (2, 8, 2)),
            ("keypoints_2d_count", "keypoints_2d", (2, 7, 2), (2, 8, 2)),
            ("keypoints_3d_count", "keypoints_3d", (9, 3), (8, 3)),
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
        elif case.startswith("keypoints"):
            key = case[: len("keypoints_2d")]
            meta[key] = np.resize(np.array(meta[key]), got).tolist()
        else:
            write_raster(tmp_path / "s" / named, np.zeros(got))
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ShapeMismatchError, match=re.escape(f"{named}: shape {got}, expected {want}")):
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

    def test_unknown_dtype_rejected(self, tmp_path):
        with pytest.raises(UnknownDtypeError):
            write_raster(tmp_path / "x.r3rb", np.ones((2, 2), dtype=np.int64))


@pytest.fixture(scope="module")
def tiny_saved(tmp_path_factory):
    """A saved binocular 32x24 bundle."""
    path = tmp_path_factory.mktemp("tiny") / "scene"
    save_bundle(path, generate_scene(random_scene_spec(seed=7, views=2, width=32, height=24), 7))
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
    """doc with the entry at a key path set to value (in place)."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
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
        "ragged_keypoints_2d": ("meta.json", ("keypoints_2d", 0, 0), [1.0], "inhomogeneous"),
        "joint_state": ("meta.json", ("joint_state",), "x", "could not convert string to float"),
        "seed": ("meta.json", ("seed",), "abc", "invalid literal for int()"),
        "width": ("meta.json", ("views", 0, "intrinsics", "width"), "32", "not supported between"),
        "nan_pose": ("meta.json", ("views", 1, "pose_world", 0, 3), float("nan"),
                     "translation contains non-finite"),
        "no_views": ("meta.json", ("views",), [], "no views"),
        "huge_link": ("chain.json", ("keypoints", 0, "link"), "9" * 30, "too large to convert"),
        "heatmap_sigma": ("meta.json", ("scene", "heatmap_sigma"), "x", "heatmap_sigma must be a number, got 'x'"),
        "scene_width": ("meta.json", ("scene", "width"), True, "width must be an integer, got True"),
        "camera_radius": ("meta.json", ("scene", "camera", "radius"), ["a", "b"],
                          "camera radius must be a number, got 'a'"),
        "primitive_type": ("meta.json", ("scene", "primitives", 0, "type"), "cylinder",
                           "unknown primitive type 'cylinder'"),
    }

    @pytest.mark.parametrize("case", sorted(WRONG_VALUES))
    def test_wrong_value_named(self, tiny_saved, case):
        name, path, value, message = self.WRONG_VALUES[case]
        doc = replaced(json.loads((tiny_saved / name).read_text()), path, value)
        with pytest.raises(MalformedMetadataError, match=re.escape(f"{name}: ") + f".*{re.escape(message)}"):
            load_edited(tiny_saved, name, json.dumps(doc))

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
            depths.append(DepthMap(np.where(view.depth.valid, dv, 0.0), view.depth.valid))
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
