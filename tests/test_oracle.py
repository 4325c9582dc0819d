"""Scene oracle: camera sampling, ray casting, bundles, mock predictor."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reconkit.camera import Intrinsics, coords_from_intrinsics, project, unproject
from reconkit.losses import point_loss
from reconkit.masks import binarize
from reconkit.oracle.bundle import (
    MissingMetadataError,
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
    ground_truth_heatmaps,
    ground_truth_keypoints,
    mock_predict,
    synthesize_heatmaps,
)
from reconkit.oracle.raster import (
    BadMagicError,
    TruncatedRasterError,
    UnknownDtypeError,
    read_raster,
    write_raster,
)
from reconkit.masks import LABEL_BACKGROUND, LABEL_OBJECT, LABEL_ROBOT
from reconkit.oracle.scene import (
    CameraRanges,
    SceneSpec,
    Sphere,
    Table,
    _bounding_sphere,
    _intersect_box,
    _intersect_capsule,
    _intersect_sphere,
    _intersect_table,
    _screen_window,
    chain_capsules,
    render,
    sample_camera,
)
from reconkit.pnp import soft_argmax
from reconkit.transforms import (
    RigidTransform,
    register_views,
    relative_pose,
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


class TestRender:
    def test_fronto_parallel_plane_constant_depth(self):
        # camera 1 m straight above a huge table, looking straight down
        chain, kp = default_chain()
        spec = minimal_spec([], fixed_camera_ranges())
        k = Intrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)
        down = RigidTransform(
            np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]),
            np.array([2.0, 2.0, 1.0]),  # away from the arm at the origin
        )
        depth, coords, labels = render(spec, k, down)
        table_px = labels == 3
        assert table_px.sum() > 1000
        np.testing.assert_allclose(depth.values[table_px], 1.0, atol=1e-12)

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
        depth, coords, labels = render(spec, k, pose)
        assert labels[24, 32] == 2
        assert abs(depth.values[24, 32] - 2.0) < 1e-12

    def test_sphere_depth_matches_independent_quadratic(self, rng):
        sphere = Sphere(center=[0.4, 0.1, 0.08], radius=0.08)
        spec = minimal_spec([sphere], CameraRanges())
        seed_rng = np.random.default_rng(5)
        k, pose = sample_camera([0.4, 0.1, 0.08], seed_rng, CameraRanges(), 64, 48)
        depth, coords, labels = render(spec, k, pose)
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
            assert abs(depth.values[v, u] - t_geo) < 1e-9

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
    best = _intersect_table(spec.table, origin, dirs)
    labels = np.where(np.isfinite(best), LABEL_BACKGROUND, 0).astype(np.uint8)
    casts = [
        (p, _intersect_sphere if isinstance(p, Sphere) else _intersect_box, LABEL_OBJECT)
        for p in spec.primitives
    ] + [(c, _intersect_capsule, LABEL_ROBOT) for c in chain_capsules(spec)]
    for prim, intersect, label in casts:
        t = intersect(prim, origin, dirs)
        closer = t < best
        best = np.where(closer, t, best)
        labels[closer] = label
    return np.where(np.isfinite(best), best, 0.0), labels


def assert_matches_full_frame(spec, k, pose):
    depth, _, labels = render(spec, k, pose)
    ref_depth, ref_labels = full_frame_render(spec, k, pose)
    assert depth.values.tobytes() == ref_depth.tobytes()
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
        center, radius = _bounding_sphere(cap)
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
        "point": "0.0009575199341852526",
        "normal": "0.15078680521912177",
        "mask": "0.8004482306388033",
        "relative_pose": "0.003913395789166756",
        "similarity": "0.004684750746173448",
        "keypoint": "0.00294151798595147",
        "total": "0.969615256285305",
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
        gt_kp = ground_truth_keypoints(small_bundle)
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
            np.testing.assert_array_equal(va.pose_robot.matrix(), vb.pose_robot.matrix())
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

    def test_truncated_raster_reports_byte_offset(self, small_bundle, tmp_path):
        save_bundle(tmp_path / "s", small_bundle)
        target = tmp_path / "s" / "view_0_depth.r3rb"
        data = target.read_bytes()
        target.write_bytes(data[: len(data) // 2])
        with pytest.raises(TruncatedRasterError, match=r"byte \d+"):
            load_bundle(tmp_path / "s")

    def test_bad_magic(self, small_bundle, tmp_path):
        save_bundle(tmp_path / "s", small_bundle)
        target = tmp_path / "s" / "view_0_coords.r3rb"
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
        "keys", [("seed",), ("similarity", "scale"), ("views", 0, "intrinsics", "fx")]
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
            ("coords_channels", "view_1_coords.r3rb", (120, 160, 3), (120, 160, 2)),
            ("masks_channels", "view_0_masks.r3rb", (120, 160), (120, 160, 3)),
            ("valid_shape", "view_1_valid.r3rb", (120, 159), (120, 160)),
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

    def test_float32_raster_support(self, tmp_path, rng):
        arr = rng.standard_normal((8, 6, 2)).astype(np.float32)
        write_raster(tmp_path / "x.r3rb", arr)
        back = read_raster(tmp_path / "x.r3rb")
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, arr)

    def test_unknown_dtype_rejected(self, tmp_path):
        with pytest.raises(UnknownDtypeError):
            write_raster(tmp_path / "x.r3rb", np.ones((2, 2), dtype=np.int64))
