"""Acceptance criteria: every criterion runs at its stated tolerance and
prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from reconkit.camera import Intrinsics, PointMap, project, unproject
from reconkit.cli import main
from reconkit.losses import align_scale, check_gradient, point_loss
from reconkit.masks import binarize
from reconkit.oracle.bundle import (
    MissingMetadataError,
    generate_scene,
    load_bundle,
    random_scene_spec,
    save_bundle,
    surface_distances,
)
from reconkit.oracle.mock import NoiseModel, mock_predict
from reconkit.oracle.raster import BadMagicError, TruncatedRasterError
from reconkit.pipeline import (
    RunConfig,
    evaluate_losses_scene,
    evaluate_pointmap_scene,
    evaluate_pose_scene,
)
from reconkit.pnp import solve_pnp, soft_argmax
from reconkit.transforms import (
    RigidTransform,
    orthogonalize_9d,
    register_views,
    relative_pose,
    rotation_about_axis,
    rotation_angle,
    to_canonical,
)


def report(criterion: str, ok: bool, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    print(f"[{state}] {criterion}" + (f"  ({detail})" if detail else ""), flush=True)
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def scenes_160():
    """100 binocular oracle scenes at 160x120 (shared by criteria 1 and 3)."""
    out = []
    for seed in range(100):
        spec = random_scene_spec(seed=seed, views=2, width=160, height=120)
        out.append(generate_scene(spec, seed=seed))
    return out


def test_criterion_1_zero_noise_keystone(scenes_160):
    start = time.monotonic()
    zero = NoiseModel()
    config = RunConfig()
    for i, bundle in enumerate(scenes_160):
        terms = evaluate_losses_scene(bundle, zero, seed=i)
        assert terms["point"] <= 1e-6
        assert terms["normal"] <= 1e-6
        assert terms["mask"] <= 1e-6  # BCE clamp floor
        assert terms["relative_pose"] <= 1e-6
        assert terms["similarity"] <= 1e-6
        assert terms["keypoint"] <= 1e-6
        pm = evaluate_pointmap_scene(bundle, zero, seed=i)
        assert (pm.point_err, pm.normal_err, pm.scale_err) == (0.0, 0.0, 0.0)
        rel, absolute = evaluate_pose_scene(bundle, zero, seed=i, config=config)
        assert (rel.rte, rel.rre, rel.rta, rel.rra) == (0.0, 0.0, 1.0, 1.0)
        assert (absolute.ate, absolute.are, absolute.ata, absolute.ara) == (0.0, 0.0, 1.0, 1.0)
    elapsed = time.monotonic() - start
    report(
        "criterion 1: zero-noise consistency keystone (100 scenes)",
        elapsed < 120.0,
        f"all losses <= 1e-6, metrics exactly 0, {elapsed:.1f}s single-threaded",
    )


def test_criterion_2_pnp_round_trip():
    k = Intrinsics(fx=500.0, fy=510.0, cx=320.0, cy=240.0, width=640, height=480)
    rng = np.random.default_rng(2024)
    solved = 0
    while solved < 1000:
        pts = rng.uniform(-0.3, 0.3, (8, 3))
        pose = RigidTransform(
            rotation_about_axis(rng.standard_normal(3), rng.uniform(0, np.pi)),
            np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(0.8, 1.5)]),
        )
        cam = pose.apply(pts)
        if np.any(cam[:, 2] <= 0.1):
            continue
        res = solve_pnp(pts, project(cam, k), k)
        assert np.linalg.norm(res.extrinsic.translation - pose.translation) < 1e-6
        assert rotation_angle(res.extrinsic.rotation, pose.rotation) < 1e-6
        solved += 1

    errs = []
    trials = 0
    while len(errs) < 100:
        trials += 1
        r2 = np.random.default_rng(9000 + trials)
        pts = r2.uniform(-0.3, 0.3, (8, 3))
        pose = RigidTransform(
            rotation_about_axis(r2.standard_normal(3), r2.uniform(0, np.pi)),
            np.array([r2.uniform(-0.2, 0.2), r2.uniform(-0.2, 0.2), 1.0]),
        )
        cam = pose.apply(pts)
        if np.any(cam[:, 2] <= 0.1):
            continue
        px = project(cam, k) + 0.5 * r2.standard_normal((8, 2))
        res = solve_pnp(pts, px, k)
        errs.append(np.linalg.norm(res.extrinsic.translation - pose.translation))
    median_mm = float(np.median(errs)) * 1000.0
    report(
        "criterion 2: PnP round trip",
        median_mm < 5.0,
        f"1000 noiseless within 1e-6, noisy median {median_mm:.2f} mm",
    )


def test_criterion_3_unproject_register_canonicalize(scenes_160):
    worst = 0.0
    for bundle in scenes_160[:50]:
        locals_ = [unproject(v.coords, v.depth) for v in bundle.views]
        rels = [relative_pose(bundle.views[0].pose_world, v.pose_world) for v in bundle.views]
        cano = to_canonical(register_views(locals_, rels), bundle.similarity)
        for view, pm in zip(bundle.views, cano):
            labels = binarize(view.masks)[pm.valid]
            d = surface_distances(bundle.spec, pm.values[pm.valid], labels)
            worst = max(worst, float(d.max()))
    report(
        "criterion 3: Eq. 1-3 chain on 50 oracle scenes",
        worst < 1e-9,
        f"max surface deviation {worst:.3e} m",
    )


def test_criterion_4_scale_alignment_oracle():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        gt = rng.uniform(0.5, 2.0, (5, 5, 3))
        true_scale = rng.uniform(0.3, 3.0)
        pred = gt / true_scale + rng.uniform(-1e-8, 1e-8, gt.shape)
        ones = np.ones((5, 5), dtype=bool)
        s_closed = align_scale(PointMap.from_dense(pred, ones), PointMap.from_dense(gt, ones))

        a, b = pred.ravel(), gt.ravel()

        def objective(scales):
            return np.abs(scales[:, None] * a[None, :] - b[None, :]).sum(axis=1)

        coarse = np.arange(0.1, 10.0 + 1e-3, 1e-3)
        center = coarse[np.argmin(objective(coarse))]
        fine = np.arange(center - 2e-3, center + 2e-3 + 1e-5, 1e-5)
        s_grid = fine[np.argmin(objective(fine))]
        worst = max(worst, abs(s_closed - s_grid))

    lam_ok = True
    gt_map = PointMap.from_dense(rng.uniform(0.5, 2.0, (6, 6, 3)), np.ones((6, 6), dtype=bool))
    for lam in (0.1, 1.0, 7.3):
        scaled = PointMap.from_dense(lam * gt_map.values, np.ones((6, 6), dtype=bool))
        lam_ok = lam_ok and point_loss(scaled, gt_map) < 1e-12
    report(
        "criterion 4: scale alignment vs grid-search oracle",
        worst <= 1.1e-5 and lam_ok,
        f"max |closed-form - grid| = {worst:.2e}, point_loss(lam*gt, gt) < 1e-12",
    )


def test_criterion_5_gradient_suite():
    worst = {}
    for name in ("mask", "point", "relative_pose", "similarity", "keypoint"):
        worst[name] = max(check_gradient(name, seed=s) for s in (0, 1, 2))
    top = max(worst.values())
    report(
        "criterion 5: finite-difference gradient suite",
        top < 1e-4,
        ", ".join(f"{k} {v:.1e}" for k, v in worst.items()),
    )


def so3_oracle(m):
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


def test_criterion_6_svd_orthogonalization():
    rng = np.random.default_rng(6)
    worst_ortho = worst_det = worst_oracle = 0.0
    for i in range(10000):
        m = rng.standard_normal((3, 3))
        if i % 5 == 0:
            # squash the smallest direction: near-singular but rank >= 2
            u, s, vt = np.linalg.svd(m)
            m = (u * np.array([s[0], s[1], 10.0 ** rng.uniform(-12, -6)])) @ vt
        r = orthogonalize_9d(m.ravel())
        worst_ortho = max(worst_ortho, float(np.abs(r.T @ r - np.eye(3)).max()))
        worst_det = max(worst_det, abs(float(np.linalg.det(r)) - 1.0))
        if i % 10 == 0:
            worst_oracle = max(worst_oracle, float(np.abs(r - so3_oracle(m)).max()))
            if np.linalg.det(m) > 0:
                polar_u, _ = scipy.linalg.polar(m)
                worst_oracle = max(worst_oracle, float(np.abs(r - polar_u).max()))
    report(
        "criterion 6: SVD orthogonalization on 10,000 inputs",
        worst_ortho < 1e-9 and worst_det < 1e-9 and worst_oracle < 1e-9,
        f"orthonormality {worst_ortho:.1e}, det {worst_det:.1e}, oracle {worst_oracle:.1e}",
    )


@pytest.fixture(scope="module")
def scenes_80():
    out = []
    for seed in range(200):
        spec = random_scene_spec(seed=1000 + seed, views=2, width=80, height=60)
        out.append(generate_scene(spec, seed=1000 + seed))
    return out


def test_criterion_7_metric_monotonicity(scenes_80):
    config = RunConfig()
    point_means, normal_means = [], []
    for sigma_mm in (0.0, 1.0, 2.0, 4.0):
        noise = NoiseModel(depth_sigma=sigma_mm * 1e-3)
        pts, nrms = [], []
        for i, bundle in enumerate(scenes_80):
            r = evaluate_pointmap_scene(bundle, noise, seed=i)
            pts.append(r.point_err)
            nrms.append(r.normal_err)
        point_means.append(float(np.mean(pts)))
        normal_means.append(float(np.mean(nrms)))
    point_increasing = all(a < b for a, b in zip(point_means, point_means[1:]))
    normal_increasing = all(a < b for a, b in zip(normal_means, normal_means[1:]))

    rtas = []
    for sigma_t in (0.0, 0.01, 0.02, 0.05):
        noise = NoiseModel(translation_sigma=sigma_t)
        hits = [
            evaluate_pose_scene(b, noise, seed=i, config=config)[0].rta
            for i, b in enumerate(scenes_80)
        ]
        rtas.append(float(np.mean(hits)))
    rta_non_increasing = all(a >= b for a, b in zip(rtas, rtas[1:]))

    report(
        "criterion 7: metric monotonicity over noise sweeps (200 scenes)",
        point_increasing and normal_increasing and rta_non_increasing,
        f"point {point_means}, normal {[round(v, 4) for v in normal_means]}, RTA {rtas}",
    )


def test_criterion_8_soft_argmax():
    hm = np.zeros((120, 160))
    hm[50, 100] = 1.0
    kp = soft_argmax(hm, temperature=0.01)
    one_hot_ok = abs(kp[0, 0] - 100) < 0.01 and abs(kp[0, 1] - 50) < 0.01

    kp_u = soft_argmax(np.full((120, 160), 0.25), temperature=1.0)
    uniform_ok = kp_u[0, 0] == 79.5 and kp_u[0, 1] == 59.5

    rng = np.random.default_rng(8)
    bump_ok = True
    worst = 0.0
    for _ in range(20):
        cx = rng.uniform(30, 98)
        cy = rng.uniform(20, 44)
        us, vs = np.arange(128, dtype=float), np.arange(64, dtype=float)
        hm = np.exp(-(((us[None, :] - cx) ** 2) + ((vs[:, None] - cy) ** 2)) / (2 * 3.0**2))
        got = soft_argmax(hm, temperature=0.05)[0]
        logits = (hm / hm.max() - 1.0) / 0.05
        w = np.exp(logits - logits.max())
        w = w / w.sum()
        oracle = np.array([(w.sum(axis=0) * us).sum(), (w.sum(axis=1) * vs).sum()])
        worst = max(worst, float(np.abs(got - oracle).max()), float(np.abs(got - [cx, cy]).max()))
        bump_ok = bump_ok and np.abs(got - oracle).max() < 0.1 and np.abs(got - [cx, cy]).max() < 0.1

    report(
        "criterion 8: soft-argmax decoding",
        one_hot_ok and uniform_ok and bump_ok,
        f"one-hot ok, uniform exact center, bump worst dev {worst:.3e} px",
    )


def test_criterion_9_determinism(tmp_path):
    def tree_bytes(root):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*"))
            if p.is_file()
        }

    gen = ["gen-scenes", "--scenes", "8", "--seed", "77", "--width", "64", "--height", "48"]
    trees = {}
    for tag, workers in (("a1", 1), ("a2", 1), ("b8", 8)):
        out = tmp_path / tag
        assert main(gen + ["--workers", str(workers), "--out", str(out)]) == 0
        trees[tag] = tree_bytes(out)
    gen_ok = trees["a1"] == trees["a2"] == trees["b8"]

    eval_ok = True
    for cmd, extra in (
        ("eval-pointmap", ["--noise-depth", "0.002"]),
        ("eval-pose", ["--noise-trans", "0.01"]),
    ):
        blobs = []
        for workers in (1, 1, 8):
            out = tmp_path / f"{cmd}-{workers}-{len(blobs)}.json"
            rc = main(
                [cmd, "--bundles", str(tmp_path / "a1"), "--seed", "5", *extra,
                 "--workers", str(workers), "--out", str(out)]
            )
            assert rc == 0
            blobs.append(out.read_bytes())
        eval_ok = eval_ok and blobs[0] == blobs[1] == blobs[2]

    report(
        "criterion 9: byte-identical reruns across worker counts {1, 8}",
        gen_ok and eval_ok,
        "gen-scenes + eval-pointmap + eval-pose",
    )


def test_criterion_10_format_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    ok = True
    for i in range(50):
        views = int(rng.integers(1, 3))
        spec = random_scene_spec(seed=5000 + i, views=views, width=32, height=24)
        bundle = generate_scene(spec, seed=5000 + i)
        path = tmp_path / f"scene_{i}"
        save_bundle(path, bundle)
        back = load_bundle(path)
        for va, vb in zip(bundle.views, back.views):
            ok = ok and np.array_equal(va.depth.values, vb.depth.values)
            ok = ok and np.array_equal(va.depth.valid, vb.depth.valid)
            ok = ok and np.array_equal(va.coords.values, vb.coords.values)
            ok = ok and np.array_equal(va.masks.stacked(), vb.masks.stacked())
            ok = ok and np.array_equal(va.pose_world.matrix(), vb.pose_world.matrix())
        ok = ok and np.array_equal(bundle.keypoints_2d, back.keypoints_2d)
        ok = ok and bundle.similarity.scale == back.similarity.scale

    victim = tmp_path / "scene_0"
    raster = victim / "view_0_depth.r3rb"
    original = raster.read_bytes()

    corrupted = bytearray(original)
    corrupted[:4] = b"ZZZZ"
    raster.write_bytes(bytes(corrupted))
    try:
        load_bundle(victim)
        errors_ok = False
    except BadMagicError:
        errors_ok = True

    raster.write_bytes(original[:37])
    try:
        load_bundle(victim)
        errors_ok = False
    except TruncatedRasterError as exc:
        errors_ok = errors_ok and "byte" in str(exc)

    raster.write_bytes(original)
    (victim / "meta.json").unlink()
    try:
        load_bundle(victim)
        errors_ok = False
    except MissingMetadataError as exc:
        errors_ok = errors_ok and "meta.json" in str(exc)

    report(
        "criterion 10: bit-exact bundle round trip + named corruption errors",
        ok and errors_ok,
        "50 bundles, bad-magic/truncation/missing-metadata",
    )
