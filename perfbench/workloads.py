"""The benchmark's workloads: set-up, one CLI pass, one loop pass, checks.

A pass runs a workload's command sequence once over all its scenes.  The
CLI pass calls `reconkit.cli.main` in process at `--workers NPROC`; the loop
pass does the same per-scene work in this process through the public
per-scene functions and writes the same files the CLI writes, built from
its own results.  The two output trees must then be byte-identical, which
checks every CLI report row and raster against the loop exactly.

Library functions are called through their modules (`bundle.load_bundle`,
not a local name) so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import math
import os
import shutil
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from reconkit import cli, masks, metrics, pipeline, pnp
from reconkit.oracle import bundle, mock, raster

NPROC = len(os.sched_getaffinity(0))

POINTMAP_NOISE = mock.NoiseModel(
    depth_sigma=0.002, coord_sigma=0.0002, heatmap_blur=0.5, mask_flip_rate=0.01
)
POSE_NOISE = mock.NoiseModel(translation_sigma=0.01, rotation_sigma=0.005, scale_sigma=0.01)
# The CLI's 1.0 default mis-decodes oracle heatmaps by up to 33 px.
HEATMAP_TEMPERATURE = 0.05
COMPOSE_THRESHOLD = 0.5
PNP_KEYPOINT_TOL = 1e-6  # m and rad
PNP_HEATMAP_TOL_M = 5e-3
VALIDATE_TOL = 1e-9
# scene_tail_ms is this percentile of the loop's per-scene latencies; a run
# takes enough samples to keep ten above it.
TAIL_PCT = 75.0
MIN_LOOP_SAMPLES = math.ceil(10 / (1 - TAIL_PCT / 100))


class CheckFailed(Exception):
    """An output of the program differs from what the benchmark expects."""


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    scenes: int
    steps: tuple  # command sequence of one pass, as handled by cli_pass

    @property
    def builds_tree(self) -> bool:
        return "gen" not in self.steps


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gen-vga", 630, 476, 8, ("gen",)),
        Workload("eval-qvga", 320, 240, 8, ("pointmap", "pose", "compose")),
    )
}


def noise_flags(noise) -> list[str]:
    flags = []
    for flag, field in cli.NOISE_FLAGS.items():
        value = getattr(noise, field)
        if value:
            flags += ["--" + flag.replace("_", "-"), repr(value)]
    return flags


@dataclass
class Run:
    """State of one benchmark run over one workload."""

    workload: Workload
    seed: int
    work: Path  # scratch directory, removed when the run ends
    tracer: object  # spans.Tracer
    tree: Path | None = None  # input bundle tree of the evaluation workloads
    log: str = ""  # captured output of the last failed CLI call

    def scene_names(self) -> list[str]:
        return [pipeline.scene_dir_name(i) for i in range(self.workload.scenes)]

    def bundle_dirs(self) -> list[Path]:
        return pipeline.list_bundles(self.tree)

    def run_cli(self, argv) -> bool:
        """One in-process CLI call with its output captured; True on success."""
        buf = io.StringIO()
        try:
            with self.tracer.span("cli." + argv[0].replace("-", "_")):
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                    code = cli.main([str(a) for a in argv])
        except Exception as exc:  # a crashing command counts as a failed scene
            buf.write(f"{type(exc).__name__}: {exc}\n")
            code = 1
        if code != 0:
            self.log = buf.getvalue()
        return code == 0


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def warm_up(work: Path, seed: int) -> None:
    """Call every layer once on a tiny scene so lazy set-up finishes before timing."""
    spec = bundle.random_scene_spec(seed, views=2, width=96, height=72)
    b = bundle.generate_scene(spec, seed)
    bundle.save_bundle(work / "warmup", b)
    b = bundle.load_bundle(work / "warmup")
    pipeline.evaluate_pointmap_scene(b, POINTMAP_NOISE, seed)
    pipeline.evaluate_pose_scene(b, POSE_NOISE, seed, pipeline.RunConfig())
    pred = mock.mock_predict(b, POINTMAP_NOISE, seed)
    masks.compose_masked_points(pred.depths[0], pred.coords[0], pred.masks[0])
    pnp.solve_pnp(b.keypoints_3d, pnp.soft_argmax(pred.heatmaps[0], HEATMAP_TEMPERATURE), b.views[0].intrinsics)
    shutil.rmtree(work / "warmup")


def gen_argv(run: Run, out: Path) -> list:
    w = run.workload
    return ["gen-scenes", "--scenes", w.scenes, "--seed", run.seed, "--views", 2,
            "--width", w.width, "--height", w.height, "--workers", NPROC, "--out", out]


def setup(run: Run, index: int, traced: bool = False) -> float:
    """Warm up, then build the workload's input bundle tree; returns the wall s.

    The first tree built is the run's input; a repeat builds its own tree
    and removes it, so that every pass reads the same paths.  When `traced`,
    the tree's gen-scenes call is recorded but the warm-up is not, so that
    its tiny scene stands in for no layer of the workload.
    """
    t0 = time.perf_counter()
    warm_up(run.work, run.seed)
    if run.workload.builds_tree:
        tree = run.work / f"setup-{index}"
        with run.tracer.recording("setup" if traced else None):
            ok = run.run_cli(gen_argv(run, tree))
        if not ok:
            raise CheckFailed(f"set-up gen-scenes failed:\n{run.log}")
    elapsed = time.perf_counter() - t0
    if run.workload.builds_tree:
        if run.tree is None:
            run.tree = tree
        else:
            shutil.rmtree(tree)
    return elapsed


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def cli_pass(run: Run, out: Path) -> tuple[float, set]:
    """Run the workload's CLI command sequence once; returns (wall s, failed scenes)."""
    w, seed = run.workload, run.seed
    dirs = run.bundle_dirs() if w.builds_tree else []
    failed: set = set()
    reports = []
    out.mkdir(parents=True)
    t0 = time.perf_counter()
    for step in w.steps:
        if step == "gen":
            if not run.run_cli(gen_argv(run, out / "tree")):
                failed.update(run.scene_names())
        elif step in ("pointmap", "pose"):
            noise = POINTMAP_NOISE if step == "pointmap" else POSE_NOISE
            reports.append(out / f"{step}.json")
            run.run_cli(
                [f"eval-{step}", "--bundles", run.tree, "--seed", seed, "--workers", NPROC,
                 *noise_flags(noise), "--out", reports[-1]]
            )
        else:
            for d in dirs:
                if not run.run_cli(
                    ["compose-points", "--bundle", d, "--view", 0, "--seed", seed,
                     *noise_flags(POINTMAP_NOISE), "--out", out / "composed" / d.name]
                ):
                    failed.add(d.name)
    wall = time.perf_counter() - t0
    for report in reports:
        if report.exists():
            failed.update(f["scene"] for f in json.loads(report.read_text())["failures"])
        else:
            failed.update(d.name for d in dirs)
    return wall, failed


def loop_pass(run: Run, out: Path) -> tuple[float, list, set]:
    """The same per-scene work in this process, one scene at a time.

    Returns (wall s, per-scene busy ms, failed scenes).  A scene's busy time
    sums its work over every command of the pass; building and writing the
    dataset reports is pass time but no scene's.
    """
    w, seed, tracer = run.workload, run.seed, run.tracer
    failed: set = set()
    out.mkdir(parents=True)
    names = run.scene_names() if not w.builds_tree else [d.name for d in run.bundle_dirs()]
    busy = dict.fromkeys(names, 0.0)
    t_pass = time.perf_counter()
    for step in w.steps:
        rows, failures, results = [], [], []
        for i, name in enumerate(names):
            d = run.tree / name if w.builds_tree else None
            t0 = time.perf_counter()
            try:
                with tracer.span("scene", scene=name):
                    result = _loop_scene(run, step, i, name, d, out)
            except Exception as exc:
                failed.add(name)
                failures.append({"scene": name, "error": f"{type(exc).__name__}: {exc}"})
                result = None
            busy[name] += time.perf_counter() - t0
            if result is not None and step in ("pointmap", "pose"):
                rows.append({"scene": name, **result[0]})
                results.append(result[1])
        if step in ("pointmap", "pose"):
            _write_eval_report(run, step, rows, failures, results, out / f"{step}.json")
    wall = time.perf_counter() - t_pass
    return wall, [busy[n] * 1e3 for n in names], failed


def gen_scene(run: Run, i: int, dest: Path) -> None:
    """What gen-scenes does for scene i, in this process."""
    s = pipeline.scene_seed(run.seed, i)
    spec = bundle.random_scene_spec(s, views=2, width=run.workload.width, height=run.workload.height)
    bundle.save_bundle(dest, bundle.generate_scene(spec, s))


def _loop_scene(run: Run, step: str, i: int, name: str, d: Path | None, out: Path):
    seed = run.seed
    if step == "gen":
        gen_scene(run, i, out / "tree" / name)
        return None
    b = bundle.load_bundle(d)
    if step == "pointmap":
        r = pipeline.evaluate_pointmap_scene(b, POINTMAP_NOISE, pipeline.scene_seed(seed, i))
        return asdict(r), r
    if step == "pose":
        config = pipeline.RunConfig(seed=seed, noise=POSE_NOISE)
        rel, absolute = pipeline.evaluate_pose_scene(b, POSE_NOISE, pipeline.scene_seed(seed, i), config)
        return {"relative": asdict(rel), "absolute": asdict(absolute)}, (rel, absolute)
    # compose-points on view 0
    pred = mock.mock_predict(b, POINTMAP_NOISE, seed)
    labeled = masks.compose_masked_points(
        pred.depths[0], pred.coords[0], pred.masks[0], COMPOSE_THRESHOLD
    )
    dest = out / "composed" / name
    dest.mkdir(parents=True)
    raster.write_raster(dest / "points.r3rb", labeled.points.values)
    raster.write_raster(dest / "points_valid.r3rb", labeled.points.valid.astype(np.uint8))
    raster.write_raster(dest / "labels.r3rb", labeled.labels)
    report = {
        "command": "compose-points",
        "config": {
            "bundle": str(d),
            "view": 0,
            "seed": seed,
            "threshold": COMPOSE_THRESHOLD,
            "noise": asdict(POINTMAP_NOISE),
        },
        "points": int(labeled.points.valid.sum()),
        "per_part": {
            part: int(np.sum(labeled.labels == label))
            for part, label in (
                ("robot", masks.LABEL_ROBOT),
                ("object", masks.LABEL_OBJECT),
                ("background", masks.LABEL_BACKGROUND),
            )
        },
        "failures": [],
    }
    pipeline.write_report(report, dest / "report.json")
    return None


def _write_eval_report(run: Run, step, rows, failures, results, path: Path) -> None:
    """The report `eval-<step>` writes, built from the loop's own results."""
    noise = POINTMAP_NOISE if step == "pointmap" else POSE_NOISE
    report = {
        "command": f"eval-{step}",
        "config": pipeline.RunConfig(seed=run.seed, noise=noise).echo(generation=False),
        "scenes": rows,
        "failures": failures,
    }
    if results and step == "pointmap":
        report["summary"] = asdict(metrics.aggregate(results))
    elif results:
        report["summary"] = {
            "relative": asdict(metrics.aggregate([r for r, _ in results])),
            "absolute": asdict(metrics.aggregate([a for _, a in results])),
        }
    pipeline.write_report(report, path)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def tree_files(root: Path) -> list[str]:
    """Sorted relative paths of every file except gen-scenes' manifest."""
    return sorted(
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    )


def compare_trees(reference: Path, other: Path, what: str) -> None:
    """Both trees hold the same files with the same bytes, one pair at a time."""
    ref, got = tree_files(reference), tree_files(other)
    if ref != got:
        missing = sorted(set(ref) ^ set(got))[:5]
        raise CheckFailed(f"{what}: file sets differ, e.g. {missing}")
    for rel in ref:
        if not filecmp.cmp(reference / rel, other / rel, shallow=False):
            raise CheckFailed(f"{what}: {rel} differs from the reference")


def validate(bundle_dir: Path) -> None:
    """Every pixel and keypoint of a bundle lies on the analytic scene."""
    try:
        bundle.validate_bundle(bundle.load_bundle(bundle_dir), tol=VALIDATE_TOL)
    except bundle.BundleError as exc:
        raise CheckFailed(f"{bundle_dir.name}: {exc}") from exc


def check_pass(run: Run, source_tree: Path) -> None:
    """Zero-noise and PnP checks through every CLI command on one scene.

    Scene 0 of `source_tree` is copied into a one-scene tree.  At zero noise
    its point, normal, scale and pose errors must all be exactly 0; PnP from
    the stored keypoints must recover the pose to 1e-6 m and rad, and from
    the ground-truth heatmap to 5 mm.  Every scene of `source_tree` is first
    validated against the analytic surfaces.
    """
    for d in pipeline.list_bundles(source_tree):
        validate(d)
    root = run.work / "check"
    scene = root / "tree" / pipeline.scene_dir_name(0)
    shutil.copytree(source_tree / pipeline.scene_dir_name(0), scene)
    b = bundle.load_bundle(scene)
    raster.write_raster(root / "heatmap.r3rb", mock.ground_truth_heatmaps(b)[0])
    calls = [
        ["eval-pointmap", "--bundles", root / "tree", "--out", root / "pointmap.json"],
        ["eval-pose", "--bundles", root / "tree", "--out", root / "pose.json"],
        ["compose-points", "--bundle", scene, "--out", root / "composed"],
        ["solve-pnp", "--bundle", scene, "--out", root / "pnp_kp.json"],
        ["solve-pnp", "--bundle", scene, "--heatmap", root / "heatmap.r3rb",
         "--temperature", HEATMAP_TEMPERATURE, "--out", root / "pnp_hm.json"],
    ]
    for argv in calls:
        if not run.run_cli([*argv, "--seed", run.seed, "--workers", NPROC]):
            raise CheckFailed(f"zero-noise {argv[0]} failed:\n{run.log}")

    def load(name):
        return json.loads((root / name).read_text())

    pm = load("pointmap.json")["scenes"][0]
    pose = load("pose.json")["scenes"][0]
    errors = {
        "point_err": pm["point_err"], "normal_err": pm["normal_err"], "scale_err": pm["scale_err"],
        **{k: pose["relative"][k] for k in ("rte", "rre")},
        **{k: pose["absolute"][k] for k in ("ate", "are")},
    }
    if any(v != 0.0 for v in errors.values()):
        raise CheckFailed(f"zero-noise errors are not all zero: {errors}")
    composed = load("composed/report.json")
    view = b.views[0]
    expected = masks.compose_masked_points(view.depth, view.coords, view.masks, COMPOSE_THRESHOLD)
    if composed["points"] != int(expected.points.valid.sum()):
        raise CheckFailed("zero-noise compose-points differs from the ground-truth composition")
    kp, hm = load("pnp_kp.json")["error_vs_bundle"], load("pnp_hm.json")["error_vs_bundle"]
    if kp["translation_m"] > PNP_KEYPOINT_TOL or kp["rotation_rad"] > PNP_KEYPOINT_TOL:
        raise CheckFailed(f"PnP from bundle keypoints off by {kp}")
    if hm["translation_m"] > PNP_HEATMAP_TOL_M:
        raise CheckFailed(f"PnP from the ground-truth heatmap off by {hm}")
    shutil.rmtree(root)
