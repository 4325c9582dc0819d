"""Scene-level drivers binding the oracle, mock predictor, losses and
metrics into reproducible runs.

Every run is a pure function of (bundle bytes, config): per-scene seeds
derive from the master seed and the scene index, scenes fan out over a
process pool, and results reduce in scene order, so reports and manifests
are byte-identical across re-runs and across worker counts.  The worker
count is therefore an argument of each run, not a RunConfig field.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .camera import POSITIVE, check_number, unproject
from .losses import (
    LossWeights,
    keypoint_loss,
    mask_loss,
    relative_pose_loss,
    st_loss,
    weighted_total,
)
from .metrics import (
    DEFAULT_ABSOLUTE_THRESHOLD,
    DEFAULT_RELATIVE_THRESHOLD,
    AbsolutePoseReport,
    PointMapReport,
    PoseReport,
    PoseReports,
    absolute_pose_metrics,
    aggregate,
    point_map_metrics_views,
    relative_pose_metrics,
)
from .oracle.bundle import SceneBundle, generate_scene, load_bundle, random_scene_spec, save_bundle
from .oracle.mock import NoiseModel, ground_truth_heatmaps, mock_predict
from .oracle.scene import VIEW_COUNTS, SceneSpec
from .pnp import soft_argmax


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    scenes: int = 1
    views: int = SceneSpec.views
    width: int = SceneSpec.width
    height: int = SceneSpec.height
    noise: NoiseModel = field(default_factory=NoiseModel)
    t_threshold_rel: float = DEFAULT_RELATIVE_THRESHOLD
    r_threshold_rel: float = DEFAULT_RELATIVE_THRESHOLD
    t_threshold_abs: float = DEFAULT_ABSOLUTE_THRESHOLD
    r_threshold_abs: float = DEFAULT_ABSOLUTE_THRESHOLD

    def __post_init__(self):
        check_number("seed", self.seed, lambda v: v >= 0, ">= 0", integer=True)
        check_number("views", self.views, *VIEW_COUNTS, integer=True)
        for name in ("scenes", "width", "height"):
            check_number(name, getattr(self, name), lambda v: v >= 1, "at least 1", integer=True)
        for name in ("t_threshold_rel", "r_threshold_rel", "t_threshold_abs", "r_threshold_abs"):
            check_number(name, getattr(self, name), *POSITIVE)

    def echo(self, generation: bool = True) -> dict:
        d = asdict(self)
        if not generation:
            # evaluation derives scene geometry from the bundles themselves
            for key in ("scenes", "views", "width", "height"):
                d.pop(key)
        return d


def scene_seed(master_seed: int, index: int) -> int:
    """Stable per-scene seed, independent of scheduling."""
    return int(np.random.SeedSequence([int(master_seed), int(index)]).generate_state(1)[0])


def scene_dir_name(index: int) -> str:
    return f"scene_{index:05d}"


# glibc's mallopt parameters, and retain_freed_memory's values for them: the
# ceiling that glibc's own dynamic mmap threshold reaches on 64-bit, and a trim
# threshold near one scene's churn.  Forked workers' RSS counts the parent's
# retained heap too, so the trim threshold is a memory budget, not a knob.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES = TRIM_THRESHOLD_BYTES = 32 << 20


def retain_freed_memory() -> None:
    """Keep freed heap pages mapped for the next scene where glibc's mallopt exists; else do nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (TypeError, AttributeError):  # Windows: CDLL(None) is a TypeError; macOS: no mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def _run_parallel(worker, payloads, workers: int):
    """Ordered map over payloads, inline for one worker; never more workers than payloads.

    A pool forks only after glibc's malloc_trim(0) hands the freed heap this process keeps back to the OS
    (nothing elsewhere), so its workers neither copy those pages on their first writes nor count them in RSS."""
    workers = min(workers, len(payloads))
    if workers <= 1:
        return [worker(p) for p in payloads]
    with contextlib.suppress(TypeError, AttributeError):  # Windows: CDLL(None) is a TypeError; macOS: no malloc_trim
        ctypes.CDLL(None).malloc_trim(0)
    with ProcessPoolExecutor(max_workers=workers, initializer=retain_freed_memory) as pool:
        return list(pool.map(worker, payloads))


# ---------------------------------------------------------------------------
# Scene generation
# ---------------------------------------------------------------------------


def _gen_one(payload) -> dict:
    out_dir, index, config = payload
    seed = scene_seed(config.seed, index)
    spec = random_scene_spec(
        seed, views=config.views, width=config.width, height=config.height
    )
    bundle = generate_scene(spec, seed)
    name = scene_dir_name(index)
    save_bundle(Path(out_dir) / name, bundle)
    return {"path": name, "seed": seed}


def run_gen_scenes(config: RunConfig, out_dir, workers: int = 1) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payloads = [(str(out_dir), i, config) for i in range(config.scenes)]
    rows = _run_parallel(_gen_one, payloads, workers)
    manifest = {
        "command": "gen-scenes",
        "config": config.echo(),
        "bundles": rows,
    }
    write_report(manifest, out_dir / "manifest.json")
    return manifest


class BundleTreeError(FileNotFoundError):
    """A missing, non-directory or empty bundle tree root, or a manifest entry outside it or listed twice."""


def list_bundles(bundle_root) -> list[Path]:
    root = Path(bundle_root)
    if not root.is_dir():
        raise BundleTreeError(f"{root} is not a directory" if root.exists() else f"{root} does not exist")
    manifest = root / "manifest.json"
    if manifest.exists():
        try:
            names = [r["path"] for r in json.loads(manifest.read_text())["bundles"]]
        except (OSError, ValueError, TypeError, KeyError) as exc:  # invalid JSON, a list, an entry without a path
            raise BundleTreeError(f"{manifest}: not a manifest of bundle paths: {type(exc).__name__}: {exc}") from None
        seen = set()
        for name in names:  # a tree reads only inside its root, and each bundle once
            if not isinstance(name, str) or name in ("", "..") or Path(name).name != name:
                raise BundleTreeError(f"{manifest}: bundle path {name!r} is not one name directly under {root}")
            if name in seen:
                raise BundleTreeError(f"{manifest}: bundle path {name!r} is listed more than once")
            seen.add(name)
        dirs = [root / name for name in names]
    else:
        dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not dirs:
        raise BundleTreeError(f"no scene bundles under {root}")
    return dirs


# ---------------------------------------------------------------------------
# Per-scene evaluation
# ---------------------------------------------------------------------------


def _pointmap_report(bundle: SceneBundle, pred) -> PointMapReport:
    """Point-map metrics of a prediction against the bundle's, one view at a time, each view's inputs handed over."""
    return point_map_metrics_views(
        ((unproject(pred.coords.pop(i), pred.depths.pop(i)), unproject(v.pop("coords"), v.pop("depth")))
         for i, v in enumerate(bundle.views)),
        pred.similarity.scale,
        bundle.similarity.scale,
    )


def evaluate_pointmap_scene(bundle: SceneBundle, noise: NoiseModel, seed: int) -> PointMapReport:
    return _pointmap_report(bundle, mock_predict(bundle, noise, seed))


def evaluate_pose_scene(
    bundle: SceneBundle, noise: NoiseModel, seed: int, config: RunConfig
) -> tuple[PoseReport, AbsolutePoseReport]:
    if len(bundle.views) < 2:
        raise ValueError("relative pose metrics need binocular scenes")
    pred = mock_predict(bundle, noise, seed)
    rel = relative_pose_metrics(
        pred.rel_poses[1], bundle.rel_poses[1], config.t_threshold_rel, config.r_threshold_rel
    )
    absolute = absolute_pose_metrics(
        pred.similarity.rigid,
        bundle.similarity.rigid,
        config.t_threshold_abs,
        config.r_threshold_abs,
    )
    return rel, absolute


def evaluate_losses_scene(
    bundle: SceneBundle, noise: NoiseModel, seed: int, weights: LossWeights = LossWeights()
) -> dict:
    """All six objectives for one scene (views combined per loss definition)."""
    pred = mock_predict(bundle, noise, seed)
    geometry = _pointmap_report(bundle, pred)
    mask = float(
        np.mean([mask_loss(p, v.masks) for p, v in zip(pred.masks, bundle.views)])
    )

    rel_terms = [relative_pose_loss(p, g, weights.alpha) for p, g in zip(pred.rel_poses[1:], bundle.rel_poses[1:])]
    rel = float(np.mean(rel_terms)) if rel_terms else 0.0

    st = st_loss(pred.similarity, bundle.similarity, weights.beta1, weights.beta2)

    gt_heatmaps = ground_truth_heatmaps(bundle)

    def keypoint_term(i):
        """View i's term; its keypoints first, since decoding caches its heatmap, then each grid handed over."""
        kp2d, hm, gt_hm = pred.keypoints_2d.pop(i), pred.heatmaps.pop(i), gt_heatmaps.pop(i)
        return keypoint_loss(hm, gt_hm, kp2d, soft_argmax(gt_hm), weights.gamma)

    kp = float(np.mean([keypoint_term(i) for i in range(len(bundle.views))]))

    terms = {
        "point": geometry.point_err,
        "normal": geometry.normal_err,
        "mask": mask,
        "relative_pose": rel,
        "similarity": st,
        "keypoint": kp,
    }
    terms["total"] = weighted_total(terms, weights)
    return terms


# ---------------------------------------------------------------------------
# Dataset-level runs
# ---------------------------------------------------------------------------


# command -> (scene evaluation giving the scene's report, its console lines); a report's fields are
# the scene's row, `aggregate` of the reports is the summary, and each line is formatted from the
# summary and the count of `scenes`
EVALUATIONS = {
    "eval-pointmap": (
        lambda bundle, seed, config: evaluate_pointmap_scene(bundle, config.noise, seed),
        ("point_err {point_err:.6g}  normal_err {normal_err:.6g}  scale_err {scale_err:.6g}  ({scenes} scenes)",),
    ),
    "eval-pose": (
        lambda bundle, seed, config: PoseReports(*evaluate_pose_scene(bundle, config.noise, seed, config)),
        ("RTE {relative[rte]:.6g}  RRE {relative[rre]:.6g}  RTA@{relative[t_threshold]:g} {relative[rta]:.3f}  "
         "RRA@{relative[r_threshold]:g} {relative[rra]:.3f}",
         "ATE {absolute[ate]:.6g}  ARE {absolute[are]:.6g}  ATA@{absolute[t_threshold]:g} {absolute[ata]:.3f}  "
         "ARA@{absolute[r_threshold]:g} {absolute[ara]:.3f}"),
    ),
}


def _eval_one(payload) -> dict:
    command, bundle_dir, index, config = payload
    scene = Path(bundle_dir).name
    try:
        bundle = load_bundle(bundle_dir)
        return {"scene": scene, "report": EVALUATIONS[command][0](bundle, scene_seed(config.seed, index), config)}
    except Exception as exc:  # per-scene failures surface in the run report
        return {"scene": scene, "error": f"{type(exc).__name__}: {exc}"}


def run_eval(command: str, config: RunConfig, bundle_root, workers: int = 1) -> dict:
    """Report of `command` ("eval-pointmap" or "eval-pose") over a bundle tree.

    Raises, before any scene runs, a KeyError for any other command and a
    BundleTreeError if `bundle_root` is not a directory holding bundles.
    """
    EVALUATIONS[command]  # the KeyError, here and not in every scene's failure row
    dirs = list_bundles(bundle_root)
    payloads = [(command, str(d), i, config) for i, d in enumerate(dirs)]
    outcomes = _run_parallel(_eval_one, payloads, workers)
    done = [o for o in outcomes if "error" not in o]
    report = {
        "command": command,
        "config": config.echo(generation=False),
        "scenes": [{"scene": o["scene"], **asdict(o["report"])} for o in done],
        "failures": [o for o in outcomes if "error" in o],
    }
    if done:
        report["summary"] = asdict(aggregate(o["report"] for o in done))
    return report


def write_report(report: dict, path) -> None:
    Path(path).write_text(json.dumps(report, indent=1, sort_keys=True))


def default_workers() -> int:
    """The CPUs this process may run on, where the OS tells; else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
