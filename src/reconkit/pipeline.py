"""Scene-level drivers binding the oracle, mock predictor, losses and
metrics into reproducible runs.

Every run is a pure function of (bundle bytes, config): per-scene seeds
derive from the master seed and the scene index, scenes fan out over a
process pool, and results reduce in scene order, so reports and manifests
are byte-identical across re-runs and across worker counts.  The worker
count itself is therefore not echoed into reports.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .camera import unproject
from .losses import (
    LossWeights,
    keypoint_loss,
    mask_loss,
    relative_pose_loss,
    st_loss,
    weighted_total,
)
from .metrics import (
    AbsolutePoseReport,
    PointMapReport,
    PoseReport,
    absolute_pose_metrics,
    aggregate,
    point_map_metrics_views,
    relative_pose_metrics,
)
from .oracle.bundle import SceneBundle, generate_scene, load_bundle, random_scene_spec, save_bundle
from .oracle.mock import NoiseModel, ground_truth_heatmaps, mock_predict
from .pnp import soft_argmax
from .transforms import relative_pose


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    scenes: int = 1
    views: int = 2
    width: int = 630
    height: int = 476
    noise: NoiseModel = field(default_factory=NoiseModel)
    t_threshold_rel: float = 0.03
    r_threshold_rel: float = 0.03
    t_threshold_abs: float = 0.01
    r_threshold_abs: float = 0.01
    workers: int = 1

    def __post_init__(self):
        if self.views not in (1, 2):
            raise ValueError(f"views must be 1 or 2, got {self.views}")
        for name in ("scenes", "width", "height"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("t_threshold_rel", "r_threshold_rel", "t_threshold_abs", "r_threshold_abs"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")

    def echo(self, generation: bool = True) -> dict:
        d = asdict(self)
        d.pop("workers")  # reports must not depend on the execution layout
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


def _run_parallel(worker, payloads, workers: int):
    """Ordered map over payloads, inline for one worker; never more workers than payloads."""
    workers = min(workers, len(payloads))
    if workers <= 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
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


def run_gen_scenes(config: RunConfig, out_dir) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payloads = [(str(out_dir), i, config) for i in range(config.scenes)]
    rows = _run_parallel(_gen_one, payloads, config.workers)
    manifest = {
        "command": "gen-scenes",
        "config": config.echo(),
        "bundles": rows,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest


class BundleTreeError(FileNotFoundError):
    """A bundle tree root that is missing, not a directory, or holds no bundles."""


def list_bundles(bundle_root) -> list[Path]:
    root = Path(bundle_root)
    if not root.is_dir():
        raise BundleTreeError(f"{root} is not a directory" if root.exists() else f"{root} does not exist")
    manifest = root / "manifest.json"
    if manifest.exists():
        dirs = [root / r["path"] for r in json.loads(manifest.read_text())["bundles"]]
    else:
        dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not dirs:
        raise BundleTreeError(f"no scene bundles under {root}")
    return dirs


# ---------------------------------------------------------------------------
# Per-scene evaluation
# ---------------------------------------------------------------------------


def _pointmap_report(bundle: SceneBundle, pred) -> PointMapReport:
    """Point-map metrics of a prediction against the bundle's own point maps."""
    return point_map_metrics_views(
        [unproject(c, d) for c, d in zip(pred.coords, pred.depths)],
        [unproject(v.coords, v.depth) for v in bundle.views],
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
    rel_gt = relative_pose(bundle.views[0].pose_world, bundle.views[1].pose_world)
    rel = relative_pose_metrics(
        pred.rel_poses[1], rel_gt, config.t_threshold_rel, config.r_threshold_rel
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

    rel_terms = []
    for j in range(1, len(bundle.views)):
        rel_gt = relative_pose(bundle.views[0].pose_world, bundle.views[j].pose_world)
        rel_terms.append(relative_pose_loss(pred.rel_poses[j], rel_gt, weights.alpha))
    rel = float(np.mean(rel_terms)) if rel_terms else 0.0

    st = st_loss(pred.similarity, bundle.similarity, weights.beta1, weights.beta2)

    gt_heatmaps = ground_truth_heatmaps(bundle)
    kp = float(
        np.mean(
            [
                keypoint_loss(hm, gt_hm, kp2d, soft_argmax(gt_hm), weights.gamma)
                for hm, kp2d, gt_hm in zip(pred.heatmaps, pred.keypoints_2d, gt_heatmaps)
            ]
        )
    )

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


def _pointmap_scene(bundle, seed, config):
    report = evaluate_pointmap_scene(bundle, config.noise, seed)
    return asdict(report), report


def _pose_scene(bundle, seed, config):
    rel, absolute = evaluate_pose_scene(bundle, config.noise, seed, config)
    return {"relative": asdict(rel), "absolute": asdict(absolute)}, (rel, absolute)


def _pose_summary(results) -> dict:
    return {
        "relative": asdict(aggregate([r for r, _ in results])),
        "absolute": asdict(aggregate([a for _, a in results])),
    }


# command -> (scene evaluation giving (report row, result), summary over the results)
EVALUATIONS = {
    "eval-pointmap": (_pointmap_scene, lambda results: asdict(aggregate(results))),
    "eval-pose": (_pose_scene, _pose_summary),
}


def _eval_one(payload) -> dict:
    command, bundle_dir, index, config = payload
    scene = Path(bundle_dir).name
    try:
        bundle = load_bundle(bundle_dir)
        row, result = EVALUATIONS[command][0](bundle, scene_seed(config.seed, index), config)
        return {"scene": scene, "row": row, "result": result}
    except Exception as exc:  # per-scene failures surface in the run report
        return {"scene": scene, "error": f"{type(exc).__name__}: {exc}"}


def run_eval(command: str, config: RunConfig, bundle_root) -> dict:
    """Report of `command` ("eval-pointmap" or "eval-pose") over a bundle tree.

    Raises BundleTreeError, before any scene runs, if `bundle_root` is not a
    directory holding bundles.
    """
    summarize = EVALUATIONS[command][1]
    dirs = list_bundles(bundle_root)
    payloads = [(command, str(d), i, config) for i, d in enumerate(dirs)]
    outcomes = _run_parallel(_eval_one, payloads, config.workers)
    done = [o for o in outcomes if "error" not in o]
    report = {
        "command": command,
        "config": config.echo(generation=False),
        "scenes": [{"scene": o["scene"], **o["row"]} for o in done],
        "failures": [o for o in outcomes if "error" in o],
    }
    if done:
        report["summary"] = summarize([o["result"] for o in done])
    return report


def write_report(report: dict, path) -> None:
    Path(path).write_text(json.dumps(report, indent=1, sort_keys=True))


def default_workers() -> int:
    """The CPUs this process may run on, where the OS tells; else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
