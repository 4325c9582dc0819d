"""Command-line entry point.

Subcommands: gen-scenes, eval-pointmap, eval-pose, solve-pnp,
compose-points, check-grads.  Precedence of settings: config file
(--config, JSON) overrides flags; flags override built-in defaults.
Exit code is 0 iff no scene failed; for check-grads, iff every loss's
gradient error is below GRADIENT_TOLERANCE.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .losses import GRADIENT_CHECKS, LossWeights, NonDifferentiableError, check_gradient
from .masks import compose_masked_points
from .oracle.bundle import load_bundle
from .oracle.mock import NoiseModel, mock_predict
from .oracle.raster import read_raster, write_raster
from .pipeline import BundleTreeError, RunConfig, default_workers, run_eval, run_gen_scenes, write_report
from .pnp import DEFAULT_TEMPERATURE, soft_argmax, solve_pnp
from .transforms import rotation_angle

NOISE_FLAGS = {
    "noise_depth": "depth_sigma",
    "noise_coord": "coord_sigma",
    "noise_trans": "translation_sigma",
    "noise_rot": "rotation_sigma",
    "noise_scale": "scale_sigma",
    "noise_heatmap_blur": "heatmap_blur",
    "noise_mask_flip": "mask_flip_rate",
}
GEN_KEYS = ("seed", "scenes", "views", "width", "height")
# check-grads fails a loss whose max relative gradient error reaches this
GRADIENT_TOLERANCE = 1e-4
# config field -> the flag (and config-file key) that sets it
FIELD_FLAGS = {
    **{field: flag for flag, field in NOISE_FLAGS.items()},
    **{f"{axis}_threshold_{kind}": f"threshold_{kind}" for axis in "tr" for kind in ("rel", "abs")},
    **{key: key for key in GEN_KEYS},
}


class FlagError(Exception):
    """A flag or config-file value that a config object rejected."""


def _build(cls, **kwargs):
    """cls(**kwargs), turning its ValueError into a FlagError that names the flag."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        flag = next((FIELD_FLAGS[w] for w in re.findall(r"\w+", str(exc)) if w in FIELD_FLAGS), None)
        raise FlagError(f"--{flag.replace('_', '-')}: {exc}" if flag else str(exc)) from None


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    p.add_argument("--workers", type=int, default=None, help="parallel workers (default: all cores)")
    p.add_argument("--config", type=str, default=None, help="JSON config file; overrides flags")
    p.add_argument("--out", type=str, default=None, help="output path")


def _add_noise(p: argparse.ArgumentParser):
    p.add_argument("--noise-depth", type=float, default=None, help="depth noise sigma (m)")
    p.add_argument("--noise-coord", type=float, default=None, help="coord noise sigma")
    p.add_argument("--noise-trans", type=float, default=None, help="pose translation sigma (m)")
    p.add_argument("--noise-rot", type=float, default=None, help="pose rotation sigma (rad)")
    p.add_argument("--noise-scale", type=float, default=None, help="log-scale sigma")
    p.add_argument("--noise-heatmap-blur", type=float, default=None, help="extra heatmap bump width (px)")
    p.add_argument("--noise-mask-flip", type=float, default=None, help="mask flip probability")


def _add_thresholds(p: argparse.ArgumentParser):
    p.add_argument("--threshold-rel", type=float, default=None, help="relative pose threshold (m and rad, default 0.03)")
    p.add_argument("--threshold-abs", type=float, default=None, help="absolute pose threshold (m and rad, default 0.01)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reconkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-scenes", help="generate ground-truth scene bundles")
    _add_common(g)
    g.add_argument("--scenes", type=int, default=None, help=f"number of scenes (default {RunConfig.scenes})")
    g.add_argument("--views", type=int, default=None, help=f"cameras per scene, 1 or 2 (default {RunConfig.views})")
    g.add_argument("--width", type=int, default=None, help=f"image width (default {RunConfig.width})")
    g.add_argument("--height", type=int, default=None, help=f"image height (default {RunConfig.height})")

    for name in ("eval-pointmap", "eval-pose"):
        e = sub.add_parser(name, help=f"run {name.split('-')[1]} evaluation over a bundle tree")
        _add_common(e)
        _add_noise(e)
        _add_thresholds(e)
        e.add_argument("--bundles", type=str, required=True, help="bundle tree root")
        e.add_argument("--weights-file", type=str, default=None, help="JSON loss weights")

    s = sub.add_parser("solve-pnp", help="solve PnP for one bundle view")
    _add_common(s)
    s.add_argument("--bundle", type=str, required=True, help="bundle directory")
    s.add_argument("--view", type=int, default=0)
    s.add_argument("--heatmap", type=str, default=None, help="heatmap raster to decode (HxWxN_kp)")
    s.add_argument("--keypoints", type=str, default=None, help="JSON file with [[x, y], ...] pixels")
    s.add_argument("--temperature", type=float, default=None, help=f"soft-argmax temperature (default {DEFAULT_TEMPERATURE})")

    c = sub.add_parser("compose-points", help="compose a labeled point map from mock predictions")
    _add_common(c)
    _add_noise(c)
    c.add_argument("--bundle", type=str, required=True, help="bundle directory")
    c.add_argument("--view", type=int, default=0)
    c.add_argument("--threshold", type=float, default=None, help="mask binarization threshold (default 0.5)")

    k = sub.add_parser("check-grads", help="finite-difference checks of every loss gradient")
    _add_common(k)
    k.add_argument("--eps", type=float, default=None, help="finite-difference step (default 1e-6)")

    for p in sub.choices.values():
        # each flag's argparse type, which --config values are checked against
        p.set_defaults(flag_types={a.dest: a.type for a in p._actions if a.type is not None})
    return parser


# flag type -> (JSON value types a --config key accepts, their name); bool is
# an int subclass but never a valid value
CONFIG_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string")}


def _config_value(key: str, value, flag_type):
    """value, if its flag's type accepts it; else a FlagError naming the key."""
    accepted, name = CONFIG_TYPES[flag_type]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise FlagError(f"--config: {key}: expected {name}, got {json.dumps(value)}")
    return value


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """config file > flags > defaults."""
    merged = dict(defaults)
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    if getattr(args, "config", None):
        file_cfg = json.loads(Path(args.config).read_text())
        if not isinstance(file_cfg, dict):
            raise FlagError(f"--config: {args.config} must hold a JSON object, got {type(file_cfg).__name__}")
        for key, value in file_cfg.items():
            if key not in merged:
                raise SystemExit(f"unknown config key {key!r}")
            merged[key] = _config_value(key, value, args.flag_types[key])
    return merged


def _noise_from(merged: dict) -> NoiseModel:
    return _build(NoiseModel, **{field: merged[flag] for flag, field in NOISE_FLAGS.items()})


def _weights_from(merged: dict) -> LossWeights:
    if merged.get("weights_file"):
        return LossWeights.from_dict(json.loads(Path(merged["weights_file"]).read_text()))
    return LossWeights()


def _eval_config(merged: dict) -> RunConfig:
    return _build(
        RunConfig,
        seed=merged["seed"],
        noise=_noise_from(merged),
        t_threshold_rel=merged["threshold_rel"],
        r_threshold_rel=merged["threshold_rel"],
        t_threshold_abs=merged["threshold_abs"],
        r_threshold_abs=merged["threshold_abs"],
        weights=_weights_from(merged),
        workers=merged["workers"] or default_workers(),
    )


_EVAL_DEFAULTS = {
    "seed": RunConfig.seed,
    "workers": 0,
    "threshold_rel": RunConfig.t_threshold_rel,
    "threshold_abs": RunConfig.t_threshold_abs,
    "weights_file": None,
    **{flag: 0.0 for flag in NOISE_FLAGS},
}


def _finish(report: dict, out, lines) -> int:
    for line in lines:
        print(line)
    if out:
        write_report(report, out)
        print(f"report written to {out}")
    failures = report.get("failures", [])
    for f in failures:
        print(f"FAILED {f.get('scene', f.get('loss'))}: {f['error']}", file=sys.stderr)
    return 1 if failures else 0


def cmd_gen_scenes(args) -> int:
    merged = _merge(args, {**{key: getattr(RunConfig, key) for key in GEN_KEYS}, "workers": 0})
    if not args.out:
        raise SystemExit("gen-scenes requires --out DIRECTORY")
    config = _build(
        RunConfig,
        **{key: merged[key] for key in GEN_KEYS},
        workers=merged["workers"] or default_workers(),
    )
    manifest = run_gen_scenes(config, args.out)
    print(f"generated {len(manifest['bundles'])} bundles under {args.out}")
    return 0


# eval subcommand -> summary lines, formatted from the report's summary
EVAL_SUMMARY_LINES = {
    "eval-pointmap": (
        "point_err {point_err:.6g}  normal_err {normal_err:.6g}  "
        "scale_err {scale_err:.6g}  ({scenes} scenes)",
    ),
    "eval-pose": (
        "RTE {relative[rte]:.6g}  RRE {relative[rre]:.6g}  "
        "RTA@{relative[t_threshold]:g} {relative[rta]:.3f}  "
        "RRA@{relative[r_threshold]:g} {relative[rra]:.3f}",
        "ATE {absolute[ate]:.6g}  ARE {absolute[are]:.6g}  "
        "ATA@{absolute[t_threshold]:g} {absolute[ata]:.3f}  "
        "ARA@{absolute[r_threshold]:g} {absolute[ara]:.3f}",
    ),
}


def cmd_eval(args) -> int:
    config = _eval_config(_merge(args, _EVAL_DEFAULTS))
    try:
        report = run_eval(args.command, config, args.bundles)
    except BundleTreeError as exc:
        raise FlagError(f"--bundles: {exc}") from None
    lines = []
    if "summary" in report:
        lines = [
            line.format(scenes=len(report["scenes"]), **report["summary"])
            for line in EVAL_SUMMARY_LINES[args.command]
        ]
    return _finish(report, args.out, lines)


def _check_view(args, bundle) -> int:
    """The --view index, if the bundle has that view."""
    if not 0 <= args.view < len(bundle.views):
        raise FlagError(f"--view: the bundle has {len(bundle.views)} view(s), got {args.view}")
    return args.view


def cmd_solve_pnp(args) -> int:
    merged = _merge(args, {"seed": 0, "workers": 0, "temperature": DEFAULT_TEMPERATURE})
    bundle = load_bundle(args.bundle)
    i = _check_view(args, bundle)
    view = bundle.views[i]
    if args.keypoints:
        pixels = np.asarray(json.loads(Path(args.keypoints).read_text()), dtype=float)
        source = "explicit keypoints"
    elif args.heatmap:
        pixels = soft_argmax(read_raster(args.heatmap), merged["temperature"])
        source = "heatmap soft-argmax"
    else:
        pixels = bundle.keypoints_2d[i]
        source = "bundle ground-truth keypoints"
    result = solve_pnp(bundle.keypoints_3d, pixels, view.intrinsics)
    gt_extrinsic = view.pose_robot.inverse()
    t_err = float(np.linalg.norm(result.extrinsic.translation - gt_extrinsic.translation))
    r_err = rotation_angle(result.extrinsic.rotation, gt_extrinsic.rotation)
    report = {
        "command": "solve-pnp",
        "config": {
            "bundle": str(args.bundle),
            "view": i,
            "seed": merged["seed"],
            "temperature": merged["temperature"],
            "source": source,
        },
        "extrinsic": result.extrinsic.matrix().tolist(),
        "reprojection_error_px": result.reprojection_error,
        "iterations": result.iterations,
        "error_vs_bundle": {"translation_m": t_err, "rotation_rad": r_err},
        "failures": [],
    }
    lines = [
        f"extrinsic from {source}: reprojection {result.reprojection_error:.3e} px, "
        f"{result.iterations} iterations",
        f"vs stored pose: {t_err:.3e} m, {r_err:.3e} rad",
    ]
    return _finish(report, args.out, lines)


def cmd_compose_points(args) -> int:
    merged = _merge(args, {"seed": 0, "workers": 0, "threshold": 0.5, **{f: 0.0 for f in NOISE_FLAGS}})
    noise = _noise_from(merged)
    if not 0.0 < merged["threshold"] < 1.0:
        raise FlagError(f"--threshold: must lie in (0, 1), got {merged['threshold']}")
    bundle = load_bundle(args.bundle)
    i = _check_view(args, bundle)
    pred = mock_predict(bundle, noise, merged["seed"])
    labeled = compose_masked_points(
        pred.depths[i], pred.coords[i], pred.masks[i], merged["threshold"]
    )
    counts = {
        "robot": int(np.sum(labeled.labels == 1)),
        "object": int(np.sum(labeled.labels == 2)),
        "background": int(np.sum(labeled.labels == 3)),
    }
    report = {
        "command": "compose-points",
        "config": {
            "bundle": str(args.bundle),
            "view": i,
            "seed": merged["seed"],
            "threshold": merged["threshold"],
            "noise": asdict(noise),
        },
        "points": int(labeled.points.valid.sum()),
        "per_part": counts,
        "failures": [],
    }
    lines = [f"composed {report['points']} labeled points {counts}"]
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_raster(out / "points.r3rb", labeled.points.values)
        write_raster(out / "points_valid.r3rb", labeled.points.valid.astype(np.uint8))
        write_raster(out / "labels.r3rb", labeled.labels)
        write_report(report, out / "report.json")
        print(f"rasters written to {out}")
        for line in lines:
            print(line)
        return 0
    return _finish(report, None, lines)


def cmd_check_grads(args) -> int:
    merged = _merge(args, {"seed": 0, "workers": 0, "eps": 1e-6})
    rows, failures = {}, []
    for name in sorted(GRADIENT_CHECKS):
        try:
            err = check_gradient(name, seed=merged["seed"], eps=merged["eps"])
        except NonDifferentiableError as exc:
            failures.append({"loss": name, "error": f"NonDifferentiableError: {exc}"})
            continue
        rows[name] = err
        print(f"{name:<16} max relative gradient error {err:.3e}")
        if err >= GRADIENT_TOLERANCE:
            failures.append(
                {"loss": name, "error": f"relative gradient error {err:.3e} >= {GRADIENT_TOLERANCE:g}"}
            )
    report = {
        "command": "check-grads",
        "config": {"seed": merged["seed"], "eps": merged["eps"]},
        "max_relative_error": rows,
        "worst": max(rows.values(), default=0.0),
        "failures": failures,
    }
    return _finish(report, args.out, [])


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "gen-scenes": cmd_gen_scenes,
        "eval-pointmap": cmd_eval,
        "eval-pose": cmd_eval,
        "solve-pnp": cmd_solve_pnp,
        "compose-points": cmd_compose_points,
        "check-grads": cmd_check_grads,
    }
    try:
        return handlers[args.command](args)
    except FlagError as exc:
        print(f"reconkit {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
