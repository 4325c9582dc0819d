"""Command-line entry point.

Subcommands: gen-scenes, eval-pointmap, eval-pose, solve-pnp,
compose-points, check-grads.  Precedence of settings: config file
(--config, JSON) overrides flags; flags override their argparse defaults.
Exit code is 0 iff no scene failed; for check-grads, iff every loss's
gradient error is below GRADIENT_TOLERANCE.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .losses import GRADIENT_CHECKS, check_gradient
from .masks import LABEL_ROBOT, PART_NAMES, compose_masked_points
from .oracle.bundle import BundleError, load_bundle
from .oracle.mock import NoiseModel, mock_predict
from .oracle.raster import RasterError, read_raster, write_raster
from .pipeline import BundleTreeError, RunConfig, default_workers, run_eval, run_gen_scenes, write_report
from .pnp import DEFAULT_TEMPERATURE, DegenerateConfigurationError, NonConvergenceError, soft_argmax, solve_pnp
from .transforms import RankDeficientError, rotation_angle

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
# flags that say what to read, write or select; --config sets every other typed flag
LOCATION_FLAGS = ("config", "out", "bundle", "bundles", "view", "heatmap", "keypoints")
# check-grads fails a loss whose max relative gradient error reaches this
GRADIENT_TOLERANCE = 1e-4
# numeric flag -> (its check, what it must be), applied before any command runs
FLAG_RANGES = {
    "seed": (lambda v: v >= 0, ">= 0"),
    "workers": (lambda v: v >= 0, ">= 0 (0: all cores)"),
    "threshold": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "temperature": (lambda v: 0.0 < v < np.inf, "finite and > 0"),
    "eps": (lambda v: 0.0 < v < np.inf, "finite and > 0"),
}
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
    p.add_argument("--seed", type=int, default=RunConfig.seed, help="master seed (default %(default)s)")
    p.add_argument("--workers", type=int, default=0, help="parallel workers (default %(default)s: all cores)")
    p.add_argument("--config", type=str, default=None, help="JSON config file; overrides flags")
    p.add_argument("--out", type=str, default=None, help="output path")


def _add_noise(p: argparse.ArgumentParser):
    p.add_argument("--noise-depth", type=float, default=0.0, help="depth noise sigma (m)")
    p.add_argument("--noise-coord", type=float, default=0.0, help="coord noise sigma")
    p.add_argument("--noise-trans", type=float, default=0.0, help="pose translation sigma (m)")
    p.add_argument("--noise-rot", type=float, default=0.0, help="pose rotation sigma (rad)")
    p.add_argument("--noise-scale", type=float, default=0.0, help="log-scale sigma")
    p.add_argument("--noise-heatmap-blur", type=float, default=0.0, help="extra heatmap bump width (px)")
    p.add_argument("--noise-mask-flip", type=float, default=0.0, help="mask flip probability")


def _add_thresholds(p: argparse.ArgumentParser):
    p.add_argument("--threshold-rel", type=float, default=RunConfig.t_threshold_rel,
                   help="relative pose threshold (m and rad, default %(default)s)")
    p.add_argument("--threshold-abs", type=float, default=RunConfig.t_threshold_abs,
                   help="absolute pose threshold (m and rad, default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reconkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-scenes", help="generate ground-truth scene bundles")
    _add_common(g)
    g.add_argument("--scenes", type=int, default=RunConfig.scenes, help="number of scenes (default %(default)s)")
    g.add_argument("--views", type=int, default=RunConfig.views, help="cameras per scene, 1 or 2 (default %(default)s)")
    g.add_argument("--width", type=int, default=RunConfig.width, help="image width (default %(default)s)")
    g.add_argument("--height", type=int, default=RunConfig.height, help="image height (default %(default)s)")

    for name in ("eval-pointmap", "eval-pose"):
        e = sub.add_parser(name, help=f"run {name.split('-')[1]} evaluation over a bundle tree")
        _add_common(e)
        _add_noise(e)
        _add_thresholds(e)
        e.add_argument("--bundles", type=str, required=True, help="bundle tree root")

    s = sub.add_parser("solve-pnp", help="solve PnP for one bundle view")
    _add_common(s)
    s.add_argument("--bundle", type=str, required=True, help="bundle directory")
    s.add_argument("--view", type=int, default=0)
    s.add_argument("--heatmap", type=str, default=None, help="heatmap raster to decode (HxWxN_kp)")
    s.add_argument("--keypoints", type=str, default=None, help="JSON file with [[x, y], ...] pixels")
    s.add_argument("--temperature", type=float, default=DEFAULT_TEMPERATURE,
                   help="soft-argmax temperature (default %(default)s)")

    c = sub.add_parser("compose-points", help="compose a labeled point map from mock predictions")
    _add_common(c)
    _add_noise(c)
    c.add_argument("--bundle", type=str, required=True, help="bundle directory")
    c.add_argument("--view", type=int, default=0)
    c.add_argument("--threshold", type=float, default=0.5, help="mask binarization threshold (default %(default)s)")

    k = sub.add_parser("check-grads", help="finite-difference checks of every loss gradient")
    _add_common(k)
    k.add_argument("--eps", type=float, default=1e-6, help="finite-difference step (default %(default)s)")

    for p in sub.choices.values():
        # each --config key and its flag's argparse type, which its value is checked against
        p.set_defaults(config_types={
            a.dest: a.type for a in p._actions if a.type is not None and a.dest not in LOCATION_FLAGS
        })
    return parser


# flag type -> (JSON value types a --config key accepts, their name); bool is
# an int subclass but never a valid value
CONFIG_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number")}


def _config_value(key: str, value, flag_type):
    """value, if its flag's type accepts it; else a FlagError naming the key."""
    accepted, name = CONFIG_TYPES[flag_type]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise FlagError(f"--config: {key}: expected {name}, got {json.dumps(value)}")
    return value


def _apply_config(args: argparse.Namespace) -> None:
    """Overlay the --config file's JSON object onto the parsed flags: config file > flags > defaults."""
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:  # a missing or unreadable file, invalid JSON
        raise FlagError(f"--config: {args.config}: {exc}") from None
    if not isinstance(config, dict):
        raise FlagError(f"--config: {args.config}: must hold a JSON object, got {type(config).__name__}")
    for key, value in config.items():
        if key not in args.config_types:
            raise FlagError(f"--config: {args.config}: unknown key {key!r}")
        setattr(args, key, _config_value(key, value, args.config_types[key]))


def _noise_from(args) -> NoiseModel:
    return _build(NoiseModel, **{field: getattr(args, flag) for flag, field in NOISE_FLAGS.items()})


def _eval_config(args) -> RunConfig:
    return _build(
        RunConfig,
        seed=args.seed,
        noise=_noise_from(args),
        t_threshold_rel=args.threshold_rel,
        r_threshold_rel=args.threshold_rel,
        t_threshold_abs=args.threshold_abs,
        r_threshold_abs=args.threshold_abs,
        workers=args.workers or default_workers(),
    )


@contextlib.contextmanager
def _out_errors(out):
    """An --out path that cannot be made or written, as a FlagError."""
    try:
        yield
    except OSError as exc:
        raise FlagError(f"--out: {out}: {exc.strerror}") from None


def _finish(report: dict, out, lines) -> int:
    for line in lines:
        print(line)
    if out:
        with _out_errors(out):
            write_report(report, out)
        print(f"report written to {out}")
    failures = report.get("failures", [])
    for f in failures:
        print(f"FAILED {f.get('scene', f.get('loss'))}: {f['error']}", file=sys.stderr)
    return 1 if failures else 0


def _run_failure(command, config, exc, out) -> int:
    """A single-scene run that failed on well-formed input: one failures row, exit 1."""
    failure = {"scene": config["bundle"], "error": f"{type(exc).__name__}: {exc}"}
    return _finish({"command": command, "config": config, "failures": [failure]}, out, [])


def cmd_gen_scenes(args) -> int:
    if not args.out:
        raise FlagError("--out: required, the directory to write the bundles to")
    config = _build(
        RunConfig, **{key: getattr(args, key) for key in GEN_KEYS}, workers=args.workers or default_workers()
    )
    with _out_errors(args.out):  # before any scene runs
        Path(args.out).mkdir(parents=True, exist_ok=True)
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
    config = _eval_config(args)
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


@contextlib.contextmanager
def _bundle_errors():
    """A bad --bundle, found at load or on a deferred payload read, as a FlagError."""
    try:
        yield
    except (BundleError, RasterError) as exc:
        raise FlagError(f"--bundle: {exc}") from None


def _check_view(args, bundle) -> int:
    """The --view index, if the bundle has that view."""
    if not 0 <= args.view < len(bundle.views):
        raise FlagError(f"--view: the bundle has {len(bundle.views)} view(s), got {args.view}")
    return args.view


@contextlib.contextmanager
def _input_errors(flag, path):
    """An input file that is missing, unreadable or malformed, as a FlagError naming it."""
    try:
        yield
    except OSError as exc:  # missing, a directory or unreadable
        raise FlagError(f"{flag}: {path}: {exc.strerror}") from None
    except (ValueError, TypeError) as exc:  # invalid JSON, ragged or non-numeric rows, a bad raster
        raise FlagError(f"{flag}: {path}: {str(exc).removeprefix(f'{path}: ')}") from None


def _check_input(arr, shape):
    """A ValueError unless arr is finite and has the given shape."""
    if arr.shape != shape or not np.all(np.isfinite(arr)):
        raise ValueError(f"expected finite values of shape {shape}, got shape {arr.shape}")


def cmd_solve_pnp(args) -> int:
    with _bundle_errors():
        bundle = load_bundle(args.bundle)
    i = _check_view(args, bundle)
    view = bundle.views[i]
    if args.keypoints:
        with _input_errors("--keypoints", args.keypoints):
            pixels = np.asarray(json.loads(Path(args.keypoints).read_text()), dtype=float)
            _check_input(pixels, bundle.keypoints_2d[i].shape)  # (keypoints, 2)
        source = "explicit keypoints"
    elif args.heatmap:
        with _input_errors("--heatmap", args.heatmap):
            heatmap = read_raster(args.heatmap)
            _check_input(heatmap, (view.intrinsics.height, view.intrinsics.width, len(bundle.keypoints_3d)))
            pixels = soft_argmax(heatmap, args.temperature)
        source = "heatmap soft-argmax"
    else:
        pixels = bundle.keypoints_2d[i]
        source = "bundle ground-truth keypoints"
    config = {"bundle": str(args.bundle), "view": i, "seed": args.seed, "temperature": args.temperature,
              "source": source}
    try:
        result = solve_pnp(bundle.keypoints_3d, pixels, view.intrinsics)
    except (DegenerateConfigurationError, NonConvergenceError, RankDeficientError) as exc:  # a run failure
        return _run_failure("solve-pnp", config, exc, args.out)
    gt_extrinsic = view.pose_world.inverse()
    t_err = float(np.linalg.norm(result.extrinsic.translation - gt_extrinsic.translation))
    r_err = rotation_angle(result.extrinsic.rotation, gt_extrinsic.rotation)
    report = {
        "command": "solve-pnp",
        "config": config,
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
    noise = _noise_from(args)
    config = {"bundle": str(args.bundle), "view": args.view, "seed": args.seed, "threshold": args.threshold,
              "noise": asdict(noise)}
    try:
        with _bundle_errors():  # which turns a bad bundle or payload into a FlagError first
            bundle = load_bundle(args.bundle)
            i = _check_view(args, bundle)
            pred = mock_predict(bundle, noise, args.seed)
            labeled = compose_masked_points(pred.depths[i], pred.coords[i], pred.masks[i], args.threshold)
    except ValueError as exc:  # noise so large that no finite prediction exists; no --out is made
        return _run_failure("compose-points", config, exc, None)
    counts = {part: int(np.sum(labeled.labels == label)) for label, part in enumerate(PART_NAMES, LABEL_ROBOT)}
    report = {
        "command": "compose-points",
        "config": config,
        "points": int(labeled.points.valid.sum()),
        "per_part": counts,
        "failures": [],
    }
    lines = [f"composed {report['points']} labeled points {counts}"]
    if args.out:
        out = Path(args.out)
        with _out_errors(out):  # made only now, so a bad bundle or --view leaves no --out behind
            out.mkdir(parents=True, exist_ok=True)
            write_raster(out / "points.r3rb", labeled.points.values)
            write_raster(out / "points_valid.r3rb", labeled.points.valid.astype(np.uint8))
            write_raster(out / "labels.r3rb", labeled.labels)
            write_report(report, out / "report.json")
        lines.insert(0, f"rasters written to {out}")
    return _finish(report, None, lines)


def cmd_check_grads(args) -> int:
    rows, failures = {}, []
    for name in sorted(GRADIENT_CHECKS):
        try:
            err = check_gradient(name, seed=args.seed, eps=args.eps)
        except ValueError as exc:  # not differentiable at x0, or a step that leaves the loss's domain
            failures.append({"loss": name, "error": f"{type(exc).__name__}: {exc}"})
            continue
        rows[name] = err
        print(f"{name:<16} max relative gradient error {err:.3e}")
        if err >= GRADIENT_TOLERANCE:
            failures.append(
                {"loss": name, "error": f"relative gradient error {err:.3e} >= {GRADIENT_TOLERANCE:g}"}
            )
    report = {
        "command": "check-grads",
        "config": {"seed": args.seed, "eps": args.eps},
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
        if args.config:
            _apply_config(args)
        for flag, (ok, must) in FLAG_RANGES.items():
            if hasattr(args, flag) and not ok(getattr(args, flag)):
                raise FlagError(f"--{flag}: must be {must}, got {getattr(args, flag)}")
        return handlers[args.command](args)
    except FlagError as exc:
        print(f"reconkit {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
