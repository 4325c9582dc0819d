"""Command-line entry point.

Subcommands: gen-scenes, eval-pointmap, eval-pose, solve-pnp,
compose-points, check-grads.  Precedence of settings: config file
(--config, JSON) overrides flags; flags override their argparse defaults.
Every numeric value is checked, and an empty path flag refused, before
the command runs.  Exit code is 0 iff no scene failed; for check-grads,
iff every loss's gradient error is below GRADIENT_TOLERANCE.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from collections import namedtuple
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .camera import check_array, check_number
from .losses import GRADIENT_CHECKS, check_gradient
from .masks import DEFAULT_THRESHOLD, LABEL_ROBOT, PART_NAMES, compose_masked_points
from .metrics import absolute_pose_metrics
from .oracle.bundle import BundleError, load_bundle
from .oracle.mock import NoiseModel, mock_predict
from .oracle.raster import RasterError, read_raster, write_raster
from .oracle.scene import VIEW_COUNTS
from .pipeline import (EVALUATIONS, BundleTreeError, RunConfig, default_workers, retain_freed_memory, run_eval,
                       run_gen_scenes, write_report)
from .pnp import DEFAULT_TEMPERATURE, DegenerateConfigurationError, NonConvergenceError, soft_argmax, solve_pnp
from .transforms import RankDeficientError

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


def _sets(cls, field):
    """The check of a flag that sets one field: cls built with only that field, so cls's own check applies."""
    return lambda flag, value: cls(**{field: value})


def _within(ok, must):
    """The check of any other flag: check_number with its range, ok(value), which `must` says in words."""
    return lambda flag, value: check_number(flag, value, ok, must, integer=FLAGS[flag].type is int)


Flag = namedtuple("Flag", "type default help check")
# numeric flag, also its --config key -> its argparse type, default and help, and a check that raises a
# ValueError naming the value out of range; main runs every check before the command
FLAGS = {
    "seed": Flag(int, RunConfig.seed, "master seed (default %(default)s)", _within(lambda v: v >= 0, ">= 0")),
    "workers": Flag(int, 0, "parallel workers (default %(default)s: all cores)",
                    _within(lambda v: v >= 0, ">= 0 (0: all cores)")),
    **{key: Flag(int, getattr(RunConfig, key), f"{text} (default %(default)s)", _sets(RunConfig, key))
       for key, text in (("scenes", "number of scenes"), ("views", f"cameras per scene, {VIEW_COUNTS[1]}"),
                         ("width", "image width"), ("height", "image height"))},
    **{flag: Flag(float, getattr(NoiseModel, field), text, _sets(NoiseModel, field))
       for (flag, field), text in zip(NOISE_FLAGS.items(), (
           "depth noise sigma (m)", "coord noise sigma", "pose translation sigma (m)", "pose rotation sigma (rad)",
           "log-scale sigma", "extra heatmap bump width (px)", "mask flip probability"))},
    **{f"threshold_{kind}": Flag(float, getattr(RunConfig, f"t_threshold_{kind}"),
                                 f"{word} pose threshold (m and rad, default %(default)s)",
                                 _sets(RunConfig, f"t_threshold_{kind}"))  # which r_threshold_ shares
       for kind, word in (("rel", "relative"), ("abs", "absolute"))},
    "threshold": Flag(float, DEFAULT_THRESHOLD, "mask binarization threshold (default %(default)s)",
                      _within(lambda v: 0.0 < v < 1.0, "in (0, 1)")),
    "temperature": Flag(float, DEFAULT_TEMPERATURE, "soft-argmax temperature (default %(default)s)",
                        _within(lambda v: v > 0, "finite and > 0")),
    "eps": Flag(float, 1e-6, "finite-difference step (default %(default)s)",
                _within(lambda v: v > 0, "finite and > 0")),
}
# command -> (its help, its FLAGS); every command also takes --config and --out
COMMANDS = {
    "gen-scenes": ("generate ground-truth scene bundles", (*GEN_KEYS, "workers")),
    **{name: (f"run {name.split('-')[1]} evaluation over a bundle tree",
              ("seed", "workers", *NOISE_FLAGS, "threshold_rel", "threshold_abs")) for name in EVALUATIONS},
    "solve-pnp": ("solve PnP for one bundle view", ("seed", "workers", "temperature")),
    "compose-points": ("compose a labeled point map from mock predictions",
                       ("seed", "workers", *NOISE_FLAGS, "threshold")),
    "check-grads": ("finite-difference checks of every loss gradient", ("seed", "workers", "eps")),
}


class FlagError(Exception):
    """A flag, config-file value or input file that the command refuses."""


@functools.cache  # built once per process; parse_args gives each call its own namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reconkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, numeric) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.set_defaults(numeric=numeric)
        for name in numeric:
            flag = FLAGS[name]
            p.add_argument("--" + name.replace("_", "-"), type=flag.type, default=flag.default, help=flag.help)
        p.add_argument("--config", type=str, default=None, help="JSON config file; overrides flags")
        p.add_argument("--out", type=str, default=None, help="output path")
    for name in EVALUATIONS:
        sub.choices[name].add_argument("--bundles", type=str, required=True, help="bundle tree root")
    for p in (sub.choices["solve-pnp"], sub.choices["compose-points"]):
        p.add_argument("--bundle", type=str, required=True, help="bundle directory")
        p.add_argument("--view", type=int, default=0)
    s = sub.choices["solve-pnp"]
    s.add_argument("--heatmap", type=str, default=None, help="heatmap raster to decode (HxWxN_kp)")
    s.add_argument("--keypoints", type=str, default=None, help="JSON file with [[x, y], ...] pixels")
    return parser


def _apply_config(args: argparse.Namespace) -> None:
    """Overlay the --config file's JSON object onto the parsed flags: config file > flags > defaults."""
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:  # a missing or unreadable file, invalid JSON
        raise FlagError(f"--config: {args.config}: {exc}") from None
    if not isinstance(config, dict):
        raise FlagError(f"--config: {args.config}: must hold a JSON object, got {type(config).__name__}")
    for key, value in config.items():
        if key not in args.numeric:
            raise FlagError(f"--config: {args.config}: unknown key {key!r}")
        try:
            setattr(args, key, FLAGS[key].type(check_number(key, value, integer=FLAGS[key].type is int)))
        except (TypeError, ValueError) as exc:
            raise FlagError(f"--config: {exc}") from None


def _noise_from(args) -> NoiseModel:
    return NoiseModel(**{field: getattr(args, flag) for flag, field in NOISE_FLAGS.items()})


@contextlib.contextmanager
def _input_errors(flag, path):
    """A file flag's path that cannot be read, made or written, or is malformed, as a FlagError naming it."""
    try:
        yield
    except OSError as exc:  # missing, a directory, unreadable or unwritable
        raise FlagError(f"{flag}: {path}: {exc.strerror}") from None
    except (ValueError, TypeError) as exc:  # invalid JSON, ragged or non-numeric rows, a bad raster
        raise FlagError(f"{flag}: {path}: {str(exc).removeprefix(f'{path}: ')}") from None


def _finish(report: dict, out, lines) -> int:
    for line in lines:
        print(line)
    if out is not None:
        with _input_errors("--out", out):
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
    if args.out is None:
        raise FlagError("--out: required, the directory to write the bundles to")
    config = RunConfig(**{key: getattr(args, key) for key in GEN_KEYS})
    with _input_errors("--out", args.out):  # before any scene runs
        Path(args.out).mkdir(parents=True, exist_ok=True)
    manifest = run_gen_scenes(config, args.out, args.workers or default_workers())
    print(f"generated {len(manifest['bundles'])} bundles under {args.out}")
    return 0


def cmd_eval(args) -> int:
    config = RunConfig(seed=args.seed, noise=_noise_from(args), t_threshold_rel=args.threshold_rel,
                       r_threshold_rel=args.threshold_rel, t_threshold_abs=args.threshold_abs,
                       r_threshold_abs=args.threshold_abs)
    try:
        report = run_eval(args.command, config, args.bundles, args.workers or default_workers())
    except BundleTreeError as exc:
        raise FlagError(f"--bundles: {exc}") from None
    lines = EVALUATIONS[args.command][1] if "summary" in report else ()
    return _finish(report, args.out, [line.format(scenes=len(report["scenes"]), **report["summary"]) for line in lines])


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


def _check_input(arr, shape):
    """A ValueError unless arr is finite and has the given shape."""
    if arr.shape != shape or not np.all(np.isfinite(arr)):
        raise ValueError(f"expected finite values of shape {shape}, got shape {arr.shape}")


def cmd_solve_pnp(args) -> int:
    if args.keypoints is not None and args.heatmap is not None:
        raise FlagError("--heatmap: not allowed with --keypoints; give one source of pixels")
    with _bundle_errors():
        bundle = load_bundle(args.bundle)
        bundle.keypoints_2d  # derived on first read, where a keypoint behind a camera fails
    i = _check_view(args, bundle)
    view = bundle.views[i]
    if args.keypoints is not None:
        with _input_errors("--keypoints", args.keypoints):
            rows = json.loads(Path(args.keypoints).read_text())
            _check_input(np.asarray(rows, dtype=float), bundle.keypoints_2d[i].shape)  # numpy names bad rows
            pixels = check_array("keypoints", rows, bundle.keypoints_2d[i].shape)  # and no true or "1.5" entry
        source = "explicit keypoints"
    elif args.heatmap is not None:
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
    error = absolute_pose_metrics(result.extrinsic, view.pose_world.inverse())
    report = {
        "command": "solve-pnp",
        "config": config,
        "extrinsic": result.extrinsic.matrix().tolist(),
        "reprojection_error_px": result.reprojection_error,
        "iterations": result.iterations,
        "error_vs_bundle": {"translation_m": error.ate, "rotation_rad": error.are},
        "failures": [],
    }
    lines = [
        f"extrinsic from {source}: reprojection {result.reprojection_error:.3e} px, "
        f"{result.iterations} iterations",
        f"vs stored pose: {error.ate:.3e} m, {error.are:.3e} rad",
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
            masks = pred.masks[i]
            bundle.views[i].pop("masks")  # the true planes, which only the mask head reads
            labeled = compose_masked_points(pred.depths[i], pred.coords[i], masks, args.threshold)
            del pred, bundle, masks  # what is written is built from `labeled` alone
    except ValueError as exc:  # noise so large that no finite prediction exists; no --out is made
        return _run_failure("compose-points", config, exc, None)
    counts = {part: int(np.sum(labeled.labels == label)) for label, part in enumerate(PART_NAMES, LABEL_ROBOT)}
    report = {
        "command": "compose-points",
        "config": config,
        "points": labeled.points.index.size,
        "per_part": counts,
        "failures": [],
    }
    lines = [f"composed {report['points']} labeled points {counts}"]
    if args.out is not None:
        out = Path(args.out)
        with _input_errors("--out", out):  # made only now, so a bad bundle or --view leaves no --out behind
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
    retain_freed_memory()
    args = build_parser().parse_args(argv)
    handlers = {
        "gen-scenes": cmd_gen_scenes,
        **dict.fromkeys(EVALUATIONS, cmd_eval),
        "solve-pnp": cmd_solve_pnp,
        "compose-points": cmd_compose_points,
        "check-grads": cmd_check_grads,
    }
    try:
        for name in ("config", "out", "bundle", "bundles", "keypoints", "heatmap"):  # Path("") would be "."
            if getattr(args, name, None) == "":
                raise FlagError(f"--{name}: must name a path, got an empty string")
        if args.config is not None:
            _apply_config(args)
        for name in args.numeric:
            try:
                FLAGS[name].check(name, getattr(args, name))
            except ValueError as exc:
                raise FlagError(f"--{name.replace('_', '-')}: {exc}") from None
        return handlers[args.command](args)
    except FlagError as exc:
        print(f"reconkit {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
