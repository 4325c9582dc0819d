"""In-memory spans around calls into reconkit's public functions.

Tracing lives entirely in the benchmark: `Tracer.patched()` swaps each
public function listed in `TARGETS` for a wrapper at every module binding
the pipeline, the CLI and the benchmark loop look it up through, and
restores the originals on exit.  The program itself is not changed.

A span is (name, start, end, parent, scene, phase, attrs).  `end` is taken
before any attribute is computed, and the time attribute work takes (file
sizes, ray counts) is subtracted from the caller, so it is charged to no
span.  Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from pathlib import Path

from reconkit import cli, masks, metrics, pipeline, pnp
from reconkit.oracle import bundle, mock
from reconkit.oracle.scene import chain_capsules


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _ray_tests(args, _result) -> dict:
    spec, intr = args[0], args[1]
    per_ray = 1 + len(spec.primitives) + 3 * len(chain_capsules(spec))
    return {"ray_tests": intr.width * intr.height * per_ray}


def _bundle_bytes(args, _result) -> dict:
    return {"bytes": _dir_bytes(args[0])}


def _pnp_iterations(_args, result) -> dict:
    return {"iterations": result.iterations}


# (span name, attribute function, module bindings the function is called through)
TARGETS = [
    ("scene.spec", None, [(bundle, "random_scene_spec"), (pipeline, "random_scene_spec")]),
    ("scene.generate", None, [(bundle, "generate_scene"), (pipeline, "generate_scene")]),
    ("scene.render", _ray_tests, [(bundle, "render")]),
    ("bundle.save", _bundle_bytes, [(bundle, "save_bundle"), (pipeline, "save_bundle")]),
    (
        "bundle.load",
        _bundle_bytes,
        [(bundle, "load_bundle"), (pipeline, "load_bundle"), (cli, "load_bundle")],
    ),
    ("mock.predict", None, [(mock, "mock_predict"), (pipeline, "mock_predict"), (cli, "mock_predict")]),
    ("mock.heatmaps", None, [(mock, "synthesize_heatmaps")]),
    ("camera.unproject", None, [(pipeline, "unproject"), (masks, "unproject")]),
    ("losses.normals", None, [(metrics, "normals_from_pointmap")]),
    ("losses.normal_angles", None, [(metrics, "normal_angles")]),
    ("losses.point_loss", None, [(metrics, "point_loss_flat")]),
    ("metrics.pointmap", None, [(pipeline, "point_map_metrics_views")]),
    (
        "metrics.pose",
        None,
        [(pipeline, "relative_pose_metrics"), (pipeline, "absolute_pose_metrics")],
    ),
    ("metrics.aggregate", None, [(metrics, "aggregate"), (pipeline, "aggregate")]),
    ("masks.compose", None, [(masks, "compose_masked_points"), (cli, "compose_masked_points")]),
    (
        "pnp.soft_argmax",
        None,
        [(pnp, "soft_argmax"), (mock, "soft_argmax"), (cli, "soft_argmax")],
    ),
    ("pnp.solve", _pnp_iterations, [(pnp, "solve_pnp"), (cli, "solve_pnp")]),
    ("pipeline.eval_pointmap_scene", None, [(pipeline, "evaluate_pointmap_scene")]),
    ("pipeline.eval_pose_scene", None, [(pipeline, "evaluate_pose_scene")]),
]

# Phases a per-layer figure is taken from, in order of preference: the timed
# loop, the timed CLI pass, then, for layers the workload's timed sequence
# does not call in this process, the output checks and last the set-up.
PHASES = ("loop", "cli", "check", "setup")


class Tracer:
    """Span recorder; `span()` is a no-op outside `recording()`."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.t0 = time.perf_counter()

    def span(self, name: str, scene=None):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name, scene)

    @contextlib.contextmanager
    def _span(self, name, scene=None):
        parent = self.stack[-1] if self.stack else None
        if scene is None and parent is not None:
            scene = self.spans[parent][4]
        # name, start, end, parent, scene, phase, attrs, untimed seconds
        rec = [name, time.perf_counter(), None, parent, scene, self.phase, {}, 0.0]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn, attrs_fn):
        def traced(*args, **kwargs):
            with self._span(name) as rec:
                result = fn(*args, **kwargs)
            if attrs_fn is not None:
                rec[6] = attrs_fn(args, result)
                if rec[3] is not None:
                    self.spans[rec[3]][7] += time.perf_counter() - rec[2]
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def recording(self, phase):
        """Record spans tagged `phase` while the block runs; no-op for None."""
        if phase is None:
            yield
            return
        self.enabled, self.phase = True, phase
        try:
            with self.patched():
                yield
        finally:
            self.enabled = False

    @contextlib.contextmanager
    def patched(self):
        """Route every call in TARGETS through a span while the block runs."""
        saved = []
        try:
            for name, attrs_fn, bindings in TARGETS:
                for module, attr in bindings:
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(name, fn, attrs_fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        out = [rec[2] - rec[1] - rec[7] for rec in self.spans]
        for rec in self.spans:
            if rec[3] is not None:
                out[rec[3]] -= rec[2] - rec[1]
        return out

    def by_name(self) -> dict:
        """name -> list of (self seconds, attrs), from the preferred phase."""
        grouped: dict = {}
        for rec, self_s in zip(self.spans, self.self_times()):
            grouped.setdefault(rec[0], {}).setdefault(rec[5], []).append((self_s, rec[6]))
        return {
            name: next(phases[p] for p in PHASES if p in phases)
            for name, phases in grouped.items()
        }

    def write_jsonl(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for i, (rec, self_s) in enumerate(zip(self.spans, self.self_times())):
                name, start, end, parent, scene, phase, attrs, _ = rec
                f.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start_s": start - self.t0,
                            "end_s": end - self.t0,
                            "self_s": self_s,
                            "parent": parent,
                            "scene": scene,
                            "phase": phase,
                            **attrs,
                        }
                    )
                    + "\n"
                )


def _median_ms(rows, scale=1e3) -> float:
    return statistics.median(s for s, _ in rows) * scale


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures (value, unit) from span self times, one median per call."""
    spans = tracer.by_name()

    def need(name):
        if name not in spans:
            raise RuntimeError(f"traced run recorded no {name!r} span")
        return spans[name]

    render = need("scene.render")
    save, load = need("bundle.save"), need("bundle.load")
    solve = need("pnp.solve")
    out = {
        "scene.generate_ms": (_median_ms(need("scene.generate")), "ms"),
        "scene.render_ms": (_median_ms(render), "ms"),
        "scene.ray_tests": (statistics.fmean(a["ray_tests"] for _, a in render), "count"),
        "scene.ns_per_ray_test": (
            statistics.median(s * 1e9 / a["ray_tests"] for s, a in render),
            "ns",
        ),
        "bundle.save_ms": (_median_ms(save), "ms"),
        "bundle.save_mb_per_s": (statistics.median(a["bytes"] / 1e6 / s for s, a in save), "MB/s"),
        "bundle.load_ms": (_median_ms(load), "ms"),
        "bundle.load_mb_per_s": (statistics.median(a["bytes"] / 1e6 / s for s, a in load), "MB/s"),
        "bundle.mb_per_scene": (statistics.fmean(a["bytes"] / 1e6 for _, a in load), "MB"),
        "mock.predict_ms": (_median_ms(need("mock.predict")), "ms"),
        "mock.heatmaps_ms": (_median_ms(need("mock.heatmaps")), "ms"),
        "camera.unproject_ms": (_median_ms(need("camera.unproject")), "ms"),
        "losses.normals_ms": (_median_ms(need("losses.normals")), "ms"),
        "losses.normal_angles_ms": (_median_ms(need("losses.normal_angles")), "ms"),
        "losses.point_loss_ms": (_median_ms(need("losses.point_loss")), "ms"),
        "metrics.pointmap_ms": (_median_ms(need("metrics.pointmap")), "ms"),
        "metrics.pose_us": (_median_ms(need("metrics.pose"), 1e6), "us"),
        "metrics.aggregate_ms": (_median_ms(need("metrics.aggregate")), "ms"),
        "masks.compose_ms": (_median_ms(need("masks.compose")), "ms"),
        "pnp.soft_argmax_ms": (_median_ms(need("pnp.soft_argmax")), "ms"),
        "pnp.solve_ms": (_median_ms(solve), "ms"),
        "pnp.iterations": (statistics.fmean(a["iterations"] for _, a in solve), "count"),
        "pipeline.eval_pointmap_scene_ms": (_median_ms(need("pipeline.eval_pointmap_scene")), "ms"),
        "pipeline.eval_pose_scene_ms": (_median_ms(need("pipeline.eval_pose_scene")), "ms"),
    }
    for command in ("gen-scenes", "eval-pointmap", "eval-pose", "compose-points", "solve-pnp"):
        key = command.replace("-", "_")
        out[f"cli.{key}_s"] = (_median_ms(need(f"cli.{key}"), 1.0), "s")
    return out
