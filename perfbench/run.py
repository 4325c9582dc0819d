"""reconkit benchmark: one workload, one run, results as JSON on the last line.

    python3 perfbench/run.py --workload gen-vga --seed 1 --seconds 20 --trace 0

Run from a source checkout; reconkit is imported from `src/`.  With
`--trace 0` the run measures the end-to-end metrics with tracing off.  With
`--trace 1` it is the traced run: untraced and traced loop passes alternate,
spans around every call into reconkit's public functions give the per-layer
figures, and the spans are written to `.perfbench/traces/` as JSONL.  Each
run builds its inputs from `--seed`, checks every output, works in a
scratch directory under `.perfbench/` and removes it when it ends.  Any
failed check exits non-zero without a result line.
"""

import os

# BLAS threads are pinned before numpy loads, so that CLI workers times BLAS
# threads never exceeds the core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "reconkit" / "__init__.py").is_file():
    sys.exit(f"perfbench: no reconkit sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

# Set-up runs once before timing and once after every timed cycle, at least
# this often in all; the median is setup_s.  Spreading the repeats over the
# run keeps one slow stretch of a shared host from deciding the figure.
SETUP_REPEATS = 5
WORK_ROOT = ROOT / ".perfbench"


def tail(samples: list, pct: float) -> tuple[float, int]:
    """(value, samples above it) of the pct-th percentile of samples."""
    value = statistics.quantiles(samples, n=1000, method="inclusive")[round(pct * 10) - 1]
    beyond = sum(s > value for s in samples)
    if beyond < 10:
        raise wl.CheckFailed(f"only {beyond} of {len(samples)} samples above p{pct:g}")
    return value, beyond


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest pool worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": wl.NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Measurement:
    """Passes of one run, each checked against the first CLI pass's output."""

    def __init__(self, run: wl.Run, trace: bool):
        self.run = run
        self.trace = trace
        self.reference = None
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.timed = 0.0
        self.walls = {}  # (kind, traced) -> [wall s]
        self.busy = []  # untraced passes' sums of per-scene busy s
        self.per_pass = []  # untraced passes' per-scene ms, in scene order
        self.samples = []  # untraced per-scene ms, all passes

    def one(self, kind: str, traced: bool = False) -> None:
        run = self.run
        out = run.work / f"pass-{self.passes}"
        self.passes += 1
        with run.tracer.recording(kind if traced else None):
            if kind == "cli":
                wall, failed = wl.cli_pass(run, out)
            else:
                wall, busy_ms, failed = wl.loop_pass(run, out)
                if not traced:
                    self.busy.append(sum(busy_ms) / 1e3)
                    self.per_pass.append(busy_ms)
                    self.samples += busy_ms
        self.walls.setdefault((kind, traced), []).append(wall)
        self.timed += wall
        self.attempted += run.workload.scenes
        self.failed += len(failed)
        if self.reference is None:
            self.reference = out
            with run.tracer.recording("check" if self.trace else None):
                wl.check_pass(run, run.tree or out / "tree")
        else:
            wl.compare_trees(self.reference, out, f"{kind} pass {self.passes - 1}")
            shutil.rmtree(out)

    def wall_notes(self) -> list[str]:
        return [
            f"{kind}{' traced' if traced else ''} pass walls s: " + " ".join(f"{x:.3f}" for x in walls)
            for (kind, traced), walls in self.walls.items()
        ]

    def median_wall(self, kind: str, traced: bool = False) -> float:
        return statistics.median(self.walls[(kind, traced)])

    def rate(self, kind: str) -> float:
        """Scenes per second over every untraced pass of `kind`: total scenes over total wall."""
        walls = self.walls[(kind, False)]
        return len(walls) * self.run.workload.scenes / sum(walls)

    def scene_p50_ms(self) -> float:
        """Median over the scenes of each scene's mean latency across the passes."""
        return statistics.median(statistics.fmean(ms) for ms in zip(*self.per_pass))

    def bundle_mb(self) -> float:
        tree = self.reference / "tree" if self.run.tree is None else self.run.tree
        total = sum(p.stat().st_size for p in tree.rglob("*") if p.is_file() and p.name != "manifest.json")
        return total / 1e6 / self.run.workload.scenes


def measure(run: wl.Run, seconds: float, trace: bool) -> tuple[dict, list, Measurement]:
    w = run.workload
    m = Measurement(run, trace)
    notes = []
    if trace:
        wl.setup(run, 0, traced=True)
        if w.builds_tree:
            # set-up's gen-scenes ran its scenes in pool workers, which record
            # no spans; the scene and save layers are timed on one scene here
            with run.tracer.recording("setup"):
                wl.gen_scene(run, 0, run.work / "traced-scene")
            shutil.rmtree(run.work / "traced-scene")
        while not (m.timed >= seconds and len(m.walls.get(("loop", True), [])) >= 2):
            m.one("cli")
            m.one("loop")
            m.one("loop", traced=True)
        m.one("cli", traced=True)
        layer = spans.layer_metrics(run.tracer)
        busy = statistics.median(m.busy)
        layer["pipeline.overhead_ms_per_scene"] = (
            (wl.NPROC * m.median_wall("cli") - busy) / w.scenes * 1e3, "ms"
        )
        # each traced loop pass runs right after an untraced one
        pairs = zip(m.walls[("loop", True)], m.walls[("loop", False)])
        layer["trace.overhead_pct"] = (
            100.0 * (statistics.median(t / u for t, u in pairs) - 1.0), "%"
        )
        trace_path = WORK_ROOT / "traces" / f"{w.name}-seed{run.seed}.jsonl"
        run.tracer.write_jsonl(trace_path)
        notes.append(f"spans: {len(run.tracer.spans)} written to {trace_path}")
        notes.append("traced passes wrote the same report and bundle bytes as untraced ones")
        return layer, notes, m

    setups = [wl.setup(run, 0)]
    while not (
        m.timed >= seconds
        and len(setups) >= SETUP_REPEATS
        and len(m.samples) >= wl.MIN_LOOP_SAMPLES
    ):
        m.one("cli")
        m.one("loop")
        setups.append(wl.setup(run, len(setups)))
    rate, rate_1w = m.rate("cli"), m.rate("loop")
    tail_ms, beyond = tail(m.samples, wl.TAIL_PCT)
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "scenes_per_s": (rate, "scenes/s"),
        "scenes_per_s_1w": (rate_1w, "scenes/s"),
        "parallel_efficiency": (rate / (wl.NPROC * rate_1w), "ratio"),
        "scene_p50_ms": (m.scene_p50_ms(), "ms"),
        "scene_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes.append(f"setup_s is the median of {len(setups)} set-ups, one before timing and one after each cycle")
    notes.append(f"scene_p50_ms is the median over {w.scenes} scenes of each one's mean over {len(m.per_pass)} loop passes")
    notes.append(f"scene_tail_ms is p{wl.TAIL_PCT:g} of {len(m.samples)} per-scene samples, {beyond} above it")
    notes.append(
        f"passes: {len(m.walls[('cli', False)])} CLI at {wl.NPROC} workers, "
        f"{len(m.walls[('loop', False)])} loop, {w.scenes} scenes each"
    )
    return e2e, notes, m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = wl.WORKLOADS[args.workload]
    # a terminated run still removes its scratch directory and joins its pool
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_ROOT))
    run = wl.Run(w, args.seed, work, spans.Tracer())
    try:
        metrics, notes, m = measure(run, args.seconds, bool(args.trace))
        bundle_mb = m.bundle_mb()
    except wl.CheckFailed as exc:
        print(f"perfbench: check failed on {w.name} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}")
    print("environment " + "  ".join(f"{k} {v}" for k, v in env.items()) + f"  bundle_mb_per_scene {bundle_mb:.3f}")
    for note in notes + m.wall_notes():
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':<34} {m.failed / m.attempted:14.6g} ratio  ({m.failed} of {m.attempted} scenes)")
    correct = m.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": m.attempted,
                "failed": m.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
