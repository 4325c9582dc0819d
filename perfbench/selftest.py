"""Self-tests of the benchmark, at a tiny scene size.

    python3 perfbench/selftest.py

1. Every workload, shrunk to a few 96x72 scenes, runs untraced and traced;
   the metrics each prints must be exactly the end-to-end and per-layer
   metrics BENCHMARK.json names, with the same units.
2. Flipping one byte of a CLI report, or of a raster in a generated bundle,
   must make the output checks fail.
"""

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run as bench  # sets up the environment and import path first
import spans
import workloads as wl

TINY = {"width": 96, "height": 72, "scenes": 4}


def tiny_run(name: str, seed: int = 3) -> wl.Run:
    w = dataclasses.replace(wl.WORKLOADS[name], **TINY)
    bench.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=bench.WORK_ROOT))
    return wl.Run(w, seed, work, spans.Tracer())


def flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def expect_check_failure(reference: Path, other: Path, what: str) -> None:
    try:
        wl.compare_trees(reference, other, what)
    except wl.CheckFailed as exc:
        print(f"ok   detected: {exc}")
        return
    raise AssertionError(f"{what}: corruption went undetected")


def test_metric_names() -> None:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in wl.WORKLOADS:
            run = tiny_run(name)
            try:
                metrics, _, m = bench.measure(run, 0.0, trace)
            finally:
                shutil.rmtree(run.work)
            got = {k: unit for k, (_, unit) in metrics.items()}
            assert got == want, f"{name} trace={trace}: {got} != {want}"
            assert m.failed == 0 and m.attempted > 0
            print(f"ok   {name} trace={int(trace)}: {len(got)} {key} metrics with units")


def test_corruption_detected() -> None:
    for name, target in (("eval-qvga", "pointmap.json"), ("gen-vga", "tree/scene_00001/view_0_depth.r3rb")):
        run = tiny_run(name)
        try:
            if run.workload.builds_tree:
                wl.setup(run, 0)
            cli_out, loop_out = run.work / "cli", run.work / "loop"
            wl.cli_pass(run, cli_out)
            wl.loop_pass(run, loop_out)
            wl.compare_trees(cli_out, loop_out, f"{name} intact")
            flip_byte(cli_out / target)
            expect_check_failure(loop_out, cli_out, f"{name} with one byte of {target} flipped")
        finally:
            shutil.rmtree(run.work)


if __name__ == "__main__":
    test_metric_names()
    test_corruption_detected()
    print("selftest passed")
    sys.exit(0)
