"""Record reference figures: every workload over ten seeds, one process each.

    python3 perfbench/record.py

Each call takes one set: every workload runs RUNS times untraced (seeds
1..RUNS) and once traced (seed 1), at BENCHMARK.json's run_seconds.  The set
is appended to perfbench/baseline.json, so that every set taken stays on
record; sets taken before a change to how the benchmark measures are kept
under `superseded`, so that set 1 is always of the current version.  A set
holds each end-to-end metric's values, median, quartiles and spread
(interquartile range over median, as statistics.quantiles gives them) next
to its bound, and the traced run's per-layer figures.  From the second set
on, each median is compared with the first set's.
"""

import datetime
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run as bench

HERE = Path(__file__).resolve().parent
OUT = HERE / "baseline.json"
RUNS = 10


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[list, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    p = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    return lines[:-1] + [f"run wall {time.perf_counter() - t0:.1f} s"], json.loads(lines[-1])


def take_set(spec: dict, seeds: list) -> dict:
    taken = {
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        values, notes = {}, []
        for seed in seeds:
            lines, result = one_run(name, seed, spec["run_seconds"], 0)
            notes.append(next(line for line in lines if line.startswith("scene_tail_ms")))
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed} ({lines[-1]}): " + "  ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        e2e = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, median, q3 = statistics.quantiles(v, n=4)
            e2e[m["name"]] = {
                "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": m["bound"], "values": v,
            }
            print(f"  {name:<10} {m['name']:<20} median {median:10.5g} {m['unit']:<9} "
                  f"spread {(q3 - q1) / median:.3f} (bound {m['bound']})", flush=True)
        _, traced = one_run(name, seeds[0], spec["run_seconds"], 1)
        taken["workloads"][name] = {
            "tail": sorted(set(n.split(",")[0] for n in notes)),
            "end_to_end": e2e,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    return taken


def compare(spec: dict, first: dict, last: dict) -> None:
    """How much worse each median of `last` is than `first`'s, against its bound."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for name, w in last["workloads"].items():
        for metric, now in w["end_to_end"].items():
            then = first["workloads"][name]["end_to_end"][metric]["median"]
            worse = (now["median"] - then) / then * (1 if better[metric] == "lower" else -1)
            print(f"  {name:<10} {metric:<20} worse than set 1 by {worse:+.3f} (bound {now['bound']})")


def main() -> None:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    seeds = list(range(1, RUNS + 1))
    record = json.loads(OUT.read_text()) if OUT.exists() else {}
    record.update(environment=bench.environment(), run_seconds=spec["run_seconds"], seeds=seeds)
    record.setdefault("sets", []).append(take_set(spec, seeds))
    if len(record["sets"]) > 1:
        compare(spec, record["sets"][0], record["sets"][-1])
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    print(f"set {len(record['sets'])} written to {OUT}")


if __name__ == "__main__":
    main()
