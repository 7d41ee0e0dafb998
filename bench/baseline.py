"""Measure the baseline record: repeated runs of every workload.

Usage: python3 bench/baseline.py [--first-seed 1] [--out FILE]

Runs bench/run.py once per workload and seed (RUNS seeds from
first-seed on, workloads interleaved) for BENCHMARK.json's
run_seconds, then one traced run per workload.  Writes, per workload and
end-to-end metric, the median, quartiles and spread (quartile distance over
median), the per-layer numbers of the traced run, and the machine: git SHA,
Python version, nproc and CPU model.  Prints each spread as a share of the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUNS = 10


def one_run(workload: str, seed: int, trace: int) -> dict:
    """The run's result line, plus ``elapsed_s``: how long the run took."""
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return {**json.loads(done.stdout.strip().splitlines()[-1]), "elapsed_s": elapsed}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=str(ROOT / "bench" / "BASELINE.json"))
    args = parser.parse_args()

    workloads = [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            res = one_run(w, seed, 0)
            results[w].append(res)
            print(w, seed, {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                  flush=True)

    record = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "run_seconds": SPEC["run_seconds"],
        "runs_per_workload": RUNS,
        "seeds": seeds,
        "workloads": {},
    }
    for w in workloads:
        runs = results[w]
        metrics = {}
        for m in SPEC["end_to_end"]:
            name = m["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": m["unit"], **summarize(values)}
            print(f"{w:14s} {name:12s} median {metrics[name]['median']:.4f} "
                  f"spread {metrics[name]['spread']:.4f} = "
                  f"{metrics[name]['spread'] / bounds[name]:.2f} of its bound")
        traced = one_run(w, seeds[0], 1)
        record["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_elapsed_s": [r["elapsed_s"] for r in runs],
            "traced_run_elapsed_s": traced["elapsed_s"],
            "end_to_end": metrics,
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
