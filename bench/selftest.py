"""Self-test of the benchmark itself.

Usage: python3 bench/selftest.py      (about two minutes)

Checks that:
  * every workload's untraced run is correct and prints exactly the
    end-to-end metrics of BENCHMARK.json;
  * every workload's traced run is correct (run.py fails it when the traced
    round's outputs differ from the untraced round's) and prints exactly the
    per-layer metrics of BENCHMARK.json;
  * a deliberately wrong reference raises the error rate above 0 and makes
    run.py exit nonzero;
  * in a directory holding only BENCHMARK.json and bench/, run.py exits
    nonzero without printing a result.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from common import OUT, ROOT  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def invoke(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return done.returncode, done.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def wrong_reference_run(workload: str, corrupt) -> tuple[int, dict]:
    """Run one workload in-process against a corrupted reference."""
    refs = copy.deepcopy(run.load_references())
    corrupt(refs)
    original = run.load_references
    run.load_references = lambda: refs
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1"])
    finally:
        run.load_references = original
    return code, result_of(buf.getvalue())


def main() -> int:
    failures: list[str] = []
    names = {
        0: {m["name"] for m in SPEC["end_to_end"]},
        1: {m["name"] for m in SPEC["per_layer"]},
    }
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            code, out = invoke(w["name"], trace)
            res = result_of(out)
            check(code == 0 and res["correct"] and res["failed"] == 0,
                  f"{w['name']} trace={trace}: correct, exit 0", failures)
            check(set(res["metrics"]) == names[trace],
                  f"{w['name']} trace={trace}: prints exactly the BENCHMARK.json metrics",
                  failures)

    def bad_count(refs):
        refs["verify"]["checks_executed"] += 1

    def bad_digest(refs):
        refs["tree"]["sha256"] = "0" * 64

    def bad_ideals(refs):
        for row in refs["query"]["candidates"].values():
            row["ideals"] = "0" * 64

    for workload, corrupt in (
        ("verify-g6", bad_count), ("query-g16", bad_ideals), ("tree-g18", bad_digest)
    ):
        code, res = wrong_reference_run(workload, corrupt)
        check(code != 0 and not res["correct"] and res["failed"] / res["attempted"] > 0,
              f"{workload}: a wrong reference gives error_rate > 0 and a nonzero exit",
              failures)

    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = invoke("tree-g18", 0, cwd=bare)
    check(code != 0 and '"correct"' not in out,
          "without src/nslab: nonzero exit and no result", failures)
    shutil.rmtree(bare)

    print("selftest", "FAILED: " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
