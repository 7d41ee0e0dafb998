"""nslab benchmark: one workload per run, every output checked.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each was chosen):

  verify-g6   run_suite("all", 6) and emit_report(json), at jobs=1 and
              then at jobs=2 (process-pool start-up included)
  query-g16   `nslab ca` and `nslab ideals` through cli.main, stdout
              captured, on 12 semigroups the seed draws from the 97
              genus-16 semigroups of multiplicity at most 5
  tree-g18    `nslab enumerate --genus 18 --filter almost`

With --trace 0 the run repeats the workload's operations in rounds until
--seconds are spent and prints the end-to-end metrics:

  setup_s      a fresh interpreter importing nslab and building the
               workload's inputs (bench/probe.py), once per round
  wall_s       the workload's wall time: the sum over its distinct
               operations of each one's typical time (below)
  peak_rss_mb  peak RSS over the first round: this process plus the
               largest peak among its child processes (pool workers)

Every time is taken in seconds at the speed of a reference host
(refkernel.py): this class of host runs the same code up to 1.8x slower
in phases that last from seconds to many minutes, so each operation is
timed while a fixed reference kernel samples the host's speed, and its
wall time is divided by the slowdown measured.  A serial operation runs on
the CPU that is fastest just before it.  An operation's typical time is
the median over the half of its samples taken while the host ran fastest.

Failures count against operations attempted (one run_suite or one CLI
call; the error rate is failed/attempted).  An operation fails if it
raises, exits nonzero, differs from its reference (bench/references.json),
or differs from its own output in an earlier round.

With --trace 1 the run makes one untraced round, one at jobs=2 for
verify-g6, and one traced round (at jobs=1), and prints the per-layer
metrics (bench/tracing.py).  The span file and a
report with the slowest semigroups go to .bench_out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only if every output
was correct; it is 2, with no result printed, when the checkout has no
src/nslab to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

from refkernel import HostSampler, fastest_cpu  # noqa: E402
from common import (  # noqa: E402
    OUT,
    SourceMissing,
    digest,
    draw_query,
    load_nslab,
    load_references,
    query_class_counts,
    run_cli,
)

BENCH = Path(__file__).resolve().parent
VERIFY_GENUS = 6
TREE_GENUS = 18
# OEIS A007323: numerical semigroups of genus 18
TREE_TOTAL = 13467
WORKLOADS = ("verify-g6", "query-g16", "tree-g18")


@dataclass
class Op:
    """One operation: ``call`` returns its output text and ``check``
    returns an error message, or None when the output is right."""

    label: str
    call: Callable[[], str]
    check: Callable[[str], str | None]
    # uses both CPUs, so it is never pinned to one
    parallel: bool = False


@dataclass
class Workload:
    name: str
    inputs: list[str]
    ops: list[Op]
    # untimed operations run once per run, after the timed rounds
    extra: list[Op] = field(default_factory=list)

    def distinct_ops(self, parallel: bool) -> list[Op]:
        """The distinct operations that do, or do not, use both CPUs."""
        distinct = {op.label: op for op in self.ops}.values()
        return [op for op in distinct if op.parallel == parallel]


def cli_output(argv: list[str]) -> str:
    code, out = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"nslab {' '.join(argv)} exited {code}")
    return out


# -- workloads --------------------------------------------------------------------


def verify_workload(refs: dict) -> Workload:
    import nslab

    ref = refs["verify"]
    first: dict[str, str] = {}

    def op(jobs: int) -> Op:
        def call() -> str:
            # looked up at call time, so that the traced round calls the wrappers
            report = nslab.run_suite("all", VERIFY_GENUS, jobs=jobs)
            return nslab.emit_report(report, "json").decode("utf-8")

        def check(out: str) -> str | None:
            report = json.loads(out)
            for key in ("semigroups_checked", "checks_executed", "violations", "informational"):
                if report.get(key) != ref[key]:
                    return f"{key} is {report.get(key)!r}, reference {ref[key]!r}"
            first.setdefault("report", out)
            if out != first["report"]:
                return "jobs=1 and jobs=2 reports differ"
            return None

        return Op(f"run_suite all {VERIFY_GENUS} jobs={jobs}", call, check, parallel=jobs > 1)

    j1, j2 = op(1), op(2)
    return Workload(
        "verify-g6",
        inputs=[f"suite=all max_genus={VERIFY_GENUS}"],
        # jobs=2 twice per round: its host factor can only be sampled
        # around it, not during it, so it needs more samples than jobs=1
        ops=[j1, j2, j2],
    )


def query_workload(seed: int, refs: dict) -> Workload:
    from nslab import (
        conductor_ideal,
        format_ideal,
        normalization_ideal,
        parse_semigroup,
        unit_ideal,
    )

    recorded = refs["query"]["candidates"]
    drawn = draw_query(seed, query_class_counts(refs))
    ops = []
    for gens in drawn:
        s = parse_semigroup(gens)
        inv = s.invariants()
        status = (
            "ExactGorenstein"
            if inv.symmetric
            else "ExactAlmostGorenstein" if inv.almost_symmetric else "Interval"
        )
        conductor = format_ideal(conductor_ideal(s))
        must_list = {format_ideal(unit_ideal(s)), format_ideal(normalization_ideal(s))}
        ref = recorded.get(gens, {})

        def check_ca(out, ref=ref, status=status, conductor=conductor):
            cert = json.loads(out)
            if cert["status"] != status:
                return f"status {cert['status']}, invariants say {status}"
            if cert.get("value", cert.get("lower")) != conductor:
                return f"value/lower is not the conductor {conductor}"
            if "ca" in ref and digest(out) != ref["ca"]:
                return "ca output differs from its reference"
            return None

        def check_ideals(out, ref=ref, must_list=must_list):
            listed = [row["ideal"] for row in json.loads(out)]
            if len(set(listed)) != len(listed):
                return "ideal classes are listed twice"
            if not must_list <= set(listed):
                return "S or the normalization is missing"
            if "ideals" in ref and digest(out) != ref["ideals"]:
                return "ideals output differs from its reference"
            return None

        ops.append(Op(f"ca {gens}", lambda g=gens: cli_output(["ca", g]), check_ca))
        ops.append(Op(f"ideals {gens}", lambda g=gens: cli_output(["ideals", g]), check_ideals))
    return Workload("query-g16", inputs=drawn, ops=ops)


def tree_workload(refs: dict) -> Workload:
    ref = refs["tree"]

    def check_almost(out: str) -> str | None:
        lines = out.count("\n")
        if lines != ref["lines"]:
            return f"{lines} almost-symmetric semigroups, reference {ref['lines']}"
        if digest(out) != ref["sha256"]:
            return "listing differs from its reference (order-sensitive digest)"
        return None

    def check_total(out: str) -> str | None:
        lines = out.count("\n")
        if lines != TREE_TOTAL:
            return f"{lines} semigroups of genus {TREE_GENUS}, OEIS A007323 says {TREE_TOTAL}"
        return None

    almost = Op(
        f"enumerate --genus {TREE_GENUS} --filter almost",
        lambda: cli_output(["enumerate", "--genus", str(TREE_GENUS), "--filter", "almost"]),
        check_almost,
    )
    total = Op(
        f"enumerate --genus {TREE_GENUS} --filter none",
        lambda: cli_output(["enumerate", "--genus", str(TREE_GENUS)]),
        check_total,
    )
    return Workload(
        "tree-g18",
        inputs=[f"genus={TREE_GENUS} filter=almost"],
        ops=[almost],
        extra=[total],
    )


def build_workload(name: str, seed: int, refs: dict) -> Workload:
    if name == "verify-g6":
        return verify_workload(refs)
    if name == "query-g16":
        return query_workload(seed, refs)
    return tree_workload(refs)


# -- measuring ----------------------------------------------------------------------


class Tally:
    """Operations attempted and failed, and the output each label gave first."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.outputs: dict[str, str] = {}

    def run(self, op: Op, sampler=None) -> tuple[float, str | None]:
        """Run one operation, inside ``sampler`` if given; return its wall
        time and output (None on failure)."""
        self.attempted += 1
        error = None
        with sampler or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception:  # a failing operation is data, not a crash
                error = traceback.format_exc(limit=3).strip()
            dt = time.perf_counter() - t0
        if error is not None:
            self._fail(op.label, error)
            return dt, None
        try:
            problem = op.check(out)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem is None and self.outputs.setdefault(op.label, out) != out:
            problem = "output differs from an earlier round"
        if problem is not None:
            self._fail(op.label, problem)
            return dt, None
        return dt, out

    def _fail(self, label: str, message: str) -> None:
        self.failed += 1
        self.errors.append(f"{label}: {message}")


def probe(name: str, seed: int, sampler) -> float:
    """Wall time of a fresh interpreter importing nslab and building the
    workload's inputs."""
    with sampler:
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), name, str(seed)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=60,
        )
        dt = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.decode(errors='replace')}")
    return dt


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def normalized(cpus, serial: bool, run, ticks: bool = True) -> tuple[float, object, float]:
    """Call ``run(sampler)``, which returns (seconds, value) and times its
    operation inside ``with sampler``.  A serial call runs on whichever of
    ``cpus`` is fastest just before; a parallel one may use them all.
    Without ``ticks`` the host is sampled only before and after the call.
    Return the seconds at the reference host's speed (refkernel.py), the
    value, and the host factor during the call."""
    if serial:
        cpu = fastest_cpu(cpus)
        sampler = HostSampler() if ticks else HostSampler([cpu])
    else:
        os.sched_setaffinity(0, cpus)
        sampler = HostSampler(cpus)
    seconds, value = run(sampler)
    return (seconds - sampler.spent) / sampler.factor, value, sampler.factor


def typical(samples: list[tuple[float, float]]) -> float:
    """Median time of the half of the samples taken at the lowest host
    factor.  Code slows by different amounts than the reference kernel in
    the host's slow phases, so normalized samples from different phases do
    not quite agree; the fast half keeps a run to one phase when it can."""
    fast = sorted(samples, key=lambda sample: sample[1])[: (len(samples) + 1) // 2]
    return statistics.median(t for t, _ in fast)


def measure(work: Workload, seed: int, seconds: float, tally: Tally) -> dict:
    samples: dict[str, list[tuple[float, float]]] = {op.label: [] for op in work.ops}
    setup: list[tuple[float, float]] = []
    rounds = 0
    peak = 0.0
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + seconds
    try:
        while True:
            start = time.perf_counter()
            for op in work.ops:
                dt, _, factor = normalized(
                    cpus, not op.parallel, lambda sampler, op=op: tally.run(op, sampler)
                )
                samples[op.label].append((dt, factor))
            if rounds == 0:
                # the first round only: a later round can reach a higher
                # peak through fragmentation, and the round count varies
                peak = peak_rss_mb()
            dt, _, factor = normalized(
                cpus, True, lambda sampler: (probe(work.name, seed, sampler), None)
            )
            setup.append((dt, factor))
            rounds += 1
            now = time.perf_counter()
            if now + (now - start) > deadline:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    for op in work.extra:
        tally.run(op)
    for label, values in samples.items():
        print(f"op {label}: {typical(values):.4f} s from {len(values)} samples, "
              f"host factor {min(f for _, f in values):.2f} to {max(f for _, f in values):.2f}")
    return {
        "rounds": rounds,
        "metrics": {
            "setup_s": (typical(setup), "s"),
            "wall_s": (sum(typical(v) for v in samples.values()), "s"),
            "peak_rss_mb": (peak, "MB"),
        },
    }


def round_wall(
    ops: list[Op], tally: Tally, cpus, serial: bool, ticks: bool = True
) -> tuple[float, list[str | None]]:
    """Wall time of one round at the reference host's speed, and its outputs."""
    results = [
        normalized(cpus, serial, lambda sampler, op=op: tally.run(op, sampler), ticks)
        for op in ops
    ]
    return sum(r[0] for r in results), [r[1] for r in results]


def measure_traced(work: Workload, seed: int, tally: Tally) -> dict:
    from tracing import Tracer, layer_metric_names

    cpus = sorted(os.sched_getaffinity(0))
    serial_ops, parallel_ops = work.distinct_ops(False), work.distinct_ops(True)
    try:
        untraced_s, untraced_out = round_wall(serial_ops, tally, cpus, True)
        parallel_s = round_wall(parallel_ops, tally, cpus, False)[0] if parallel_ops else 0.0
        # no samples inside the traced round: they would land in its spans
        with Tracer() as tracer:
            traced_s, traced_out = round_wall(serial_ops, tally, cpus, True, ticks=False)
    finally:
        os.sched_setaffinity(0, cpus)
    for op in work.extra:
        tally.run(op)
    if traced_out != untraced_out:
        tally.failed += 1
        tally.errors.append("traced round: outputs differ from the untraced round")

    layer = tracer.layer_metrics()
    # verify-g6 calls the library, the other workloads the CLI
    layer["cli.output_bytes"] = (
        sum(len(o.encode("utf-8")) for o in traced_out if o is not None)
        if work.name != "verify-g6"
        else 0
    )
    layer["harness.parallel_efficiency"] = untraced_s / (2 * parallel_s) if parallel_s else 0.0
    layer["trace.overhead"] = traced_s / untraced_s

    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{work.name}-seed{seed}.tsv.gz")
    slowest = [
        {"semigroup": sg, "seconds": t, "classes": tracer.classes_of.get(sg)}
        for t, sg in tracer.semigroup_times()[:5]
    ]
    report = {
        "workload": work.name,
        "seed": seed,
        "inputs": work.inputs,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "slowest_semigroups": slowest,
        "per_layer": layer,
    }
    (OUT / f"trace-{work.name}-seed{seed}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    for entry in slowest:
        print(f"slow semigroup <{entry['semigroup']}>: {entry['seconds']:.4f} s, "
              f"{entry['classes']} classes")
    return {
        "rounds": 1,
        "metrics": {name: (layer[name], unit) for name, unit in layer_metric_names()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="nslab benchmark (one workload per run)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_nslab()
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    work = build_workload(args.workload, args.seed, load_references())
    tally = Tally()
    if args.trace:
        result = measure_traced(work, args.seed, tally)
    else:
        result = measure(work, args.seed, args.seconds, tally)

    print(f"workload {work.name}  seed {args.seed}  rounds {result['rounds']}")
    for item in work.inputs:
        print(f"input {item}")
    for err in tally.errors:
        print(f"FAILED {err}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:45s} {value:.6g} {unit}")
    print(f"{'error_rate':45s} {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
