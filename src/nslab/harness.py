"""Suite runner and report serialization.

Work is partitioned by semigroup: each worker receives a semigroup, builds
its per-semigroup context, runs the requested suites, and returns the
semigroup's ``Recorder``.  One loop collects the recorders, from the
process pool or, at one job, in process, and adds each one's witnesses
and checks to the totals as it arrives, in enumeration order, so report
content does not depend on the number of jobs; the wall time is the only
field outside the determinism contract and is excluded from the JSON
form.
"""

from __future__ import annotations

import io
import os
import time
from contextlib import nullcontext
from functools import partial

from .semigroups import NumericalSemigroup, _Frozen, enumerate_up_to_genus, parse_semigroup
from .ideals import _dump
from .annihilators import SemigroupContext
from .suites import REGISTRY, Recorder, Witness


class UnknownSuite(ValueError):
    """The requested suite name is not in the registry."""


class UnsupportedFormat(ValueError):
    """The requested report format is not one of text, json, csv."""


class SuiteReport(_Frozen):
    __slots__ = ("suite", "genus_range", "semigroups_checked", "checks_executed",
                 "violations", "informational", "wall_time")

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        # wall_time is deliberately not serialized: reports are byte-stable.
        return {
            "suite": self.suite,
            "genus_range": list(self.genus_range),
            "semigroups_checked": self.semigroups_checked,
            "checks_executed": self.checks_executed,
            "violations": [w.to_json_dict() for w in self.violations],
            "informational": [w.to_json_dict() for w in self.informational],
        }


def suite_names(suite: str) -> tuple[str, ...]:
    if suite == "all":
        return tuple(REGISTRY)
    if suite not in REGISTRY:
        raise UnknownSuite(
            f"unknown suite {suite!r}; known: all, {', '.join(REGISTRY)}"
        )
    return (suite,)


def run_on_semigroup(names: tuple[str, ...], s: NumericalSemigroup) -> Recorder:
    """Run the named suites on one semigroup and return its recorder: the
    violations, the informational witnesses and the check count, plain
    lists and an int, so a pool worker can send it back."""
    ctx = SemigroupContext(s)
    rec = Recorder(semigroup=str(s))
    for name in names:
        REGISTRY[name](ctx, rec)
    return rec


def run_suite(
    suite: str,
    genus_max: int,
    jobs: int = 1,
    fail_fast: bool = False,
) -> SuiteReport:
    """Execute a suite (or "all") over every semigroup of genus at most
    genus_max.  Report content is independent of ``jobs``; with fail_fast
    the run stops after the first semigroup that produces a violation.
    The pool starts min(jobs, number of semigroups, CPU count) workers,
    and none when that is 1."""
    names = suite_names(suite)
    start = time.monotonic()
    semigroups = list(enumerate_up_to_genus(genus_max))

    run = partial(run_on_semigroup, names)
    violations: list[Witness] = []
    informational: list[Witness] = []
    checks = semigroups_checked = 0
    workers = min(jobs, len(semigroups), os.cpu_count() or 1)
    pool_cm = nullcontext()
    if workers > 1:
        # imported here: it loads multiprocessing, which in-process runs never use
        from concurrent.futures import ProcessPoolExecutor

        pool_cm = ProcessPoolExecutor(max_workers=workers)
    with pool_cm as pool:
        if pool is None:
            recs = map(run, semigroups)
        else:
            # one task per semigroup under fail_fast, so the cancel below
            # reaches every semigroup not yet queued to a worker
            chunk = 1 if fail_fast else max(1, len(semigroups) // (workers * 4))
            recs = pool.map(run, semigroups, chunksize=chunk)
        for rec in recs:
            violations += rec.violations
            informational += rec.informational
            checks += rec.checks
            semigroups_checked += 1
            if fail_fast and rec.violations:
                if pool is not None:
                    # map submitted every chunk, and leaving the block
                    # would wait for them all
                    pool.shutdown(cancel_futures=True)
                break

    return SuiteReport(
        suite=suite,
        genus_range=(0, genus_max),
        semigroups_checked=semigroups_checked,
        checks_executed=checks,
        violations=tuple(violations),
        informational=tuple(informational),
        wall_time=time.monotonic() - start,
    )


def replay_witness(witness: Witness) -> bool:
    """Re-run the owning suite on the witness's semigroup and confirm the
    identical finding reappears.  The suite name is the prefix of the check
    identifier."""
    suite = witness.check.split(":", 1)[0]
    if suite not in REGISTRY:
        raise UnknownSuite(f"witness check {witness.check!r} names no suite")
    s = parse_semigroup(witness.semigroup)
    rec = run_on_semigroup((suite,), s)
    return witness in rec.violations or witness in rec.informational


def emit_report(report: SuiteReport, format: str) -> bytes:
    """Serialize a report: json (byte-stable, no wall time), csv (one row
    per witness), or text (human summary ending in PASS or FAIL)."""
    if format == "json":
        return (_dump(report.to_json_dict()) + "\n").encode("utf-8")

    if format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["semigroup", "check", "status", "details"])
        for w in report.violations:
            writer.writerow([w.semigroup, w.check, "violation", w.details])
        for w in report.informational:
            writer.writerow([w.semigroup, w.check, "informational", w.details])
        return buf.getvalue().encode("utf-8")

    if format == "text":
        lines = [
            f"suite           : {report.suite}",
            f"genus range     : {report.genus_range[0]}..{report.genus_range[1]}",
            f"semigroups      : {report.semigroups_checked}",
            f"checks executed : {report.checks_executed}",
            f"violations      : {len(report.violations)}",
            f"informational   : {len(report.informational)}",
            f"wall time       : {report.wall_time:.3f}s",
        ]
        for w in report.violations:
            lines.append(f"VIOLATION <{w.semigroup}> {w.check} {w.details}")
            for ideal in w.ideals:
                lines.append(f"    ideal {ideal}")
        for w in report.informational:
            lines.append(f"INFO <{w.semigroup}> {w.check} {w.details}")
        lines.append("PASS" if report.passed else "FAIL")
        return ("\n".join(lines) + "\n").encode("utf-8")

    raise UnsupportedFormat(f"unsupported format {format!r}")
