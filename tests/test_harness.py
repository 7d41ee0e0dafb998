import concurrent.futures
import json
import os
import time

import pytest

import nslab.harness as harness
import nslab.suites as suites
from nslab import (
    REGISTRY,
    SuiteReport,
    UnknownSuite,
    UnsupportedFormat,
    Witness,
    emit_report,
    replay_witness,
    run_suite,
)


EXPECTED_SUITES = [
    "semigroupFacts",
    "colonAdjunction",
    "biduality",
    "syzygyExactness",
    "traceFacts",
    "conductorStableAnn",
    "wangLowerBound",
    "lemmaChain",
    "propSyzygyStability",
    "cocohomDuality",
    "traceContainment",
    "traceCriterion",
    "ulrichFacts",
    "canredFacts",
    "agClosure",
    "theoremB",
    "medShadow",
    "farFlung",
    "multiplicity3",
]


def test_registry_names_and_size():
    assert list(REGISTRY) == EXPECTED_SUITES
    assert len(REGISTRY) == 19


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nope", 2)


def test_lemma_chain_at_genus_zero():
    report = run_suite("lemmaChain", 0)
    assert report.semigroups_checked == 1
    assert report.violations == ()
    assert report.checks_executed == 0  # no 2-generated non-principal classes


def test_negative_genus_is_refused():
    """The library refuses a negative genus as ``enumerate_by_genus``
    does, rather than reporting a pass over no semigroups."""
    with pytest.raises(ValueError, match="genus must be nonnegative"):
        run_suite("all", -1)


def test_semigroups_checked_counts():
    report = run_suite("conductorStableAnn", 6)
    assert report.semigroups_checked == 1 + 1 + 2 + 4 + 7 + 12 + 23
    assert report.passed


def test_report_json_determinism_and_schema():
    r1 = run_suite("canredFacts", 5)
    r2 = run_suite("canredFacts", 5)
    b1, b2 = emit_report(r1, "json"), emit_report(r2, "json")
    assert b1 == b2
    data = json.loads(b1)
    assert set(data) == {
        "suite",
        "genus_range",
        "semigroups_checked",
        "checks_executed",
        "violations",
        "informational",
    }
    assert data["suite"] == "canredFacts"
    assert data["genus_range"] == [0, 5]
    assert data["violations"] == []


def test_parallel_matches_serial():
    serial = run_suite("biduality", 5, jobs=1)
    parallel = run_suite("biduality", 5, jobs=3)
    assert emit_report(serial, "json") == emit_report(parallel, "json")


def test_jobs_capped_at_cpus_and_semigroups(monkeypatch):
    """The pool is asked for at most min(jobs, CPUs this process may use,
    semigroups) workers, and each worker takes a CPU of its own from the
    set.  The pool is replaced by an in-process stand-in that records the
    count and runs the initializer once per worker, so no process is
    started and no affinity is changed."""
    workers = []
    placed = []

    class InProcessPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            workers.append(max_workers)
            if initializer is not None:
                cpus, free = initargs
                for _ in range(max_workers):
                    assert not free.empty()  # a worker never waits for its CPU
                    initializer(cpus, free)
                assert free.empty()  # and no CPU is left over

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            assert chunksize >= 1
            return map(fn, items)

    def started_on(cpus):
        """The CPU each placed worker started on, checking that it was then
        released to the whole set."""
        assert all(later == cpus for later in placed[1::2])
        first = [cpu for (cpu,) in placed[::2]]
        placed.clear()
        return first

    # run_suite imports the pool class from concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    # raising=False: the stand-ins also run where os has no affinity calls
    monkeypatch.setattr(
        harness.os, "sched_setaffinity", lambda pid, cpus: placed.append(set(cpus)), raising=False
    )
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    capped = run_suite("canredFacts", 4, jobs=10**6)
    assert workers == [3]
    assert sorted(started_on({0, 2, 5})) == [0, 2, 5]
    assert emit_report(capped, "json") == emit_report(run_suite("canredFacts", 4), "json")
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(64)))
    run_suite("canredFacts", 2, jobs=10**6)
    assert workers == [3, 4]  # genus <= 2 has 4 semigroups
    first = started_on(set(range(64)))
    assert len(set(first)) == 4 and set(first) <= set(range(64))
    # without affinity calls (macOS, Windows) an unknown CPU count runs in
    # process, and a known one caps a pool whose workers start unplaced
    monkeypatch.delattr(harness.os, "sched_getaffinity")
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    run_suite("canredFacts", 2, jobs=8)
    assert workers == [3, 4]
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    run_suite("canredFacts", 2, jobs=8)
    assert workers == [3, 4, 3]
    assert placed == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity calls on this OS")
def test_place_leaves_the_full_set_and_an_empty_queue():
    """The initializer, run here in process, takes its CPU from the queue
    and ends with the affinity set it was given."""
    from multiprocessing import SimpleQueue

    cpus = os.sched_getaffinity(0)
    free = SimpleQueue()
    try:
        free.put(max(cpus))
        harness._place(cpus, free)
        assert os.sched_getaffinity(0) == cpus
        assert free.empty()
    finally:
        os.sched_setaffinity(0, cpus)
        free.close()


def test_one_cpu_runs_in_process(monkeypatch):
    """With one CPU in the affinity set, ``--jobs 2`` builds no pool and
    writes the bytes of ``--jobs 1``."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started on one CPU")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    report = run_suite("all", 4, jobs=2)
    assert emit_report(report, "json") == emit_report(run_suite("all", 4, jobs=1), "json")


def test_text_and_csv_formats():
    report = run_suite("theoremB", 4)
    text = emit_report(report, "text").decode()
    assert text.rstrip().endswith("PASS")
    csv_out = emit_report(report, "csv").decode()
    assert csv_out.splitlines()[0] == "semigroup,check,status,details"
    with pytest.raises(UnsupportedFormat):
        emit_report(report, "xml")


def test_report_lines_of_every_witness_kind():
    """The text form writes one ``ideal`` line per ideal of a violation
    and an INFO line per informational witness; the csv form writes a row
    for each, quoting commas and doubling quotes.  Pinned byte for byte."""
    report = SuiteReport(
        suite="demo",
        genus_range=(0, 3),
        semigroups_checked=2,
        checks_executed=7,
        violations=(
            Witness("3,5,7", ("{0,3}∪[5,∞)", "[0,∞)"), "demo:pair", "E={0,3}∪[5,∞); F=[0,∞)"),
        ),
        informational=(Witness("2,3", (), "demo:note", 'closure is "True"'),),
        wall_time=1.25,
    )
    assert emit_report(report, "text") == (
        "suite           : demo\n"
        "genus range     : 0..3\n"
        "semigroups      : 2\n"
        "checks executed : 7\n"
        "violations      : 1\n"
        "informational   : 1\n"
        "wall time       : 1.250s\n"
        "VIOLATION <3,5,7> demo:pair E={0,3}∪[5,∞); F=[0,∞)\n"
        "    ideal {0,3}∪[5,∞)\n"
        "    ideal [0,∞)\n"
        'INFO <2,3> demo:note closure is "True"\n'
        "FAIL\n"
    ).encode("utf-8")
    assert emit_report(report, "csv") == (
        "semigroup,check,status,details\n"
        '"3,5,7",demo:pair,violation,"E={0,3}∪[5,∞); F=[0,∞)"\n'
        '"2,3",demo:note,informational,"closure is ""True"""\n'
    ).encode("utf-8")


def _failing_suite(ctx, rec):
    rec.check(
        ctx.s.genus != 2,
        "alwaysFails:genus-two",
        details="synthetic failure for harness tests",
    )


def test_fail_fast_and_witnesses(monkeypatch):
    monkeypatch.setitem(REGISTRY, "alwaysFails", _failing_suite)
    full = run_suite("alwaysFails", 3)
    assert not full.passed
    assert len(full.violations) == 2  # both genus-2 semigroups
    assert full.semigroups_checked == 8

    fast = run_suite("alwaysFails", 3, fail_fast=True)
    assert len(fast.violations) == 1
    assert fast.semigroups_checked == 3  # stops at the first genus-2 node
    fast_jobs = run_suite("alwaysFails", 3, jobs=2, fail_fast=True)
    assert emit_report(fast, "json") == emit_report(fast_jobs, "json")

    text = emit_report(fast, "text").decode()
    assert text.rstrip().endswith("FAIL")
    csv_out = emit_report(fast, "csv").decode()
    assert "alwaysFails:genus-two,violation" in csv_out


def test_fail_fast_cancels_pending_chunks(monkeypatch, tmp_path):
    """At two jobs a failing first semigroup stops the run: fail_fast
    hands out one semigroup per task and the tasks not yet queued to a
    worker are cancelled, so the suite runs on at most 12 of the 50
    semigroups of genus <= 6 (each call appends a line to a file the
    forked workers share), and the report is the one-job report."""
    calls = tmp_path / "calls"

    def slow_failing_suite(ctx, rec):
        with open(calls, "a") as fh:
            fh.write(str(ctx.s) + "\n")
        time.sleep(0.05)
        rec.check(False, "slowFails:always", details="synthetic failure")

    monkeypatch.setitem(REGISTRY, "slowFails", slow_failing_suite)
    serial = run_suite("slowFails", 6, fail_fast=True)
    assert serial.semigroups_checked == 1
    calls.unlink()
    parallel = run_suite("slowFails", 6, jobs=2, fail_fast=True)
    assert emit_report(parallel, "json") == emit_report(serial, "json")
    assert len(calls.read_text().splitlines()) <= 12


def test_replay_witness(monkeypatch):
    monkeypatch.setitem(REGISTRY, "alwaysFails", _failing_suite)
    report = run_suite("alwaysFails", 2)
    witness = report.violations[0]
    assert replay_witness(witness)
    # a doctored witness does not replay
    fake = Witness(
        semigroup=witness.semigroup,
        ideals=witness.ideals,
        check=witness.check,
        details="different details",
    )
    assert not replay_witness(fake)


def test_replay_requires_known_suite():
    w = Witness(semigroup="2,3", ideals=(), check="bogus:check", details="")
    with pytest.raises(UnknownSuite):
        replay_witness(w)


def test_all_suite_passes_small():
    report = run_suite("all", 4)
    assert report.passed
    assert report.semigroups_checked == 15
    assert report.informational == ()


def test_med_shadow_informational_never_violates(monkeypatch):
    # force the informational path; the recorded finding must not be a
    # violation and must replay
    calls = []
    original = suites.suite_med_shadow

    def spy(ctx, rec):
        before = len(rec.informational)
        original(ctx, rec)
        if len(rec.informational) > before:
            calls.append(ctx.s)

    monkeypatch.setitem(REGISTRY, "medShadow", spy)
    report = run_suite("medShadow", 8)
    assert report.passed  # informational findings never fail a run
