"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines as they
go by; tolerances are exact set equalities and the stated wall-clock caps.
"""

import json
import time
from contextlib import contextmanager

from nslab import (
    canonical_ideal,
    canonical_reduction_number,
    conductor_ideal,
    emit_report,
    enumerate_by_genus,
    enumerate_up_to_genus,
    enumerate_ideal_classes,
    format_ideal,
    is_translate,
    is_ulrich,
    maximal_ideal,
    minimal_generators,
    parse_ideal,
    parse_semigroup,
    ring_dual,
    run_suite,
    semigroup_from_generators,
    stable_annihilator,
    trace_ideal,
    unit_ideal,
)
from nslab.cli import main as cli_main

from oracles import agrees, brute_gap_sets, from_ideal, slow_stable_annihilator


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def _ca_json(capsys, gens: str) -> tuple[dict, float]:
    start = time.monotonic()
    code = cli_main(["ca", gens])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out), elapsed


def test_criterion_1_golden_certificates(capsys):
    with criterion(1, "golden-certificates"):
        data, dt = _ca_json(capsys, "3,5,7")
        s = parse_semigroup("3,5,7")
        assert data["status"] == "ExactAlmostGorenstein"
        value = parse_ideal(s, data["value"])
        assert value == conductor_ideal(s)  # {z >= 5}
        assert value.min == 5
        assert minimal_generators(value) == (5, 6, 7)
        assert data["value_generators"] == [5, 6, 7]
        assert dt < 1.0

        data, dt = _ca_json(capsys, "2,3")
        s = parse_semigroup("2,3")
        assert data["status"] == "ExactGorenstein"
        assert parse_ideal(s, data["value"]) == conductor_ideal(s)
        assert parse_ideal(s, data["value"]).min == 2
        assert dt < 1.0

        data, dt = _ca_json(capsys, "3,4,5")
        s = parse_semigroup("3,4,5")
        assert data["status"] == "ExactAlmostGorenstein"
        assert parse_ideal(s, data["value"]) == conductor_ideal(s)
        assert parse_ideal(s, data["value"]).min == 3
        assert dt < 1.0

        data, dt = _ca_json(capsys, "5,6,7")
        s = parse_semigroup("5,6,7")
        assert data["status"] == "Interval"
        assert parse_ideal(s, data["lower"]) == conductor_ideal(s)
        assert parse_ideal(s, data["lower"]).min == 10
        assert parse_ideal(s, data["upper"]) == maximal_ideal(s)
        assert dt < 1.0


def test_criterion_2_theorem_b_suite():
    with criterion(2, "theoremB-genus-8"):
        start = time.monotonic()
        report = run_suite("theoremB", 8, jobs=1)
        elapsed = time.monotonic() - start
        assert report.violations == ()
        assert report.semigroups_checked == 156
        assert elapsed < 60.0


def test_criterion_3_lemma_proposition_suites():
    with criterion(3, "lemma-proposition-suites-genus-8"):
        for name in (
            "lemmaChain",
            "propSyzygyStability",
            "cocohomDuality",
            "traceContainment",
        ):
            report = run_suite(name, 8, jobs=1)
            assert report.violations == (), name
            assert report.semigroups_checked == 156


def test_criterion_4_trace_criterion_suite():
    with criterion(4, "traceCriterion-genus-8"):
        report = run_suite("traceCriterion", 8, jobs=1)
        assert report.violations == ()
        assert report.semigroups_checked == 156


def test_criterion_5_structural_oracles():
    with criterion(5, "structural-oracles"):
        report = run_suite("syzygyExactness", 8, jobs=1)
        assert report.violations == ()

        for s in enumerate_up_to_genus(6):
            s_set = from_ideal(unit_ideal(s))
            for cls in enumerate_ideal_classes(s):
                fast = stable_annihilator(cls)
                slow = slow_stable_annihilator(s_set, from_ideal(cls))
                assert agrees(fast, slow), (str(s), str(cls))

        counts = [len(enumerate_by_genus(g)) for g in range(9)]
        assert counts == [1, 1, 2, 4, 7, 12, 23, 39, 67]
        for g in range(7):
            assert {s.gap_set for s in enumerate_by_genus(g)} == brute_gap_sets(g)


def test_criterion_6_pinned_combinatorial_facts():
    with criterion(6, "pinned-facts-357"):
        s = semigroup_from_generators([3, 5, 7])
        assert len(enumerate_ideal_classes(s)) == 6
        assert trace_ideal(canonical_ideal(s)) == maximal_ideal(s)
        assert maximal_ideal(s).members_below(9) == [3, 5, 6, 7, 8]
        assert canonical_reduction_number(s) == 2


def test_criterion_7_consistency_crosschecks():
    with criterion(7, "consistency-crosschecks-genus-8"):
        for s in enumerate_up_to_genus(8):
            inv = s.invariants()
            k = canonical_ideal(s)
            assert inv.almost_symmetric == is_ulrich(maximal_ideal(s), k)
            canred = canonical_reduction_number(s)
            assert inv.symmetric == (canred <= 1)
            assert (canred <= 2) == (
                is_translate(ring_dual(k), trace_ideal(k)) is not None
            )


def test_criterion_9_info_at_large_frobenius_numbers(capsys):
    """The sum rule runs over the generators of one operand, so `nslab
    info` on a two- or three-generated semigroup stays fast when the
    Frobenius number is in the hundred thousands.  Both are symmetric, so
    K = S and the reduction number is 0."""
    with criterion(9, "info-large-frobenius"):
        for gens in ("2,200001", "3,100001"):
            start = time.monotonic()
            code = cli_main(["info", gens])
            elapsed = time.monotonic() - start
            data = json.loads(capsys.readouterr().out)
            assert code == 0
            assert data["classification"]["gorenstein"] is True
            assert data["classification"]["canonical_reduction_number"] == 0
            assert elapsed < 2.0, (gens, elapsed)


def test_criterion_10_ideal_text_at_large_frobenius_numbers():
    """The input path runs the same kernel: K of <3,100001> (Frobenius
    number 199 999) goes through its text and back, and the closure
    check, as a few shifted masks, not one step per window bit."""
    with criterion(10, "ideal-text-large-frobenius"):
        s = parse_semigroup("3,100001")
        start = time.monotonic()
        k = canonical_ideal(s)
        parsed = parse_ideal(s, format_ideal(k)).validate()
        elapsed = time.monotonic() - start
        assert parsed == k
        assert elapsed < 1.0, elapsed


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "report-determinism"):
        first = emit_report(run_suite("all", 6, jobs=1), "json")
        second = emit_report(run_suite("all", 6, jobs=1), "json")
        assert first == second
        parallel = emit_report(run_suite("all", 6, jobs=4), "json")
        assert first == parallel
        assert json.loads(first)["violations"] == []

        # same through the CLI surface
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            code = cli_main(
                [
                    "verify",
                    "--suite",
                    "all",
                    "--max-genus",
                    "4",
                    "--format",
                    "json",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
