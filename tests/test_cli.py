import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nslab
from nslab import (
    REGISTRY,
    enumerate_by_genus,
    enumerate_ideal_classes,
    enumerate_up_to_genus,
    format_ideal,
    is_reflexive,
    minimal_generators,
    parse_semigroup,
    stable_annihilator,
    trace_ideal,
)
from nslab.cli import main
from nslab.ideals import _dump

from oracles import brute_invariants


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info(capsys):
    code, out, _ = run_cli(capsys, "info", "3,5,7")
    assert code == 0
    data = json.loads(out)
    assert data["semigroup"] == "3,5,7"
    assert data["invariants"]["pseudo_frobenius"] == [2, 4]
    assert data["invariants"]["cm_type"] == 2
    assert data["classification"]["almost_gorenstein"] is True
    assert data["classification"]["canonical_reduction_number"] == 2
    assert data["classification"]["canonical_trace"] == "{3}∪[5,∞)"


@pytest.mark.parametrize("text", ["3,5,7,99999999", "3,5,7,999999999999"])
def test_info_with_a_redundant_large_generator(capsys, text):
    """A generator far past frobenius + multiplicity adds no member the
    others leave out: the input is <3,5,7>, and the closure and the
    generator check never shift by it."""
    assert parse_semigroup(text) == parse_semigroup("3,5,7")
    code, out, err = run_cli(capsys, "info", text)
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "info", "3,5,7")[1]


def test_info_bad_input(capsys):
    code, _, err = run_cli(capsys, "info", "4,6")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "info", "3,-5")
    assert code == 2


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--genus", "3")
    assert code == 0
    assert out.splitlines() == ["4,5,6,7", "3,5,7", "3,4", "2,7"]


def test_enumerate_filters(capsys):
    _, all_out, _ = run_cli(capsys, "enumerate", "--genus", "4")
    _, gor, _ = run_cli(capsys, "enumerate", "--genus", "4", "--filter", "gorenstein")
    _, almost, _ = run_cli(capsys, "enumerate", "--genus", "4", "--filter", "almost")
    _, med, _ = run_cli(capsys, "enumerate", "--genus", "4", "--filter", "med")
    assert len(all_out.splitlines()) == 7
    assert set(gor.splitlines()) <= set(almost.splitlines())
    assert set(gor.splitlines()) == {"3,5", "2,9", "4,5,6"}
    assert "5,6,7,8,9" in med


def test_enumerate_filters_match_definitional_oracle(capsys):
    """Every filter at every genus <= 12 lists, in tree order, the
    semigroups whose flag the definitional oracle sets; its almost
    symmetry is Barucci and Froberg's K + M inside M, independent of the
    pseudo-Frobenius count that the filter reads."""
    flags = {"gorenstein": "symmetric", "almost": "almost_symmetric", "med": "med"}
    for g in range(13):
        listed = enumerate_by_genus(g)
        records = [brute_invariants(s.minimal_generators) for s in listed]
        for name, flag in flags.items():
            code, out, _ = run_cli(capsys, "enumerate", "--genus", str(g), "--filter", name)
            assert code == 0
            want = [str(s) for s, rec in zip(listed, records) if rec[flag]]
            assert out.splitlines() == want, (g, name)


def test_ideals(capsys):
    code, out, _ = run_cli(capsys, "ideals", "3,5,7")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    by_ideal = {r["ideal"]: r for r in rows}
    k = by_ideal["{0,2,3}∪[5,∞)"]
    assert k["minimal_generators"] == [0, 2]
    assert k["reflexive"] is False
    assert k["trace"] == "{3}∪[5,∞)"
    assert k["stable_annihilator"] == "{3}∪[5,∞)"
    free = by_ideal["{0,3}∪[5,∞)"]
    assert free["reflexive"] is True
    assert free["stable_annihilator"] == "{0,3}∪[5,∞)"


def test_ca_golden(capsys):
    code, out, _ = run_cli(capsys, "ca", "3,5,7")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "ExactAlmostGorenstein"
    assert data["value"] == "[5,∞)"
    assert data["value_generators"] == [5, 6, 7]

    code, out, _ = run_cli(capsys, "ca", "5,6,7")
    data = json.loads(out)
    assert data["status"] == "Interval"
    assert data["lower"] == "[10,∞)"


def test_verify_pass(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "theoremB", "--max-genus", "4"
    )
    assert code == 0
    assert out.rstrip().endswith("PASS")

    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "verify",
        "--suite",
        "theoremB",
        "--max-genus",
        "4",
        "--format",
        "json",
        "--out",
        str(out_file),
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["suite"] == "theoremB"
    assert data["violations"] == []


def test_verify_unwritable_out_exits_two(capsys, tmp_path):
    """An --out file that cannot be opened is an input error: one line on
    stderr, nothing on stdout, exit 2 (not 1, which means violations)."""
    out_file = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(
        capsys, "verify", "--suite", "theoremB", "--max-genus", "2", "--out", str(out_file)
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not out_file.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("enumerate", "--genus", "-1"), "error: genus must be nonnegative\n"),
        (
            ("verify", "--suite", "theoremB", "--max-genus", "-1"),
            "error: --max-genus must be nonnegative, got -1\n",
        ),
        (
            ("verify", "--suite", "theoremB", "--max-genus", "2", "--jobs", "0"),
            "error: --jobs must be at least 1, got 0\n",
        ),
        (("info", ","), "error: no generators in ','\n"),
        (("info", "3,0,-1"), "error: generators must be positive, got -1\n"),
        (
            ("info", "1000000,1000001"),
            "error: the closure window of 1000000 * 1000001 = 1000001000000 bits"
            " exceeds the budget of 134217728\n",
        ),
        (
            ("info", "16384,16385"),
            "error: the closure window of 16384 * 16385 = 268451840 bits"
            " exceeds the budget of 134217728\n",
        ),
    ],
    ids=[
        "negative-genus",
        "negative-max-genus",
        "zero-jobs",
        "no-generators",
        "nonpositive-generator",
        "huge-frobenius",
        "window-past-budget",
    ],
)
def test_bad_numbers_exit_two_with_one_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == message


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nope", "--max-genus", "2")
    assert code == 2
    assert "unknown suite" in err


def test_verify_exit_one_on_violations(capsys, monkeypatch):
    def bad(ctx, rec):
        rec.check(False, "alwaysFails:forced", details="forced")

    monkeypatch.setitem(REGISTRY, "alwaysFails", bad)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "alwaysFails", "--max-genus", "1"
    )
    assert code == 1
    assert out.rstrip().endswith("FAIL")


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


def test_internal_errors_exit_three(capsys, monkeypatch):
    import nslab.rings as rings
    from nslab import maximal_ideal

    # a conductor that is not inside the category shadow: certify's lower
    # bound check fails
    monkeypatch.setattr(rings, "conductor_ideal", maximal_ideal)
    code, out, err = run_cli(capsys, "ca", "3,5,7")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: conductor lower bound fails on <3,5,7>")
    assert err.count("\n") == 1

    # an Ulrich test that disagrees with almost symmetry: classify's
    # cross-check raises InternalError
    is_ulrich = rings.is_ulrich
    monkeypatch.setattr(rings, "is_ulrich", lambda e, i: not is_ulrich(e, i))
    code, out, err = run_cli(capsys, "info", "3,5,7")
    assert code == 3
    assert err == "internal error: almost-symmetry test and Ulrich test disagree on <3,5,7>\n"


def test_closed_stdout_exits_141_quietly():
    """``enumerate --genus 16`` writes about 190 KB, more than a pipe
    holds: the reader takes one line and closes the pipe, and the command
    exits with the SIGPIPE code 141 and prints nothing on stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(nslab.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "nslab", "enumerate", "--genus", "16"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""


def test_ideals_rows_match_json_dump_through_genus_8(capsys):
    """`nslab ideals` fills a row template instead of calling `_dump`;
    for every semigroup of genus <= 8 its stdout equals `_dump` of the
    row dicts, built here from the public per-ideal functions."""
    for s in enumerate_up_to_genus(8):
        rows = [
            {
                "ideal": format_ideal(e),
                "minimal_generators": list(minimal_generators(e)),
                "reflexive": is_reflexive(e),
                "trace": format_ideal(trace_ideal(e)),
                "stable_annihilator": format_ideal(stable_annihilator(e)),
            }
            for e in enumerate_ideal_classes(s)
        ]
        code, out, _ = run_cli(capsys, "ideals", str(s))
        assert code == 0
        assert out == _dump(rows) + "\n", str(s)


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (("ideals", "7,9"), "13ff2df8dda30fdb41411f55ba517b0fc15bd2426cc55c055983d55a192e5c10"),
        (("ca", "7,9"), "7b2065fa7a68a755080d8622766d92a4f1a55188567173558acb2b5ac4087cd8"),
        (
            ("ideals", "9,10,11,12,13,14,15,16,17"),
            "034ff30e2cc81977de89361d0c2e64449bdf2649f854b03f86d52382f577bf94",
        ),
        (
            ("ca", "9,10,11,12,13,14,15,16,17"),
            "b052f1a74eedb723ee130476983bf16c8385f8cbee5a8e8af8d11c4552019a3c",
        ),
        (("ca", "1"), "7181e1a4a32f3706b71135cbdeafdd330cef2456818e5d264018e3c9358682a7"),
        (("ca", "3,5,7"), "f4dfaf549d01ce194262f225718ad1e12f3bb529f8c417da22c5a59aa94c69d1"),
        (("info", "1"), "864ed495da380ffccdcf2e44dc1a392a5dae6ed343f96ba51c3b96dadba27fcd"),
        (("info", "3,5,7"), "733bccb29418e2c3caa7b0a119886daa42adbd6168bc630d03e6671e36e82044"),
        (("ideals", "3,68,70"), "6992f74da34b1afa836ff7b82fda39c1a42222944eefb68d0c60f156a2b410db"),
        (("ca", "3,68,70"), "9c299f89a563ff82287c1611a92387c10ba01c66e542a4c1538b752ce86a006c"),
        (("ideals", "4,37,39"), "2a403943f3a1b7ca8361c064906df3f4c1354aa6ecf5a985eacb587137db98fa"),
        (("ca", "4,37,39"), "be21aba5386cc749fc524e68dc051e851c2df75e39c6fedc638de5d54c2a26ba"),
    ],
    ids=[
        "ideals-7,9", "ca-7,9", "ideals-9..17", "ca-9..17", "ca-1", "ca-3,5,7", "info-1", "info-3,5,7",
        "ideals-3,68,70", "ca-3,68,70", "ideals-4,37,39", "ca-4,37,39",
    ],
)
def test_query_output_bytes_pinned(capsys, argv, sha256):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


def test_query_outputs_match_the_benchmark_references(capsys):
    """`ca` and `ideals` on each of the 97 genus-16 query candidates that
    bench/references.json records give the SHA-256 recorded there (the
    file is read, never written)."""
    refs = Path(__file__).resolve().parents[1] / "bench" / "references.json"
    candidates = json.loads(refs.read_text(encoding="utf-8"))["query"]["candidates"]
    assert len(candidates) == 97
    for gens, row in candidates.items():
        for command in ("ca", "ideals"):
            code, out, _ = run_cli(capsys, command, gens)
            assert code == 0
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == row[command], (command, gens)
