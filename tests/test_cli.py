import json

import pytest

from nslab import REGISTRY
from nslab.cli import main


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
    import nslab.annihilators as annihilators
    import nslab.rings as rings
    from nslab import maximal_ideal

    # a conductor that is not inside the category shadow: certify's lower
    # bound check fails
    monkeypatch.setattr(annihilators, "conductor_ideal", maximal_ideal)
    code, out, err = run_cli(capsys, "ca", "3,5,7")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: conductor lower bound fails on <3,5,7>")
    assert err.count("\n") == 1

    # an Ulrich test that disagrees with almost symmetry: classify's
    # cross-check raises InternalBoundExceeded
    is_ulrich = rings.is_ulrich
    monkeypatch.setattr(rings, "is_ulrich", lambda e, i: not is_ulrich(e, i))
    code, out, err = run_cli(capsys, "info", "3,5,7")
    assert code == 3
    assert err == "internal error: almost-symmetry test and Ulrich test disagree on <3,5,7>\n"
