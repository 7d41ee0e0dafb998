import json

import pytest

import nslab.rings as rings
from nslab import (
    InternalBoundExceeded,
    InternalError,
    ParentMismatch,
    b_ideal,
    blowup,
    canonical_ideal,
    canonical_reduction_number,
    classify,
    conductor_ideal,
    difference,
    enumerate_ideal_classes,
    enumerate_up_to_genus,
    ideal_from_generators,
    is_translate,
    is_ulrich,
    maximal_ideal,
    naturals,
    normalization_ideal,
    ring_dual,
    semigroup_from_generators,
    sum_ideals,
    trace_ideal,
    translate,
    unit_ideal,
)
from nslab.cli import main as cli_main

from oracles import agrees, from_ideal, slow_blowup, slow_colon

S357 = semigroup_from_generators([3, 5, 7])
S23 = semigroup_from_generators([2, 3])
S345 = semigroup_from_generators([3, 4, 5])
S567 = semigroup_from_generators([5, 6, 7])
NAT = naturals()


def members(e, hi=40):
    return e.members_below(hi)


def test_conductor_examples():
    assert members(conductor_ideal(S357), 9) == [5, 6, 7, 8]
    assert members(conductor_ideal(S23), 5) == [2, 3, 4]
    assert conductor_ideal(NAT) == unit_ideal(NAT)
    for s in enumerate_up_to_genus(5):
        assert conductor_ideal(s) == difference(
            unit_ideal(s), normalization_ideal(s)
        )


def test_blowup_examples():
    k = canonical_ideal(S357)
    assert members(blowup(k), 5) == [0, 2, 3, 4]
    assert blowup(unit_ideal(S357)) == unit_ideal(S357)
    assert blowup(normalization_ideal(S357)) == normalization_ideal(S357)


def test_blowup_colon_chain_can_stall():
    # The colon chain nE - nE is constant for n = 1..3 here while the
    # powers are still growing; the blowup must be the full union.
    s = semigroup_from_generators([5, 6, 7, 8, 9])
    e = ideal_from_generators(s, {0, 1})
    d1 = difference(e, e)
    e2 = sum_ideals(e, e)
    d2 = difference(e2, e2)
    e3 = sum_ideals(e2, e)
    d3 = difference(e3, e3)
    assert d1 == d2 == d3 != normalization_ideal(s)
    assert blowup(e) == normalization_ideal(s)


def test_b_ideal_examples():
    k = canonical_ideal(S357)
    assert members(b_ideal(k), 8) == [3, 5, 6, 7]
    assert b_ideal(unit_ideal(S357)) == unit_ideal(S357)
    assert members(b_ideal(normalization_ideal(S357)), 9) == [5, 6, 7, 8]


def test_b_ideal_matches_slow_colon_on_every_class():
    """b_ideal is S - B(E), with the blowup B(E) read from slow sets as the
    stable power of the normalized E, on every class of every semigroup
    of genus <= 8, translated by -7, 0 and 11 (B(E) is that of the class,
    as the stable power is taken of E normalized)."""
    for s in enumerate_up_to_genus(8):
        s_set = from_ideal(unit_ideal(s))
        for e in enumerate_ideal_classes(s):
            expected = slow_colon(s_set, slow_blowup(from_ideal(e)))
            for x in (-7, 0, 11):
                assert agrees(b_ideal(translate(e, x)), expected), (s, e, x)


def test_is_ulrich_examples():
    assert is_ulrich(maximal_ideal(S357), canonical_ideal(S357))
    assert not is_ulrich(maximal_ideal(S567), canonical_ideal(S567))
    for e in enumerate_ideal_classes(S357):
        assert is_ulrich(e, unit_ideal(S357))


def test_is_ulrich_over_two_semigroups_is_a_parent_mismatch():
    """The sum that ``is_ulrich`` takes, I + E, checks the parents."""
    with pytest.raises(ParentMismatch, match=r"^ideals over <2,3> and <3,5,7> cannot be combined$"):
        is_ulrich(unit_ideal(S357), unit_ideal(S23))


def test_canonical_reduction_number_examples():
    assert canonical_reduction_number(S23) == 0
    assert canonical_reduction_number(S357) == 2
    assert canonical_reduction_number(S345) == 2
    assert canonical_reduction_number(NAT) == 0
    assert canonical_reduction_number(S567) == 4


def test_canred_bound_over_enumeration():
    for s in enumerate_up_to_genus(6):
        n = canonical_reduction_number(s)
        assert 0 <= n <= max(s.multiplicity - 1, 0)


def test_power_chain_bound_violation_is_internal_error(capsys, monkeypatch):
    """A sum shifted down by one has the right mask but never repeats, so
    both power chains run into their bounds; the CLI reports that as an
    internal error."""
    real_sum = rings.ideal_sum
    monkeypatch.setattr(rings, "ideal_sum", lambda e, f: translate(real_sum(e, f), -1))
    with pytest.raises(InternalBoundExceeded, match="within 5 steps"):
        blowup(maximal_ideal(S357))
    with pytest.raises(InternalBoundExceeded, match="within 3 steps"):
        canonical_reduction_number(S357)
    code = cli_main(["info", "3,5,7"])
    out = capsys.readouterr()
    assert code == 3
    assert out.out == ""
    assert out.err == (
        "internal error: power chain of {0,2,3}∪[5,∞) over <3,5,7> did not "
        "stabilize within 3 steps\n"
    )


def test_classify_cross_check_is_a_plain_internal_error(monkeypatch):
    """An Ulrich test that disagrees with almost symmetry exceeds no
    iteration bound: classify raises ``InternalError`` itself, not its
    ``InternalBoundExceeded`` subclass."""
    real_is_ulrich = rings.is_ulrich
    monkeypatch.setattr(rings, "is_ulrich", lambda e, i: not real_is_ulrich(e, i))
    with pytest.raises(InternalError, match="disagree on <3,5,7>") as info:
        classify(S357)
    assert type(info.value) is InternalError


def test_classify_357():
    rec = classify(S357)
    assert not rec.gorenstein
    assert rec.almost_gorenstein
    assert rec.nearly_gorenstein
    assert not rec.far_flung_gorenstein
    assert rec.canonical_reduction_number == 2
    assert rec.med
    assert rec.canonical_trace == maximal_ideal(S357)
    assert rec.conductor == conductor_ideal(S357)


def test_classify_23():
    rec = classify(S23)
    assert rec.gorenstein
    assert rec.canonical_reduction_number == 0
    assert not rec.far_flung_gorenstein
    assert rec.canonical_trace == unit_ideal(S23)


def test_classify_345_far_flung():
    rec = classify(S345)
    assert rec.almost_gorenstein and not rec.gorenstein
    assert rec.far_flung_gorenstein
    assert rec.canonical_trace == conductor_ideal(S345) == maximal_ideal(S345)


def test_classify_naturals():
    rec = classify(NAT)
    assert rec.gorenstein
    assert rec.conductor == unit_ideal(NAT)
    assert rec.med


def test_classify_hierarchy_over_enumeration():
    for s in enumerate_up_to_genus(6):
        rec = classify(s)
        if rec.gorenstein:
            assert rec.almost_gorenstein
        if rec.almost_gorenstein:
            assert rec.nearly_gorenstein
        assert rec.gorenstein == (rec.canonical_reduction_number <= 1)
        assert rec.far_flung_gorenstein == (
            rec.canonical_trace == rec.conductor
        )


def test_classification_json():
    blob = json.dumps(classify(S357).to_json_dict(), sort_keys=True)
    data = json.loads(blob)
    assert data["almost_gorenstein"] is True
    assert data["canonical_reduction_number"] == 2
    assert data["canonical_trace"] == "{3}∪[5,∞)"
    assert data["conductor"] == "[5,∞)"


def test_ulrich_dual_characterization_spot():
    # omega-Ulrich exactly when the ring dual is a translate of the
    # canonical dual
    from nslab import canonical_dual

    for s in [S357, S345, S567, S23]:
        k = canonical_ideal(s)
        for e in enumerate_ideal_classes(s):
            lhs = is_ulrich(e, k)
            rhs = is_translate(canonical_dual(e), ring_dual(e)) is not None
            assert lhs == rhs


def test_trace_of_canonical_vs_dual_criterion():
    for s in enumerate_up_to_genus(6):
        k = canonical_ideal(s)
        lhs = canonical_reduction_number(s) <= 2
        rhs = is_translate(ring_dual(k), trace_ideal(k)) is not None
        assert lhs == rhs
