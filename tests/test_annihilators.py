import hashlib
import json

import pytest

from nslab import (
    InconsistentCertificate,
    SemigroupContext,
    canonical_dual,
    canonical_ideal,
    category_annihilator,
    certify_cohomology_annihilator,
    conductor_ideal,
    duality_closure_shadow,
    enumerate_ideal_classes,
    enumerate_up_to_genus,
    format_ideal,
    ideal_from_generators,
    is_subset,
    maximal_ideal,
    minimal_generators,
    naturals,
    normalization_ideal,
    semigroup_from_generators,
    stable_annihilator,
    unit_ideal,
)

from oracles import (
    SlowSet, agrees, brute_invariants, brute_members, from_ideal, slow_colon, slow_stable_annihilator,
    slow_sum,
)

S357 = semigroup_from_generators([3, 5, 7])
S23 = semigroup_from_generators([2, 3])
S35 = semigroup_from_generators([3, 5])
S567 = semigroup_from_generators([5, 6, 7])
NAT = naturals()


def members(e, hi=40):
    return e.members_below(hi)


def test_stable_annihilator_examples():
    assert stable_annihilator(unit_ideal(S357)) == unit_ideal(S357)
    assert members(stable_annihilator(normalization_ideal(S357)), 9) == [5, 6, 7, 8]
    m23 = maximal_ideal(S23)
    assert members(stable_annihilator(m23), 5) == [2, 3, 4]
    assert stable_annihilator(canonical_ideal(S357)) == maximal_ideal(S357)


def test_stable_annihilator_translation_invariant():
    from nslab import translate

    k = canonical_ideal(S357)
    assert stable_annihilator(translate(k, 9)) == stable_annihilator(k)
    assert stable_annihilator(translate(k, -4)) == stable_annihilator(k)


def test_stable_annihilator_matches_definitional_oracle():
    for s in enumerate_up_to_genus(4):
        s_set = from_ideal(unit_ideal(s))
        for e in enumerate_ideal_classes(s):
            got = stable_annihilator(e)
            want = slow_stable_annihilator(s_set, from_ideal(e))
            assert agrees(got, want), (str(s), format_ideal(e))


def test_category_annihilator_examples():
    for s in (S357, S23):
        assert category_annihilator(enumerate_ideal_classes(s)) == conductor_ideal(s)
    assert category_annihilator(enumerate_ideal_classes(NAT)) == unit_ideal(NAT)


def test_category_annihilator_between_bounds():
    # always squeezed between the conductor and the annihilator of the
    # normalization class, hence equal to the conductor
    for s in enumerate_up_to_genus(6):
        got = category_annihilator(enumerate_ideal_classes(s))
        cond = conductor_ideal(s)
        assert is_subset(cond, got)
        assert is_subset(got, stable_annihilator(normalization_ideal(s)))
        assert got == cond


def test_duality_closure_examples():
    assert duality_closure_shadow(enumerate_ideal_classes(S23)) == (True, None)
    ok, witness = duality_closure_shadow(enumerate_ideal_classes(S357))
    assert ok and witness is None
    ok, witness = duality_closure_shadow(
        enumerate_ideal_classes(semigroup_from_generators([4, 7, 9, 10]))
    )
    assert not ok
    assert witness is not None
    assert members(witness, 8) == [0, 3, 4, 5, 6, 7]  # S adjoined {3,5,6}
    # the witness really is a failure: reflexive with non-reflexive dual
    from nslab import is_reflexive

    assert is_reflexive(witness)
    assert not is_reflexive(canonical_dual(witness))


def test_certificate_357():
    cert = certify_cohomology_annihilator(S357)
    assert cert.status == "Exact-AlmostGorenstein"
    assert cert.value == conductor_ideal(S357)
    assert minimal_generators(cert.value) == (5, 6, 7)
    assert cert.duality_closure
    assert cert.justification == (
        "TheoremB",
        "WangConductor",
        "ConductorStableAnnihilator",
    )


def test_certificate_23():
    cert = certify_cohomology_annihilator(S23)
    assert cert.status == "Exact-Gorenstein"
    assert cert.value == conductor_ideal(S23)
    assert members(cert.value, 4) == [2, 3]


def test_certificate_567_interval():
    cert = certify_cohomology_annihilator(S567)
    assert cert.status == "Interval"
    assert cert.value is None
    assert cert.lower == conductor_ideal(S567)
    assert cert.lower.min == 10
    assert cert.upper == maximal_ideal(S567)
    assert is_subset(cert.lower, cert.upper)


def test_shadow_other_than_conductor_is_inconsistent(monkeypatch, capsys):
    """Symmetric and almost symmetric semigroups must have the conductor
    as category shadow; a shadow of m contradicts it there and nowhere
    else."""
    from nslab.cli import main as cli_main

    monkeypatch.setattr(SemigroupContext, "category_shadow", property(lambda ctx: ctx.mset))
    for s in (S35, S357):
        with pytest.raises(InconsistentCertificate, match="category shadow differs"):
            certify_cohomology_annihilator(s)
    assert certify_cohomology_annihilator(S567).status == "Interval"
    assert cli_main(["ca", "3,5,7"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: category shadow differs from conductor on <3,5,7>\n"


def test_normalization_annihilator_other_than_conductor_is_inconsistent(monkeypatch, capsys):
    """The stable annihilator of the normalization is the conductor; any
    other value in the class table's entry for N, the last class, is an
    internal error, exit 3, not a violation.  The entry is set to N
    itself."""
    from nslab.cli import main as cli_main

    table = SemigroupContext.stable_ann_pairs.func
    monkeypatch.setattr(
        SemigroupContext,
        "stable_ann_pairs",
        property(lambda ctx: table(ctx)[:-1] + [(len(ctx.masks) - 1, 0)]),
    )
    assert cli_main(["ca", "3,5,7"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "internal error: stable annihilator of the normalization differs from the "
        "conductor on <3,5,7>\n"
    )


def test_wrong_stable_annihilator_table_is_inconsistent(monkeypatch, capsys):
    """Every stable annihilator of <5,6,7> claimed to be [9,∞), N moved to
    the Frobenius number: the shadow [9,∞) contains the conductor
    [10,∞), so only N's entry, which the shadow is built from, shows the
    table wrong, and ``ca`` stops with exit 3 instead of certifying an
    interval beside that shadow."""
    from nslab.cli import main as cli_main

    monkeypatch.setattr(
        SemigroupContext,
        "stable_ann_pairs",
        property(lambda ctx: [(len(ctx.masks) - 1, ctx.width - 1)] * len(ctx.masks)),
    )
    assert format_ideal(SemigroupContext(S567).category_shadow) == "[9,∞)"
    assert cli_main(["ca", "5,6,7"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "internal error: stable annihilator of the normalization differs from the "
        "conductor on <5,6,7>\n"
    )


def test_conductor_outside_maximal_ideal_is_inconsistent(monkeypatch, capsys):
    """The Interval branch checks the conductor against its upper bound,
    the maximal ideal; an upper bound without 10 fails it on <5,6,7>."""
    from nslab.cli import main as cli_main

    monkeypatch.setattr("nslab.rings.maximal_ideal", lambda s: ideal_from_generators(s, [11]))
    assert cli_main(["ca", "5,6,7"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: conductor not inside the maximal ideal on <5,6,7>\n"


def test_interval_with_duality_closure_is_inconsistent(monkeypatch, capsys):
    """Off almost symmetry the duality closure fails (the proof is in the
    certificate's docstring), so a closure that holds in the Interval
    branch is an internal error, exit 3, not a violation; closure is
    forced on <5,6,7>."""
    from nslab.cli import main as cli_main

    monkeypatch.setattr(SemigroupContext, "duality_closure", property(lambda ctx: (True, None)))
    with pytest.raises(InconsistentCertificate, match="duality closure holds"):
        certify_cohomology_annihilator(S567)
    assert certify_cohomology_annihilator(S357).status == "Exact-AlmostGorenstein"
    assert cli_main(["ca", "5,6,7"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: duality closure holds on <5,6,7>, which is not almost symmetric\n"


def test_reflexive_class_s_minus_m_breaks_closure_off_almost_symmetry():
    """The three steps of the proof in the certificate's docstring, on
    every semigroup of genus 1 to 9, with the oracle sets: E = S - M is
    M - M = S ∪ PF(S), holds 0 and F, and is reflexive; its canonical
    dual K - E is R = M + K; R lies in S exactly when S is almost
    symmetric, and otherwise F lies in R** but not in R.  The class
    table's duality closure holds exactly on the almost symmetric ones."""
    almost_count = 0
    for s in enumerate_up_to_genus(9):
        if s.is_naturals:
            continue
        inv = brute_invariants(s.minimal_generators)
        f, almost = inv["frobenius"], inv["almost_symmetric"]
        members = brute_members(s.minimal_generators, f + 1)
        s_set = SlowSet(members, f + 1)
        m_set = SlowSet(members - {0}, f + 1)
        k_set = SlowSet([x for x in range(f + 1) if f - x not in s_set], f + 1)

        e_set = slow_colon(s_set, m_set)
        assert e_set.same_set(slow_colon(m_set, m_set)), str(s)
        assert e_set.same_set(SlowSet(members | set(inv["pseudo_frobenius"]), f + 1)), str(s)
        assert 0 in e_set and f in e_set and f not in s_set, str(s)
        assert slow_colon(s_set, slow_colon(s_set, e_set)).same_set(e_set), str(s)

        r_set = slow_sum(m_set, k_set)
        assert slow_colon(k_set, e_set).same_set(r_set), str(s)
        assert 0 not in r_set and all(z in r_set for z in m_set.upto(f + 2)), str(s)
        assert all(z in s_set for z in r_set.upto(f + 1)) == almost, str(s)
        if not almost:
            t_set = slow_colon(s_set, r_set)
            assert 0 not in t_set and all(z in e_set for z in t_set.upto(f + 2)), str(s)
            assert f in slow_colon(s_set, t_set) and f not in r_set, str(s)
        assert SemigroupContext(s).duality_closure[0] == almost, str(s)
        almost_count += almost
    assert almost_count == 152


def test_ca_bytes_pinned_over_genus_9(capsys):
    """`nslab ca` on each of the 274 semigroups of genus <= 9, stdout
    concatenated in enumeration order: one digest over every
    certificate's bytes."""
    from nslab.cli import main as cli_main

    digest, count = hashlib.sha256(), 0
    for s in enumerate_up_to_genus(9):
        assert cli_main(["ca", str(s)]) == 0
        digest.update(capsys.readouterr().out.encode("utf-8"))
        count += 1
    assert count == 274
    assert digest.hexdigest() == "ec5c0fb9d7ff3a87fa6db784bad340ec03900cec7a38a4d5f8ef85de561fc940"


def test_certificate_naturals():
    cert = certify_cohomology_annihilator(NAT)
    assert cert.status == "Exact-Regular"
    assert cert.value == unit_ideal(NAT)
    assert cert.justification == ("RegularRing",)


def test_certificate_wang_invariant_over_enumeration():
    for s in enumerate_up_to_genus(5):
        cert = certify_cohomology_annihilator(s)
        assert is_subset(cert.conductor, cert.category_annihilator_shadow)
        if cert.status != "Interval":
            assert cert.value is not None
        else:
            assert cert.lower == cert.conductor
            assert cert.upper == maximal_ideal(s)


def test_certificate_json_shape():
    data = json.loads(
        json.dumps(certify_cohomology_annihilator(S357).to_json_dict())
    )
    assert data["semigroup"] == "3,5,7"
    assert data["status"] == "ExactAlmostGorenstein"
    assert data["value"] == "[5,∞)"
    assert data["value_generators"] == [5, 6, 7]
    assert data["justification"] == [
        "TheoremB",
        "WangConductor",
        "ConductorStableAnnihilator",
    ]
    assert data["duality_closure"] is True

    data = json.loads(
        json.dumps(certify_cohomology_annihilator(S567).to_json_dict())
    )
    assert data["status"] == "Interval"
    assert data["lower"] == "[10,∞)"
    assert data["upper"] == "{5,6,7}∪[10,∞)"
    assert "value" not in data
