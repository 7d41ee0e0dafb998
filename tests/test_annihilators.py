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

from oracles import agrees, from_ideal, slow_stable_annihilator

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
    other value is an internal error, exit 3, not a violation."""
    from nslab.cli import main as cli_main

    monkeypatch.setattr("nslab.annihilators.stable_annihilator", lambda e: e)
    assert cli_main(["ca", "3,5,7"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "internal error: stable annihilator of the normalization differs from the "
        "conductor on <3,5,7>\n"
    )


def test_conductor_outside_maximal_ideal_is_inconsistent(monkeypatch, capsys):
    """The Interval branch checks the conductor against its upper bound,
    the maximal ideal; an upper bound without 10 fails it on <5,6,7>."""
    from nslab.cli import main as cli_main

    monkeypatch.setattr("nslab.annihilators.maximal_ideal", lambda s: ideal_from_generators(s, [11]))
    assert cli_main(["ca", "5,6,7"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: conductor not inside the maximal ideal on <5,6,7>\n"


def test_interval_with_duality_closure_cites_theorem_a(monkeypatch):
    """The Interval branch adds TheoremAShadow when duality closure holds.
    No semigroup of genus <= 9 reaches it (every Interval certificate
    there has closure false), so closure is forced on <5,6,7>."""
    monkeypatch.setattr(SemigroupContext, "duality_closure", property(lambda ctx: (True, None)))
    cert = certify_cohomology_annihilator(S567)
    assert cert.justification == ("WangConductor", "SingularUpperBound", "TheoremAShadow")
    assert cert.to_json_dict() == {
        "semigroup": "5,6,7",
        "status": "Interval",
        "justification": ["WangConductor", "SingularUpperBound", "TheoremAShadow"],
        "duality_closure": True,
        "duality_closure_witness": None,
        "conductor": "[10,∞)",
        "category_annihilator_shadow": "[10,∞)",
        "lower": "[10,∞)",
        "upper": "{5,6,7}∪[10,∞)",
    }


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
