"""The per-semigroup class table in SemigroupContext.

Every table entry is compared with the slow set oracles, the suites are
shown to catch a corrupted table, and each semigroup's classes are shown
to be enumerated once per run.
"""

import sys
from collections import Counter

import pytest

import nslab.ideals as ideals
from nslab import (
    REGISTRY,
    SemigroupContext,
    canonical_dual,
    category_annihilator,
    certify_cohomology_annihilator,
    duality_closure_shadow,
    enumerate_ideal_classes,
    enumerate_up_to_genus,
    normalize,
    run_suite,
    semigroup_from_generators,
    stable_annihilator,
    translate,
)
from nslab.cli import main as cli_main
from nslab.suites import Recorder

from oracles import (
    SlowSet,
    agrees,
    from_ideal,
    slow_colon,
    slow_stable_annihilator,
    slow_sum,
)


def _shifted(a: SlowSet, x: int) -> SlowSet:
    return SlowSet([m + x for m in a.members], a.tail + x)


def _is_translate(a: SlowSet, b: SlowSet) -> bool:
    return _shifted(a, b.least - a.least).same_set(b)


def _slow_blowup(e: SlowSet) -> SlowSet:
    """The stable power of the normalized E (E contains 0, so nE grows)."""
    e0 = _shifted(e, -e.least)
    power = e0
    while True:
        nxt = slow_sum(power, e0)
        if nxt.same_set(power):
            return power
        power = nxt


def test_table_matches_oracles():
    for s in enumerate_up_to_genus(6):
        ctx = SemigroupContext(s)
        f = s.frobenius
        s_set = from_ideal(ctx.unit)
        k_set = SlowSet([x for x in range(f + 1) if (f - x) not in s_set], f + 1)
        m_set = SlowSet([z for z in s_set.upto(f + 1) if z > 0], max(f + 1, 1))
        slow = [from_ideal(e) for e in ctx.classes]
        n = len(slow)
        assert len(ctx.index) == n
        label = str(s)

        for i, a in enumerate(slow):
            for j, b in enumerate(slow):
                assert agrees(ctx.classes[ctx.sums[i][j]], slow_sum(a, b)), (label, i, j)
                k, off = ctx.colons[i][j]
                assert agrees(translate(ctx.classes[k], off), slow_colon(a, b)), (label, i, j)

        for i, a in enumerate(slow):
            dual = slow_colon(s_set, a)
            can_dual = slow_colon(k_set, a)
            reflexive = _is_translate(a, slow_colon(s_set, dual))
            assert agrees(ctx.ring_duals[i], dual), (label, i)
            assert agrees(ctx.can_duals[i], can_dual), (label, i)
            assert agrees(ctx.traces[i], slow_sum(a, dual)), (label, i)
            assert ctx.reflexive[i] == reflexive, (label, i)
            assert ctx.dual_reflexive[i] == _is_translate(
                can_dual, slow_colon(s_set, slow_colon(s_set, can_dual))
            ), (label, i)
            assert agrees(ctx.stable_anns[i], slow_stable_annihilator(s_set, a)), (label, i)
            assert agrees(ctx.blowups[i], _slow_blowup(a)), (label, i)
            em = slow_sum(a, m_set)
            gens = tuple(z for z in a.upto(em.tail) if z not in em)
            assert ctx.mingens[i] == gens, (label, i)


def test_table_reads_match_public_functions():
    """theoremB, agClosure, medShadow and the `ca` certificate read the
    table where they once called category_annihilator,
    duality_closure_shadow and stable_annihilator; the public functions,
    run on a fresh enumeration, stay the reference."""
    for s in enumerate_up_to_genus(6):
        ctx = SemigroupContext(s)
        label = str(s)
        classes = enumerate_ideal_classes(s)
        assert classes[0] == ctx.unit, label
        shadow = category_annihilator(classes)
        closure = duality_closure_shadow(classes)
        assert ctx.category_shadow == shadow, label
        assert ctx.duality_closure == closure, label
        cert = certify_cohomology_annihilator(s)
        assert cert.category_annihilator_shadow == shadow, label
        assert (cert.duality_closure, cert.duality_closure_witness) == closure, label
        m = ctx.pos(ctx.mset)
        ann_dm = stable_annihilator(canonical_dual(normalize(ctx.mset)[0]))
        assert ctx.stable_anns[ctx.pos(ctx.can_duals[m])] == ann_dm, label


S357 = semigroup_from_generators([3, 5, 7])


def _violations(ctx, suite):
    rec = Recorder(semigroup=str(ctx.s))
    REGISTRY[suite](ctx, rec)
    return rec.violations


@pytest.mark.parametrize("table", ["sums", "colons"])
def test_corrupted_table_is_reported(table):
    ctx = SemigroupContext(S357)
    unit, nat = ctx.pos(ctx.unit), ctx.pos(ctx.nat)
    for suite in ("colonAdjunction", "ulrichFacts"):
        assert _violations(ctx, suite) == []
    # S + N and N - N are both N; claim they are S
    if table == "sums":
        ctx.sums[unit][nat] = unit
    else:
        ctx.colons[nat][nat] = (unit, 0)
    for suite in ("colonAdjunction", "ulrichFacts"):
        assert _violations(ctx, suite), (table, suite)


def _count_enumerations(monkeypatch) -> Counter:
    """Count enumerate_ideal_classes calls, under every name nslab holds it."""
    calls: Counter = Counter()
    original = ideals.enumerate_ideal_classes

    def counted(s):
        calls[str(s)] += 1
        return original(s)

    for name, mod in list(sys.modules.items()):
        if name == "nslab" or name.startswith("nslab."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_verify_enumerates_each_semigroup_once(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    report = run_suite("all", 5)
    assert len(calls) == report.semigroups_checked
    assert set(calls.values()) == {1}


def test_ca_enumerates_once(monkeypatch, capsys):
    calls = _count_enumerations(monkeypatch)
    assert cli_main(["ca", "4,7,9,10"]) == 0
    capsys.readouterr()
    assert calls == Counter({"4,7,9,10": 1})


def test_pos_finds_translated_ideals():
    ctx = SemigroupContext(S357)
    for i, e in enumerate(ctx.classes):
        assert ctx.pos(translate(e, 7)) == i
    assert ctx.pos(ctx.mset) == ctx.pos(normalize(ctx.mset)[0])
