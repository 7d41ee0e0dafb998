"""The per-semigroup class table in SemigroupContext.

Every table entry is compared with the slow set oracles (all of them at
genus <= 6, a seeded sample on larger semigroups), the suites are shown to
catch a corrupted table with the witnesses of the loop versions they
replaced, reports are pinned byte for byte, and each semigroup's classes
are shown to be enumerated once per run, and the ring-level facts built
once per semigroup.
"""

import hashlib
import random
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

import nslab.annihilators as annihilators
import nslab.ideals as ideals
import nslab.rings as rings
import nslab.suites as suites
from nslab import (
    REGISTRY,
    InternalError,
    NumericalSemigroup,
    SemigroupContext,
    canonical_dual,
    canonical_reduction_number,
    category_annihilator,
    certify_cohomology_annihilator,
    duality_closure_shadow,
    enumerate_ideal_classes,
    enumerate_up_to_genus,
    format_ideal,
    is_subset,
    is_ulrich,
    n_fold_sum,
    normalize,
    run_suite,
    semigroup_from_generators,
    stable_annihilator,
    syzygy_two_generated,
    translate,
)
from nslab.cli import main as cli_main
from nslab.harness import emit_report
from nslab.ideals import sum as ideal_sum
from nslab.suites import Recorder, _up_sets

from oracles import (
    SlowSet,
    agrees,
    from_ideal,
    shifted,
    slow_blowup,
    slow_colon,
    slow_stable_annihilator,
    slow_sum,
)


def _is_translate(a: SlowSet, b: SlowSet) -> bool:
    return shifted(a, b.least - a.least).same_set(b)


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
                k, off = ctx.colons[j][i]
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
            assert agrees(ctx.blowups[i], slow_blowup(a)), (label, i)
            em = slow_sum(a, m_set)
            gens = tuple(z for z in a.upto(em.tail) if z not in em)
            assert ctx.mingens[i] == gens, (label, i)

        two = [i for i, g in enumerate(ctx.mingens) if len(g) == 2]
        assert [i for i, _, _ in ctx.syzygies] == two, label
        for i, j, w in ctx.syzygies:
            omega = syzygy_two_generated(ctx.classes[i])
            assert ctx.classes[w] == omega == normalize(j)[0], (label, i)
        assert ctx.canred == canonical_reduction_number(s), label


def _slow_maximal(s_set: SlowSet, f: int) -> SlowSet:
    return SlowSet([z for z in s_set.upto(f + 1) if z > 0], max(f + 1, 1))


@pytest.mark.parametrize(
    "gens",
    [list(range(9, 18)), [5, 11], [7, 9], [3, 32, 34], [3, 34, 35]],
    ids=["9..17", "5,11", "7,9", "3,32,34", "3,34,35"],
)
def test_table_sample_matches_oracles_past_genus_6(gens):
    """256, 273 and 715 classes, and 132 and 144 on either side of the
    lane width: w = 32 packs a window extended by w tail bits in one
    64-bit word, w = 33 in two.  A seeded sample of table entries and
    minimal generators against the slow oracles."""
    s = semigroup_from_generators(gens)
    ctx = SemigroupContext(s)
    n = len(ctx.classes)
    m_set = _slow_maximal(from_ideal(ctx.unit), s.frobenius)
    rng = random.Random(20251018)
    for cell in rng.sample(range(n * n), 500):
        i, j = divmod(cell, n)
        a, b = from_ideal(ctx.classes[i]), from_ideal(ctx.classes[j])
        assert agrees(ctx.classes[ctx.sums[i][j]], slow_sum(a, b)), (i, j)
        k, off = ctx.colons[j][i]
        assert agrees(translate(ctx.classes[k], off), slow_colon(a, b)), (i, j)
    for i in rng.sample(range(n), 50):
        a = from_ideal(ctx.classes[i])
        em = slow_sum(a, m_set)
        assert ctx.mingens[i] == tuple(z for z in a.upto(em.tail) if z not in em), i


@pytest.mark.parametrize("gens", [[3, 68, 70], [4, 37, 39]], ids=["3,68,70", "4,37,39"])
def test_mingens_past_one_word_match_the_oracle(gens):
    """w = 68 (552 classes) and w = 71 (1 330 classes): a lane of two and
    of three 64-bit words, windows wider than one word.  Every class's
    minimal generators equal the slow oracle, and reading ``mingens``
    alone leaves each memo entry equal to the generator mask
    recomputed."""
    from nslab.semigroups import _bit_indices, _generator_mask

    s = semigroup_from_generators(gens)
    ctx = SemigroupContext(s)
    assert ctx.width > 64 and s._offsets is None
    mingens = ctx.mingens
    assert s._offsets.keys() == set(ctx.masks)
    for mask, offsets in s._offsets.items():
        assert offsets == tuple(_bit_indices(_generator_mask(mask, s.minimal_generators))), mask
    m_set = _slow_maximal(from_ideal(ctx.unit), s.frobenius)
    for i, e in enumerate(ctx.classes):
        a = from_ideal(e)
        em = slow_sum(a, m_set)
        assert mingens[i] == tuple(z for z in a.upto(em.tail) if z not in em), i


@pytest.mark.parametrize("gens", [[3, 68, 70], [4, 37, 39]], ids=["3,68,70", "4,37,39"])
def test_tables_past_one_word_match_the_object_kernel(gens):
    """w = 68 (552 classes) and w = 71 (1 330 classes), lanes of two and
    of three 64-bit words.  A seeded sample of ``sums`` and ``colons``
    entries equals the object kernel's sum and colon, each read as its
    class position and least element; ``sum_row``, read on a fresh
    context by the row rule alone, equals the row of the table built
    after it; and the dual pair lists are the colon table's entries at
    the classes of S and of K."""
    s = semigroup_from_generators(gens)
    ctx = SemigroupContext(s)
    n = len(ctx.masks)
    assert ctx.width > 64
    rng = random.Random(20261020)
    rows = {i: ctx.sum_row(i) for i in rng.sample(range(n), 5)}
    assert "sums" not in vars(ctx)
    sums, colons, classes = ctx.sums, ctx.colons, ctx.classes
    for i, row in rows.items():
        assert row == sums[i], i
    for cell in rng.sample(range(n * n), 300):
        i, j = divmod(cell, n)
        e = ideal_sum(classes[i], classes[j])
        assert (sums[i][j], 0) == (ctx.pos(e), e.min), (i, j)
        e = ideals.difference(classes[i], classes[j])
        assert colons[j][i] == (ctx.pos(e), e.min), (i, j)
    unit, k = ctx.pos(ctx.unit), ctx.pos(ctx.k)
    for i in range(n):
        assert ctx.ring_dual_pairs[i] == colons[i][unit], i
        assert ctx.can_dual_pairs[i] == colons[i][k], i


def test_colon_table_is_built_in_one_copy():
    """The colon rule gives the table column by column, and ``colons``
    keeps those columns: building it on <9..17> (256 classes) never holds
    much more than the table it leaves, as a second, transposed copy
    would (a peak of twice the table)."""
    ctx = SemigroupContext(semigroup_from_generators(list(range(9, 18))))
    ctx.mingens
    tracemalloc.start()
    try:
        ctx.colons
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * held, (peak, held)


@st.composite
def _multiplicity_3(draw):
    """<3, 3 k1 + 1, 3 k2 + 2> with Apery set {0, 3 k1 + 1, 3 k2 + 2}
    has genus k1 + k2; the Apery set is closed under sums exactly when
    k2 <= 2 k1 and k1 <= 2 k2 + 1."""
    genus = draw(st.integers(20, 40))
    k1 = draw(st.integers(-(-genus // 3), (2 * genus + 1) // 3))
    return semigroup_from_generators([3, 3 * k1 + 1, 3 * (genus - k1) + 2]), genus


def _check_sampled_entries(ctx, rng):
    """30 sampled sum and colon entries and 5 classes' duals, traces and
    stable annihilators against the slow oracles."""
    f = ctx.s.frobenius
    s_set = from_ideal(ctx.unit)
    k_set = SlowSet([x for x in range(f + 1) if (f - x) not in s_set], f + 1)
    n = len(ctx.classes)
    for cell in rng.sample(range(n * n), 30):
        i, j = divmod(cell, n)
        a, b = from_ideal(ctx.classes[i]), from_ideal(ctx.classes[j])
        assert agrees(ctx.classes[ctx.sums[i][j]], slow_sum(a, b)), (i, j)
        k, off = ctx.colons[j][i]
        assert agrees(translate(ctx.classes[k], off), slow_colon(a, b)), (i, j)
    for i in rng.sample(range(n), 5):
        a = from_ideal(ctx.classes[i])
        dual = slow_colon(s_set, a)
        assert agrees(ctx.ring_duals[i], dual), i
        assert agrees(ctx.can_duals[i], slow_colon(k_set, a)), i
        assert agrees(ctx.traces[i], slow_sum(a, dual)), i
        assert agrees(ctx.stable_anns[i], slow_stable_annihilator(s_set, a)), i


@settings(derandomize=True, deadline=None, max_examples=25)
@given(drawn=_multiplicity_3(), rng=st.randoms(use_true_random=False))
def test_table_entries_past_enumeration_range(drawn, rng):
    """Multiplicity-3 semigroups of genus 20..40 (91 to 441 classes):
    sampled sum and colon entries and per-class duals, traces and stable
    annihilators against the slow oracles."""
    s, genus = drawn
    assert (s.multiplicity, s.genus) == (3, genus)
    _check_sampled_entries(SemigroupContext(s), rng)


@st.composite
def _multiplicity_4_or_5(draw):
    """<m, m k1 + 1, ..., m k_(m-1) + m - 1> for m = 4 or 5, of genus
    20..30.  The semigroup they generate has multiplicity m and Apery set
    {0, m k'_i + i} with k'_i <= k_i; its genus is the sum of the k'_i."""
    m = draw(st.sampled_from([4, 5]))
    ks = [draw(st.integers(1, 40 // (m - 1))) for _ in range(m - 1)]
    s = semigroup_from_generators([m] + [m * k + i for i, k in enumerate(ks, 1)])
    assume(20 <= s.genus <= 30)
    return s


@settings(derandomize=True, deadline=None, max_examples=15)
@given(s=_multiplicity_4_or_5(), rng=st.randoms(use_true_random=False))
def test_table_entries_past_genus_20_at_multiplicity_4_and_5(s, rng):
    """Multiplicity 4 and 5 at genus 20..30, where a class count can pass
    3 000: the classes are enumerated first, and a semigroup of more than
    1 000 classes is drawn again before its tables are built.  The same
    sampled entries as at multiplicity 3 against the slow oracles."""
    assert s.multiplicity in (4, 5) and 20 <= s.genus <= 30
    ctx = SemigroupContext(s)
    assume(len(ctx.classes) <= 1000)
    _check_sampled_entries(ctx, rng)


@pytest.mark.parametrize("gens", [[3, 5, 7], [4, 7, 9, 10], [5, 11]])
def test_colon_with_empty_window(gens):
    """S - N is the conductor: no member in the window [0, w), so the
    colon is the ray from w, relocated to the class of N."""
    ctx = SemigroupContext(semigroup_from_generators(gens))
    unit, nat = ctx.pos(ctx.unit), ctx.pos(ctx.nat)
    k, off = ctx.colons[nat][unit]
    assert (k, off) == (nat, ctx.s.frobenius + 1)
    assert translate(ctx.classes[k], off) == ctx.conductor
    assert agrees(
        ctx.conductor, slow_colon(from_ideal(ctx.unit), from_ideal(ctx.nat))
    )


def test_table_of_the_naturals():
    """S = N has an empty window (width 0) and one class."""
    ctx = SemigroupContext(semigroup_from_generators([1]))
    assert ctx.classes == (ctx.unit,)
    assert ctx.mingens == [(0,)]
    assert ctx.sums == [[0]]
    assert ctx.colons == [[(0, 0)]]
    assert ctx.category_shadow == ctx.unit
    assert ctx.syzygies == []
    a = from_ideal(ctx.unit)
    assert agrees(ctx.classes[ctx.sums[0][0]], slow_sum(a, a))
    k, off = ctx.colons[0][0]
    assert agrees(translate(ctx.classes[k], off), slow_colon(a, a))


def test_covers_are_each_class_minus_a_nonzero_generator():
    """On every class of every semigroup of genus <= 8, the x with
    E \\ {x} a class are exactly E's nonzero minimal generators, every
    cover comes before its class, and the down-closure of ``covers`` is
    the inclusion order of the classes."""
    for s in enumerate_up_to_genus(8):
        ctx = SemigroupContext(s)
        masks, index, label = ctx.masks, ctx.index, str(s)
        for m, gens in zip(masks, ctx.mingens):
            probed = [x for x in range(ctx.width) if m >> x & 1 and m ^ 1 << x in index]
            assert probed == list(gens[1:]), (label, m)
        closure = []
        for i, below in enumerate(ctx.covers):
            assert all(c < i for c in below), (label, i)
            acc = 1 << i
            for c in below:
                acc |= closure[c]
            closure.append(acc)
        inclusion = [sum(1 << h for h, mh in enumerate(masks) if mh & ~m == 0) for m in masks]
        assert closure == inclusion, label


def test_up_sets_are_the_classes_containing_each_class():
    """On every semigroup of genus <= 8, the up-sets that colonAdjunction
    builds by its reverse pass over ``covers`` are up(F) = {E : F inside
    E}, found by testing inclusion of the masks."""
    for s in enumerate_up_to_genus(8):
        ctx = SemigroupContext(s)
        masks = ctx.masks
        brute = [sum(1 << e for e, me in enumerate(masks) if mf & ~me == 0) for mf in masks]
        assert _up_sets(ctx.covers) == brute, str(s)


def test_blowup_modules_match_slow_oracle():
    """On every semigroup of genus <= 7 and on <9..17>, the lane pass
    ``modules`` that ulrichFacts reads gives, for each distinct blowup
    class T, exactly the classes E with T + E = E, computed on the slow
    sets; T = S gives every class, and the others are counted to show
    they occur."""
    proper = 0
    for s in [*enumerate_up_to_genus(7), semigroup_from_generators(list(range(9, 18)))]:
        ctx = SemigroupContext(s)
        slow = [from_ideal(e) for e in ctx.classes]
        for t in sorted({ctx.pos(b) for b in ctx.blowups}):
            brute = sum(1 << e for e, a in enumerate(slow) if slow_sum(slow[t], a).same_set(a))
            assert ctx.modules(t) == brute, (str(s), t)
            proper += brute.bit_count() < len(slow)
    assert proper


def test_verify_holds_s_and_n_once():
    """After every suite has run on one context, S and the normalization
    are the ends of the ``classes`` view, not second objects."""
    for s in (semigroup_from_generators([1]), S357, semigroup_from_generators([4, 7, 9, 10])):
        ctx = SemigroupContext(s)
        rec = Recorder(semigroup=str(s))
        for suite in REGISTRY.values():
            suite(ctx, rec)
        assert rec.violations == [], str(s)
        assert ctx.unit is ctx.classes[0] and ctx.nat is ctx.classes[-1], str(s)


@pytest.mark.parametrize("gens, found", [((3, 5, 7), 4), ((4, 7, 9, 10), 17), ((5, 7, 9, 11, 13), 29)])
def test_biduality_reads_the_table_k(gens, found):
    """``biduality`` takes K − (K − E) with the table's K, ``ctx.k``, not
    a K of its own: with the canonical duals built and K then replaced by
    S, the suite reports the classes where S − (K − E) is no translate of
    E."""
    ctx = SemigroupContext(semigroup_from_generators(list(gens)))
    ctx.can_duals
    ctx.k = ctx.unit
    rec = Recorder(semigroup=str(ctx.s))
    REGISTRY["biduality"](ctx, rec)
    checks = [w.check for w in rec.violations]
    assert checks == ["biduality:canonical-involution"] * found


def test_located_holds_the_class_windows_from_the_start():
    """``_located`` is built holding class i's window as (i, 0), so a
    colon rule that lands on a class window needs no relocation: building
    the stable annihilators adds only windows without bit 0, each at the
    class and least element that ``_relocate`` gives it."""
    from nslab.semigroups import _relocate

    for s in enumerate_up_to_genus(6):
        ctx = SemigroupContext(s)
        located = ctx._located
        assert located == {m: (i, 0) for i, m in enumerate(ctx.masks)}, str(s)
        ctx.stable_ann_pairs
        for window in located.keys() - set(ctx.masks):
            assert not window & 1, (str(s), window)
            b0, mask = _relocate(window, ctx.width)
            assert located[window] == (ctx.index[mask], b0), (str(s), window)


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
        assert ctx.classes == classes, label
        assert ctx.nat == classes[-1], label
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


def test_duality_closure_reads_built_canonical_duals():
    """Duality closure agrees with the reference also when ``can_duals``
    is already built, as verify builds it."""
    for s in enumerate_up_to_genus(6):
        ctx = SemigroupContext(s)
        ctx.can_duals
        assert ctx.duality_closure == duality_closure_shadow(ctx.classes), str(s)


S357 = semigroup_from_generators([3, 5, 7])
S5_13 = semigroup_from_generators([5, 7, 9, 11, 13])


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


def _replace_everywhere(monkeypatch, original, replacement) -> None:
    """Point every nslab module attribute that holds ``original`` at
    ``replacement``, as the bench tracer does."""
    for name, mod in list(sys.modules.items()):
        if name == "nslab" or name.startswith("nslab."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, replacement)


def _count_enumerations(monkeypatch) -> Counter:
    """Count calls of the class walk ``_class_masks``, under every name
    nslab holds it."""
    calls: Counter = Counter()
    original = ideals._class_masks

    def counted(s):
        calls[str(s)] += 1
        return original(s)

    _replace_everywhere(monkeypatch, original, counted)
    return calls


def _count_ring_facts(monkeypatch) -> Counter:
    """Count the builds of the ring-level facts: ``canonical_ideal``,
    ``conductor_ideal`` and ``maximal_ideal`` under every name nslab holds
    them, and ``NumericalSemigroup.invariants``."""
    calls: Counter = Counter()

    def counting(fn):
        def counted(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return counted

    for fn in (ideals.canonical_ideal, rings.conductor_ideal, ideals.maximal_ideal):
        _replace_everywhere(monkeypatch, fn, counting(fn))
    monkeypatch.setattr(NumericalSemigroup, "invariants", counting(NumericalSemigroup.invariants))
    return calls


RING_FACTS = ("canonical_ideal", "conductor_ideal", "maximal_ideal", "invariants")


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


def test_verify_builds_each_ring_fact_once(monkeypatch):
    """The class table is a ``rings.Ring``: the classification and the
    canonical reduction number read the context's K, M, conductor and
    invariants, so verify builds each once per semigroup."""
    calls = _count_ring_facts(monkeypatch)
    report = run_suite("all", 5)
    assert report.semigroups_checked == 27
    assert calls == Counter(dict.fromkeys(RING_FACTS, 27))


def test_info_builds_each_ring_fact_once(monkeypatch, capsys):
    calls = _count_ring_facts(monkeypatch)
    assert cli_main(["info", "3,5,7"]) == 0
    capsys.readouterr()
    assert calls == Counter(dict.fromkeys(RING_FACTS, 1))


def test_verify_keeps_the_ulrich_cross_check(monkeypatch):
    """The classification that verify reads still cross-checks almost
    symmetry against M being K-Ulrich: an inverted Ulrich test is an
    ``InternalError`` of its own, not a violation."""
    real_is_ulrich = rings.is_ulrich
    monkeypatch.setattr(rings, "is_ulrich", lambda e, i: not real_is_ulrich(e, i))
    with pytest.raises(InternalError, match="disagree on <") as info:
        run_suite("canredFacts", 3)
    assert type(info.value) is InternalError


@pytest.mark.parametrize("command, bound", [("ideals", 0), ("ca", 5)], ids=["ideals", "ca"])
def test_query_builds_a_fixed_number_of_ideals(monkeypatch, capsys, command, bound):
    """``ideals`` and ``ca`` on <5,18,19,26,27> (502 classes) read the
    class table's masks and pairs: they build a few ``RelativeIdeal``s,
    counted at ``__post_init__`` as the tracer counts them, not one per
    class.  ``ideals`` reads no ring-level fact of the context, so it
    builds none."""
    rel = ideals.RelativeIdeal
    post_init, built = rel.__post_init__, Counter()

    def counted(e):
        built[command] += 1
        post_init(e)

    monkeypatch.setattr(rel, "__post_init__", counted)
    assert cli_main([command, "5,18,19,26,27"]) == 0
    capsys.readouterr()
    assert built[command] <= bound, built


def test_pos_finds_translated_ideals():
    ctx = SemigroupContext(S357)
    for i, e in enumerate(ctx.classes):
        assert ctx.pos(translate(e, 7)) == i
    assert ctx.pos(ctx.mset) == ctx.pos(normalize(ctx.mset)[0])


# The loops the bitset suites replaced, kept as the reference for their
# witnesses: which checks fail, in which order, with which text.


def _reference_colon_adjunction(ctx, rec):
    classes = ctx.classes
    nc = len(classes)
    masks = [e._mask for e in classes]
    colons, sums = ctx.colons, ctx.sums
    for ei in range(nc):
        not_e = ~masks[ei]
        for fi in range(nc):
            ki, kmin = colons[fi][ei]
            not_colon = ~masks[ki]
            sums_row = sums[fi]
            for gi, g in enumerate(masks):
                in_colon = kmin == 0 and g & not_colon == 0
                in_e = masks[sums_row[gi]] & not_e == 0
                if in_colon != in_e:
                    rec.fail(
                        "colonAdjunction:biconditional",
                        (classes[ei], classes[fi], classes[gi]),
                        "G in E-F is {} but G+F in E is {}",
                        in_colon,
                        in_e,
                    )
    rec.checks += nc * nc * nc


def _reference_generation_monotone(ctx, rec):
    traces = ctx.traces
    for e, tr_e, sums_row in zip(ctx.classes, traces, ctx.sums):
        for h, eh in zip(ctx.classes, sums_row):
            tr_gen = traces[eh]
            rec.check(
                is_subset(tr_gen, tr_e),
                "traceFacts:generation-monotone",
                (e, h),
                "tr(E+H)={}; tr(E)={}",
                tr_gen,
                tr_e,
            )


def _reference_blowup_characterization(ctx, rec):
    for ii, i in enumerate(ctx.classes):
        bl = ctx.blowups[ii]
        for ei, e in enumerate(ctx.classes):
            u = ctx.sums[ii][ei] == ei
            via_blowup = ideal_sum(bl, e) == e
            rec.check(
                u == via_blowup,
                "ulrichFacts:blowup-characterization",
                ideals=(e, i),
                details=f"I-Ulrich {u}, module over blowup {via_blowup}"
                if u != via_blowup
                else "",
            )


def _reference_hom_stability(ctx, rec):
    classes, sums, colons = ctx.classes, ctx.sums, ctx.colons
    for ii, i in enumerate(classes):
        if ii == 0:
            continue
        sums_i = sums[ii]
        for ei, e in enumerate(classes):
            if sums_i[ei] != ei:
                continue
            bad = ()
            for fi, f in enumerate(classes):
                hi, hmin = colons[ei][fi]
                if sums_i[hi] != hi:
                    bad = (f, translate(classes[hi], hmin))
                    break
            rec.check(
                not bad,
                "ulrichFacts:hom-stability",
                (e, i, *bad),
                "F={}; F-E={}",
                *bad,
            )


def _reference_syzygy_exactness(ctx, rec):
    s = ctx.s
    for i, j, _ in ctx.syzygies:
        e = ctx.classes[i]
        a, b = ctx.mingens[i]
        bad = ()
        for d in range(e.min - 1, a + b + 2 * s.frobenius + 3):
            lhs = int(s.contains(d - a)) + int(s.contains(d - b))
            rhs = int(e.contains(d)) + int(j.contains(d - b))
            if lhs != rhs:
                bad = (d, lhs, rhs)
                break
        rec.check(not bad, "syzygyExactness:per-degree", (e, j), "degree {}: {} != {}", *bad)


def _of_check(witnesses, check_id):
    return [w for w in witnesses if w.check == check_id]


@pytest.mark.parametrize("table", ["sums", "colons", "both"])
def test_corrupted_table_gives_reference_witnesses(table):
    """Two corrupted entries of <3,5,7>, or seeded entries of both tables
    of <5,7,9,11,13> in different rows and columns: each rewritten check
    reports exactly the witnesses of the loop it replaced, order and text
    included, and the corruption does show in those that read it."""
    s = S5_13 if table == "both" else S357
    ctx = SemigroupContext(s)
    unit, nat = ctx.pos(ctx.unit), ctx.pos(ctx.nat)
    if table == "both":
        # colonAdjunction sorts its witnesses back from F-major order,
        # which only entries in several rows and columns exercise
        n, rng = len(ctx.classes), random.Random(20261019)
        rows, cols = rng.sample(range(n), 6), rng.sample(range(n), 6)
        for i, j in zip(rows[:3], cols[:3]):
            ctx.sums[i][j] = (ctx.sums[i][j] + rng.randrange(1, n)) % n
        for i, j in zip(rows[3:], cols[3:]):
            ctx.colons[j][i] = ((ctx.colons[j][i][0] + rng.randrange(1, n)) % n, 0)
    elif table == "sums":
        # S + N and N + N are both N; claim they are S
        ctx.sums[unit][nat] = unit
        ctx.sums[nat][nat] = unit
    else:
        # N - N is N and S - N is the conductor; claim both are S, which
        # breaks the biconditional both ways and gives Hom-stability two
        # failing F for E = N, of which it must report the first
        ctx.colons[nat][nat] = (unit, 0)
        ctx.colons[nat][unit] = (unit, 0)
    for suite, reference, check_id in [
        ("colonAdjunction", _reference_colon_adjunction, "colonAdjunction:biconditional"),
        ("traceFacts", _reference_generation_monotone, "traceFacts:generation-monotone"),
        ("ulrichFacts", _reference_blowup_characterization, "ulrichFacts:blowup-characterization"),
        ("ulrichFacts", _reference_hom_stability, "ulrichFacts:hom-stability"),
    ]:
        rec = Recorder(semigroup=str(s))
        reference(ctx, rec)
        got = _of_check(_violations(ctx, suite), check_id)
        assert got == rec.violations, (table, suite)
    if table == "both":
        caught = (_reference_colon_adjunction,)
    elif table == "sums":
        caught = (
            _reference_colon_adjunction,
            _reference_generation_monotone,
            _reference_blowup_characterization,
        )
    else:
        caught = (_reference_colon_adjunction, _reference_hom_stability)
    for reference in caught:
        rec = Recorder(semigroup=str(s))
        reference(ctx, rec)
        assert rec.violations, (table, reference.__name__)


def test_repeated_failing_image_gives_reference_witnesses():
    """traceFacts tests each distinct image of a sums row once and walks
    the row only on a failure: with one failing image written three
    times into the row of N, between images that pass, it reports the
    three witnesses of the row walk, in row order."""
    ctx = SemigroupContext(S5_13)
    unit, nat = ctx.pos(ctx.unit), ctx.pos(ctx.nat)
    row = ctx.sums[nat]
    # N + H is N for every H; tr(S) = S does not lie in tr(N), the conductor
    for h in (1, 4, len(row) - 2):
        row[h] = unit
    rec = Recorder(semigroup=str(S5_13))
    _reference_generation_monotone(ctx, rec)
    got = _of_check(_violations(ctx, "traceFacts"), "traceFacts:generation-monotone")
    assert got == rec.violations
    assert [w.ideals[1] for w in got] == [format_ideal(ctx.classes[h]) for h in (1, 4, len(row) - 2)]


# The corruptions of the gate below, each of one entry of a table of
# n > 1 classes.  A normalized class F holds S, so F + G and a colon E - F of least
# element 0 contain F: a correct row F of ``sums`` and the least-element-0
# entries of column F of ``colons`` lie in up(F), the classes that
# contain F, and S lies in up(F) only for F = S.


def _outside_up(ctx, f):
    mf = ctx.masks[f]
    return [h for h, m in enumerate(ctx.masks) if m & mf != mf]


def _image_out_of_up(ctx, rng):
    n = len(ctx.masks)
    f = rng.randrange(1, n)
    ctx.sums[f][rng.randrange(n)] = rng.choice(_outside_up(ctx, f))


def _least_zero_colon_out_of_up(ctx, rng):
    n = len(ctx.masks)
    f = rng.randrange(1, n)
    ctx.colons[f][rng.choice(_outside_up(ctx, f))] = (rng.randrange(n), 0)


def _colon_least_changed(ctx, rng):
    n = len(ctx.masks)
    column, e = ctx.colons[rng.randrange(n)], rng.randrange(n)
    k, off = column[e]
    column[e] = (k, rng.choice([x for x in range(ctx.width + 2) if x != off]))


def _entry_at_s(ctx, rng):
    """E + S in row E of ``sums``, or S - F in column F of ``colons``."""
    n = len(ctx.masks)
    i = rng.randrange(n)
    if rng.random() < 0.5:
        ctx.sums[i][0] = rng.choice([h for h in range(n) if h != i])
    else:
        k, off = ctx.colons[i][0]
        ctx.colons[i][0] = ((k + rng.randrange(1, n)) % n, off)


CORRUPTIONS = (_image_out_of_up, _least_zero_colon_out_of_up, _colon_least_changed, _entry_at_s)


def test_corrupted_tables_give_reference_witnesses():
    """The gate for rewrites of the suites that read ``sums`` and
    ``colons``: on every semigroup of genus <= 7, <9..17> (256 classes)
    and <5,11>, one to three corruptions of the tables, the first of each
    semigroup cycling through ``CORRUPTIONS`` and the others drawn, and
    colonAdjunction, traceFacts and ulrichFacts report exactly the
    violations of the reference loops, per check and in order.  N's one
    class takes a changed colon least element only.  Every corruption is
    applied many times, and each check fails on some table, so the
    comparison is not vacuous."""
    references = [
        ("colonAdjunction", _reference_colon_adjunction, "colonAdjunction:biconditional"),
        ("traceFacts", _reference_generation_monotone, "traceFacts:generation-monotone"),
        ("ulrichFacts", _reference_blowup_characterization, "ulrichFacts:blowup-characterization"),
        ("ulrichFacts", _reference_hom_stability, "ulrichFacts:hom-stability"),
    ]
    rng = random.Random(20261021)
    extra = [semigroup_from_generators(list(range(9, 18))), semigroup_from_generators([5, 11])]
    applied, failed = Counter(), Counter()
    for t, s in enumerate([*enumerate_up_to_genus(7), *extra]):
        ctx = SemigroupContext(s)
        corruptions = [CORRUPTIONS[t % len(CORRUPTIONS)]]
        corruptions += rng.choices(CORRUPTIONS, k=rng.randrange(3))
        for corrupt in corruptions:
            if len(ctx.masks) == 1:
                corrupt = _colon_least_changed
            corrupt(ctx, rng)
            applied[corrupt.__name__] += 1
        got = {suite: _violations(ctx, suite) for suite in ("colonAdjunction", "traceFacts", "ulrichFacts")}
        for suite, reference, check_id in references:
            rec = Recorder(semigroup=str(s))
            reference(ctx, rec)
            assert _of_check(got[suite], check_id) == rec.violations, (str(s), check_id)
            failed[check_id] += bool(rec.violations)
    assert all(applied[c.__name__] >= 20 for c in CORRUPTIONS), applied
    assert all(failed[check_id] for _, _, check_id in references), failed


def test_least_zero_colon_moved_out_of_up_gives_reference_witnesses():
    """One column F with its count of least-element-0 colons unchanged:
    F - F (in up(F)) given least element 1, and S - F (outside up(F))
    given least element 0.  The comparison on up(F) alone still passes,
    so only the test that every colon at up(F) has least element 0 sends
    F to the witness loop; colonAdjunction reports the reference witnesses
    on every semigroup of genus <= 5 but N."""
    for s in enumerate_up_to_genus(5):
        ctx = SemigroupContext(s)
        if len(ctx.masks) == 1:
            continue
        column = ctx.colons[1]
        column[1], column[0] = (column[1][0], 1), (column[0][0], 0)
        rec = Recorder(semigroup=str(s))
        _reference_colon_adjunction(ctx, rec)
        assert rec.violations, str(s)
        assert _violations(ctx, "colonAdjunction") == rec.violations, str(s)


def test_correct_tables_never_reach_the_witness_loop(monkeypatch):
    """On correct tables every F passes the up(F) tests, so the n^2 witness
    loop never runs: with it replaced by one that raises, colonAdjunction
    holds on every semigroup of genus <= 8 and on <9..17>.  A shortcut
    that always failed would still give the right witnesses, at n^3 Python
    steps per semigroup, and only this test would see it."""

    def unreachable(fi, sums_row, column, sub):
        raise AssertionError(f"witness loop reached for F at position {fi}")

    monkeypatch.setattr(suites, "_adjunction_witnesses", unreachable)
    for s in [*enumerate_up_to_genus(8), semigroup_from_generators(list(range(9, 18)))]:
        assert _violations(SemigroupContext(s), "colonAdjunction") == [], str(s)


def _syzygy_corruptions(ctx):
    """(name, classes, syzygies) for each corruption of the syzygies of
    ctx, or of a class and its syzygy together."""
    s, syz, gens = ctx.s, ctx.syzygies, ctx.mingens
    for x in (-2 * s.frobenius - 9, -3, -1, 1, 4):
        yield f"translate {x}", ctx.classes, [(i, translate(j, x), w) for i, j, w in syz]
    # J - b starting k degrees below min E - 1, the bottom of the degree range
    for k in (1, 2):
        yield f"below {k}", ctx.classes, [
            (i, translate(j, ctx.classes[i].min - 1 - k - gens[i][1] - j.min), w) for i, j, w in syz
        ]
    yield "swap", ctx.classes, [(i, j, w) for (i, _, w), (_, j, _) in zip(syz, syz[1:] + syz[:1])]
    # E and J moved up past frobenius + b: both generator counts read 1 and
    # both module counts 0 at the first degree, a mismatch of two
    classes, moved = list(ctx.classes), []
    for i, j, w in syz:
        x = s.frobenius + gens[i][1] + 2
        classes[i] = translate(classes[i], x)
        moved.append((i, translate(j, x), w))
    yield "E and J up", tuple(classes), moved
    yield "none", ctx.classes, syz


def test_corrupted_syzygies_give_reference_witnesses():
    """On each corruption the mask count reports the witnesses of the
    per-degree loop, and every corruption shows at some semigroup of genus
    <= 7.  "below" reads J - b by a right shift, and "E and J up" is
    caught only with the AND of each pair compared as well as the XOR."""
    shown = Counter()
    for s in enumerate_up_to_genus(7):
        ctx = SemigroupContext(s)
        if not ctx.syzygies:
            continue
        for name, classes, syzygies in list(_syzygy_corruptions(ctx)):
            ctx.classes, ctx.syzygies = classes, syzygies
            rec = Recorder(semigroup=str(s))
            _reference_syzygy_exactness(ctx, rec)
            assert _violations(ctx, "syzygyExactness") == rec.violations, (str(s), name)
            shown[name] += len(rec.violations)
    assert shown["none"] == 0
    assert all(shown[name] for name in shown if name != "none"), shown


def test_syzygies_are_read_from_the_object_kernel_ring_dual(monkeypatch):
    """The syzygy of a 2-generated class is its ring dual, computed by the
    object kernel: a ``ring_dual`` that returns a translate shows as a
    syzygyExactness witness on every semigroup of genus <= 5 with a
    2-generated class, and a replaced ``ring_dual_pairs`` list leaves the
    syzygies as they were."""
    real = ideals.ring_dual
    shown = 0
    for s in enumerate_up_to_genus(5):
        expected = SemigroupContext(s).syzygies
        ctx = SemigroupContext(s)
        ctx.ring_dual_pairs = ctx.ring_dual_pairs[1:] + ctx.ring_dual_pairs[:1]
        assert ctx.syzygies == expected, str(s)
        # raising=False: where the syzygies do not go through ring_dual
        # the patch reaches nothing, and the witness count below fails
        monkeypatch.setattr(annihilators, "ring_dual", lambda e: translate(real(e), 1), raising=False)
        moved = _violations(SemigroupContext(s), "syzygyExactness")
        monkeypatch.undo()
        assert len(moved) == len(expected), str(s)
        assert all(w.check == "syzygyExactness:per-degree" for w in moved), str(s)
        shown += len(moved)
    assert shown


def test_trace_below_zero_fails_inside_ring():
    """Traces moved down by one: those of the principal classes start at
    -1, and traceFacts records them as outside the ring instead of
    failing on a negative shift."""
    ctx = SemigroupContext(S357)
    principal = [i for i, (_, off) in enumerate(ctx.trace_pairs) if off == 0]
    assert principal
    ctx.trace_pairs = [(t, off - 1) for t, off in ctx.trace_pairs]
    outside = _of_check(_violations(ctx, "traceFacts"), "traceFacts:inside-ring")
    assert {w.ideals[0] for w in outside} >= {format_ideal(ctx.classes[i]) for i in principal}


def test_k_ulrich_is_read_from_the_row_of_k():
    """agClosure and ulrichFacts read K + E = E from the row of K in the
    sum table: claiming K + N = K shows in both."""
    ctx = SemigroupContext(S357)
    kpos, nat = ctx.pos(ctx.k), ctx.pos(ctx.nat)
    assert ctx.reflexive[nat]
    for suite in ("agClosure", "ulrichFacts"):
        assert _violations(ctx, suite) == []
    ctx.sums[kpos][nat] = kpos
    assert _of_check(_violations(ctx, "agClosure"), "agClosure:reflexive-is-omega-ulrich")
    assert _of_check(_violations(ctx, "ulrichFacts"), "ulrichFacts:normalization-is-ulrich")


def test_canonical_power_witnesses_match_n_fold_sum():
    """Told that the reduction number of <3,5,7> is 0 (it is 2), the walk
    along the row of K reports 0K = S and 1K = K as not K-Ulrich, with the
    witnesses of the n_fold_sum loop it replaced."""
    ctx = SemigroupContext(S357)
    ctx.classification = type(ctx.classification)(
        **{**ctx.classification._fields(), "canonical_reduction_number": 0}
    )
    rec = Recorder(semigroup=str(S357))
    for n in range(0, S357.multiplicity + 1):
        power = n_fold_sum(ctx.k, n)
        rec.check(is_ulrich(power, ctx.k), "ulrichFacts:canonical-powers", ideals=(power,), details=f"n={n}")
    assert len(rec.violations) == 2
    assert _of_check(_violations(ctx, "ulrichFacts"), "ulrichFacts:canonical-powers") == rec.violations


@pytest.mark.parametrize("jobs", [1, 2])
def test_genus_6_report_bytes(jobs):
    """The `verify --suite all --max-genus 6` JSON report, pinned."""
    blob = emit_report(run_suite("all", 6, jobs=jobs), "json")
    assert hashlib.sha256(blob).hexdigest() == (
        "88eb787bed14f57c47defe7febfa499c215143194bc0765db2120785204a2ccb"
    )


@pytest.mark.parametrize(
    "gens", [list(range(9, 18)), [5, 11], [7, 9]], ids=["9..17", "5,11", "7,9"]
)
def test_class_lists_sample_matches_oracles_past_genus_6(gens):
    """The duals, traces and stable annihilators built from the class
    masks, for a seeded sample of 50 classes, against the slow oracles;
    the category shadow and duality closure against the public
    functions on the whole class list."""
    s = semigroup_from_generators(gens)
    ctx = SemigroupContext(s)
    f = s.frobenius
    s_set = from_ideal(ctx.unit)
    k_set = SlowSet([x for x in range(f + 1) if (f - x) not in s_set], f + 1)
    rng = random.Random(20261018)
    for i in rng.sample(range(len(ctx.classes)), 50):
        a = from_ideal(ctx.classes[i])
        dual = slow_colon(s_set, a)
        assert agrees(ctx.ring_duals[i], dual), i
        assert agrees(ctx.can_duals[i], slow_colon(k_set, a)), i
        assert agrees(ctx.traces[i], slow_sum(a, dual)), i
        assert agrees(ctx.stable_anns[i], slow_stable_annihilator(s_set, a)), i
    assert ctx.category_shadow == category_annihilator(ctx.classes)
    # without can_duals built, duality closure computes canonical duals
    # itself and stops at the first failing class
    fresh = SemigroupContext(s)
    assert fresh.duality_closure == duality_closure_shadow(fresh.classes)
    assert "can_duals" not in fresh.__dict__
