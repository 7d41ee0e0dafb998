import dataclasses
import itertools
import math
import pickle
import random
from functools import reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from nslab import (
    EmptyGenerators,
    NotTwoGenerated,
    ParentMismatch,
    RelativeIdeal,
    canonical_dual,
    canonical_ideal,
    conductor_ideal,
    difference,
    blowup,
    enumerate_by_genus,
    enumerate_ideal_classes,
    format_ideal,
    ideal_from_generators,
    intersect,
    is_reflexive,
    is_subset,
    is_translate,
    maximal_ideal,
    minimal_generators,
    n_fold_sum,
    naturals,
    normalization_ideal,
    normalize,
    parse_ideal,
    ring_dual,
    semigroup_from_generators,
    sum_ideals,
    syzygy_two_generated,
    trace_ideal,
    translate,
    unit_ideal,
)

from oracles import (
    SlowSet,
    agrees,
    brute_ideal_classes,
    brute_members,
    from_ideal,
    slow_colon,
    slow_intersect,
    slow_sum,
)


S357 = semigroup_from_generators([3, 5, 7])
S23 = semigroup_from_generators([2, 3])
S345 = semigroup_from_generators([3, 4, 5])
S567 = semigroup_from_generators([5, 6, 7])
NAT = naturals()


def members(e, hi=40):
    return e.members_below(hi)


def test_ideal_from_generators_examples():
    assert ideal_from_generators(S357, {0}) == unit_ideal(S357)
    k_like = ideal_from_generators(S357, {0, 2})
    assert members(k_like, 9) == [0, 2, 3, 5, 6, 7, 8]
    assert ideal_from_generators(S23, {0, 1}) == normalization_ideal(S23)
    with pytest.raises(EmptyGenerators):
        ideal_from_generators(S357, [])


def test_ideal_from_generators_matches_slow_union():
    for gens in [{0}, {0, 2}, {-3, 1}, {4}, {0, 1, 2}]:
        e = ideal_from_generators(S357, gens)
        slow = SlowSet(
            {g + s for g in gens for s in S357.members_below(30)},
            max(gens) + S357.frobenius + 1,
        )
        assert agrees(e, slow)


def test_normalize_examples():
    m = maximal_ideal(S357)
    norm, off = normalize(m)
    assert off == 3
    assert members(norm, 6) == [0, 2, 3, 4, 5]
    assert normalize(unit_ideal(S357)) == (unit_ideal(S357), 0)
    ray = ideal_from_generators(S357, {5, 6, 7})
    norm2, off2 = normalize(ray)
    assert off2 == 5
    assert norm2 == normalization_ideal(S357)


def test_sum_examples():
    k = canonical_ideal(S357)
    kk = sum_ideals(k, k)
    assert members(kk, 6) == [0, 2, 3, 4, 5]
    e = ideal_from_generators(S357, {0, 4})
    assert sum_ideals(e, unit_ideal(S357)) == e
    s345 = semigroup_from_generators([3, 4, 5])
    k345 = canonical_ideal(s345)
    assert members(sum_ideals(k345, k345), 5) == [0, 1, 2, 3, 4]


def test_n_fold_sum_examples():
    k = canonical_ideal(S357)
    assert n_fold_sum(k, 0) == unit_ideal(S357)
    assert n_fold_sum(k, 2) == sum_ideals(k, k)
    assert n_fold_sum(k, 3) == sum_ideals(k, sum_ideals(k, k))
    assert members(n_fold_sum(k, 3), 6) == [0, 2, 3, 4, 5]
    with pytest.raises(ValueError, match="n must be nonnegative"):
        n_fold_sum(k, -1)


def test_difference_examples():
    cond = difference(unit_ideal(S357), normalization_ideal(S357))
    assert members(cond, 9) == [5, 6, 7, 8]
    e = ideal_from_generators(S357, {0, 2})
    assert difference(e, unit_ideal(S357)) == e
    s_minus_k = difference(unit_ideal(S357), canonical_ideal(S357))
    assert members(s_minus_k, 8) == [3, 5, 6, 7]


def test_parent_mismatch():
    with pytest.raises(ParentMismatch):
        sum_ideals(unit_ideal(S357), unit_ideal(S23))
    with pytest.raises(ParentMismatch):
        difference(unit_ideal(S357), unit_ideal(S23))
    with pytest.raises(ParentMismatch):
        is_translate(unit_ideal(S357), unit_ideal(S23))


def test_canonical_ideal_examples():
    assert canonical_ideal(S23) == unit_ideal(S23)
    assert members(canonical_ideal(S357), 8) == [0, 2, 3, 5, 6, 7]
    assert members(canonical_ideal(S345), 5) == [0, 1, 3, 4]
    assert canonical_ideal(NAT) == unit_ideal(NAT)


def test_canonical_dual_examples():
    assert canonical_dual(unit_ideal(S357)) == canonical_ideal(S357)
    assert canonical_dual(canonical_ideal(S357)) == unit_ideal(S357)
    m567, _ = normalize(maximal_ideal(S567))
    d = canonical_dual(m567)
    norm, _ = normalize(d)
    assert members(norm, 8) == [0, 1, 5, 6, 7]


def test_ring_dual_examples():
    assert ring_dual(unit_ideal(S357)) == unit_ideal(S357)
    assert members(ring_dual(normalization_ideal(S357)), 9) == [5, 6, 7, 8]
    assert members(ring_dual(canonical_ideal(S357)), 8) == [3, 5, 6, 7]


def test_trace_examples():
    assert trace_ideal(unit_ideal(S357)) == unit_ideal(S357)
    tr_k = trace_ideal(canonical_ideal(S357))
    assert tr_k == maximal_ideal(S357)
    tr_n = trace_ideal(normalization_ideal(S357))
    assert members(tr_n, 9) == [5, 6, 7, 8]


def test_minimal_generators_examples():
    assert minimal_generators(canonical_ideal(S357)) == (0, 2)
    assert minimal_generators(unit_ideal(S357)) == (0,)
    assert minimal_generators(normalization_ideal(S357)) == (0, 1, 2)
    assert minimal_generators(maximal_ideal(S357)) == (3, 5, 7)


def test_is_reflexive():
    assert is_reflexive(unit_ideal(S357))
    m567, _ = normalize(maximal_ideal(S567))
    assert is_reflexive(m567)
    # the canonical class is a syzygy only in the symmetric case, and
    # <3,5,7> is not symmetric: its bidual strictly grows
    k = canonical_ideal(S357)
    assert not is_reflexive(k)
    bidual = ring_dual(ring_dual(k))
    assert members(bidual, 5) == [0, 2, 3, 4]
    assert is_reflexive(canonical_ideal(S23))  # symmetric case
    assert is_reflexive(normalization_ideal(S357))


def test_is_translate():
    cond = ring_dual(normalization_ideal(S357))
    assert is_translate(unit_ideal(S357), cond) is None
    assert is_translate(normalization_ideal(S357), cond) == 5
    k = canonical_ideal(S357)
    assert is_translate(k, k) == 0
    assert is_translate(k, translate(k, -4)) == -4


def test_syzygy_examples():
    k = canonical_ideal(S357)
    omega = syzygy_two_generated(k)
    assert members(omega, 6) == [0, 2, 3, 4, 5]
    m23 = maximal_ideal(S23)
    omega23 = syzygy_two_generated(m23)
    assert omega23 == normalization_ideal(S23)  # m is 2-generated, syzygy ~ m
    with pytest.raises(NotTwoGenerated):
        syzygy_two_generated(unit_ideal(S357))
    with pytest.raises(NotTwoGenerated):
        syzygy_two_generated(normalization_ideal(S357))


def test_syzygy_of_translate_matches():
    k = canonical_ideal(S357)
    assert syzygy_two_generated(translate(k, 7)) == syzygy_two_generated(k)


def test_enumerate_ideal_classes():
    assert len(enumerate_ideal_classes(S23)) == 2
    classes = enumerate_ideal_classes(S357)
    assert len(classes) == 6
    adjoined = [sorted(set(c.members_below(5)) - {0, 3}) for c in classes]
    assert adjoined == [[], [2], [4], [1, 4], [2, 4], [1, 2, 4]]
    assert len(enumerate_ideal_classes(NAT)) == 1
    for c in classes:
        assert c.min == 0
        c.validate()
    assert unit_ideal(S357) in classes
    assert normalization_ideal(S357) in classes


def test_enumerate_ideal_classes_matches_brute_oracle():
    from nslab import enumerate_up_to_genus

    for s in enumerate_up_to_genus(8):
        classes = list(enumerate_ideal_classes(s))
        brute = brute_ideal_classes(s.minimal_generators)
        assert len(classes) == len(brute), s
        for e, slow in zip(classes, brute):
            assert e.min == 0 and agrees(e, slow), (s, e)


@pytest.mark.parametrize(
    "gens, count",
    [((5, 11), 273), ((7, 9), 715), (tuple(range(9, 18)), 256)],
)
def test_ideal_class_counts_past_brute_force(gens, count):
    classes = enumerate_ideal_classes(semigroup_from_generators(gens))
    assert len(classes) == count
    for e in classes:
        e.validate()


def test_operations_match_slow_oracle():
    from nslab import enumerate_up_to_genus

    for s in enumerate_up_to_genus(5):
        classes = list(enumerate_ideal_classes(s))
        pairs = [(e, f) for e in classes for f in classes]
        for e, f in pairs:
            assert agrees(sum_ideals(e, f), slow_sum(from_ideal(e), from_ideal(f)))
            assert agrees(difference(e, f), slow_colon(from_ideal(e), from_ideal(f)))
            assert agrees(intersect(e, f), slow_intersect(from_ideal(e), from_ideal(f)))


def test_shifted_operands_match_slow_oracle():
    shifts = (-6, -1, 2, 9)
    classes = list(enumerate_ideal_classes(S357))
    frob = S357.frobenius
    s_set = from_ideal(unit_ideal(S357))
    k_set = SlowSet([x for x in range(frob + 1) if frob - x not in s_set], frob + 1)
    for e in classes:
        for xe in shifts:
            a = translate(e, xe)
            slow_a = from_ideal(a)
            dual = slow_colon(s_set, slow_a)
            assert agrees(ring_dual(a), dual), (e, xe)
            assert agrees(canonical_dual(a), slow_colon(k_set, slow_a)), (e, xe)
            assert agrees(trace_ideal(a), slow_sum(slow_a, dual)), (e, xe)
        for f in classes:
            for xe in shifts:
                for xf in shifts:
                    a, b = translate(e, xe), translate(f, xf)
                    assert agrees(sum_ideals(a, b), slow_sum(from_ideal(a), from_ideal(b)))
                    assert agrees(difference(a, b), slow_colon(from_ideal(a), from_ideal(b)))


@pytest.mark.parametrize(
    "parent, mask, message",
    [
        (NAT, 0b1, "empty window must have empty mask"),
        (S357, 0b110, "least element must be a member"),
        (S357, 0b1 | 1 << S357.frobenius + 1, "mask has bits outside the window"),
    ],
    ids=["empty-window", "least-element", "past-window"],
)
def test_bad_windows_are_refused(parent, mask, message):
    with pytest.raises(ValueError, match=message):
        RelativeIdeal(parent, 0, mask)


def test_textual_format():
    assert format_ideal(canonical_ideal(S357)) == "{0,2,3}∪[5,∞)"
    assert format_ideal(normalization_ideal(S357)) == "[0,∞)"
    assert format_ideal(maximal_ideal(S357)) == "{3}∪[5,∞)"
    assert format_ideal(unit_ideal(NAT)) == "[0,∞)"


def test_textual_parse_roundtrip():
    for e in enumerate_ideal_classes(S357):
        assert parse_ideal(S357, format_ideal(e)) == e
    # redundant thresholds denote the same set
    cond = ring_dual(normalization_ideal(S357))
    assert parse_ideal(S357, "{5,6,7}∪[8,∞)") == cond
    assert parse_ideal(S357, "[5,∞)") == cond
    assert parse_ideal(S357, "{0,2,3}∪[5,∞)") == canonical_ideal(S357)
    with pytest.raises(ValueError):
        parse_ideal(S357, "{0,1}∪[5,∞)")  # not closed under the action
    with pytest.raises(ValueError):
        parse_ideal(S357, "0,1,2")
    with pytest.raises(ValueError, match="unterminated member list in '{1,2'"):
        parse_ideal(S357, "{1,2")
    # a tail past lo + width: lo + S forces the integers the text leaves out
    with pytest.raises(ValueError):
        parse_ideal(S345, "{0}∪[10,∞)")
    with pytest.raises(ValueError):
        parse_ideal(S345, "{0,1}∪[7,∞)")


@settings(derandomize=True, deadline=None)
@given(
    m=st.integers(6, 12),
    data=st.data(),
)
def test_textual_roundtrip_past_enumeration(m, data):
    """parse_ideal inverts format_ideal on semigroups of genus 20-40, for
    S with a random up-closed set of gaps adjoined (the ideal generated
    by 0 and the drawn gaps), translated anywhere."""
    others = data.draw(st.lists(st.integers(m + 1, 3 * m - 1), min_size=2, max_size=4, unique=True))
    gens = [m] + others
    assume(reduce(math.gcd, gens) == 1)
    s = semigroup_from_generators(gens)
    assume(20 <= s.genus <= 40)
    adjoined = data.draw(st.sets(st.sampled_from(sorted(s.gap_set))))
    e = translate(ideal_from_generators(s, {0} | adjoined), data.draw(st.integers(-60, 60)))
    assert parse_ideal(s, format_ideal(e)) == e


@settings(derandomize=True, deadline=None)
@given(
    m=st.integers(6, 12),
    data=st.data(),
)
def test_operations_past_enumeration(m, data):
    """sum, difference, intersect and is_subset against the slow oracles
    on semigroups of genus 20-40, for two ideals drawn as in
    test_textual_roundtrip_past_enumeration."""
    others = data.draw(st.lists(st.integers(m + 1, 3 * m - 1), min_size=2, max_size=4, unique=True))
    gens = [m] + others
    assume(reduce(math.gcd, gens) == 1)
    s = semigroup_from_generators(gens)
    assume(20 <= s.genus <= 40)
    gaps = sorted(s.gap_set)
    e, f = (
        translate(
            ideal_from_generators(s, {0} | data.draw(st.sets(st.sampled_from(gaps)))),
            data.draw(st.integers(-60, 60)),
        )
        for _ in range(2)
    )
    a, b = from_ideal(e), from_ideal(f)
    assert agrees(sum_ideals(e, f), slow_sum(a, b))
    assert agrees(difference(e, f), slow_colon(a, b))
    meet = intersect(e, f)
    assert agrees(meet, slow_intersect(a, b))
    for x, y in ((e, f), (f, e), (meet, e), (e, translate(f, -200))):
        slow_x = from_ideal(x)
        assert is_subset(x, y) == slow_intersect(slow_x, from_ideal(y)).same_set(slow_x)


def test_ideals_over_equal_parents_built_separately():
    """Ideals over two equal semigroup objects are equal, hash alike and
    find each other as set members and dict keys; ideals over different
    semigroups are not, even with the same least element and mask."""
    tree = next(s for s in enumerate_by_genus(3) if str(s) == "3,5,7")
    built = semigroup_from_generators([10, 7, 3, 5, 8])
    assert tree is not built and tree == built
    for e, f in zip(enumerate_ideal_classes(tree), enumerate_ideal_classes(built)):
        assert e.parent is not f.parent
        assert e == f and hash(e) == hash(f)
        assert len({e, f}) == 1
    k_tree, k_built = canonical_ideal(tree), canonical_ideal(built)
    named = {k_tree: "K", blowup(k_tree): "B(K)"}
    assert named[k_built] == "K" and named[blowup(k_built)] == "B(K)"
    assert translate(k_built, 1) not in named
    assert sum_ideals(k_tree, k_built) == sum_ideals(k_built, k_tree)

    # <3,4> and <2,7> share the Frobenius number 5: the same window
    s34, s27 = semigroup_from_generators([3, 4]), semigroup_from_generators([2, 7])
    n34, n27 = normalization_ideal(s34), normalization_ideal(s27)
    assert (n34.min, n34._mask) == (n27.min, n27._mask)
    assert n34 != n27 and len({n34, n27}) == 2
    with pytest.raises(ParentMismatch):
        sum_ideals(n34, n27)
    with pytest.raises(ParentMismatch):
        is_subset(n34, n27)


def test_ideals_over_naturals():
    ray = ideal_from_generators(NAT, {-2, 4})
    assert ray.min == -2
    assert ray.contains(-2) and ray.contains(10) and not ray.contains(-3)
    assert sum_ideals(ray, ray).min == -4
    assert difference(ray, ray) == unit_ideal(NAT)
    assert trace_ideal(ray) == unit_ideal(NAT)
    assert is_reflexive(ray)
    assert minimal_generators(ray) == (-2,)
    # every function below once kept a separate branch for the empty window
    ray3 = ideal_from_generators(NAT, {3, 7})
    slow, slow3 = from_ideal(ray), from_ideal(ray3)
    assert agrees(sum_ideals(ray, ray3), slow_sum(slow, slow3))
    assert agrees(difference(ray, ray3), slow_colon(slow, slow3))
    assert agrees(difference(ray3, ray), slow_colon(slow3, slow))
    assert agrees(intersect(ray, ray3), slow_intersect(slow, slow3))
    assert is_subset(ray3, ray) and not is_subset(ray, ray3)
    assert canonical_ideal(NAT) == unit_ideal(NAT)
    assert conductor_ideal(NAT) == unit_ideal(NAT)
    parsed = parse_ideal(NAT, "{3,4}∪[5,∞)")
    assert parsed == ray3 and agrees(parsed, SlowSet([], 3))


def test_operator_sugar():
    k = canonical_ideal(S357)
    assert k + unit_ideal(S357) == k
    assert unit_ideal(S357) - k == ring_dual(k)


def test_constructed_ideals_validate():
    from nslab import enumerate_up_to_genus

    for s in enumerate_up_to_genus(4):
        classes = list(enumerate_ideal_classes(s))
        for e in classes:
            trace_ideal(e).validate()
            ring_dual(e).validate()
            canonical_dual(e).validate()
            for f in classes:
                sum_ideals(e, f).validate()
                difference(e, f).validate()
                intersect(e, f).validate()


def _brute_generators(e, gens):
    """The members z of e with no nonzero member y of S and z - y in e,
    from explicit member lists: past tail + max(gens) every z - y with
    y = min(gens) is still in e, and y <= z - min(e) bounds the y."""
    slow = from_ideal(e)
    hi = slow.tail + max(gens)
    nonzero = sorted(brute_members(gens, hi - slow.least) - {0})
    return tuple(
        z for z in slow.upto(hi)
        if not any((z - y) in slow for y in nonzero if y <= z - slow.least)
    )


@pytest.mark.parametrize(
    "gens", [[1], [2, 3], [3, 5, 7], [4, 7, 9, 10], [5, 11], [6, 7, 8, 9, 10, 11]]
)
def test_minimal_generators_of_translates_match_brute_force(gens):
    """Minimal generators read off the mask, for every class translated
    below 0, at 0 and above 0, and for rays and N itself."""
    s = semigroup_from_generators(gens)
    ideals = list(enumerate_ideal_classes(s))
    ideals += [maximal_ideal(s), normalization_ideal(s), canonical_ideal(s)]
    for e in ideals:
        for x in (-7, -1, 0, 3, 11):
            t = translate(e, x)
            assert minimal_generators(t) == _brute_generators(t, gens), (gens, t)


def _definitional_format(e):
    """The least t with every integer from t on a member, found by walking
    down from the tail, and the members below it."""
    t = e.tail_start
    while t > e.min and e.contains(t - 1):
        t -= 1
    if t == e.min:
        return f"[{t},∞)"
    head = ",".join(str(z) for z in e.members_below(t))
    return f"{{{head}}}∪[{t},∞)"


def test_format_ideal_matches_definition_on_random_ideals():
    rng = random.Random(20261018)
    for gens in ([1], [2, 3], [3, 5, 7], [5, 11], [7, 9], [6, 7, 8, 9, 10, 11]):
        s = semigroup_from_generators(gens)
        fixed = [unit_ideal(s), normalization_ideal(s), maximal_ideal(s), canonical_ideal(s)]
        for e in fixed:
            assert format_ideal(e) == _definitional_format(e), (gens, e.min)
        top = s.frobenius + 3
        for _ in range(200):
            picked = rng.sample(range(-5, top), rng.randint(1, 4))
            e = ideal_from_generators(s, picked)
            assert format_ideal(e) == _definitional_format(e), (gens, picked)
            ray = translate(normalization_ideal(s), rng.randint(-9, 9))
            assert format_ideal(ray) == _definitional_format(ray), (gens, ray.min)


def test_generator_memo_is_per_semigroup():
    """Window mask 0b101 is the class {0,2} of <3,4,5>, generated at 0 and
    2, and S itself in <2,5>, generated at 0.  Sums, colons and minimal
    generators interleaved over both, translates included, agree with the
    slow oracles only if each semigroup keeps its own generator memo."""
    s345, s25 = semigroup_from_generators([3, 4, 5]), semigroup_from_generators([2, 5])
    assert minimal_generators(RelativeIdeal(s345, 0, 0b101)) == (0, 2)
    assert minimal_generators(RelativeIdeal(s25, 0, 0b101)) == (0,)
    lists = []
    for s, gens in ((s25, [2, 5]), (s345, [3, 4, 5])):
        base = [RelativeIdeal(s, 0, 0b101), *enumerate_ideal_classes(s)]
        lists.append([(translate(e, x), gens) for e in base for x in (-3, 0, 2)])
    # one step on <2,5>, the next on <3,4,5>, each reading mask 0b101 of its
    # own semigroup right after the other semigroup has
    steps = [step for pair in itertools.zip_longest(*lists) for step in pair if step]
    for e, gens in steps:
        f = RelativeIdeal(e.parent, 1, 0b101)
        assert minimal_generators(e) == _brute_generators(e, gens), (gens, e)
        for a, b in ((e, f), (f, e)):
            assert agrees(sum_ideals(a, b), slow_sum(from_ideal(a), from_ideal(b))), (gens, a, b)
            assert agrees(difference(a, b), slow_colon(from_ideal(a), from_ideal(b))), (gens, a, b)


def test_generator_memo_entries_after_verify():
    """After every suite has run on a semigroup, each entry of its memo is
    the generator mask recomputed."""
    from nslab import enumerate_up_to_genus
    from nslab.harness import run_on_semigroup, suite_names
    from nslab.semigroups import _bit_indices, _generator_mask

    for s in enumerate_up_to_genus(5):
        assert s._offsets is None
        run_on_semigroup(suite_names("all"), s)
        assert s._offsets, str(s)
        for mask, offsets in s._offsets.items():
            assert offsets == tuple(_bit_indices(_generator_mask(mask, s.minimal_generators))), str(s)


def test_value_types_pickle_freeze_and_ignore_the_memo():
    s, twin = semigroup_from_generators([4, 7, 9, 10]), semigroup_from_generators([4, 7, 9, 10])
    before = hash(s)
    classes = enumerate_ideal_classes(s)
    for e in classes:
        minimal_generators(e)
    assert s._offsets and twin._offsets is None
    assert s == twin and hash(s) == hash(twin) == before and repr(s) == repr(twin)
    back = pickle.loads(pickle.dumps(s))
    assert back == s and hash(back) == hash(s) and back._offsets == s._offsets
    e = translate(classes[3], -5)
    for obj in (e, RelativeIdeal(back, -5, classes[3]._mask)):
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == e and hash(copy) == hash(e)
        assert minimal_generators(copy) == minimal_generators(e)
    for obj, attr in ((s, "genus"), (s, "_offsets"), (e, "min"), (e, "_mask")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, attr, 1)
    # A name that is no field is refused as well.  The hand-written
    # NumericalSemigroup refuses it as frozen.  On Python 3.11 the generated
    # __setattr__ of a slotted frozen dataclass (RelativeIdeal) raises
    # TypeError (its super(cls, self) names the class that slots=True
    # replaced) rather than FrozenInstanceError or AttributeError.
    for obj, twin_obj, refused in (
        (s, twin, dataclasses.FrozenInstanceError),
        (e, translate(classes[3], -5), (AttributeError, TypeError)),
    ):
        seen = (hash(obj), repr(obj))
        with pytest.raises(refused):
            setattr(obj, "note", 1)
        assert obj == twin_obj and (hash(obj), repr(obj)) == seen
