import copy
import dataclasses
import hashlib
import json
import math
import pickle
import time
from collections import Counter
from functools import reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from nslab import (
    EmptyGenerators,
    GcdNotOne,
    NotAMember,
    Witness,
    certify_cohomology_annihilator,
    enumerate_by_genus,
    enumerate_up_to_genus,
    ideal_from_generators,
    naturals,
    parse_semigroup,
    semigroup_from_generators,
    translate,
)

from nslab.cli import main as cli_main
from nslab.suites import Recorder

from oracles import (
    brute_gap_sets,
    brute_invariants,
    brute_members,
    brute_minimal_generators,
)


def test_equal_semigroups_built_separately_hash_alike():
    """A tree leaf, a parsed semigroup and one built from a redundant
    generating set are three objects for one semigroup: equal, hashed
    alike, one member of a set."""
    leaf = next(s for s in enumerate_by_genus(3) if str(s) == "3,5,7")
    parsed = parse_semigroup("3,5,7")
    redundant = semigroup_from_generators([14, 7, 3, 5, 10, 3, 8])
    assert leaf is not parsed and parsed is not redundant
    assert leaf == parsed == redundant
    assert hash(leaf) == hash(parsed) == hash(redundant)
    assert len({leaf, parsed, redundant}) == 1
    other = parse_semigroup("3,4")  # Frobenius number 5, genus 3
    assert other != leaf and len({leaf, other}) == 2


# the reprs of the records of <3,5,7>, as the frozen dataclasses printed them
INVARIANTS_357 = (
    "InvariantRecord(embedding_dimension=3, multiplicity=3, genus=3, frobenius=4, "
    "pseudo_frobenius=(2, 4), cm_type=2, symmetric=False, almost_symmetric=True, med=True)"
)
CERTIFICATE_357 = (
    "CaCertificate(semigroup=NumericalSemigroup(minimal_generators=(3, 5, 7), frobenius=4, "
    "multiplicity=3, genus=3), conductor=RelativeIdeal(<3,5,7>, [5,∞)), "
    "category_annihilator_shadow=RelativeIdeal(<3,5,7>, [5,∞)), duality_closure=True, "
    "duality_closure_witness=None, status='Exact-AlmostGorenstein', "
    "value=RelativeIdeal(<3,5,7>, [5,∞)), lower=None, upper=None, "
    "justification=('TheoremB', 'WangConductor', 'ConductorStableAnnihilator'))"
)
WITNESS_ARGS = ("3,5,7", ("{0,3}∪[5,∞)", "[0,∞)"), "demo:pair", "E={0,3}∪[5,∞); F=[0,∞)")
WITNESS = (
    "Witness(semigroup='3,5,7', ideals=('{0,3}∪[5,∞)', '[0,∞)'), check='demo:pair', "
    "details='E={0,3}∪[5,∞); F=[0,∞)')"
)
CERTIFICATE_FIELDS = (
    "semigroup", "conductor", "category_annihilator_shadow", "duality_closure",
    "duality_closure_witness", "status", "value", "lower", "upper", "justification",
)


@pytest.mark.parametrize(
    "gens, shown, members, ideal_shown",
    [
        (
            (3, 5, 7),
            "minimal_generators=(3, 5, 7), frobenius=4, multiplicity=3, genus=3",
            (-2, 0),
            "{-2,0,1}∪[3,∞)",
        ),
        (
            (4, 7, 9, 10),
            "minimal_generators=(4, 7, 9, 10), frobenius=6, multiplicity=4, genus=5",
            (-5, -1),
            "{-5,-1}∪[2,∞)",
        ),
    ],
    ids=["3,5,7", "4,7,9,10"],
)
def test_value_type_repr_equality_copies_and_freeze(gens, shown, members, ideal_shown):
    """The value contract of ``NumericalSemigroup``, of ``RelativeIdeal``,
    here an ideal with its least element below 0, and of the records of
    <3,5,7>, built from a second semigroup object for the twin: the exact
    repr; ``==`` and ``hash`` read the compared fields, never the
    generator memo, and ``==`` gives ``NotImplemented`` for another class;
    pickles and copies keep every slot, the memo included; every slot
    refuses a write or a delete."""
    s, twin = semigroup_from_generators(gens), semigroup_from_generators(gens)
    e, e_twin = ideal_from_generators(s, members), ideal_from_generators(twin, members)
    s._generator_offsets(s._mask)
    assert s._offsets and twin._offsets is None and e.min < 0
    assert s != semigroup_from_generators([2, 3]) and e != translate(e, 1)
    s357, s357_twin = parse_semigroup("3,5,7"), semigroup_from_generators([7, 5, 3])
    inv = s357.invariants()
    cert, cert_twin = certify_cohomology_annihilator(s357), certify_cohomology_annihilator(s357_twin)
    witness = Witness(*WITNESS_ARGS)
    values = [
        (
            s,
            twin,
            f"NumericalSemigroup({shown})",
            (s.minimal_generators, s.frobenius, s.multiplicity, s.genus, s._mask),
            ("minimal_generators", "frobenius", "multiplicity", "genus", "_mask", "_offsets"),
        ),
        (
            e,
            e_twin,
            f"RelativeIdeal(<{','.join(map(str, gens))}>, {ideal_shown})",
            (e.parent, e.min, e._mask),
            ("parent", "min", "_mask"),
        ),
        (
            inv,
            s357_twin.invariants(),
            INVARIANTS_357,
            (3, 3, 3, 4, (2, 4), 2, False, True, True),
            (
                "embedding_dimension", "multiplicity", "genus", "frobenius", "pseudo_frobenius",
                "cm_type", "symmetric", "almost_symmetric", "med",
            ),
        ),
        (
            witness,
            Witness(*WITNESS_ARGS[:2], check=WITNESS_ARGS[2], details=WITNESS_ARGS[3]),
            WITNESS,
            WITNESS_ARGS,
            ("semigroup", "ideals", "check", "details"),
        ),
        (
            cert,
            cert_twin,
            CERTIFICATE_357,
            tuple(getattr(cert, name) for name in CERTIFICATE_FIELDS),
            CERTIFICATE_FIELDS,
        ),
    ]
    protocols = range(2, pickle.HIGHEST_PROTOCOL + 1)
    for obj, obj_twin, text, compared, slots in values:
        assert repr(obj) == text
        assert obj == obj_twin and obj_twin == obj and hash(obj) == hash(obj_twin) == hash(compared)
        assert obj != compared and obj.__eq__(compared) is NotImplemented
        copies = [pickle.loads(pickle.dumps(obj, protocol)) for protocol in protocols]
        for other in [*copies, copy.copy(obj), copy.deepcopy(obj)]:
            assert type(other) is type(obj) and other == obj and hash(other) == hash(obj)
            assert [getattr(other, name) for name in slots] == [getattr(obj, name) for name in slots]
            assert repr(other) == text
        for name in slots:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
        assert obj == obj_twin and hash(obj) == hash(compared)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        (WITNESS_ARGS[:3], {}),
        (WITNESS_ARGS[:3], {"detail": ""}),
        (WITNESS_ARGS, {"check": "demo:pair"}),
        ((*WITNESS_ARGS, ""), {}),
    ],
    ids=["missing", "unknown", "doubled", "extra"],
)
def test_record_init_refuses_a_bad_field_list(args, kwargs):
    """A record takes its fields by position or by name, as a generated
    dataclass init did: a missing, an unknown, a doubled or an extra field
    is a ``TypeError``."""
    with pytest.raises(TypeError, match="Witness"):
        Witness(*args, **kwargs)


def test_recorder_round_trips_through_pickle():
    """A pool worker sends a semigroup's ``Recorder`` back pickled: the
    witnesses and the check count survive."""
    rec = Recorder("3,5,7")
    rec.check(True, "demo:pass")
    rec.check(False, "demo:fail", (), "n={}", 2)
    rec.info("demo:note", (), "closure")
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rec, protocol))
        assert type(back) is Recorder
        assert (back.semigroup, back.violations, back.informational, back.checks) == (
            "3,5,7",
            [Witness("3,5,7", (), "demo:fail", "n=2")],
            [Witness("3,5,7", (), "demo:note", "closure")],
            3,
        )


def test_naturals():
    s = semigroup_from_generators([1])
    assert s.frobenius == -1
    assert s.genus == 0
    assert s.minimal_generators == (1,)
    assert s.gap_set == frozenset()
    assert -1 not in s
    assert 0 in s and 5 in s


def test_357_construction():
    s = semigroup_from_generators([3, 5, 7])
    assert s.gap_set == {1, 2, 4}
    assert s.frobenius == 4
    assert s.genus == 3
    assert s.multiplicity == 3
    assert s.minimal_generators == (3, 5, 7)


def test_23_construction():
    s = semigroup_from_generators([2, 3])
    assert s.gap_set == {1}
    assert s.frobenius == 1
    assert s.genus == 1


def test_non_minimal_generators_recomputed():
    s = semigroup_from_generators([3, 5, 7, 8, 10])
    assert s.minimal_generators == (3, 5, 7)


@settings(derandomize=True, deadline=None)
@given(
    m=st.integers(2, 12),
    steps=st.lists(st.integers(1, 40), min_size=1, max_size=5),
    pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=3),
    large=st.lists(st.integers(1, 40), max_size=2),
)
def test_redundant_generating_sets_match_oracles(m, steps, pairs, large):
    """Generating sets with repeated generators, sums of two generators
    and generators past frobenius + multiplicity give the semigroup of
    the brute-force oracles."""
    base = [m] + [m + d for d in steps]
    assume(reduce(math.gcd, base) == 1)
    core = semigroup_from_generators(base)
    assume(core.genus <= 40)
    gens = (
        base
        + [base[i % len(base)] + base[j % len(base)] for i, j in pairs]
        + [core.frobenius + m + k for k in large]
        + base[-1:]
    )
    s = semigroup_from_generators(gens)
    hi = s.frobenius + 2 * s.multiplicity
    members = brute_members(gens, hi)
    assert list(s.minimal_generators) == brute_minimal_generators(members, hi)
    assert {z for z in range(hi + 1) if z in s} == members
    assert s.invariants().to_json_dict() == brute_invariants(gens)


def test_two_generators_reach_the_closure_bound():
    """Two coprime generators a < b have Frobenius number ab - a - b
    (Sylvester), the equality case of the bound that cuts the closure:
    the members up to frobenius + 2a match the oracle, so a cut one
    short of frobenius + multiplicity would fail here."""
    for b in range(3, 41):
        for a in range(2, b):
            if math.gcd(a, b) != 1:
                continue
            s = semigroup_from_generators([b, a])
            assert s.frobenius == a * b - a - b, (a, b)
            assert s.genus == (a - 1) * (b - 1) // 2, (a, b)
            assert s.minimal_generators == (a, b)
            hi = s.frobenius + 2 * a
            assert {z for z in range(hi + 1) if z in s} == brute_members([a, b], hi), (a, b)


@pytest.mark.parametrize(
    "gens",
    [[2, 1001], [3, 1000], [97, 101], [5, 6, 10001], [40, 41, 1601], [31, 37, 41, 2000]],
)
def test_large_generators_match_oracles(gens):
    """Generators far apart, where the closure under each generator takes
    many shifts, and generators far past frobenius + multiplicity."""
    s = semigroup_from_generators(gens)
    hi = s.frobenius + 2 * s.multiplicity
    members = brute_members(gens, hi)
    assert list(s.minimal_generators) == brute_minimal_generators(members, hi)
    assert {z for z in range(hi + 1) if z in s} == members


def test_two_generators_far_apart_closed_form():
    """<2, b> for odd b: the evens and every integer from b - 1 on, so
    frobenius b - 2 and genus (b - 1) / 2 (Sylvester).  The closure
    shifts by doubling, about 0.2 ms on a 2-core Xeon, where one shift
    per multiple of 2 took about 0.5 s."""
    start = time.process_time()
    s = semigroup_from_generators([2, 60001, 120002])
    elapsed = time.process_time() - start
    assert (s.minimal_generators, s.frobenius, s.genus) == ((2, 60001), 59999, 30000)
    assert s._mask == int("01" * 30000, 2)
    assert elapsed < 0.1


def test_membership_matches_brute_force():
    for gens in [(1,), (3, 5, 7), (2, 3), (4, 7, 9, 10), (6, 10, 15), (5, 6, 7)]:
        s = semigroup_from_generators(gens)
        hi = 3 * s.frobenius + 30
        brute = brute_members(gens, hi)
        for z in range(-3, hi):
            assert s.contains(z) == (z in brute), (gens, z)
        # members_below at every edge of the window, the naturals' empty one too
        for stop in (-3, 0, 1, s.frobenius, s.frobenius + 1, s.frobenius + 2, hi):
            assert s.members_below(stop) == sorted(z for z in brute if z < stop), (gens, stop)
        # and of the ideal generated by ``picked`` and its translates, least
        # element below 0 included: z is a member when z - g is in S for some g
        for picked in ((0,), (3,), (-4, 1), (-1, 2, 5)):
            e = ideal_from_generators(s, picked)
            for x in (-7, 0, 2):
                t = translate(e, x)
                want = [z for z in range(-12, hi - 10) if any(z - x - g in brute for g in picked)]
                for stop in (-20, t.min - 1, t.min, t.min + 1, 0, t.tail_start, hi - 10):
                    below = [z for z in want if z < stop]
                    assert t.members_below(stop) == below, (gens, picked, x, stop)


def test_construction_errors():
    with pytest.raises(EmptyGenerators):
        semigroup_from_generators([])
    with pytest.raises(EmptyGenerators):
        parse_semigroup(" , ")
    with pytest.raises(GcdNotOne):
        semigroup_from_generators([4, 6])
    with pytest.raises(ValueError):
        semigroup_from_generators([0, 3])
    with pytest.raises(ValueError):
        parse_semigroup("3,-5")
    with pytest.raises(ValueError):
        parse_semigroup("3,x")


def test_contains_examples():
    s = semigroup_from_generators([3, 5, 7])
    assert not s.contains(4)
    assert s.contains(100)
    assert not naturals().contains(-1)


def test_invariants_357():
    inv = semigroup_from_generators([3, 5, 7]).invariants()
    assert inv.pseudo_frobenius == (2, 4)
    assert inv.cm_type == 2
    assert not inv.symmetric
    assert inv.almost_symmetric
    assert inv.med
    assert inv.embedding_dimension == 3 == inv.multiplicity


def test_invariants_23():
    inv = semigroup_from_generators([2, 3]).invariants()
    assert inv.pseudo_frobenius == (1,)
    assert inv.cm_type == 1
    assert inv.symmetric
    assert inv.almost_symmetric


def test_invariants_567():
    inv = semigroup_from_generators([5, 6, 7]).invariants()
    assert inv.pseudo_frobenius == (8, 9)
    assert inv.cm_type == 2
    assert not inv.almost_symmetric  # gap 1 reflects to gap 8 but 1 is not PF


def test_invariants_naturals():
    inv = naturals().invariants()
    assert inv.pseudo_frobenius == (-1,)
    assert inv.cm_type == 1
    assert inv.symmetric and inv.almost_symmetric and inv.med


def test_relocate_on_every_small_window():
    """The least-element step on every window of width <= 10 agrees with
    the rule that treats an empty window apart, as the ray from w."""
    from nslab.semigroups import _relocate

    def two_branch(wmask, w):
        if wmask == 0:
            return w, (1 << w) - 1
        b0 = (wmask & -wmask).bit_length() - 1
        return b0, (wmask >> b0) | ((1 << w) - (1 << (w - b0)))

    for w in range(11):
        for wmask in range(1 << w):
            assert _relocate(wmask, w) == two_branch(wmask, w), (wmask, w)


def test_apery_examples():
    s = semigroup_from_generators([3, 5, 7])
    assert s.apery_set(3) == {0, 7, 5}
    assert semigroup_from_generators([2, 3]).apery_set(2) == {0, 3}
    assert naturals().apery_set(1) == {0}
    with pytest.raises(NotAMember):
        s.apery_set(4)
    with pytest.raises(NotAMember):
        s.apery_set(0)


def test_apery_shape_over_enumeration():
    for s in enumerate_up_to_genus(5):
        for n in s.minimal_generators:
            ap = s.apery_set(n)
            assert len(ap) == n
            assert max(ap) == s.frobenius + n


def test_enumeration_counts():
    # OEIS A007323: numerical semigroups by genus
    assert [len(enumerate_by_genus(g)) for g in range(16)] == [
        1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857,
    ]


def test_enumeration_matches_brute_force():
    for g in range(7):
        tree = {s.gap_set for s in enumerate_by_genus(g)}
        assert tree == brute_gap_sets(g), g
        assert len(enumerate_by_genus(g)) == len(tree)  # no duplicates


def test_enumeration_genus3():
    got = {s.minimal_generators for s in enumerate_by_genus(3)}
    assert got == {(2, 7), (3, 4), (3, 5, 7), (4, 5, 6, 7)}


def test_enumeration_deterministic_and_partitionable():
    a = enumerate_by_genus(6)
    b = enumerate_by_genus(6)
    assert a == b
    # subtree enumeration partitions the full level
    roots = enumerate_by_genus(2)
    merged = []
    for r in roots:
        merged.extend(enumerate_by_genus(6, root=r))
    assert sorted(str(s) for s in merged) == sorted(str(s) for s in a)
    assert len(merged) == len(a)


def _fields(semigroups):
    # == reads only the Frobenius number and the mask
    return [
        (s.minimal_generators, s.frobenius, s.multiplicity, s.genus, s._mask)
        for s in semigroups
    ]


def test_children_concatenate_to_next_level():
    for g in range(12):
        kids = [c for s in enumerate_by_genus(g) for c in s.children()]
        assert _fields(kids) == _fields(enumerate_by_genus(g + 1)), g


def test_enumeration_root_at_or_below_genus():
    r = semigroup_from_generators([3, 5, 7])
    assert r.genus == 3
    assert enumerate_by_genus(2, root=r) == []
    assert _fields(enumerate_by_genus(3, root=r)) == _fields([r])


def test_subtrees_of_genus_4_partition_genus_10_in_order():
    merged = [s for r in enumerate_by_genus(4) for s in enumerate_by_genus(10, root=r)]
    assert _fields(merged) == _fields(enumerate_by_genus(10))


def test_invariant_record_consistency():
    # type-1 equals symmetric equals the genus formula; MED type is e - 1
    for s in enumerate_up_to_genus(6):
        inv = s.invariants()
        assert inv.symmetric == (inv.cm_type == 1)
        assert inv.symmetric == (2 * inv.genus == inv.frobenius + 1)
        if inv.symmetric:
            assert inv.almost_symmetric
        assert inv.med == (inv.multiplicity == inv.embedding_dimension)
        if inv.med and inv.multiplicity >= 2:
            assert inv.cm_type == inv.multiplicity - 1
        # Nari: almost symmetry (Barucci and Froberg's K + M inside M, in
        # the oracle) is 2*genus = frobenius + type
        brute = brute_invariants(s.minimal_generators)
        assert brute["almost_symmetric"] == (
            2 * brute["genus"] == brute["frobenius"] + brute["cm_type"]
        ), str(s)


def test_parse_and_str_roundtrip():
    s = parse_semigroup("3, 5, 7")
    assert str(s) == "3,5,7"
    assert parse_semigroup(str(s)) == s


def test_children_sorted_by_removed_generator():
    s = semigroup_from_generators([2, 3])
    kids = s.children()
    assert [k.gap_set for k in kids] == [{1, 2}, {1, 3}]


def test_invariants_match_definitional_oracle():
    for s in enumerate_up_to_genus(10):
        assert s.invariants().to_json_dict() == brute_invariants(s.minimal_generators), str(s)


def _check_generators_by_brute_force(s):
    # every member up to hi, read from the window, never from the generators
    hi = 3 * (s.frobenius + s.multiplicity + 1)
    members = {z for z in range(hi + 1) if s.contains(z)}
    assert list(s.minimal_generators) == brute_minimal_generators(members, hi), str(s)
    assert brute_members(s.minimal_generators, hi) == members, str(s)


def test_tree_generators_match_brute_force():
    # every node of genus <= 12 is the root or a child of a node of genus
    # <= 11; each child is classified by the rule that gave its generators
    _check_generators_by_brute_force(naturals())
    branches = Counter()
    for g in range(12):
        for s in enumerate_by_genus(g):
            m = s.multiplicity
            for child in s.children():
                x = child.frobenius
                if x == m:
                    branches["ordinary"] += 1
                elif x + m in child.minimal_generators:
                    branches["x+m kept"] += 1
                else:
                    branches["x+m rejected"] += 1
                _check_generators_by_brute_force(child)
    assert branches["ordinary"] == 12
    assert branches["x+m kept"] > 0
    assert branches["x+m rejected"] > 0
    assert sum(branches.values()) == sum(len(enumerate_by_genus(g)) for g in range(1, 13))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_tree_order_and_bytes_pinned(capsys):
    listing = "\n".join(str(s) for s in enumerate_by_genus(14)) + "\n"
    assert _sha256(listing) == (
        "9ce6df67fb23b8512d9a490a9218d9fc295d2dd06458193ba977d952b91cb51c"
    )
    assert cli_main(["enumerate", "--genus", "14", "--filter", "almost"]) == 0
    assert _sha256(capsys.readouterr().out) == (
        "2b24517c2d394893aef726d92dfb9dbc21989f2e593660a828176249e81f3960"
    )
    records = json.dumps(
        [s.invariants().to_json_dict() for g in range(13) for s in enumerate_by_genus(g)],
        sort_keys=True,
    )
    assert _sha256(records) == (
        "39892654b0f9d77dd34feb750730df9e9343630d585e7cd18b3bd356d7a77cdf"
    )
