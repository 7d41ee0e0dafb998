"""Witness text of every check, pinned, and the Recorder that records it.

A verify run over the enumeration finds no violation, so the text of a
failing check shows only on a corrupted class table.  Each corruption
below rewrites one part of a fresh ``SemigroupContext`` (an entry list,
the row of K, a flag record, the conductor, the syzygies, or the
semigroup itself for the checks that read only it), the suites run on
it, and the JSON of all witnesses is pinned byte for byte.
"""

import hashlib
import json
import random

import nslab.suites as suites
from nslab import REGISTRY, NumericalSemigroup, SemigroupContext, format_ideal, translate
from nslab.semigroups import semigroup_from_generators
from nslab.suites import Recorder


def _rotate(pairs):
    return pairs[1:] + pairs[:1]


def _sums(ctx):
    unit, nat = ctx.pos(ctx.unit), ctx.pos(ctx.nat)
    ctx.sums[unit][nat] = unit
    ctx.sums[nat][nat] = unit


def _row_of_k(ctx):
    row = ctx.sums[ctx.pos(ctx.k)]
    row[:] = _rotate(row)


def _colons(ctx):
    unit, nat = ctx.pos(ctx.unit), ctx.pos(ctx.nat)
    ctx.colons[nat][nat] = (unit, 0)
    ctx.colons[nat][unit] = (unit, 0)


def _seeded_entries(ctx):
    n, rng = len(ctx.classes), random.Random(20261019)
    rows, cols = rng.sample(range(n), 6), rng.sample(range(n), 6)
    for i, j in zip(rows[:3], cols[:3]):
        ctx.sums[i][j] = (ctx.sums[i][j] + rng.randrange(1, n)) % n
    for i, j in zip(rows[3:], cols[3:]):
        ctx.colons[j][i] = ((ctx.colons[j][i][0] + rng.randrange(1, n)) % n, 0)


def _ring_duals(ctx):
    ctx.ring_dual_pairs = _rotate(ctx.ring_dual_pairs)


def _can_duals(ctx):
    ctx.can_dual_pairs = _rotate(ctx.can_dual_pairs)


def _traces(ctx):
    ctx.trace_pairs = [(t, off + 1) for t, off in ctx.trace_pairs]


def _stable_anns(ctx):
    ctx.stable_ann_pairs = _rotate(ctx.stable_ann_pairs)


def _reflexive(ctx):
    ctx.reflexive = [not r for r in ctx.reflexive]


def _dual_reflexive(ctx):
    ctx.dual_reflexive = [False] * len(ctx.classes)


def _all_reflexive(ctx):
    ctx.reflexive = ctx.dual_reflexive = [True] * len(ctx.classes)


def _blowups(ctx):
    ctx.blowups = [ctx.unit] * len(ctx.classes)


def _not_almost_symmetric(ctx):
    ctx.inv = type(ctx.inv)(
        **{**ctx.inv._fields(), "symmetric": not ctx.inv.symmetric, "almost_symmetric": False}
    )


def _reduction_number_0(ctx):
    ctx.classification = type(ctx.classification)(
        **{**ctx.classification._fields(), "canonical_reduction_number": 0}
    )


def _far_flung_reduction_number_7(ctx):
    ctx.classification = type(ctx.classification)(
        **{**ctx.classification._fields(), "canonical_reduction_number": 7, "far_flung_gorenstein": True}
    )


def _conductor(ctx):
    ctx.conductor = ctx.mset


def _shadow_and_closure(ctx):
    ctx.category_shadow = ctx.mset
    ctx.duality_closure = (False, ctx.classes[-1])


def _syzygies(ctx):
    ctx.syzygies = [
        (i, translate(j, 1), v) for (i, j, _), (_, _, v) in zip(ctx.syzygies, _rotate(ctx.syzygies))
    ]


def _semigroup(ctx):
    # <3,5,7> with 2 a member: 2 + 2 is a gap, the gap set {1, 4} is no
    # genus-3 gap set, and the Apery set of 2 ends below frobenius + 2
    s = ctx.s
    ctx.s = NumericalSemigroup((2,) + s.minimal_generators, s.frobenius, s.multiplicity, s.genus, 0b01101)


S357 = [3, 5, 7]
ALL = tuple(REGISTRY)
CORRUPTIONS = [
    (S357, _sums, ALL),
    (S357, _row_of_k, ALL),
    (S357, _colons, ALL),
    ([5, 7, 9, 11, 13], _seeded_entries, ALL),
    (S357, _ring_duals, ALL),
    (S357, _can_duals, ALL),
    (S357, _traces, ALL),
    (S357, _stable_anns, ALL),
    ([5, 7, 9, 11, 13], _stable_anns, ALL),
    (S357, _reflexive, ALL),
    (S357, _dual_reflexive, ALL),
    ([4, 5, 6, 7], _all_reflexive, ALL),
    (S357, _blowups, ALL),
    (S357, _not_almost_symmetric, ALL),
    (S357, _reduction_number_0, ALL),
    (S357, _far_flung_reduction_number_7, ALL),
    (S357, _conductor, ALL),
    (S357, _shadow_and_closure, ALL),
    ([4, 7, 9, 10], _syzygies, ALL),
    # the other suites would combine ideals over two semigroups
    (S357, _semigroup, ("semigroupFacts",)),
]


def test_corrupted_contexts_give_pinned_witnesses(monkeypatch):
    # the tree walk is right; only a wrong one fails its check
    monkeypatch.setattr(suites, "_tree_gap_sets", lambda genus: frozenset())
    found = []
    for gens, corrupt, names in CORRUPTIONS:
        ctx = SemigroupContext(semigroup_from_generators(gens))
        corrupt(ctx)
        rec = Recorder(semigroup=str(ctx.s))
        for name in names:
            REGISTRY[name](ctx, rec)
        found.append(
            {
                "corruption": corrupt.__name__,
                "violations": [w.to_json_dict() for w in rec.violations],
                "informational": [w.to_json_dict() for w in rec.informational],
            }
        )
    witnesses = [w for f in found for w in f["violations"] + f["informational"]]
    # all 41 check ids of the 19 suites
    assert len({w["check"] for w in witnesses}) == 41
    assert len(witnesses) == 320
    blob = json.dumps(found, sort_keys=True, ensure_ascii=False).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == (
        "5639435e847d9d75d8b0531729549d87a604d9fdaab938da0253cdab41afc139"
    )


class _Unformattable:
    def __format__(self, spec):
        raise AssertionError("a passing check formatted its details")


def test_recorder_fills_the_template_only_on_failure():
    ctx = SemigroupContext(semigroup_from_generators(S357))
    e, f = ctx.classes[1], ctx.classes[2]
    rec = Recorder(semigroup="3,5,7")
    rec.check(True, "demo:pass", (e,), "E={}", _Unformattable())
    assert (rec.checks, rec.violations) == (1, [])

    rec.check(False, "demo:fail", (e, f), "E={}; F-E={}; n={}", e, f, 3)
    (w,) = rec.violations
    assert w.details == "E={}; F-E={}; n={}".format(e, f, 3)
    assert w.details == f"E={format_ideal(e)}; F-E={format_ideal(f)}; n=3"
    assert w.ideals == (format_ideal(e), format_ideal(f))

    # ideal text holds braces: with no args the template is the text
    rec.check(False, "demo:verbatim", (), "{0,2}∪[5,∞)")
    assert rec.violations[-1].details == "{0,2}∪[5,∞)"

    # a bulk check counts itself: fail records without counting
    rec.fail("demo:bulk", (e,), "G in E-F is {} but G+F in E is {}", True, False)
    assert rec.checks == 3 and len(rec.violations) == 3
    assert rec.violations[-1].details == "G in E-F is True but G+F in E is False"

    rec.info("demo:info", (f,), "closure is {}", True)
    assert rec.checks == 4 and rec.informational[-1].details == "closure is True"
