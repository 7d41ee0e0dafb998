"""Per-semigroup verification suites.

Each suite owns one family of checks, so a failure is attributable to a
single statement.  A suite is a function taking a :class:`SemigroupContext`
(the per-semigroup class table, defined in :mod:`nslab.annihilators`) and a
:class:`Recorder`; it records violations, informational findings and the
number of checks executed.  The registry order is fixed and the iteration
inside every suite is deterministic, so reports are reproducible byte for
byte.

Informational findings are reserved for directions the underlying theory
only predicts over infinite residue fields (the MED converse); they never
fail a run.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .annihilators import SemigroupContext, stable_annihilator
from .semigroups import _Record, _bit_indices, _membership, _or_shifts, enumerate_by_genus
from .ideals import (
    difference,
    format_ideal,
    is_subset,
    is_translate,
    ring_dual,
    trace_ideal,
    translate,
)


class Witness(_Record):
    """A replayable record of one failed or informational check."""

    __slots__ = ("semigroup", "ideals", "check", "details")


class Recorder:
    """Counts the checks of one semigroup and records the failed ones.

    ``details`` is a ``str.format`` template that ``args`` fill only when
    a witness is recorded, so a passing check formats nothing; a template
    with no ``args`` is the text as it stands, braces of ideal text
    included.  An ideal fills a field as ``format_ideal`` writes it."""

    __slots__ = ("semigroup", "violations", "informational", "checks")

    def __init__(self, semigroup: str) -> None:
        self.semigroup = semigroup
        self.violations: list[Witness] = []
        self.informational: list[Witness] = []
        self.checks = 0

    def check(self, ok: bool, check_id: str, ideals=(), details="", *args) -> None:
        self.checks += 1
        if not ok:
            self.fail(check_id, ideals, details, *args)

    def fail(self, check_id: str, ideals=(), details="", *args) -> None:
        """Record a violation of a check that the caller counts itself."""
        self.violations.append(self._witness(check_id, ideals, details, args))

    def info(self, check_id: str, ideals=(), details="", *args) -> None:
        self.checks += 1
        self.informational.append(self._witness(check_id, ideals, details, args))

    def _witness(self, check_id: str, ideals, details: str, args: tuple) -> Witness:
        return Witness(
            semigroup=self.semigroup,
            ideals=tuple(map(format_ideal, ideals)),
            check=check_id,
            details=details.format(*args) if args else details,
        )


# --------------------------------------------------------------------------
# semigroup-level facts


@lru_cache(maxsize=32)
def _brute_force_gap_sets(genus: int) -> frozenset[frozenset[int]]:
    """Independent enumeration oracle: all valid gap sets of the given size,
    found by filtering subsets of {1..2g}."""
    if genus == 0:
        return frozenset([frozenset()])
    out = []
    universe = range(1, 2 * genus + 1)
    for combo in combinations(universe, genus):
        gaps = set(combo)
        top = max(gaps)
        ok = True
        for a in range(1, top):
            if a in gaps:
                continue
            for b in range(a, top - a + 1):
                if b not in gaps and (a + b) in gaps:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(gaps))
    return frozenset(out)


@lru_cache(maxsize=32)
def _tree_gap_sets(genus: int) -> frozenset[frozenset[int]]:
    return frozenset(s.gap_set for s in enumerate_by_genus(genus))


def suite_semigroup_facts(ctx: SemigroupContext, rec: Recorder) -> None:
    """Additive closure, the brute-force enumeration oracle, the symmetry
    reflection and the Apery set shape."""
    s = ctx.s
    bound = 2 * s.frobenius + 2
    members = s.members_below(bound + 1)
    # membership on [0, 2 * bound], read once by the reader ``contains`` uses
    closed = _membership(0, s._mask, s.frobenius + 1, 0, 2 * bound + 1)
    bad = next(((a, b) for a in members for b in members if not closed >> a + b & 1), ())
    rec.check(not bad, "semigroupFacts:additive-closure", (), "{} + {} not a member", *bad)

    if s.genus <= 6:
        brute = _brute_force_gap_sets(s.genus)
        gaps = s.gap_set
        rec.check(
            gaps in brute,
            "semigroupFacts:gapset-in-bruteforce",
            (),
            "gap set {} missing from the oracle list",
            sorted(gaps),
        )
        rec.check(
            _tree_gap_sets(s.genus) == brute,
            "semigroupFacts:tree-matches-bruteforce",
            (),
            "tree and brute-force enumerations differ at genus {}",
            s.genus,
        )

    reflected = all(
        s.contains(z) != s.contains(s.frobenius - z)
        for z in range(-1, s.frobenius + 2)
    )
    rec.check(
        ctx.inv.symmetric == reflected,
        "semigroupFacts:symmetry-reflection",
        (),
        "symmetric flag {}, reflection test {}",
        ctx.inv.symmetric,
        reflected,
    )

    for n in s.minimal_generators:
        ap = s.apery_set(n)
        rec.check(
            len(ap) == n and max(ap) == s.frobenius + n,
            "semigroupFacts:apery-shape",
            (),
            "n={} apery={}",
            n,
            sorted(ap),
        )


# --------------------------------------------------------------------------
# ideal-calculus facts


def _up_sets(covers: list[list[int]]) -> list[int]:
    """up(F) = {E : F inside E} as a bitset over class positions, for
    each class F: one reverse pass that ORs each class's up-set into
    those of its lower covers, the mirror of the ``sub`` pass of
    ``suite_colon_adjunction``.  A cover comes before its class, so a
    class's up-set is complete when the pass reaches it."""
    ups = [1 << ei for ei in range(len(covers))]
    for ei in reversed(range(len(covers))):
        for c in covers[ei]:
            ups[c] |= ups[ei]
    return ups


def suite_colon_adjunction(ctx: SemigroupContext, rec: Recorder) -> None:
    """G inside E - F exactly when G + F inside E, over all class triples.

    For each F, the two sides are lists over E of bitsets over the
    positions of G, read from column F of the colon table (the colons
    E - F over all E) and row F of the sum table.  Every normalized
    G contains 0, so G sits inside E - F only when that colon's least
    element is 0 as well, and then the colon side is ``sub[k]``, the
    classes inside the colon's class k.  The sum side {G : F + G inside E}
    is the union of pre_F[H] = {G : F + G = H} over the classes H inside
    E, built on the lower covers of the class poset, ``ctx.covers``, read
    from the minimal generators: E \\ {x} is a class exactly when x is a
    nonzero minimal generator of E, and every class strictly inside E
    lies inside such a cover (``SemigroupContext.covers`` proves both).
    So the sum side of E is pre_F[E] ORed with those of its covers,
    and ``sub[E]`` is E's own bit ORed with theirs.  A cover has one
    member fewer, so it comes first in the class list, which is sorted by
    popcount, and one forward pass per F builds the list.  The mismatching
    G are the witnesses, sorted back from F-major order to ascending
    (E, F, G).

    On correct tables both sides vanish off up(F), the classes that
    contain F (the poset of Bonzio and García-Sánchez): F + G contains F,
    as 0 is in G, and E - F holds 0 exactly when F lies inside E.  A class
    inside one outside up(F) is outside up(F) too.  So for each F the
    forward pass first runs on up(F) alone (``_up_sets``), and tests on
    the tables that this is enough: column F has as many least-element-0
    colons as up(F) has classes, each colon at up(F) has least element 0
    and a colon side equal to the sum side, and the preimage bitsets over
    up(F) hold all n classes G.  Then both sides are equal everywhere.
    An F that fails any of these takes the full pass over every E, which
    names the witnesses, so they and their order do not depend on the
    shortcut.
    """
    classes, covers = ctx.classes, ctx.covers
    nc = len(classes)

    def down(sets: list[int]) -> list[int]:
        """OR into each class's bitset those of the classes inside it."""
        for ei, below in enumerate(covers):
            acc = sets[ei]
            for c in below:
                acc |= sets[c]
            sets[ei] = acc
        return sets

    sub = down([1 << ei for ei in range(nc)])
    ups = _up_sets(covers)
    mismatches = []
    for fi, (sums_row, column) in enumerate(zip(ctx.sums, ctx.colons)):
        pre = [0] * nc
        for gi, hi in enumerate(sums_row):
            pre[hi] |= 1 << gi
        up = _bit_indices(ups[fi])
        if [off for _, off in column].count(0) == len(up):
            # the forward pass on up(F) alone; ``images`` counts the G
            # whose image F + G lies in up(F)
            images = 0
            for ei in up:
                k, off = column[ei]
                acc = pre[ei]
                images += acc.bit_count()
                for c in covers[ei]:
                    acc |= pre[c]
                pre[ei] = acc
                if off or sub[k] != acc:
                    break
            else:
                if images == nc:
                    continue
        # the full pass; a bitset that the pass on up(F) closed already
        # stays as it is, since it lies inside its class's closure
        in_e = down(pre)
        in_colon = [sub[k] if off == 0 else 0 for k, off in column]
        if in_colon != in_e:
            mismatches += [
                (ei, fi, gi, bool(want >> gi & 1), bool(got >> gi & 1))
                for ei, (want, got) in enumerate(zip(in_colon, in_e))
                for gi in _bit_indices(want ^ got)
            ]
    for ei, fi, gi, want, got in sorted(mismatches):
        rec.fail(
            "colonAdjunction:biconditional",
            (classes[ei], classes[fi], classes[gi]),
            "G in E-F is {} but G+F in E is {}",
            want,
            got,
        )
    rec.checks += nc * nc * nc


def suite_biduality(ctx: SemigroupContext, rec: Recorder) -> None:
    """Canonical biduality up to translation; the ring bidual contains E
    and equals it exactly on reflexives."""
    for i, e in enumerate(ctx.classes):
        ddd = difference(ctx.k, ctx.can_duals[i])
        rec.check(
            is_translate(e, ddd) is not None,
            "biduality:canonical-involution",
            (e,),
            "E={}; DDE={}",
            e,
            ddd,
        )
        bidual = ring_dual(ctx.ring_duals[i])
        rec.check(
            is_subset(e, bidual),
            "biduality:ring-bidual-contains",
            (e,),
            "E={}; bidual={}",
            e,
            bidual,
        )
        rec.check(
            (bidual == e) == ctx.reflexive[i],
            "biduality:reflexive-iff-equal",
            (e,),
            "E={}; bidual={}",
            e,
            bidual,
        )


def suite_syzygy_exactness(ctx: SemigroupContext, rec: Recorder) -> None:
    """Per-degree dimension count of 0 -> J(-b) -> S(-a) + S(-b) -> E -> 0
    for every 2-generated class: the independent syzygy oracle.  J is E's
    ring dual S - E (``SemigroupContext.syzygies``): E is S u (d + S) with
    d = b - a, as E is normalized, so S - E = {z in S : z + d in S}, the
    kernel, and the count checks the dual against the sequence.

    The count is read on four degree masks over [min E - 1, a + b + 2F + 3),
    the membership masks of S + a, S + b, E and J + b: bit d - (min E - 1)
    of ``sa``, ``sb``, ``em`` and ``jb`` says whether d - a is in S, d - b
    is in S, d is in E and d - b is in J.  Two bit sums x + y and u + v
    agree exactly when x ^ y = u ^ v and x & y = u & v, so the lowest bit
    of (sa ^ sb ^ em ^ jb) | ((sa & sb) ^ (em & jb)) is the first degree
    where the counts differ, the witness (d, lhs, rhs).
    """
    s = ctx.s
    smask, width = s._mask, ctx.width
    for i, j, _ in ctx.syzygies:
        e = ctx.classes[i]
        a, b = ctx.mingens[i]
        lo, hi = e.min - 1, a + b + 2 * s.frobenius + 3
        sa = _membership(a, smask, width, lo, hi)
        sb = _membership(b, smask, width, lo, hi)
        em = _membership(e.min, e._mask, width, lo, hi)
        jb = _membership(b + j.min, j._mask, width, lo, hi)
        diff = (sa ^ sb ^ em ^ jb) | ((sa & sb) ^ (em & jb))
        bad = ()
        if diff:
            k = (diff & -diff).bit_length() - 1
            bad = (lo + k, (sa >> k & 1) + (sb >> k & 1), (em >> k & 1) + (jb >> k & 1))
        rec.check(not bad, "syzygyExactness:per-degree", (e, j), "degree {}: {} != {}", *bad)


def suite_trace_facts(ctx: SemigroupContext, rec: Recorder) -> None:
    """Translation invariance of the trace, trace inside the ring, and
    monotonicity under generation by translates.

    The monotonicity check compares absolute trace masks on [0, 2w], w =
    frobenius + 1.  The trace of a normalized E contains E + (S - N), the
    conductor, so every integer from w on is in every trace and the masks
    decide containment exactly.  It tests each distinct class of a sums
    row once, and walks the row in order only when one of them fails, so
    that the witnesses come in row order.
    """
    width = ctx.width
    classes, traces = ctx.classes, ctx.traces
    for e, tr in zip(classes, traces):
        shifted_ok = all(
            trace_ideal(translate(e, x)) == tr for x in (-width - 1, -1, 1, width + 1)
        )
        rec.check(shifted_ok, "traceFacts:translation-invariant", (e,), "tr={}", tr)
        rec.check(is_subset(tr, ctx.unit), "traceFacts:inside-ring", (e,), "tr={}", tr)
    # a trace with members below 0 fails inside-ring; its mask drops them
    nbits = 2 * width + 1
    absolute = [_membership(tr.min, tr._mask, width, 0, nbits) for tr in traces]
    for ei, sums_row in enumerate(ctx.sums):
        outside_e = ~absolute[ei]
        if any(absolute[eh] & outside_e for eh in set(sums_row)):
            for hi, eh in enumerate(sums_row):
                if absolute[eh] & outside_e:
                    rec.fail(
                        "traceFacts:generation-monotone",
                        (classes[ei], classes[hi]),
                        "tr(E+H)={}; tr(E)={}",
                        traces[eh],
                        traces[ei],
                    )
    rec.checks += len(classes) ** 2


# --------------------------------------------------------------------------
# annihilator facts


def suite_conductor_stable_ann(ctx: SemigroupContext, rec: Recorder) -> None:
    """The stable annihilator of the normalization equals the conductor."""
    got = stable_annihilator(ctx.nat)
    rec.check(
        got == ctx.conductor,
        "conductorStableAnn:normalization",
        (ctx.nat,),
        "ann={}; conductor={}",
        got,
        ctx.conductor,
    )


def suite_wang_lower_bound(ctx: SemigroupContext, rec: Recorder) -> None:
    """The conductor annihilates stably: it sits inside every stable
    annihilator."""
    for e, got in zip(ctx.classes, ctx.stable_anns):
        rec.check(
            is_subset(ctx.conductor, got),
            "wangLowerBound:conductor-subset",
            (e,),
            "conductor={}; ann={}",
            ctx.conductor,
            got,
        )


def suite_lemma_chain(ctx: SemigroupContext, rec: Recorder) -> None:
    """ann(D Omega E) inside ann(E) inside ann(Omega E) for 2-generated
    classes."""
    anns = ctx.stable_anns
    for i, _, w in ctx.syzygies:
        e, omega_e = ctx.classes[i], ctx.classes[w]
        left = anns[ctx.can_dual_pairs[w][0]]
        mid = anns[i]
        right = anns[w]
        rec.check(
            is_subset(left, mid) and is_subset(mid, right),
            "lemmaChain:inclusions",
            (e, omega_e),
            "ann(DW)={}; ann(E)={}; ann(W)={}",
            left,
            mid,
            right,
        )


def suite_prop_syzygy_stability(ctx: SemigroupContext, rec: Recorder) -> None:
    """If the canonical dual of the syzygy is reflexive, the annihilators of
    E and its syzygy agree."""
    anns, pairs = ctx.stable_anns, ctx.stable_ann_pairs
    for i, _, w in ctx.syzygies:
        if not ctx.dual_reflexive[w]:
            continue
        rec.check(
            pairs[i] == pairs[w],
            "propSyzygyStability:equal-annihilators",
            (ctx.classes[i], ctx.classes[w]),
            "ann(E)={}; ann(W)={}",
            anns[i],
            anns[w],
        )


def suite_cocohom_duality(ctx: SemigroupContext, rec: Recorder) -> None:
    """If E and its canonical dual are both reflexive their stable
    annihilators agree."""
    anns, pairs = ctx.stable_anns, ctx.stable_ann_pairs
    for i, (di, _) in enumerate(ctx.can_dual_pairs):
        if not (ctx.reflexive[i] and ctx.reflexive[di]):
            continue
        rec.check(
            pairs[i] == pairs[di],
            "cocohomDuality:equal-annihilators",
            (ctx.classes[i], ctx.can_duals[i]),
            "ann(E)={}; ann(DE)={}",
            anns[i],
            anns[di],
        )


def suite_trace_containment(ctx: SemigroupContext, rec: Recorder) -> None:
    """A reflexive canonical dual forces the trace inside the canonical
    trace."""
    tr_k = ctx.traces[ctx.pos(ctx.k)]
    for e, tr, dual_refl in zip(ctx.classes, ctx.traces, ctx.dual_reflexive):
        if not dual_refl:
            continue
        rec.check(
            is_subset(tr, tr_k),
            "traceContainment:inside-canonical-trace",
            (e,),
            "tr(E)={}; tr(K)={}",
            tr,
            tr_k,
        )


def _trace_biconditional(ctx: SemigroupContext, rec: Recorder, check_id: str) -> None:
    """The canonical dual of each reflexive class is reflexive exactly
    when its trace sits inside the canonical trace."""
    tr_k = ctx.traces[ctx.pos(ctx.k)]
    for e, refl, tr, dual_refl in zip(
        ctx.classes, ctx.reflexive, ctx.traces, ctx.dual_reflexive
    ):
        if not refl:
            continue
        tr_in = is_subset(tr, tr_k)
        rec.check(
            dual_refl == tr_in,
            check_id,
            (e,),
            "dual reflexive {}, trace containment {}; tr(E)={}; tr(K)={}",
            dual_refl,
            tr_in,
            tr,
            tr_k,
        )


def suite_trace_criterion(ctx: SemigroupContext, rec: Recorder) -> None:
    """For canonical reduction number at most 2: the canonical dual of a
    reflexive class is reflexive exactly when its trace sits inside the
    canonical trace.  Skips semigroups with larger reduction number."""
    if ctx.canred <= 2:
        _trace_biconditional(ctx, rec, "traceCriterion:biconditional")


# --------------------------------------------------------------------------
# Ulrich / blowup / reduction facts


def _modules(ctx: SemigroupContext, t: int) -> int:
    """Bitset of the classes E with T + E == E, for the class T at
    position t: the sum rule by T's generators on every lane of the
    packed masks at once, each lane compared with E's mask.  It does not
    read the sum table, so ``suite_ulrich_facts`` cross-checks the table
    with it."""
    lanes = ctx._lanes(_or_shifts(ctx._packed, ctx.mingens[t]))
    return sum(1 << ei for ei, (lane, m) in enumerate(zip(lanes, ctx.masks)) if lane == m)


def suite_ulrich_facts(ctx: SemigroupContext, rec: Recorder) -> None:
    """Ulrich characterizations: via the blowup, via the two duals, the
    Hom-stability, the canonical powers, the normalization, and the
    blowup-conductor versus trace comparison.

    E is I-Ulrich when I + E is a translate of E; on normalized classes
    that is ``sums[i][e] == e``.  For each I the I-Ulrich classes form a
    bitset.  The blowup characterization compares it with the classes
    that are modules over the blowup T of I, ``_modules``: one lane pass
    of the sum rule by T's generators over the packed class masks, once
    per distinct T, not read from the sum table, so that it cross-checks
    the table.  Hom-stability compares it with the classes of the colons
    F - E over all F.  The canonical powers nK are walked along the row
    of K from S = 0K.  Two ideals are translates exactly when they share
    a class, so the dual and trace comparisons read class positions from
    the pair lists.
    """
    classes = ctx.classes
    sums, colons = ctx.sums, ctx.colons
    sums_k = sums[ctx.pos(ctx.k)]
    ring_pairs, can_pairs, trace_pairs = ctx.ring_dual_pairs, ctx.can_dual_pairs, ctx.trace_pairs
    for i, e in enumerate(classes):
        ulrich_k = sums_k[i] == i
        duals_match = can_pairs[i][0] == ring_pairs[i][0]
        rec.check(
            ulrich_k == duals_match,
            "ulrichFacts:dual-characterization",
            (e,),
            "K-Ulrich {}, ring dual matches canonical dual {}",
            ulrich_k,
            duals_match,
        )
        if ulrich_k:
            rec.check(
                ctx.dual_reflexive[i], "ulrichFacts:dual-reflexive", (e,), "DE={}", ctx.can_duals[i]
            )

        bid = ring_dual(ctx.blowups[i])
        tr = ctx.traces[i]
        equality = bid == tr
        translate_dual = ring_pairs[i][0] == trace_pairs[i][0]
        rec.check(is_subset(bid, tr), "ulrichFacts:b-inside-trace", (e,), "b={}; tr={}", bid, tr)
        rec.check(
            equality == translate_dual,
            "ulrichFacts:b-equality-iff-dual-trace",
            (e,),
            "b==tr is {}, tr translate of dual is {}",
            equality,
            translate_dual,
        )

    modules = {}
    # colon_cols[e]: bitset of the classes of F - E over all F, read from
    # column E of the colon table
    colon_cols = [sum(1 << hi for hi in {hi for hi, _ in col}) for col in colons]
    for ii, (i, bl, sums_i) in enumerate(zip(classes, ctx.blowups, sums)):
        ulrich = sum(1 << ei for ei, hi in enumerate(sums_i) if hi == ei)
        t = ctx.pos(bl)
        if t not in modules:
            modules[t] = _modules(ctx, t)
        for ei in _bit_indices(ulrich ^ modules[t]):
            u = bool(ulrich >> ei & 1)
            rec.fail(
                "ulrichFacts:blowup-characterization",
                (classes[ei], i),
                "I-Ulrich {}, module over blowup {}",
                u,
                not u,
            )
        rec.checks += len(classes)
        if ii == 0:
            continue  # every module is S-Ulrich; Hom-stability says nothing
        # F - E is I-Ulrich for every F exactly when E's colon column lies
        # inside the I-Ulrich classes; the first F that is not is the witness
        for ei in _bit_indices(ulrich):
            rec.checks += 1
            if colon_cols[ei] & ~ulrich == 0:
                continue
            fi, (hi, hmin) = next((f, c) for f, c in enumerate(colons[ei]) if not ulrich >> c[0] & 1)
            f, h = classes[fi], translate(classes[hi], hmin)
            rec.fail("ulrichFacts:hom-stability", (classes[ei], i, f, h), "F={}; F-E={}", f, h)

    canred = ctx.canred
    top = max(ctx.s.multiplicity - 1, canred)
    p = 0
    for n in range(top + 2):
        if n >= canred:
            rec.check(sums_k[p] == p, "ulrichFacts:canonical-powers", (classes[p],), "n={}", n)
        p = sums_k[p]

    nat = len(classes) - 1
    rec.check(sums_k[nat] == nat, "ulrichFacts:normalization-is-ulrich", (classes[nat],))


def suite_canred_facts(ctx: SemigroupContext, rec: Recorder) -> None:
    """Reduction number facts: Gorenstein at most 1, the trace/dual
    criterion for at most 2, the almost-Gorenstein bound, and the
    multiplicity bound."""
    canred = ctx.canred
    inv = ctx.inv
    rec.check(
        inv.symmetric == (canred <= 1),
        "canredFacts:gorenstein-iff-le-1",
        (),
        "symmetric {}, can.red {}",
        inv.symmetric,
        canred,
    )
    kpos = ctx.pos(ctx.k)
    tr_k = ctx.traces[kpos]
    dual_k = ctx.ring_duals[kpos]
    rec.check(
        (canred <= 2) == (ctx.ring_dual_pairs[kpos][0] == ctx.trace_pairs[kpos][0]),
        "canredFacts:le-2-iff-trace-is-dual",
        (ctx.k,),
        "tr(K)={}; K*={}; can.red {}",
        tr_k,
        dual_k,
        canred,
    )
    if inv.almost_symmetric:
        rec.check(canred <= 2, "canredFacts:almost-implies-le-2", (), "can.red {}", canred)
    rec.check(
        canred <= max(ctx.s.multiplicity - 1, 0),
        "canredFacts:multiplicity-bound",
        (),
        "can.red {}, multiplicity {}",
        canred,
        ctx.s.multiplicity,
    )


def suite_ag_closure(ctx: SemigroupContext, rec: Recorder) -> None:
    """Almost symmetric semigroups: every non-principal reflexive class is
    Ulrich for the canonical ideal and the duality-closure shadow holds."""
    if not ctx.inv.almost_symmetric:
        return
    sums_k = ctx.sum_row(ctx.pos(ctx.k))
    for i, (e, refl) in enumerate(zip(ctx.classes, ctx.reflexive)):
        if i == 0 or not refl:
            continue
        rec.check(sums_k[i] == i, "agClosure:reflexive-is-omega-ulrich", (e,))
    closure, witness = ctx.duality_closure
    rec.check(
        closure,
        "agClosure:duality-closure",
        () if witness is None else (witness,),
        "closure fails at the listed class",
    )


def suite_theorem_b(ctx: SemigroupContext, rec: Recorder) -> None:
    """Almost symmetric semigroups: the category-wide annihilator shadow
    equals the conductor."""
    if not ctx.inv.almost_symmetric:
        return
    got = ctx.category_shadow
    rec.check(
        got == ctx.conductor,
        "theoremB:category-annihilator-is-conductor",
        (),
        "category={}; conductor={}",
        got,
        ctx.conductor,
    )


def suite_med_shadow(ctx: SemigroupContext, rec: Recorder) -> None:
    """Singular MED semigroups: almost symmetry forces the stable
    annihilator of the dual of the maximal-ideal class to be the maximal
    ideal, plus duality closure.  The converse only holds over infinite
    residue fields, so unexpected converse indicators are informational."""
    if not ctx.inv.med or ctx.s.is_naturals:
        return
    m = ctx.pos(ctx.mset)
    m_class = ctx.classes[m]
    ann_dm = ctx.stable_anns[ctx.can_dual_pairs[m][0]]
    indicator = ann_dm == ctx.mset
    closure, _ = ctx.duality_closure
    if ctx.inv.almost_symmetric:
        rec.check(
            indicator,
            "medShadow:ann-dual-maximal",
            (m_class,),
            "ann(D m)={}; m={}",
            ann_dm,
            ctx.mset,
        )
        rec.check(closure, "medShadow:duality-closure")
    elif indicator or closure:
        rec.info(
            "medShadow:converse-indicator",
            (m_class,),
            "not almost symmetric yet ann(Dm)=m is {}, closure is {}",
            indicator,
            closure,
        )


def suite_far_flung(ctx: SemigroupContext, rec: Recorder) -> None:
    """Far-flung semigroups (canonical trace equals the conductor): the
    only non-principal reflexive class with reflexive dual is the
    normalization."""
    if not ctx.classification.far_flung_gorenstein:
        return
    for i, (e, refl, dual_refl) in enumerate(zip(ctx.classes, ctx.reflexive, ctx.dual_reflexive)):
        if i == 0 or not refl or not dual_refl:
            continue
        rec.check(
            i == len(ctx.masks) - 1,
            "farFlung:reflexive-pair-is-normalization",
            (e,),
            "E={}; normalization={}",
            e,
            ctx.nat,
        )


def suite_multiplicity3(ctx: SemigroupContext, rec: Recorder) -> None:
    """Multiplicity three forces reduction number at most 2 and hence the
    trace criterion biconditional."""
    if ctx.s.multiplicity != 3:
        return
    rec.check(ctx.canred <= 2, "multiplicity3:canred-le-2", (), "can.red {}", ctx.canred)
    _trace_biconditional(ctx, rec, "multiplicity3:trace-biconditional")


REGISTRY: dict[str, object] = {
    "semigroupFacts": suite_semigroup_facts,
    "colonAdjunction": suite_colon_adjunction,
    "biduality": suite_biduality,
    "syzygyExactness": suite_syzygy_exactness,
    "traceFacts": suite_trace_facts,
    "conductorStableAnn": suite_conductor_stable_ann,
    "wangLowerBound": suite_wang_lower_bound,
    "lemmaChain": suite_lemma_chain,
    "propSyzygyStability": suite_prop_syzygy_stability,
    "cocohomDuality": suite_cocohom_duality,
    "traceContainment": suite_trace_containment,
    "traceCriterion": suite_trace_criterion,
    "ulrichFacts": suite_ulrich_facts,
    "canredFacts": suite_canred_facts,
    "agClosure": suite_ag_closure,
    "theoremB": suite_theorem_b,
    "medShadow": suite_med_shadow,
    "farFlung": suite_far_flung,
    "multiplicity3": suite_multiplicity3,
}
