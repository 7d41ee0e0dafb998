"""Stable annihilators of rank-one modules and certified output for the
cohomology annihilator of the semigroup ring.

The stable annihilator of a module E is the annihilator of its endomorphisms
modulo those factoring through a free module.  In monomial form every
endomorphism is multiplication by an element of E - E and every map through
a free summand lands in E + (S - E), so

    stable_annihilator(E) = {z : z + (E - E) subset E + (S - E)}

which is itself an ideal of S.  Intersecting over all monomial classes gives
the category-wide shadow; it always lands between the conductor (a verified
lower bound) and the stable annihilator of the normalization (which equals
the conductor), so the computed shadow is the conductor whenever the lower
bound holds.  The certificate records which statements justify reporting an
exact value for the cohomology annihilator rather than an interval.

:class:`SemigroupContext` is the class table of one semigroup: its ideal
classes, listed once as the window masks that the class walk
``ideals._class_masks`` builds, and every per-class fact (duals, traces,
stable annihilators, minimal generators, sum and colon tables) read by
class position.  An ideal in the table is a pair (class position, least
element), the translate of that class to that least element.  All of
them except the blowups and the syzygies come from the class masks
through the mask kernel of ``semigroups`` (``_or_shifts``, the sum
rule; ``_and_shifts``, the colon rule; ``_relocate``, the least-element
step), with no object kernel call and no ``RelativeIdeal`` per class:
  * ``mingens``: the bits of each mask outside its shifts by the
    generators of S below w, the generator rule on every lane at once,
    each entered in the semigroup's generator memo, which the object
    kernel reads too;
  * ``covers``: the lower covers of each class in the inclusion order,
    the class minus one of its nonzero minimal generators, looked up in
    ``index``;
  * ``ring_dual_pairs`` and ``can_dual_pairs``: the colon rule on the
    window of S or of K, by each class's generators, relocated, through
    the one list rule ``_colon_pairs``;
  * ``trace_pairs``: the sum rule, the ring dual shifted up by each
    generator of the class;
  * ``stable_ann_pairs``: E - E by the colon rule on E's own window (a
    class, as it holds 0), then the colon rule on the trace's window by
    E - E's generators;
  * ``category_shadow``: the AND of the stable annihilators' absolute
    masks on [0, 2w), each read through ``_membership``;
  * ``sums`` and ``colons``: the two rules for every pair of classes,
    on every class at once, each class's mask in a lane of 64-bit words
    of one integer, ``_packed``, packed once per context and read back
    with one ``struct.unpack``;
  * ``modules(t)``: the classes E with T + E = E for the class T at t,
    one lane pass of the sum rule that does not read ``sums``.
Two maps read a window mask back.  ``index`` gives the position of a
class window, for ``sums``, ``trace_pairs``, ``covers`` and ``pos``,
whose windows are class windows already; a position read from it is
cheaper than one taken out of a pair.  ``_located`` gives the (class position, least
element) pair of any window, for ``colons``, the duals and the stable
annihilators alike: it holds each class window as (i, 0) and relocates
each other new window once.
The pair lists are entries of the n x n tables, computed one entry per
class without building them: ring dual i is entry pos(S) of column i of
``colons``, ``colons[i][pos(S)]``, canonical dual i its entry pos(K),
trace i is ``(sums[i][d], off)`` for ring dual ``(d, off)``, and stable
annihilator i is the colon of the trace's class by the class of E - E,
shifted by the trace's least element.  ``classes`` is the view of the
masks as ``RelativeIdeal``s, and ``ring_duals``, ``can_duals``,
``traces`` and ``stable_anns`` the views of the pair lists, each built
on first read, for the suites that call the object kernel on them or
write them into witness text; a suite that compares classes or
translates compares the pairs, and ``nslab ca`` and ``nslab ideals``
build no view.
``syzygies`` lists, for each class with two minimal generators, its
syzygy, which is its ring dual S - E built by the object kernel, and
that syzygy's class position.  The ring-level facts (the invariants,
K, M, the conductor, ``classification`` and ``canred``) are inherited
from ``rings.Ring``, so each is built once per context.  The
certificate, ``nslab ideals`` and every verification suite read the
table.
``category_annihilator`` and ``duality_closure_shadow`` walk the class list
directly and are kept as the reference the table is tested against.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator
from functools import cached_property, partial
from itertools import repeat

from .semigroups import (
    InternalError, NumericalSemigroup, _Record, _ones, _and_shifts, _generator_mask, _membership,
    _or_shifts, _relocate,
)
from .ideals import (
    RelativeIdeal,
    _class_masks,
    canonical_dual,
    difference,
    format_ideal,
    intersect,
    is_reflexive,
    is_subset,
    minimal_generators,
    ring_dual,
    trace_ideal,
    unit_ideal,
)
from .rings import Ring, blowup

STATUS_REGULAR = "Exact-Regular"
STATUS_GORENSTEIN = "Exact-Gorenstein"
STATUS_ALMOST_GORENSTEIN = "Exact-AlmostGorenstein"
STATUS_INTERVAL = "Interval"

TAG_THEOREM_B = "TheoremB"
TAG_WANG = "WangConductor"
TAG_CONDUCTOR_STABLE_ANN = "ConductorStableAnnihilator"
TAG_GORENSTEIN = "GorensteinEquality"
TAG_REGULAR = "RegularRing"
TAG_SINGULAR_UPPER = "SingularUpperBound"


class InconsistentCertificate(InternalError):
    """Two statements the certificate relies on disagree; indicates a bug."""


def stable_annihilator(e: RelativeIdeal) -> RelativeIdeal:
    """Annihilator of the stable endomorphisms of E, as an ideal of S.

    Principal E gives the whole ring: every endomorphism factors through
    the free module, so nothing is left to annihilate.
    """
    return difference(trace_ideal(e), difference(e, e))


def category_annihilator(classes: tuple[RelativeIdeal, ...]) -> RelativeIdeal:
    """Intersection of the stable annihilators over every monomial ideal
    class, as listed by enumerate_ideal_classes (S is ``classes[0]``).
    Reported as computed, never replaced by the expected value."""
    acc = classes[0]
    for cls in classes:
        acc = intersect(acc, stable_annihilator(cls))
    return acc


def duality_closure_shadow(
    classes: tuple[RelativeIdeal, ...],
) -> tuple[bool, RelativeIdeal | None]:
    """Whether the canonical dual of every non-principal reflexive class in
    ``classes`` is again reflexive.  On failure returns the first witness
    in enumeration order."""
    unit = classes[0]
    for cls in classes:
        if cls == unit:
            continue
        if not is_reflexive(cls):
            continue
        if not is_reflexive(canonical_dual(cls)):
            return False, cls
    return True, None


class _Located(dict):
    """Window mask on [0, w) -> (class position, least element) of the
    ideal it is.  It is built holding each class window ``masks[i]`` as
    (i, 0), so only a window without bit 0 is missing: ``_relocate`` moves
    it, once, to a class window, whose entry gives its class."""

    def __init__(self, masks: list[int], width: int):
        super().__init__((m, (i, 0)) for i, m in enumerate(masks))
        self.width = width

    def __missing__(self, window: int) -> tuple[int, int]:
        b0, mask = _relocate(window, self.width)
        self[window] = pair = (self[mask][0], b0)
        return pair


class SemigroupContext(Ring):
    """The class table of one semigroup.

    ``masks`` lists the normalized ideal classes once, as the class walk
    ``ideals._class_masks`` builds them, S first and the normalization
    last: each class's window mask (bit k: k is a member, for k <
    ``width`` = frobenius + 1; every integer from ``width`` on is a
    member).  Every other per-class fact is a list read by class
    position, built on first use from the lists before it.  An ideal in
    the table is a pair (class position, least element), as in
    ``colons``; class i is (i, 0).  ``sums[i][j]`` is classes[i] +
    classes[j]; ``colons`` is a list of columns, one per divisor, as the
    colon rule builds it: ``colons[j][i]`` is classes[i] - classes[j].
    ``index`` maps a window mask back to its class position.  Since a
    relative ideal stores its mask relative to its least element,
    ``pos(e)`` finds the class of any ideal, translated or not.  Only the
    translation-invariant lists (traces, reflexive, stable annihilators,
    blowups) may be read for an ideal that is not normalized.

    The minimal generators, the ``sums`` and ``colons`` tables and the
    pair lists of the duals, traces and stable annihilators are the table;
    they are computed from the masks alone, with no ``RelativeIdeal`` per
    entry.  ``classes`` is the view of ``masks``, the tuple that
    ``enumerate_ideal_classes`` gives, and ``ring_duals``, ``can_duals``,
    ``traces`` and ``stable_anns`` are views of the pair lists: each
    builds one ``RelativeIdeal`` per class on first read.  ``unit`` (S)
    and ``nat`` (the normalization) are ``classes[0]`` and
    ``classes[-1]``, read from that view, so a context holds each class
    object once.  The ring-level facts, ``inv``, ``mset`` (the maximal
    ideal), ``k`` (the canonical ideal), ``conductor``, ``classification``
    and ``canred``, are inherited from ``rings.Ring``, which builds each
    on first read, so ``nslab ideals``, which reads none of them, builds
    no ``RelativeIdeal`` at all.
    """

    def __init__(self, s: NumericalSemigroup):
        super().__init__(s)
        self.masks = _class_masks(s)
        self.index = {m: i for i, m in enumerate(self.masks)}
        self.width = s.frobenius + 1
        self.full = _ones(self.width)
        self._words = max(1, (2 * self.width + 63) // 64)
        self._located = _Located(self.masks, self.width)

    def pos(self, e: RelativeIdeal) -> int:
        return self.index[e._mask]

    def _ideals(self, pairs: Iterable[tuple[int, int]]) -> list[RelativeIdeal]:
        """The view of a pair list as relative ideals."""
        return [RelativeIdeal(self.s, off, self.masks[p]) for p, off in pairs]

    def _colon_pairs(self, dividends: Iterable[int], divisors: Iterable) -> Iterator[tuple[int, int]]:
        """d - F for each window mask d of a class (S, K or any other,
        least element 0) and the generator tuple of the class F beside
        it: the colon rule on d's window extended by its tail, the
        infinite ones of a negative int as in ``ideals._colon``, by F's
        generators, cut to the window and read through ``_located``;
        lazily, so that a caller may stop early."""
        located, full, tail = self._located, self.full, -1 << self.width
        return (located[_and_shifts(d | tail, gens) & full] for d, gens in zip(dividends, divisors))

    @cached_property
    def ring_dual_pairs(self) -> list[tuple[int, int]]:
        return list(self._colon_pairs(repeat(self.masks[0]), self.mingens))

    @cached_property
    def can_dual_pairs(self) -> list[tuple[int, int]]:
        return list(self._colon_pairs(repeat(self.k._mask), self.mingens))

    @cached_property
    def trace_pairs(self) -> list[tuple[int, int]]:
        """E + (S - E): the sum rule, the dual's mask shifted up by each
        generator of E; its least element is the dual's, as 0 is E's."""
        masks, index, full = self.masks, self.index, self.full
        return [
            (index[_or_shifts(masks[d], gens) & full], off)
            for gens, (d, off) in zip(self.mingens, self.ring_dual_pairs)
        ]

    @cached_property
    def reflexive(self) -> list[bool]:
        """The ring dual of x + F is -x + (S - F), so the bidual of a class
        is a translate of the ring dual of its ring dual's class."""
        duals = self.ring_dual_pairs
        return [duals[d][0] == i for i, (d, _) in enumerate(duals)]

    @cached_property
    def dual_reflexive(self) -> list[bool]:
        """Whether the canonical dual of each class is reflexive."""
        return [self.reflexive[d] for d, _ in self.can_dual_pairs]

    @cached_property
    def stable_ann_pairs(self) -> list[tuple[int, int]]:
        """tr(E) - (E - E).  E - E is the colon of E's own class by E; it
        holds 0, so it is a class.  The colon of the trace's class by it
        gives the stable annihilator relative to the trace's least
        element."""
        masks, mingens, traces = self.masks, self.mingens, self.trace_pairs
        endos = self._colon_pairs(masks, mingens)
        anns = self._colon_pairs([masks[t] for t, _ in traces], [mingens[p] for p, _ in endos])
        return [(p, off + b0) for (p, b0), (_, off) in zip(anns, traces)]

    # The views, each built on first read: ``classes`` a tuple, as
    # ``enumerate_ideal_classes`` gives it, S and the normalization its
    # ends, and the others lists
    classes = cached_property(lambda self: tuple(self._ideals((i, 0) for i in range(len(self.masks)))))
    unit = property(lambda self: self.classes[0])
    nat = property(lambda self: self.classes[-1])
    ring_duals = cached_property(lambda self: self._ideals(self.ring_dual_pairs))
    can_duals = cached_property(lambda self: self._ideals(self.can_dual_pairs))
    traces = cached_property(lambda self: self._ideals(self.trace_pairs))
    stable_anns = cached_property(lambda self: self._ideals(self.stable_ann_pairs))

    @cached_property
    def category_shadow(self) -> RelativeIdeal:
        """``category_annihilator(classes)`` read from the table.  Every
        stable annihilator lies in S and contains the conductor, so its
        least element is at most w and every integer from 2w on is a
        member: the intersection is the AND of the absolute masks on
        [0, 2w), each read through ``_membership``, moved to its least
        element and cut to the window."""
        w, masks = self.width, self.masks
        acc = _ones(2 * w)
        for p, off in self.stable_ann_pairs:
            acc &= _membership(off, masks[p], w, 0, 2 * w)
        b0, mask = _relocate(acc, 2 * w)
        return RelativeIdeal(self.s, b0, mask & self.full)

    @cached_property
    def duality_closure(self) -> tuple[bool, RelativeIdeal | None]:
        """``duality_closure_shadow(classes)`` read from the table: whether
        every non-principal reflexive class has a reflexive canonical dual,
        else the first class, in enumeration order, that does not.  It
        stops at that class, so canonical duals are computed only up to
        it."""
        reflexive, mingens = self.reflexive, self.mingens
        picked = [i for i in range(1, len(mingens)) if reflexive[i]]
        duals = self._colon_pairs(repeat(self.k._mask), map(mingens.__getitem__, picked))
        for i, (d, _) in zip(picked, duals):
            if not reflexive[d]:
                return False, self._ideals([(i, 0)])[0]
        return True, None

    @cached_property
    def blowups(self) -> list[RelativeIdeal]:
        return [blowup(e) for e in self.classes]

    @cached_property
    def mingens(self) -> list[tuple[int, ...]]:
        """Minimal generators of each class, ascending: the generator rule
        on every lane at once, by the minimal generators of S below w (a
        generator at or past w shifts every bit past its window, so it
        removes none, and a shift below w stays inside a lane), entered in
        the semigroup's generator memo, which the object kernel reads too
        (it gives the empty window of N's one class the generator 0)."""
        s, masks = self.s, self.masks
        gens = [a for a in s.minimal_generators if a < self.width]
        return s._memo_generators(masks, self._lanes(_generator_mask(self._packed, gens)))

    @cached_property
    def covers(self) -> list[list[int]]:
        """The lower covers of each class in the class poset (Bonzio and
        García-Sánchez), ordered by inclusion: E \\ {x} for each nonzero
        minimal generator x of E, as class positions.

        For x in E, E \\ {x} is a class exactly when x is a nonzero
        minimal generator of E.  It holds 0 exactly when x is not 0.  It
        is closed under adding S exactly when x is not y + m for a member
        y of E and a member m of M, the nonzero members of S: when x lies
        outside E + M, which makes x a minimal generator.  A nonzero
        member of S lies in 0 + M, so such an x is an adjoined gap.
        Every class H strictly inside E lies inside a cover: remove the
        least x of E \\ H, a gap of S since S lies inside H.  E \\ {x} is
        closed under adding S: e + s = x with s > 0 needs e < x in E,
        which puts x in H if e is in H and contradicts the choice of x if
        not.  So the classes inside E are E and those inside its covers."""
        return [[self.index[m ^ 1 << x] for x in gens[1:]] for m, gens in zip(self.masks, self.mingens)]

    # ``mingens``, the two tables and ``modules`` shift every class at
    # once: ``_packed`` holds class j's mask in lane j of one integer,
    # packed once per context, a lane being ``_words`` = ceil(2w / 64)
    # little-endian 64-bit words, and at least one, so that the empty
    # window of N is a lane like any other.  A lane of 2w bits or more holds a window shifted up by
    # less than w, or a window extended by w tail bits (``colons`` ORs in
    # ``_lane_windows`` shifted up by w), so a shift by a generator offset
    # moves no bit into the window of another lane.  ``_lanes`` reads every
    # window back as an int.

    @cached_property
    def _packed(self) -> int:
        size = 8 * self._words
        return int.from_bytes(b"".join(m.to_bytes(size, "little") for m in self.masks), "little")

    @cached_property
    def _lane_windows(self) -> int:
        """The full window in every lane, packed as ``_packed`` is: one
        lane's bytes repeated."""
        return int.from_bytes(self.full.to_bytes(8 * self._words, "little") * len(self.masks), "little")

    def _lanes(self, packed: int) -> Iterable[int]:
        """The window of every lane of ``packed``: all words unpacked in
        one call, and each lane's window words shifted into place and
        ORed together."""
        q, n = self._words, len(self.masks)
        raw = (packed & self._lane_windows).to_bytes(8 * q * n, "little")
        words = struct.unpack(f"<{q * n}Q", raw)
        lanes = words[::q]
        for k in range(1, (self.width + 63) // 64):
            lanes = map(int.__or__, lanes, [x << 64 * k for x in words[k::q]])
        return lanes

    @cached_property
    def sums(self) -> list[list[int]]:
        """``sums[i][j]``: position of classes[i] + classes[j], which is
        normalized again.  classes[i] is the union of g + S over its
        minimal generators g, so the sum is the union of the translates
        g + classes[j], whose window is the OR of the shifted masks; the
        tail of each translate lies past the window.  Row i is the sum
        rule on every lane at once."""
        return self._table(_or_shifts, self._packed, self.index.__getitem__, self.mingens)

    def _table(self, rule, packed: int, lookup, row_gens) -> list[list]:
        """One row for each generator tuple in ``row_gens``: ``rule``
        (``_or_shifts`` or ``_and_shifts``) applied by the tuple to every
        lane of ``packed`` at once, and each lane read back through
        ``lookup``."""
        return [list(map(lookup, self._lanes(rule(packed, gens)))) for gens in row_gens]

    def sum_row(self, i: int) -> list[int]:
        """``sums[i]``, read from the table once it is built, so that
        every suite reads one table; else by the row rule alone, so that
        a suite that reads one row does not build all n."""
        if "sums" in self.__dict__:
            return self.sums[i]
        return self._table(_or_shifts, self._packed, self.index.__getitem__, [self.mingens[i]])[0]

    def modules(self, t: int) -> int:
        """Bitset of the classes E with T + E == E, for the class T at
        position t: the sum rule by T's generators on every lane at once,
        each lane compared with E's mask.  It does not read ``sums``, so
        ``suites.suite_ulrich_facts`` cross-checks the table with it."""
        lanes = self._lanes(_or_shifts(self._packed, self.mingens[t]))
        return sum(1 << ei for ei, (lane, m) in enumerate(zip(lanes, self.masks)) if lane == m)

    @cached_property
    def colons(self) -> list[list[tuple[int, int]]]:
        """``colons[j][i]``: (position, least element) of classes[i] -
        classes[j].  The colon is the intersection of classes[i] - g over
        the minimal generators g of classes[j]: the AND of the window of
        classes[i], extended by w tail bits, shifted down by each g.  It
        has no member below 0, and every z >= w is a member, so the AND cut
        to the window is exact; ``_relocate`` moves it to its least element
        (an empty window is the ray from w).  Column j is the colon rule
        by classes[j]'s generators on every lane at once, one rule per
        divisor, so the table is kept as the list of those columns.  The
        tail bits are ``_lane_windows`` shifted up by w, ORed into
        ``_packed``."""
        ext = self._packed | self._lane_windows << self.width
        return self._table(_and_shifts, ext, self._located.__getitem__, self.mingens)

    @cached_property
    def syzygies(self) -> list[tuple[int, RelativeIdeal, int]]:
        """``(i, J, w)`` for each class i with exactly two minimal
        generators, ascending: J is its syzygy, the ring dual S - E as
        ``ring_dual`` builds it in the object kernel, not normalized
        (``ideals.syzygy_two_generated`` is its normalization), and w the
        class position of J."""
        out = []
        for i, gens in enumerate(self.mingens):
            if len(gens) == 2:
                j = ring_dual(self.classes[i])
                out.append((i, j, self.pos(j)))
        return out


class CaCertificate(_Record):
    """Certified value (or interval) for the cohomology annihilator ideal.

    ``status`` says which hypothesis chain applied; an Exact status always
    carries the conductor as the value.  The interval fallback brackets the
    ideal between the conductor (lower, verified) and the maximal ideal
    (upper, valid for any singular ring here).
    """

    __slots__ = ("semigroup", "conductor", "category_annihilator_shadow", "duality_closure",
                 "duality_closure_witness", "status", "value", "lower", "upper", "justification")

    def to_json_dict(self) -> dict:
        """The record's JSON rule, with the status written without its
        "-" and only the bounds the status uses: lower and upper for the
        interval, the value and its generators for an Exact status."""
        out = super().to_json_dict()
        out["status"] = self.status.replace("-", "")
        if self.status == STATUS_INTERVAL:
            del out["value"]
        else:
            del out["lower"], out["upper"]
            out["value_generators"] = list(minimal_generators(self.value))
        return out


def certify_cohomology_annihilator(s: NumericalSemigroup) -> CaCertificate:
    """Certificate for the cohomology annihilator of the semigroup ring.

    Regular ring: the whole ring.  Symmetric (Gorenstein) and almost
    symmetric semigroups: exactly the conductor.  Anything else: the honest
    interval [conductor, maximal ideal], with the duality-closure shadow
    recorded either way.  Every branch fills the same five leading fields
    from the class table, bound once in ``build``; each return names the
    fields it sets.

    The exact value is the chain conductor ⊆ shadow ⊆ stable annihilator
    of N = conductor: the conductor lies in the category shadow
    (WangConductor), and the shadow, the intersection of every class's
    stable annihilator, lies in N's, which is the conductor
    (ConductorStableAnnihilator).  Both links are checked on the table
    the shadow is built from: the first on ``category_shadow``, the
    second on N's entry of ``stable_ann_pairs`` (N is the last class,
    and the conductor is N moved to w).  So on any table the two pin the
    reported shadow to the conductor, or raise.

    The interval is always justified by (WangConductor,
    SingularUpperBound) alone: off almost symmetry the duality closure
    fails, so a closure that holds there is an internal error.  Proof.
    Let S != N have Frobenius number F, M = S \\ {0}, K = {x : F - x not
    in S} (least element 0) and X* = S - X.
      1. E = S - M = M - M = S ∪ PF(S) holds 0 and F, so E is a
         normalized class other than S, and it is reflexive:
         E** = M*** = M* = E.
      2. K - E = M + K.  K - (X + K) = (K - K) - X = S - X, so canonical
         duality K - (K - Y) = Y (Jäger) on Y = X + K gives
         K - X* = X + K; take X = M.
      3. R = M + K contains M and not 0, so R lies in S exactly when
         M + K lies in M, which is almost symmetry (Barucci and Fröberg).
         If S is not almost symmetric, T = S - R lies in S - M = E,
         inside N, and misses 0, so F + T lies past F, inside S, and F
         is in S - T = R**.  But F is not in R: F = m + k with m in M puts
         F - k in S, so k is not in K.  So R is not reflexive: the
         reflexive class E, other than S, has a canonical dual that is
         not reflexive, and the closure fails.
    """
    ctx = SemigroupContext(s)
    cond = ctx.conductor
    shadow = ctx.category_shadow
    closure, witness = ctx.duality_closure

    if not is_subset(cond, shadow):
        raise InconsistentCertificate(
            f"conductor lower bound fails on <{s}>: "
            f"{format_ideal(cond)} vs {format_ideal(shadow)}"
        )

    if ctx.stable_ann_pairs[-1] != (ctx.pos(cond), cond.min):
        raise InconsistentCertificate(
            f"stable annihilator of the normalization differs from the "
            f"conductor on <{s}>"
        )

    inv = ctx.inv
    build = partial(
        CaCertificate, s, cond, shadow, closure, witness, value=None, lower=None, upper=None
    )

    if s.is_naturals:
        return build(status=STATUS_REGULAR, value=unit_ideal(s), justification=(TAG_REGULAR,))

    if inv.almost_symmetric and shadow != cond:
        raise InconsistentCertificate(f"category shadow differs from conductor on <{s}>")

    if inv.symmetric:
        return build(
            status=STATUS_GORENSTEIN,
            value=cond,
            justification=(TAG_GORENSTEIN, TAG_WANG, TAG_CONDUCTOR_STABLE_ANN),
        )

    if inv.almost_symmetric:
        return build(
            status=STATUS_ALMOST_GORENSTEIN,
            value=cond,
            justification=(TAG_THEOREM_B, TAG_WANG, TAG_CONDUCTOR_STABLE_ANN),
        )

    upper = ctx.mset
    if not is_subset(cond, upper):
        raise InconsistentCertificate(f"conductor not inside the maximal ideal on <{s}>")
    if closure:
        raise InconsistentCertificate(f"duality closure holds on <{s}>, which is not almost symmetric")
    return build(
        status=STATUS_INTERVAL, lower=cond, upper=upper, justification=(TAG_WANG, TAG_SINGULAR_UPPER)
    )
