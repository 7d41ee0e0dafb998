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
classes, listed once, and every per-class fact (duals, traces, stable
annihilators, minimal generators, sum and colon tables) read by class
position.  All of them except the blowups come from the classes' window
masks through the mask kernel of ``semigroups`` (``_or_shifts``, the sum
rule; ``_and_shifts``, the colon rule; ``_relocate``, the least-element
step), with no object kernel call per class:
  * ``mingens``: the bits of each mask outside its shifts by the
    generators of S;
  * ``ring_duals`` and ``can_duals``: the colon rule on the row of S or
    of K, by each class's generators, relocated;
  * ``traces``: the sum rule, the ring dual shifted up by each
    generator of the class;
  * ``stable_anns``: E - E by the colon rule on E's own row (a class),
    then the colon rule on the trace's row by E - E's generators;
  * ``category_shadow``: the AND of the stable annihilators' absolute
    masks on [0, 2w);
  * ``sums`` and ``colons``: the two rules for every pair of classes.
``syzygies`` lists, for each class with two minimal generators, its
syzygy and that syzygy's class position, and ``canred`` is read from
``classification``.  The certificate, ``nslab ideals`` and every
verification suite read the table.
``category_annihilator`` and ``duality_closure_shadow`` walk the class list
directly and are kept as the reference the table is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .semigroups import (
    InternalError, NumericalSemigroup, _bit_indices, _ones,
    _and_shifts, _generator_mask, _or_shifts, _relocate,
)
from .ideals import (
    RelativeIdeal,
    _syzygy_raw,
    canonical_dual,
    canonical_ideal,
    difference,
    enumerate_ideal_classes,
    format_ideal,
    intersect,
    is_reflexive,
    is_subset,
    maximal_ideal,
    minimal_generators,
    normalization_ideal,
    trace_ideal,
    unit_ideal,
)
from .rings import blowup, classify, conductor_ideal

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
TAG_THEOREM_A_SHADOW = "TheoremAShadow"


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


class SemigroupContext:
    """The class table of one semigroup.

    ``classes`` lists the normalized ideal classes once, S first; every
    other per-class fact is a list read by class position, built on first
    use from the lists before it.  ``masks`` holds each class's window
    mask (bit k: k is a member, for k < ``width`` = frobenius + 1; every
    integer from ``width`` on is a member) and ``index`` maps a window
    mask back to its class position.  Since a relative ideal stores its
    mask relative to its least element, ``pos(e)`` finds the class of any
    ideal, translated or not.  Only the translation-invariant lists
    (traces, reflexive, stable annihilators, blowups) may be read for an
    ideal that is not normalized.

    The minimal generators and the ``sums`` and ``colons`` tables are
    computed from the masks alone, with no ``RelativeIdeal`` per entry;
    the duals, traces and stable annihilators build one ``RelativeIdeal``
    per class, from masks, and call no object kernel.
    """

    def __init__(self, s: NumericalSemigroup):
        self.s = s
        self.inv = s.invariants()
        self.unit = unit_ideal(s)
        self.nat = normalization_ideal(s)
        self.mset = maximal_ideal(s)
        self.k = canonical_ideal(s)
        self.conductor = conductor_ideal(s)
        self.classes = enumerate_ideal_classes(s)
        self.masks = [e._mask for e in self.classes]
        self.index = {m: i for i, m in enumerate(self.masks)}
        self.width = s.frobenius + 1
        self.full = _ones(self.width)

    def pos(self, e: RelativeIdeal) -> int:
        return self.index[e._mask]

    def _dual(self, d: RelativeIdeal, i: int) -> RelativeIdeal:
        """d - classes[i], for d = S or K (least element 0): the colon
        rule on d's window extended by w tail bits, by classes[i]'s
        generators, relocated."""
        ext = d._mask | self.full << self.width
        b0, mask = _relocate(_and_shifts(ext, self.mingens[i]) & self.full, self.width)
        return RelativeIdeal(self.s, b0, mask)

    @cached_property
    def ring_duals(self) -> list[RelativeIdeal]:
        return [self._dual(self.unit, i) for i in range(len(self.classes))]

    @cached_property
    def can_duals(self) -> list[RelativeIdeal]:
        return [self._dual(self.k, i) for i in range(len(self.classes))]

    @cached_property
    def traces(self) -> list[RelativeIdeal]:
        """E + (S - E): the sum rule, the dual's mask shifted up by each
        generator of E; its least element is the dual's, as 0 is E's."""
        s, full = self.s, self.full
        return [
            RelativeIdeal(s, d.min, _or_shifts(d._mask, gens) & full)
            for gens, d in zip(self.mingens, self.ring_duals)
        ]

    @cached_property
    def reflexive(self) -> list[bool]:
        """The ring dual of x + F is -x + (S - F), so the bidual of a class
        is a translate of the ring dual of its ring dual's class."""
        duals = self.ring_duals
        return [
            duals[self.pos(d)]._mask == e._mask for e, d in zip(self.classes, duals)
        ]

    @cached_property
    def dual_reflexive(self) -> list[bool]:
        """Whether the canonical dual of each class is reflexive."""
        return [self.reflexive[self.pos(d)] for d in self.can_duals]

    @cached_property
    def stable_anns(self) -> list[RelativeIdeal]:
        """tr(E) - (E - E).  E - E is the colon rule on E's own row; it
        holds 0 and nothing below, so it is a class, and its generators
        are read from ``mingens``.  The colon rule on the trace's row by
        those generators gives the stable annihilator relative to the
        trace's least element."""
        s, w, full, index, mingens = self.s, self.width, self.full, self.index, self.mingens
        tail = full << w
        out = []
        for m, gens, tr in zip(self.masks, mingens, self.traces):
            endo = _and_shifts(m | tail, gens) & full
            acc = _and_shifts(tr._mask | tail, mingens[index[endo]]) & full
            b0, mask = _relocate(acc, w)
            out.append(RelativeIdeal(s, tr.min + b0, mask))
        return out

    @cached_property
    def category_shadow(self) -> RelativeIdeal:
        """``category_annihilator(classes)`` read from the table.  Every
        stable annihilator lies in S and contains the conductor, so its
        least element is at most w and every integer from 2w on is a
        member: the intersection is the AND of the absolute masks on
        [0, 2w), moved to its least element and cut to the window."""
        w, full = self.width, self.full
        tail = full << w
        acc = _ones(2 * w)
        for a in self.stable_anns:
            acc &= (a._mask | tail) << a.min
        b0, mask = _relocate(acc, 2 * w)
        return RelativeIdeal(self.s, b0, mask & full)

    @cached_property
    def duality_closure(self) -> tuple[bool, RelativeIdeal | None]:
        """``duality_closure_shadow(classes)`` read from the table: whether
        every non-principal reflexive class has a reflexive canonical dual,
        else the first class, in enumeration order, that does not.  It
        stops at that class, so canonical duals are computed only up to
        it."""
        for i in range(1, len(self.classes)):
            if not self.reflexive[i]:
                continue
            if not self.reflexive[self.pos(self._dual(self.k, i))]:
                return False, self.classes[i]
        return True, None

    @cached_property
    def blowups(self) -> list[RelativeIdeal]:
        return [blowup(e) for e in self.classes]

    @cached_property
    def mingens(self) -> list[tuple[int, ...]]:
        """Minimal generators of each class, ascending, read off the masks
        (``semigroups._generator_mask``)."""
        if self.width == 0:
            return [(0,)]
        gens = self.s.minimal_generators
        return [tuple(_bit_indices(_generator_mask(m, gens))) for m in self.masks]

    # The two tables shift every class at once: ``_pack`` puts class j's
    # mask in lane j of one integer, at bit 8 * size * j.  A lane of
    # size = ceil(2w / 8) bytes holds a window shifted up by less than w,
    # or a window extended by w tail bits, so a shift by a generator offset
    # moves no bit into the window of another lane.

    def _pack(self, masks) -> int:
        size = (2 * self.width + 7) // 8
        return int.from_bytes(b"".join(m.to_bytes(size, "little") for m in masks), "little")

    @cached_property
    def _lane_windows(self) -> int:
        return self._pack([self.full] * len(self.masks))

    @cached_property
    def _window_key(self) -> dict[bytes, int]:
        """Each class's window bytes, as ``_windows`` reads them, mapped to
        its position."""
        nbytes = (self.width + 7) // 8
        return {m.to_bytes(nbytes, "little"): i for i, m in enumerate(self.masks)}

    def _windows(self, packed: int) -> list[bytes]:
        """The window bytes of every lane of ``packed``."""
        size, nbytes = (2 * self.width + 7) // 8, (self.width + 7) // 8
        raw = (packed & self._lane_windows).to_bytes(size * len(self.masks), "little")
        return [raw[k : k + nbytes] for k in range(0, len(raw), size)]

    @cached_property
    def sums(self) -> list[list[int]]:
        """``sums[i][j]``: position of classes[i] + classes[j], which is
        normalized again.  classes[i] is the union of g + S over its
        minimal generators g, so the sum is the union of the translates
        g + classes[j], whose window is the OR of the shifted masks; the
        tail of each translate lies past the window.  Row i is the sum
        rule on every lane at once."""
        if self.width == 0:
            return [[0]]
        key = self._window_key
        packed = self._pack(self.masks)
        return [
            [key[b] for b in self._windows(_or_shifts(packed, gens))]
            for gens in self.mingens
        ]

    @cached_property
    def colons(self) -> list[list[tuple[int, int]]]:
        """``colons[i][j]``: (position, least element) of classes[i] -
        classes[j].  The colon is the intersection of classes[i] - g over
        the minimal generators g of classes[j]: the AND of the window of
        classes[i], extended by w tail bits, shifted down by each g.  It
        has no member below 0, and every z >= w is a member, so the AND cut
        to the window is exact; ``_relocate`` moves it to its least element
        (an empty window is the ray from w).  Column j is the colon rule
        on every lane at once."""
        w = self.width
        if w == 0:
            return [[(0, 0)]]
        key = self._window_key
        located: dict[bytes, tuple[int, int]] = {}

        def locate(b: bytes) -> tuple[int, int]:
            b0, low = _relocate(int.from_bytes(b, "little"), w)
            return located.setdefault(b, (key[low.to_bytes(len(b), "little")], b0))

        tail = self.full << w
        packed = self._pack(m | tail for m in self.masks)
        columns = [
            [located.get(b) or locate(b) for b in self._windows(_and_shifts(packed, gens))]
            for gens in self.mingens
        ]
        return [list(row) for row in zip(*columns)]

    @cached_property
    def classification(self):
        return classify(self.s)

    @property
    def canred(self) -> int:
        return self.classification.canonical_reduction_number

    @cached_property
    def syzygies(self) -> list[tuple[int, RelativeIdeal, int]]:
        """``(i, J, w)`` for each class i with exactly two minimal
        generators, ascending: J is its syzygy, not normalized, and w the
        class position of J."""
        out = []
        for i, gens in enumerate(self.mingens):
            if len(gens) == 2:
                j = _syzygy_raw(self.classes[i], gens)
                out.append((i, j, self.pos(j)))
        return out


@dataclass(frozen=True)
class CaCertificate:
    """Certified value (or interval) for the cohomology annihilator ideal.

    ``status`` says which hypothesis chain applied; an Exact status always
    carries the conductor as the value.  The interval fallback brackets the
    ideal between the conductor (lower, verified) and the maximal ideal
    (upper, valid for any singular ring here).
    """

    semigroup: NumericalSemigroup
    conductor: RelativeIdeal
    category_annihilator_shadow: RelativeIdeal
    duality_closure: bool
    duality_closure_witness: RelativeIdeal | None
    status: str
    value: RelativeIdeal | None
    lower: RelativeIdeal | None
    upper: RelativeIdeal | None
    justification: tuple[str, ...]

    def to_json_dict(self) -> dict:
        out: dict = {
            "semigroup": str(self.semigroup),
            "status": self.status.replace("-", ""),
            "justification": list(self.justification),
            "duality_closure": self.duality_closure,
            "duality_closure_witness": (
                None
                if self.duality_closure_witness is None
                else format_ideal(self.duality_closure_witness)
            ),
            "conductor": format_ideal(self.conductor),
            "category_annihilator_shadow": format_ideal(
                self.category_annihilator_shadow
            ),
        }
        if self.status == STATUS_INTERVAL:
            out["lower"] = format_ideal(self.lower)
            out["upper"] = format_ideal(self.upper)
        else:
            out["value"] = format_ideal(self.value)
            out["value_generators"] = list(minimal_generators(self.value))
        return out


def certify_cohomology_annihilator(s: NumericalSemigroup) -> CaCertificate:
    """Certificate for the cohomology annihilator of the semigroup ring.

    Regular ring: the whole ring.  Symmetric (Gorenstein) and almost
    symmetric semigroups: exactly the conductor.  Anything else: the honest
    interval [conductor, maximal ideal], with the duality-closure shadow
    recorded either way.
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

    if stable_annihilator(ctx.nat) != cond:
        raise InconsistentCertificate(
            f"stable annihilator of the normalization differs from the "
            f"conductor on <{s}>"
        )

    inv = ctx.inv

    def build(status, value=None, lower=None, upper=None, tags=()):
        return CaCertificate(
            semigroup=s,
            conductor=cond,
            category_annihilator_shadow=shadow,
            duality_closure=closure,
            duality_closure_witness=witness,
            status=status,
            value=value,
            lower=lower,
            upper=upper,
            justification=tuple(tags),
        )

    if s.is_naturals:
        return build(STATUS_REGULAR, value=ctx.unit, tags=(TAG_REGULAR,))

    if inv.almost_symmetric and shadow != cond:
        raise InconsistentCertificate(f"category shadow differs from conductor on <{s}>")

    if inv.symmetric:
        return build(
            STATUS_GORENSTEIN,
            value=cond,
            tags=(TAG_GORENSTEIN, TAG_WANG, TAG_CONDUCTOR_STABLE_ANN),
        )

    if inv.almost_symmetric:
        return build(
            STATUS_ALMOST_GORENSTEIN,
            value=cond,
            tags=(TAG_THEOREM_B, TAG_WANG, TAG_CONDUCTOR_STABLE_ANN),
        )

    upper = ctx.mset
    if not is_subset(cond, upper):
        raise InconsistentCertificate(f"conductor not inside the maximal ideal on <{s}>")
    tags = [TAG_WANG, TAG_SINGULAR_UPPER]
    if closure:
        tags.append(TAG_THEOREM_A_SHADOW)
    return build(STATUS_INTERVAL, lower=cond, upper=upper, tags=tags)
