"""Fractional monomial ideal calculus over a numerical semigroup.

A relative ideal of a semigroup S is a set E of integers, bounded below,
with E + S contained in E.  These are the rank-one maximal Cohen-Macaulay
modules of the monomial curve ring in combinatorial form.  Every such set
is determined by its least element together with the membership pattern on
the window [min, min + frobenius(S)]: since min + S lies inside E, every
integer from min + frobenius + 1 on is automatically a member.  That forced
tail is what makes all the operations below exact with no truncation
heuristics.

Conventions:
  * sums are sumsets (module products of monomial ideals),
  * ``difference(E, F)`` is the colon {z : z + F subset E},
  * isomorphism of monomial ideals is translation, so classes are stored
    normalized with least element 0.

The arithmetic is the mask kernel of ``semigroups``.  ``sum``,
``difference`` and ``minimal_generators`` read the minimal-generator
offsets of a window mask from the semigroup's generator memo
(``NumericalSemigroup._generator_offsets``): one dict per semigroup
object, made on first use and filled by these operations and the class
table's ``mingens`` alike, so each class's generators are computed once
per semigroup.
It is per object, not a module-level cache keyed on (mask, generators):
it dies with its semigroup, and hands no warm entries to a later run in
the same process or to a forked pool worker.

A sum, colon, ring dual or trace builds one ``RelativeIdeal``, its
result, and nothing else: ``difference`` and ``ring_dual`` share one colon
core, ``_colon``, which reads the first operand as a least element and a
window mask, so the ring dual takes S's window without building S, and
``trace_ideal`` applies the colon rule and then the sum rule to windows,
without building the ring dual.  The
canonical dual is its definition, the colon by K: ``canonical_ideal`` is
the one place that reflects K's window, and the class table holds K
once, as ``k``, for its readers to pass to ``difference``.

The ideal classes are walked once, as window masks, by ``_class_masks``:
the class table of ``annihilators`` keeps that list as its class list,
and ``enumerate_ideal_classes`` builds one ``RelativeIdeal`` per mask.

The input path reads the same kernel: ``validate`` checks E + S inside E
as one sum rule over the window, and ``parse_ideal`` builds the window of
the text's set with the sum rule and a negative-int tail, with no loop
over bits.
"""

from __future__ import annotations

import json
from itertools import compress

from .semigroups import (
    NumericalSemigroup, EmptyGenerators, _Frozen, _ones, _bit_indices,
    _and_shifts, _membership, _or_shifts, _relocate,
)


class ParentMismatch(ValueError):
    """Two ideals over different semigroups were combined."""


class NotTwoGenerated(ValueError):
    """The rank-one syzygy formula needs a 2-generated ideal."""


class RelativeIdeal(_Frozen):
    """A fractional monomial ideal E with E + S inside E.

    ``_mask`` stores membership of min + k for k in [0, width) where
    width = frobenius(parent) + 1; every integer >= min + width is a
    member.  Bit 0 is set on every nonempty window (the minimum is
    attained).

    A value of the ``semigroups._Frozen`` protocol over (parent, min,
    _mask).  ``__init__`` stores the fields through the slot descriptors
    and then runs ``__post_init__``, the two window checks: bit 0 on a
    nonempty window, and no bit past the window, which on N's empty
    window is every bit.
    """

    __slots__ = ("parent", "min", "_mask")

    parent: NumericalSemigroup
    min: int
    _mask: int

    def __init__(self, parent: NumericalSemigroup, min: int, _mask: int) -> None:
        _set_parent(self, parent)
        _set_min(self, min)
        _set_mask(self, _mask)
        self.__post_init__()

    def _compared(self) -> tuple:
        return (self.parent, self.min, self._mask)

    def __post_init__(self) -> None:
        mask, width = self._mask, self.parent.frobenius + 1
        if width and not mask & 1:
            raise ValueError("least element must be a member")
        if mask >> width:
            raise ValueError("mask has bits outside the window")

    def validate(self) -> "RelativeIdeal":
        """Full closure check E + S inside E on the window, by the sum
        rule: E + S is the OR of E's mask shifted by each minimal
        generator, and a bit of it missing from E inside the window is a
        failure.  Only a failure walks the members, to name the first
        member k, then the first generator a, with k + a missing.  The
        arithmetic operations are correct by construction, so this only
        runs on untrusted input and in tests."""
        mask, gens = self._mask, self.parent.minimal_generators
        missing = _or_shifts(mask, gens) & ~mask & _ones(self.width)
        if missing:
            k, a = next((k, a) for k in _bit_indices(mask) for a in gens if missing >> k + a & 1)
            raise ValueError(f"not an ideal: {self.min + k} + {a} missing")
        return self

    # -- geometry ----------------------------------------------------------

    @property
    def width(self) -> int:
        return self.parent.frobenius + 1

    @property
    def tail_start(self) -> int:
        """Every integer >= tail_start is a member (forced by min + S)."""
        return self.min + self.width

    def contains(self, z: int) -> bool:
        return _membership(self.min, self._mask, self.width, z, z + 1) == 1

    __contains__ = contains

    def members_below(self, stop: int) -> list[int]:
        window = _membership(self.min, self._mask, self.width, self.min, max(stop, self.min))
        return [self.min + k for k in _bit_indices(window)]

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return format_ideal(self)

    def __repr__(self) -> str:
        return f"RelativeIdeal(<{self.parent}>, {format_ideal(self)})"

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other: "RelativeIdeal") -> "RelativeIdeal":
        return sum(self, other)

    def __sub__(self, other: "RelativeIdeal") -> "RelativeIdeal":
        return difference(self, other)


_set_parent = RelativeIdeal.parent.__set__
_set_min = RelativeIdeal.min.__set__
_set_mask = RelativeIdeal._mask.__set__


def _check_parents(e: RelativeIdeal, f: RelativeIdeal) -> None:
    if e.parent is not f.parent and e.parent != f.parent:
        raise ParentMismatch(
            f"ideals over <{e.parent}> and <{f.parent}> cannot be combined"
        )


def _from_window(parent: NumericalSemigroup, lo: int, wmask: int) -> RelativeIdeal:
    """Build an ideal from a membership window [lo, lo + width) plus the
    implied all-members tail from lo + width on; relocates to the attained
    minimum."""
    width = parent.frobenius + 1
    b0, mask = _relocate(wmask & (1 << width) - 1, width)
    return RelativeIdeal(parent, lo + b0, mask)


# -- constructors ----------------------------------------------------------

def ideal_from_generators(s: NumericalSemigroup, gens) -> RelativeIdeal:
    """The ideal generated by ``gens``: the union of the translates g + S."""
    gens = sorted(set(int(g) for g in gens))
    if not gens:
        raise EmptyGenerators("an ideal needs at least one generator")
    lo = gens[0]
    wmask = _or_shifts(s._mask, [g - lo for g in gens]) & _ones(s.frobenius + 1)
    return RelativeIdeal(s, lo, wmask)


def unit_ideal(s: NumericalSemigroup) -> RelativeIdeal:
    """S as an ideal over itself (the free module of rank one)."""
    return RelativeIdeal(s, 0, s._mask)


def normalization_ideal(s: NumericalSemigroup) -> RelativeIdeal:
    """All nonnegative integers as an ideal over S (the normalization)."""
    return RelativeIdeal(s, 0, _ones(s.frobenius + 1))


def maximal_ideal(s: NumericalSemigroup) -> RelativeIdeal:
    """The set of nonzero members of S, generated by the minimal
    generators of S: every nonzero member is one of them plus a member."""
    return ideal_from_generators(s, s.minimal_generators)


# -- elementary operations ---------------------------------------------------

def normalize(e: RelativeIdeal) -> tuple[RelativeIdeal, int]:
    """Shift the least element to 0; returns (normalized ideal, offset)."""
    return RelativeIdeal(e.parent, 0, e._mask), e.min


def translate(e: RelativeIdeal, x: int) -> RelativeIdeal:
    return RelativeIdeal(e.parent, e.min + x, e._mask)


def is_translate(e: RelativeIdeal, f: RelativeIdeal) -> int | None:
    """The x with f = x + e if it exists, else None.  The only candidate is
    the difference of the least elements."""
    _check_parents(e, f)
    if e._mask == f._mask:
        return f.min - e.min
    return None


def is_subset(e: RelativeIdeal, f: RelativeIdeal) -> bool:
    if e.parent is not f.parent:
        _check_parents(e, f)
    if e.min < f.min:
        return False  # min(e) is attained and below f entirely
    width = e.parent.frobenius + 1
    return e._mask & ~_membership(f.min, f._mask, width, e.min, e.min + width) == 0


def sum(e: RelativeIdeal, f: RelativeIdeal) -> RelativeIdeal:
    """The sumset e + f (product of the monomial modules): e is the union
    of the g + S over its minimal generators g, so e + f is the union of
    the translates g + f, the OR of f's mask shifted by each generator
    offset; the tail of each translate lies past the window."""
    if e.parent is not f.parent:
        _check_parents(e, f)
    s = e.parent
    wmask = _or_shifts(f._mask, s._generator_offsets(e._mask)) & (1 << s.frobenius + 1) - 1
    return RelativeIdeal(s, e.min + f.min, wmask)


def n_fold_sum(e: RelativeIdeal, n: int) -> RelativeIdeal:
    """The n-fold sumset; n = 0 gives S (empty product convention)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    acc = unit_ideal(e.parent)
    for _ in range(n):
        acc = sum(acc, e)
    return acc


def difference(e: RelativeIdeal, f: RelativeIdeal) -> RelativeIdeal:
    """The colon {z : z + f subset e}, again a relative ideal.

    Members lie in [min(e) - min(f), min(e) - min(f) + width) plus the
    forced tail: once z + min(f) reaches the tail of e, every constraint
    is satisfied automatically.
    """
    if e.parent is not f.parent:
        _check_parents(e, f)
    return _colon(e.min, e._mask, f)


def _colon(lo: int, emask: int, f: RelativeIdeal) -> RelativeIdeal:
    """E - f for the ideal E over f's semigroup with least element ``lo``
    and window mask ``emask``: the colon rule on that window extended by
    its tail, the infinite ones of a negative int as in ``_membership``,
    cut and relocated by ``_from_window``."""
    s = f.parent
    ext = emask | -1 << s.frobenius + 1
    return _from_window(s, lo - f.min, _and_shifts(ext, s._generator_offsets(f._mask)))


def intersect(e: RelativeIdeal, f: RelativeIdeal) -> RelativeIdeal:
    """Set intersection, which is again a relative ideal."""
    _check_parents(e, f)
    lo = max(e.min, f.min)
    width = e.width
    emask = _membership(e.min, e._mask, width, lo, lo + width)
    fmask = _membership(f.min, f._mask, width, lo, lo + width)
    return _from_window(e.parent, lo, emask & fmask)


# -- canonical machinery -----------------------------------------------------

def canonical_ideal(s: NumericalSemigroup) -> RelativeIdeal:
    """The canonical ideal {x : frobenius - x not in S}, normalized.

    Its window pattern is the reflected complement of the semigroup's: bit
    x is set when frobenius - x is a gap, read off the gap mask written
    out to w = frobenius + 1 digits and reversed.  It equals S exactly
    when S is symmetric.  This is the one place that reflects K's window;
    the class table holds K once, as ``k``, and its readers take it there.
    """
    width = s.frobenius + 1
    gaps = format(_ones(width) & ~s._mask, f"0{width}b")
    return RelativeIdeal(s, 0, int(gaps[::-1], 2))


def canonical_dual(e: RelativeIdeal) -> RelativeIdeal:
    """Dual against the canonical ideal: K - E."""
    return difference(canonical_ideal(e.parent), e)


def ring_dual(e: RelativeIdeal) -> RelativeIdeal:
    """Dual against the ring: S - E."""
    return _colon(0, e.parent._mask, e)


def trace_ideal(e: RelativeIdeal) -> RelativeIdeal:
    """The trace E + (S - E): the ideal of S generated by images of maps
    from E to S.  Always a subset of S; equals S exactly for principal E.

    The composition ``sum(e, ring_dual(e))`` in one step, building one
    ``RelativeIdeal``: the colon rule on S's window by E's generator
    offsets gives the ring dual's window from -min E, relocated to its
    least element; the sum rule by the same offsets gives the trace's
    window, whose least element is E's plus the dual's."""
    s = e.parent
    width = s.frobenius + 1
    full, gens = (1 << width) - 1, s._generator_offsets(e._mask)
    b0, dual = _relocate(_and_shifts(s._mask | -1 << width, gens) & full, width)
    dual_min = b0 - e.min
    return RelativeIdeal(s, e.min + dual_min, _or_shifts(dual, gens) & full)


def is_reflexive(e: RelativeIdeal) -> bool:
    """Whether S - (S - E) is a translate of E (it always contains E)."""
    bidual = ring_dual(ring_dual(e))
    return is_translate(e, bidual) is not None


def minimal_generators(e: RelativeIdeal) -> tuple[int, ...]:
    """E minus (E + M) where M is the maximal ideal set: a minimal
    generating set for E as a module, the offsets of its window mask in
    the semigroup's generator memo."""
    return tuple(e.min + k for k in e.parent._generator_offsets(e._mask))


def syzygy_two_generated(e: RelativeIdeal) -> RelativeIdeal:
    """First syzygy of a 2-generated ideal, normalized: the ring dual S - E.

    With generators a < b the kernel of S(-a) + S(-b) -> E is the rank-one
    set {z in S : z + (b - a) in S}, shifted.  Normalized, E is
    S u (d + S) with d = b - a, so S - E = {z : z + S and z + d + S lie
    in S} = {z in S : z + d in S}, that kernel set.
    """
    gens = minimal_generators(e)
    if len(gens) != 2:
        raise NotTwoGenerated(
            f"ideal has {len(gens)} minimal generators, need exactly 2"
        )
    return normalize(ring_dual(e))[0]


# -- isomorphism classes -------------------------------------------------------

def enumerate_ideal_classes(s: NumericalSemigroup) -> tuple[RelativeIdeal, ...]:
    """Every normalized relative ideal, each given as S with a set of gaps
    adjoined, in the order of ``_class_masks``, which walks them: S first
    and the normalization last.  These are the classes of the ideal class
    monoid (Casabella, D'Anna and García-Sánchez)."""
    return tuple(RelativeIdeal(s, 0, m) for m in _class_masks(s))


def _class_masks(s: NumericalSemigroup) -> list[int]:
    """The window mask of every normalized relative ideal, each S with a
    set of gaps adjoined: the one class walk, which the class table keeps
    as its class list and ``enumerate_ideal_classes`` wraps.

    A set G of gaps gives an ideal exactly when it is up-closed: a gap g in
    G forces every gap g + a, for a minimal generator a, into G.  The walk
    decides the gaps in decreasing order, so the gaps that g forces are
    decided before g: it keeps every up-closed set of the gaps decided so
    far, and at g adds g to each of them that holds all the gaps g forces.
    Every set it keeps is a class, so the work is proportional to the
    genus times the number of classes, not to 2^genus.

    Deterministic order: by number of adjoined gaps, then by the ascending
    list of adjoined gaps, compared lexicographically.  So S itself comes
    first, and the normalization (every gap adjoined) last.

    Proof that one stable sort by size gives that order.  Write r(m) for
    the mask m reversed over [0, frobenius], so gap g is bit frobenius - g
    of r(m), and the gaps in decreasing order are the bits of r(m) in
    increasing order.  Before gap g the list is ascending in r(m) and uses
    only lower bits of r; the sets that take g have that bit set, so each
    exceeds every old set, and they follow in the order of their old sets:
    the list stays ascending.  Reversed, it is descending in r(m), and a
    stable sort by size keeps that order within one size.  Two sets of one
    size have ascending lists that first differ at the lowest gap where
    the sets differ; the set holding it comes first.  In r that gap is the
    highest bit where the reversed masks differ, so the set holding it has
    the larger r(m) and comes first in the descending order too.
    """
    gapmask = _ones(s.frobenius + 1) & ~s._mask
    found = [0]
    for g in reversed(_bit_indices(gapmask)):
        # g + a is forced exactly when it is a gap
        forced = _or_shifts(1 << g, s.minimal_generators) & gapmask
        bit = 1 << g
        found += [c | bit for c in found if forced & ~c == 0]
    found.reverse()
    found.sort(key=int.bit_count)
    return [s._mask | m for m in found]


# -- textual form ---------------------------------------------------------------

def format_ideal(e: RelativeIdeal) -> str:
    """Canonical textual form: "{a,b,c}∪[t,∞)" listing every member below
    the least valid tail threshold t, or "[t,∞)" for a plain ray."""
    return _format(e.min, e._mask, e.width)


def _format(lo: int, mask: int, width: int) -> str:
    """``format_ideal`` of the ideal with least element ``lo`` and window
    mask ``mask`` over a window of ``width`` bits."""
    missing = _ones(width) & ~mask
    if missing == 0:
        return f"[{lo},∞)"
    top_gap = missing.bit_length() - 1
    # bin(mask)[:1:-1] lists the bits from bit 0 up
    bits = bin(mask)[:1:-1][:top_gap]
    head = ",".join([str(lo + k) for k, c in enumerate(bits) if c == "1"])
    return f"{{{head}}}∪[{lo + top_gap + 1},∞)"


# bin()'s digits "0" and "1" read as the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _format_classes(masks, width: int) -> list[str]:
    """``_format(0, mask, width)`` for each class window in ``masks``: the
    numbers below ``width`` are written once, and each head picks its
    members from them with ``compress`` over the mask's bits below its top
    gap.  Only for a list of classes: a single ideal would pay for a
    string per window bit."""
    numbers, full = [str(k) for k in range(width)], _ones(width)
    out = []
    for mask in masks:
        top_gap = (full & ~mask).bit_length() - 1
        bits = bin(mask)[:1:-1][:top_gap].encode().translate(_BIT_BYTES)
        head = ",".join(compress(numbers, bits))
        out.append(f"{{{head}}}∪[{top_gap + 1},∞)" if top_gap >= 0 else "[0,∞)")
    return out


def _dump(obj) -> str:
    """The JSON format of every report and query: sorted keys, two-space
    indent, non-ASCII kept (the caller encodes it as UTF-8)."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2)


def parse_ideal(s: NumericalSemigroup, text: str) -> RelativeIdeal:
    """Parse the textual ideal form; accepts any valid tail threshold,
    e.g. both "[5,∞)" and "{5,6,7}∪[8,∞)" for the same ray.

    The window is built by the kernel's rules: the listed members are the
    sum rule on {0}, their offsets from the least element, and the tail
    [t,∞) is the infinite ones of a negative int, as in ``_membership``;
    ``_from_window`` cuts the result to the window, and ``validate``
    checks the closure under S."""
    raw = text.strip().replace(" ", "")
    head: list[int] = []
    body = raw
    if raw.startswith("{"):
        close = raw.find("}")
        if close < 0:
            raise ValueError(f"unterminated member list in {text!r}")
        inner = raw[1:close]
        if inner:
            head = [int(p) for p in inner.split(",")]
        body = raw[close + 1 :].removeprefix("∪")
    if not (body.startswith("[") and body.endswith((",∞)", ",inf)"))):
        raise ValueError(f"expected a tail of the form [t,∞) in {text!r}")
    t = int(body[1 : body.index(",")])
    lo = min(head + [t])
    width = s.frobenius + 1
    # lo + S holds every integer from lo + width on: those below t must be
    # listed, which also bounds t - lo by width + len(head)
    if len({z for z in head if lo + width <= z < t}) < t - lo - width:
        raise ValueError(f"not an ideal: {text!r} leaves out part of [{lo + width},{t})")
    # a listed member past the window would only make a huge int
    window = _or_shifts(1, [z - lo for z in head if z - lo < width]) | -1 << t - lo
    return _from_window(s, lo, window).validate()
