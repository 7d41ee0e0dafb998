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

The arithmetic is the mask kernel of ``semigroups``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .semigroups import (
    NumericalSemigroup, EmptyGenerators, _ones, _bit_indices,
    _and_shifts, _generator_mask, _or_shifts, _relocate, _reverse,
)


class ParentMismatch(ValueError):
    """Two ideals over different semigroups were combined."""


class NotTwoGenerated(ValueError):
    """The rank-one syzygy formula needs a 2-generated ideal."""


@dataclass(frozen=True)
class RelativeIdeal:
    """A fractional monomial ideal E with E + S inside E.

    ``_mask`` stores membership of min + k for k in [0, width) where
    width = frobenius(parent) + 1; every integer >= min + width is a
    member.  Bit 0 is always set (the minimum is attained).
    """

    parent: NumericalSemigroup
    min: int
    _mask: int = field(repr=False)

    def __post_init__(self) -> None:
        width = self.width
        if width == 0:
            if self._mask:
                raise ValueError("empty window must have empty mask")
            return
        if not self._mask & 1:
            raise ValueError("least element must be a member")
        if self._mask >> width:
            raise ValueError("mask has bits outside the window")

    def validate(self) -> "RelativeIdeal":
        """Full closure check E + S inside E on the window; the arithmetic
        operations are correct by construction, so this only runs on
        untrusted input and in tests."""
        width = self.width
        mask = self._mask
        gens = self.parent.minimal_generators
        for k in _bit_indices(mask):
            for a in gens:
                j = k + a
                if j < width and not mask >> j & 1:
                    raise ValueError(
                        f"not an ideal: {self.min + k} + {a} missing"
                    )
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
        k = z - self.min
        if k < 0:
            return False
        if k >= self.width:
            return True
        return bool(self._mask >> k & 1)

    __contains__ = contains

    def members_below(self, stop: int) -> list[int]:
        out = []
        for k in range(min(stop - self.min, self.width)):
            if self._mask >> k & 1:
                out.append(self.min + k)
        out.extend(range(max(self.min, self.tail_start), stop))
        return out

    def extended_mask(self, nbits: int) -> int:
        """Membership of min + k for k in [0, nbits), tail bits included."""
        if nbits <= self.width:
            return self._mask & _ones(nbits)
        return self._mask | (_ones(nbits) ^ _ones(self.width))

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
    b0, mask = _relocate(wmask & _ones(width), width)
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
    """The set of nonzero members of S."""
    if s.is_naturals:
        return RelativeIdeal(s, 1, 0)
    return _from_window(s, 0, s._mask ^ 1)


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
    _check_parents(e, f)
    shift = e.min - f.min
    if shift < 0:
        return False  # min(e) is attained and below f entirely
    ext = f.extended_mask(shift + e.width)
    return (e._mask << shift) & ~ext == 0


def sum(e: RelativeIdeal, f: RelativeIdeal) -> RelativeIdeal:
    """The sumset e + f (product of the monomial modules): e is the union
    of the g + S over its minimal generators g, so e + f is the union of
    the translates g + f, the OR of f's mask shifted by each generator
    offset; the tail of each translate lies past the window."""
    _check_parents(e, f)
    gens = _bit_indices(_generator_mask(e._mask, e.parent.minimal_generators))
    wmask = _or_shifts(f._mask, gens) & _ones(e.width)
    return RelativeIdeal(e.parent, e.min + f.min, wmask)


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
    _check_parents(e, f)
    lo = e.min - f.min
    gens = _bit_indices(_generator_mask(f._mask, e.parent.minimal_generators))
    return _from_window(e.parent, lo, _and_shifts(e.extended_mask(2 * e.width), gens))


def intersect(e: RelativeIdeal, f: RelativeIdeal) -> RelativeIdeal:
    """Set intersection, which is again a relative ideal."""
    _check_parents(e, f)
    lo = max(e.min, f.min)
    width = e.width
    emask = e.extended_mask(lo - e.min + width) >> (lo - e.min)
    fmask = f.extended_mask(lo - f.min + width) >> (lo - f.min)
    return _from_window(e.parent, lo, emask & fmask)


# -- canonical machinery -----------------------------------------------------

def canonical_ideal(s: NumericalSemigroup) -> RelativeIdeal:
    """The canonical ideal {x : frobenius - x not in S}, normalized.

    Its window pattern is the reflected complement of the semigroup's; it
    equals S exactly when S is symmetric.
    """
    width = s.frobenius + 1
    # bit x of the reversed gap mask is set when frobenius - x is a gap
    return RelativeIdeal(s, 0, _reverse(_ones(width) & ~s._mask, width))


def canonical_dual(e: RelativeIdeal) -> RelativeIdeal:
    """Dual against the canonical ideal: K - E."""
    return difference(canonical_ideal(e.parent), e)


def ring_dual(e: RelativeIdeal) -> RelativeIdeal:
    """Dual against the ring: S - E."""
    return difference(unit_ideal(e.parent), e)


def trace_ideal(e: RelativeIdeal) -> RelativeIdeal:
    """The trace E + (S - E): the ideal of S generated by images of maps
    from E to S.  Always a subset of S; equals S exactly for principal E."""
    return sum(e, ring_dual(e))


def is_reflexive(e: RelativeIdeal) -> bool:
    """Whether S - (S - E) is a translate of E (it always contains E)."""
    bidual = ring_dual(ring_dual(e))
    return is_translate(e, bidual) is not None


def minimal_generators(e: RelativeIdeal) -> tuple[int, ...]:
    """E minus (E + M) where M is the maximal ideal set: a minimal
    generating set for E as a module, read off the window mask by
    ``_generator_mask``."""
    if e.width == 0:
        return (e.min,)
    bits = _generator_mask(e._mask, e.parent.minimal_generators)
    return tuple(e.min + k for k in _bit_indices(bits))


def syzygy_two_generated(e: RelativeIdeal) -> RelativeIdeal:
    """First syzygy of a 2-generated ideal, normalized.

    With generators a < b the kernel of S(-a) + S(-b) -> E is the rank-one
    set {z in S : z + (b - a) in S}, shifted; only the difference b - a
    matters up to translation.
    """
    return normalize(_syzygy_raw(e, minimal_generators(e)))[0]


def _syzygy_raw(e: RelativeIdeal, gens: tuple[int, ...]) -> RelativeIdeal:
    """The unnormalized syzygy of e, given its minimal generators."""
    if len(gens) != 2:
        raise NotTwoGenerated(
            f"ideal has {len(gens)} minimal generators, need exactly 2"
        )
    a, b = gens
    shifted = RelativeIdeal(e.parent, -(b - a), e.parent._mask)
    return intersect(unit_ideal(e.parent), shifted)


# -- isomorphism classes -------------------------------------------------------

def enumerate_ideal_classes(s: NumericalSemigroup) -> tuple[RelativeIdeal, ...]:
    """Every normalized relative ideal, each given as S with a set of gaps
    adjoined.

    A set G of gaps gives an ideal exactly when it is up-closed: a gap g in
    G forces every gap g + a, for a minimal generator a, into G.  These are
    the classes of the ideal class monoid (Casabella, D'Anna and
    García-Sánchez).  A depth-first walk decides the gaps in decreasing
    order, so the gaps that g forces are decided before g.  It may always
    leave g out, and takes g in only when all of them are already chosen.
    Every branch then ends in a class, so the work is proportional to the
    genus times the number of classes, not to 2^genus.  The walk keeps an
    explicit stack, so the genus is not bounded by the recursion limit.

    Deterministic order: by number of adjoined gaps, then by the ascending
    list of adjoined gaps, compared lexicographically.  So S itself comes
    first, and the normalization (every gap adjoined) last.
    """
    width = s.frobenius + 1
    gapmask = _ones(width) & ~s._mask
    gaps = sorted(_bit_indices(gapmask), reverse=True)
    # g + a is forced exactly when it is a gap
    forced = [_or_shifts(1 << g, s.minimal_generators) & gapmask for g in gaps]
    found = []
    stack = [(0, 0)]
    while stack:
        i, chosen = stack.pop()
        if i == len(gaps):
            found.append(chosen)
            continue
        stack.append((i + 1, chosen))
        if forced[i] & ~chosen == 0:
            stack.append((i + 1, chosen | 1 << gaps[i]))
    # Two sets of one size: their ascending lists first differ at the
    # lowest bit of a ^ b, and the set holding it comes first.  Reversed
    # over [0, frobenius], that bit is the highest one where the masks
    # differ, so the larger reversed mask comes first.
    found.sort(key=lambda m: (m.bit_count(), -_reverse(m, width)))
    return tuple(RelativeIdeal(s, 0, s._mask | m) for m in found)


# -- textual form ---------------------------------------------------------------

def format_ideal(e: RelativeIdeal) -> str:
    """Canonical textual form: "{a,b,c}∪[t,∞)" listing every member below
    the least valid tail threshold t, or "[t,∞)" for a plain ray."""
    width = e.width
    mask = e._mask
    missing = _ones(width) & ~mask
    if missing == 0:
        return f"[{e.min},∞)"
    top_gap = missing.bit_length() - 1
    lo = e.min
    # bin(mask)[:1:-1] lists the bits from bit 0 up
    bits = bin(mask)[:1:-1][:top_gap]
    head = ",".join([str(lo + k) for k, c in enumerate(bits) if c == "1"])
    return f"{{{head}}}∪[{lo + top_gap + 1},∞)"


def _dump(obj) -> str:
    """The JSON format of every report and query: sorted keys, two-space
    indent, non-ASCII kept (the caller encodes it as UTF-8)."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2)


def parse_ideal(s: NumericalSemigroup, text: str) -> RelativeIdeal:
    """Parse the textual ideal form; accepts any valid tail threshold,
    e.g. both "[5,∞)" and "{5,6,7}∪[8,∞)" for the same ray."""
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
        body = raw[close + 1 :]
        if body.startswith("∪"):
            body = body[1:]
    if not (body.startswith("[") and (body.endswith(",∞)") or body.endswith(",inf)"))):
        raise ValueError(f"expected a tail of the form [t,∞) in {text!r}")
    t = int(body[1 : body.index(",")])
    lo = min(head) if head else t
    lo = min(lo, t)
    width = s.frobenius + 1
    wmask = 0
    for z in head:
        k = z - lo
        if k < width:
            wmask |= 1 << k
    for k in range(max(0, t - lo), width):
        wmask |= 1 << k
    return _from_window(s, lo, wmask).validate()
