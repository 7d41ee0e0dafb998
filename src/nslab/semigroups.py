"""Exact numerical semigroup arithmetic and enumeration by genus.

A numerical semigroup is a cofinite subset of the nonnegative integers that
contains 0 and is closed under addition.  It is stored as its Frobenius
number (the largest integer not in the set) together with a bitmask of the
members below it, so membership is a constant-time bit test and every set
that shows up later (ideals, colons, traces) inherits a finite window with
a provable "everything beyond this is a member" tail.

``semigroup_from_generators`` closes the generators' mask under addition
in one pass of doubling shifts, up to a cut that Brauer's bound on the
Frobenius number places past frobenius + multiplicity.

Enumeration walks the standard semigroup tree: the children of S are the
sets S \\ {x} where x runs over the minimal generators of S larger than
the Frobenius number.  Every semigroup of genus g appears exactly once at
depth g and the traversal order is deterministic (children sorted by the
removed generator, depth-first).  Interior nodes stay plain (generators,
Frobenius number, multiplicity, mask) tuples; only the nodes the walk
returns are built as ``NumericalSemigroup`` objects.

A child's minimal generators come from its parent's, with no search over
the members.  Every minimal generator of a semigroup is at most its
Frobenius number plus its multiplicity m (Rosales and García-Sánchez,
*Numerical Semigroups*, 2009), so removing x keeps the other generators
and can add only x + m, which is tested against them (the proof is in
``_child``).  The invariants are read off the window mask: the
pseudo-Frobenius numbers are the gaps g with every g + a a member
(``_pseudo_frobenius``, the colon rule below by the generators a), and
almost symmetry is Nari's rule 2 * genus = frobenius + type (H. Nari,
*Symmetries on almost symmetric numerical semigroups*, Semigroup Forum,
2013), the type being the number of pseudo-Frobenius numbers.

One mask kernel does the arithmetic of every layer, on window masks
alone:
  * ``_or_shifts``, the sum rule: E + F is the union of the translates
    b + E over the minimal generators b of F, an OR of shifted masks;
  * ``_and_shifts``, the colon rule: E - F is the intersection of the
    E - b over the minimal generators b of F, an AND of E's window,
    extended by w tail bits, shifted down;
  * ``_generator_mask``, the generator rule: the members outside the
    sum of the set with the nonzero members of S;
  * ``_relocate``, the least-element step that moves a window to its
    least member, which for an empty window is its first tail member;
  * ``_membership``, the membership step that reads a set on any range
    of integers;
  * ``_reverse``, the reflection k -> w - 1 - k of a window;
  * ``_pseudo_frobenius``, the colon rule S - M read on the gaps from
    -1 up, so that it finds the naturals' one pseudo-Frobenius number.
``invariants`` and ``semigroup_from_generators`` call it, and so do the
ideal operations of ``ideals``, the class table of
``annihilators.SemigroupContext``, which never builds an ideal to
combine two classes, and the mask checks of ``suites``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache
from itertools import accumulate


class EmptyGenerators(ValueError):
    """A generating set was empty."""


class GcdNotOne(ValueError):
    """The generators have a common divisor greater than one."""


class NotAMember(ValueError):
    """An operation required an element of the semigroup and got a non-member."""


class InternalError(RuntimeError):
    """A check that a theorem guarantees failed inside the library; a bug,
    not bad input.  ``rings.InternalBoundExceeded`` and
    ``annihilators.InconsistentCertificate`` are the two kinds."""


def _ones(n: int) -> int:
    return (1 << n) - 1


def _bit_indices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _or_shifts(mask: int, offsets) -> int:
    """The sum rule: the OR of ``mask << b`` over the offsets, the window
    of the union of the translates b + E.  Bits past the window are left
    for the caller to cut."""
    acc = 0
    for b in offsets:
        acc |= mask << b
    return acc


def _and_shifts(ext: int, offsets) -> int:
    """The colon rule: the AND of ``ext >> b`` over the offsets.  With
    ``ext`` the window of E extended by w tail bits and the offsets those
    of the minimal generators of F (relative to min F), bit j of the
    result, for j < w, says whether min E - min F + j lies in E - F: F is
    the union of the b + S, and E is closed under adding S.  Cut to the
    window by the caller; no offsets give all ones."""
    acc = -1
    for b in offsets:
        acc &= ext >> b
    return acc


def _relocate(wmask: int, w: int) -> tuple[int, int]:
    """The least-element step: a window mask on [0, w) whose integers from
    w on are all members, moved to its least member b0, the lowest bit of
    ``wmask | 1 << w``.  Returns (b0, the window mask at b0); the top b0
    bits of the new window are tail.  An empty window's least member is
    w, the first tail member, so it becomes the ray from w."""
    least = wmask | 1 << w
    b0 = (least & -least).bit_length() - 1
    return b0, (wmask >> b0) | ((1 << w) - (1 << (w - b0)))


def _generator_mask(mask: int, gens) -> int:
    """The bits of an ideal's window mask that are minimal generators: the
    members of E outside E + M, where M = S - {0} is the union of the a + S
    over the minimal generators ``gens`` of S, so E + M is the union of
    the E + a.  Every member past the window is min + s with s > frobenius,
    inside min + M, so all generators lie in the window."""
    return mask & ~_or_shifts(mask, gens)


def _membership(least: int, mask: int, width: int, lo: int, hi: int) -> int:
    """The membership step: bit d - lo, for lo <= d < hi, says whether d
    lies in the set with least element ``least``, window ``mask`` over
    [least, least + width) and every integer from least + width on.
    ``mask | -1 << width`` is that set from its least element on, the tail
    being the infinite ones of a negative int, so a least element below lo
    is a right shift."""
    ext = mask | -1 << width
    ext = ext << least - lo if least >= lo else ext >> lo - least
    return ext & (1 << hi - lo) - 1


def _reverse(mask: int, width: int) -> int:
    """The reflection of a window: bit k of the result is bit
    width - 1 - k of ``mask``."""
    return int(format(mask, f"0{width}b")[::-1], 2)


def _pseudo_frobenius(gens, mask: int, w: int) -> int:
    """The pseudo-Frobenius kernel: the gaps g in [-1, w) of a semigroup
    with window ``mask`` over [0, w) and every g + a a member, over its
    minimal generators ``gens`` (the colon rule, S - M on the gaps); bit k
    stands for g = k - 1.  g + a is at most w - 1 + max(gens), so
    ``_membership`` read up to there answers every test.  -1 is a
    pseudo-Frobenius number only of the naturals, whose window is empty:
    in any other semigroup -1 + multiplicity is a gap."""
    ext = _membership(0, mask, w, -1, w + gens[-1])
    return _ones(w + 1) & ~ext & _and_shifts(ext, gens)


class _Frozen:
    """The one value protocol of the package: ``NumericalSemigroup``,
    ``ideals.RelativeIdeal`` and every frozen record (``InvariantRecord``,
    ``rings.ClassificationRecord``, ``annihilators.CaCertificate``,
    ``suites.Witness``, ``harness.SuiteReport``) use it.  A value is frozen
    and slotted; ``==`` and ``hash`` go over the tuple ``_compared()``,
    every slot unless a type says less (``NotImplemented`` for another
    class); pickles and copies keep every slot, in ``__slots__`` order.
    ``__init__`` takes the slots as a generated dataclass init does, by
    position or by name, and ``__repr__`` shows the slots whose names do
    not start with ``_``.  A type with an ``__init__`` of its own stores
    its fields through the slot descriptors' setters, past
    ``__setattr__``; a write or a delete raises
    ``dataclasses.FrozenInstanceError``.

    It is written by hand, not generated by ``dataclasses``: that module
    loads ``inspect``, ``ast`` and ``dis``, which every command would
    import at start-up, and on Python 3.11 the generated ``__setattr__``
    of a slotted frozen dataclass raises ``TypeError`` for a name that is
    not a field.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        given = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or given.keys() != set(names):
            raise TypeError(f"{self.__class__.__qualname__}() takes the fields {', '.join(names)}")
        self.__setstate__(tuple(given[name] for name in names))

    def _compared(self) -> tuple:
        return self.__getstate__()

    def _fields(self) -> dict:
        """Each slot's name and value, in ``__slots__`` order."""
        return dict(zip(self.__slots__, self.__getstate__()))

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__ if not name.startswith("_")
        )
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self) -> int:
        return hash(self._compared())

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class InvariantRecord(_Frozen):
    """Numerical invariants of a semigroup (ring-theoretic shadows included)."""

    __slots__ = ("embedding_dimension", "multiplicity", "genus", "frobenius", "pseudo_frobenius",
                 "cm_type", "symmetric", "almost_symmetric", "med")

    def to_json_dict(self) -> dict:
        return {**self._fields(), "pseudo_frobenius": list(self.pseudo_frobenius)}


class NumericalSemigroup(_Frozen):
    """A numerical semigroup, immutable and hashable.

    ``_mask`` holds membership for [0, frobenius]; every larger integer is a
    member.  For the full semigroup of nonnegative integers the Frobenius
    number is -1 and the window is empty.  ``_offsets`` is the generator
    memo of ``_generator_offsets``: made on first use, outside ``==``,
    ``hash`` and ``repr``, kept by pickles and copies.  ``__init__``
    validates nothing.
    """

    __slots__ = ("minimal_generators", "frobenius", "multiplicity", "genus", "_mask", "_offsets")

    minimal_generators: tuple[int, ...]
    frobenius: int
    multiplicity: int
    genus: int
    _mask: int
    _offsets: dict | None

    def __init__(
        self,
        minimal_generators: tuple[int, ...],
        frobenius: int,
        multiplicity: int,
        genus: int,
        _mask: int,
    ) -> None:
        _set_gens(self, minimal_generators)
        _set_frobenius(self, frobenius)
        _set_multiplicity(self, multiplicity)
        _set_genus(self, genus)
        _set_mask(self, _mask)
        _set_offsets(self, None)

    def _compared(self) -> tuple:
        return (self.minimal_generators, self.frobenius, self.multiplicity, self.genus, self._mask)

    # -- membership ------------------------------------------------------

    def contains(self, z: int) -> bool:
        if z < 0:
            return False
        if z > self.frobenius:
            return True
        return bool(self._mask >> z & 1)

    __contains__ = contains

    def members_below(self, stop: int) -> list[int]:
        """All members z with 0 <= z < stop."""
        return list(_bit_indices(_membership(0, self._mask, self.frobenius + 1, 0, max(stop, 0))))

    @property
    def gap_set(self) -> frozenset[int]:
        return frozenset(_bit_indices(_ones(self.frobenius + 1) & ~self._mask))

    @property
    def embedding_dimension(self) -> int:
        return len(self.minimal_generators)

    @property
    def is_naturals(self) -> bool:
        return self.frobenius == -1

    def _generator_offsets(self, mask: int) -> tuple[int, ...]:
        """The minimal-generator offsets of the ideal with window ``mask``,
        ``_generator_mask`` read as ascending bit indices, computed once per
        mask and semigroup.  A window with no generator bit gives (0,): the
        ideal is generated by its least element.  Only the empty window of
        the naturals has none, since bit 0 of any other ideal window is
        set and never lies in E + M.  The memo is one dict per semigroup
        object, made on first use, so it lives and dies with it."""
        memo = self._offsets
        if memo is None:
            memo = {}
            _set_offsets(self, memo)
        offs = memo.get(mask)
        if offs is None:
            bits = _generator_mask(mask, self.minimal_generators)
            offs = memo[mask] = tuple(_bit_indices(bits)) or (0,)
        return offs

    # -- derived data ------------------------------------------------------

    def apery_set(self, n: int) -> frozenset[int]:
        """The n smallest members, one per residue class mod n.  n must be a
        positive member."""
        if n <= 0 or n not in self:
            raise NotAMember(f"{n} is not a positive element of <{self}>")
        out = []
        for r in range(n):
            z = r
            while z not in self:
                z += n
            out.append(z)
        return frozenset(out)

    def is_almost_symmetric(self) -> bool:
        """Nari's rule: S is almost symmetric exactly when 2 * genus =
        frobenius + type, with the type counted by ``_pseudo_frobenius``."""
        pfm = _pseudo_frobenius(self.minimal_generators, self._mask, self.frobenius + 1)
        return 2 * self.genus == self.frobenius + pfm.bit_count()

    def invariants(self) -> InvariantRecord:
        gens = self.minimal_generators
        pfm = _pseudo_frobenius(gens, self._mask, self.frobenius + 1)
        pf = tuple(k - 1 for k in _bit_indices(pfm))
        return InvariantRecord(
            embedding_dimension=len(gens),
            multiplicity=self.multiplicity,
            genus=self.genus,
            frobenius=self.frobenius,
            pseudo_frobenius=pf,
            cm_type=len(pf),
            symmetric=2 * self.genus == self.frobenius + 1,
            almost_symmetric=2 * self.genus == self.frobenius + len(pf),
            med=self.multiplicity == len(gens),
        )

    # -- the semigroup tree ------------------------------------------------

    def children(self) -> list["NumericalSemigroup"]:
        """Children in the semigroup tree, sorted by the removed generator."""
        return enumerate_by_genus(self.genus + 1, root=self)

    def __str__(self) -> str:
        return ",".join(str(g) for g in self.minimal_generators)


# the slot descriptors' setters, which store a field past the frozen __setattr__
_set_gens = NumericalSemigroup.minimal_generators.__set__
_set_frobenius = NumericalSemigroup.frobenius.__set__
_set_multiplicity = NumericalSemigroup.multiplicity.__set__
_set_genus = NumericalSemigroup.genus.__set__
_set_mask = NumericalSemigroup._mask.__set__
_set_offsets = NumericalSemigroup._offsets.__set__


def _child(gens: tuple[int, ...], frob: int, m: int, mask: int, i: int) -> tuple:
    """S \\ {x} for x = gens[i] > frob, where S has minimal generators ``gens``,
    Frobenius number frob, multiplicity m and window ``mask``: the child's
    (gens, frobenius, multiplicity, mask), with Frobenius number x.

    If x is the multiplicity m, then m > frobenius and S is {0}
    together with [m, oo); the child is {0} together with [m + 1, oo),
    generated by m + 1, ..., 2m + 1.

    Otherwise the multiplicity stays m, and removing x deletes only
    the decompositions (sums of two nonzero members) that use x.  An
    old generator other than x had none, so it stays a generator.  A
    member s < x + m has no decomposition through x either, because
    s - x < m is no nonzero member, so it is a generator of S \\ {x}
    exactly when it was one of S.  Every minimal generator of S \\ {x}
    is at most its Frobenius number plus its multiplicity, x + m, so
    x + m, which lost its decomposition x + m, is the only candidate
    for a new generator.  A decomposable member has a minimal
    generator as one part, so x + m is a generator exactly when no
    remaining generator g < x + m has x + m - g in S \\ {x}; g >= m
    puts x + m - g at most x, inside the new window.
    """
    x = gens[i]
    # bit x stays clear; bits (frob, x) are members of S
    mask |= _ones(x) ^ _ones(frob + 1)
    if x == m:
        return tuple(range(x + 1, 2 * x + 2)), x, x + 1, mask
    rest = gens[:i] + gens[i + 1 :]
    top = x + m
    for g in rest:
        if mask >> (top - g) & 1:
            break
    else:
        rest += (top,)
    return rest, x, m, mask


def semigroup_from_generators(gens) -> NumericalSemigroup:
    """Build the semigroup of all finite sums of ``gens`` (0 included).

    The input need not be a minimal generating set; minimal generators are
    recomputed.  The closure runs once, up to the smallest generator times
    the first at which the running gcd is 1, which Brauer's bound shows is
    past frobenius + multiplicity.
    Raises EmptyGenerators / GcdNotOne when the input cannot define a
    numerical semigroup.
    """
    gens = sorted(set(int(g) for g in gens))
    if not gens:
        raise EmptyGenerators("at least one generator is required")
    if gens[0] <= 0:
        raise ValueError(f"generators must be positive, got {gens[0]}")
    top = next((g for g, d in zip(gens, accumulate(gens, math.gcd)) if d == 1), None)
    if top is None:
        raise GcdNotOne(f"gcd of {gens} is not 1")

    mult = gens[0]
    # Brauer's bound F <= (a1 - 1)(ak - 1) - 1 for a gcd-1 set a1 < ... < ak
    # (A. Brauer, On a problem of partitions, Amer. J. Math. 64, 1942), on
    # the shortest gcd-1 prefix, ak = top, bounds the whole set too, since
    # adding generators only removes gaps: frob + mult <= mult * top - top,
    # below the cut, so one pass decides every integer the window and the
    # minimal generators read.
    bound = mult * top
    full = _ones(bound + 1)
    mask = 1
    for g in gens:
        # after the shifts by g, 2g, ..., 2^(k-1) g the mask holds
        # every x + j g with x in the old mask and 0 <= j < 2^k
        shift = g
        while shift <= bound:
            mask |= (mask << shift) & full
            shift <<= 1
    frob = (full & ~mask).bit_length() - 1

    window = mask & _ones(frob + 1)
    genus = (frob + 1) - window.bit_count()
    # A minimal generator is at most frob + mult, and the nonzero members
    # M satisfy M + M = the union of g + M over the input generators g,
    # since every member of M is some g plus a member of S; a g past the
    # limit is not minimal, and g + M lies past the limit.
    limit = max(frob + mult, mult)
    nonzero = mask & _ones(limit + 1) & ~1
    small = [g for g in gens if g <= limit]
    return NumericalSemigroup(
        minimal_generators=tuple(_bit_indices(_generator_mask(nonzero, small))),
        frobenius=frob,
        multiplicity=mult,
        genus=genus,
        _mask=window,
    )


@lru_cache(maxsize=1)
def naturals() -> NumericalSemigroup:
    """The semigroup of all nonnegative integers (the regular ring)."""
    return semigroup_from_generators([1])


def parse_semigroup(text: str) -> NumericalSemigroup:
    """Parse the textual form "3,5,7"; entries must be positive integers."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise EmptyGenerators("no generators in %r" % text)
    try:
        gens = [int(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"bad generator list {text!r}: {exc}") from None
    return semigroup_from_generators(gens)


def enumerate_by_genus(genus: int, root: NumericalSemigroup | None = None) -> list[NumericalSemigroup]:
    """All numerical semigroups of the given genus, each exactly once.

    With ``root`` given, only descendants of that subtree are listed, which
    lets callers partition the tree for parallel traversal.  Order is
    depth-first with children sorted by removed generator.  Interior nodes
    stay tuples (``_child``); only the returned nodes are built as objects.
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if root is None:
        root = naturals()
    out: list[NumericalSemigroup] = []

    def walk(gens: tuple[int, ...], frob: int, m: int, mask: int, depth: int) -> None:
        if depth == genus:
            out.append(NumericalSemigroup(gens, frob, m, genus, mask))
            return
        for i, x in enumerate(gens):
            if x > frob:
                walk(*_child(gens, frob, m, mask, i), depth + 1)

    if root.genus <= genus:
        walk(root.minimal_generators, root.frobenius, root.multiplicity, root._mask, root.genus)
    return out


def enumerate_up_to_genus(genus_max: int) -> Iterator[NumericalSemigroup]:
    """All semigroups of genus <= genus_max, lowest genus first."""
    for g in range(genus_max + 1):
        yield from enumerate_by_genus(g)
