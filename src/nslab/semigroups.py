"""Exact numerical semigroup arithmetic and enumeration by genus.

A numerical semigroup is a cofinite subset of the nonnegative integers that
contains 0 and is closed under addition.  It is stored as its Frobenius
number (the largest integer not in the set) together with a bitmask of the
members below it, so membership is a constant-time bit test and every set
that shows up later (ideals, colons, traces) inherits a finite window with
a provable "everything beyond this is a member" tail.

Enumeration walks the standard semigroup tree: the children of S are the
sets S \\ {x} where x runs over the minimal generators of S larger than
the Frobenius number.  Every semigroup of genus g appears exactly once at
depth g and the traversal order is deterministic (children sorted by the
removed generator, depth-first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Iterator


class EmptyGenerators(ValueError):
    """A generating set was empty."""


class GcdNotOne(ValueError):
    """The generators have a common divisor greater than one."""


class NotAMember(ValueError):
    """An operation required an element of the semigroup and got a non-member."""


def _ones(n: int) -> int:
    return (1 << n) - 1


def _bit_indices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class InvariantRecord:
    """Numerical invariants of a semigroup (ring-theoretic shadows included)."""

    embedding_dimension: int
    multiplicity: int
    genus: int
    frobenius: int
    pseudo_frobenius: tuple[int, ...]
    cm_type: int
    symmetric: bool
    almost_symmetric: bool
    med: bool

    def to_json_dict(self) -> dict:
        return {
            "embedding_dimension": self.embedding_dimension,
            "multiplicity": self.multiplicity,
            "genus": self.genus,
            "frobenius": self.frobenius,
            "pseudo_frobenius": list(self.pseudo_frobenius),
            "cm_type": self.cm_type,
            "symmetric": self.symmetric,
            "almost_symmetric": self.almost_symmetric,
            "med": self.med,
        }


@dataclass(frozen=True)
class NumericalSemigroup:
    """A numerical semigroup, immutable and hashable.

    ``_mask`` holds membership for [0, frobenius]; every larger integer is a
    member.  For the full semigroup of nonnegative integers the Frobenius
    number is -1 and the window is empty.
    """

    minimal_generators: tuple[int, ...]
    frobenius: int
    multiplicity: int
    genus: int
    _mask: int = field(repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        # the window determines everything else
        return self.frobenius == other.frobenius and self._mask == other._mask

    def __hash__(self) -> int:
        try:
            return self._hashcache
        except AttributeError:
            h = hash((self.frobenius, self._mask))
            object.__setattr__(self, "_hashcache", h)
            return h

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
        out = []
        for z in range(min(stop, self.frobenius + 1)):
            if self._mask >> z & 1:
                out.append(z)
        out.extend(range(self.frobenius + 1, stop))
        return out

    @property
    def gap_set(self) -> frozenset[int]:
        return frozenset(
            z for z in range(1, self.frobenius + 1) if not self._mask >> z & 1
        )

    @property
    def embedding_dimension(self) -> int:
        return len(self.minimal_generators)

    @property
    def is_naturals(self) -> bool:
        return self.frobenius == -1

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

    def invariants(self) -> InvariantRecord:
        gens = self.minimal_generators
        if self.is_naturals:
            pf: tuple[int, ...] = (-1,)
        else:
            pf = tuple(
                g
                for g in sorted(self.gap_set)
                if all((g + a) in self for a in gens)
            )
        gaps = sorted(self.gap_set)
        pf_set = set(pf)
        symmetric = 2 * self.genus == self.frobenius + 1
        almost = all(
            g in pf_set
            for g in gaps
            if (self.frobenius - g) in self.gap_set
        )
        return InvariantRecord(
            embedding_dimension=len(gens),
            multiplicity=self.multiplicity,
            genus=self.genus,
            frobenius=self.frobenius,
            pseudo_frobenius=pf,
            cm_type=len(pf),
            symmetric=symmetric,
            almost_symmetric=almost,
            med=self.multiplicity == len(gens),
        )

    # -- the semigroup tree ------------------------------------------------

    def children(self) -> list["NumericalSemigroup"]:
        """Children in the semigroup tree, sorted by the removed generator."""
        out = []
        for x in self.minimal_generators:
            if x > self.frobenius:
                out.append(self._remove(x))
        return out

    def _remove(self, x: int) -> "NumericalSemigroup":
        # Remove a minimal generator x > frobenius; the result is again a
        # numerical semigroup with Frobenius number x.
        new_f = x
        mask = self._mask | (_ones(x) ^ _ones(self.frobenius + 1))
        # bit x stays clear; bits (frobenius, x) are members of self
        if x == self.multiplicity:
            nonzero = mask & ~1
            mult = (nonzero & -nonzero).bit_length() - 1 if nonzero else new_f + 1
        else:
            mult = self.multiplicity
        gens = _minimal_generators_of_mask(mask, new_f, mult)
        return NumericalSemigroup(
            minimal_generators=gens,
            frobenius=new_f,
            multiplicity=mult,
            genus=self.genus + 1,
            _mask=mask,
        )

    def __str__(self) -> str:
        return ",".join(str(g) for g in self.minimal_generators)


def _minimal_generators_of_mask(mask: int, frobenius: int, multiplicity: int) -> tuple[int, ...]:
    """Minimal generators of the semigroup with the given membership window.

    A member s > frobenius + multiplicity splits as (s - e) + e with both
    parts nonzero members, so candidates live in (0, max(F + e, e)].
    """
    limit = max(frobenius + multiplicity, multiplicity)
    ext = mask | (_ones(limit + 1) & ~_ones(frobenius + 1))
    nonzero = ext & ~1
    sums = 0
    rest = nonzero
    while rest:
        low = rest & -rest
        a = low.bit_length() - 1
        if a > limit:
            break
        sums |= nonzero << a
        rest ^= low
    gens = nonzero & ~sums & _ones(limit + 1)
    return tuple(_bit_indices(gens))


def semigroup_from_generators(gens) -> NumericalSemigroup:
    """Build the semigroup of all finite sums of ``gens`` (0 included).

    The input need not be a minimal generating set; minimal generators are
    recomputed.  Raises EmptyGenerators / GcdNotOne when the input cannot
    define a numerical semigroup.
    """
    gens = sorted(set(int(g) for g in gens))
    if not gens:
        raise EmptyGenerators("at least one generator is required")
    if gens[0] <= 0:
        raise ValueError(f"generators must be positive, got {gens[0]}")
    if reduce(math.gcd, gens) != 1:
        raise GcdNotOne(f"gcd of {gens} is not 1")

    mult = gens[0]
    bound = gens[0] * gens[-1] + gens[-1] + 2
    while True:
        full = _ones(bound + 1)
        mask = 1
        for g in gens:
            prev = -1
            while prev != mask:
                prev = mask
                mask |= (mask << g) & full
        complement = full & ~mask
        if not complement:
            frob = -1
            break
        frob = complement.bit_length() - 1
        if bound - frob >= mult:
            # every residue past frob is witnessed by a run of length mult
            break
        bound *= 2

    window = mask & _ones(frob + 1)
    genus = (frob + 1) - window.bit_count() if frob >= 0 else 0
    minimal = _minimal_generators_of_mask(window, frob, mult)
    return NumericalSemigroup(
        minimal_generators=minimal,
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
    for g in gens:
        if g <= 0:
            raise ValueError(f"generators must be positive, got {g}")
    return semigroup_from_generators(gens)


def enumerate_by_genus(genus: int, root: NumericalSemigroup | None = None) -> list[NumericalSemigroup]:
    """All numerical semigroups of the given genus, each exactly once.

    With ``root`` given, only descendants of that subtree are listed, which
    lets callers partition the tree for parallel traversal.  Order is
    depth-first with children sorted by removed generator.
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if root is None:
        root = naturals()
    out: list[NumericalSemigroup] = []

    def walk(node: NumericalSemigroup) -> None:
        if node.genus == genus:
            out.append(node)
            return
        for child in node.children():
            walk(child)

    if root.genus <= genus:
        walk(root)
    return out


def enumerate_up_to_genus(genus_max: int) -> Iterator[NumericalSemigroup]:
    """All semigroups of genus <= genus_max, lowest genus first."""
    for g in range(genus_max + 1):
        yield from enumerate_by_genus(g)
