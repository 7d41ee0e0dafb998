"""Ring-level invariants of the monomial curve: conductor, blowups,
Ulrich predicates, canonical reduction number and the Gorenstein-flavor
classification.

:class:`Ring` is the one builder of the ring-level facts of a semigroup
ring: the invariants, the maximal ideal, the canonical ideal K, the
conductor, the classification and the canonical reduction number, each
built on first read and then kept.  ``classify``,
``canonical_reduction_number``, ``nslab info`` and the class table
``annihilators.SemigroupContext``, which is a ``Ring``, all read it.

All predicates are exact set computations on relative ideals.  The
classification flags form the standard hierarchy

    gorenstein  =>  almost_gorenstein  =>  nearly_gorenstein

with "nearly" meaning the canonical trace contains the maximal ideal and
"far-flung" meaning the canonical trace equals the conductor.
"""

from __future__ import annotations

from functools import cached_property

from .semigroups import InternalError, NumericalSemigroup, _Record, _ones
from .ideals import (
    RelativeIdeal,
    canonical_ideal,
    format_ideal,
    is_subset,
    is_translate,
    maximal_ideal,
    normalize,
    ring_dual,
    sum as ideal_sum,
    trace_ideal,
    unit_ideal,
)


class InternalBoundExceeded(InternalError):
    """A theorem-backed iteration bound was violated; indicates a bug."""


def conductor_ideal(s: NumericalSemigroup) -> RelativeIdeal:
    """The conductor {z >= frobenius + 1}: the largest common ideal of the
    ring and its normalization.  For the full semigroup it is the ring."""
    width = s.frobenius + 1
    return RelativeIdeal(s, width, _ones(width))


def _stable_power(power: RelativeIdeal, e: RelativeIdeal, bound: int) -> tuple[RelativeIdeal, int]:
    """Add ``e`` to ``power`` until the sum stops growing.  Returns the
    stable power and the number of steps that grew it; a theorem bounds
    that number below ``bound``, so reaching it raises
    InternalBoundExceeded."""
    steps = 0
    while True:
        nxt = ideal_sum(power, e)
        if nxt == power:
            return power, steps
        power = nxt
        steps += 1
        if steps >= bound:
            raise InternalBoundExceeded(
                f"power chain of {format_ideal(e)} over <{e.parent}> did not "
                f"stabilize within {bound} steps"
            )


def blowup(e: RelativeIdeal) -> RelativeIdeal:
    """The blowup: the union of the colons nE - nE over all n.

    After normalizing E to least element 0 the power chain nE is an
    increasing chain of subsets of a fixed window, so it stabilizes; the
    stable power T is a semigroup containing S and equals T - T, which is
    the whole union.  (Stopping on consecutive equality of the colon chain
    instead would be unsound: the colons can stall below the union while
    the powers are still growing.)  The chain grows fewer than
    max(multiplicity, genus + 2) times.
    """
    e0 = e if e.min == 0 else normalize(e)[0]
    s = e.parent
    return _stable_power(e0, e0, max(s.multiplicity, s.genus + 2))[0]


def b_ideal(e: RelativeIdeal) -> RelativeIdeal:
    """The conductor of the ring into the blowup: S - B(E)."""
    return ring_dual(blowup(e))


def is_ulrich(e: RelativeIdeal, i: RelativeIdeal) -> bool:
    """Whether E is I-Ulrich: I + E is a translate of E (the translation
    can only be by min(I))."""
    return is_translate(e, ideal_sum(i, e)) is not None


class ClassificationRecord(_Record):
    __slots__ = ("gorenstein", "almost_gorenstein", "nearly_gorenstein", "far_flung_gorenstein",
                 "canonical_reduction_number", "med", "canonical_trace", "conductor")


class Ring:
    """The ring-level facts of one semigroup ring, each built on first
    read and then kept: ``inv`` (the invariants), ``mset`` (the maximal
    ideal), ``k`` (the canonical ideal), ``conductor``, ``classification``
    and ``canred``.  ``annihilators.SemigroupContext``, the class table,
    is a ``Ring``, so verify builds each fact once per semigroup."""

    def __init__(self, s: NumericalSemigroup):
        self.s = s

    inv = cached_property(lambda self: self.s.invariants())
    mset = cached_property(lambda self: maximal_ideal(self.s))
    k = cached_property(lambda self: canonical_ideal(self.s))
    conductor = cached_property(lambda self: conductor_ideal(self.s))

    @cached_property
    def classification(self) -> ClassificationRecord:
        """Gorenstein-flavor classification of the semigroup ring.

        The almost-Gorenstein flag comes from the combinatorial
        almost-symmetry test and is cross-checked against the maximal
        ideal being Ulrich with respect to the canonical ideal; a mismatch
        would be a bug, not data.  The canonical reduction number is the
        least n >= 0 with (n+1)K a translate of nK; since K is normalized
        the translation is forced to be 0, so this is plain stabilization
        of the power chain, bounded by multiplicity - 1.
        """
        s, inv, k, m = self.s, self.inv, self.k, self.mset
        tr = trace_ideal(k)
        if is_ulrich(m, k) != inv.almost_symmetric:
            raise InternalError(f"almost-symmetry test and Ulrich test disagree on <{s}>")

        return ClassificationRecord(
            gorenstein=inv.symmetric,
            almost_gorenstein=inv.almost_symmetric,
            nearly_gorenstein=is_subset(m, tr),
            far_flung_gorenstein=tr == self.conductor,
            canonical_reduction_number=_stable_power(unit_ideal(s), k, s.multiplicity)[1],
            med=inv.med,
            canonical_trace=tr,
            conductor=self.conductor,
        )

    canred = property(lambda self: self.classification.canonical_reduction_number)


def classify(s: NumericalSemigroup) -> ClassificationRecord:
    """Gorenstein-flavor classification of the semigroup ring, as
    ``Ring.classification`` builds it."""
    return Ring(s).classification


def canonical_reduction_number(s: NumericalSemigroup) -> int:
    """Least n >= 0 with (n+1)K a translate of nK for the monomial
    canonical ideal K, as ``Ring.canred`` reads it."""
    return Ring(s).canred
