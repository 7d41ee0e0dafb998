"""``InvariantRecord``, the record ``NumericalSemigroup.invariants`` returns.

It is a frozen dataclass in a module of its own, which ``invariants()``
imports on its first call: ``dataclasses`` loads ``inspect`` and more, and
``nslab enumerate``, which never builds the record, should not pay for
that at start-up.  ``semigroups.InvariantRecord`` resolves to this class.
"""

from __future__ import annotations

from dataclasses import dataclass


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
        return {**vars(self), "pseudo_frobenius": list(self.pseudo_frobenius)}
