"""Slow, independent reference implementations used as test oracles.

Everything here works on explicit finite member lists plus a tail bound
derived from first principles (never from the library's window code), so a
disagreement points at the fast path.
"""

from __future__ import annotations

from itertools import combinations


class SlowSet:
    """A set of integers given by explicit members below a tail threshold;
    every integer >= tail is a member."""

    def __init__(self, members, tail):
        self.tail = tail
        self.members = frozenset(m for m in members if m < tail)

    def __contains__(self, z: int) -> bool:
        return z >= self.tail or z in self.members

    @property
    def least(self) -> int:
        return min(self.members) if self.members else self.tail

    def upto(self, hi: int) -> list[int]:
        out = sorted(m for m in self.members if m < hi)
        out.extend(range(self.tail, hi))
        return out

    def same_set(self, other: "SlowSet") -> bool:
        hi = max(self.tail, other.tail) + 1
        lo = min(self.least, other.least) - 1
        return all((z in self) == (z in other) for z in range(lo, hi))


def from_ideal(e) -> SlowSet:
    return SlowSet(e.members_below(e.tail_start), e.tail_start)


def agrees(e, slow: SlowSet) -> bool:
    """Library ideal versus slow set, compared over a generous range."""
    hi = max(e.tail_start, slow.tail) + 2
    lo = min(e.min, slow.least) - 2
    return all(e.contains(z) == (z in slow) for z in range(lo, hi))


def slow_sum(a: SlowSet, b: SlowSet) -> SlowSet:
    tail = min(a.least + b.tail, b.least + a.tail)
    members = set()
    for x in a.upto(tail - b.least):
        for y in b.upto(tail - x):
            members.add(x + y)
    return SlowSet(members, tail)


def slow_colon(a: SlowSet, b: SlowSet) -> SlowSet:
    """{z : z + b inside a}; once z + min(b) clears a's tail every
    constraint holds, which bounds both the scan and the quantifier."""
    tail = a.tail - b.least
    lo = a.least - b.least
    members = []
    for z in range(lo, tail):
        if all((z + y) in a for y in b.upto(a.tail - z)):
            members.append(z)
    return SlowSet(members, tail)


def shifted(a: SlowSet, x: int) -> SlowSet:
    """The translate x + a."""
    return SlowSet([m + x for m in a.members], a.tail + x)


def slow_blowup(e: SlowSet) -> SlowSet:
    """The stable power of the normalized E (E contains 0, so nE grows)."""
    e0 = shifted(e, -e.least)
    power = e0
    while True:
        nxt = slow_sum(power, e0)
        if nxt.same_set(power):
            return power
        power = nxt


def slow_intersect(a: SlowSet, b: SlowSet) -> SlowSet:
    tail = max(a.tail, b.tail)
    members = [z for z in a.upto(tail) if z in b]
    return SlowSet(members, tail)


def slow_stable_annihilator(s_set: SlowSet, e: SlowSet) -> SlowSet:
    """Definitional check: elements whose product with every stable
    endomorphism lands in the maps-through-free part."""
    endos = slow_colon(e, e)
    through_free = slow_sum(e, slow_colon(s_set, e))
    return slow_colon(through_free, endos)


def brute_members(gens, hi: int) -> set[int]:
    """All sums of the generators up to hi, by fixpoint iteration."""
    out = {0}
    changed = True
    while changed:
        changed = False
        for g in gens:
            new = {x + g for x in out if x + g <= hi} - out
            if new:
                out |= new
                changed = True
    return out


def brute_ideal_classes(gens) -> list[SlowSet]:
    """Every normalized relative ideal of the semigroup generated by
    ``gens``, as S with a subset of its gaps adjoined, found by filtering
    all gap subsets for closure under adding a generator.  Ordered by
    number of adjoined gaps, then by the ascending list of adjoined gaps.

    Schur's bound puts the Frobenius number below min(gens) * max(gens),
    so every integer from that product on is a member.
    """
    tail = min(gens) * max(gens)
    members = brute_members(gens, tail)
    gaps = [z for z in range(tail) if z not in members]
    out = []
    for size in range(len(gaps) + 1):
        for combo in combinations(gaps, size):
            chosen = set(combo)
            if all(
                g + a >= tail or g + a in members or g + a in chosen
                for g in combo
                for a in gens
            ):
                out.append(SlowSet(members | chosen, tail))
    return out


def brute_gap_sets(genus: int) -> set[frozenset[int]]:
    """Gap sets of all numerical semigroups of a genus, by filtering
    subsets of {1..2g} for additive closure of the complement."""
    if genus == 0:
        return {frozenset()}
    out = set()
    for combo in combinations(range(1, 2 * genus + 1), genus):
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
            out.add(frozenset(gaps))
    return out


def brute_minimal_generators(members, hi: int) -> list[int]:
    """Nonzero members up to hi that are not a sum of two nonzero members.
    ``members`` must hold every member up to hi."""
    nonzero = sorted(z for z in members if 0 < z <= hi)
    return [
        z for z in nonzero
        if not any((z - y) in members for y in nonzero if y < z)
    ]


def brute_invariants(gens) -> dict:
    """The invariant record of the semigroup generated by ``gens``, in the
    form of ``InvariantRecord.to_json_dict``, straight from the definitions:

      * pseudo-Frobenius numbers: the non-members z with z + M inside S,
        M the nonzero members (for S = N this is -1 alone),
      * symmetric: z in S exactly when frobenius - z is not,
      * almost symmetric (Barucci and Froberg): K + M inside M, with the
        canonical ideal K = {x : frobenius - x not in S}.

    Schur's bound puts the Frobenius number below min(gens) * max(gens).
    """
    tail = min(gens) * max(gens)
    hi = tail + min(gens)
    members = brute_members(gens, hi)

    def in_s(z: int) -> bool:
        return z >= tail or (z >= 0 and z in members)

    gaps = [z for z in range(tail) if not in_s(z)]
    frob = max(gaps, default=-1)
    nonzero = sorted(z for z in members if z > 0)
    minimal = brute_minimal_generators(members, hi)
    # z + y with y > frob - z is past the Frobenius number, so a member
    pf = [
        z for z in range(-1, frob + 1)
        if not in_s(z) and all(in_s(z + y) for y in nonzero if y <= frob - z)
    ]
    canonical = [x for x in range(frob + 1) if not in_s(frob - x)]
    return {
        "embedding_dimension": len(minimal),
        "multiplicity": nonzero[0],
        "genus": len(gaps),
        "frobenius": frob,
        "pseudo_frobenius": pf,
        "cm_type": len(pf),
        "symmetric": all(in_s(z) != in_s(frob - z) for z in range(frob + 1)),
        "almost_symmetric": all(
            in_s(x + y) for x in canonical for y in nonzero if x + y <= frob
        ),
        "med": nonzero[0] == len(minimal),
    }
