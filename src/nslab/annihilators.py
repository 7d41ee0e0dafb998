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
"""

from __future__ import annotations

from dataclasses import dataclass

from .semigroups import NumericalSemigroup
from .ideals import (
    IdealClassList,
    RelativeIdeal,
    canonical_dual,
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
from .rings import conductor_ideal

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


class InconsistentCertificate(RuntimeError):
    """Two statements the certificate relies on disagree; indicates a bug."""


def stable_annihilator(e: RelativeIdeal) -> RelativeIdeal:
    """Annihilator of the stable endomorphisms of E, as an ideal of S.

    Principal E gives the whole ring: every endomorphism factors through
    the free module, so nothing is left to annihilate.
    """
    return _stable_annihilator(e, trace_ideal(e))


def _stable_annihilator(e: RelativeIdeal, trace: RelativeIdeal) -> RelativeIdeal:
    """stable_annihilator(e) given the trace of e, for callers that hold it."""
    return difference(trace, difference(e, e))


def category_annihilator(classes: IdealClassList) -> RelativeIdeal:
    """Intersection of the stable annihilators over every monomial ideal
    class of ``classes.parent``, as listed by enumerate_ideal_classes.
    Reported as computed, never replaced by the expected value."""
    acc = unit_ideal(classes.parent)
    for cls in classes:
        acc = intersect(acc, stable_annihilator(cls))
    return acc


def duality_closure_shadow(
    classes: IdealClassList,
) -> tuple[bool, RelativeIdeal | None]:
    """Whether the canonical dual of every non-principal reflexive class in
    ``classes`` is again reflexive.  On failure returns the first witness
    in enumeration order."""
    unit = unit_ideal(classes.parent)
    for cls in classes:
        if cls == unit:
            continue
        if not is_reflexive(cls):
            continue
        if not is_reflexive(canonical_dual(cls)):
            return False, cls
    return True, None


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
    cond = conductor_ideal(s)
    classes = enumerate_ideal_classes(s)
    shadow = category_annihilator(classes)
    closure, witness = duality_closure_shadow(classes)

    if not is_subset(cond, shadow):
        raise InconsistentCertificate(
            f"conductor lower bound fails on <{s}>: "
            f"{format_ideal(cond)} vs {format_ideal(shadow)}"
        )

    if not s.is_naturals:
        normalization_ann = stable_annihilator(normalization_ideal(s))
        if normalization_ann != cond:
            raise InconsistentCertificate(
                f"stable annihilator of the normalization differs from the "
                f"conductor on <{s}>"
            )

    inv = s.invariants()

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
        return build(STATUS_REGULAR, value=unit_ideal(s), tags=(TAG_REGULAR,))

    if inv.symmetric:
        if shadow != cond:
            raise InconsistentCertificate(f"category shadow differs from conductor on <{s}>")
        return build(
            STATUS_GORENSTEIN,
            value=cond,
            tags=(TAG_GORENSTEIN, TAG_WANG, TAG_CONDUCTOR_STABLE_ANN),
        )

    if inv.almost_symmetric:
        if shadow != cond:
            raise InconsistentCertificate(f"category shadow differs from conductor on <{s}>")
        return build(
            STATUS_ALMOST_GORENSTEIN,
            value=cond,
            tags=(TAG_THEOREM_B, TAG_WANG, TAG_CONDUCTOR_STABLE_ANN),
        )

    upper = maximal_ideal(s)
    if not is_subset(cond, upper):
        raise InconsistentCertificate(f"conductor not inside the maximal ideal on <{s}>")
    tags = [TAG_WANG, TAG_SINGULAR_UPPER]
    if closure:
        tags.append(TAG_THEOREM_A_SHADOW)
    return build(STATUS_INTERVAL, lower=cond, upper=upper, tags=tags)
