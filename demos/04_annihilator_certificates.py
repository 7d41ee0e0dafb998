"""Stable annihilators and certified cohomology annihilators.

The stable annihilator of a module kills every endomorphism modulo those
factoring through a free module; intersecting over all monomial classes
gives a category-wide shadow.  The conductor is always a verified lower
bound, and the shadow always collapses to the conductor.  Whether that
value is certified as THE cohomology annihilator depends on the ring:
regular and (almost) Gorenstein rings get an exact certificate, everything
else gets an honest interval.
"""

import json

from nslab import (
    category_annihilator,
    certify_cohomology_annihilator,
    duality_closure_shadow,
    enumerate_ideal_classes,
    semigroup_from_generators,
    stable_annihilator,
)

S = semigroup_from_generators([3, 5, 7])

print("stable annihilators of the classes of <3,5,7>:")
for cls in enumerate_ideal_classes(S):
    print(f"  ann {str(cls):18s} = {stable_annihilator(cls)}")
print("intersection:", category_annihilator(enumerate_ideal_classes(S)))

# The duality-closure shadow asks: is the canonical dual of every
# non-principal reflexive class again reflexive?  For almost symmetric
# semigroups it always is; the MED example <4,7,9,10> fails with a witness.
for gens in ([3, 5, 7], [4, 7, 9, 10]):
    s = semigroup_from_generators(gens)
    ok, witness = duality_closure_shadow(enumerate_ideal_classes(s))
    print(f"\nduality closure for <{s}>: {ok}"
          + (f"   witness: {witness}" if witness else ""))

# Certificates, one per flavor.
for gens in ([1], [2, 3], [3, 5, 7], [5, 6, 7]):
    cert = certify_cohomology_annihilator(semigroup_from_generators(gens))
    print(f"\ncertificate for <{cert.semigroup}>:")
    print(json.dumps(cert.to_json_dict(), sort_keys=True, ensure_ascii=False, indent=2))
