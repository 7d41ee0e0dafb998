"""nslab: exact ideal theory of numerical semigroup rings.

The library models the monomial curve ring attached to a numerical
semigroup entirely in integer combinatorics: fractional ideals are cofinite
integer sets with a finite window representation, and every operation
(sums, colons, canonical duals, traces, blowups, stable annihilators) is an
exact bitmask computation.  On top of the calculus sits a verification
harness that checks the theory exhaustively over all semigroups up to a
genus bound and a certificate builder for the cohomology annihilator ideal.

Importing the package loads none of its modules.  A public name is looked
up in its module on first use (``__getattr__``, PEP 562) and is not kept
here, so ``nslab.run_suite`` always reads ``harness.run_suite`` as it is
now, and a command imports only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines; "alias=name" exports it under alias
_PUBLIC = {
    "semigroups": """EmptyGenerators GcdNotOne InternalError InvariantRecord
        NotAMember NumericalSemigroup WindowTooLarge enumerate_by_genus
        enumerate_up_to_genus naturals parse_semigroup semigroup_from_generators""",
    "ideals": """NotTwoGenerated ParentMismatch RelativeIdeal canonical_dual
        canonical_ideal difference enumerate_ideal_classes format_ideal
        ideal_from_generators intersect is_reflexive is_subset is_translate
        maximal_ideal minimal_generators n_fold_sum normalization_ideal normalize
        parse_ideal ring_dual sum_ideals=sum syzygy_two_generated trace_ideal
        translate unit_ideal""",
    "rings": """ClassificationRecord InternalBoundExceeded b_ideal blowup
        canonical_reduction_number classify conductor_ideal is_ulrich""",
    "annihilators": """CaCertificate InconsistentCertificate SemigroupContext
        category_annihilator certify_cohomology_annihilator duality_closure_shadow
        stable_annihilator""",
    "suites": "REGISTRY Witness",
    "harness": """SuiteReport UnknownSuite UnsupportedFormat emit_report
        replay_witness run_suite""",
}

# public name -> (module, attribute)
_WHERE = {
    public: (module, attr or public)
    for module, names in _PUBLIC.items()
    for public, _, attr in (entry.partition("=") for entry in names.split())
}
_SUBMODULES = {*_PUBLIC, "cli"}

__all__ = sorted(_WHERE)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _WHERE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _WHERE[name]
    return getattr(import_module(f"{__name__}.{module}"), attr)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
