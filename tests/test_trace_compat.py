"""The benchmark's tracer (bench/tracing.py) still fits the library.

The tracer replaces nslab functions by name from outside the package, so a
renamed or deleted function would break `bench/run.py --trace 1` without
any library test noticing.
"""

import importlib.util
from pathlib import Path

import nslab
import nslab.annihilators as annihilators
import nslab.cli as cli
import nslab.harness as harness
import nslab.ideals as ideals
import nslab.rings as rings
from nslab import NumericalSemigroup, RelativeIdeal, SemigroupContext

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_wrapped_names_resolve():
    for mod, names in (
        (ideals, tracing.IDEALS_TIMED),
        (rings, tracing.RINGS_TIMED),
        (annihilators, tracing.ANNIHILATORS_TIMED),
        (harness, tracing.HARNESS_TIMED),
    ):
        for name in names:
            assert callable(getattr(mod, name)), f"{mod.__name__}.{name}"
    for owner, name in (
        (nslab.semigroups, "enumerate_by_genus"),
        (NumericalSemigroup, "invariants"),
        (NumericalSemigroup, "children"),
        (SemigroupContext, "__init__"),
        (RelativeIdeal, "__post_init__"),
        (cli, "main"),
    ):
        assert callable(getattr(owner, name)), name


def _outputs(capsys) -> tuple[bytes, int, str]:
    # looked up through the modules, so that installed wrappers are called
    report = nslab.emit_report(nslab.run_suite("all", 3), "json")
    code = nslab.cli.main(["ca", "3,5,7"])
    return report, code, capsys.readouterr().out


def test_traced_outputs_match_untraced(capsys):
    plain = _outputs(capsys)
    original_sum = ideals.sum
    tracer = tracing.Tracer()
    with tracer:
        traced = _outputs(capsys)
    assert traced == plain
    assert ideals.sum is original_sum
    calls, _ = tracer.self_times()
    # one table per semigroup of genus <= 3, and one for `ca`
    assert calls["suites.context_build"] == 9
    assert calls["annihilators.certify_cohomology_annihilator"] == 1
    assert tracer.counts["ideals.relative_ideals_created"] > 0
    # each sum, colon and dual builds one ideal, counted by the patched
    # __post_init__
    created = tracer.counts["ideals.relative_ideals_created"]
    results = sum(
        calls[f"ideals.{fn}"] for fn in ("sum", "difference", "ring_dual", "canonical_dual")
    )
    assert created >= results > 0
    metrics = tracer.layer_metrics()
    assert {name for name, _ in tracing.layer_metric_names()} - set(metrics) == {
        "harness.parallel_efficiency",
        "trace.overhead",
    }
