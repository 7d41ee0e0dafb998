"""Span tracing for the traced benchmark run, from outside the library.

:class:`Tracer` swaps the public nslab functions for wrappers while it is
installed.  A function is replaced under every module attribute that holds
it, so copies that other modules imported by name (``suites`` imports
``difference`` directly, ``rings`` imports ``sum`` as ``ideal_sum``) are
traced too.  Each call records a span (name, start, end, parent) in flat
arrays; self time is a span's duration minus the time its child spans
cover, computed after the run.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter

IDEALS_TIMED = (
    "sum",
    "difference",
    "intersect",
    "is_subset",
    "is_translate",
    "ring_dual",
    "canonical_dual",
    "trace_ideal",
    "is_reflexive",
    "minimal_generators",
    "format_ideal",
    "enumerate_ideal_classes",
)
RINGS_TIMED = ("blowup", "is_ulrich", "canonical_reduction_number", "classify")
ANNIHILATORS_TIMED = (
    "stable_annihilator",
    "category_annihilator",
    "duality_closure_shadow",
    "certify_cohomology_annihilator",
)
HARNESS_TIMED = ("run_suite", "run_on_semigroup", "emit_report")


def suite_names() -> tuple[str, ...]:
    from nslab.suites import REGISTRY

    return tuple(REGISTRY)


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out: list[tuple[str, str]] = []
    for fn in IDEALS_TIMED:
        out += [(f"ideals.{fn}.calls", "count"), (f"ideals.{fn}.self_s", "s")]
    out += [
        ("ideals.enumerate_ideal_classes.classes", "count"),
        ("ideals.class_scan_ratio", "ratio"),
        ("ideals.enumerations_per_semigroup", "ratio"),
        ("ideals.relative_ideals_created", "count"),
    ]
    for name in suite_names():
        out += [(f"suites.{name}.self_s", "s"), (f"suites.{name}.checks", "count")]
    out.append(("suites.context_build.self_s", "s"))
    for fn in RINGS_TIMED:
        out += [(f"rings.{fn}.calls", "count"), (f"rings.{fn}.self_s", "s")]
    for fn in ANNIHILATORS_TIMED:
        out += [(f"annihilators.{fn}.calls", "count"), (f"annihilators.{fn}.self_s", "s")]
    out += [("cli.main.self_s", "s"), ("cli.output_bytes", "count")]
    for fn in ("enumerate_by_genus", "invariants"):
        out += [(f"semigroups.{fn}.calls", "count"), (f"semigroups.{fn}.self_s", "s")]
    out += [("semigroups.children.calls", "count"), ("semigroups.tree_yield_ratio", "ratio")]
    for fn in HARNESS_TIMED:
        out.append((f"harness.{fn}.self_s", "s"))
    out += [
        ("harness.parallel_efficiency", "ratio"),
        ("harness.max_semigroup_share", "ratio"),
        ("trace.overhead", "ratio"),
    ]
    return out


class Tracer:
    """Records spans around nslab's public functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.labels: dict[int, str] = {}
        self.counts: Counter = Counter()
        self.classes_of: dict[str, int] = {}
        self.scanned_subsets = 0
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None, label=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            if label is not None:
                self.labels[idx] = label(args)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _replace(self, original, replacement) -> None:
        """Point every nslab module attribute that holds ``original`` at
        ``replacement``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nslab" or mod_name.startswith("nslab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _replace_attr(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- install / uninstall ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        from nslab import annihilators, cli, harness, ideals, rings, semigroups, suites

        for fn in IDEALS_TIMED:
            after = self._after_classes if fn == "enumerate_ideal_classes" else None
            orig = getattr(ideals, fn)
            self._replace(orig, self._wrap(f"ideals.{fn}", orig, after=after))
        for mod, prefix, fns in (
            (rings, "rings", RINGS_TIMED),
            (annihilators, "annihilators", ANNIHILATORS_TIMED),
        ):
            for fn in fns:
                orig = getattr(mod, fn)
                self._replace(orig, self._wrap(f"{prefix}.{fn}", orig))

        self._replace(cli.main, self._wrap("cli.main", cli.main))
        orig = semigroups.enumerate_by_genus
        self._replace(
            orig, self._wrap("semigroups.enumerate_by_genus", orig, after=self._after_listed)
        )
        ns = semigroups.NumericalSemigroup
        self._replace_attr(ns, "invariants", self._wrap("semigroups.invariants", ns.invariants))
        self._replace_attr(ns, "children", self._wrap("semigroups.children", ns.children))

        for fn in HARNESS_TIMED:
            orig = getattr(harness, fn)
            label = (lambda args: str(args[1])) if fn == "run_on_semigroup" else None
            self._replace(orig, self._wrap(f"harness.{fn}", orig, label=label))

        for name, orig in list(suites.REGISTRY.items()):
            self._replace_attr_item(suites.REGISTRY, name, self._suite_wrapper(name, orig))
        ctx = suites.SemigroupContext
        self._replace_attr(ctx, "__init__", self._wrap("suites.context_build", ctx.__init__))

        rel = ideals.RelativeIdeal
        post_init = rel.__post_init__
        counts = self.counts

        def counted_post_init(obj):
            counts["ideals.relative_ideals_created"] += 1
            post_init(obj)

        self._replace_attr(rel, "__post_init__", counted_post_init)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def _replace_attr_item(self, mapping: dict, key, replacement) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = replacement

    def _suite_wrapper(self, name, fn):
        counts = self.counts
        key = f"suites.{name}.checks"

        def counted(ctx, rec):
            before = rec.checks
            try:
                return fn(ctx, rec)
            finally:
                counts[key] += rec.checks - before

        return self._wrap(f"suites.{name}", counted)

    def _after_classes(self, args, result) -> None:
        s = args[0]
        self.counts["ideals.enumerate_ideal_classes.classes"] += len(result)
        self.scanned_subsets += 1 << s.genus
        self.classes_of.setdefault(str(s), len(result))

    def _after_listed(self, args, result) -> None:
        self.counts["semigroups.listed"] += len(result)

    # -- results -------------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        n = len(self.name_id)
        cover = array("d", bytes(8 * n))
        for i, p in enumerate(self.parent):
            if p >= 0:
                cover[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        names = self.names
        for nid, s, e, c in zip(self.name_id, self.start, self.end, cover):
            name = names[nid]
            calls[name] += 1
            self_s[name] += (e - s) - c
        return calls, self_s

    def semigroup_times(self) -> list[tuple[float, str]]:
        """Duration of each run_on_semigroup span, slowest first."""
        out = [(self.end[i] - self.start[i], lab) for i, lab in self.labels.items()]
        out.sort(reverse=True)
        return out

    def write_spans(self, path) -> None:
        """One line per span: id, parent id, name, start and end in
        microseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_us\tend_us\n")
            names = self.names
            for i, (nid, p, s, e) in enumerate(
                zip(self.name_id, self.parent, self.start, self.end)
            ):
                fh.write(f"{i}\t{p}\t{names[nid]}\t{(s - t0) * 1e6:.1f}\t{(e - t0) * 1e6:.1f}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric this tracer can measure on its own; the
        caller adds parallel_efficiency and trace.overhead."""
        calls, self_s = self.self_times()
        out: dict[str, float] = {}
        for name, unit in layer_metric_names():
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls[base]
            elif kind == "self_s":
                out[name] = self_s[base]
            elif unit == "count":
                out[name] = self.counts[name]
        enum_calls = calls["ideals.enumerate_ideal_classes"]
        classes = self.counts["ideals.enumerate_ideal_classes.classes"]
        scanned = self.scanned_subsets
        out["ideals.class_scan_ratio"] = classes / scanned if scanned else 0.0
        out["ideals.enumerations_per_semigroup"] = (
            enum_calls / len(self.classes_of) if self.classes_of else 0.0
        )
        expanded = calls["semigroups.children"]
        out["semigroups.tree_yield_ratio"] = (
            self.counts["semigroups.listed"] / expanded if expanded else 0.0
        )
        per_sg = self.semigroup_times()
        total = sum(t for t, _ in per_sg)
        out["harness.max_semigroup_share"] = per_sg[0][0] / total if total else 0.0
        return out
