"""The class table's (class position, least element) pairs, the order of
the class walk past the brute-force range, and the query output bytes of
semigroups past genus 8.

The ring duals, canonical duals, traces and stable annihilators are
computed one row at a time by the colon and sum rules; here they are
cross-checked against the n x n ``colons`` and ``sums`` tables, whose
entries they are.
"""

import hashlib

import pytest

from nslab import (
    REGISTRY,
    SemigroupContext,
    emit_report,
    enumerate_by_genus,
    enumerate_ideal_classes,
    enumerate_up_to_genus,
    run_suite,
    semigroup_from_generators,
)
from nslab.cli import main as cli_main
from nslab.suites import Recorder


def test_pairs_are_table_entries():
    """S - E is entry S of column E of ``colons``, K - E entry K; E +
    (S - E) is the sum of E and the dual's class, moved to the dual's
    least element; and tr(E) - (E - E) is the colon of the trace's class
    by the class of E - E, which has least element 0, moved to the
    trace's least element."""
    for s in enumerate_up_to_genus(7):
        ctx = SemigroupContext(s)
        label = str(s)
        colons, sums = ctx.colons, ctx.sums
        unit, k = ctx.pos(ctx.unit), ctx.pos(ctx.k)
        assert ctx.ring_dual_pairs == [col[unit] for col in colons], label
        assert ctx.can_dual_pairs == [col[k] for col in colons], label
        assert ctx.trace_pairs == [
            (sums[i][d], off) for i, (d, off) in enumerate(ctx.ring_dual_pairs)
        ], label
        anns = []
        for i, (t, off) in enumerate(ctx.trace_pairs):
            endo, endo_min = colons[i][i]
            assert endo_min == 0, (label, i)
            p, b0 = colons[endo][t]
            anns.append((p, off + b0))
        assert ctx.stable_ann_pairs == anns, label
        for pairs, view in (
            (ctx.ring_dual_pairs, ctx.ring_duals),
            (ctx.can_dual_pairs, ctx.can_duals),
            (ctx.trace_pairs, ctx.traces),
            (ctx.stable_ann_pairs, ctx.stable_anns),
        ):
            assert [(ctx.pos(e), e.min) for e in view] == pairs, label


def test_sum_rows_match_the_sum_table():
    """``sum_row`` by the row rule alone, before the table is built,
    gives the rows of ``sums``."""
    for s in enumerate_up_to_genus(6):
        ctx = SemigroupContext(s)
        rows = [ctx.sum_row(i) for i in range(len(ctx.classes))]
        assert "sums" not in ctx.__dict__ or ctx.width == 0, str(s)
        assert rows == ctx.sums, str(s)


def test_ag_closure_alone_builds_no_sum_table():
    """agClosure reads one row of the sum table, the row of K, so run
    alone it builds that row and not the table; it passes on every almost
    symmetric semigroup of genus <= 6."""
    checked = 0
    for s in enumerate_up_to_genus(6):
        ctx = SemigroupContext(s)
        if not ctx.inv.almost_symmetric or s.is_naturals:
            continue
        rec = Recorder(semigroup=str(s))
        REGISTRY["agClosure"](ctx, rec)
        assert rec.violations == [], str(s)
        assert rec.checks > 0, str(s)
        assert "sums" not in ctx.__dict__, str(s)
        checked += 1
    assert checked > 0


def test_ag_closure_report_bytes():
    """The `verify --suite agClosure --max-genus 8` JSON report, pinned."""
    blob = emit_report(run_suite("agClosure", 8), "json")
    assert hashlib.sha256(blob).hexdigest() == (
        "d37910cbc66227271ba4557ec64d9c55f38731c3cc73b9d32bf84cf5174dda59"
    )


def _adjoined(s, e) -> list[int]:
    return [g for g in sorted(s.gap_set) if e.contains(g)]


def _assert_walk_order(s) -> int:
    classes = enumerate_ideal_classes(s)
    keys = [_adjoined(s, e) for e in classes]
    assert keys == sorted(keys, key=lambda k: (len(k), k)), str(s)
    assert len(set(e._mask for e in classes)) == len(classes), str(s)
    return len(classes)


@pytest.mark.parametrize(
    "gens, count",
    [
        ([7, 9], 715),
        ([7, 11], 1768),
        (list(range(11, 22)), 1024),
        (list(range(13, 26)), 4096),
    ],
    ids=["7,9", "7,11", "11..21", "13..25"],
)
def test_class_order_past_brute_force_range(gens, count):
    """By number of adjoined gaps, then by the ascending list of adjoined
    gaps: the order the walk's stable sort by size gives."""
    assert _assert_walk_order(semigroup_from_generators(gens)) == count


@pytest.mark.parametrize("genus", [9, 10])
def test_class_order_at_genus(genus):
    for s in enumerate_by_genus(genus):
        _assert_walk_order(s)


# SHA-256 of the stdout of `nslab ideals` and `nslab ca`, recorded before
# the class table kept its duals, traces and stable annihilators as pairs.
_QUERY_DIGESTS = {
    ("ideals", "7,9"): "13ff2df8dda30fdb41411f55ba517b0fc15bd2426cc55c055983d55a192e5c10",
    ("ca", "7,9"): "7b2065fa7a68a755080d8622766d92a4f1a55188567173558acb2b5ac4087cd8",
    ("ideals", "7,11"): "070b70b371c92ee9a48b1ac0592bff81f4e47a4dcb03b25878d87f17c8a6b6de",
    ("ca", "7,11"): "1947eec1fe8d6a4ccdff37643e00f889ad54bd6287fc67be9e9691499668d4d9",
    ("ideals", "5,19,21,23,27"): "ee4c93c6a722116b77cb0fc3aa990758d332c2b4bb5406419fedda29f9a7a8ce",
    ("ca", "5,19,21,23,27"): "0551f25011f11b9e2b1297a44c693f329adab6c35518ebd0a73f31c1992f0b10",
    ("ideals", "13..25"): "ec0828e4503eba9f9ff00b848be46b7dc791e205f42b2eb1e64c47f5fece29f7",
    ("ca", "13..25"): "27f8e6f9a3928b756e13a0246766f4016b38bbd7b9f51451cb4d3afa99c027ef",
}


@pytest.mark.parametrize("command, label", sorted(_QUERY_DIGESTS))
def test_query_bytes_past_genus_8(capsys, command, label):
    gens = ",".join(map(str, range(13, 26))) if label == "13..25" else label
    assert cli_main([command, gens]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _QUERY_DIGESTS[command, label]
