"""Record the reference outputs the benchmark checks against.

Usage: python3 bench/make_references.py

Writes bench/references.json from the code in src/: the verify report
fields at the benchmark's genus (6), the genus-18 almost-symmetric
listing (line count and order-sensitive digest), and for every one of the
97 query candidates (genus 16, multiplicity at most 5), in tree order, the
digests of its `nslab ca` and `nslab ideals` output and its class count;
bench/run.py draws its query inputs from that list.  Run it only when an
output format changes on purpose; the references are what catches an
output changing by accident.  Takes about a minute on one core.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    QUERY_GENUS,
    QUERY_MAX_MULTIPLICITY,
    REFERENCES,
    digest,
    load_nslab,
    run_cli,
)
from run import TREE_GENUS, VERIFY_GENUS  # noqa: E402


def query_candidates() -> list:
    """The semigroups of genus QUERY_GENUS and multiplicity at most
    QUERY_MAX_MULTIPLICITY, in tree order.

    Multiplicity never decreases down the semigroup tree, so the walk
    prunes every node above the bound and touches a few thousand nodes
    instead of every semigroup of that genus.
    """
    from nslab import naturals

    out = []
    stack = [naturals()]
    while stack:
        node = stack.pop()
        if node.multiplicity > QUERY_MAX_MULTIPLICITY:
            continue
        if node.genus == QUERY_GENUS:
            out.append(node)
            continue
        stack.extend(reversed(node.children()))
    return out


def main() -> int:
    load_nslab()
    from nslab import emit_report, run_suite

    report = json.loads(emit_report(run_suite("all", VERIFY_GENUS), "json"))
    verify = {
        "max_genus": VERIFY_GENUS,
        **{
            key: report[key]
            for key in ("semigroups_checked", "checks_executed", "violations", "informational")
        },
    }

    code, listing = run_cli(["enumerate", "--genus", str(TREE_GENUS), "--filter", "almost"])
    if code != 0:
        raise SystemExit(f"nslab enumerate exited {code}")
    tree = {
        "genus": TREE_GENUS,
        "filter": "almost",
        "lines": listing.count("\n"),
        "sha256": digest(listing),
    }

    candidates = {}
    for s in query_candidates():
        gens = str(s)
        row = {}
        for cmd in ("ca", "ideals"):
            code, out = run_cli([cmd, gens])
            if code != 0:
                raise SystemExit(f"nslab {cmd} {gens} exited {code}")
            row[cmd] = digest(out)
        row["classes"] = len(json.loads(out))
        candidates[gens] = row
        print(gens, row["classes"], file=sys.stderr)
    query = {
        "genus": QUERY_GENUS,
        "max_multiplicity": QUERY_MAX_MULTIPLICITY,
        "candidates": candidates,
    }

    REFERENCES.write_text(
        json.dumps({"verify": verify, "tree": tree, "query": query}, indent=1) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
