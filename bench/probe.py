"""Set-up probe: a fresh interpreter imports nslab and builds one
workload's inputs, then exits.  bench/run.py times it as setup_s.

Usage: python3 bench/probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import draw_query, load_nslab, load_references, query_class_counts  # noqa: E402

load_nslab()
import nslab.cli  # noqa: E402,F401  (the CLI workloads call through it)

if sys.argv[1] == "query-g16":
    for gens in draw_query(int(sys.argv[2]), query_class_counts(load_references())):
        nslab.parse_semigroup(gens)
