"""Shared helpers: locate the source tree, capture CLI output, draw inputs.

Every benchmark file imports nslab through :func:`load_nslab`, which puts
``src/`` of the checkout first on ``sys.path``, so the benchmark always
measures the code next to it and never an installed copy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCES = ROOT / "bench" / "references.json"

QUERY_GENUS = 16
QUERY_MAX_MULTIPLICITY = 5
QUERY_DRAWS = 12


class SourceMissing(RuntimeError):
    """The checkout has no ``src/nslab`` to benchmark."""


def load_nslab():
    """Import nslab from this checkout's ``src/``; raise SourceMissing if absent."""
    if not (SRC / "nslab" / "__init__.py").is_file():
        raise SourceMissing(f"no nslab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nslab

    return nslab


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def query_class_counts(refs: dict) -> dict[str, int]:
    return {gens: row["classes"] for gens, row in refs["query"]["candidates"].items()}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``nslab <argv>`` in-process with stdout captured."""
    from nslab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def draw_query(seed: int, class_counts: dict[str, int]) -> list[str]:
    """The query-g16 inputs, drawn by the seed alone from the candidates
    recorded in references.json (``class_counts``, in their recorded tree
    order): the candidates are split by class count into QUERY_DRAWS strata
    of near-equal size and one is drawn from each, so every draw mixes
    small and large class counts and the workload's cost moves little from
    seed to seed.  Returned in recorded order."""
    cands = list(class_counts)
    by_size = sorted(range(len(cands)), key=lambda i: (class_counts[cands[i]], i))
    rng = random.Random(seed)
    picked = []
    for k in range(QUERY_DRAWS):
        stratum = by_size[k * len(cands) // QUERY_DRAWS:(k + 1) * len(cands) // QUERY_DRAWS]
        picked.append(rng.choice(stratum))
    return [cands[i] for i in sorted(picked)]
