"""Command-line interface.

Subcommands:
  info      invariants and classification of one semigroup, as JSON
  enumerate all semigroups of a genus, optionally filtered
  ideals    every normalized ideal class with reflexivity, trace and
            stable annihilator
  ca        the cohomology-annihilator certificate as JSON
  verify    run a verification suite over an enumeration range

Exit codes: 0 on success / pass, 1 when a verify run found violations,
2 on usage or input errors (any ``ValueError``) or an ``--out`` file that
cannot be written, reported as one ``error:`` line on stderr, 3 when an
internal consistency check fails (``semigroups.InternalError``, a bug,
reported as one ``internal error:`` line on stderr).
"""

from __future__ import annotations

import argparse
import sys

from .semigroups import InternalError, NumericalSemigroup, enumerate_by_genus, parse_semigroup

# Each handler imports the modules it runs, so that a command loads only
# those: ``enumerate`` needs nothing past ``semigroups``, and no query
# loads the suites or the process pool.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nslab",
        description="Exact ideal theory of numerical semigroup rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="invariants and classification as JSON")
    p_info.add_argument("gens", help="comma-separated generators, e.g. 3,5,7")

    p_enum = sub.add_parser("enumerate", help="list semigroups of one genus")
    p_enum.add_argument("--genus", type=int, required=True)
    p_enum.add_argument(
        "--filter",
        choices=["gorenstein", "almost", "med", "none"],
        default="none",
    )

    p_ideals = sub.add_parser("ideals", help="normalized ideal classes as JSON")
    p_ideals.add_argument("gens")

    p_ca = sub.add_parser("ca", help="cohomology annihilator certificate as JSON")
    p_ca.add_argument("gens")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, help="suite name or 'all'")
    p_verify.add_argument("--max-genus", type=int, default=8)
    p_verify.add_argument(
        "--jobs", type=int, default=1, help="worker processes, capped at the CPU count"
    )
    p_verify.add_argument("--fail-fast", action="store_true")
    p_verify.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_verify.add_argument("--out", help="write the report to this file")

    return parser


def _cmd_info(args) -> int:
    from .ideals import _dump
    from .rings import classify

    s = parse_semigroup(args.gens)
    payload = {
        "semigroup": str(s),
        "invariants": s.invariants().to_json_dict(),
        "classification": classify(s).to_json_dict(),
    }
    print(_dump(payload))
    return 0


# The flags ``invariants()`` reports, read off each listed semigroup
# without building its record.
_FILTERS = {
    "gorenstein": lambda s: 2 * s.genus == s.frobenius + 1,
    "almost": NumericalSemigroup.is_almost_symmetric,
    "med": lambda s: s.multiplicity == len(s.minimal_generators),
}


def _cmd_enumerate(args) -> int:
    listed = enumerate_by_genus(args.genus)
    if args.filter != "none":
        listed = filter(_FILTERS[args.filter], listed)
    for s in listed:
        print(str(s))
    return 0


# One row of ``ideals._dump(rows)``: keys sorted, two-space indent.
_IDEALS_ROW = """  {{
    "ideal": {},
    "minimal_generators": [
      {}
    ],
    "reflexive": {},
    "stable_annihilator": {},
    "trace": {}
  }}"""


def _cmd_ideals(args) -> int:
    """Writes the bytes ``_dump`` would give for the list of row dicts
    (ideal, minimal_generators, reflexive, trace, stable_annihilator),
    filling one template per row instead of running the pure-Python
    encoder that ``indent`` selects; every class has a generator, so no
    list is empty.  Many classes share a trace or a stable annihilator,
    so each distinct ideal is formatted once."""
    from json.encoder import encode_basestring
    from .ideals import format_ideal
    from .annihilators import SemigroupContext

    ctx = SemigroupContext(parse_semigroup(args.gens))
    texts: dict[tuple[int, int], str] = {}

    def text(e) -> str:
        key = (e.min, e._mask)
        if key not in texts:
            texts[key] = encode_basestring(format_ideal(e))
        return texts[key]

    rows = [
        _IDEALS_ROW.format(
            text(cls),
            ",\n      ".join(map(str, gens)),
            "true" if refl else "false",
            text(ann),
            text(tr),
        )
        for cls, gens, refl, tr, ann in zip(
            ctx.classes, ctx.mingens, ctx.reflexive, ctx.traces, ctx.stable_anns
        )
    ]
    print("[\n" + ",\n".join(rows) + "\n]")
    return 0


def _cmd_ca(args) -> int:
    from .ideals import _dump
    from .annihilators import certify_cohomology_annihilator

    s = parse_semigroup(args.gens)
    cert = certify_cohomology_annihilator(s)
    print(_dump(cert.to_json_dict()))
    return 0


def _cmd_verify(args) -> int:
    from .harness import emit_report, run_suite

    if args.max_genus < 0:
        raise ValueError(f"--max-genus must be nonnegative, got {args.max_genus}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    report = run_suite(
        args.suite, args.max_genus, jobs=args.jobs, fail_fast=args.fail_fast
    )
    blob = emit_report(report, args.format)
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(blob)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(blob.decode("utf-8"))
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "info": _cmd_info,
        "enumerate": _cmd_enumerate,
        "ideals": _cmd_ideals,
        "ca": _cmd_ca,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
