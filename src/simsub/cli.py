"""Command-line front end.

Subcommands: coeffs, enumerate, verify, rotations, units, summatory.
Output goes to stdout as JSON (default) or CSV; diagnostics go to
stderr.  Exit codes: 0 success, 1 verification mismatch, 2 usage error
or exceeded enumeration budget, 3 internal error (with a traceback on
stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import traceback

from . import catalog, cubic, lattice, quadratic, quartic
from .lattice import Ambient, EnumerationBudgetExceeded

_AMBIENTS = {
    "ztau": Ambient.Z_TAU_AS_Z2,
    "zitau": Ambient.Z_ITAU_AS_Z4,
    "zisqrt2": Ambient.Z_ISQRT2_AS_Z4,
}

# Largest --limit of coeffs and summatory.  Every table is a Python list of
# limit + 1 entries, so a larger limit would fail in allocation (or run for
# minutes) rather than report bad input.
MAX_TABLE_LIMIT = 10 ** 7

# Most bases `enumerate --filter all` lists.  A listed basis costs about 0.5 KB
# of peak memory (its Submodule; the output is written basis by basis), so the
# 9.4 million bases of Z[i,tau] index 211, under the default --max-candidates,
# would need about 4.6 GB.
MAX_LISTED_BASES = 10 ** 6

# Most coefficient vectors `units` scans, (2 * height + 1) ** rank.  The
# default heights scan 101^2 (rank 2) and 17^4 = 83,521 (rank 4) vectors; a
# vector costs 1-2 us at rank 2 and 9-12 us at rank 4 on a 2-core x86 host.
MAX_UNIT_SCAN = 10 ** 6

_UNIT_RINGS = {
    "tau": quadratic.TAU,
    "sqrt2": quadratic.SQRT2,
    "itau": quartic.ITAU,
    "isqrt2": quartic.ISQRT2,
}


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=None, separators=(",", ":"), sort_keys=False))


def _emit_csv(rows, header) -> None:
    """Write the header and each row as the rows iterable yields it."""
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _check_table_limit(limit: int) -> None:
    if limit > MAX_TABLE_LIMIT:
        raise UsageError(f"--limit is over the table ceiling {MAX_TABLE_LIMIT}")


def cmd_coeffs(args) -> int:
    _check_table_limit(args.limit)
    entry = catalog.catalog_entry(args.series, args.limit)
    if args.format == "json":
        # the same bytes as _emit_json of the {"m": m, "a": a} rows, built
        # as one string: a table has up to MAX_TABLE_LIMIT rows
        rows = ",".join([f'{{"m":{m},"a":{a}}}' for m, a in entry.series.nonzero()])
        print(f'{{"series":{json.dumps(args.series)},"limit":{args.limit},'
              f'"coefficients":[{rows}]}}')
    else:
        _emit_csv(entry.series.nonzero(), ("m", "a"))
    return 0


def cmd_summatory(args) -> int:
    _check_table_limit(args.limit)
    points = sorted(set(args.at)) if args.at else [args.limit]
    for x in points:
        if not 1 <= x <= args.limit:
            raise UsageError(f"summatory point {x} outside 1..{args.limit}")
    coeffs = catalog.catalog_entry(args.series, args.limit).series.coeffs
    values, total, start = [], 0, 0
    for x in points:  # one running sum over the sorted points
        total += sum(coeffs[start:x])
        start = x
        values.append((x, total))
    if args.format == "json":
        _emit_json({
            "series": args.series,
            "limit": args.limit,
            "values": [{"x": x, "sum": s} for x, s in values],
        })
    else:
        _emit_csv(values, ("x", "sum"))
    return 0


def cmd_enumerate(args) -> int:
    ambient = _AMBIENTS[args.ambient]
    rank = lattice.ambient_rank(ambient)
    if args.filter == "principal" and rank != 4:
        raise UsageError("--filter principal needs a rank-4 ring ambient")
    if args.filter == "all":
        if lattice.hnf_candidates_over(rank, args.index, MAX_LISTED_BASES):
            raise UsageError(f"--filter all would list more bases than the ceiling "
                             f"{MAX_LISTED_BASES}")
        subs = lattice.hnf_sublattices(rank, args.index, ambient, args.max_candidates)
    else:
        subs = lattice.list_ideals(ambient, args.index, args.max_candidates)
        if args.filter == "principal":
            subs = [s for s in subs if lattice.is_principal(s)]
    # each basis is written as it is formatted, straight from its tuples: a
    # listing holds up to MAX_LISTED_BASES of them
    if args.format == "json":
        # the same bytes as _emit_json of the payload with the bases as lists
        sys.stdout.write(f'{{"ambient":{json.dumps(args.ambient)},"index":{args.index},'
                         f'"filter":{json.dumps(args.filter)},"count":{len(subs)},"bases":[')
        for k, s in enumerate(subs):
            rows = ",".join("[" + ",".join(map(str, row)) + "]" for row in s.basis)
            sys.stdout.write(f"{',' if k else ''}[{rows}]")
        sys.stdout.write("]}\n")
    else:
        _emit_csv(((k, " ".join(str(v) for row in s.basis for v in row))
                   for k, s in enumerate(subs)), ("id", "basis"))
    return 0


def cmd_verify(args) -> int:
    if args.module == "cubic3":
        return _verify_cubic(args)
    ambient = _AMBIENTS[args.module]
    report = lattice.verify_series(ambient, args.limit, args.max_candidates)
    print(report.summary())
    return 0 if report.ok else 1


def _verify_cubic(args) -> int:
    rotations, submodules = cubic.verify_cubic(args.limit)
    print(f"rotation counts vs 24 * phi-c, |N(den)| <= {args.limit}: {rotations.summary()}")
    print(f"submodule counts vs f-cubic at cubes up to {args.limit ** 3}: "
          f"{submodules.summary()}")
    return 0 if rotations.ok and submodules.ok else 1


def cmd_rotations(args) -> int:
    counts = cubic.rotation_counts(args.bound)
    rows = [(m, c) for m, c in sorted(counts.items()) if c]
    if args.format == "json":
        _emit_json({
            "bound": args.bound,
            "counts": [{"den_norm": m, "rotations": c} for m, c in rows],
            "total": sum(c for _, c in rows),
        })
    else:
        _emit_csv(rows, ("den_norm", "rotations"))
    return 0


def cmd_units(args) -> int:
    ring = _UNIT_RINGS[args.ring]
    real = args.ring in ("tau", "sqrt2")
    height = args.height if args.height is not None else (50 if real else 8)
    if (2 * height + 1) ** (2 if real else 4) > MAX_UNIT_SCAN:
        raise UsageError(f"--height {height} scans over {MAX_UNIT_SCAN} coefficient "
                         f"vectors of ring {args.ring}")
    if real:
        units = quadratic.units_up_to_height(ring, height)
        decomposed = []
        for u in units:
            sign, exp = quadratic.unit_normal_form(u)
            ok = quadratic.unit_from_normal_form(ring, sign, exp) == u
            decomposed.append(ok)
    else:
        units = quartic.units_up_to_height(ring, height)
        decomposed = []
        for u in units:
            k, ell = quartic.quartic_unit_normal_form(u)
            decomposed.append(quartic.unit_from_normal_form(ring, k, ell) == u)
    payload = {
        "ring": args.ring,
        "height": height,
        "units_found": len(units),
        "all_decomposed": all(decomposed),
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        _emit_csv([(payload["ring"], payload["height"], payload["units_found"],
                    payload["all_decomposed"])],
                  ("ring", "height", "units_found", "all_decomposed"))
    return 0 if payload["all_decomposed"] else 1


class UsageError(Exception):
    pass


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simsub",
        description="similarity-submodule counts, zeta coefficient tables, "
                    "and brute-force verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("coeffs", help="coefficient table of a catalog series")
    p.add_argument("--series", required=True, choices=catalog.CLI_SERIES)
    p.add_argument("--limit", type=_positive_int, required=True)
    add_format(p)
    p.set_defaults(fn=cmd_coeffs)

    p = sub.add_parser("summatory", help="partial sums of a catalog series")
    p.add_argument("--series", required=True, choices=catalog.CLI_SERIES)
    p.add_argument("--limit", type=_positive_int, required=True)
    p.add_argument("--at", type=int, action="append",
                   help="evaluation point; repeatable (default: the limit)")
    add_format(p)
    p.set_defaults(fn=cmd_summatory)

    p = sub.add_parser("enumerate", help="list submodules of one index in HNF")
    p.add_argument("--ambient", required=True, choices=sorted(_AMBIENTS))
    p.add_argument("--index", type=_positive_int, required=True)
    p.add_argument("--filter", choices=("all", "ideals", "principal"),
                   default="ideals")
    p.add_argument("--max-candidates", type=_positive_int,
                   default=lattice.DEFAULT_MAX_CANDIDATES)
    add_format(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="brute-force counts vs series coefficients")
    p.add_argument("--module", required=True,
                   choices=sorted(_AMBIENTS) + ["cubic3"])
    p.add_argument("--limit", type=_positive_int, required=True)
    p.add_argument("--max-candidates", type=_positive_int,
                   default=lattice.DEFAULT_MAX_CANDIDATES)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("rotations", help="rotation counts by denominator norm")
    p.add_argument("--bound", type=_positive_int, required=True)
    add_format(p)
    p.set_defaults(fn=cmd_rotations)

    p = sub.add_parser("units", help="exhaustive unit scan and normal forms")
    p.add_argument("--ring", required=True, choices=sorted(_UNIT_RINGS))
    p.add_argument("--height", type=_positive_int, default=None)
    add_format(p)
    p.set_defaults(fn=cmd_units)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (UsageError, EnumerationBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # arguments are validated by the parser, so anything else is a bug
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
