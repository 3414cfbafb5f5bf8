"""Command-line front end.

Subcommands: coeffs, enumerate, verify, rotations, units, summatory.
Output goes to stdout as JSON (default) or CSV; diagnostics go to
stderr.  Exit codes: 0 success, 1 verification mismatch, 2 usage error
(including an invalid SIMSUB_THREADS) or exceeded enumeration budget,
3 internal error (with a traceback on stderr).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import traceback

from . import catalog, cubic, lattice, quadratic, quartic
from .dirichlet import summatory
from .lattice import Ambient, EnumerationBudgetExceeded
from .parallel import SettingError

_AMBIENTS = {
    "ztau": Ambient.Z_TAU_AS_Z2,
    "zitau": Ambient.Z_ITAU_AS_Z4,
    "zisqrt2": Ambient.Z_ISQRT2_AS_Z4,
}

_UNIT_RINGS = {
    "tau": quadratic.TAU,
    "sqrt2": quadratic.SQRT2,
    "itau": quartic.ITAU,
    "isqrt2": quartic.ISQRT2,
}


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=None, separators=(",", ":"), sort_keys=False))


def _emit_csv(rows, header) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def cmd_coeffs(args) -> int:
    entry = catalog.catalog_entry(args.series, args.limit)
    pairs = list(entry.series.nonzero())
    if args.format == "json":
        _emit_json({
            "series": args.series,
            "limit": args.limit,
            "coefficients": [{"m": m, "a": a} for m, a in pairs],
        })
    else:
        _emit_csv(pairs, ("m", "a"))
    return 0


def cmd_summatory(args) -> int:
    entry = catalog.catalog_entry(args.series, args.limit)
    points = sorted(set(args.at)) if args.at else [args.limit]
    for x in points:
        if not 1 <= x <= args.limit:
            raise UsageError(f"summatory point {x} outside 1..{args.limit}")
    values = [(x, summatory(entry.series, x)) for x in points]
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
    if args.filter == "principal" and lattice.ambient_rank(ambient) != 4:
        raise UsageError("--filter principal needs a rank-4 ring ambient")
    if args.filter == "all":
        subs = lattice.hnf_sublattices(lattice.ambient_rank(ambient), args.index,
                                       ambient, args.max_candidates)
    else:
        subs = lattice.list_ideals(ambient, args.index, args.max_candidates)
        if args.filter == "principal":
            subs = [s for s in subs if lattice.is_principal(s)]
    bases = [[list(row) for row in s.basis] for s in subs]
    if args.format == "json":
        _emit_json({
            "ambient": args.ambient,
            "index": args.index,
            "filter": args.filter,
            "count": len(bases),
            "bases": bases,
        })
    else:
        rows = [(k, " ".join(str(v) for row in b for v in row))
                for k, b in enumerate(bases)]
        _emit_csv(rows, ("id", "basis"))
    return 0


def cmd_verify(args) -> int:
    if args.module == "cubic3":
        return _verify_cubic(args)
    ambient = _AMBIENTS[args.module]
    report = lattice.verify_series(ambient, args.limit, args.max_candidates)
    print(report.summary())
    return 0 if report.ok else 1


def _verify_cubic(args) -> int:
    bound = args.limit
    cubic.check_rotation_budget(bound)
    phi = catalog.phi_c(bound)
    expected = {m: 24 * phi.a(m) for m in range(1, bound + 1)}
    report = cubic.verify_rotation_counts(bound, expected)
    print(f"rotation counts vs 24 * phi-c, |N(den)| <= {bound}: {report.summary()}")
    ok = report.ok
    fc = catalog.f_cubic(bound ** 3)
    rows = []
    for n in range(1, bound + 1):
        got = cubic.count_submodules_3d(n ** 3)
        want = fc.a(n ** 3)
        rows.append((n ** 3, got, want))
    mismatches = [r for r in rows if r[1] != r[2]]
    print(f"submodule counts vs f-cubic at cubes up to {bound ** 3}: "
          f"{len(rows) - len(mismatches)}/{len(rows)} match")
    for m, got, want in mismatches:
        print(f"  index {m}: oracle {got} != expected {want}")
    return 0 if ok and not mismatches else 1


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
    if args.ring in ("tau", "sqrt2"):
        height = args.height if args.height is not None else 50
        units = quadratic.units_up_to_height(ring, height)
        decomposed = []
        for u in units:
            sign, exp = quadratic.unit_normal_form(u)
            ok = quadratic.unit_from_normal_form(ring, sign, exp) == u
            decomposed.append(ok)
    else:
        height = args.height if args.height is not None else 8
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
    except (UsageError, EnumerationBudgetExceeded, SettingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # arguments are validated by the parser and SIMSUB_THREADS by
        # worker_count, so anything else is a bug
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
