"""Command-line front end: wci <subcommand>.

Exit codes: 0 success, 1 failed --assert, 2 usage/parse errors, 3 domain
errors (mathematically undefined request).  Results go to stdout, diagnostics
to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import hilbert, pairs, verify, wci
from .arith import brauer_bound, brauer_bound_min, frobenius
from .errors import DomainError, UsageError
from .pairs import Pair
from .wci import WciFamily


def _print(data) -> None:
    sys.stdout.write(data if data.endswith("\n") else data + "\n")


def _emit_json(obj) -> None:
    _print(json.dumps(obj))


def _text_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _emit_report_text(report: dict, skip=("strata",)) -> None:
    for key, value in report.items():
        if key in skip:
            continue
        _print(f"{key}: {_text_value(value)}")


def check_report(family: WciFamily) -> dict:
    """The full predicate report of one family, with nulls where undefined."""
    qs_report = None if wci.is_linear_cone(family) else wci.quasi_smooth(family)
    geo = wci._annotate(family, qs_report.verdict if qs_report is not None else None)
    return {
        "family": family.encode(),
        "well_formed": geo.well_formed,
        "quasi_smooth": geo.quasi_smooth,
        "smooth": geo.smooth,
        "linear_cone": geo.linear_cone,
        "delta": wci.canonical_degree(family),
        "type": geo.kind,
        "fundamental_index": geo.index,
        "strata": [s.as_dict() for s in qs_report.strata] if qs_report is not None else None,
    }


def _assert_exit(value) -> int:
    if value is None:
        raise DomainError("asserted field is undefined for this input")
    return 0 if value else 1


def _cmd_check(args) -> int:
    family = WciFamily.parse(args.family)
    report = check_report(family)
    if args.json:
        _emit_json(report)
    else:
        _emit_report_text(report)
    if args.assert_field:
        return _assert_exit(report[args.assert_field])
    return 0


def _cmd_pair(args) -> int:
    pair = Pair.parse(args.pair)
    h = args.h
    check = pairs.check_h_regular(pair, h)
    stripped, removed = pairs.strip_units(pair)
    report = {
        "pair": pair.encode(),
        "codim": pair.codim,
        "delta": pairs.delta(pair),
        "h": h,
        "h_regular": check.ok,
        "witness": list(check.witness) if check.witness is not None else None,
        "regular": pairs.is_regular(pair),
        "cancelled": pairs.cancel(pair).encode(),
        "stripped": {"pair": stripped.encode(), "removed": removed},
        "split": None,
    }
    if args.split is not None:
        split = pairs.split_prime(pair, args.split)
        report["split"] = {
            "prime": split.prime,
            "top": split.top.encode(),
            "at_prime": split.at_prime.encode(),
        }
    if args.json:
        _emit_json(report)
    else:
        flat = dict(report)
        flat["witness"] = ",".join(map(str, report["witness"])) if report["witness"] else None
        flat["stripped"] = f"{report['stripped']['pair']} (removed {removed})"
        if report["split"]:
            flat["split"] = f"top={report['split']['top']} at_prime={report['split']['at_prime']}"
        _emit_report_text(flat)
    if args.assert_field:
        return _assert_exit(report[args.assert_field])
    return 0


def _cmd_frobenius(args) -> int:
    try:
        generators = [int(part) for part in args.generators.split(",") if part != ""]
    except ValueError:
        raise UsageError(f"generators must be integers, got {args.generators!r}") from None
    value = frobenius(generators)
    if not args.json:
        _print(str(value))
        return 0
    report = {
        "generators": generators,
        "frobenius": value,
        "brauer_bound": brauer_bound(generators),
        "brauer_bound_min": brauer_bound_min(generators) if len(generators) <= 8 else None,
    }
    _emit_json(report)
    return 0


def _cmd_hilbert(args) -> int:
    family = WciFamily.parse(args.family)
    coeffs, formal = hilbert.series(family, args.upto)
    if args.json:
        _emit_json(
            {
                "family": family.encode(),
                "upto": args.upto,
                "coefficients": coeffs,
                "formal": formal,
            }
        )
    else:
        _print("k,h0")
        for k, hk in enumerate(coeffs):
            _print(f"{k},{hk}")
    return 0


def _cmd_base_locus(args) -> int:
    family = WciFamily.parse(args.family)
    components = wci.base_locus(family, args.ell)
    if args.json:
        _emit_json(
            {
                "family": family.encode(),
                "ell": args.ell,
                "base_point_free": not components,
                "components": [c.as_dict() for c in components],
            }
        )
    elif not components:
        _print("base-point free")
    else:
        for comp in components:
            _print(f"values={','.join(map(str, comp.values))} family={comp.family.encode()}")
    if args.assert_empty:
        return 0 if not components else 1
    return 0


def _bounds_from(args) -> verify.SearchBounds:
    return verify.SearchBounds(args.max_codim, args.max_vars, args.max_weight, args.max_degree)


def _cmd_enumerate(args) -> int:
    keep = verify.FamilyFilter(
        require_fano=args.fano,
        require_calabi_yau=args.calabi_yau,
        require_smooth=args.smooth,
        require_quasi_smooth=args.quasi_smooth,
        require_well_formed=args.well_formed,
        exclude_linear_cones=args.non_cone,
        gcd_one_weights=args.gcd_one,
    )
    instances = verify.enumerate_instances(_bounds_from(args), args.kind, keep)
    for encoding, annotations in instances:
        if args.json:
            _emit_json({"instance": encoding, **annotations})
        else:
            _print(encoding)
    return 0


def _cmd_verify(args) -> int:
    bounds = _bounds_from(args)
    claim = args.claim
    workers = args.workers if args.workers is not None else verify.default_workers()
    if claim == "lemma-qdiv":
        if args.q is None:
            raise UsageError("lemma-qdiv requires --q")
        report = verify.verify_lemma_qdiv(bounds, args.q, workers=workers)
    else:
        if args.q is not None:
            raise UsageError("--q only applies to lemma-qdiv")
        report = verify.CLAIMS[claim](bounds, workers=workers)
    if args.json:
        _emit_json(report.as_dict())
    elif args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["kind", "encoding", "detail"])
        for label, entries in (
            ("counterexample", report.counterexamples),
            ("witness", report.equality_witnesses),
        ):
            for entry in entries:
                writer.writerow([label, *verify._entry_key(entry)])
    else:
        _print(f"claim: {report.claim}")
        _print(f"checked: {report.instances_checked}")
        _print(f"counterexamples: {len(report.counterexamples)}")
        _print(f"equality_witnesses: {len(report.equality_witnesses)}")
        _print(f"elapsed_ms: {report.elapsed_ms}")
    return 0


def _add_bounds_arguments(sub) -> None:
    sub.add_argument("--max-codim", type=int, required=True)
    sub.add_argument("--max-vars", type=int, required=True)
    sub.add_argument("--max-weight", type=int, required=True)
    sub.add_argument("--max-degree", type=int, required=True)


def _add_filter_arguments(sub) -> None:
    sub.add_argument("--fano", action="store_true", help="keep only Fano instances")
    sub.add_argument("--calabi-yau", dest="calabi_yau", action="store_true")
    sub.add_argument("--smooth", action="store_true")
    sub.add_argument("--quasi-smooth", dest="quasi_smooth", action="store_true")
    sub.add_argument("--well-formed", dest="well_formed", action="store_true")
    sub.add_argument("--non-cone", dest="non_cone", action="store_true")
    sub.add_argument("--gcd-one", dest="gcd_one", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wci",
        description="Weighted complete intersection toolkit: predicates, "
        "pair calculus, section counts, enumeration, verification.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("check", help="predicate report for one family")
    p.add_argument("family", help='family encoding, e.g. "8,8,8 / 2^4,3^5,5^3"')
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--assert",
        dest="assert_field",
        choices=["well_formed", "quasi_smooth", "smooth", "linear_cone"],
        help="exit 1 when the field is false, 3 when undefined",
    )
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("pair", help="pair calculus: regularity, cancellation, splits")
    p.add_argument("pair", help='pair encoding, e.g. "6,6 / 2^2,3^2"')
    p.add_argument("--h", type=int, default=1, help="regularity level (default 1)")
    p.add_argument("--split", type=int, help="also split at this prime")
    p.add_argument("--json", action="store_true")
    p.add_argument("--assert", dest="assert_field", choices=["regular", "h_regular"])
    p.set_defaults(func=_cmd_pair)

    p = subs.add_parser("frobenius", help="Frobenius number of a generator list")
    p.add_argument("generators", help="comma-separated positive integers")
    p.add_argument("--json", action="store_true", help="include Brauer bounds")
    p.set_defaults(func=_cmd_frobenius)

    p = subs.add_parser("hilbert", help="section dimensions h0(X, O(k)) as CSV")
    p.add_argument("family")
    p.add_argument("upto", type=int, help="largest k to print")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hilbert)

    p = subs.add_parser("base-locus", help="base locus components of |O_X(ell)|")
    p.add_argument("family")
    p.add_argument("ell", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("--assert-empty", dest="assert_empty", action="store_true")
    p.set_defaults(func=_cmd_base_locus)

    p = subs.add_parser("enumerate", help="stream canonical instances in bounds")
    _add_bounds_arguments(p)
    p.add_argument("--kind", choices=["pairs", "families"], default="families")
    _add_filter_arguments(p)
    p.add_argument("--json", action="store_true", help="JSON line per instance")
    p.set_defaults(func=_cmd_enumerate)

    p = subs.add_parser("verify", help="exhaustively verify a claim in bounds")
    p.add_argument("claim", choices=sorted(verify.CLAIMS))
    _add_bounds_arguments(p)
    p.add_argument("--q", type=int, help="prime for lemma-qdiv")
    p.add_argument("--workers", type=int, default=None)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
