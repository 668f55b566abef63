"""Command line interface.

Every verb prints a single JSON object on stdout (stable key order, compact
separators, one trailing newline) so runs are byte-reproducible given the
same inputs and seed.  Human-oriented progress notes go to stderr.  Exit
codes: 0 on success, 1 when a verification or certificate check fails, 2 on
malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Sequence

from .bounds import predicted_bounds, recurrence_report
from .polyalg import FieldSpec, check_eps, fraction_text, parse_fraction
from .probpoly import (
    Recipe,
    general_recipe,
    get_profile,
    sample,
    threshold_tuple,
)
from .reductions import (
    maj_from_general,
    maj_from_periodic,
    mod_from_periodic,
    thr_complement_from_bounded,
    thr_restrictions,
)
from .symfun import (
    Spectrum,
    bounded_radius_flagged,
    min_t_constant,
    named_spectrum,
    parse_spectrum_file,
    period,
    standard_decomposition,
    threshold_combination,
)
from .verify import _ColumnEvaluator, empirical_error, exact_error


def parse_eps(text: str) -> Fraction:
    """Accept 'a/b', '2^-k', 'a/2^k', or a decimal literal; always exact."""
    return check_eps(parse_fraction(text))


def parse_field(text: str) -> FieldSpec:
    """A field characteristic; argparse reports a refusal with its reason."""
    try:
        return FieldSpec(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors come out as JSON on stdout."""

    def error(self, message):
        _emit(
            {
                "schema_version": 1,
                "error": {"type": "usage", "message": message},
            }
        )
        raise SystemExit(2)


def _add_spectrum_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spectrum", metavar="FILE", help="file holding a 0/1 spectrum string"
    )
    parser.add_argument(
        "--kind",
        metavar="NAME",
        help="named family: OR, AND, MAJ, THR, ETHR, MOD, CONST",
    )
    parser.add_argument("--n", type=int, help="number of inputs")
    parser.add_argument(
        "--params",
        type=int,
        nargs="*",
        default=[],
        metavar="P",
        help="family parameters, e.g. the threshold for THR",
    )
    parser.add_argument("--field", type=parse_field, default=FieldSpec(0))


def _add_construction_args(parser: argparse.ArgumentParser) -> None:
    _add_spectrum_args(parser)
    parser.add_argument(
        "--thresholds",
        type=int,
        nargs="+",
        metavar="T",
        help="build the joint threshold tuple for these values instead",
    )
    parser.add_argument("--eps", type=parse_eps, required=True)
    parser.add_argument(
        "--profile", choices=("paper", "practical"), default="practical"
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="pdeg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="period, radius, and decomposition of a spectrum"
    )
    _add_spectrum_args(p_analyze)

    p_construct = sub.add_parser(
        "construct", help="build a recipe and report its declared bounds"
    )
    _add_construction_args(p_construct)

    p_sample = sub.add_parser(
        "sample", help="draw one polynomial tuple and tabulate its values"
    )
    _add_construction_args(p_sample)
    p_sample.add_argument("--seed", type=int, default=0)

    p_verify = sub.add_parser(
        "verify", help="estimate a recipe's error frequency by sampling"
    )
    _add_construction_args(p_verify)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=10_000)

    p_reduce = sub.add_parser(
        "reduce", help="emit a reduction certificate for a spectrum"
    )
    _add_spectrum_args(p_reduce)
    p_reduce.add_argument(
        "--reduction",
        required=True,
        choices=("mod", "maj-periodic", "thr", "thr-complement", "maj-general"),
    )
    p_reduce.add_argument("--eps", type=parse_eps)
    p_reduce.add_argument(
        "--thresholds", type=int, nargs="+", metavar="T",
        help="threshold value for the thr reduction",
    )
    p_reduce.add_argument(
        "--check", action="store_true", help="re-verify each certificate"
    )

    p_bounds = sub.add_parser(
        "bounds", help="predicted degree bounds, or audit the recursion"
    )
    _add_spectrum_args(p_bounds)
    p_bounds.add_argument("--eps", type=parse_eps, required=True)
    p_bounds.add_argument(
        "--audit", action="store_true", help="audit the degree recursion"
    )
    p_bounds.add_argument(
        "--t", type=int, help="threshold scale for the audit", dest="t_value"
    )
    p_bounds.add_argument(
        "--profile", choices=("paper", "practical"), default="paper"
    )

    return parser


def _resolve_spectrum(args) -> Spectrum:
    if args.spectrum:
        return parse_spectrum_file(args.spectrum)
    if args.kind:
        if args.n is None:
            raise ValueError("--kind requires --n")
        return named_spectrum(args.kind, args.n, *args.params)
    raise ValueError("provide --spectrum FILE, or --kind NAME with --n")


def _resolve_recipe(args) -> Recipe:
    field = args.field
    profile = get_profile(args.profile, field)
    if args.thresholds:
        if args.n is None:
            raise ValueError("--thresholds requires --n")
        return threshold_tuple(
            args.n, tuple(args.thresholds), args.eps, field, profile
        )
    f = _resolve_spectrum(args)
    return general_recipe(f, args.eps, field, profile)


def _cmd_analyze(args) -> tuple[dict, int]:
    f = _resolve_spectrum(args)
    b = period(f)
    radius, degenerate = bounded_radius_flagged(f)
    payload = {
        "n": f.n,
        "spectrum": f.text(),
        "period": b,
        "radius": radius,
        "radius_degenerate": degenerate,
        "t_constant": min_t_constant(f),
        "threshold_combination": list(threshold_combination(f)),
        "decomposition": None,
    }
    if f.n >= 3:
        rep = standard_decomposition(f, args.field.characteristic)
        payload["decomposition"] = {
            "g": rep.g.text(),
            "h": rep.h.text(),
            "period_g": rep.period_g,
            "radius_h": rep.bounded_radius_h,
            "period_is_char_power": rep.period_is_char_power,
        }
    _note(
        f"n={f.n} period={b} radius={radius}"
        + (" (degenerate)" if degenerate else "")
    )
    return payload, 0


def _cmd_construct(args) -> tuple[dict, int]:
    recipe = _resolve_recipe(args)
    payload = {
        "recipe": recipe.to_json(),
        "targets": [s.text() for s in recipe.target_spectra()],
    }
    _note(
        f"{recipe.kind}: n={recipe.n} arity={recipe.arity} "
        f"declared degree bound {recipe.declared_degree_bound} "
        f"randomness_free={recipe.randomness_free}"
    )
    return payload, 0


def _cmd_sample(args) -> tuple[dict, int]:
    recipe = _resolve_recipe(args)
    field = recipe.field
    exprs = sample(recipe, args.seed)
    # One column pass gives every component its values at all the points
    # 1^w 0^(n-w).
    columns = _ColumnEvaluator(field, recipe.n).columns(exprs)
    components = [
        {"tracked_degree": expr.deg, "values": [field.format_element(v) for v in col]}
        for expr, col in zip(exprs, columns)
    ]
    payload = {
        "seed": args.seed,
        "recipe": recipe.to_json(),
        "components": components,
    }
    _note(
        f"drew {len(exprs)} component(s); tracked degrees "
        f"{[c['tracked_degree'] for c in components]}"
        f" (declared {recipe.declared_degree_bound})"
    )
    return payload, 0


def _cmd_verify(args) -> tuple[dict, int]:
    recipe = _resolve_recipe(args)
    report = empirical_error(recipe, trials=args.trials, seed=args.seed)
    try:
        exact = [fraction_text(e) for e in exact_error(recipe)]
    except NotImplementedError:
        exact = None
    payload = {
        "recipe": recipe.to_json(),
        "report": report.to_json(),
        "exact_error": exact,
    }
    _note(
        f"{report.mode}: worst error {report.worst:.6g} at weight "
        f"{report.worst_weight} over {report.trials} trials "
        f"(allowance {float(report.eps):.6g} + {report.slack:.2g}) "
        + ("PASS" if report.passed else "FAIL")
    )
    return payload, 0 if report.passed else 1


def _cmd_reduce(args) -> tuple[dict, int]:
    field = args.field
    if args.reduction == "thr":
        if args.n is None or not args.thresholds:
            raise ValueError("the thr reduction needs --n and --thresholds T")
        if len(args.thresholds) != 1:
            raise ValueError(
                f"the thr reduction takes exactly one threshold, got {args.thresholds}"
            )
        certs = list(thr_restrictions(args.n, args.thresholds[0]))
    elif args.reduction == "mod":
        certs = list(mod_from_periodic(_resolve_spectrum(args), field))
    elif args.reduction == "maj-periodic":
        if args.eps is None:
            raise ValueError("the maj-periodic reduction needs --eps")
        certs = [maj_from_periodic(_resolve_spectrum(args), args.eps, field)]
    elif args.reduction == "thr-complement":
        certs = [thr_complement_from_bounded(_resolve_spectrum(args))]
    else:
        certs = [maj_from_general(_resolve_spectrum(args), field)]

    payload = {
        "reduction": args.reduction,
        "certificates": [c.to_json() for c in certs],
    }
    code = 0
    if args.check:
        checks = [c.check(field) for c in certs]
        payload["checks"] = checks
        if not all(checks):
            code = 1
    for c in certs:
        _note(
            f"{c.kind}: {len(c.restrictions)} restriction(s) -> "
            f"{c.target_label} on n={c.target_n}, degree {c.claimed_degree}"
        )
    return payload, code


def _cmd_bounds(args) -> tuple[dict, int]:
    field = args.field
    if args.audit:
        if args.t_value is None:
            raise ValueError("--audit requires --t")
        profile = get_profile(args.profile, field)
        report = recurrence_report(
            args.t_value, args.eps, profile, field.characteristic
        )
        ok = report["ok"]
        _note(f"recurrence audit: {'PASS' if ok else 'FAIL'}")
        return report, 0 if ok else 1
    f = _resolve_spectrum(args)
    rep = predicted_bounds(f, args.eps, field)
    _note(f"case {rep.case}: upper ~{rep.upper:.4g}")
    return rep.to_json(), 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "construct": _cmd_construct,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
    "reduce": _cmd_reduce,
    "bounds": _cmd_bounds,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = _COMMANDS[args.command](args)
    except (ValueError, NotImplementedError, OSError) as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
    except MemoryError as exc:
        # Python usually raises it with no text of its own.
        message = str(exc) or f"{args.command} ran out of memory"
        error = {"type": "MemoryError", "message": message}
    else:
        _emit({**payload, "schema_version": 1, "command": args.command})
        return code
    _emit({"schema_version": 1, "error": error})
    return 2


if __name__ == "__main__":
    sys.exit(main())
