"""Command-line front end.

Emits bound tables, verification reports and plot-ready envelope data as
JSON/JSONL or CSV.  Output is deterministic: identical flags (including the
seed) produce byte-identical bytes.

Exit codes: 0 success (all verifications passed), 1 at least one
verification failed, 2 invalid flags, 3 numerical non-convergence.

Usage examples:

    hcl bounds --alpha 0 --beta 0 --delta 1 --n-max 5 --format csv
    hcl bloch  --alpha 0 --beta 0 --delta 1
    hcl verify --alpha 0.3 --beta 0.5 --delta 1 --members 100 --seed 7
    hcl table  --alpha 0,0.3 --beta 0,0.5 --delta 0,1 --format csv
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Iterable

from . import bounds, verify
from .errors import QuadratureError, RootCountError
from .model import ClassParams, default_truncation_order

__all__ = ["main", "build_parser"]

_ENV_TOL = "HCL_TOL"


def _fmt(value: float) -> str:
    return f"{value:.15g}"


def _positive_tol(text: str) -> float:
    try:
        tol = float(text)
        if 0.0 < tol < math.inf:
            return tol
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a positive finite float: {text!r}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc


def _add_param_flags(sub: argparse.ArgumentParser, lists: bool = False) -> None:
    kind = _float_list if lists else float
    sub.add_argument("--alpha", type=kind, required=True)
    sub.add_argument("--beta", type=kind, required=True)
    sub.add_argument("--delta", type=kind, required=True)


def _add_io_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcl",
        description="Bounds and verification for the restricted harmonic mapping class.",
    )
    # metavar hides the unstable debugging commands (digamma, quad) from help
    commands = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{bounds,table,verify,bloch,area,cover,growth}",
    )

    p_bounds = commands.add_parser("bounds", help="coefficient bound table")
    _add_param_flags(p_bounds)
    p_bounds.add_argument("--n-max", type=int, default=8)
    _add_io_flags(p_bounds)

    p_table = commands.add_parser("table", help="bound summary over a parameter lattice")
    _add_param_flags(p_table, lists=True)
    _add_io_flags(p_table)

    p_verify = commands.add_parser("verify", help="sample members and verify every bound")
    _add_param_flags(p_verify)
    p_verify.add_argument("--members", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--n-max", type=int, default=12)
    _add_io_flags(p_verify)

    p_bloch = commands.add_parser("bloch", help="Bloch-constant bound and critical radius")
    _add_param_flags(p_bloch)
    _add_io_flags(p_bloch)

    p_area = commands.add_parser("area", help="area envelope")
    _add_param_flags(p_area)
    _add_io_flags(p_area)

    p_cover = commands.add_parser("cover", help="covering radius (stated and floor forms)")
    _add_param_flags(p_cover)
    _add_io_flags(p_cover)

    p_growth = commands.add_parser("growth", help="growth envelopes at chosen radii")
    _add_param_flags(p_growth)
    p_growth.add_argument("--r", type=_float_list, default=[0.25, 0.5, 0.75])
    _add_io_flags(p_growth)

    # Unstable debugging commands, intentionally absent from --help.
    p_digamma = commands.add_parser("digamma")
    p_digamma.add_argument("--x", type=float, required=True)
    _add_io_flags(p_digamma)

    p_quad = commands.add_parser("quad")
    p_quad.add_argument("--coeffs", type=_float_list, required=True,
                        help="ascending polynomial coefficients")
    p_quad.add_argument("--a", type=float, default=0.0)
    p_quad.add_argument("--b", type=float, default=1.0)
    _add_io_flags(p_quad)

    # argparse runs a string default (here $HCL_TOL) through the type check too
    for sub in (p_table, p_area, p_cover, p_growth, p_quad):
        sub.add_argument("--tol", type=_positive_tol,
                         default=os.environ.get(_ENV_TOL, bounds.DEFAULT_QUAD_TOL),
                         help=f"quadrature tolerance (default: ${_ENV_TOL} or "
                         f"{bounds.DEFAULT_QUAD_TOL:g})")
    return parser


def _params_from(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ClassParams:
    try:
        params = ClassParams(alpha=args.alpha, beta=args.beta, delta=args.delta)
        params.require_nonnegative_delta()
    except ValueError as exc:
        parser.error(str(exc))
    return params


def _param_dict(params: ClassParams) -> dict:
    return {"alpha": params.alpha, "beta": params.beta, "delta": params.delta}


def _emit(lines: Iterable[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _rows_to_lines(rows: list[dict], fmt: str) -> list[str]:
    if fmt == "json":
        return [json.dumps(row, sort_keys=True) for row in rows]
    header = list(rows[0].keys()) if rows else []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            _fmt(v) if isinstance(v, float) else str(v) for v in (row[k] for k in header)
        )
    return buf.getvalue().splitlines()


def _require_n_max(args, parser) -> None:
    if args.n_max < 2:
        parser.error("--n-max must be >= 2")


def _cmd_bounds(args, parser) -> int:
    params = _params_from(args, parser)
    _require_n_max(args, parser)
    rows = [
        {
            "theorem": "coeff_bound",
            **_param_dict(params),
            "n": n,
            "value": bounds.bn_bound(params, n),
        }
        for n in range(2, args.n_max + 1)
    ]
    _emit(_rows_to_lines(rows, args.format), args.out)
    return 0


def _cmd_table(args, parser) -> int:
    rows = []
    for alpha in args.alpha:
        for beta in args.beta:
            for delta in args.delta:
                try:
                    params = ClassParams(alpha=alpha, beta=beta, delta=delta)
                    params.require_nonnegative_delta()
                except ValueError as exc:
                    parser.error(str(exc))
                bl = bounds.bloch_bound(params)
                area = bounds.area_envelope(params, args.tol)
                row = {
                    "theorem": "summary",
                    **_param_dict(params),
                    "b2_bound": bounds.bn_bound(params, 2),
                    "b3_bound": bounds.bn_bound(params, 3),
                    "normality": bounds.normality_constant(params, args.tol),
                    "covering": bounds.covering_radius(params, args.tol),
                    "covering_floor": bounds.covering_radius_floor(params, args.tol),
                    "area_lower": area.lower,
                    "area_upper": area.upper,
                    "bloch_r0": bl.r0,
                    "bloch_bound": bl.bound,
                }
                rows.append(row)
    _emit(_rows_to_lines(rows, args.format), args.out)
    return 0


def _cmd_verify(args, parser) -> int:
    params = _params_from(args, parser)
    _require_n_max(args, parser)
    if args.members < 1:
        parser.error("--members must be >= 1")
    try:
        default_truncation_order(params.beta)
    except ValueError as exc:
        parser.error(str(exc))
    results = verify.run_member_suite(
        params, members=args.members, seed=args.seed, n_max=args.n_max
    )
    rows = []
    any_failed = False
    for index, _member, reports in results:
        for report in sorted(reports, key=lambda rep: rep.theorem):
            any_failed = any_failed or not report.passed
            rows.append(
                verify.report_to_dict(
                    report, member=index, seed=args.seed, **_param_dict(params)
                )
            )
    _emit(_rows_to_lines(rows, args.format), args.out)
    return 1 if any_failed else 0


def _cmd_bloch(args, parser) -> int:
    params = _params_from(args, parser)
    result = bounds.bloch_bound(params)
    row = {
        "theorem": "bloch",
        **_param_dict(params),
        "r0": result.r0,
        "bound": result.bound,
        "H": list(result.H_coeffs),
        "bracket": list(result.bracket),
    }
    if args.format == "csv":
        flat = {k: v for k, v in row.items() if not isinstance(v, list)}
        _emit(_rows_to_lines([flat], "csv"), args.out)
    else:
        _emit([json.dumps(row, sort_keys=True)], args.out)
    return 0


def _cmd_area(args, parser) -> int:
    params = _params_from(args, parser)
    env = bounds.area_envelope(params, args.tol)
    rows = [
        {
            "theorem": "area",
            **_param_dict(params),
            "lower": env.lower,
            "upper": env.upper,
            "tol": args.tol,
        }
    ]
    _emit(_rows_to_lines(rows, args.format), args.out)
    return 0


def _cmd_cover(args, parser) -> int:
    params = _params_from(args, parser)
    rows = [
        {
            "theorem": "covering",
            **_param_dict(params),
            "value": bounds.covering_radius(params, args.tol),
            "floor": bounds.covering_radius_floor(params, args.tol),
            "tol": args.tol,
        }
    ]
    _emit(_rows_to_lines(rows, args.format), args.out)
    return 0


def _cmd_growth(args, parser) -> int:
    params = _params_from(args, parser)
    rows = []
    for r in args.r:
        if not 0.0 <= r < 1.0:
            parser.error(f"--r values must be in [0, 1), got {r}")
        fg = bounds.f_growth(params, r, args.tol)
        check = bounds.g_growth_crosscheck(params, r, args.tol)
        rows.append(
            {
                "theorem": "growth",
                **_param_dict(params),
                "r": r,
                "f_lower": fg.lower,
                "f_floor": bounds.f_growth_floor(params, r, args.tol),
                "f_upper": fg.upper,
                "g_lower": check.closed.lower,
                "g_upper": check.closed.upper,
                "g_lower_quadrature": check.quadrature.lower,
                "g_forms_agree": check.agrees,
            }
        )
    _emit(_rows_to_lines(rows, args.format), args.out)
    return 0


def _cmd_digamma(args, parser) -> int:
    from .numerics import digamma

    try:
        value = digamma(args.x)
    except ValueError as exc:
        parser.error(str(exc))
    _emit([json.dumps({"x": args.x, "digamma": value}, sort_keys=True)], args.out)
    return 0


def _cmd_quad(args, parser) -> int:
    from .numerics import Polynomial, adaptive_quadrature

    poly = Polynomial(args.coeffs)
    value = adaptive_quadrature(poly, args.a, args.b, args.tol)
    _emit(
        [json.dumps({"a": args.a, "b": args.b, "value": value, "tol": args.tol}, sort_keys=True)],
        args.out,
    )
    return 0


_HANDLERS = {
    "bounds": _cmd_bounds,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "bloch": _cmd_bloch,
    "area": _cmd_area,
    "cover": _cmd_cover,
    "growth": _cmd_growth,
    "digamma": _cmd_digamma,
    "quad": _cmd_quad,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args, parser)
    except QuadratureError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    except RootCountError as exc:
        print(f"root isolation failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
