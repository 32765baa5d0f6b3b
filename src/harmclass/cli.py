"""Command-line front end.

Emits bound tables and verification reports as JSON lines or CSV.  Each
command only builds its rows and the library checks the flag values; ``main``
alone renders the rows (CSV leaves out list-valued fields), writes them to
stdout or ``--out`` and picks the exit code.  Output is deterministic:
identical flags (including the seed) give byte-identical bytes.  Only
``bounds`` takes ``--n-max``; ``verify`` checks the coefficient bounds for
n = 2..12.

Exit codes: 0 success (all verifications passed), 1 at least one
verification failed, 2 invalid flags (a flag value the library rejects with
``ValueError`` or an ``--out`` that cannot be opened; nothing is written),
3 numerical non-convergence.

Usage examples:

    hcl bounds --alpha 0 --beta 0 --delta 1 --n-max 5 --format csv
    hcl bloch  --alpha 0 --beta 0 --delta 1
    hcl verify --alpha 0.3 --beta 0.5 --delta 1 --members 100 --seed 7
    hcl table  --alpha 0,0.3 --beta 0,0.5 --delta 0,1 --format csv
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import itertools
import json
import sys

from . import bounds, verify
from .errors import QuadratureError, RootCountError
from .model import ClassParams

__all__ = ["main", "build_parser"]


def _fmt(value: float) -> str:
    return f"{value:.15g}"


def _float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part != ""]
        if values:
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a non-empty comma-separated float list: {text!r}")


def _params(args: argparse.Namespace) -> ClassParams:
    return ClassParams(alpha=args.alpha, beta=args.beta, delta=args.delta)


def _param_dict(params: ClassParams) -> dict:
    return {"alpha": params.alpha, "beta": params.beta, "delta": params.delta}


def _row(theorem: str, params: ClassParams, **fields) -> dict:
    """One bound record: theorem, parameters, then ``fields`` in their order."""
    return {"theorem": theorem, **_param_dict(params), **fields}


def _rows_to_lines(rows: list[dict], fmt: str) -> list[str]:
    if fmt == "json":
        return [json.dumps(row, sort_keys=True) for row in rows]
    header = [k for k, v in rows[0].items() if not isinstance(v, list)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            _fmt(v) if isinstance(v, float) else str(v) for v in (row[k] for k in header)
        )
    return buf.getvalue().splitlines()


def _cmd_bounds(args) -> list[dict]:
    params = _params(args)
    values = bounds.bn_bounds(params, args.n_max).tolist()
    return [_row("coeff_bound", params, n=n, value=value) for n, value in enumerate(values, 2)]


def _cmd_table(args) -> list[dict]:
    rows = []
    for alpha, beta, delta in itertools.product(args.alpha, args.beta, args.delta):
        params = ClassParams(alpha=alpha, beta=beta, delta=delta)
        bl = bounds.bloch_bound(params)
        area = bounds.area_envelope(params)
        rows.append(_row(
            "summary", params,
            b2_bound=bounds.bn_bound(params, 2),
            b3_bound=bounds.bn_bound(params, 3),
            normality=bounds.normality_constant(params),
            covering=bounds.covering_radius(params),
            covering_floor=bounds.covering_radius_floor(params),
            area_lower=area.lower,
            area_upper=area.upper,
            bloch_r0=bl.r0,
            bloch_bound=bl.bound,
        ))
    return rows


def _cmd_verify(args) -> list[dict]:
    params = _params(args)
    results = verify.run_member_suite(params, members=args.members, seed=args.seed)
    return [
        verify.report_to_dict(report, member=index, seed=args.seed, **_param_dict(params))
        for index, _member, reports in results
        for report in sorted(reports, key=lambda rep: rep.theorem)
    ]


def _cmd_bloch(args) -> list[dict]:
    params = _params(args)
    res = bounds.bloch_bound(params)
    return [_row("bloch", params, r0=res.r0, bound=res.bound,
                 H=list(res.H_coeffs), bracket=list(res.bracket))]


def _cmd_area(args) -> list[dict]:
    params = _params(args)
    env = bounds.area_envelope(params)
    return [_row("area", params, lower=env.lower, upper=env.upper)]


def _cmd_cover(args) -> list[dict]:
    params = _params(args)
    return [_row("covering", params,
                 value=bounds.covering_radius(params),
                 floor=bounds.covering_radius_floor(params))]


def _cmd_growth(args) -> list[dict]:
    params = _params(args)
    rows = []
    for r in args.r:
        fg = bounds.f_growth(params, r)
        check = bounds.g_growth_crosscheck(params, r)
        rows.append(_row(
            "growth", params, r=r,
            f_lower=fg.lower,
            f_floor=bounds.f_growth_floor(params, r),
            f_upper=fg.upper,
            g_lower=check.closed.lower,
            g_upper=check.closed.upper,
            g_lower_quadrature=check.quadrature.lower,
            g_forms_agree=check.agrees,
        ))
    return rows


#: Command name -> (row builder, help text), in the order ``--help`` lists them.
_COMMANDS = {
    "bounds": (_cmd_bounds, "coefficient bound table"),
    "table": (_cmd_table, "bound summary over a parameter lattice"),
    "verify": (_cmd_verify, "sample members and verify every bound"),
    "bloch": (_cmd_bloch, "Bloch-constant bound and critical radius"),
    "area": (_cmd_area, "area envelope"),
    "cover": (_cmd_cover, "covering radius (stated and floor forms)"),
    "growth": (_cmd_growth, "growth envelopes at chosen radii"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcl",
        description="Bounds and verification for the restricted harmonic mapping class.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    subs = {name: commands.add_parser(name, help=text) for name, (_, text) in _COMMANDS.items()}
    for name, sub in subs.items():
        kind = _float_list if name == "table" else float
        for flag in ("--alpha", "--beta", "--delta"):
            sub.add_argument(flag, type=kind, required=True)
    subs["bounds"].add_argument("--n-max", type=int, default=8)
    subs["verify"].add_argument("--members", type=int, default=100)
    subs["verify"].add_argument("--seed", type=int, default=0)
    subs["growth"].add_argument("--r", type=_float_list, default=[0.25, 0.5, 0.75])
    for sub in subs.values():
        sub.add_argument("--format", choices=("json", "csv"), default="json")
        sub.add_argument("--out", default=None, help="output path (default: stdout)")
        sub.set_defaults(subparser=sub)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # named by the subcommand that rejects them, with its usage line
        args.subparser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        rows = _COMMANDS[args.command][0](args)
    except ValueError as exc:
        parser.error(str(exc))
    except QuadratureError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    except RootCountError as exc:
        print(f"root isolation failed: {exc}", file=sys.stderr)
        return 3
    text = "\n".join(_rows_to_lines(rows, args.format)) + "\n"
    try:
        sink = (contextlib.nullcontext(sys.stdout) if args.out is None
                else open(args.out, "w", encoding="utf-8"))
    except OSError as exc:
        parser.error(f"cannot open --out: {exc}")
    with sink as fh:
        fh.write(text)
    return 1 if any(row.get("passed") is False for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
