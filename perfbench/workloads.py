"""The three benchmark workloads: seeded inputs, the timed call, and the gate.

A workload yields its inputs in *passes*.  A pass is the smallest group of
units whose mix of costs is the workload's intended mix, so the timed loop
always stops on a pass boundary and every run measures the same mix.

  * ``sweep``     one member at each point of the criterion-7 lattice, through
                  ``verify.run_member_suite``.
  * ``high_beta`` ``hcl verify --members 1`` through ``cli.main`` at
                  beta = 0.9 twice and beta = 0.99 once.  The 2:1 mix keeps the
                  median inside the beta = 0.9 cluster and the 90th percentile
                  inside the beta = 0.99 cluster; an even mix would put both
                  percentiles in the gap between the two clusters.
  * ``bounds``    64 random parameter points, each making the library calls
                  behind one ``hcl table`` row and one ``hcl growth`` row set.

The gate runs fixed inputs that do not depend on the run's seed and compares
a summary of the outputs with ``reference.json``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from harmclass import bounds, cli, verify
from harmclass.errors import QuadratureError, RootCountError
from harmclass.model import ClassParams

WORKLOADS = ("sweep", "high_beta", "bounds")

#: Errors that count a unit as a failed operation instead of ending the run.
NUMERICAL_ERRORS = (QuadratureError, RootCountError)

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Largest difference from the reference that still passes the gate.
GATE_TOL = 1e-12

#: Seed of the gate inputs; fixed so that any run seed is checked against
#: the same stored reference.
GATE_SEED = 20180914

SWEEP_LATTICE = tuple(
    ClassParams(alpha, beta, delta)
    for alpha in (0.0, 0.3, 0.6)
    for beta in (0.0, 0.3, 0.6)
    for delta in (0.0, 1.0)
)
HIGH_BETA_PASS = (
    ClassParams(0.3, 0.9, 1.0),
    ClassParams(0.3, 0.9, 1.0),
    ClassParams(0.3, 0.99, 1.0),
)
BOUNDS_PASS_SIZE = 64

#: The radii ``hcl growth`` uses when ``--r`` is not given.
GROWTH_RADII = (0.25, 0.5, 0.75)


def _seed_stream(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _random_point(rng: np.random.Generator) -> ClassParams:
    return ClassParams(
        float(rng.uniform(0.0, 0.9)),
        float(rng.uniform(0.0, 0.99)),
        float(rng.uniform(0.0, 2.0)),
    )


def passes(workload: str, seed: int):
    """Endless stream of passes; the same seed gives the same stream."""
    rng = np.random.default_rng(seed)
    while True:
        if workload == "sweep":
            yield [(params, _seed_stream(rng)) for params in SWEEP_LATTICE]
        elif workload == "high_beta":
            yield [(params, _seed_stream(rng)) for params in HIGH_BETA_PASS]
        elif workload == "bounds":
            yield [_random_point(rng) for _ in range(BOUNDS_PASS_SIZE)]
        else:
            raise ValueError(f"unknown workload {workload!r}")


def verify_argv(params: ClassParams, members: int, seed: int, out_path: str) -> list[str]:
    return [
        "verify",
        "--alpha", repr(params.alpha),
        "--beta", repr(params.beta),
        "--delta", repr(params.delta),
        "--members", str(members),
        "--seed", str(seed),
        "--out", out_path,
    ]


def bound_row(params: ClassParams) -> tuple:
    """The library calls behind one ``hcl table`` row and one ``hcl growth``
    row set, in the order the CLI makes them."""
    tol = bounds.DEFAULT_QUAD_TOL
    bloch = bounds.bloch_bound(params)
    area = bounds.area_envelope(params, tol)
    row = [
        bounds.bn_bound(params, 2),
        bounds.bn_bound(params, 3),
        bounds.normality_constant(params, tol),
        bounds.covering_radius(params, tol),
        bounds.covering_radius_floor(params, tol),
        area.lower,
        area.upper,
        bloch.r0,
        bloch.bound,
    ]
    for r in GROWTH_RADII:
        fg = bounds.f_growth(params, r, tol)
        check = bounds.g_growth_crosscheck(params, r, tol)
        row += [
            fg.lower,
            bounds.f_growth_floor(params, r, tol),
            fg.upper,
            check.closed.lower,
            check.closed.upper,
            check.quadrature.lower,
        ]
    return tuple(row)


class Runner:
    """Calls one unit of a workload and turns the raw result into an outcome.

    ``call`` is the timed part.  ``outcome`` is not timed; it returns
    ``(failed, record, problems)``: whether the unit is a failed operation,
    a deterministic record of its output, and any broken invariants.
    """

    def __init__(self, workload: str, scratch_dir: Path) -> None:
        self.workload = workload
        self.out_path = str(scratch_dir / "hcl-verify.jsonl")

    def call(self, unit):
        if self.workload == "sweep":
            params, seed = unit
            ((_index, _member, reports),) = verify.run_member_suite(params, 1, seed)
            return reports
        if self.workload == "high_beta":
            params, seed = unit
            return cli.main(verify_argv(params, 1, seed, self.out_path))
        return bound_row(unit)

    def outcome(self, unit, raw):
        if isinstance(raw, NUMERICAL_ERRORS):
            return True, f"{type(raw).__name__}: {raw}", []
        if self.workload == "sweep":
            return _sweep_outcome(raw)
        if self.workload == "high_beta":
            return _high_beta_outcome(unit, raw, self.out_path)
        return _bounds_outcome(unit, raw)


def _sweep_outcome(reports):
    problems = []
    if tuple(rep.theorem for rep in reports) != verify.MEMBER_THEOREMS:
        problems.append(f"unexpected theorem list {[rep.theorem for rep in reports]}")
    failed = not all(rep.passed for rep in reports)
    return failed, repr(reports), problems


def _high_beta_outcome(unit, code, out_path):
    params, seed = unit
    text = Path(out_path).read_text(encoding="utf-8") if code in (0, 1) else ""
    problems = []
    if code not in (0, 1, 3):
        problems.append(f"hcl verify exited with {code}")
    records = [json.loads(line) for line in text.splitlines()]
    if code in (0, 1):
        if sorted(rec["theorem"] for rec in records) != sorted(verify.MEMBER_THEOREMS):
            problems.append("hcl verify did not emit one record per theorem")
        if any(rec["seed"] != seed or rec["beta"] != params.beta for rec in records):
            problems.append("hcl verify records carry the wrong seed or parameters")
        if (code == 0) != all(rec["passed"] for rec in records):
            problems.append(f"exit code {code} disagrees with the records")
    return code != 0, f"{code}\n{text}", problems


def _bounds_outcome(params, row):
    problems = []
    if not all(math.isfinite(v) for v in row):
        problems.append(f"non-finite bound at {params}")
    area_lower, area_upper = row[5], row[6]
    if area_lower > area_upper:
        problems.append(f"area envelope inverted at {params}")
    if row[4] > row[3]:
        problems.append(f"covering floor above the stated radius at {params}")
    return False, repr(row), problems


# --- correctness gate -------------------------------------------------------


def _key(params: ClassParams) -> str:
    return f"{params.alpha!r},{params.beta!r},{params.delta!r}"


def _theorem_summary(records) -> dict:
    """Pass count and minimum worst_margin per theorem."""
    out = {}
    for theorem, passed, margin in records:
        count, low = out.get(theorem, (0, math.inf))
        out[theorem] = [count + int(passed), min(low, margin)]
    return out


def gate_summary(workload: str, scratch_dir: Path) -> dict:
    """Outputs of the fixed gate inputs, summarized for the reference."""
    if workload == "sweep":
        summary = {}
        for params in SWEEP_LATTICE:
            results = verify.run_member_suite(params, 3, GATE_SEED)
            summary[_key(params)] = _theorem_summary(
                (rep.theorem, rep.passed, rep.worst_margin)
                for _i, _m, reports in results
                for rep in reports
            )
        return summary
    if workload == "high_beta":
        out_path = scratch_dir / "hcl-verify-gate.jsonl"
        summary = {}
        for params in dict.fromkeys(HIGH_BETA_PASS):
            out_path.unlink(missing_ok=True)
            code = cli.main(verify_argv(params, 2, GATE_SEED, str(out_path)))
            text = out_path.read_text() if out_path.exists() else ""
            records = [json.loads(line) for line in text.splitlines()]
            summary[_key(params)] = {
                "exit_code": code,
                **_theorem_summary(
                    (rec["theorem"], rec["passed"], rec["worst_margin"]) for rec in records
                ),
            }
        out_path.unlink(missing_ok=True)
        return summary
    rng = np.random.default_rng(GATE_SEED)
    points = [_random_point(rng) for _ in range(24)]
    return {_key(p): list(bound_row(p)) for p in points}


def compare(reference, actual, path: str = "") -> list[str]:
    """Differences between two gate summaries; floats may differ by GATE_TOL."""
    if isinstance(reference, dict) and isinstance(actual, dict):
        if reference.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(reference)}"]
        return [
            d for k in reference for d in compare(reference[k], actual[k], f"{path}/{k}")
        ]
    if isinstance(reference, list) and isinstance(actual, list):
        if len(reference) != len(actual):
            return [f"{path}: length {len(actual)} != {len(reference)}"]
        return [
            d
            for i, (r, a) in enumerate(zip(reference, actual))
            for d in compare(r, a, f"{path}[{i}]")
        ]
    if isinstance(reference, float) and isinstance(actual, (int, float)):
        if abs(reference - actual) <= GATE_TOL:
            return []
        return [f"{path}: {actual!r} differs from reference {reference!r}"]
    if type(reference) is type(actual) and reference == actual:
        return []
    return [f"{path}: {actual!r} != reference {reference!r}"]


def check_gate(workload: str, scratch_dir: Path) -> list[str]:
    reference = json.loads(REFERENCE_PATH.read_text())[workload]
    return compare(reference, gate_summary(workload, scratch_dir))
