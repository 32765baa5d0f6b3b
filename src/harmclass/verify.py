"""Independent numerical verification of the bounds against concrete members.

For a given map the suite measures the quantity each inequality controls
(coefficient moduli, |h'| and |g'| on grids, area, growth, boundary minimum
modulus, weighted stretch supremum) and reports the worst margin against the
corresponding bound.  Violations are reported, never raised: a negative
margin is data about the bound, not an exception in the code.

The grid checks (distortion, g-growth, f-growth, Bloch) read one sample per
member (|h'|, |w|, |g| and |f| on the grid, each evaluated once) and one
envelope table per (params, grid): the |h'| and |g'| envelopes over the radii
and the cumulative radial integrals of the |g'| upper envelope (shared by g-
and f-growth), the |g'| lower envelope (kink at beta) and the f floor.
``run_member_suite`` builds the table once for all its members.  Each check is
one margin array of shape (radii, sides, angles) and one argmin, so the first
minimum in that order wins ties; the witness is formatted at that point only.

Two checks deliberately reference the derived companions of the stated
growth forms (see the bounds module):

  * g-growth lower margins are only scored where the envelope derivation is
    sound - all radii when beta = 0, radii <= beta otherwise.  Beyond that
    regime the stated bound is violated even by the identity-like member
    h = z with a Moebius dilatation, so scoring it would only measure the
    formula's defect, which the cross-check records already capture.
  * covering / f-growth lower margins compare against ``f_growth_floor``,
    which the degree-2 extremal member attains with equality; the stated
    lower form lies strictly above that attainable envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .factory import build_member, certify, sample_certified_h
from .model import (
    ClassParams,
    HarmonicMapSpec,
    evaluate_dilatation,
    jacobian_at,
    moebius_dilatation,
)
from .numerics import adaptive_quadrature, cumulative_quadrature
from .series import TruncatedSeries, differentiate, evaluate, lincomb

__all__ = [
    "DEFAULT_SLACK",
    "MEMBER_THEOREMS",
    "PolarGrid",
    "VerificationReport",
    "default_polar_grid",
    "verify_coefficients",
    "verify_distortion",
    "verify_g_growth",
    "verify_area",
    "verify_f_growth",
    "verify_covering",
    "verify_bloch",
    "verify_convexity",
    "verify_member",
    "run_member_suite",
    "report_to_dict",
]

DEFAULT_SLACK = 1e-9

MEMBER_THEOREMS = ("coeff", "distortion", "g_growth", "area", "f_growth", "covering", "bloch")


@dataclass(frozen=True)
class PolarGrid:
    """Evaluation grid: strictly increasing radii in (0, 1) crossed with angles."""

    radii: np.ndarray
    angles: np.ndarray

    def __post_init__(self) -> None:
        r = self.radii
        if r.ndim != 1 or r.size == 0 or not (r[0] > 0.0 and r[-1] < 1.0):
            raise ValueError("grid radii must be a non-empty 1-d array inside (0, 1)")
        if not np.all(r[1:] > r[:-1]):
            raise ValueError("grid radii must be strictly increasing")

    def points(self) -> np.ndarray:
        return self.radii[:, None] * np.exp(1j * self.angles)[None, :]


def default_polar_grid(
    n_radii: int = 64, n_angles: int = 128, r_max: float = 0.995
) -> PolarGrid:
    """Chebyshev-spaced radii (clustered near 0 and r_max) x uniform angles.

    Uses the Lobatto flavor without the origin, so doubling either count
    yields a strict superset of points: measured grid suprema are then
    non-decreasing under refinement.
    """
    j = np.arange(1, n_radii + 1)
    radii = 0.5 * r_max * (1.0 - np.cos(np.pi * j / n_radii))
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    return PolarGrid(radii=radii, angles=angles)


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    passed: bool
    worst_margin: float
    witness: str
    slack: float


def _report(theorem: str, worst: float, witness: str, slack: float) -> VerificationReport:
    return VerificationReport(
        theorem=theorem,
        passed=bool(worst >= -slack),
        worst_margin=float(worst),
        witness=witness,
        slack=slack,
    )


def report_to_dict(report: VerificationReport, **extra) -> dict:
    rec = {
        "theorem": report.theorem,
        "passed": report.passed,
        "worst_margin": report.worst_margin,
        "witness": report.witness,
        "slack": report.slack,
    }
    rec.update(extra)
    return rec


class _GridSample:
    """One member on the grid: |h'|, |w|, |g| and |f|, each evaluated once."""

    def __init__(self, f: HarmonicMapSpec, grid: PolarGrid) -> None:
        z = grid.points()
        g = evaluate(f.g, z)
        self.hprime = np.abs(evaluate(differentiate(f.h), z))
        self.w = np.abs(evaluate_dilatation(f.w, z))
        self.g = np.abs(g)
        self.f = np.abs(evaluate(f.h, z) + np.conj(g))


class _EnvelopeTable:
    """Member-independent references, one row per grid radius (column arrays)."""

    def __init__(self, params: ClassParams, grid: PolarGrid, tol: float = 1e-9) -> None:
        params.require_nonnegative_delta()
        beta, r = params.beta, grid.radii[:, None]
        c = bounds.distortion_slope(params)
        gprime_lower = bounds._gprime_lower_integrand(params)
        gprime_upper = bounds._gprime_upper_integrand(params)

        def integral(f, kinks=()):
            return cumulative_quadrature(f, grid.radii, tol, kinks)[:, None]

        self.grid = grid
        self.hprime_lower = np.maximum(0.0, 1.0 - c * r)
        self.hprime_upper = 1.0 + c * r
        self.gprime_lower = gprime_lower(r)
        self.gprime_upper = gprime_upper(r)
        self.g_upper = integral(gprime_upper)
        self.g_lower = integral(gprime_lower, (beta,))
        # The lower g-growth side is sound at all radii for beta = 0, else up to beta.
        self.g_lower_scored = (r <= beta) | (beta == 0.0)
        self.f_upper = r + 0.5 * c * r**2 + self.g_upper
        self.f_floor = integral(bounds._f_lower_integrand(params, -1.0))


def _grid_report(
    theorem: str, margins: np.ndarray, sides: tuple, grid: PolarGrid, slack: float
) -> VerificationReport:
    """Report the first minimum of ``margins[radius, side, angle]``."""
    r_idx, side, t_idx = np.unravel_index(int(np.argmin(margins)), margins.shape)
    witness = f"{sides[side]} at r={grid.radii[r_idx]:.6g}, theta={grid.angles[t_idx]:.6g}"
    return _report(theorem, margins[r_idx, side, t_idx], witness, slack)


def verify_coefficients(
    f: HarmonicMapSpec,
    params: ClassParams,
    n_max: int,
    slack: float = DEFAULT_SLACK,
) -> VerificationReport:
    """Check |b_n| <= coefficient bound for 2 <= n <= n_max."""
    n_top = min(n_max, f.g.order)
    worst = math.inf
    witness = "no index checked"
    for n in range(2, n_top + 1):
        margin = bounds.bn_bound(params, n) - abs(f.g.coeffs[n])
        if margin < worst:
            worst, witness = margin, f"n={n}"
    if math.isinf(worst):
        worst = 0.0
    return _report("coeff", worst, witness, slack)


def _distortion(sample: _GridSample, table: _EnvelopeTable, slack: float) -> VerificationReport:
    hp, gp = sample.hprime, sample.hprime * sample.w
    margins = np.stack(
        (hp - table.hprime_lower, table.hprime_upper - hp,
         gp - table.gprime_lower, table.gprime_upper - gp),
        axis=1,
    )
    sides = ("|h'| lower", "|h'| upper", "|g'| lower", "|g'| upper")
    return _grid_report("distortion", margins, sides, table.grid, slack)


def verify_distortion(
    f: HarmonicMapSpec,
    params: ClassParams,
    grid: PolarGrid | None = None,
    slack: float = DEFAULT_SLACK,
) -> VerificationReport:
    """Check the |h'| and |g'| envelopes at every grid point."""
    grid = grid or default_polar_grid()
    return _distortion(_GridSample(f, grid), _EnvelopeTable(params, grid), slack)


def _g_growth(sample: _GridSample, table: _EnvelopeTable, slack: float) -> VerificationReport:
    lower = np.where(table.g_lower_scored, sample.g - table.g_lower, np.inf)
    margins = np.stack((table.g_upper - sample.g, lower), axis=1)
    return _grid_report("g_growth", margins, ("|g| upper", "|g| lower"), table.grid, slack)


def verify_g_growth(
    f: HarmonicMapSpec,
    params: ClassParams,
    grid: PolarGrid | None = None,
    slack: float = DEFAULT_SLACK,
    tol: float = 1e-9,
) -> VerificationReport:
    """Check |g| against the growth envelope, quadrature form authoritative.

    Upper margins are scored at all radii; lower margins only on the sound
    regime (all radii for beta = 0, radii <= beta otherwise).
    """
    grid = grid or default_polar_grid()
    return _g_growth(_GridSample(f, grid), _EnvelopeTable(params, grid, tol), slack)


def _measure_area(
    f: HarmonicMapSpec, tol: float = 1e-8, n_angles: int = 128
) -> float:
    """Area of the image counted with multiplicity: tensor quadrature of the
    Jacobian in polar coordinates (adaptive radial x trapezoid angular)."""
    angles = np.exp(2j * np.pi * np.arange(n_angles) / n_angles)

    def ring_mean(r: float) -> float:
        if r == 0.0:
            return 0.0
        return r * float(np.mean(jacobian_at(f, r * angles)))

    return 2.0 * math.pi * adaptive_quadrature(ring_mean, 0.0, 1.0, tol)


def verify_area(
    f: HarmonicMapSpec,
    params: ClassParams,
    tol: float = 1e-8,
    slack: float = DEFAULT_SLACK,
) -> VerificationReport:
    """Measure the Jacobian integral and place it inside the area envelope."""
    measured = _measure_area(f, tol)
    env = bounds.area_envelope(params, min(tol, bounds.DEFAULT_QUAD_TOL))
    margins = (measured - env.lower, env.upper - measured)
    if margins[0] <= margins[1]:
        worst, witness = margins[0], f"area {measured:.12g} vs lower {env.lower:.12g}"
    else:
        worst, witness = margins[1], f"area {measured:.12g} vs upper {env.upper:.12g}"
    return _report("area", worst, witness, slack)


def _f_growth(sample: _GridSample, table: _EnvelopeTable, slack: float) -> VerificationReport:
    margins = np.stack((table.f_upper - sample.f, sample.f - table.f_floor), axis=1)
    return _grid_report("f_growth", margins, ("|f| upper", "|f| floor"), table.grid, slack)


def verify_f_growth(
    f: HarmonicMapSpec,
    params: ClassParams,
    grid: PolarGrid | None = None,
    slack: float = DEFAULT_SLACK,
    tol: float = 1e-9,
) -> VerificationReport:
    """Check |f| against the upper growth bound and the attainable floor."""
    grid = grid or default_polar_grid()
    return _f_growth(_GridSample(f, grid), _EnvelopeTable(params, grid, tol), slack)


def verify_covering(
    f: HarmonicMapSpec,
    params: ClassParams,
    boundary_samples: int = 256,
    slack: float = DEFAULT_SLACK,
    tol: float = bounds.DEFAULT_QUAD_TOL,
) -> VerificationReport:
    """Proxy covering check: the boundary minimum modulus at r = 0.999 must
    clear the attainable growth floor.

    This verifies the inequality the covering statement integrates, not image
    containment itself.
    """
    if boundary_samples < 64:
        raise ValueError("need at least 64 boundary samples")
    r = 0.999
    z = r * np.exp(2j * np.pi * np.arange(boundary_samples) / boundary_samples)
    fm = np.abs(evaluate(f.h, z) + np.conj(evaluate(f.g, z)))
    floor = bounds.f_growth_floor(params, r, tol)
    idx = int(np.argmin(fm))
    worst = float(fm[idx] - floor)
    witness = (
        f"proxy min |f| {fm[idx]:.12g} at theta={2 * math.pi * idx / boundary_samples:.6g} "
        f"vs floor {floor:.12g}"
    )
    return _report("covering", worst, witness, slack)


def _bloch(
    sample: _GridSample, params: ClassParams, grid: PolarGrid, slack: float
) -> VerificationReport:
    weighted = (1.0 - grid.radii[:, None] ** 2) * (sample.hprime * (1.0 + sample.w))
    bound = bounds.bloch_bound(params).bound
    r_idx, t_idx = np.unravel_index(int(np.argmax(weighted)), weighted.shape)
    measured = float(weighted[r_idx, t_idx])
    witness = (
        f"measured {measured:.12g} at r={grid.radii[r_idx]:.6g}, "
        f"theta={grid.angles[t_idx]:.6g} vs bound {bound:.12g}"
    )
    return _report("bloch", bound - measured, witness, slack)


def verify_bloch(
    f: HarmonicMapSpec,
    params: ClassParams,
    grid: PolarGrid | None = None,
    slack: float = DEFAULT_SLACK,
) -> VerificationReport:
    """Grid supremum of (1 - |z|^2)(|h'| + |g'|) against the Bloch bound."""
    grid = grid or default_polar_grid()
    return _bloch(_GridSample(f, grid), params, grid, slack)


def verify_convexity(
    h1: TruncatedSeries,
    h2: TruncatedSeries,
    lambdas,
    params: ClassParams,
    slack: float = DEFAULT_SLACK,
) -> VerificationReport:
    """Convex combinations of certified analytic parts stay certified (beta = 0)."""
    if params.beta != 0.0:
        raise ValueError("convexity statement requires beta = 0")
    params.require_nonnegative_delta()
    for h in (h1, h2):
        if not certify(h, params).ok:
            raise ValueError("convexity inputs must be certified")
    worst = math.inf
    witness = ""
    for lam in lambdas:
        if not 0.0 <= lam <= 1.0:
            raise ValueError("lambda values must lie in [0, 1]")
        mix = lincomb([lam, 1.0 - lam], [h1, h2])
        budget = certify(mix, params).budget_sum
        margin = 1.0 - budget
        if margin < worst:
            worst, witness = margin, f"lambda={lam:.6g}, budget={budget:.12g}"
    return _report("convexity", worst, witness, slack)


def verify_member(
    f: HarmonicMapSpec,
    params: ClassParams,
    n_max: int = 12,
    grid: PolarGrid | None = None,
    slack: float = DEFAULT_SLACK,
    area_tol: float = 1e-8,
) -> list[VerificationReport]:
    """All seven per-member checks, in a fixed order."""
    grid = grid or default_polar_grid()
    return _verify_member(f, params, n_max, _EnvelopeTable(params, grid), slack, area_tol)


def _verify_member(
    f: HarmonicMapSpec,
    params: ClassParams,
    n_max: int,
    table: _EnvelopeTable,
    slack: float,
    area_tol: float = 1e-8,
) -> list[VerificationReport]:
    sample = _GridSample(f, table.grid)
    return [
        verify_coefficients(f, params, n_max, slack),
        _distortion(sample, table, slack),
        _g_growth(sample, table, slack),
        verify_area(f, params, area_tol, slack),
        _f_growth(sample, table, slack),
        verify_covering(f, params, slack=slack),
        _bloch(sample, params, table.grid, slack),
    ]


def run_member_suite(
    params: ClassParams,
    members: int,
    seed: int,
    n_max: int = 12,
    max_degree: int = 16,
    grid: PolarGrid | None = None,
    slack: float = DEFAULT_SLACK,
) -> list[tuple[int, HarmonicMapSpec, list[VerificationReport]]]:
    """Sample ``members`` seeded random members and verify each one.

    Members draw a random certified analytic part (budget fill uniform in
    [0, 1]) and a Moebius dilatation with random rotation phases; the whole
    stream is determined by ``seed``.
    """
    rng = np.random.default_rng(seed)
    table = _EnvelopeTable(params, grid or default_polar_grid())
    out = []
    for index in range(members):
        fill = float(rng.uniform())
        sub_seed = int(rng.integers(0, 2**31 - 1))
        mu = float(rng.uniform(0.0, 2.0 * math.pi))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        h = sample_certified_h(params, max_degree, fill, sub_seed)
        member = build_member(h, moebius_dilatation(params.beta, mu, phi), params)
        out.append((index, member, _verify_member(member, params, n_max, table, slack)))
    return out
