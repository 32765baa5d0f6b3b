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
and f-growth), the |g'| lower envelope (kink at beta) and the f floor.  The
table also holds the member-independent scalar references: the coefficient
bounds, the area envelope, the covering floor and the Bloch bound.
``run_member_suite`` builds the table once for all its members.  Sample and
table fields are computed when a check first reads them, so a standalone
check computes only what it reads.  Each grid check is one margin array of
shape (radii, sides, angles) and one argmin, so the first minimum in that
order wins ties; the witness is formatted at that point only.

Every evaluation of a member on a ring |z| = r at uniform angles (the grid,
the covering circle, the area rings) goes through ``series.evaluate_polar``:
coefficients folded modulo the angle count, Horner in r^M, one FFT per ring.
The dilatation w is always evaluated from its closed form, so the references
the checks compare against stay independent of the series machinery.

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
from functools import cached_property

import numpy as np

from . import bounds
from .factory import build_member, certify, sample_certified_h
from .model import (
    ClassParams,
    HarmonicMapSpec,
    evaluate_dilatation,
    moebius_dilatation,
)
from .numerics import adaptive_quadrature, cumulative_quadrature
from .series import TruncatedSeries, differentiate, evaluate_polar, lincomb

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

#: Circle on which the covering proxy samples |f|: its radius and point count.
_COVERING_RADIUS = 0.999
_COVERING_SAMPLES = 256


@dataclass(frozen=True)
class PolarGrid:
    """Evaluation grid: strictly increasing radii in (0, 1) crossed with the M
    uniform angles 2*pi*k/M, k = 0..M-1.

    The angles must be exactly ``2.0 * np.pi * np.arange(M) / M`` (as
    ``default_polar_grid`` builds them): the checks evaluate members on the
    grid with ``series.evaluate_polar``, which assumes that angle set.
    """

    radii: np.ndarray
    angles: np.ndarray

    def __post_init__(self) -> None:
        r = self.radii
        if r.ndim != 1 or r.size == 0 or not (r[0] > 0.0 and r[-1] < 1.0):
            raise ValueError("grid radii must be a non-empty 1-d array inside (0, 1)")
        if not np.all(r[1:] > r[:-1]):
            raise ValueError("grid radii must be strictly increasing")
        a = self.angles
        if a.ndim != 1 or a.size == 0 or not np.array_equal(
            a, 2.0 * np.pi * np.arange(a.size) / a.size
        ):
            raise ValueError("grid angles must be 2*pi*arange(M)/M for some M >= 1")

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


def _on_ring(s: TruncatedSeries, r: float, n_angles: int) -> np.ndarray:
    """``s`` at r * exp(2j*pi*k/n_angles), k = 0..n_angles-1."""
    return evaluate_polar(s, [r], n_angles)[0]


class _GridSample:
    """One member on the grid: |h'|, |w|, |g| and |f|, each evaluated once, when
    a check first reads it."""

    def __init__(self, f: HarmonicMapSpec, grid: PolarGrid) -> None:
        self.member = f
        self.grid = grid

    def _polar(self, s: TruncatedSeries) -> np.ndarray:
        return evaluate_polar(s, self.grid.radii, self.grid.angles.size)

    @cached_property
    def hprime(self) -> np.ndarray:
        return np.abs(self._polar(differentiate(self.member.h)))

    @cached_property
    def w(self) -> np.ndarray:
        return np.abs(evaluate_dilatation(self.member.w, self.grid.points()))

    @cached_property
    def g_values(self) -> np.ndarray:
        return self._polar(self.member.g)

    @cached_property
    def g(self) -> np.ndarray:
        return np.abs(self.g_values)

    @cached_property
    def f(self) -> np.ndarray:
        return np.abs(self._polar(self.member.h) + np.conj(self.g_values))


class _EnvelopeTable:
    """Member-independent references for one (params, grid).  Grid rows are
    column arrays over the radii; the scalar bounds serve the coefficient,
    area, covering and Bloch checks.  Each field is computed on first read."""

    def __init__(
        self, params: ClassParams, grid: PolarGrid, tol: float = 1e-9, area_tol: float = 1e-8
    ) -> None:
        params.require_nonnegative_delta()
        beta, r = params.beta, grid.radii[:, None]
        self.params = params
        self.grid = grid
        self.tol = tol
        self.area_tol = area_tol
        self._bn: dict[int, float] = {}
        self._c = c = bounds.distortion_slope(params)
        self._gprime_lower = bounds._gprime_lower_integrand(params)
        self._gprime_upper = bounds._gprime_upper_integrand(params)
        self.hprime_lower = np.maximum(0.0, 1.0 - c * r)
        self.hprime_upper = 1.0 + c * r
        self.gprime_lower = self._gprime_lower(r)
        self.gprime_upper = self._gprime_upper(r)
        # The lower g-growth side is sound at all radii for beta = 0, else up to beta.
        self.g_lower_scored = (r <= beta) | (beta == 0.0)

    def _integral(self, f, kinks=()) -> np.ndarray:
        return cumulative_quadrature(f, self.grid.radii, self.tol, kinks)[:, None]

    @cached_property
    def g_upper(self) -> np.ndarray:
        return self._integral(self._gprime_upper)

    @cached_property
    def g_lower(self) -> np.ndarray:
        return self._integral(self._gprime_lower, (self.params.beta,))

    @cached_property
    def f_upper(self) -> np.ndarray:
        r = self.grid.radii[:, None]
        return r + 0.5 * self._c * r**2 + self.g_upper

    @cached_property
    def f_floor(self) -> np.ndarray:
        return self._integral(bounds._f_lower_integrand(self.params, -1.0))

    @cached_property
    def area_envelope(self) -> bounds.BoundEnvelope:
        return bounds.area_envelope(self.params, min(self.area_tol, bounds.DEFAULT_QUAD_TOL))

    @cached_property
    def covering_floor(self) -> float:
        return bounds.f_growth_floor(self.params, _COVERING_RADIUS, bounds.DEFAULT_QUAD_TOL)

    @cached_property
    def bloch_bound(self) -> float:
        return bounds.bloch_bound(self.params).bound

    def bn_bound(self, n: int) -> float:
        """``bounds.bn_bound`` at this table's params, computed once per index."""
        if n not in self._bn:
            self._bn[n] = bounds.bn_bound(self.params, n)
        return self._bn[n]


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
    return _coefficients(f, n_max, lambda n: bounds.bn_bound(params, n), slack)


def _coefficients(f: HarmonicMapSpec, n_max: int, bn_bound, slack: float) -> VerificationReport:
    n_top = min(n_max, f.g.order)
    worst = math.inf
    witness = "no index checked"
    for n in range(2, n_top + 1):
        margin = bn_bound(n) - abs(f.g.coeffs[n])
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
    Jacobian |h'|^2 (1 - |w|^2) in polar coordinates (adaptive radial x
    trapezoid angular)."""
    hprime = differentiate(f.h)
    angles = np.exp(2j * np.pi * np.arange(n_angles) / n_angles)

    def ring_mean(r: float) -> float:
        if r == 0.0:
            return 0.0
        hp = _on_ring(hprime, r, n_angles)
        w = evaluate_dilatation(f.w, r * angles)
        return r * float(np.mean(np.abs(hp) ** 2 * (1.0 - np.abs(w) ** 2)))

    return 2.0 * math.pi * adaptive_quadrature(ring_mean, 0.0, 1.0, tol)


def verify_area(
    f: HarmonicMapSpec,
    params: ClassParams,
    tol: float = 1e-8,
    slack: float = DEFAULT_SLACK,
) -> VerificationReport:
    """Measure the Jacobian integral and place it inside the area envelope."""
    measured = _measure_area(f, tol)
    return _area(measured, bounds.area_envelope(params, min(tol, bounds.DEFAULT_QUAD_TOL)), slack)


def _area(measured: float, env: bounds.BoundEnvelope, slack: float) -> VerificationReport:
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
    boundary_samples: int = _COVERING_SAMPLES,
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
    floor = bounds.f_growth_floor(params, _COVERING_RADIUS, tol)
    return _covering(f, boundary_samples, floor, slack)


def _covering(
    f: HarmonicMapSpec, boundary_samples: int, floor: float, slack: float
) -> VerificationReport:
    r = _COVERING_RADIUS
    fm = np.abs(
        _on_ring(f.h, r, boundary_samples) + np.conj(_on_ring(f.g, r, boundary_samples))
    )
    idx = int(np.argmin(fm))
    worst = float(fm[idx] - floor)
    witness = (
        f"proxy min |f| {fm[idx]:.12g} at theta={2 * math.pi * idx / boundary_samples:.6g} "
        f"vs floor {floor:.12g}"
    )
    return _report("covering", worst, witness, slack)


def _bloch(sample: _GridSample, table: _EnvelopeTable, slack: float) -> VerificationReport:
    grid = table.grid
    weighted = (1.0 - grid.radii[:, None] ** 2) * (sample.hprime * (1.0 + sample.w))
    bound = table.bloch_bound
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
    return _bloch(_GridSample(f, grid), _EnvelopeTable(params, grid), slack)


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
    table = _EnvelopeTable(params, grid or default_polar_grid(), area_tol=area_tol)
    return _verify_member(f, n_max, table, slack)


def _verify_member(
    f: HarmonicMapSpec, n_max: int, table: _EnvelopeTable, slack: float
) -> list[VerificationReport]:
    sample = _GridSample(f, table.grid)
    return [
        _coefficients(f, n_max, table.bn_bound, slack),
        _distortion(sample, table, slack),
        _g_growth(sample, table, slack),
        _area(_measure_area(f, table.area_tol), table.area_envelope, slack),
        _f_growth(sample, table, slack),
        _covering(f, _COVERING_SAMPLES, table.covering_floor, slack),
        _bloch(sample, table, slack),
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
        out.append((index, member, _verify_member(member, n_max, table, slack)))
    return out
