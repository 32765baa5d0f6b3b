"""Independent numerical verification of the bounds against concrete members.

For a given map the suite measures the quantity each inequality controls
(coefficient moduli, |h'| and |g'| on grids, area, growth, boundary minimum
modulus, weighted stretch supremum) and reports the worst margin against the
corresponding bound.  Violations are reported, never raised: a negative
margin is data about the bound, not an exception in the code.

Each of the seven per-member checks is one function ``check(sample, table)``
in ``_CHECKS``, and every entry point but one runs it through that path.
The sample is one member: |h'|, |w|, |g| and |f| on the grid, each evaluated
once.  The envelope table, built once per (params, grid), holds every
member-independent reference, each a ``bounds`` definition over the radii,
equal bit for bit to the point function: the |h'| and |g'| envelope sides
and the |f| upper side (the ``bounds`` envelope helpers on the radius
column); the radial integrals of the |g'| upper envelope (shared by g- and
f-growth), the |g'| lower envelope (kink at beta) and the f floor, from 0 to
each radius, each the exact closed form of ``bounds`` at that radius;
the coefficient bounds for n = 2..12 (one ``bounds.bn_bounds`` call);
the area envelope, the covering floor and the Bloch bound.  Every entry
point (``run_member_suite``, ``verify_member`` and each standalone
``verify_*`` but one) takes its table from ``_table``, which looks it up
in one process-wide LRU cache of 32 tables (``_tables``) keyed by (params,
grid), so repeated calls at the same params share one table.  The one,
``verify_coefficients``, reads ``bounds.bn_bounds`` and no table.  A table is
built whole, with read-only arrays, before it is shared, and nothing fills
it later.  Table values are deterministic, so a cached table gives the
same reports as a fresh one.  Sample fields are computed when a check first
reads them, so a standalone check evaluates only the member values it reads.
The covering check reads |f| from a sample on the covering circle, so
f = h + conj(g) is formed in one place.
A sample writes every grid-sized value into a workspace owned by its grid:
the complex h', h and g values, the float |h'|, |w|, |g| and |f|, and one
float scratch array (the |w| denominator, then |g'| or the Bloch product).
Each grid keeps a free list of workspaces.  ``_verify_member``, ``_run``
and the covering check take one when their sample is made, or build one
when the list is empty, and give it back when the ``with`` block that
holds the sample ends, so two samples alive at once, in one thread or in
two, never share one.  Every value is fully overwritten before it is read,
by the same operations on the same operands as in a fresh array, so a
workspace changes no value, bit for bit; it spares a member the fresh
128 KiB arrays that the allocator would otherwise map and page-fault anew.
Each value is formed in contiguous in-place passes over operands of the
full (radii, angles) shape: the r^j scaling of ``evaluate_polar``, the
cached radial factors of ``dilatation_modulus``, |f| as the modulus of
conj(f) = conj(h) + g, and the grid's full-size Bloch weight.  numpy then
needs no iterator buffer, so a warm sample allocates a few KiB, plus g's
folded coefficient block.
A grid check reduces each of its sides over the angles first: the least
margin of a side at a radius is its envelope against the row maximum (upper
side) or minimum (lower side) of the values, exactly, because rounding is
monotone.  One argmin over the (radii, sides) rows picks the winner, and only
that row is rebuilt over the angles to find the witness angle, so the first
minimum in (radius, side, angle) order wins ties, as one argmin over the full
(radii, sides, angles) margins would; the witness is formatted at that point
only.  Margins are judged against the fixed ``DEFAULT_SLACK``.  Grids are
immutable and built whole (radii and angles), and ``default_polar_grid``
builds one grid per argument tuple per process, shared by every table on it.

Every evaluation of a member on a ring |z| = r at uniform angles (the grid,
the covering circle, the area rings) goes through ``series.evaluate_polar``:
coefficients folded modulo the angle count, a matrix product over the
folded rows with the powers of r^M cached per ring set and row count, one
FFT per ring.
Every ring reads every row of g, whose order drops at most 2^-60 on the
covering circle (``model.harmonic_map``).
The area is the coefficient identity pi sum n (|a_n|^2 - |b_n|^2) over the
member's own h and g wherever ``_area_breakpoints`` gives no breakpoints:
for a constant w, and for a Moebius w below beta = 0.8, where the dropped
tail of g is far below an ulp of the area (``_area``).  From beta = 0.8 on
it is still an adaptive radial quadrature (``numerics.adaptive_quadrature``,
the package's one quadrature) of ring means of the sample's h',
differentiated once per member; the rings of one bisection level are one
``evaluate_polar`` call.  It starts from dyadic panels graded toward the
pole of 1 - |w|^2 at r = 1/beta, each with the tolerance share bisection
would give it.  The suite's members take at most 2 levels of 19 panels; a
quadrature past its budget of 256 panels raises QuadratureError (exit 3 in
``hcl verify``, naming the member, the suite seed and the check).  The
checks read the dilatation only through |w|, which
``model.dilatation_modulus`` computes on the same rings, from a half-angle
factor cached per member and radial factors cached per (beta, rings).
For a Moebius w it is a real closed form in the half angle, with no complex
division and no cancellation near the zero or the pole of w (about an ulp
from an exact evaluation), so the references the checks compare against
stay independent of the series machinery.

Two checks deliberately reference the derived companions of the stated
growth forms (see the bounds module):

  * g-growth lower margins are only scored where the envelope derivation is
    sound - all radii when beta = 0, radii <= beta otherwise (elsewhere the
    table's envelope is -inf).  Beyond that regime the stated bound is
    violated even by the identity-like member h = z with a Moebius
    dilatation, so scoring it would only measure the formula's defect,
    which the cross-check records already capture.
  * covering / f-growth lower margins compare against ``f_growth_floor``,
    which the degree-2 extremal member attains with equality; the stated
    lower form lies strictly above that attainable envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np

from . import bounds, model
from .errors import QuadratureError
from .factory import build_member, certify, sample_certified_h
from .model import (
    ClassParams, DilatationSpec, HarmonicMapSpec, dilatation_modulus, moebius_dilatation
)
from .numerics import adaptive_quadrature
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

#: Angles per ring of the area quadrature's trapezoid rule, and the
#: tolerance of its radial quadrature (Moebius w from beta 0.8 on).
_AREA_ANGLES = 128
_AREA_TOL = 1e-8

#: The area quadrature starts with the panel next to r = 1 halved while it is
#: wider than this many pole distances (1 - beta)/beta (``_area_breakpoints``).
_AREA_POLE_WIDTHS = 4.0

#: The member suite checks the coefficient bounds for n = 2.._SUITE_N_MAX.
_SUITE_N_MAX = 12


@dataclass(frozen=True, eq=False)
class PolarGrid:
    """Evaluation grid: strictly increasing radii in (0, 0.999] crossed with the
    M = ``n_angles`` uniform angles 2*pi*k/M, k = 0..M-1, the angle set that
    ``series.evaluate_polar`` evaluates on.  Past ``model.COVERING_CIRCLE_RADIUS``
    (0.999) the order of g keeps no 2^-60 error bound, so no radius lies there.

    The grid keeps a read-only float copy of the radii, so it cannot change
    after validation; its angles are computed with it, also read-only.  Grids
    compare and hash by identity.  ``_workspaces`` is the free list of the
    grid-sized arrays that ``_GridSample`` takes and gives back.
    ``bloch_weight`` is formed when a table on the grid first reads it.
    """

    radii: np.ndarray
    n_angles: int
    angles: np.ndarray = field(init=False, repr=False)
    _workspaces: list = field(init=False, repr=False)

    def __post_init__(self) -> None:
        r = np.array(self.radii, dtype=float)
        if r.ndim != 1 or r.size == 0 or not 0.0 < r[0] <= r[-1] <= model.COVERING_CIRCLE_RADIUS:
            raise ValueError("grid radii must be a non-empty 1-d array inside (0, 0.999]")
        if not np.all(r[1:] > r[:-1]):
            raise ValueError("grid radii must be strictly increasing")
        m = self.n_angles
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
            raise ValueError("grid n_angles must be an integer >= 1")
        angles = 2.0 * np.pi * np.arange(m) / m
        for name, value in (("radii", r), ("angles", angles)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_workspaces", [])

    @cached_property
    def bloch_weight(self) -> np.ndarray:
        """Read-only 1 - r^2 over the full (radii, angles) grid, one array
        shared by every table on the grid, so the Bloch check scales its
        product in one contiguous pass."""
        weight = np.repeat(1.0 - self.radii[:, None] ** 2, self.n_angles, axis=1)
        weight.setflags(write=False)
        return weight


#: Where the covering proxy samples |f|: 256 points on |z| = ``model.COVERING_CIRCLE_RADIUS``.
_COVERING_CIRCLE = PolarGrid([model.COVERING_CIRCLE_RADIUS], 256)


@cache
def default_polar_grid(n_radii: int = 64, n_angles: int = 128) -> PolarGrid:
    """Chebyshev-spaced radii in (0, 0.995] (clustered near both ends) x
    uniform angles.  One grid is built per argument tuple and shared.

    Uses the Lobatto flavor without the origin, so doubling either count
    yields a strict superset of points: measured grid suprema are then
    non-decreasing under refinement.
    """
    j = np.arange(1, n_radii + 1)
    radii = 0.5 * 0.995 * (1.0 - np.cos(np.pi * j / n_radii))
    return PolarGrid(radii=radii, n_angles=n_angles)


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    passed: bool
    worst_margin: float
    witness: str
    slack: float


def _report(theorem: str, worst: float, witness: str) -> VerificationReport:
    return VerificationReport(
        theorem=theorem,
        passed=bool(worst >= -DEFAULT_SLACK),
        worst_margin=float(worst),
        witness=witness,
        slack=DEFAULT_SLACK,
    )


def report_to_dict(report: VerificationReport, **extra) -> dict:
    return {**vars(report), **extra}


class _Workspace:
    """The grid-sized arrays of one sample: the complex values of h' or h
    (each is read only by its own modulus, so the two share one array) and
    of g, the float |h'|, |w|, |g| and |f|, and one float scratch array."""

    def __init__(self, grid: PolarGrid) -> None:
        shape = (grid.radii.size, grid.n_angles)
        self.h_values, self.g_values = (np.empty(shape, dtype=complex) for _ in range(2))
        self.hprime, self.w, self.g, self.f, self.scratch = (np.empty(shape) for _ in range(5))


class _GridSample:
    """One member on a grid (the check grid or the covering circle): |h'|, |w|,
    |g| and |f|, each evaluated once, when a check first reads it.

    Every value is written into a workspace taken from the grid's free list,
    or built when the list is empty, and given back when the ``with`` block
    that holds the sample ends.  The workspace's scratch array serves one use
    at a time: the |w| denominator, then |g'| or the Bloch product."""

    def __init__(self, f: HarmonicMapSpec, grid: PolarGrid) -> None:
        self.member = f
        self.grid = grid
        try:
            self.workspace = grid._workspaces.pop()
        except IndexError:
            self.workspace = _Workspace(grid)

    def __enter__(self) -> _GridSample:
        return self

    def __exit__(self, *exc) -> None:
        self.grid._workspaces.append(self.workspace)

    def _polar(self, s: TruncatedSeries, out: np.ndarray) -> np.ndarray:
        return evaluate_polar(s, self.grid.radii, self.grid.n_angles, out)

    @cached_property
    def hprime_series(self) -> TruncatedSeries:
        return differentiate(self.member.h)

    @cached_property
    def hprime(self) -> np.ndarray:
        ws = self.workspace
        return np.abs(self._polar(self.hprime_series, ws.h_values), out=ws.hprime)

    @cached_property
    def w(self) -> np.ndarray:
        grid, ws = self.grid, self.workspace
        return dilatation_modulus(self.member.w, grid.radii, grid.n_angles, ws.w, ws.scratch)

    @cached_property
    def g_values(self) -> np.ndarray:
        return self._polar(self.member.g, self.workspace.g_values)

    @cached_property
    def g(self) -> np.ndarray:
        return np.abs(self.g_values, out=self.workspace.g)

    @cached_property
    def f(self) -> np.ndarray:
        # conj(f) = conj(h) + g, formed in place in two contiguous passes:
        # |conj(f)| has the bits of |h + conj(g)|, as -(a - b) rounds to -a + b
        f = self._polar(self.member.h, self.workspace.h_values)
        np.conjugate(f, out=f)
        f += self.g_values
        return np.abs(f, out=self.workspace.f)


class _EnvelopeTable:
    """Member-independent references for one (params, grid), built whole
    here: the envelopes and their radial integrals as read-only column
    arrays over the radii, the coefficient bounds ``bn`` for n = 2..12
    (at index n - 2), then the area envelope, the covering floor and the
    Bloch bound.  A table is complete before ``_table`` shares it.
    ``g_lower_scored`` is ``g_lower`` where it is scored and -inf elsewhere.
    Every column is a ``bounds`` definition over the radii, equal bit for
    bit to the point function at each radius: the |h'| and |g'| sides and
    the |f| upper side are the ``bounds`` envelope helpers on the radius
    column, and the radial integrals are its scalar closed forms per radius.
    ``bloch_weight`` is no column but the grid's full-size 1 - r^2
    (``PolarGrid.bloch_weight``), one array for every table on the grid.
    These read the moment sequences from the bounded process-wide cache of
    ``bounds._moments``, so ``f_floor`` reuses those of ``g_upper``, and
    the A(beta) that ``g_lower`` reads past the kink computes its moments
    once."""

    def __init__(self, params: ClassParams, grid: PolarGrid) -> None:
        params.require_nonnegative_delta()
        self.grid = grid
        self.bn = bounds.bn_bounds(params, _SUITE_N_MAX)
        radii, r = grid.radii.tolist(), grid.radii[:, None]
        sides = bounds._distortion_sides(params, r)
        self.hprime_lower, self.hprime_upper, self.gprime_lower, self.gprime_upper = sides
        self.bloch_weight = grid.bloch_weight
        self.g_upper = np.array([[bounds._gprime_upper_integral(params, x)] for x in radii])
        self.g_lower = np.array([[bounds._gprime_lower_integral(params, x)] for x in radii])
        # The lower g-growth side is sound at all radii for beta = 0, else up to beta.
        beta = params.beta
        self.g_lower_scored = np.where((r <= beta) | (beta == 0.0), self.g_lower, -np.inf)
        self.f_floor = np.array([[bounds._f_lower_integral(params, x, -1.0)] for x in radii])
        self.f_upper = bounds._f_upper(params, r, self.g_upper)
        self.area_envelope = bounds.area_envelope(params)
        self.covering_floor = bounds.f_growth_floor(params, model.COVERING_CIRCLE_RADIUS)
        self.bloch_bound = bounds.bloch_bound(params).bound
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


#: The shared tables, keyed by (params, grid): the 32 most recently used,
#: enough for the 18-point criterion-7 lattice.
_tables = lru_cache(maxsize=32)(_EnvelopeTable)


def _table(params: ClassParams, grid: PolarGrid | None = None) -> _EnvelopeTable:
    """The shared table for (params, grid) from ``_tables``.

    ``grid=None`` is resolved to the default grid before the lookup, so both
    spellings share one entry.  Grids are keyed by identity, and each entry
    keeps its grid alive.
    """
    return _tables(params, grid or default_polar_grid())


def _side_margins(values, envelope, upper: bool) -> np.ndarray:
    return envelope - values if upper else values - envelope


def _grid_report(theorem: str, sides: tuple, grid: PolarGrid) -> VerificationReport:
    """Report the first minimum, in (radius, side, angle) order, of the
    margins of ``sides``.

    Each side is ``(label, values, envelope, upper)``: the values on the
    grid and the envelope as a column over the radii.  The margin is
    ``envelope - values`` on an upper side and ``values - envelope`` on a
    lower one, so a lower envelope of -inf leaves a radius unscored (margin
    +inf) unless a value there is NaN.  Rounding is monotone, so a side's
    least margin at a radius is its envelope against the row maximum (upper)
    or minimum (lower) of the values: the sides are reduced over the angles
    first, and only the winning row is rebuilt in full to find the witness
    angle.
    """
    # with an initial value numpy takes its faster row loop; NaN still propagates
    rows = np.hstack([
        _side_margins(
            values.max(axis=1, keepdims=True, initial=-np.inf)
            if upper
            else values.min(axis=1, keepdims=True, initial=np.inf),
            envelope, upper,
        )
        for _, values, envelope, upper in sides
    ])
    r_idx, side = np.unravel_index(int(np.argmin(rows)), rows.shape)
    label, values, envelope, upper = sides[side]
    row = _side_margins(values[r_idx], envelope[r_idx], upper)
    t_idx = int(np.argmin(row))
    witness = f"{label} at r={grid.radii[r_idx]:.6g}, theta={grid.angles[t_idx]:.6g}"
    return _report(theorem, row[t_idx], witness)


def _coefficient_report(g: TruncatedSeries, bn: np.ndarray) -> VerificationReport:
    """|b_n| of ``g`` against ``bn`` (n = 2.., at index n - 2), up to the order of ``g``."""
    if g.order < 2:
        raise ValueError("g has order < 2: no coefficient index would be checked")
    bn = bn[: g.order - 1]
    # builtin abs per coefficient: np.abs on the array can differ in the last bit
    moduli = np.array([abs(b) for b in g.coeffs[2 : bn.size + 2]])
    margins = bn - moduli
    i = int(np.argmin(margins))
    return _report("coeff", margins[i], f"n={i + 2}")


def _coefficients(sample: _GridSample, table: _EnvelopeTable) -> VerificationReport:
    return _coefficient_report(sample.member.g, table.bn)


def _distortion(sample: _GridSample, table: _EnvelopeTable) -> VerificationReport:
    hp, gp = sample.hprime, np.multiply(sample.hprime, sample.w, out=sample.workspace.scratch)
    sides = (
        ("|h'| lower", hp, table.hprime_lower, False),
        ("|h'| upper", hp, table.hprime_upper, True),
        ("|g'| lower", gp, table.gprime_lower, False),
        ("|g'| upper", gp, table.gprime_upper, True),
    )
    return _grid_report("distortion", sides, table.grid)


def _g_growth(sample: _GridSample, table: _EnvelopeTable) -> VerificationReport:
    sides = (
        ("|g| upper", sample.g, table.g_upper, True),
        ("|g| lower", sample.g, table.g_lower_scored, False),
    )
    return _grid_report("g_growth", sides, table.grid)


def _area_breakpoints(w: DilatationSpec) -> tuple:
    """Interior breakpoints 1 - 2^-j, j = 1..J, of the starting panels of the
    area quadrature: the dyadic panels [1 - 2^-j, 1 - 2^-(j+1)] toward r = 1,
    where [1 - 2^-j, 1] is split while it is wider than ``_AREA_POLE_WIDTHS``
    times the distance (1 - beta)/beta from r = 1 to the pole of 1 - |w|^2
    at r = 1/beta.  A Gauss-Kronrod panel converges only inside the
    Bernstein ellipse through the nearest singularity, so these splits are
    made in advance instead of found by bisection one level at a time (and,
    from beta ~ 0.999 on, sometimes missed by it).  There are none for a
    constant w, whose ring mean is a polynomial, nor for beta below 0.8:
    those start at [0, 1]."""
    if w.kind != "moebius":
        return ()
    edges, width = [], 1.0
    while width * w.beta > _AREA_POLE_WIDTHS * (1.0 - w.beta):
        width *= 0.5
        edges.append(1.0 - width)
    return tuple(edges)


def _measure_area(hprime: TruncatedSeries, w: DilatationSpec, tol: float) -> float:
    """Area of the image, counted with multiplicity, of a member with
    derivative ``hprime`` of h and dilatation ``w``: tensor quadrature of the
    Jacobian |h'|^2 (1 - |w|^2) in polar coordinates (adaptive radial x
    trapezoid angular), starting from the panels of ``_area_breakpoints``.
    The rings of one bisection level are evaluated together: one
    ``evaluate_polar`` call for h' and one ``dilatation_modulus`` call for
    |w|."""

    def ring_mean(r: np.ndarray) -> np.ndarray:
        # |h'|^2 (1 - |w|^2), formed in place
        jacobian = np.abs(evaluate_polar(hprime, r, _AREA_ANGLES))
        jacobian *= jacobian
        m = dilatation_modulus(w, r, _AREA_ANGLES)
        m *= m
        jacobian *= np.subtract(1.0, m, out=m)
        return r * np.mean(jacobian, axis=1)

    edges = _area_breakpoints(w)
    return 2.0 * math.pi * adaptive_quadrature(ring_mean, 0.0, 1.0, tol, edges)


def _coefficient_area(f: HarmonicMapSpec) -> float:
    """pi (sum n |a_n|^2 - sum n |b_n|^2) over the coefficients of h and g,
    the terms added in one ``math.fsum``, so the difference is rounded once."""
    h, g = (np.arange(s.order + 1) * (s.coeffs.real**2 + s.coeffs.imag**2) for s in (f.h, f.g))
    return math.pi * math.fsum(h.tolist() + (-g).tolist())


def _area(sample: _GridSample, table: _EnvelopeTable) -> VerificationReport:
    """The Jacobian integral of f = h + conj(g) over the disk against the area
    envelope.  It equals pi sum n (|a_n|^2 - |b_n|^2) (Parseval on
    |h'|^2 - |g'|^2), which ``_coefficient_area`` sums over the member's own
    coefficients wherever ``_area_breakpoints`` gives no breakpoints: every
    constant w, whose g is beta e^{i mu} h with nothing dropped, and every
    Moebius w with beta below 0.8.

    For a Moebius w the order N of g drops the geometric tail
    n b_n = T q^(n-D-2), |q| = beta (``model.co_analytic_from``), and
    ``model.harmonic_map`` makes |T| x^(N-D-1)/((N+1)(1 - x)) <= 2^-60 at
    x = 0.999 beta.  So the dropped sum_{n>N} n |b_n|^2, at most
    |T|^2 beta^(2(N-D-1))/((N+1)(1 - beta^2)), is at most
    2^-120 (N+1) 0.999^(-2(N-D-1))/(1 - beta^2): about 5e-34 at N = 184,
    the order of g of the suite's members just below beta 0.8, and below
    1e-30 for any N up to 2000, far below an ulp of the area.

    From beta = 0.8 on (the float 0.8 lies just above 4/5, where the first
    breakpoint appears) the area is still ``_measure_area``'s quadrature, whose
    128 angles miss the peak of |w| near r = 1 by 4.3e-9 relative at beta 0.9;
    ``perfbench/reference.json`` pins those values until the benchmark's
    reference is recorded again, after which the identity serves every beta
    and the quadrature goes."""
    w = sample.member.w
    if _area_breakpoints(w):
        measured = _measure_area(sample.hprime_series, w, _AREA_TOL)
    else:
        measured = _coefficient_area(sample.member)
    env = table.area_envelope
    margins = (measured - env.lower, env.upper - measured)
    if margins[0] <= margins[1]:
        worst, witness = margins[0], f"area {measured:.12g} vs lower {env.lower:.12g}"
    else:
        worst, witness = margins[1], f"area {measured:.12g} vs upper {env.upper:.12g}"
    return _report("area", worst, witness)


def _f_growth(sample: _GridSample, table: _EnvelopeTable) -> VerificationReport:
    sides = (
        ("|f| upper", sample.f, table.f_upper, True),
        ("|f| floor", sample.f, table.f_floor, False),
    )
    return _grid_report("f_growth", sides, table.grid)


def _covering(sample: _GridSample, table: _EnvelopeTable) -> VerificationReport:
    with _GridSample(sample.member, _COVERING_CIRCLE) as circle:
        fm, floor = circle.f[0], table.covering_floor
        idx = int(np.argmin(fm))
        worst = float(fm[idx] - floor)
        witness = (
            f"proxy min |f| {fm[idx]:.12g} at theta={_COVERING_CIRCLE.angles[idx]:.6g} "
            f"vs floor {floor:.12g}"
        )
    return _report("covering", worst, witness)


def _bloch(sample: _GridSample, table: _EnvelopeTable) -> VerificationReport:
    grid = table.grid
    # (1 - r^2) |h'| (1 + |w|), in the scratch array
    weighted = np.add(1.0, sample.w, out=sample.workspace.scratch)
    weighted *= sample.hprime
    weighted *= table.bloch_weight
    bound = table.bloch_bound
    r_idx, t_idx = np.unravel_index(int(np.argmax(weighted)), weighted.shape)
    measured = float(weighted[r_idx, t_idx])
    witness = (
        f"measured {measured:.12g} at r={grid.radii[r_idx]:.6g}, "
        f"theta={grid.angles[t_idx]:.6g} vs bound {bound:.12g}"
    )
    return _report("bloch", bound - measured, witness)


#: The per-member checks, in the order of ``MEMBER_THEOREMS``.
_CHECKS = (_coefficients, _distortion, _g_growth, _area, _f_growth, _covering, _bloch)


def _verify_member(f: HarmonicMapSpec, table: _EnvelopeTable) -> list[VerificationReport]:
    """The seven reports of ``f``; a QuadratureError is raised again naming its check."""
    with _GridSample(f, table.grid) as sample:
        reports = []
        for theorem, check in zip(MEMBER_THEOREMS, _CHECKS):
            try:
                reports.append(check(sample, table))
            except QuadratureError as exc:
                raise QuadratureError(f"{theorem}: {exc}") from exc
        return reports


def _run(check, f: HarmonicMapSpec, table: _EnvelopeTable) -> VerificationReport:
    with _GridSample(f, table.grid) as sample:
        return check(sample, table)


def verify_coefficients(f: HarmonicMapSpec, params: ClassParams, n_max: int) -> VerificationReport:
    """Check |b_n| <= ``bounds.bn_bounds`` for 2 <= n <= n_max (at least 2); builds no table."""
    return _coefficient_report(f.g, bounds.bn_bounds(params, n_max))


def verify_distortion(
    f: HarmonicMapSpec, params: ClassParams, grid: PolarGrid | None = None
) -> VerificationReport:
    """Check the |h'| and |g'| envelopes at every grid point."""
    return _run(_distortion, f, _table(params, grid))


def verify_g_growth(
    f: HarmonicMapSpec, params: ClassParams, grid: PolarGrid | None = None
) -> VerificationReport:
    """Check |g| against the growth envelope, exact integral form authoritative.

    Upper margins are scored at all radii; lower margins only on the sound
    regime (all radii for beta = 0, radii <= beta otherwise).
    """
    return _run(_g_growth, f, _table(params, grid))


def verify_area(f: HarmonicMapSpec, params: ClassParams) -> VerificationReport:
    """Measure the Jacobian integral and place it inside the area envelope."""
    return _run(_area, f, _table(params))


def verify_f_growth(
    f: HarmonicMapSpec, params: ClassParams, grid: PolarGrid | None = None
) -> VerificationReport:
    """Check |f| against the upper growth bound and the attainable floor."""
    return _run(_f_growth, f, _table(params, grid))


def verify_covering(f: HarmonicMapSpec, params: ClassParams) -> VerificationReport:
    """Proxy covering check: the minimum modulus on r = 0.999 (256 samples)
    must clear the attainable growth floor.

    This verifies the inequality the covering statement integrates, not image
    containment itself.
    """
    return _run(_covering, f, _table(params))


def verify_bloch(
    f: HarmonicMapSpec, params: ClassParams, grid: PolarGrid | None = None
) -> VerificationReport:
    """Grid supremum of (1 - |z|^2)(|h'| + |g'|) against the Bloch bound."""
    return _run(_bloch, f, _table(params, grid))


def verify_convexity(
    h1: TruncatedSeries, h2: TruncatedSeries, lambdas, params: ClassParams
) -> VerificationReport:
    """Convex combinations of certified analytic parts stay certified (beta = 0)."""
    if params.beta != 0.0:
        raise ValueError("convexity statement requires beta = 0")
    if len(lambdas) == 0:
        raise ValueError("no lambda given: no combination would be checked")
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
    return _report("convexity", worst, witness)


def verify_member(
    f: HarmonicMapSpec, params: ClassParams, grid: PolarGrid | None = None
) -> list[VerificationReport]:
    """All seven per-member checks, in the order of ``MEMBER_THEOREMS``; coeff at n = 2..12."""
    return _verify_member(f, _table(params, grid))


def _member_suite(params: ClassParams, members: int, seed: int):
    """Yield (index, member, reports) for the members of ``run_member_suite``,
    sampling and verifying one per step, so a consumer need hold only one.
    A QuadratureError is raised again naming the member index and the seed."""
    if members < 1:
        raise ValueError("members must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    table = _table(params)
    for index in range(members):
        fill = float(rng.uniform())
        sub_seed = int(rng.integers(0, 2**31 - 1))
        mu = float(rng.uniform(0.0, 2.0 * math.pi))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        h = sample_certified_h(params, 16, fill, sub_seed)
        member = build_member(h, moebius_dilatation(params.beta, mu, phi), params)
        try:
            reports = _verify_member(member, table)
        except QuadratureError as exc:
            raise QuadratureError(f"member {index} (seed {seed}), {exc}") from exc
        yield index, member, reports


def run_member_suite(
    params: ClassParams, members: int, seed: int
) -> list[tuple[int, HarmonicMapSpec, list[VerificationReport]]]:
    """Sample ``members`` seeded random members and verify each one on the
    default grid.

    Members draw a random certified analytic part of degree 16 (budget fill
    uniform in [0, 1]) and a Moebius dilatation with random rotation phases;
    the whole stream is determined by ``seed``, and ``hcl verify`` reads
    it one member at a time (``_member_suite``).
    """
    return list(_member_suite(params, members, seed))
