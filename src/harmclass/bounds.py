"""Closed-form bounds for the class: coefficients, distortion and growth
envelopes, area, normality constant, covering radius and the Bloch bound.

The radial integrals behind the growth, normality, covering and area bounds
have rational integrands, so each is evaluated exactly (``_kernel_integral``):
the growth, normality and covering integrands have two linear factors,
applied to the moments as one written-out expression, the area's five by a
loop.  Their moment sequences are kept in one bounded process-wide cache
(``_moments``: the 256 most recently used), so calls that share a kernel
argument, such as ``f_growth`` and ``g_growth_crosscheck`` at one radius,
compute its moments once; the cache never changes a value.

The Bloch critical radius is the unique root in (0, 1) of a quartic whose
own coefficient signs and endpoint values certify that root (Descartes'
rule of signs, see ``bloch_bound``); ``bloch_bound`` then bisects it in
place to two adjacent floats, by Horner's rule on the quartic's five Python
floats.  The quartic and the coefficients of its derivative profile
(``bloch_L_coeffs``) scale with 2^delta; above delta = 1000 they are
evaluated divided by an exact power of two, so they stay finite up to
delta = 1024 (``_scaled_power_of_two``).

The coefficient bounds for n = 2..N are one running sum (``bn_bounds``);
``bn_bound`` computes only its own entry, with the bits of that sum.

Two growth quantities carry a stated/derived split.  The stated lower form
for |g| (|A(r)|, see ``g_growth_bounds``) and the lower growth integrand
for |f| are evaluated exactly as stated, but each has a companion used for
member verification:

  * the exact integral of the |g'| lower envelope, kink at xi = beta
    honored, is trusted when checking concrete maps.  ``g_growth_crosscheck``
    sets it beside |A(r)|: they are equal, bit for bit, exactly where r <= beta
    or beta = 0, and ``agrees`` is that equality.
  * ``f_growth_floor`` replaces the h'-upper factor of the stated lower
    integrand by the h'-lower factor.  The stated form is not attainable
    (the degree-2 extremal map crosses below it), while the floor is matched
    with equality by that same map along its minimizing ray.

Discrepancies between a stated form and its companion are reported as
structured records, never patched over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RootCountError
from .model import ClassParams
from .numerics import digamma, sign_variations

__all__ = [
    "BoundEnvelope",
    "BlochResult",
    "GrowthFormCheck",
    "DEFAULT_QUAD_TOL",
    "bn_bound",
    "bn_bounds",
    "bn_bound_digamma",
    "hprime_envelope",
    "dilatation_envelope",
    "gprime_envelope",
    "g_growth_bounds",
    "g_growth_crosscheck",
    "area_envelope",
    "f_growth",
    "f_growth_floor",
    "normality_constant",
    "covering_radius",
    "covering_radius_floor",
    "bloch_H_poly",
    "bloch_L_coeffs",
    "bloch_bound",
    "distortion_slope",
]

#: Default of the ``tol`` that some bounds still take and ignore (they are exact).
DEFAULT_QUAD_TOL = 1e-10

#: Largest coefficient index ``bn_bounds`` takes (its running sum has one float per index).
MAX_COEFF_INDEX = 10**6

#: Largest exponent of the power-of-two scale a bound is evaluated with
#: (see ``_scaled_power_of_two``).
_SCALE_EXPONENT_CAP = 1000

#: 1/(k + 1), k = 0..255: the moments at t = 0 and the terms of their recurrences.
_RECIPROCALS = tuple(1.0 / (k + 1) for k in range(256))


@dataclass(frozen=True)
class BoundEnvelope:
    """Two-sided bound attached to a radius or index."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower > self.upper + 1e-15:
            raise ValueError(f"envelope inverted: {self.lower} > {self.upper}")


@dataclass(frozen=True)
class BlochResult:
    r0: float
    bound: float
    H_coeffs: tuple
    bracket: tuple


@dataclass(frozen=True)
class GrowthFormCheck:
    """Stated-vs-exact comparison of the |g| growth envelope at one point:
    ``closed`` is the stated envelope and ``quadrature`` the exact one, which
    shares its upper side."""

    alpha: float
    beta: float
    delta: float
    r: float
    closed: BoundEnvelope
    quadrature: BoundEnvelope

    @property
    def agrees(self) -> bool:
        """Whether the two lower sides are equal, bit for bit."""
        return self.closed.lower == self.quadrature.lower

    def discrepancies(self) -> list[dict]:
        if self.agrees:
            return []
        closed, exact = self.closed.lower, self.quadrature.lower
        return [{"kind": "g_growth_form_discrepancy", "side": "lower", "alpha": self.alpha,
                 "beta": self.beta, "delta": self.delta, "r": self.r, "closed_form": closed,
                 "quadrature": exact, "abs_diff": abs(closed - exact)}]


def _scaled_power_of_two(x: float) -> tuple[float, int]:
    """2^x / 2^k and k, the least integer k >= 0 with x - k <= 1000.

    The Bloch quartic and profile and the coefficients of its derivative
    profile are homogeneous of degree one in 2^delta and 1 - alpha, and from
    delta ~ 1022 on their sums overflow.  Dividing both by 2^k leaves the
    root and the signs as they are; ``math.ldexp`` divides exactly, so a
    value that was a normal float unscaled keeps its bits, and k = 0 up to
    x = 1000.
    """
    k = max(0, math.ceil(x - _SCALE_EXPONENT_CAP))
    return math.ldexp(2.0**x, -k), k


def distortion_slope(params: ClassParams) -> float:
    """The radial slope c = (1-alpha)/((2-alpha) 2^(delta-1)) of the |h'| envelope."""
    return (1.0 - params.alpha) / ((2.0 - params.alpha) * 2.0 ** (params.delta - 1.0))


# Envelope sides, written once with arithmetic and builtin abs only, so they
# take a float radius or the verify module's radius column.


def _dilatation_sides(beta: float, r):
    """|beta - r|/(1 - beta r) and (beta + r)/(1 + beta r), the |w| sides;
    1 - beta r is summed as (1 - beta) + beta (1 - r), which does not cancel
    as beta r -> 1."""
    return abs(beta - r) / ((1.0 - beta) + beta * (1.0 - r)), (beta + r) / (1.0 + beta * r)


def _distortion_sides(params: ClassParams, r) -> tuple:
    """The |h'| sides 1 -+ c r and the |g'| sides, each |w| side times the
    matching |h'| side: (h' lower, h' upper, g' lower, g' upper)."""
    c = distortion_slope(params)
    # c <= 1 for alpha in [0, 1) and delta >= 0, and r < 1, so the |h'| lower
    # side stays positive and the |g'| lower side nonnegative.
    h_lower, h_upper = 1.0 - c * r, 1.0 + c * r
    w_lower, w_upper = _dilatation_sides(params.beta, r)
    return h_lower, h_upper, w_lower * h_lower, w_upper * h_upper


def _f_upper(params: ClassParams, r, g_upper):
    """The |f| upper side r + c r^2/2 + g_upper, g_upper the |g| upper side at r."""
    return r + 0.5 * distortion_slope(params) * r * r + g_upper


@lru_cache(maxsize=256)
def _moments(t: float, n: int, squared: bool) -> tuple:
    """The moments int_0^1 y^k / (1 + t y)^m dy, k = 0..n-1, m = 2 if
    ``squared`` else 1, for -4/5 <= t <= 1/2 (unsquared: -1/2 <= t <= 1/2)
    and for t > 1, in plain floats.  ``_kernel_integral`` takes the squared
    ones above 1/2 only for t > 4; between 1 and 4 they lose up to 8e-15
    relative at n = 6.

    The moments phi_k, psi_k of 1/(1 + t y) and 1/(1 + t y)^2 satisfy
    phi_k = 1/(k+1) - t phi_{k+1} and psi_k = phi_k - t psi_{k+1}.  For
    t <= 1/2 they run down from their t = 0 values at an index where that
    start's error, damped by |t| per step, is below 2**-60; only the squared
    kernel needs psi.  For t > 1 they run up from phi_0 = log1p(t)/t and
    psi_0 = 1/(1 + t), which divides their errors by t per step.

    Process-wide and bounded: the 256 most recently used sequences are kept,
    enough for the 132 keys of one envelope table.  Callers pass a Python
    float, so a cached sequence never holds numpy scalars (``-0.0`` and
    ``0.0`` share an entry; their moments are identical).
    """
    if t > 0.5:
        phi, psi, moments = math.log1p(t) / t, 1.0 / (1.0 + t), []
        for q in _RECIPROCALS[:n]:
            moments.append(psi if squared else phi)
            phi, psi = (q - phi) / t, (phi - psi) / t
        return tuple(moments)
    top = n - 1 + (0 if t == 0.0 else math.ceil(60.0 / -math.log2(abs(t))))
    phi = psi = _RECIPROCALS[top]
    if squared:
        for q in reversed(_RECIPROCALS[n - 1 : top]):
            phi = q - t * phi
            psi = phi - t * psi
        moments = [psi]
        for q in reversed(_RECIPROCALS[: n - 1]):
            phi = q - t * phi
            psi = phi - t * psi
            moments.append(psi)
    else:
        for q in reversed(_RECIPROCALS[n - 1 : top]):
            phi = q - t * phi
        moments = [phi]
        for q in reversed(_RECIPROCALS[: n - 1]):
            phi = q - t * phi
            moments.append(phi)
    return tuple(reversed(moments))


def _kernel_integral(factors, t: float, squared: bool = False) -> float:
    """int_0^1 prod(a + b y) / (1 + t y)^m dy over the pairs (a, b) in
    ``factors``, m = 2 if ``squared`` else 1, for -1 < t < 1, in plain floats.

    Outside the range of the series in ``_moments`` (t > 1/2, or t below
    -1/2, -4/5 with ``squared``) the integral is taken in u = 1 - y,
    1 + t y = (1 + t)(1 + t' u): t' lies in (-1/2, -1/3) for t > 1/2, and
    above 1 for t < -1/2.  The area's degree-5 combination of psi_k loses
    digits in u until t' > 4, hence its wider series range.  Each factor
    (a, b) acts on the moments as m_k <- a m_k + b m_{k+1}, so no product is
    expanded.
    """
    scale = 1.0
    if not (-0.8 if squared else -0.5) <= t <= 0.5:
        factors = [(a + b, -b) for a, b in factors]
        scale = 1.0 + t
        t = -t / scale
        scale = scale * scale if squared else scale
    moments = _moments(float(t), len(factors) + 1, squared)
    if len(factors) == 2:
        # the loop below for two factors, written out in its order of operations
        (a, b), (p, q) = factors
        m0, m1, m2 = moments
        return (p * (a * m0 + b * m1) + q * (a * m1 + b * m2)) / scale
    for a, b in factors:
        # an explicit loop: a list comprehension over zip costs twice as much here
        rest, applied = iter(moments), []
        x = next(rest)
        for y in rest:
            applied.append(a * x + b * y)
            x = y
        moments = applied
    return moments[0] / scale


def _gprime_upper_integral(params: ClassParams, r: float) -> float:
    """int_0^r of the |g'| upper envelope (beta + x)(1 + c x)/(1 + beta x)."""
    beta, c = params.beta, distortion_slope(params)
    return r * _kernel_integral(((beta, r), (1.0, c * r)), beta * r)


def _gprime_lower_integral(params: ClassParams, r: float) -> float:
    """int_0^r of the |g'| lower envelope |beta - x|(1 - c x)/(1 - beta x): with
    A the integral of the signed integrand, A(r) up to the kink at beta and
    2 A(beta) - A(r) past it."""
    beta, c = params.beta, distortion_slope(params)
    if r <= beta:
        return _gprime_signed_integral(beta, c, r)
    return 2.0 * _gprime_signed_integral(beta, c, beta) - _gprime_signed_integral(beta, c, r)


def _gprime_signed_integral(beta: float, c: float, x: float) -> float:
    """A(x) = int_0^x (beta - xi)(1 - c xi)/(1 - beta xi) d xi."""
    return x * _kernel_integral(((beta, -x), (1.0, -c * x)), -beta * x)


def _f_lower_integral(params: ClassParams, r: float, sign: float) -> float:
    """int_0^r (1 + sign c x)(1 - beta)(1 - x)/(1 + beta x) dx: the stated (+1)
    or floor (-1) |f| lower bound."""
    beta, c = params.beta, distortion_slope(params)
    return (1.0 - beta) * r * _kernel_integral(((1.0, sign * c * r), (1.0, -r)), beta * r)


def _check_radius(r: float) -> None:
    """Reject r outside [0, 1), and -0.0, whose sign the bounds would carry."""
    if not (0.0 <= r < 1.0 and math.copysign(1.0, r) > 0.0):
        raise ValueError(f"radius must be in [0, 1) and not -0.0, got {r}")


def _b2_bound(params: ClassParams) -> float:
    """Entry n = 2 of ``bn_bounds``, as one scalar expression."""
    alpha, beta, delta = params.alpha, params.beta, params.delta
    return (1.0 - alpha) * beta / (2.0**delta * (2.0 - alpha)) + (1.0 - beta) * (1.0 + beta) / 2.0


def _check_coeff_index(n) -> None:
    if not (2 <= n <= MAX_COEFF_INDEX and float(n).is_integer()):
        raise ValueError(f"coefficient index must be an integer in [2, {MAX_COEFF_INDEX}], got {n}")


def _bn_from_sum(params: ClassParams, n, partial, scale):
    """Entry n >= 3 of ``bn_bounds`` from its partial sum and scale = n^delta;
    a float n or a column of indices."""
    alpha, beta = params.alpha, params.beta
    head = (1.0 - alpha) * ((1.0 - beta) * (1.0 + beta)) / n * partial
    return head + (1.0 - alpha) * beta / (scale * (n - alpha))


def bn_bound(params: ClassParams, n: int) -> float:
    """Upper bound for |b_n|, n >= 2: entry n of ``bn_bounds``, bit for bit.
    Its powers are taken as ``bn_bounds`` takes them, an array to a float
    exponent (numpy's power need not round as ``**`` does), and its terms
    are summed in Python floats in the order of the running sum.  That sum
    is a Python loop of n - 1 steps: from n of about 100 on,
    ``bn_bounds(params, n)[-1]`` is the faster way to the same value."""
    params.require_nonnegative_delta()
    if n == 2:
        return _b2_bound(params)
    _check_coeff_index(n)
    bases = np.arange(1.0, n + 1.0)
    with np.errstate(over="ignore"):
        powers = bases[:-1] ** (1.0 - params.delta)
        scale = (bases[-1:] ** params.delta).item()
    partial = 0.0
    for k, power in zip(bases[:-1].tolist(), powers.tolist()):
        partial += power / (k - params.alpha)
    return _bn_from_sum(params, float(n), partial, scale)


def bn_bounds(params: ClassParams, n_top: int) -> np.ndarray:
    """Upper bounds for |b_n|, n = 2..n_top (at index n - 2), 2 <= n_top <=
    ``MAX_COEFF_INDEX``.

    n = 2 is the special case (1-alpha) beta / (2^delta (2-alpha)) + (1-beta^2)/2;
    for n >= 3 the convolution estimate gives

        (1-alpha)(1-beta^2)/n * sum_{k=1}^{n-1} k^(1-delta)/(k-alpha)
        + (1-alpha) beta / (n^delta (n-alpha)),

    whose partial sums are one running sum.  A non-integral ``n_top`` raises
    ``ValueError``.
    """
    params.require_nonnegative_delta()
    _check_coeff_index(n_top)
    alpha, delta = params.alpha, params.delta
    k = np.arange(1, n_top, dtype=float)
    partial = np.cumsum(k ** (1.0 - delta) / (k - alpha))[1:]
    n = k[1:] + 1.0
    # n^delta, or n^delta (n - alpha), overflows from delta ~ 645 (n = 3): inf
    # sends the last term to its limit 0, so the overflow is not worth a warning
    with np.errstate(over="ignore"):
        rest = _bn_from_sum(params, n, partial, n**delta)
    return np.concatenate(([_b2_bound(params)], rest))


def bn_bound_digamma(alpha: float, n: int) -> float:
    """The beta = 0, delta = 1 coefficient bound in digamma form:
    ((1-alpha)/n) (psi(n-alpha) - psi(1-alpha))."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must be in [0, 1)")
    if n < 3:
        raise ValueError("digamma form applies for n >= 3")
    return (1.0 - alpha) / n * (digamma(n - alpha) - digamma(1.0 - alpha))


def hprime_envelope(params: ClassParams, r: float) -> BoundEnvelope:
    """Distortion envelope 1 - c r <= |h'| <= 1 + c r; the lower side is
    positive (see ``_distortion_sides``)."""
    params.require_nonnegative_delta()
    _check_radius(r)
    lower, upper, _, _ = _distortion_sides(params, r)
    return BoundEnvelope(lower=lower, upper=upper)


def dilatation_envelope(beta: float, r: float) -> BoundEnvelope:
    """|beta - r|/(1 - beta r) <= |w| <= (beta + r)/(1 + beta r) on |z| = r.

    The lower side is attained by Moebius dilatations; general admissible
    dilatations need only satisfy the upper side once r exceeds beta.
    """
    _check_radius(r)
    lower, upper = _dilatation_sides(beta, r)
    return BoundEnvelope(lower=lower, upper=upper)


def gprime_envelope(params: ClassParams, r: float) -> BoundEnvelope:
    """Sides-matched product of the dilatation and |h'| envelopes.

    The lower side is >= 0: both of its factors are (see ``_distortion_sides``).
    """
    params.require_nonnegative_delta()
    _check_radius(r)
    _, _, lower, upper = _distortion_sides(params, r)
    return BoundEnvelope(lower=lower, upper=upper)


def g_growth_bounds(params: ClassParams, r: float) -> BoundEnvelope:
    """Stated growth envelope (|F|, E) / (2^delta (2-alpha) beta^3) for |g(z)|
    at |z| = r, evaluated as the integrals it equals, with no division by
    beta^3: |A(r)|, A(r) = int_0^r (beta - xi)(1 - c xi)/(1 - beta xi) d xi,
    and the integral of the |g'| upper envelope.  The lower side is the
    exact integral of the |g'| lower envelope where r <= beta or beta = 0
    (see ``g_growth_crosscheck``)."""
    params.require_nonnegative_delta()
    _check_radius(r)
    lower = abs(_gprime_signed_integral(params.beta, distortion_slope(params), r))
    return BoundEnvelope(lower=lower, upper=_gprime_upper_integral(params, r))


def g_growth_crosscheck(
    params: ClassParams, r: float, tol: float = DEFAULT_QUAD_TOL
) -> GrowthFormCheck:
    """The stated g-growth envelope (``g_growth_bounds``) beside the exact
    one, the integrals of the |g'| envelope with the kink at xi = beta.

    The upper sides are one integral.  The lower sides agree bit for bit up
    to r = beta and at beta = 0, and separate past r = beta, where the
    signed integral A no longer equals the integral of |beta - xi|.
    Disagreements are reported, not asserted away.  ``tol`` is ignored: the
    values are exact.
    """
    closed = g_growth_bounds(params, r)
    exact = BoundEnvelope(lower=_gprime_lower_integral(params, r), upper=closed.upper)
    return GrowthFormCheck(params.alpha, params.beta, params.delta, r, closed, exact)


def area_envelope(params: ClassParams, tol: float = DEFAULT_QUAD_TOL) -> BoundEnvelope:
    """Envelope for the area integral of the Jacobian over the disk.

    Uses the proof-form integrands

        2 pi int_0^1 r (1 -+ c r)^2 (1 - ((beta +- r)/(1 +- beta r))^2) dr,

    which are the self-consistent versions; the displayed statement omits a
    square on a denominator and is not used.  They are integrated exactly as
    2 pi (1 - beta^2) int_0^1 r (1 -+ c r)^2 (1 - r^2)/(1 +- beta r)^2 dr.
    ``tol`` is ignored: the values are exact.
    """
    params.require_nonnegative_delta()
    beta, c = params.beta, distortion_slope(params)
    # (1 - beta)(1 + beta), not 1 - beta^2: beta^2 would round away digits near beta = 1
    scale = 2.0 * math.pi * (1.0 - beta) * (1.0 + beta)

    def integral(sign: float) -> float:
        factors = ((0.0, 1.0), (1.0, sign * c), (1.0, sign * c), (1.0, -1.0), (1.0, 1.0))
        return scale * _kernel_integral(factors, -sign * beta, squared=True)

    return BoundEnvelope(lower=integral(-1.0), upper=integral(1.0))


def f_growth(
    params: ClassParams, r: float, tol: float = DEFAULT_QUAD_TOL
) -> BoundEnvelope:
    """Stated growth envelope for |f(z)| at |z| = r.

    lower: int_0^r (1 + c xi)(1 - beta)(1 - xi)/(1 + beta xi) d xi
    upper: r + c r^2 / 2 + int_0^r ((beta + xi)/(1 + beta xi)) (1 + c xi) d xi

    The lower side is the stated form; see ``f_growth_floor`` for the
    attainable companion used when checking concrete members.  ``tol`` is ignored.
    """
    params.require_nonnegative_delta()
    _check_radius(r)
    upper = _f_upper(params, r, _gprime_upper_integral(params, r))
    return BoundEnvelope(lower=_f_lower_integral(params, r, 1.0), upper=upper)


def f_growth_floor(
    params: ClassParams, r: float, tol: float = DEFAULT_QUAD_TOL
) -> float:
    """Attainable lower bound for min |f| on |z| = r:

        int_0^r (1 - c xi)(1 - beta)(1 - xi)/(1 + beta xi) d xi.

    Differs from the stated lower form in the sign of the c xi term (h'-lower
    factor instead of h'-upper).  The degree-2 extremal member with w(z) = z
    meets this floor with equality at every radius, and crosses strictly
    below the stated form, so this is the reference for member verification.
    ``tol`` is ignored: the value is exact.
    """
    params.require_nonnegative_delta()
    _check_radius(r)
    return _f_lower_integral(params, r, -1.0)


def normality_constant(params: ClassParams, tol: float = DEFAULT_QUAD_TOL) -> float:
    """Uniform modulus bound M = 1 + (1-alpha)/(2^delta (2-alpha)) + int_0^1 ...;
    the r -> 1 limit of the upper growth envelope.  ``tol`` is ignored: the
    value is exact."""
    params.require_nonnegative_delta()
    return _f_upper(params, 1.0, _gprime_upper_integral(params, 1.0))


def covering_radius(params: ClassParams, tol: float = DEFAULT_QUAD_TOL) -> float:
    """Stated covering radius: the r -> 1 limit of the stated lower growth
    bound.  ``tol`` is ignored: the value is exact."""
    params.require_nonnegative_delta()
    return _f_lower_integral(params, 1.0, 1.0)


def covering_radius_floor(params: ClassParams, tol: float = DEFAULT_QUAD_TOL) -> float:
    """r -> 1 limit of the attainable growth floor (see ``f_growth_floor``).
    ``tol`` is ignored: the value is exact."""
    params.require_nonnegative_delta()
    return _f_lower_integral(params, 1.0, -1.0)


def _bloch_scales(params: ClassParams) -> tuple[float, float, float]:
    """d2 = 2^(delta-1) (2-alpha), a1 = 1 - alpha and 2^(delta-1), each divided
    by the 2^k of ``_scaled_power_of_two(delta - 1)``: k = 0 up to delta = 1001."""
    power, k = _scaled_power_of_two(params.delta - 1.0)
    return power * (2.0 - params.alpha), math.ldexp(1.0 - params.alpha, -k), power


def bloch_H_poly(params: ClassParams) -> np.ndarray:
    """Ascending coefficients of the quartic whose unique root in (0, 1)
    maximizes the weighted stretch profile G.

    Above delta = 1001 the quartic is divided by 2^k, k = ceil(delta - 1001)
    (see ``_bloch_scales``): a positive multiple with the same root, whose
    coefficients stay finite for every delta below 1024.
    """
    params.require_nonnegative_delta()
    d2, a1, _ = _bloch_scales(params)
    return np.array(_bloch_quartic(params.beta, d2, a1))


def _bloch_quartic(beta: float, d2: float, a1: float) -> tuple:
    """The coefficients of ``bloch_H_poly`` as five Python floats, from the
    scales of ``_bloch_scales``.  Only c1 (d2 = a1 at alpha = delta = 0) and
    c4 (beta = 0) can be zero; ``+ 0.0`` turns their -0.0 into 0.0."""
    return (
        d2 * (1.0 - beta) + a1,
        -2.0 * (d2 - a1) + 0.0,
        -(d2 * (3.0 + beta) + a1 * (3.0 - beta)),
        -(2.0 * d2 * beta + a1 * (4.0 + 2.0 * beta)),
        -3.0 * a1 * beta + 0.0,
    )


def bloch_L_coeffs(params: ClassParams, r: float) -> tuple[float, float]:
    """Coefficients (a0, a1) of the linear-in-beta derivative profile L.

    Both are strictly negative for r in (0, 1), which is what makes the
    quartic monotone and its root unique.  Both are homogeneous of degree one
    in 2^delta and 1 - alpha, so above delta = 1000 they are returned divided
    by 2^k, k = ceil(delta - 1000) (``_scaled_power_of_two``): the signs
    stay, the values stay finite for every delta below 1024, and up to
    delta = 1000 (k = 0) they are the unscaled values.
    """
    params.require_nonnegative_delta()
    alpha = params.alpha
    power, k = _scaled_power_of_two(params.delta)
    d = power * (2.0 - alpha)
    a = 2.0 * math.ldexp(1.0 - alpha, -k)
    a0 = a * (1.0 - 3.0 * r - 6.0 * r * r) - d * (1.0 + 3.0 * r)
    a1 = -d * (1.0 + 3.0 * r) * r + a * (1.0 - 3.0 * r - 6.0 * r * r) * r
    return a0, a1


def _bloch_profile(d2: float, a1: float, beta: float, r: float) -> float:
    """G(r) = ((1 + r - r^2 - r^3) d2 + a1 (r + r^2 - r^3 - r^4))/(1 + beta r),
    in the factored form (1 + r)(1 - r^2)(d2 + a1 r)/(1 + beta r), with d2 and
    a1 = 1 - alpha as ``_bloch_scales`` gives them."""
    return (1.0 + r) * (1.0 - r * r) * (d2 + a1 * r) / (1.0 + beta * r)


def bloch_bound(params: ClassParams) -> BlochResult:
    """Bloch-constant bound: isolate the unique critical radius r0 in (0, 1),
    then evaluate ((1+beta)/((2-alpha) 2^(delta-1))) G(r0).

    The quartic H (``bloch_H_poly``) certifies its own root before any
    refinement.  With d2 = 2^(delta-1) (2-alpha) > 0 and 1 - alpha > 0, its
    coefficients satisfy c0 > 0, c2 < 0, c3 < 0 and c4 <= 0 whatever the sign
    of c1, so Descartes' rule of signs gives exactly one positive root, and
    H(1) = -4 (1+beta)(d2 + 1 - alpha) < 0 < H(0) = c0 puts it in (0, 1).
    The count is read off the coefficients themselves, so no rounding can
    change it.  A variation count other than one, H(0) <= 0 or H(1) >= 0
    contradicts that argument and raises RootCountError rather than being
    masked.  Bisection narrows [0, 1], one step per bit of r0, to a
    ``bracket`` of two adjacent floats, or twice a midpoint where H is 0.
    H, G and the prefactor carry the scale 2^k of ``_bloch_scales``, which
    cancels exactly in the bound, so they stay finite up to delta = 1024 and
    the prefactor stays a normal float (unscaled, it is subnormal from
    delta ~ 1022 on).
    """
    params.require_nonnegative_delta()
    d2, a1, power = _bloch_scales(params)
    h_coeffs = _bloch_quartic(params.beta, d2, a1)
    count = sign_variations(h_coeffs)
    c0, c1, c2, c3, c4 = h_coeffs
    # H(0) and H(1) as Horner's rule gives them, bit for bit: a signed zero
    # added to c0 (nonzero unless substituted) leaves it, and x * 1.0 is x
    h_at_zero, h_at_one = c0, c4 + c3 + c2 + c1 + c0
    if not (count == 1 and h_at_one < 0.0 < h_at_zero):
        raise RootCountError(
            "expected exactly one critical radius in (0, 1), variation count is "
            f"{count}, H(0) = {h_at_zero!r}, H(1) = {h_at_one!r}"
        )
    lo, mid, hi = 0.0, 0.5, 1.0
    while lo < mid < hi:
        h_mid = (((c4 * mid + c3) * mid + c2) * mid + c1) * mid + c0
        if h_mid == 0.0:
            lo = hi = mid
        elif h_mid > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    r0 = mid
    prefactor = (1.0 + params.beta) / ((2.0 - params.alpha) * power)
    bound = prefactor * _bloch_profile(d2, a1, params.beta, r0)
    return BlochResult(r0=r0, bound=bound, H_coeffs=h_coeffs, bracket=(lo, hi))
