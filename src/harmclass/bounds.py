"""Closed-form bounds for the class: coefficients, distortion and growth
envelopes, area, normality constant, covering radius and the Bloch bound.

Two growth quantities carry a stated/derived split.  The closed lower form
for |g| (via the expression F below) and the lower growth integrand for |f|
are evaluated exactly as stated, but each has a companion used for member
verification:

  * ``g_growth_quadrature`` integrates the |g'| envelope directly, with the
    kink at xi = beta honored; it disagrees with |F| once r > beta, and the
    quadrature value is the one trusted when checking concrete maps.
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

import numpy as np

from .errors import RootCountError
from .model import MAX_TRUNCATION_ORDER, ClassParams
from .numerics import (
    Polynomial,
    adaptive_quadrature,
    bisect_bracket,
    digamma,
    vincent_variation_count,
)

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
    "g_growth_quadrature",
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

DEFAULT_QUAD_TOL = 1e-10

#: Width to which bisection narrows the bracket of the Bloch critical radius.
_BLOCH_BRACKET_WIDTH = 1e-14

#: beta below which the closed g-growth forms (which divide by beta^3) are
#: abandoned for direct quadrature of the envelope.
_G_GROWTH_BETA_SWITCH = 1e-3

#: agreement threshold for stated-vs-derived growth forms.
_CROSSCHECK_TOL = 1e-8


@dataclass(frozen=True)
class BoundEnvelope:
    """Two-sided bound attached to a radius or index."""

    lower: float
    upper: float
    at: float

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
    """Stated-vs-quadrature comparison of the |g| growth envelope at one point."""

    alpha: float
    beta: float
    delta: float
    r: float
    closed: BoundEnvelope
    quadrature: BoundEnvelope
    lower_diff: float
    upper_diff: float
    agrees: bool

    def discrepancies(self) -> list[dict]:
        out = []
        for side, diff, closed_v, quad_v in (
            ("lower", self.lower_diff, self.closed.lower, self.quadrature.lower),
            ("upper", self.upper_diff, self.closed.upper, self.quadrature.upper),
        ):
            if diff > _CROSSCHECK_TOL:
                out.append(
                    {
                        "kind": "g_growth_form_discrepancy",
                        "side": side,
                        "alpha": self.alpha,
                        "beta": self.beta,
                        "delta": self.delta,
                        "r": self.r,
                        "closed_form": closed_v,
                        "quadrature": quad_v,
                        "abs_diff": diff,
                    }
                )
        return out


def distortion_slope(params: ClassParams) -> float:
    """The radial slope c = (1-alpha)/((2-alpha) 2^(delta-1)) of the |h'| envelope."""
    return (1.0 - params.alpha) / ((2.0 - params.alpha) * 2.0 ** (params.delta - 1.0))


# Growth integrands, written once with arithmetic and builtin abs only, so one
# closure takes the floats below and the verify module's radius arrays.


def _gprime_upper_integrand(params: ClassParams):
    """(beta + x)/(1 + beta x) (1 + c x), the |g'| upper envelope."""
    beta = params.beta
    c = distortion_slope(params)
    return lambda x: (beta + x) / (1.0 + beta * x) * (1.0 + c * x)


def _gprime_lower_integrand(params: ClassParams):
    """|beta - x|/(1 - beta x) (1 - c x), the |g'| lower envelope (kink at beta)."""
    beta = params.beta
    c = distortion_slope(params)
    return lambda x: abs(beta - x) / (1.0 - beta * x) * (1.0 - c * x)


def _f_lower_integrand(params: ClassParams, sign: float):
    """(1 + sign c x)(1 - beta)(1 - x)/(1 + beta x): stated (+1) or floor (-1) |f| lower."""
    beta = params.beta
    c = distortion_slope(params)
    return lambda x: (1.0 + sign * c * x) * (1.0 - beta) * (1.0 - x) / (1.0 + beta * x)


def _check_radius(r: float) -> None:
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius must be in [0, 1), got {r}")


def _b2_bound(params: ClassParams) -> float:
    """Entry n = 2 of ``bn_bounds``, as one scalar expression."""
    alpha, beta, delta = params.alpha, params.beta, params.delta
    return (1.0 - alpha) * beta / (2.0**delta * (2.0 - alpha)) + (1.0 - beta * beta) / 2.0


def bn_bound(params: ClassParams, n: int) -> float:
    """Upper bound for |b_n|, n >= 2: entry n of ``bn_bounds``, bit for bit."""
    if n == 2:
        params.require_nonnegative_delta()
        return _b2_bound(params)
    return float(bn_bounds(params, n)[-1])


def bn_bounds(params: ClassParams, n_top: int) -> np.ndarray:
    """Upper bounds for |b_n|, n = 2..n_top (at index n - 2), 2 <= n_top <=
    ``model.MAX_TRUNCATION_ORDER`` (the largest order g can have).

    n = 2 is the special case (1-alpha) beta / (2^delta (2-alpha)) + (1-beta^2)/2;
    for n >= 3 the convolution estimate gives

        (1-alpha)(1-beta^2)/n * sum_{k=1}^{n-1} k^(1-delta)/(k-alpha)
        + (1-alpha) beta / (n^delta (n-alpha)),

    whose partial sums are one running sum.
    """
    params.require_nonnegative_delta()
    if not 2 <= n_top <= MAX_TRUNCATION_ORDER:
        raise ValueError(f"coefficient index must be in [2, {MAX_TRUNCATION_ORDER}], got {n_top}")
    alpha, beta, delta = params.alpha, params.beta, params.delta
    k = np.arange(1, n_top, dtype=float)
    partial = np.cumsum(k ** (1.0 - delta) / (k - alpha))[1:]
    n = k[1:] + 1.0
    rest = (1.0 - alpha) * (1.0 - beta * beta) / n * partial + (1.0 - alpha) * beta / (
        n**delta * (n - alpha)
    )
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
    """Distortion envelope 1 - c r <= |h'| <= 1 + c r.

    The lower side is positive: c <= 1 for alpha in [0, 1) and delta >= 0,
    and r < 1.
    """
    params.require_nonnegative_delta()
    _check_radius(r)
    c = distortion_slope(params)
    return BoundEnvelope(lower=1.0 - c * r, upper=1.0 + c * r, at=r)


def dilatation_envelope(beta: float, r: float) -> BoundEnvelope:
    """|beta - r|/(1 - beta r) <= |w| <= (beta + r)/(1 + beta r) on |z| = r.

    The lower side is attained by Moebius dilatations; general admissible
    dilatations need only satisfy the upper side once r exceeds beta.
    """
    _check_radius(r)
    return BoundEnvelope(
        lower=abs(beta - r) / (1.0 - beta * r),
        upper=(beta + r) / (1.0 + beta * r),
        at=r,
    )


def gprime_envelope(params: ClassParams, r: float) -> BoundEnvelope:
    """Sides-matched product of the dilatation and |h'| envelopes.

    The lower side is >= 0: both of its factors are (see ``hprime_envelope``).
    """
    params.require_nonnegative_delta()
    _check_radius(r)
    return BoundEnvelope(
        lower=_gprime_lower_integrand(params)(r), upper=_gprime_upper_integrand(params)(r), at=r
    )


def _g_growth_closed(params: ClassParams, r: float) -> tuple[float, float]:
    """The stated closed forms (|F|, E) / (2^delta (2-alpha) beta^3)."""
    alpha, beta, delta = params.alpha, params.beta, params.delta
    d = 2.0**delta * (2.0 - alpha)
    log_p = math.log1p(r * beta)
    log_m = math.log1p(-r * beta)
    e_val = r * beta * (d * beta - (1.0 - alpha) * (2.0 - (r + 2.0 * beta) * beta)) + (
        2.0 - 2.0 * alpha - d * beta
    ) * (1.0 - beta * beta) * log_p
    f_val = r * beta * (-d * beta + (1.0 - alpha) * (2.0 + (r - 2.0 * beta) * beta)) + (
        2.0 - 2.0 * alpha - d * beta
    ) * (1.0 - beta * beta) * log_m
    scale = d * beta**3
    return abs(f_val) / scale, e_val / scale


def g_growth_bounds(
    params: ClassParams, r: float, tol: float = DEFAULT_QUAD_TOL
) -> BoundEnvelope:
    """Growth envelope for |g(z)| at |z| = r.

    For beta >= 1e-3 the stated closed forms are evaluated; both scale like
    beta^3, so below that threshold the division is ill-conditioned and the
    envelope is integrated directly instead (the beta -> 0 limit of the
    closed forms).
    """
    if params.beta < _G_GROWTH_BETA_SWITCH:
        return g_growth_quadrature(params, r, tol)
    params.require_nonnegative_delta()
    _check_radius(r)
    if r == 0.0:
        return BoundEnvelope(0.0, 0.0, at=0.0)
    lo, up = _g_growth_closed(params, r)
    return BoundEnvelope(lower=lo, upper=up, at=r)


def g_growth_quadrature(
    params: ClassParams, r: float, tol: float = DEFAULT_QUAD_TOL
) -> BoundEnvelope:
    """Quadrature form of the |g| growth envelope; authoritative for member
    verification wherever it disagrees with the closed forms: the radial
    integrals of the |g'| envelope, split at the xi = beta kink."""
    params.require_nonnegative_delta()
    _check_radius(r)
    if r == 0.0:
        return BoundEnvelope(0.0, 0.0, at=0.0)
    lo = adaptive_quadrature(_gprime_lower_integrand(params), 0.0, r, tol, (params.beta,))
    up = adaptive_quadrature(_gprime_upper_integrand(params), 0.0, r, tol)
    return BoundEnvelope(lower=lo, upper=up, at=r)


def g_growth_crosscheck(
    params: ClassParams, r: float, tol: float = DEFAULT_QUAD_TOL
) -> GrowthFormCheck:
    """Compare the stated closed g-growth forms against the quadrature oracle.

    The upper sides agree identically; the lower sides separate once
    r > beta, where the signed antiderivative behind F no longer equals the
    integral of |beta - xi|.  Disagreements are reported, not asserted away.
    Below the beta switch of ``g_growth_bounds`` both sides are the one
    quadrature.
    """
    closed = g_growth_bounds(params, r, tol)
    quad = closed if params.beta < _G_GROWTH_BETA_SWITCH else g_growth_quadrature(params, r, tol)
    lower_diff = abs(closed.lower - quad.lower)
    upper_diff = abs(closed.upper - quad.upper)
    return GrowthFormCheck(
        alpha=params.alpha,
        beta=params.beta,
        delta=params.delta,
        r=r,
        closed=closed,
        quadrature=quad,
        lower_diff=lower_diff,
        upper_diff=upper_diff,
        agrees=max(lower_diff, upper_diff) <= _CROSSCHECK_TOL,
    )


def area_envelope(params: ClassParams, tol: float = DEFAULT_QUAD_TOL) -> BoundEnvelope:
    """Envelope for the area integral of the Jacobian over the disk.

    Uses the proof-form integrands

        2 pi int_0^1 r (1 -+ c r)^2 (1 - ((beta +- r)/(1 +- beta r))^2) dr,

    which are the self-consistent versions; the displayed statement omits a
    square on a denominator and is not used.
    """
    params.require_nonnegative_delta()
    if tol <= 0:
        raise ValueError("tol must be positive")
    beta = params.beta
    c = distortion_slope(params)

    def lower_integrand(r: float) -> float:
        ratio = (beta + r) / (1.0 + beta * r)
        return r * (1.0 - c * r) ** 2 * (1.0 - ratio * ratio)

    def upper_integrand(r: float) -> float:
        ratio = (beta - r) / (1.0 - beta * r)
        return r * (1.0 + c * r) ** 2 * (1.0 - ratio * ratio)

    lo = 2.0 * math.pi * adaptive_quadrature(lower_integrand, 0.0, 1.0, tol)
    up = 2.0 * math.pi * adaptive_quadrature(upper_integrand, 0.0, 1.0, tol)
    return BoundEnvelope(lower=lo, upper=up, at=1.0)


def f_growth(
    params: ClassParams, r: float, tol: float = DEFAULT_QUAD_TOL
) -> BoundEnvelope:
    """Stated growth envelope for |f(z)| at |z| = r.

    lower: int_0^r (1 + c xi)(1 - beta)(1 - xi)/(1 + beta xi) d xi
    upper: r + c r^2 / 2 + int_0^r ((beta + xi)/(1 + beta xi)) (1 + c xi) d xi

    The lower side is the stated form; see ``f_growth_floor`` for the
    attainable companion used when checking concrete members.
    """
    params.require_nonnegative_delta()
    _check_radius(r)
    if r == 0.0:
        return BoundEnvelope(0.0, 0.0, at=0.0)
    c = distortion_slope(params)
    lo = adaptive_quadrature(_f_lower_integrand(params, +1.0), 0.0, r, tol)
    up = r + 0.5 * c * r * r + adaptive_quadrature(_gprime_upper_integrand(params), 0.0, r, tol)
    return BoundEnvelope(lower=lo, upper=up, at=r)


def f_growth_floor(
    params: ClassParams, r: float, tol: float = DEFAULT_QUAD_TOL
) -> float:
    """Attainable lower bound for min |f| on |z| = r:

        int_0^r (1 - c xi)(1 - beta)(1 - xi)/(1 + beta xi) d xi.

    Differs from the stated lower form in the sign of the c xi term (h'-lower
    factor instead of h'-upper).  The degree-2 extremal member with w(z) = z
    meets this floor with equality at every radius, and crosses strictly
    below the stated form, so this is the reference for member verification.
    """
    params.require_nonnegative_delta()
    _check_radius(r)
    if r == 0.0:
        return 0.0
    return adaptive_quadrature(_f_lower_integrand(params, -1.0), 0.0, r, tol)


def normality_constant(params: ClassParams, tol: float = DEFAULT_QUAD_TOL) -> float:
    """Uniform modulus bound M = 1 + (1-alpha)/(2^delta (2-alpha)) + int_0^1 ...;
    the r -> 1 limit of the upper growth envelope."""
    params.require_nonnegative_delta()
    c = distortion_slope(params)
    return 1.0 + 0.5 * c + adaptive_quadrature(_gprime_upper_integrand(params), 0.0, 1.0, tol)


def covering_radius(params: ClassParams, tol: float = DEFAULT_QUAD_TOL) -> float:
    """Stated covering radius: the r -> 1 limit of the stated lower growth bound."""
    params.require_nonnegative_delta()
    return adaptive_quadrature(_f_lower_integrand(params, +1.0), 0.0, 1.0, tol)


def covering_radius_floor(params: ClassParams, tol: float = DEFAULT_QUAD_TOL) -> float:
    """r -> 1 limit of the attainable growth floor (see ``f_growth_floor``)."""
    params.require_nonnegative_delta()
    return adaptive_quadrature(_f_lower_integrand(params, -1.0), 0.0, 1.0, tol)


def bloch_H_poly(params: ClassParams) -> np.ndarray:
    """Ascending coefficients of the quartic whose unique root in (0, 1)
    maximizes the weighted stretch profile G."""
    params.require_nonnegative_delta()
    alpha, beta, delta = params.alpha, params.beta, params.delta
    d2 = 2.0 ** (delta - 1.0) * (2.0 - alpha)
    a1 = 1.0 - alpha
    coeffs = np.array(
        [
            d2 * (1.0 - beta) + a1,
            -2.0 * (d2 - a1),
            -(d2 * (3.0 + beta) + a1 * (3.0 - beta)),
            -(2.0 * d2 * beta + a1 * (4.0 + 2.0 * beta)),
            -3.0 * a1 * beta,
        ]
    )
    return coeffs + 0.0  # normalize any -0.0 entries


def bloch_L_coeffs(params: ClassParams, r: float) -> tuple[float, float]:
    """Coefficients (a0, a1) of the linear-in-beta derivative profile L.

    Both are strictly negative for r in (0, 1), which is what makes the
    quartic monotone and its root unique.
    """
    params.require_nonnegative_delta()
    alpha, delta = params.alpha, params.delta
    d = 2.0**delta * (2.0 - alpha)
    a0 = 2.0 * (1.0 - alpha) * (1.0 - 3.0 * r - 6.0 * r * r) - d * (1.0 + 3.0 * r)
    a1 = -d * (1.0 + 3.0 * r) * r + 2.0 * (1.0 - alpha) * (1.0 - 3.0 * r - 6.0 * r * r) * r
    return a0, a1


def _bloch_profile(params: ClassParams, r: float) -> float:
    """G(r) = ((1 + r - r^2 - r^3) d2 + (1-alpha)(r + r^2 - r^3 - r^4))/(1 + beta r),
    in the factored form (1 + r)(1 - r^2)(d2 + (1-alpha) r)/(1 + beta r)."""
    alpha, beta, delta = params.alpha, params.beta, params.delta
    d2 = 2.0 ** (delta - 1.0) * (2.0 - alpha)
    return (1.0 + r) * (1.0 - r * r) * (d2 + (1.0 - alpha) * r) / (1.0 + beta * r)


def bloch_bound(params: ClassParams) -> BlochResult:
    """Bloch-constant bound: isolate the unique critical radius r0 in (0, 1),
    then evaluate ((1+beta)/((2-alpha) 2^(delta-1))) G(r0).

    Uniqueness is cross-checked by the interval variation count before any
    root refinement; a count other than one raises RootCountError, because it
    would contradict the monotonicity argument and must not be masked.
    """
    params.require_nonnegative_delta()
    h_coeffs = bloch_H_poly(params)
    H = Polynomial(h_coeffs)
    count = vincent_variation_count(H, 0.0, 1.0)
    if count != 1:
        raise RootCountError(
            f"expected exactly one critical radius in (0, 1), variation count is {count}"
        )
    bracket = bisect_bracket(H, 0.0, 1.0, _BLOCH_BRACKET_WIDTH)
    r0 = 0.5 * (bracket[0] + bracket[1])
    prefactor = (1.0 + params.beta) / ((2.0 - params.alpha) * 2.0 ** (params.delta - 1.0))
    bound = prefactor * _bloch_profile(params, r0)
    return BlochResult(r0=r0, bound=bound, H_coeffs=tuple(h_coeffs.tolist()), bracket=bracket)
