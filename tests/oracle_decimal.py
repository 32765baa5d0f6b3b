"""A 50-digit oracle for the bounds of ``harmclass.bounds``, in Python's
``decimal``, written from the integrands and the profile rather than from
the package's formulas.

Every radial integral is int_0^r P(x)/(1 + t x) dx for a polynomial P,
which x = r y turns into r sum_j p_j r^j mu_j(t r), with the moments
mu_j(s) = int_0^1 y^j/(1 + s y) dy: the power series in s for |s| <= 1/2,
else upward from mu_0 = ln(1 + s)/s by mu_(j+1) = (1/(j+1) - mu_j)/s.  The
Bloch critical radius is the bisection, down to 1e-45, of the numerator
N'(r)(1 + beta r) - beta N(r) of the derivative of the profile
G = N/(1 + beta r).  Each function takes floats and returns a ``Decimal``.
"""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from functools import lru_cache

PRECISION = 50

_CONTEXT = Context(prec=PRECISION)
_SERIES_CUTOFF = Decimal(10) ** -(PRECISION + 5)
_BISECTION_WIDTH = Decimal(10) ** -45
_ONE, _TWO, _HALF = Decimal(1), Decimal(2), Decimal("0.5")


def _decimals(params):
    """alpha, beta and the slope c = (1-alpha)/((2-alpha) 2^(delta-1)), exactly
    from the floats of ``params`` and then to 50 digits."""
    alpha, beta, delta = Decimal(params.alpha), Decimal(params.beta), Decimal(params.delta)
    return alpha, beta, (1 - alpha) / ((2 - alpha) * _TWO ** (delta - 1))


@lru_cache(maxsize=None)
def _moments(s: Decimal, n: int) -> tuple:
    """mu_j(s), j = 0..n-1."""
    if abs(s) <= _HALF:
        sums = [Decimal(0)] * n
        power, j = _ONE, 0
        while abs(power) > _SERIES_CUTOFF:
            for k in range(n):
                sums[k] += power / (j + k + 1)
            power, j = -power * s, j + 1
        return tuple(sums)
    mu = [(1 + s).ln() / s]
    for j in range(n - 1):
        mu.append((_ONE / (j + 1) - mu[j]) / s)
    return tuple(mu)


def _integral(poly, t: Decimal, r: Decimal) -> Decimal:
    """int_0^r P(x)/(1 + t x) dx, P with the ascending coefficients ``poly``."""
    total, power = Decimal(0), r
    for p, m in zip(poly, _moments(t * r, len(poly))):
        total += p * power * m
        power *= r
    return total


def g_upper(params, r: float) -> Decimal:
    """int_0^r (beta + x)(1 + c x)/(1 + beta x) dx."""
    with localcontext(_CONTEXT):
        _, beta, c = _decimals(params)
        return _integral((beta, 1 + beta * c, c), beta, Decimal(r))


def g_lower(params, r: float) -> Decimal:
    """int_0^r |beta - x|(1 - c x)/(1 - beta x) dx, split at the kink x = beta."""
    with localcontext(_CONTEXT):
        _, beta, c = _decimals(params)
        poly = (beta, -(1 + beta * c), c)
        r = Decimal(r)
        if r <= beta:
            return _integral(poly, -beta, r)
        return 2 * _integral(poly, -beta, beta) - _integral(poly, -beta, r)


def f_lower(params, r: float, sign: int) -> Decimal:
    """int_0^r (1 + sign c x)(1 - beta)(1 - x)/(1 + beta x) dx: the stated
    (+1) and the floor (-1) lower forms of |f|, at r = 1 the covering radii."""
    with localcontext(_CONTEXT):
        _, beta, c = _decimals(params)
        sc = sign * c
        poly = ((1 - beta), (1 - beta) * (sc - 1), -(1 - beta) * sc)
        return _integral(poly, beta, Decimal(r))


def normality(params) -> Decimal:
    """1 + c/2 + int_0^1 (beta + x)(1 + c x)/(1 + beta x) dx."""
    with localcontext(_CONTEXT):
        _, _, c = _decimals(params)
        return 1 + c / 2 + g_upper(params, 1.0)


def _profile_parts(params):
    """beta, d2 = 2^(delta-1) (2-alpha) and a1 = 1 - alpha."""
    alpha, beta, _ = _decimals(params)
    return beta, _TWO ** (Decimal(params.delta) - 1) * (2 - alpha), 1 - alpha


def _numerator(d2, a1, r):
    """N(r) = d2 (1 + r - r^2 - r^3) + a1 (r + r^2 - r^3 - r^4) and N'(r)."""
    n = d2 * (1 + r - r**2 - r**3) + a1 * (r + r**2 - r**3 - r**4)
    dn = d2 * (1 - 2 * r - 3 * r**2) + a1 * (1 + 2 * r - 3 * r**2 - 4 * r**3)
    return n, dn


def bloch_root(params) -> Decimal:
    """The critical radius of G in (0, 1), by bisection of the sign of G'."""
    with localcontext(_CONTEXT):
        beta, d2, a1 = _profile_parts(params)
        lo, hi = Decimal(0), _ONE
        while hi - lo > _BISECTION_WIDTH:
            mid = (lo + hi) / 2
            n, dn = _numerator(d2, a1, mid)
            if dn * (1 + beta * mid) - beta * n > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def bloch(params) -> Decimal:
    """((1 + beta)/((2 - alpha) 2^(delta-1))) G(r0) = (1 + beta) G(r0)/d2,
    G = N/(1 + beta r)."""
    r0 = bloch_root(params)
    with localcontext(_CONTEXT):
        beta, d2, a1 = _profile_parts(params)
        n, _ = _numerator(d2, a1, r0)
        return (1 + beta) / d2 * n / (1 + beta * r0)
