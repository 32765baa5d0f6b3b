"""A 50-digit oracle for the bounds of ``harmclass.bounds``, in Python's
``decimal``, written from the integrands, the envelopes, the coefficient
estimate and the profile rather than from the package's formulas.

Every radial integral is int_0^r P(x)/(1 + t x)^m dx for a polynomial P and
m = 1 or 2, which x = r y turns into r sum_j p_j r^j mu_j(t r), with the
moments mu_j(s) = int_0^1 y^j/(1 + s y)^m dy: the power series in s for
|s| <= 1/2, else upward from mu_0 = ln(1 + s)/s (m = 1) or 1/(1 + s)
(m = 2).  The area's integrand is expanded into P by polynomial products.
A member's area is its coefficient sum pi sum n (|a_n|^2 - |b_n|^2).
The stated lower form of |g| is the paper's closed expression |F| over
2^delta (2-alpha) beta^3, at twice the precision: the terms of F, of order
r beta, cancel down to beta^3 times the form.  The Bloch critical radius is
the bisection, down to 1e-45, of the numerator N'(r)(1 + beta r) - beta N(r)
of the derivative of the profile G = N/(1 + beta r).  Each function takes floats (``coefficient_area`` two
sequences of complex coefficients) and returns a ``Decimal``, ``bn`` a
tuple of them and ``envelopes`` a dict of (lower, upper) pairs.
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
def _moments(s: Decimal, n: int, m: int = 1) -> tuple:
    """mu_j(s) = int_0^1 y^j/(1 + s y)^m dy, j = 0..n-1, m = 1 or 2.  The
    series: 1/(1 + s y)^m = sum_i c_i (-s y)^i, c_i = 1 for m = 1 and i + 1
    for m = 2.  Upward: y/(1 + s y)^m = (1/(1 + s y)^(m-1) - 1/(1 + s y)^m)/s."""
    if abs(s) <= _HALF:
        sums = [Decimal(0)] * n
        power, i = _ONE, 0
        while abs(power) * (i + 1) > _SERIES_CUTOFF:
            term = power * (i + 1 if m == 2 else 1)
            for j in range(n):
                sums[j] += term / (i + j + 1)
            power, i = -power * s, i + 1
        return tuple(sums)
    if m == 1:
        mu = [(1 + s).ln() / s]
        for j in range(n - 1):
            mu.append((_ONE / (j + 1) - mu[j]) / s)
        return tuple(mu)
    lower = _moments(s, n, 1)
    mu = [1 / (1 + s)]
    for j in range(n - 1):
        mu.append((lower[j] - mu[j]) / s)
    return tuple(mu)


def moments(t: float, n: int, squared: bool) -> tuple:
    """int_0^1 y^k/(1 + t y)^m dy, k = 0..n-1, m = 2 if ``squared`` else 1."""
    with localcontext(_CONTEXT):
        return _moments(Decimal(t), n, 2 if squared else 1)


def _integral(poly, t: Decimal, r: Decimal, m: int = 1) -> Decimal:
    """int_0^r P(x)/(1 + t x)^m dx, P with the ascending coefficients ``poly``."""
    total, power = Decimal(0), r
    for p, mu in zip(poly, _moments(t * r, len(poly), m)):
        total += p * power * mu
        power *= r
    return total


def _times(p, q):
    """The ascending coefficients of the product of two polynomials."""
    out = [Decimal(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def bn(params, n_top: int) -> tuple:
    """The |b_n| bounds n = 2..n_top: (1 - beta^2)/2 + (1-alpha) beta/(2^delta
    (2-alpha)) at n = 2, and for n >= 3 the convolution estimate
    (1-alpha)(1-beta^2)/n sum_{k<n} k^(1-delta)/(k-alpha)
    + (1-alpha) beta/(n^delta (n-alpha))."""
    with localcontext(_CONTEXT):
        alpha, beta, _ = _decimals(params)
        delta = Decimal(params.delta)
        out = [(1 - beta * beta) / 2 + (1 - alpha) * beta / (_TWO**delta * (2 - alpha))]
        terms = [Decimal(k) ** (1 - delta) / (k - alpha) for k in range(1, n_top)]
        for n in range(3, n_top + 1):
            last = (1 - alpha) * beta / (Decimal(n) ** delta * (n - alpha))
            out.append((1 - alpha) * (1 - beta * beta) / n * sum(terms[: n - 1]) + last)
        return tuple(out)


def envelopes(params, r: float) -> dict:
    """The (lower, upper) sides at radius r of |h'| (1 -+ c r), of |w|
    (|beta - r|/(1 - beta r), (beta + r)/(1 + beta r)) and of |g'|, the
    product of the matching sides."""
    with localcontext(_CONTEXT):
        _, beta, c = _decimals(params)
        r = Decimal(r)
        h = (1 - c * r, 1 + c * r)
        w = (abs(beta - r) / (1 - beta * r), (beta + r) / (1 + beta * r))
        return {"hprime": h, "w": w, "gprime": (w[0] * h[0], w[1] * h[1])}


def area(params, sign: int) -> Decimal:
    """2 pi int_0^1 r (1 + sign c r)^2 (1 - ((beta - sign r)/(1 - sign beta r))^2) dr,
    the numerator of 1 - (.)^2 over (1 - sign beta r)^2 expanded:
    sign = -1 the lower side, +1 the upper."""
    with localcontext(_CONTEXT):
        _, beta, c = _decimals(params)
        den = (_ONE, -sign * beta)
        num = (beta, -sign * _ONE)
        jac = [a - b for a, b in zip(_times(den, den), _times(num, num))]
        stretch = _times((_ONE, sign * c), (_ONE, sign * c))
        poly = _times(_times((Decimal(0), _ONE), stretch), jac)
        return 2 * _pi() * _integral(poly, -sign * beta, _ONE, 2)


def coefficient_area(h, g) -> Decimal:
    """pi sum_n n (|a_n|^2 - |b_n|^2), the Jacobian integral of h + conj(g)
    over the disk, from the complex coefficients a_n of ``h`` and b_n of ``g``
    (sequences indexed by n), each taken exactly from its float parts."""
    with localcontext(_CONTEXT):
        total = Decimal(0)
        for sign, coeffs in ((1, h), (-1, g)):
            for n, c in enumerate(coeffs):
                total += sign * n * (Decimal(c.real) ** 2 + Decimal(c.imag) ** 2)
        return _pi() * total


@lru_cache(maxsize=None)
def _pi() -> Decimal:
    """pi to 50 digits, by Machin's formula."""

    def arctan_inverse(x):
        total, power, k = Decimal(0), _ONE / x, 0
        while power > _SERIES_CUTOFF:
            total += (-1) ** k * power / (2 * k + 1)
            power, k = power / (x * x), k + 1
        return total

    with localcontext(_CONTEXT):
        return 4 * (4 * arctan_inverse(5) - arctan_inverse(239))


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


def g_stated_lower(params, r: float) -> Decimal:
    """The stated |g| lower form |F| / (2^delta (2-alpha) beta^3), with
    F = r beta ((1-alpha)(2 + (r - 2 beta) beta) - D beta)
        + (2 (1-alpha) - D beta)(1 - beta^2) ln(1 - r beta),
    D = 2^delta (2-alpha); at beta = 0 its limit r^2/2 - c r^3/3."""
    with localcontext(Context(prec=2 * PRECISION)):
        alpha, beta, c = _decimals(params)
        r = Decimal(r)
        if beta == 0:
            return r * r / 2 - c * r**3 / 3
        d = _TWO ** Decimal(params.delta) * (2 - alpha)
        a1 = 1 - alpha
        log = (1 - r * beta).ln()
        f = r * beta * (a1 * (2 + (r - 2 * beta) * beta) - d * beta) + (2 * a1 - d * beta) * (
            1 - beta * beta
        ) * log
        return abs(f) / (d * beta**3)


def f_upper(params, r: float) -> Decimal:
    """int_0^r of the |h'| upper side plus the |g'| upper side,
    (1 + c x)(1 + (beta + x)/(1 + beta x)) = (1 + c x)(1 + beta)(1 + x)/(1 + beta x)."""
    with localcontext(_CONTEXT):
        _, beta, c = _decimals(params)
        poly = _times((_ONE, c), ((1 + beta), (1 + beta)))
        return _integral(poly, beta, Decimal(r))


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
