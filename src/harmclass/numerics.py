"""Numerical kernels: adaptive quadrature of array integrands, digamma,
Descartes sign variation of a coefficient sequence, and bisection.

Everything here is deliberately dependency-free and testable in isolation;
the higher-level bound evaluators treat these as trusted primitives.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

__all__ = [
    "adaptive_quadrature",
    "digamma",
    "sign_variations",
    "bisect_bracket",
]

# 15-point Kronrod nodes/weights with the embedded 7-point Gauss rule
# (nodes are symmetric; only the non-negative half is stored).
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.022935322010529224,
    0.06309209262997855,
    0.10479001032225019,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
    0.20948214108472782,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

#: Node offsets of one panel, times its half-width: the centre, then the pair
#: -x_i, +x_i for i = 0..6.
_NODES = np.array([0.0, *(s * x for x in _XGK[:7] for s in (-1.0, 1.0))])

#: Bisection levels after which a panel raises QuadratureError.
_DEPTH_LIMIT = 40

#: Most panels one call of the integrand evaluates in the level-at-a-time driver.
_LEVEL_PANELS = 256


def _kronrod_weights(center, pairs, half) -> tuple:
    """(estimate, error_estimate) from the integrand at the panel centre and
    ``pairs[i] = f(mid - half*x_i) + f(mid + half*x_i)``, i = 0..6; elementwise
    when they and ``half`` are arrays over panels.  The sums run left to right,
    in the order of the nodes."""
    p0, p1, p2, p3, p4, p5, p6 = pairs
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    g0, g1, g2, g3 = _WG
    kronrod = (
        k7 * center + k0 * p0 + k1 * p1 + k2 * p2 + k3 * p3 + k4 * p4 + k5 * p5 + k6 * p6
    ) * half
    gauss = (g3 * center + g0 * p1 + g1 * p3 + g2 * p5) * half
    return kronrod, abs(kronrod - gauss)


def _gauss_kronrod_level(f: Callable, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """(estimates, error_estimates) of one 15-point Kronrod panel on every
    [lo[k], hi[k]], with one call of ``f`` on all their nodes.  A node
    ``mid + half * -x`` is bitwise ``mid - half * x``."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    nodes = mid[:, None] + half[:, None] * _NODES
    fx = np.reshape(f(nodes.ravel()), nodes.shape)
    return _kronrod_weights(fx[:, 0], (fx[:, 1::2] + fx[:, 2::2]).T, half)


def _failure(a, b, err, tol, depth) -> QuadratureError:
    """Why the panel [a, b] at ``depth`` whose error estimate ``err`` exceeds
    ``tol`` cannot be refined."""
    a, b = float(a), float(b)
    if depth >= _DEPTH_LIMIT:
        return QuadratureError(
            f"quadrature on [{a:.17g}, {b:.17g}] did not converge within "
            f"{_DEPTH_LIMIT} subdivision levels (error estimate {err:.3g}, tol {tol:.3g})"
        )
    return QuadratureError(f"quadrature interval [{a:.17g}, {b:.17g}] cannot be subdivided further")


def _adaptive_levels(
    f, lo: np.ndarray, hi: np.ndarray, tol: np.ndarray, depth: int = 0
) -> np.ndarray:
    """The integral of ``f`` over every panel [lo[k], hi[k]] to absolute
    tolerance ``tol[k]``: a panel whose Kronrod error estimate exceeds its
    tolerance is bisected, each half with half the tolerance, and its value is
    the sum of its halves'.  ``f`` is called once per bisection level, on the
    nodes of all its panels (never on none).  The values and the error raised
    equal, bit for bit, those of the depth-first recursion that refines one
    panel at a time (kept in the tests as the reference): it meets a panel
    that cannot be split after the panels on its left, so their refinement
    runs first and that panel's error is raised after it.  A level of more
    than ``_LEVEL_PANELS`` panels is refined chunk by chunk, left to right,
    so an integrand that converges nowhere costs about ``_DEPTH_LIMIT``
    chunks instead of 2**_DEPTH_LIMIT panels.
    """
    if lo.size > _LEVEL_PANELS:
        # halve at a chunk boundary: the chunks run left to right, log2(chunks) deep
        c = _LEVEL_PANELS * -(-lo.size // (2 * _LEVEL_PANELS))
        head = _adaptive_levels(f, lo[:c], hi[:c], tol[:c], depth)
        return np.concatenate((head, _adaptive_levels(f, lo[c:], hi[c:], tol[c:], depth)))
    est, err = _gauss_kronrod_level(f, lo, hi)
    split = ~(err <= tol)
    if not split.any():
        return est
    lo, hi, tol, err = lo[split], hi[split], tol[split], err[split]
    mid = 0.5 * (lo + hi)
    stuck = (mid <= lo) | (mid >= hi) | (depth >= _DEPTH_LIMIT)
    k = int(np.argmax(stuck)) if stuck.any() else lo.size
    if k:
        left = np.stack((lo[:k], mid[:k]), axis=1).ravel()
        right = np.stack((mid[:k], hi[:k]), axis=1).ravel()
        halves = _adaptive_levels(f, left, right, np.repeat(0.5 * tol[:k], 2), depth + 1)
    if k < lo.size:
        raise _failure(lo[k], hi[k], err[k], tol[k], depth)
    est[split] = halves[0::2] + halves[1::2]
    return est


def adaptive_quadrature(
    f: Callable, a: float, b: float, tol: float, breakpoints: Sequence[float] = ()
) -> float:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol`` (see
    ``_adaptive_levels``).  ``f`` maps a 1-d float array to one of the same
    shape.  Failure to converge within ``_DEPTH_LIMIT`` bisection levels
    raises QuadratureError rather than returning a silently degraded estimate.

    The starting panels are [a, b] split at ``breakpoints``, which must
    increase strictly inside (a, b).  Each panel gets the share of ``tol``
    of its width, (hi - lo) / (b - a), which is what bisection gives a
    panel of that width, and the panel values are summed right-nested,
    v_0 + (v_1 + (... + v_n)), as the bisection tree that splits [a, b] and
    then each right half sums them.  So breakpoints that bisection would
    reach by splitting [a, b] and then each right half (1/2, 3/4, ... of
    [0, 1]) leave the value bit for bit as it is, and save the levels that
    would have found them; the depth limit counts from the starting panels.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    edges = np.array([a, *breakpoints, b], dtype=float)
    if len(breakpoints) and not np.all(edges[1:] > edges[:-1]):
        raise ValueError("breakpoints must increase strictly inside (a, b)")
    if b == a:
        return 0.0
    lo, hi = edges[:-1], edges[1:]
    values = _adaptive_levels(f, lo, hi, tol * ((hi - lo) / (b - a)))
    total = values[-1]
    for value in values[-2::-1]:
        total = value + total
    return float(total)


# B_{2k}/(2k) for the asymptotic tail psi(x) = log x - 1/(2x) - sum B_{2k}/(2k x^{2k}).
_PSI_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function for x > 0.

    Shifts the argument up to >= 8 with psi(x) = psi(x+1) - 1/x, then sums
    the asymptotic series; absolute error is below 1e-13 on the shifted range.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError("digamma requires x > 0")
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    power = inv2
    for coef in _PSI_TAIL:
        tail -= coef * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x + tail


def _require_finite(values, what: str) -> None:
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} must be finite, got {list(values)}")


def sign_variations(coeffs: Sequence[float]) -> int:
    """Strict sign changes in the sequence of nonzero coefficients, which must
    all be finite (ValueError otherwise).  By Descartes' rule of signs the
    count bounds the number of positive roots and matches it modulo 2."""
    coeffs = [float(c) for c in coeffs]
    _require_finite(coeffs, "coefficients")
    positive = [c > 0.0 for c in coeffs if c != 0.0]
    return sum(s != t for s, t in zip(positive, positive[1:]))


def bisect_bracket(
    p: Callable[[float], float], a: float, b: float, tol: float
) -> tuple[float, float]:
    """Bisect a sign-changing bracket down to width <= tol.

    Returns the final bracket.  Stops early if the midpoint is no longer
    representable strictly between the endpoints, so tol = 0 drives the
    bracket to floating-point resolution.  A non-finite endpoint, a NaN
    value at an endpoint or a tol that is not >= 0 raises ValueError: none
    of them can be narrowed to a finite bracket.
    """
    _require_finite((a, b), "bracket endpoints")
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    fa = p(a)
    fb = p(b)
    if math.isnan(fa) or math.isnan(fb):
        raise ValueError(f"p is NaN at an endpoint: p({a}) = {fa}, p({b}) = {fb}")
    if fa == 0.0:
        return (a, a)
    if fb == 0.0:
        return (b, b)
    positive_at_a = fa > 0
    if positive_at_a == (fb > 0):
        raise ValueError(f"endpoints do not bracket a root: p({a}) and p({b}) share a sign")
    while b - a > tol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = p(mid)
        if fm == 0.0:
            return (mid, mid)
        if (fm > 0) == positive_at_a:
            a = mid
        else:
            b = mid
    return (a, b)

