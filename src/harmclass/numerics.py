"""Numerical kernels: adaptive quadrature of array integrands, digamma and
Descartes sign variation of a coefficient sequence.

A quadrature call that does not converge within ``_PANEL_BUDGET`` panels
raises QuadratureError, so its work is bounded whatever the integrand.

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

#: Most panels of one ``adaptive_quadrature`` call over all its levels, the
#: starting panels included (as QUADPACK's subinterval limit): at most 3840
#: integrand nodes in at most _DEPTH_LIMIT + 1 calls.
_PANEL_BUDGET = 256


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


def _adaptive_levels(f, lo, hi, tol, depth=0, spent=0) -> np.ndarray:
    """The integrals of ``f`` over the panels [lo[k], hi[k]] to absolute
    tolerances ``tol[k]``, with one call of ``f`` per bisection level on the
    nodes of all its panels.  A panel whose Kronrod error estimate exceeds its
    tolerance is bisected, each half with half the tolerance, and its value is
    the sum of its halves', bit for bit as in the depth-first recursion kept
    in the tests.  With ``spent`` panels on the levels above, a level past
    ``_PANEL_BUDGET`` panels in all, a panel rejected on level
    ``_DEPTH_LIMIT`` or one too narrow to split raises QuadratureError."""
    spent += lo.size
    span = f"[{lo[0]:.17g}, {hi[-1]:.17g}]"
    if spent > _PANEL_BUDGET:
        raise QuadratureError(f"quadrature on {span} needs more than {_PANEL_BUDGET} panels")
    est, err = _gauss_kronrod_level(f, lo, hi)
    split = ~(err <= tol)
    if not split.any():
        return est
    lo, hi, tol = lo[split], hi[split], tol[split]
    mid = 0.5 * (lo + hi)
    if depth >= _DEPTH_LIMIT:
        raise QuadratureError(f"quadrature on {span} did not converge in {_DEPTH_LIMIT} levels")
    if np.any((mid <= lo) | (mid >= hi)):
        raise QuadratureError(f"quadrature on {span} has a panel too narrow to subdivide")
    left = np.stack((lo, mid), axis=1).ravel()
    right = np.stack((mid, hi), axis=1).ravel()
    halves = _adaptive_levels(f, left, right, np.repeat(0.5 * tol, 2), depth + 1, spent)
    est[split] = halves[0::2] + halves[1::2]
    return est


def adaptive_quadrature(
    f: Callable, a: float, b: float, tol: float, breakpoints: Sequence[float] = ()
) -> float:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol`` (see
    ``_adaptive_levels``).  ``f`` maps a 1-d float array to one of the same
    shape.  Failure to converge within ``_DEPTH_LIMIT`` bisection levels or
    256 panels in all (``_PANEL_BUDGET``, at most 3840 integrand nodes)
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


def sign_variations(coeffs: Sequence[float]) -> int:
    """Strict sign changes in the sequence of nonzero coefficients, which must
    all be finite (ValueError otherwise), counted in one pass.  By Descartes'
    rule of signs the count bounds the number of positive roots and matches
    it modulo 2."""
    count, last = 0, 0
    for c in map(float, coeffs):
        if not math.isfinite(c):
            raise ValueError(f"coefficients must be finite, got {[float(c) for c in coeffs]}")
        sign = (c > 0.0) - (c < 0.0)
        if sign:
            count += sign == -last
            last = sign
    return count
