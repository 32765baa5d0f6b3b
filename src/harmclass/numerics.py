"""Numerical kernels: adaptive and cumulative quadrature, digamma, real
polynomials, Descartes sign variation, interval variation counts and bisection.

Everything here is deliberately dependency-free and testable in isolation;
the higher-level bound evaluators treat these as trusted primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

__all__ = [
    "Polynomial",
    "adaptive_quadrature",
    "cumulative_quadrature",
    "digamma",
    "sign_variations",
    "vincent_variation_count",
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


def _gauss_kronrod_15(f: Callable, a: float, b: float) -> tuple:
    """One 15-point Kronrod panel on [a, b] with scalar calls of ``f``;
    returns (estimate, error_estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    center = f(mid)
    pairs = []
    for x in _XGK[:7]:
        dx = half * x
        pairs.append(f(mid - dx) + f(mid + dx))
    return _kronrod_weights(center, pairs, half)


def _gauss_kronrod_level(f: Callable, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """``_gauss_kronrod_15`` on every panel [lo[k], hi[k]] with one call of
    ``f`` on all their nodes.  ``mid + half * -x`` is bitwise ``mid - half * x``,
    so each node, value and estimate equals the scalar panel's."""
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


def _adaptive_panel(f, a, b, tol, depth) -> float:
    est, err = _gauss_kronrod_15(f, a, b)
    if err <= tol:
        return est
    mid = 0.5 * (a + b)
    if depth >= _DEPTH_LIMIT or mid <= a or mid >= b:
        raise _failure(a, b, err, tol, depth)
    half_tol = 0.5 * tol
    return _adaptive_panel(f, a, mid, half_tol, depth + 1) + _adaptive_panel(
        f, mid, b, half_tol, depth + 1
    )


def _adaptive_levels(
    f, lo: np.ndarray, hi: np.ndarray, tol: np.ndarray, depth: int = 0
) -> np.ndarray:
    """``_adaptive_panel(f, lo[k], hi[k], tol[k], depth)`` for every k, bit for
    bit, with one call of ``f`` per bisection level on the nodes of all its
    panels.

    Each level keeps its estimates and which panels it split; the children of
    the split panels, in order, form the next level.  The first level that
    accepts all its panels is the last one: its estimates are the values,
    and every split panel above it becomes ``left + right``, from the
    deepest level up.  A panel that cannot be split ends the refinement to
    its right: the recursion, depth first and left first, raises for the
    leftmost one, also when a later level accepts every panel it has left.
    A level of more than ``_LEVEL_PANELS`` panels is finished chunk by chunk,
    left to right, so an integrand that converges nowhere costs about
    ``_DEPTH_LIMIT`` chunks instead of 2**_DEPTH_LIMIT panels.
    """
    levels, failure = [], None
    while 0 < lo.size <= _LEVEL_PANELS:
        est, err = _gauss_kronrod_level(f, lo, hi)
        split = ~(err <= tol)
        if not split.any():
            value = est
            break
        levels.append((est, split))
        lo, hi, tol, err = lo[split], hi[split], tol[split], err[split]
        mid = 0.5 * (lo + hi)
        stuck = (mid <= lo) | (mid >= hi) | (depth >= _DEPTH_LIMIT)
        if stuck.any():
            k = int(np.argmax(stuck))
            failure = _failure(lo[k], hi[k], err[k], tol[k], depth)
            lo, hi, tol, mid = lo[:k], hi[:k], tol[:k], mid[:k]
        lo, hi = np.stack((lo, mid), axis=1).ravel(), np.stack((mid, hi), axis=1).ravel()
        tol = np.repeat(0.5 * tol, 2)
        depth += 1
    else:
        chunks = [slice(i, i + _LEVEL_PANELS) for i in range(0, lo.size, _LEVEL_PANELS)]
        value = np.concatenate(
            [np.empty(0), *(_adaptive_levels(f, lo[c], hi[c], tol[c], depth) for c in chunks)]
        )
    if failure is not None:
        raise failure
    for est, split in reversed(levels):
        est[split] = value[0::2] + value[1::2]
        value = est
    return value


def adaptive_quadrature(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
) -> float:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    The interval is split at the supplied interior breakpoints first (known
    kinks), then each panel is refined adaptively with the 15-point Kronrod
    rule, calling ``f`` with one float at a time.  Failure to converge within
    ``_DEPTH_LIMIT`` bisection levels raises QuadratureError rather than
    returning a silently degraded estimate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if b == a:
        return 0.0
    cuts = sorted({float(x) for x in breakpoints if a < x < b})
    edges = [a, *cuts, b]
    total = b - a
    result = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        result += _adaptive_panel(f, lo, hi, tol * (hi - lo) / total, 0)
    return result


def cumulative_quadrature(
    f: Callable, points, tol: float, breakpoints: Sequence[float] = ()
) -> np.ndarray:
    """Integrals of ``f`` from 0 to each of the strictly increasing ``points``,
    bit for bit the running sum of ``adaptive_quadrature(f, lo, hi, tol,
    breakpoints)`` over [0, points[0]], [points[0], points[1]], ...

    ``f`` takes a 1-d float array and returns an array of the same shape.  It
    is called once per bisection level, on the nodes of every panel of that
    level, whichever interval the panel belongs to (at most ``_LEVEL_PANELS``
    panels per call)."""
    points = np.asarray(points, dtype=float)
    if tol <= 0 or points.ndim != 1 or points.size == 0:
        raise ValueError("need tol > 0 and a non-empty 1-d sequence of points")
    starts = np.concatenate(([0.0], points[:-1]))
    if not np.all(points > starts):
        raise ValueError("points must increase strictly from 0")
    cuts = {float(x) for x in breakpoints if 0.0 < x < points[-1]} - set(points.tolist())
    edges = np.sort(np.concatenate(([0.0], points, sorted(cuts))))
    lo, hi = edges[:-1], edges[1:]
    owner = np.searchsorted(points, hi)
    share = tol * (hi - lo) / (points[owner] - starts[owner])
    per_interval = np.zeros(points.size)
    np.add.at(per_interval, owner, _adaptive_levels(f, lo, hi, share))
    return np.cumsum(per_interval)


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


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with ascending coefficients.

    Trailing zero coefficients are tolerated on input (degenerate storage);
    ``degree`` is the index of the last exactly-nonzero entry (0 for the zero
    polynomial).  Both it and the Horner coefficients, highest degree first
    as Python floats, are fixed at construction.
    """

    coeffs: np.ndarray
    degree: int = field(init=False)
    _horner: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, coeffs) -> None:
        arr = np.asarray(coeffs, dtype=float).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        arr.setflags(write=False)
        nz = np.nonzero(arr)[0]
        degree = int(nz[-1]) if nz.size else 0
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_horner", tuple(arr[degree::-1].tolist()))

    def __call__(self, x: float) -> float:
        """p(x) by Horner's rule in plain floats.  The trailing zeros are left
        out: at a finite x they would add exact zeros only."""
        coeffs = iter(self._horner)
        val = next(coeffs)
        for c in coeffs:
            val = val * x + c
        return val


def _require_finite(values, what: str) -> None:
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} must be finite, got {list(values)}")


def sign_variations(p: Polynomial | Sequence[float]) -> int:
    """Strict sign changes in the sequence of nonzero coefficients, which must
    all be finite (ValueError otherwise)."""
    coeffs = p.coeffs.tolist() if isinstance(p, Polynomial) else [float(c) for c in p]
    _require_finite(coeffs, "coefficients")
    return _sign_changes(coeffs)


def _sign_changes(coeffs: list[float]) -> int:
    positive = [c > 0.0 for c in coeffs if c != 0.0]
    return sum(s != t for s, t in zip(positive, positive[1:]))


def vincent_variation_count(p: Polynomial, a: float, b: float) -> int:
    """Sign variations of (1+x)^n * p((a + b x)/(1 + x)), n = ``p.degree``.

    The count bounds the number of roots of ``p`` in (a, b) and matches it
    modulo 2.  The transformed coefficients are the sums over i of
    c_i (a + b x)^i (1 + x)^(n-i), built by convolution in plain floats,
    never by sampling.  The binomial rows are exact, but the products and
    sums round: a transformed coefficient within rounding of zero can take
    either sign and change the count, so callers that need exactly one root
    must treat any other count as a failure, not refine through it.  (Built
    with ``numpy.convolve``, whose dot products may fuse multiply-adds, a
    coefficient can differ in the last bit.)  The endpoints and the
    coefficients must be finite, and so must every transformed coefficient
    (ValueError otherwise).
    """
    _require_finite((a, b), "interval endpoints")
    if not 0 <= a < b:
        raise ValueError("interval must satisfy 0 <= a < b")
    n = p.degree
    coeffs = p.coeffs[: n + 1].tolist()
    _require_finite(coeffs, "coefficients")
    acc = [0.0] * (n + 1)
    lin_pow = [1.0]  # (a + b x)^i, updated incrementally
    for i, ci in enumerate(coeffs):
        if ci != 0.0:
            for k, t in enumerate(_convolve(lin_pow, _binomial_row(n - i))):
                acc[k] += ci * t
        if i < n:
            lin_pow = _convolve(lin_pow, (a, b))
    if not all(map(math.isfinite, acc)):
        raise ValueError(f"the transformed coefficients overflow on ({a}, {b}): {acc}")
    return _sign_changes(acc)


def _convolve(u: Sequence[float], v: Sequence[float]) -> list[float]:
    """Coefficients of the product of the polynomials with ascending
    coefficients ``u`` and ``v``; each sum runs over the index into ``u``."""
    out = [0.0] * (len(u) + len(v) - 1)
    for j, x in enumerate(u):
        for k, y in enumerate(v, j):
            out[k] += x * y
    return out


def _binomial_row(m: int) -> list[float]:
    """The coefficients of (1 + x)^m, exact while ``row[-1] * m`` stays below 2**53."""
    row = [1.0]
    for k in range(1, m + 1):
        row.append(row[-1] * (m - k + 1) / k)
    return row


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

