"""Data model for the harmonic-map class: parameters, dilatations (Moebius
and constant, both closed forms) and the co-analytic part they produce.

A map is f = h + conj(g) with analytic part h (normalized: h(0) = 0,
h'(0) = 1) and co-analytic part g determined by the dilatation w through
g' = w * h'.  The first co-analytic coefficient satisfies |b1| = |w(0)|.
``harmonic_map`` truncates g for the largest ring any check reads it on.
The half-angle factor of ``dilatation_modulus``, which depends only on
(phi, angle count), and two of its radial factors, which depend only on
(beta, radii, angle count), are kept read-only in two small LRU caches,
which change no value: without the first the ``high_beta`` benchmark
verifies 3.5 % fewer members per second (``BENCH_caches.json``), and
without the second the ``sweep`` benchmark 5.6 % fewer, as each grid call
then takes a 129 KiB numpy iterator buffer (``BENCH_grid_passes.json``).
The Moebius coefficients are formed on each call.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .series import TruncatedSeries, differentiate

__all__ = [
    "ClassParams",
    "DilatationSpec",
    "HarmonicMapSpec",
    "moebius_dilatation",
    "rotation_dilatation",
    "constant_dilatation",
    "dilatation_coeffs",
    "dilatation_modulus",
    "co_analytic_from",
    "harmonic_map",
]

#: Radius of the covering check's circle, the largest on which any check reads g:
#: the order ``harmonic_map`` gives g drops at most ``_REMAINDER`` there.
COVERING_CIRCLE_RADIUS = 0.999

#: What the truncation of g may drop from any value on the covering circle.
_REMAINDER = 2.0**-60

#: Row length of the geometric tail of g in ``co_analytic_from``.
_TAIL_ROW = 128

#: Bound evaluators need delta below this: 2.0 ** delta overflows from here on.
MAX_BOUND_DELTA = 1024

#: Tolerance for exact-identity checks (|b1| = beta, normalization, ...).
IDENT_TOL = 1e-12


@dataclass(frozen=True)
class ClassParams:
    """Class triple: order parameter alpha, |g'(0)| = beta, exponent delta.

    alpha and beta live in [0, 1).  delta is unrestricted at the data level;
    every bound evaluator additionally requires 0 <= delta < ``MAX_BOUND_DELTA``
    (delta >= 0 is the hypothesis shared by all the inequalities this package
    computes; from 1024 on, the scale 2^delta of the bounds overflows a float).
    """

    alpha: float
    beta: float
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if not math.isfinite(self.delta):
            raise ValueError("delta must be finite")

    def require_nonnegative_delta(self) -> None:
        """Raise ValueError unless 0 <= delta < ``MAX_BOUND_DELTA``."""
        if not 0 <= self.delta < MAX_BOUND_DELTA:
            raise ValueError(
                f"delta must be in [0, {MAX_BOUND_DELTA}) for bound evaluation, got {self.delta}"
            )


@dataclass(frozen=True)
class DilatationSpec:
    """Admissible dilatation: |w| < 1 on the disk with |w(0)| = beta.

    kinds:
      * ``moebius``  - w(z) = e^{i mu} (e^{i phi} z + beta) / (1 + beta e^{i phi} z);
        at beta = 0 it is the rotation e^{i(mu + phi)} z
      * ``constant`` - w(z) = beta e^{i mu}, so g = beta e^{i mu} h; at beta = 0
        it gives the analytic members.  It has no phi (which must be 0).

    Both are admissible for every beta in [0, 1) and finite mu and phi.
    """

    kind: str
    beta: float
    mu: float = 0.0
    phi: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("moebius", "constant"):
            raise ValueError(f"unknown dilatation kind {self.kind!r}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must be in [0, 1)")
        if not (math.isfinite(self.mu) and math.isfinite(self.phi)):
            raise ValueError(f"mu and phi must be finite, got {self.mu} and {self.phi}")
        if self.kind == "constant" and self.phi != 0.0:
            raise ValueError("a constant dilatation has no phi: it must be 0")


def moebius_dilatation(beta: float, mu: float = 0.0, phi: float = 0.0) -> DilatationSpec:
    return DilatationSpec(kind="moebius", beta=beta, mu=mu, phi=phi)


def rotation_dilatation(mu: float = 0.0, phi: float = 0.0) -> DilatationSpec:
    """The disk rotation w(z) = e^{i(mu + phi)} z: the Moebius kind at beta = 0."""
    return moebius_dilatation(0.0, mu, phi)


def constant_dilatation(beta: float, mu: float = 0.0) -> DilatationSpec:
    """The constant w(z) = beta e^{i mu}; at beta = 0 the member is analytic."""
    return DilatationSpec(kind="constant", beta=beta, mu=mu)


def dilatation_coeffs(w: DilatationSpec, order: int) -> TruncatedSeries:
    """Power-series coefficients of the dilatation, truncated at ``order``.

    Both kinds have c0 = e^{i mu} beta.  For the Moebius kind the geometric
    expansion gives c_n = e^{i mu} e^{i n phi} (1 - beta^2)(-beta)^{n-1} for
    n >= 1, which realizes |c1| = 1 - |c0|^2 (the largest value the
    Schwarz-Pick coefficient inequality allows); the constant kind has c_n = 0.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs = np.zeros(order + 1, dtype=complex)
    beta = w.beta
    coeffs[0] = beta * np.exp(1j * w.mu)
    if w.kind == "moebius" and order >= 1:
        n = np.arange(1, order + 1)
        # (-beta)^(n-1) as a sign times beta^(n-1): a negative base is ~15x slower
        sign = np.where(n % 2 == 1, 1.0, -1.0)
        coeffs[1:] = (
            np.exp(1j * w.mu) * np.exp(1j * n * w.phi) * (1.0 - beta * beta)
            * sign * beta ** (n - 1)
        )
    return TruncatedSeries(coeffs)


def dilatation_modulus(
    w: DilatationSpec, radii, n_angles: int, out=None, scratch=None
) -> np.ndarray:
    """|w| on polar rings: ``out[i, k] = |w(radii[i] * exp(2j*pi*k/n_angles))|``,
    the layout of ``series.evaluate_polar``.

    For the Moebius kind, with t = theta + phi and q = 4 beta r cos^2(t/2),

        |w|^2 = ((r - beta)^2 + q) / ((1 - beta r)^2 + q),

    real arithmetic on one cosine per angle; mu drops out.  Both sums add
    non-negative terms, so nothing cancels near the zero of w (r = beta,
    t = pi), where the form r^2 + beta^2 + 2 beta r cos t loses up to half
    its digits; 1 - beta r is summed as (1 - beta) + beta (1 - r), which
    does not cancel near the pole either.  Against an exact evaluation at
    the same (r, theta, phi) it errs by about an ulp, where the complex form
    |(u + beta) / (1 + beta u)|, u = e^{i phi} z, errs by up to 1.2e-14 at
    beta = 0.99.  At beta = 0 it returns r exactly.  The constant kind is
    beta everywhere.

    The radial factors 4 beta r and ((1 - beta) + beta (1 - r))^2 are read
    as full (rings, M) arrays from ``_ring_factors``; the half-angle row is
    copied into ``scratch`` and the column (r - beta)^2 into ``out``.  Every
    product and sum then runs in place on contiguous operands of one shape,
    so numpy needs no iterator buffer (a broadcast copy needs none either),
    and the bits are those of the broadcast form.
    The values are written into ``out``, a float (rings, M) array, which is
    returned; the Moebius kind forms its denominator in ``scratch``, an array
    of the same shape.  Either is allocated when not given.
    """
    radii = np.asarray(radii, dtype=float)
    m = int(n_angles)
    if radii.ndim != 1 or m < 1:
        raise ValueError("need a 1-d array of radii and n_angles >= 1")
    if out is None:
        out = np.empty((radii.size, m))
    elif out.shape != (radii.size, m) or out.dtype != float:
        raise ValueError("out must be a float array of shape (rings, n_angles)")
    if w.kind == "constant":
        out.fill(w.beta)
        return out
    beta, r = w.beta, radii[:, None]
    scale, denominator = _ring_factors(beta, radii.tobytes(), m)
    q = np.empty_like(out) if scratch is None else scratch
    q[:] = _half_angle_cos2(float(w.phi), m)
    q *= scale
    out[:] = (r - beta) ** 2
    out += q
    q += denominator
    out /= q
    return np.sqrt(out, out=out)


@lru_cache(maxsize=4)
def _ring_factors(beta: float, radii: bytes, m: int) -> tuple:
    """Read-only 4 beta r and ((1 - beta) + beta (1 - r))^2 for the float64
    radii packed in ``radii``, each repeated along the rows of a full
    (rings, m) array, for the 4 most recently used (beta, rings, m): the grid
    of a member, and its area rings from beta 0.8 on (128 KiB on the default
    grid)."""
    r = np.frombuffer(radii)[:, None]
    factors = tuple(
        np.repeat(column, m, axis=1)
        for column in ((4.0 * beta) * r, ((1.0 - beta) + beta * (1.0 - r)) ** 2)
    )
    for factor in factors:
        factor.setflags(write=False)
    return factors


@lru_cache(maxsize=8)
def _half_angle_cos2(phi: float, m: int) -> np.ndarray:
    """Read-only cos^2((theta + phi)/2) at theta = 2 pi k/m for the 8 most
    recently used (phi, m): one per member, shared by its grid and area rings."""
    # t/2 = theta/2 + phi/2 is the rounded sum s plus its exact rounding error
    # e (Knuth's two-sum), and cos(s + e) = cos(s) - e sin(s) to within e^2:
    # taking cos(s) alone would move |w| by up to 1e-14 at beta = 0.99
    a, b = np.pi * np.arange(m) / m, 0.5 * phi
    s = a + b
    v = s - a
    e = (a - (s - v)) + (b - v)
    cos2 = (np.cos(s) - e * np.sin(s)) ** 2
    cos2.setflags(write=False)
    return cos2


def co_analytic_from(h: TruncatedSeries, w: DilatationSpec, order: int) -> TruncatedSeries:
    """Co-analytic coefficients from g' = w h':

        n b_n = sum_{k=0}^{n-1} (k+1) a_{k+1} c_{n-1-k},   b_0 = 0.

    That gives the head b_1..b_{D+1}, D = deg h'.  Past it, as c_m = c_1 q^(m-1),
    q = -beta e^{i phi} (Moebius), n b_n = S c_{n-D-1} with S = sum_k (k+1)
    a_{k+1} q^(D-k): a geometric tail T q^(n-D-2), T = S c_1, in O(order), in
    rows of M = ``_TAIL_ROW``: S c_1..S c_M, then that row times (q^M)^k.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not h.is_normalized():
        raise ValueError("analytic part must be normalized (a0 = 0, a1 = 1)")
    hp = differentiate(h).coeffs
    d = hp.size - 1
    c = dilatation_coeffs(w, min(order - 1, d + 1 + _TAIL_ROW)).coeffs
    b = np.zeros(order + 1, dtype=complex)
    # c[: d + 2] is longer than hp, so np.convolve sums each head entry as on the full c
    b[1 : d + 2] = np.convolve(hp, c[: d + 2])[: min(order, d + 1)]
    if w.kind == "moebius" and order > d + 1:
        q, s = -w.beta * complex(np.exp(1j * w.phi)), 0j
        for p in hp.tolist():  # Horner for S, on Python complex scalars
            s = s * q + p
        n = order - d - 1
        row = s * c[1 : min(n, _TAIL_ROW) + 1]
        qm = (-w.beta) ** _TAIL_ROW * complex(np.exp(1j * _TAIL_ROW * w.phi))
        powers = np.multiply.accumulate(np.full(-(-n // row.size) - 1, qm))  # (q^M)^k, k >= 1
        b[d + 2 :] = np.concatenate((row, (powers[:, None] * row).ravel()))[:n]
    b[1:] /= np.arange(1, order + 1)
    return TruncatedSeries(b)


def _g_order(h: TruncatedSeries, w: DilatationSpec) -> int:
    """The order of g: h.order + 1 (exact) for a constant w, and for a Moebius
    w the least N >= h.order + 1 with |T| x^(N-D-1) / ((N+1)(1 - x)) <= 2^-60,
    x = beta COVERING_CIRCLE_RADIUS, which bounds what g beyond N adds there
    for |T| <= (1 - beta^2) max(2, sum n |a_n|): one N for every certified h.
    Bisection finds it below the N at which the bound without 1/(N+1) holds.
    """
    n_min = h.order + 1
    x = w.beta * COVERING_CIRCLE_RADIUS
    if w.kind == "constant" or x == 0.0:
        return n_min
    s = float(np.abs(differentiate(h).coeffs).sum())
    if not math.isfinite(s):
        raise ValueError("sum n |a_n| of the analytic part must be finite")
    t = (1.0 - w.beta * w.beta) * max(2.0, s)
    k = math.ceil((math.log(t) - math.log1p(-x) - math.log(_REMAINDER)) / -math.log(x))
    return n_min + bisect.bisect_left(
        range(n_min, n_min + max(1, k)), True,
        key=lambda n: t * x ** (n - n_min + 1) / ((n + 1) * (1.0 - x)) <= _REMAINDER,
    )


@dataclass(frozen=True)
class HarmonicMapSpec:
    """A class member: analytic part, dilatation, derived co-analytic part."""

    h: TruncatedSeries
    w: DilatationSpec
    g: TruncatedSeries

    def __post_init__(self) -> None:
        if self.g.order < 1:
            raise ValueError("co-analytic part must carry at least b1")
        if not abs(abs(self.g.coeffs[1]) - self.w.beta) <= IDENT_TOL:
            raise ValueError("|b1| must equal the dilatation beta")


def harmonic_map(h: TruncatedSeries, w: DilatationSpec) -> HarmonicMapSpec:
    """Assemble a HarmonicMapSpec, deriving g at the order of ``_g_order``.

    No membership certificate is checked here; see the factory module for the
    certified constructor.
    """
    return HarmonicMapSpec(h=h, w=w, g=co_analytic_from(h, w, _g_order(h, w)))
