"""Data model for the harmonic-map class: parameters, dilatations and the
coefficient convolution that produces the co-analytic part.

A map is f = h + conj(g) with analytic part h (normalized: h(0) = 0,
h'(0) = 1) and co-analytic part g determined by the dilatation w through
g' = w * h'.  The first co-analytic coefficient satisfies |b1| = |w(0)|.
Factors that depend only on (beta, order) or on (phi, angle count) are kept
read-only in small LRU caches, which change no value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .series import TruncatedSeries, differentiate, evaluate_polar

__all__ = [
    "ClassParams",
    "DilatationSpec",
    "HarmonicMapSpec",
    "moebius_dilatation",
    "rotation_dilatation",
    "custom_dilatation",
    "default_truncation_order",
    "dilatation_coeffs",
    "dilatation_modulus",
    "co_analytic_from",
    "harmonic_map",
]

#: Tail target for the automatic dilatation truncation order.
COEFF_TAIL_TARGET = 1e-12

#: Largest automatic truncation order (terms per series).
MAX_TRUNCATION_ORDER = 10**6

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


def default_truncation_order(beta: float) -> int:
    """Truncation order keeping the dilatation coefficient tail below 1e-12.

    The geometric tail sum_{n>N} |c_n| = (1-beta^2) beta^N / (1-beta) is
    solved for N; the result is floored at 64 so small-beta series keep a
    comfortable default resolution.  An order above ``MAX_TRUNCATION_ORDER``
    (beta above about 0.99997) raises ValueError instead of asking for arrays
    that do not fit in memory.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must be in [0, 1)")
    if beta == 0.0:
        return 64
    n = math.log(COEFF_TAIL_TARGET * (1.0 - beta) / (1.0 - beta * beta)) / math.log(beta)
    if n > MAX_TRUNCATION_ORDER:
        raise ValueError(
            f"beta = {beta!r} needs {n:.3g} series terms, above the cap of "
            f"{MAX_TRUNCATION_ORDER}"
        )
    return max(64, int(math.ceil(n)))


@dataclass(frozen=True)
class DilatationSpec:
    """Admissible dilatation: |w| < 1 on the disk with |w(0)| = beta.

    kinds:
      * ``moebius`` - w(z) = e^{i mu} (e^{i phi} z + beta) / (1 + beta e^{i phi} z);
        at beta = 0 it is the rotation e^{i(mu + phi)} z
      * ``custom``  - an explicit truncated series
    """

    kind: str
    beta: float
    mu: float = 0.0
    phi: float = 0.0
    series: Optional[TruncatedSeries] = field(default=None)

    def __post_init__(self) -> None:
        if self.kind not in ("moebius", "custom"):
            raise ValueError(f"unknown dilatation kind {self.kind!r}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must be in [0, 1)")
        if self.kind == "custom":
            if self.series is None:
                raise ValueError("custom dilatation requires a series")
        elif self.series is not None:
            raise ValueError("series is only meaningful for the custom kind")


def moebius_dilatation(beta: float, mu: float = 0.0, phi: float = 0.0) -> DilatationSpec:
    return DilatationSpec(kind="moebius", beta=beta, mu=mu, phi=phi)


def rotation_dilatation(mu: float = 0.0, phi: float = 0.0) -> DilatationSpec:
    """The disk rotation w(z) = e^{i(mu + phi)} z: the Moebius kind at beta = 0."""
    return moebius_dilatation(0.0, mu, phi)


def custom_dilatation(series: TruncatedSeries, beta: float) -> DilatationSpec:
    """Wrap an explicit series, checking |c0| = beta and |w| < 1 on a grid.

    The modulus check samples |z| <= 0.999; it is a necessary screen, not a
    proof of admissibility on the open disk.  Non-finite coefficients raise.
    """
    if not np.all(np.isfinite(series.coeffs)):
        raise ValueError("custom dilatation coefficients must be finite")
    if abs(abs(series.coeffs[0]) - beta) > IDENT_TOL:
        raise ValueError("custom dilatation must have |c0| = beta")
    w = DilatationSpec(kind="custom", beta=beta, series=series)
    if not dilatation_modulus(w, np.linspace(0.1, 0.999, 10), 64).max() < 1.0:
        raise ValueError("custom dilatation reaches modulus >= 1 inside the disk")
    return w


def dilatation_coeffs(w: DilatationSpec, order: int) -> TruncatedSeries:
    """Power-series coefficients of the dilatation, truncated at ``order``.

    For the Moebius kind the geometric expansion gives c0 = e^{i mu} beta and
    c_n = e^{i mu} e^{i n phi} (1 - beta^2)(-beta)^{n-1} for n >= 1, which
    realizes |c1| = 1 - |c0|^2 (the largest value the Schwarz-Pick coefficient
    inequality allows).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if w.kind == "custom":
        coeffs = np.zeros(order + 1, dtype=complex)
        take = min(order, w.series.order) + 1
        coeffs[:take] = w.series.coeffs[:take]
        return TruncatedSeries(coeffs)
    coeffs = np.zeros(order + 1, dtype=complex)
    beta = w.beta
    coeffs[0] = beta * np.exp(1j * w.mu)
    if order >= 1:
        # beta = -0.0 would share the entry of 0.0, but not the signs of its powers
        factors = _geometric_factors if beta else _geometric_factors.__wrapped__
        n, sign, powers = factors(beta, order)
        coeffs[1:] = (
            np.exp(1j * w.mu) * np.exp(1j * n * w.phi) * (1.0 - beta * beta) * sign * powers
        )
    return TruncatedSeries(coeffs)


@lru_cache(maxsize=8)
def _geometric_factors(beta: float, order: int) -> tuple:
    """Read-only n = 1..order, the sign of (-1)^(n-1) and beta^(n-1) for the
    Moebius coefficients, kept for the 8 most recently used (beta, order)."""
    n = np.arange(1, order + 1)
    # (-beta)^(n-1) as a sign times beta^(n-1): a negative base is ~15x slower
    factors = n, np.where(n % 2 == 1, 1.0, -1.0), beta ** (n - 1)
    for a in factors:
        a.setflags(write=False)
    return factors


def dilatation_modulus(w: DilatationSpec, radii, n_angles: int) -> np.ndarray:
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
    beta = 0.99.  At beta = 0 it returns r exactly.  The custom kind takes
    the modulus of its series on the rings.
    """
    radii = np.asarray(radii, dtype=float)
    if w.kind == "custom":
        return np.abs(evaluate_polar(w.series, radii, n_angles))
    m = int(n_angles)
    if radii.ndim != 1 or m < 1:
        raise ValueError("need a 1-d array of radii and n_angles >= 1")
    beta, r = w.beta, radii[:, None]
    q = (4.0 * beta) * r * _half_angle_cos2(float(w.phi), m)
    out = (r - beta) ** 2 + q
    out /= ((1.0 - beta) + beta * (1.0 - r)) ** 2 + q
    return np.sqrt(out, out=out)


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
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not h.is_normalized():
        raise ValueError("analytic part must be normalized (a0 = 0, a1 = 1)")
    hp = differentiate(h).coeffs
    c = dilatation_coeffs(w, order - 1).coeffs
    gp = np.convolve(hp, c)[:order]
    b = np.zeros(order + 1, dtype=complex)
    b[1:] = gp / np.arange(1, order + 1)
    return TruncatedSeries(b)


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
    """Assemble a HarmonicMapSpec, deriving g at a tail-controlled order.

    No membership certificate is checked here; see the factory module for the
    certified constructor.
    """
    order = max(h.order + 1, default_truncation_order(w.beta))
    return HarmonicMapSpec(h=h, w=w, g=co_analytic_from(h, w, order))
