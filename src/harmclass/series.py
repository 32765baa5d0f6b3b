"""Truncated complex power series on the unit disk.

A series is a finite coefficient vector: index n holds the coefficient of
z**n.  All operations are pure; the coefficient buffer is frozen after
construction so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TruncatedSeries",
    "differentiate",
    "cauchy_product",
    "evaluate",
    "evaluate_polar",
    "lincomb",
    "series_to_json",
    "series_from_json",
]


@dataclass(frozen=True)
class TruncatedSeries:
    """Finite complex coefficient vector; ``order`` is the highest power kept."""

    coeffs: np.ndarray = field()

    def __init__(self, coeffs) -> None:
        arr = np.asarray(coeffs, dtype=complex).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def is_normalized(self) -> bool:
        """True when coeff[0] = 0 and coeff[1] = 1 to within 1e-12 (analytic-part
        normalization)."""
        if self.order < 1:
            return False
        return abs(self.coeffs[0]) <= 1e-12 and abs(self.coeffs[1] - 1.0) <= 1e-12

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and np.array_equal(
            self.coeffs, other.coeffs
        )


def differentiate(s: TruncatedSeries) -> TruncatedSeries:
    """Term-by-term derivative; the order drops by one (floor at zero)."""
    if s.order == 0:
        return TruncatedSeries([0.0])
    n = np.arange(1, s.order + 1)
    return TruncatedSeries(n * s.coeffs[1:])


def cauchy_product(a: TruncatedSeries, b: TruncatedSeries, order: int) -> TruncatedSeries:
    """Product of two series truncated at ``order``.

    Deliberately written as the explicit double loop so it can serve as an
    independent cross-check of convolution-based code paths.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    out = np.zeros(order + 1, dtype=complex)
    for i in range(min(a.order, order) + 1):
        ai = a.coeffs[i]
        if ai == 0:
            continue
        jmax = min(b.order, order - i)
        for j in range(jmax + 1):
            out[i + j] += ai * b.coeffs[j]
    return TruncatedSeries(out)


def evaluate(s: TruncatedSeries, z):
    """Horner evaluation of the truncated polynomial.

    ``z`` may be a complex scalar or an ndarray; the result has the same
    shape.  Exact for polynomial inputs; callers are responsible for staying
    inside the closed unit disk where the series is meaningful.
    """
    z = np.asarray(z, dtype=complex)
    val = np.full(z.shape, s.coeffs[-1], dtype=complex)
    for c in s.coeffs[-2::-1]:
        val = val * z + c
    if val.ndim == 0:
        return complex(val)
    return val


def evaluate_polar(s: TruncatedSeries, radii, n_angles: int) -> np.ndarray:
    """Values on polar rings: ``out[i, k] = s(radii[i] * exp(2j*pi*k/n_angles))``.

    Writing n = q*M + j with M = ``n_angles``, s(r w^k) = sum_j w^(jk) r^j P_j(r^M)
    with P_j(t) = sum_q a_(qM+j) t^q.  The coefficients are folded modulo M
    into a (ceil((N+1)/M), M) block, Horner runs in t = r^M over its rows, the
    result is scaled by r^j, and one inverse FFT per ring sums over j.  At
    order N that is ceil((N+1)/M) in-place passes over a (radii, M) array
    instead of N passes of ``evaluate`` over the same points.  Only the first
    min(M, N+1) columns are scaled: the others hold exact zeros.
    """
    radii = np.asarray(radii, dtype=float)
    m = int(n_angles)
    if radii.ndim != 1 or m < 1:
        raise ValueError("need a 1-d array of radii and n_angles >= 1")
    rows = -(-s.coeffs.size // m)
    block = np.zeros(rows * m, dtype=complex)
    block[: s.coeffs.size] = s.coeffs
    block = block.reshape(rows, m)
    t = radii[:, None] ** m
    val = np.empty((radii.size, m), dtype=complex)
    val[:] = block[-1]
    for row in block[-2::-1]:
        val *= t
        val += row
    k = min(m, s.coeffs.size)
    val[:, :k] *= radii[:, None] ** np.arange(k)
    return np.fft.ifft(val, axis=1, norm="forward")


def lincomb(weights, series_list) -> TruncatedSeries:
    """Linear combination of series, padding shorter vectors with zeros."""
    if len(weights) != len(series_list) or not series_list:
        raise ValueError("weights and series must be non-empty and equal length")
    order = max(s.order for s in series_list)
    out = np.zeros(order + 1, dtype=complex)
    for w, s in zip(weights, series_list):
        out[: s.order + 1] += w * s.coeffs
    return TruncatedSeries(out)


def series_to_json(s: TruncatedSeries) -> dict:
    """JSON form: {"order": N, "re": [...], "im": [...]}."""
    return {
        "order": s.order,
        "re": [float(v) for v in s.coeffs.real],
        "im": [float(v) for v in s.coeffs.imag],
    }


def series_from_json(d: dict) -> TruncatedSeries:
    re = np.asarray(d["re"], dtype=float)
    im = np.asarray(d["im"], dtype=float)
    if re.size != im.size or re.size != int(d["order"]) + 1:
        raise ValueError("inconsistent series record")
    return TruncatedSeries(re + 1j * im)
