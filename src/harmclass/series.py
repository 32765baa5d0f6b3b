"""Truncated complex power series on the unit disk.

A series is a finite coefficient vector: index n holds the coefficient of
z**n.  All operations are pure, except that ``evaluate_polar`` writes its
values into an ``out`` array when it is given one; the coefficient buffer is
frozen after construction so instances can be shared freely across threads.
The powers of the radii that ``evaluate_polar`` reads, r^j and (r^M)^q, are
kept read-only in one bounded process-wide cache (``_ring_powers``, one
entry per ring set, angle count and row count, complete when stored and
never replaced), which changes no value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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


def evaluate_polar(s: TruncatedSeries, radii, n_angles: int, out=None) -> np.ndarray:
    """Values on polar rings: ``out[i, k] = s(radii[i] * exp(2j*pi*k/n_angles))``.

    Writing n = q*M + j with M = ``n_angles``, s(r w^k) = sum_j w^(jk) r^j P_j(r^M)
    with P_j(t) = sum_q a_(qM+j) t^q.  The coefficients are folded modulo M
    into a (ceil((N+1)/M), M) block B; a block of one row is assigned to
    every ring, and a longer one is summed over its rows as a real matrix
    product, sum_q t_i^q B[q, :] = (V @ B)[i] with V[i, q] = t_i^q, so every
    ring reads every row (a NaN in any row reaches every ring).  The result
    is scaled by r^j and one inverse FFT per ring sums over j.  Only the
    first min(M, N+1) columns are scaled: the others hold exact zeros.

    r^j and V come from one ring cache entry, V one row per power of t by a
    cumulative product.  The product runs on at most ``_ROWS_PER_PRODUCT``
    rows at a time, added in order: a BLAS splits a longer inner dimension
    into blocks that can depend on its thread count, and so would the last
    bits.

    The values are written into ``out``, a C-contiguous complex (rings, M)
    array, which is returned; without it one is allocated.  The product and
    the FFT write into it in place, with the bits of a fresh array.
    """
    radii = np.asarray(radii, dtype=float)
    m = int(n_angles)
    if radii.ndim != 1 or m < 1:
        raise ValueError("need a 1-d array of radii and n_angles >= 1")
    if out is None:
        out = np.empty((radii.size, m), dtype=complex)
    elif out.shape != (radii.size, m) or out.dtype != complex or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous complex array of shape (rings, n_angles)")
    rows = -(-s.coeffs.size // m)
    block = np.zeros(rows * m, dtype=complex)
    block[: s.coeffs.size] = s.coeffs
    block = block.reshape(rows, m)
    k = min(m, s.coeffs.size)
    powers, v = _ring_powers(radii.tobytes(), m, rows)
    if rows == 1:
        out[:] = block[0]
    else:
        b, n, acc = block.view(float), _ROWS_PER_PRODUCT, out.view(float)
        np.matmul(v[:n].T, b[:n], out=acc)
        for q in range(n, rows, n):
            acc += v[q : q + n].T @ b[q : q + n]
    out[:, :k] *= powers[:, :k]
    return np.fft.ifft(out, axis=1, norm="forward", out=out)


#: Rows of the folded block summed by one matrix product in ``evaluate_polar``.
_ROWS_PER_PRODUCT = 128


@lru_cache(maxsize=64)
def _ring_powers(radii: bytes, m: int, rows: int) -> tuple:
    """Read-only r^j, j < m, as a (rings, m) array for the float64 radii
    packed in ``radii``, and the read-only row powers t^q = (r^m)^q, q < rows,
    as a (rows, rings) array, each row the one before times t (a cumulative
    product, so its rows have the bits of the first rows of any longer one);
    the 64 most recently used (the grid, the covering circle, area rings)."""
    r = np.frombuffer(radii)
    powers, row_powers = r[:, None] ** np.arange(m), np.empty((rows, r.size))
    row_powers[0], row_powers[1:] = 1.0, r**m
    np.multiply.accumulate(row_powers, axis=0, out=row_powers)
    powers.setflags(write=False)
    row_powers.setflags(write=False)
    return powers, row_powers


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
