"""Truncated complex power series on the unit disk.

A series is a finite coefficient vector: index n holds the coefficient of
z**n.  All operations are pure; the coefficient buffer is frozen after
construction so instances can be shared freely across threads.  The powers
of the radii that ``evaluate_polar`` scales by, and the ring order and row
powers its per-ring truncation reads, are kept read-only in bounded
process-wide caches (``_ring_powers``, ``_ring_rows``), which change no value.
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


def evaluate_polar(s: TruncatedSeries, radii, n_angles: int) -> np.ndarray:
    """Values on polar rings: ``out[i, k] = s(radii[i] * exp(2j*pi*k/n_angles))``.

    Writing n = q*M + j with M = ``n_angles``, s(r w^k) = sum_j w^(jk) r^j P_j(r^M)
    with P_j(t) = sum_q a_(qM+j) t^q.  The coefficients are folded modulo M
    into a (ceil((N+1)/M), M) block B, Horner runs in t = r^M over its rows,
    the result is scaled by r^j, and one inverse FFT per ring sums over j.  At
    order N that is ceil((N+1)/M) in-place passes over a (radii, M) array
    instead of N passes of ``evaluate`` over the same points.  Only the first
    min(M, N+1) columns are scaled: the others hold exact zeros.

    Ring i runs Horner only over the rows q < Q_i, Q_i >= 1 the least count
    whose remainder sum_{q >= Q_i} (sum_j |B[q, j]|) |t_i|^q is at most
    2^-60 (``_REMAINDER``).  For radii in [0, 1], |w^(jk)| = 1 and r^j <= 1,
    so that remainder bounds what the dropped rows add to every value of the
    ring.  The rings are taken in increasing |t| (the cached order of
    ``_ring_rows``, the identity on increasing radii), where the rings that
    read a row form a suffix: each row updates one contiguous slice, and the
    first row a ring reads is assigned, so a ring that drops no row gets
    the bits, signed zeros included, of the full Horner pass.  A block of
    one row is assigned to every ring.
    """
    radii = np.asarray(radii, dtype=float)
    m = int(n_angles)
    if radii.ndim != 1 or m < 1:
        raise ValueError("need a 1-d array of radii and n_angles >= 1")
    rows = -(-s.coeffs.size // m)
    block = np.zeros(rows * m, dtype=complex)
    block[: s.coeffs.size] = s.coeffs
    block = block.reshape(rows, m)
    k = min(m, s.coeffs.size)
    key = radii.tobytes()
    powers = _ring_powers(key, m, k)[1]
    val = np.empty((radii.size, m), dtype=complex)
    if rows == 1:
        val[:] = block[0]
    else:
        _truncated_horner(val, block, key, m)
    val[:, :k] *= powers
    return np.fft.ifft(val, axis=1, norm="forward")


def _truncated_horner(val: np.ndarray, block: np.ndarray, key: bytes, m: int) -> None:
    """Fill ``val[i]`` with Horner in t_i over the rows of ``block`` that ring
    i reads (see ``evaluate_polar``); ``key`` holds the radii's bytes."""
    order, t, t_powers = _ring_rows(key, m, block.shape[0])
    # tail[Q - 1, i]: the remainder of ring i after the rows q < Q, Q >= 1; a NaN
    # keeps its rows, and the running maximum keeps the readers of a row a suffix
    tail = np.cumsum((np.abs(block[:0:-1]).sum(axis=1)[:, None] * t_powers[:0:-1]), axis=0)
    needed = np.maximum.accumulate(1 + np.count_nonzero(~(tail <= _REMAINDER), axis=0))
    # first[q]: the first ring, in increasing |t|, that reads row q
    first = np.searchsorted(needed, np.arange(block.shape[0] + 1), side="right")
    for q in range(needed.max(initial=0) - 1, -1, -1):
        start, cont = first[q], first[q + 1]
        if cont < val.shape[0]:
            v = val[cont:]
            v *= t[cont:]
            v += block[q]
        val[start:cont] = block[q]
    if order is not None:
        val[order] = val.copy()


#: The remainder ``evaluate_polar`` may drop from every value of a ring.
_REMAINDER = 2.0**-60


@lru_cache(maxsize=64)
def _ring_powers(radii: bytes, m: int, k: int) -> tuple:
    """Read-only r^m and r^j, j < k, for the float64 radii packed in ``radii``;
    the 64 most recently used (the grid, the covering circle, area rings)."""
    r = np.frombuffer(radii)[:, None]
    powers = r**m, r ** np.arange(k)
    for p in powers:
        p.setflags(write=False)
    return powers


@lru_cache(maxsize=16)
def _ring_rows(radii: bytes, m: int, rows: int) -> tuple:
    """The order that sorts the rings of ``radii`` by increasing |t|, t = r^m
    (None when they are sorted already), t in that order as a column, and
    |t|^q, q < ``rows``, as a (rows, rings) array in that order, all
    read-only; the 16 most recently used."""
    t = _ring_powers(radii, m, m)[0]  # more than one row: the k = m entry
    size = np.abs(t[:, 0])
    order = np.argsort(size, kind="stable")
    if np.array_equal(order, np.arange(order.size)):
        order = None
    else:
        t, size = t[order], size[order]
    out = order, t, size ** np.arange(rows)[:, None]
    for a in out:
        if a is not None:
            a.setflags(write=False)
    return out


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
