import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harmclass

from harmclass import series
from harmclass.series import (
    TruncatedSeries,
    cauchy_product,
    differentiate,
    evaluate,
    evaluate_polar,
    lincomb,
    series_from_json,
    series_to_json,
)


def coeffs(s):
    return list(s.coeffs)


def test_differentiate_identity():
    assert coeffs(differentiate(TruncatedSeries([0, 1]))) == [1]


def test_differentiate_term_by_term():
    assert coeffs(differentiate(TruncatedSeries([0, 1, 0.25]))) == [1, 0.5]


def test_differentiate_monomial():
    out = differentiate(TruncatedSeries([0, 0, 0, 1 / 3]))
    assert np.allclose(out.coeffs, [0, 0, 1])


def test_differentiate_constant_floors_at_order_zero():
    out = differentiate(TruncatedSeries([5.0]))
    assert coeffs(out) == [0]


def test_evaluate_identity():
    assert evaluate(TruncatedSeries([0, 1]), 0.3 + 0.4j) == pytest.approx(0.3 + 0.4j)


def test_evaluate_coefficient_sum_at_one():
    assert evaluate(TruncatedSeries([0, 1, 0.25]), 1.0) == pytest.approx(1.25)


def test_evaluate_alternating_geometric_tail():
    # 20 terms of 1/(1+z) at z = 0.5; the dropped tail is below 1e-5
    s = TruncatedSeries([(-1.0) ** n for n in range(20)])
    assert evaluate(s, 0.5) == pytest.approx(2 / 3, abs=1e-5)


def test_evaluate_vectorized_matches_scalar():
    s = TruncatedSeries([0.1, 1, -0.3j, 0.05])
    zs = np.array([0.1, 0.2 + 0.3j, -0.7j])
    vec = evaluate(s, zs)
    for z, v in zip(zs, vec):
        assert evaluate(s, complex(z)) == pytest.approx(v)


def _random_series(order, seed):
    # coefficients of modulus ~ 1/(n+1): partial sums stay O(log n) up to r = 1
    rng = np.random.default_rng(seed)
    n = np.arange(order + 1)
    return TruncatedSeries((rng.normal(size=n.size) + 1j * rng.normal(size=n.size)) / (n + 1))


def _all_columns_polar(s, radii, m):
    """The former kernel: every one of the M columns is scaled by r^j,
    including the columns of exact zeros above the order.  The rows are
    summed as ``evaluate_polar`` sums them, with powers formed afresh."""
    radii = np.asarray(radii, dtype=float)
    rows = -(-s.coeffs.size // m)
    block = np.zeros(rows * m, dtype=complex)
    block[: s.coeffs.size] = s.coeffs
    block = block.reshape(rows, m)
    if rows == 1:
        val = np.empty((radii.size, m), dtype=complex)
        val[:] = block[0]
    else:
        t = np.empty((rows, radii.size))
        t[0], t[1:] = 1.0, radii**m
        np.multiply.accumulate(t, axis=0, out=t)
        b, n = block.view(float), series._ROWS_PER_PRODUCT
        val = t[:n].T @ b[:n]
        for q in range(n, rows, n):
            val += t[q : q + n].T @ b[q : q + n]
        val = val.view(complex)
    val *= radii[:, None] ** np.arange(m)
    return np.fft.ifft(val, axis=1, norm="forward")


def _horner_polar(s, radii, m):
    """The folded block summed by Horner in r^M over all its rows."""
    radii = np.asarray(radii, dtype=float)
    rows = -(-s.coeffs.size // m)
    block = np.zeros(rows * m, dtype=complex)
    block[: s.coeffs.size] = s.coeffs
    block = block.reshape(rows, m)
    val = np.empty((radii.size, m), dtype=complex)
    val[:] = block[-1]
    for row in block[-2::-1]:
        val *= radii[:, None] ** m
        val += row
    val *= radii[:, None] ** np.arange(m)
    return np.fft.ifft(val, axis=1, norm="forward")


# N + 1 below, equal to, a multiple of, and not a multiple of each M;
# orders M - 2, M - 1 and M for each M
@pytest.mark.parametrize(
    "order", [0, 1, 15, 30, 31, 32, 64, 126, 127, 128, 254, 255, 256, 269, 511, 2818]
)
@pytest.mark.parametrize("n_angles", [1, 32, 128, 256])
def test_evaluate_polar_matches_horner_on_grid(order, n_angles):
    from harmclass.verify import PolarGrid, default_polar_grid

    grid = default_polar_grid(n_radii=16, n_angles=n_angles)
    grid = PolarGrid(radii=np.append(grid.radii, 0.999), n_angles=n_angles)
    s = _random_series(order, seed=order)
    out = evaluate_polar(s, grid.radii, n_angles)
    assert out.shape == (grid.radii.size, n_angles)
    z = grid.radii[:, None] * np.exp(1j * grid.angles)
    assert np.max(np.abs(out - evaluate(s, z))) <= 1e-13
    # scaling only the nonzero columns changes no bit
    assert out.tobytes() == _all_columns_polar(s, grid.radii, n_angles).tobytes()


@pytest.mark.parametrize("r", [0.0, 0.5, 0.999])
def test_evaluate_polar_single_radius(r):
    s = _random_series(269, seed=3)
    z = r * np.exp(2j * np.pi * np.arange(128) / 128)
    out = evaluate_polar(s, [r], 128)
    assert out.shape == (1, 128)
    assert np.max(np.abs(out[0] - evaluate(s, z))) <= 1e-13
    assert out.tobytes() == _all_columns_polar(s, [r], 128).tobytes()


def _g_of_member(beta, seed=9):
    from harmclass.factory import build_member, sample_certified_h
    from harmclass.model import ClassParams, moebius_dilatation

    params = ClassParams(0.3, beta, 1.0)
    h = sample_certified_h(params, 16, 0.8, seed)
    return build_member(h, moebius_dilatation(beta, 1.0, 2.5), params).g


def test_evaluate_polar_one_row_blocks_keep_the_bits_of_horner():
    # a one-row block is assigned to every ring, as the first Horner step
    # assigns it: column 1 of this block holds -0 - 0j, and those bits survive
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=8) + 1j * rng.normal(size=8)
    coeffs[1::4] = complex(-0.0, -0.0)
    s = TruncatedSeries(coeffs)
    radii = np.array([0.99, 0.995, 0.999])
    for m in (8, 9, 128):
        assert evaluate_polar(s, radii, m).tobytes() == _horner_polar(s, radii, m).tobytes()
    assert evaluate_polar(s, radii, 4).tobytes() == _all_columns_polar(s, radii, 4).tobytes()


@pytest.mark.parametrize("beta", [0.9, 0.99, 0.9999])
def test_evaluate_polar_of_g_matches_evaluate(beta):
    """Every ring reads every row of g: on the grid and on the covering
    circle the values agree with Horner at each point and with Horner in r^M."""
    from harmclass.model import COVERING_CIRCLE_RADIUS
    from harmclass.verify import default_polar_grid

    grid = default_polar_grid()
    g = _g_of_member(beta)
    for radii, m in ((grid.radii, grid.n_angles), (np.array([COVERING_CIRCLE_RADIUS]), 256)):
        got = evaluate_polar(g, radii, m)
        z = radii[:, None] * np.exp(2j * np.pi * np.arange(m) / m)
        assert np.max(np.abs(got - evaluate(g, z))) <= 1e-13
        assert np.max(np.abs(got - _horner_polar(g, radii, m))) <= 1e-13


@pytest.mark.parametrize("order", [127, 255, 3167])
def test_evaluate_polar_spreads_a_nan_in_any_row_to_every_ring(order):
    radii = np.array([0.0, 1e-3, 0.5, 0.999])
    rows = -(-(order + 1) // 128)
    for row in range(rows):
        coeffs = _random_series(order, seed=row).coeffs.copy()
        coeffs[min(128 * row + 5, order)] = np.nan
        out = evaluate_polar(TruncatedSeries(coeffs), radii, 128)
        assert np.isnan(out).all()


def test_evaluate_polar_takes_unsorted_rings_ring_by_ring():
    from harmclass.verify import default_polar_grid

    g = _g_of_member(0.999)
    radii = default_polar_grid().radii
    order = np.random.default_rng(2).permutation(radii.size)
    rings = np.concatenate((radii[order], radii[::-1][:5], [0.0, 0.5, 0.5]))
    got = evaluate_polar(g, rings, 128)
    for ring, r in zip(got, rings):
        z = r * np.exp(2j * np.pi * np.arange(128) / 128)
        assert np.max(np.abs(ring - evaluate_polar(g, [r], 128)[0])) <= 1e-13
        assert np.max(np.abs(ring - evaluate(g, z))) <= 1e-13
    assert got[: radii.size][np.argsort(order)].tobytes() == evaluate_polar(g, radii, 128).tobytes()


_THREADS_SCRIPT = """
import hashlib
import numpy as np
from harmclass.series import TruncatedSeries, evaluate_polar
rng = np.random.default_rng(0)
s = TruncatedSeries(rng.normal(size=27597) + 1j * rng.normal(size=27597))
print(hashlib.sha256(evaluate_polar(s, np.linspace(0.01, 0.999, 64), 64).tobytes()).hexdigest())
"""


def test_evaluate_polar_does_not_depend_on_the_blas_thread_count():
    # 432 rows: one product over all of them reads differently at 1 and 2
    # OpenBLAS threads; products of at most 128 rows do not
    src = str(Path(harmclass.__file__).resolve().parent.parent)
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout)
    assert len(digests) == 1


def test_row_powers_extend_by_their_cumulative_product():
    from harmclass.verify import default_polar_grid

    grid = default_polar_grid()
    for radii, m in ((grid.radii, grid.n_angles), (np.array([0.999]), 256)):
        series._ring_powers.cache_clear()
        fresh = [np.ones_like(radii)]
        for _ in range(24):
            fresh.append(fresh[-1] * radii**m)
        fresh = np.array(fresh)
        entries = {rows: series._ring_powers(radii.tobytes(), m, rows) for rows in (25, 3, 2)}
        for rows, (powers, row_powers) in entries.items():
            assert powers.shape == (radii.size, m) and not powers.flags.writeable
            assert row_powers.tobytes() == fresh[:rows].tobytes()
            assert not row_powers.flags.writeable
        for shorter, longer in ((2, 3), (3, 25)):
            assert entries[longer][1][:shorter].tobytes() == entries[shorter][1].tobytes()


@pytest.mark.parametrize("radii, n_angles", [([[0.5]], 8), (0.5, 8), ([0.5], 0)])
def test_evaluate_polar_rejects_bad_shapes(radii, n_angles):
    with pytest.raises(ValueError):
        evaluate_polar(TruncatedSeries([0, 1]), radii, n_angles)


@pytest.mark.parametrize("order", [20, 300, 20000])  # 1, 3 and 157 folded rows
def test_evaluate_polar_into_out_has_the_bits_of_a_fresh_call(order):
    rng = np.random.default_rng(order)
    c = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
    c[3] = complex(-0.0, 0.0)
    s, radii = TruncatedSeries(c), np.linspace(0.05, 0.995, 16)
    out = np.full((radii.size, 128), complex(np.nan, 1.0))  # what it held is overwritten
    got = evaluate_polar(s, radii, 128, out)
    assert got is out
    assert got.tobytes() == evaluate_polar(s, radii, 128).tobytes()


@pytest.mark.parametrize(
    "out",
    [np.empty((2, 8), complex), np.empty((1, 8)), np.empty((1, 16), complex)[:, ::2]],
    ids=["shape", "dtype", "strided"],
)
def test_evaluate_polar_rejects_a_bad_out(out):
    with pytest.raises(ValueError):
        evaluate_polar(TruncatedSeries([0, 1]), [0.5], 8, out)


def test_cauchy_product_squares_binomial():
    one_plus_z = TruncatedSeries([1, 1])
    out = cauchy_product(one_plus_z, one_plus_z, order=2)
    assert np.allclose(out.coeffs, [1, 2, 1])


def test_cauchy_product_truncates():
    a = TruncatedSeries([1, 1, 1])
    out = cauchy_product(a, a, order=1)
    assert np.allclose(out.coeffs, [1, 2])


def test_cauchy_product_rejects_negative_order():
    with pytest.raises(ValueError):
        cauchy_product(TruncatedSeries([1]), TruncatedSeries([1]), order=-1)


def test_lincomb_pads_shorter_series():
    a = TruncatedSeries([0, 1])
    b = TruncatedSeries([0, 1, 2])
    out = lincomb([0.5, 0.5], [a, b])
    assert np.allclose(out.coeffs, [0, 1, 1])


def test_coefficients_are_frozen():
    s = TruncatedSeries([0, 1])
    with pytest.raises(ValueError):
        s.coeffs[0] = 1.0


def test_json_round_trip():
    s = TruncatedSeries([0, 1, 0.25 - 0.5j])
    d = series_to_json(s)
    assert d["order"] == 2
    assert series_from_json(d) == s


def test_json_rejects_inconsistent_record():
    with pytest.raises(ValueError):
        series_from_json({"order": 3, "re": [0, 1], "im": [0, 0]})


def test_normalization_predicate():
    assert TruncatedSeries([0, 1, 9]).is_normalized()
    assert not TruncatedSeries([0.1, 1]).is_normalized()
    assert not TruncatedSeries([0, 0.5]).is_normalized()
    assert not TruncatedSeries([1.0]).is_normalized()
