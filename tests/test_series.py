import numpy as np
import pytest

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
    including the columns of exact zeros above the order."""
    radii = np.asarray(radii, dtype=float)
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


def test_evaluate_polar_keeps_signed_zeros_where_no_row_is_dropped():
    # near r = 1 both rows of this block are read; column 1 holds -0 - 0j in
    # both, and the sign of its imaginary part survives Horner only if the top
    # row is assigned
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=8) + 1j * rng.normal(size=8)
    coeffs[1::4] = complex(-0.0, -0.0)
    s = TruncatedSeries(coeffs)
    radii = np.array([0.99, 0.995, 0.999])
    assert evaluate_polar(s, radii, 4).tobytes() == _all_columns_polar(s, radii, 4).tobytes()
    block = s.coeffs.reshape(2, 4)
    val = np.empty((3, 4), dtype=complex)
    series._truncated_horner(val, block, radii.tobytes(), 4)
    full = np.empty_like(val)
    full[:] = block[-1]
    for row in block[-2::-1]:
        full *= radii[:, None] ** 4
        full += row
    assert val.tobytes() == full.tobytes()
    assert np.signbit(val[:, 1].imag).all()


@pytest.mark.parametrize("beta", [0.99, 0.999, 0.9999])
def test_evaluate_polar_drops_rows_within_the_stated_remainder(beta):
    """Dropped rows change no value by more than 2^-60 before rounding; after
    it, values differ from the full Horner pass by an ulp or two of |g|."""
    from harmclass.verify import default_polar_grid

    grid = default_polar_grid()
    g = _g_of_member(beta)
    got = evaluate_polar(g, grid.radii, grid.n_angles)
    full = _all_columns_polar(g, grid.radii, grid.n_angles)
    assert np.max(np.abs(got - full)) <= 2.0**-60 + 2.0**-51 * np.max(np.abs(full))
    # the innermost ring reads the first row only: the first M coefficients
    head = TruncatedSeries(g.coeffs[: grid.n_angles])
    inner = grid.radii[:1]
    assert evaluate_polar(g, inner, 128).tobytes() == evaluate_polar(head, inner, 128).tobytes()


def test_evaluate_polar_takes_unsorted_rings_ring_by_ring():
    from harmclass.verify import default_polar_grid

    g = _g_of_member(0.999)
    radii = default_polar_grid().radii
    order = np.random.default_rng(2).permutation(radii.size)
    rings = np.concatenate((radii[order], radii[::-1][:5], [0.0, 0.5, 0.5]))
    got = evaluate_polar(g, rings, 128)
    for ring, r in zip(got, rings):
        assert ring.tobytes() == evaluate_polar(g, [r], 128)[0].tobytes()
    assert got[: radii.size][np.argsort(order)].tobytes() == evaluate_polar(g, radii, 128).tobytes()


def test_ring_order_is_the_identity_on_the_rings_of_verify():
    from harmclass.verify import default_polar_grid

    grid = default_polar_grid()
    for radii, m in ((grid.radii, grid.n_angles), (np.array([0.999]), 256)):
        order, t, t_powers = series._ring_rows(radii.tobytes(), m, 23)
        assert order is None
        assert t is series._ring_powers(radii.tobytes(), m, m)[0]
        assert t_powers.shape == (23, radii.size)
        assert not (t.flags.writeable or t_powers.flags.writeable)


@pytest.mark.parametrize("radii, n_angles", [([[0.5]], 8), (0.5, 8), ([0.5], 0)])
def test_evaluate_polar_rejects_bad_shapes(radii, n_angles):
    with pytest.raises(ValueError):
        evaluate_polar(TruncatedSeries([0, 1]), radii, n_angles)


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
