import math

import numpy as np
import pytest

from harmclass.factory import build_member, extremal_h, sample_certified_h
from harmclass.model import (
    COVERING_CIRCLE_RADIUS,
    ClassParams,
    co_analytic_from,
    constant_dilatation,
    DilatationSpec,
    dilatation_coeffs,
    dilatation_modulus,
    harmonic_map,
    moebius_dilatation,
    rotation_dilatation,
)
from harmclass.series import (
    TruncatedSeries,
    cauchy_product,
    differentiate,
    evaluate,
    evaluate_polar,
)
from harmclass.verify import default_polar_grid

H_IDENTITY = TruncatedSeries([0, 1])


def moebius_value(w, z):
    """The complex closed form e^{i mu} (u + beta) / (1 + beta u), u = e^{i phi} z."""
    u = np.exp(1j * w.phi) * np.asarray(z, dtype=complex)
    return np.exp(1j * w.mu) * (u + w.beta) / (1.0 + w.beta * u)


# ------------------------------------------------------------------- params

@pytest.mark.parametrize("alpha,beta", [(-0.1, 0), (1.0, 0), (0, -0.2), (0, 1.0)])
def test_params_range_validation(alpha, beta):
    with pytest.raises(ValueError):
        ClassParams(alpha, beta, 1.0)


def test_params_allow_negative_delta_at_data_level():
    p = ClassParams(0.2, 0.3, -1.5)
    with pytest.raises(ValueError):
        p.require_nonnegative_delta()


# ------------------------------------------------------------ order of g

RHO = COVERING_CIRCLE_RADIUS
ORDER_BETAS = [0.0, 0.3, 0.6, 0.9, 0.99, 0.999, 0.9999]


def _certified_h(seed=0):
    """A degree-16 analytic part with a full budget at (0.3, *, 1): D = 15."""
    return sample_certified_h(ClassParams(0.3, 0.5, 1.0), 16, 1.0, seed)


def _dropped(h, beta, n):
    """The closed-form bound on what g beyond order n adds on |z| <= RHO."""
    d, x = h.order - 1, beta * RHO
    t = (1 - beta**2) * max(2.0, float(np.sum(np.abs(differentiate(h).coeffs))))
    return t * x ** (n - d - 1) / ((n + 1) * (1 - x))


@pytest.mark.parametrize("beta", ORDER_BETAS[1:] + [0.99999, 0.999999, 1 - 1e-12])
def test_g_order_is_the_least_with_its_remainder_on_the_covering_circle(beta):
    h = _certified_h()
    n = harmonic_map(h, moebius_dilatation(beta, 0.4, 1.9)).g.order
    assert _dropped(h, beta, n) <= 2.0**-60 < _dropped(h, beta, n - 1)


def test_g_order_at_the_default_degree():
    # D = deg h' = 15: 17 terms at beta = 0 (g' = e^{i(mu+phi)} z h'), then the
    # covering circle's remainder
    orders = [harmonic_map(_certified_h(), moebius_dilatation(beta)).g.order
              for beta in (0.0, 0.6, 0.9, 0.99, 0.999, 0.9999)]
    assert orders == [17, 91, 365, 3167, 16300, 27596]


def test_g_order_has_no_cap_below_one():
    # the remainder's factor 1 - beta^2 shrinks as beta -> 1: the order peaks
    # near beta = 0.99997 and falls after it, down to the largest float below 1
    h = _certified_h()
    betas = [1 - 10.0**-k for k in np.arange(4.0, 16.5, 0.25)] + [np.nextafter(1.0, 0.0)]
    orders = [harmonic_map(h, moebius_dilatation(float(b))).g.order for b in betas]
    assert max(orders) < 30_000
    assert orders[-1] < orders[0]


@pytest.mark.parametrize("coefficient", [math.inf, 1e308, math.nan, complex(0, math.nan)])
def test_g_order_needs_a_finite_derivative_sum(coefficient):
    # 2 * 1e308 overflows, and a NaN propagates: the remainder bound, and with
    # it the order, is undefined
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(ValueError, match="must be finite"):
            harmonic_map(TruncatedSeries([0, 1, coefficient]), moebius_dilatation(0.5))


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.9999])
def test_constant_w_gets_the_exact_order(beta):
    h = _certified_h()
    g = harmonic_map(h, constant_dilatation(beta, 0.7)).g
    assert g.order == h.order + 1
    assert g.coeffs[-1] == 0


@pytest.mark.parametrize("beta", [0.3, 0.9, 0.99, 0.9999])
def test_certified_members_at_one_beta_share_one_order(beta):
    rng = np.random.default_rng(20261019)
    orders = set()
    for alpha, delta in ((0.0, 0.0), (0.3, 1.0), (0.9, 2.5)):
        params = ClassParams(alpha, beta, delta)
        hs = [sample_certified_h(params, 16, fill, int(rng.integers(2**31)))
              for fill in (0.0, 0.5, 1.0)]
        hs.append(extremal_h(16, 0.3, params))
        for h in hs:
            w = moebius_dilatation(beta, *rng.uniform(0.0, 2.0 * math.pi, 2))
            orders.add(build_member(h, w, params).g.order)
    assert len(orders) == 1


@pytest.mark.parametrize("kind", ["moebius", "constant"])
@pytest.mark.parametrize("beta", ORDER_BETAS)
def test_g_at_its_order_matches_a_four_times_longer_series(beta, kind):
    """What g drops is at most 2^-60 on the grid and the covering circle; the
    evaluated values differ by that and at most an ulp or two of rounding."""
    grid = default_polar_grid()
    for seed in range(2):
        h = _certified_h(seed)
        if kind == "moebius":
            w = moebius_dilatation(beta, 1.0 + seed, 2.5)
        else:
            w = constant_dilatation(beta, 1.0 + seed)
        g = harmonic_map(h, w).g
        longer = co_analytic_from(h, w, 4 * g.order)
        assert np.array_equal(longer.coeffs[: g.order + 1], g.coeffs)
        tail = np.abs(longer.coeffs[g.order + 1 :])
        n = np.arange(g.order + 1, longer.order + 1)
        for radii, m in ((grid.radii, grid.n_angles), (np.array([RHO]), 256)):
            assert np.sum(tail * radii[-1] ** n) <= 2.0**-60
            got, ref = (evaluate_polar(s, radii, m) for s in (g, longer))
            assert np.max(np.abs(got - ref)) <= 2.0**-59 + 2.0**-52 * np.max(np.abs(ref))


@pytest.mark.parametrize("beta", [0.9, 0.99])
def test_co_analytic_tail_matches_the_cauchy_oracle(beta):
    """Past index D + 2 the geometric tail agrees with the double-loop
    convolution to 1e-16 per coefficient."""
    for seed in range(3):
        h = _certified_h(seed)
        w = moebius_dilatation(beta, 1.0 + seed, 2.5 + seed)
        g = harmonic_map(h, w).g
        gp = cauchy_product(dilatation_coeffs(w, g.order - 1), differentiate(h), g.order - 1)
        oracle = gp.coeffs / np.arange(1, g.order + 1)
        assert np.max(np.abs(g.coeffs[h.order + 1 :] - oracle[h.order :])) <= 1e-16


# -------------------------------------------------------------- dilatations

def test_moebius_coeffs_degenerate_to_rotation():
    out = dilatation_coeffs(moebius_dilatation(0.0), order=3)
    assert np.allclose(out.coeffs, [0, 1, 0, 0])


def test_moebius_coeffs_hand_expansion():
    out = dilatation_coeffs(moebius_dilatation(0.5), order=2)
    assert np.allclose(out.coeffs, [0.5, 0.75, -0.375])


@pytest.mark.parametrize("z", [0.1, 0.2j])
def test_moebius_series_matches_closed_form(z):
    w = moebius_dilatation(0.5)
    series = dilatation_coeffs(w, order=64)
    assert evaluate(series, z) == pytest.approx(moebius_value(w, z), abs=1e-13)


@pytest.mark.parametrize("beta", [0.1, 0.4, 0.7, 0.9])
def test_schwarz_pick_coefficient_inequality(beta):
    """|c_n| <= 1 - |c_0|^2 for every n >= 1, with equality at n = 1."""
    c = dilatation_coeffs(moebius_dilatation(beta, mu=0.7, phi=-1.2), order=40).coeffs
    cap = 1 - abs(c[0]) ** 2
    assert abs(c[1]) == pytest.approx(cap, abs=1e-14)
    assert np.all(np.abs(c[1:]) <= cap + 1e-14)


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.99])
def test_moebius_coeffs_match_the_negative_base_power(beta):
    """The sign is applied to beta^(n-1): within one rounding of (-beta)^(n-1)."""
    order = 2817
    c = dilatation_coeffs(moebius_dilatation(beta, mu=0.7, phi=-1.2), order=order).coeffs
    n = np.arange(1, order + 1)
    ref = np.exp(0.7j) * np.exp(-1.2j * n) * (1.0 - beta * beta) * (-beta) ** (n - 1)
    assert np.all(np.abs(c[1:] - ref) <= 2 * np.finfo(float).eps * np.abs(ref))


def test_rotation_coeffs():
    out = dilatation_coeffs(rotation_dilatation(mu=0.4, phi=0.3), order=4)
    assert out.coeffs[1] == pytest.approx(np.exp(0.7j))
    assert np.allclose(np.delete(out.coeffs, 1), 0)


@pytest.mark.parametrize("z", [0.3, -0.5 + 0.6j])
def test_rotation_is_moebius_at_beta_zero(z):
    w = rotation_dilatation(mu=0.4, phi=0.3)
    assert w.kind == "moebius" and w.beta == 0.0
    assert evaluate(dilatation_coeffs(w, 3), z) == pytest.approx(np.exp(0.7j) * z, abs=1e-15)


def test_constant_coeffs_are_the_center_alone():
    w = constant_dilatation(0.5, mu=0.3)
    assert w.kind == "constant"
    assert np.array_equal(dilatation_coeffs(w, 0).coeffs, [0.5 * np.exp(0.3j)])
    assert np.array_equal(dilatation_coeffs(w, 4).coeffs, [0.5 * np.exp(0.3j), 0, 0, 0, 0])


def test_dilatation_coeffs_rejects_negative_order():
    with pytest.raises(ValueError):
        dilatation_coeffs(moebius_dilatation(0.2), order=-1)


def test_constant_dilatation_has_no_phi():
    with pytest.raises(ValueError, match="phi"):
        DilatationSpec(kind="constant", beta=0.5, phi=0.1)


@pytest.mark.parametrize("beta", [-0.1, 1.0, math.nan])
def test_constant_dilatation_rejects_beta_outside_the_unit_interval(beta):
    with pytest.raises(ValueError, match="beta"):
        constant_dilatation(beta)


@pytest.mark.parametrize("kind", ["moebius", "constant"])
@pytest.mark.parametrize("mu, phi", [(math.nan, 0.0), (math.inf, 0.0), (0.0, math.nan),
                                     (0.0, -math.inf)])
def test_dilatation_rejects_non_finite_angles(kind, mu, phi):
    # a NaN phi passed build_member and then failed inside verification, and a
    # NaN mu surfaced as "|b1| must equal the dilatation beta"
    with pytest.raises(ValueError, match="mu and phi must be finite"):
        DilatationSpec(kind=kind, beta=0.5, mu=mu, phi=phi)


def test_rotation_requires_beta_zero():
    from harmclass.model import DilatationSpec

    with pytest.raises(ValueError):
        DilatationSpec(kind="rotation", beta=0.3)


# ------------------------------------------------------- dilatation modulus

MODULUS_BETAS = [0.0, 0.3, 0.6, 0.9, 0.99]


def _seeded_moebius(beta, count=4):
    rng = np.random.default_rng(20261018)
    return [moebius_dilatation(beta, *rng.uniform(0.0, 2.0 * math.pi, 2)) for _ in range(count)]


def _ring_points(radii, n_angles):
    return np.asarray(radii)[:, None] * np.exp(2j * np.pi * np.arange(n_angles) / n_angles)


def _extended_modulus(w, radii, n_angles):
    """|w| at the same float radii and angles, in real long double arithmetic."""
    ld = np.longdouble
    t = (2.0 * np.pi * np.arange(n_angles) / n_angles).astype(ld) + ld(w.phi)
    r, beta = np.asarray(radii, dtype=ld)[:, None], ld(w.beta)
    x, y = r * np.cos(t), r * np.sin(t)
    return np.sqrt(((x + beta) ** 2 + y**2) / ((1 + beta * x) ** 2 + (beta * y) ** 2))


needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="long double is not wider than double here"
)


@pytest.mark.parametrize("beta", MODULUS_BETAS)
def test_dilatation_modulus_matches_the_complex_closed_form(beta):
    grid = default_polar_grid()
    z = _ring_points(grid.radii, grid.n_angles)
    # the complex form itself errs by up to 1.2e-14 at beta = 0.99 (see the next test)
    tol = 2e-14 if beta == 0.99 else 4e-15
    for w in _seeded_moebius(beta):
        got = dilatation_modulus(w, grid.radii, grid.n_angles)
        assert got.shape == z.shape
        assert np.max(np.abs(got - np.abs(moebius_value(w, z)))) <= tol


@needs_long_double
@pytest.mark.parametrize("beta", MODULUS_BETAS)
def test_dilatation_modulus_is_exact_to_an_ulp_or_two(beta):
    grid = default_polar_grid()
    for w in _seeded_moebius(beta):
        got = dilatation_modulus(w, grid.radii, grid.n_angles)
        exact = _extended_modulus(w, grid.radii, grid.n_angles)
        assert np.max(np.abs(got - exact)) <= 4.5e-16


@pytest.mark.parametrize("phi", [0.0, 1.3, -2.0, 7.5])
def test_dilatation_modulus_at_beta_zero_is_the_radius(phi):
    grid = default_polar_grid()
    got = dilatation_modulus(moebius_dilatation(0.0, 0.4, phi), grid.radii, grid.n_angles)
    assert np.array_equal(got, np.broadcast_to(grid.radii[:, None], got.shape))


@needs_long_double
@pytest.mark.parametrize("beta", [0.3, 0.6, 0.9, 0.99])
def test_dilatation_modulus_has_no_cancellation_at_the_zero_of_w(beta):
    """On the ring r = beta with phi = pi - theta_k, w vanishes at angle k up
    to the rounding of phi.  The form r^2 + beta^2 + 2 beta r cos t returns 0
    there, or the square root of rounding noise (~1e-9) on the nearby rings."""
    n_angles = 128
    radii = np.array([beta * (1 - 1e-8), beta, beta * (1 + 1e-8)])
    for k in range(n_angles):
        phi = math.pi - 2.0 * math.pi * k / n_angles
        w = moebius_dilatation(beta, 0.7, phi)
        with np.errstate(all="raise"):
            got = dilatation_modulus(w, radii, n_angles)
        assert not np.isnan(got).any()
        exact = _extended_modulus(w, radii, n_angles)
        assert np.max(np.abs(got[:, k] - exact[:, k])) <= 1e-16
        # the exact modulus at the nearest representable point is not 0: at
        # beta = 0.99 it reaches 1.7e-14 (pi - (theta + phi) up to 3.4e-16)
        assert got[1, k] <= 1e-15 if beta <= 0.6 else got[1, k] <= 2e-14


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 0.99])
def test_dilatation_modulus_of_a_constant_is_beta_exactly(beta):
    radii = np.array([0.1, 0.5, 0.995])
    got = dilatation_modulus(constant_dilatation(beta, mu=1.1), radii, 64)
    assert got.shape == (3, 64)
    assert np.all(got == beta)
    # the modulus of the one-term series on the rings, bit for bit
    assert np.array_equal(got, np.abs(evaluate_polar(TruncatedSeries([beta]), radii, 64)))


@pytest.mark.parametrize("radii,n_angles", [([[0.5]], 8), ([0.5], 0)])
def test_dilatation_modulus_rejects_bad_rings(radii, n_angles):
    with pytest.raises(ValueError):
        dilatation_modulus(moebius_dilatation(0.5), radii, n_angles)


# ---------------------------------------------------------- co-analytic part

def test_co_analytic_identity_with_moebius():
    g = co_analytic_from(H_IDENTITY, moebius_dilatation(0.5), order=3)
    assert np.allclose(g.coeffs, [0, 0.5, 0.375, -0.125])


def test_co_analytic_identity_with_rotation():
    g = co_analytic_from(H_IDENTITY, rotation_dilatation(), order=6)
    expected = np.zeros(7)
    expected[2] = 0.5
    assert np.allclose(g.coeffs, expected)


@pytest.mark.parametrize("beta,mu", [(0.0, 0.7), (0.5, 0.0), (0.5, 1.3), (0.99, -2.0)])
def test_co_analytic_from_a_constant_is_the_analytic_part_times_it(beta, mu):
    h = TruncatedSeries([0, 1, 0.1 - 0.2j, 0.03j, -0.004])
    c = beta * np.exp(1j * mu)
    g = co_analytic_from(h, constant_dilatation(beta, mu), order=9)
    expected = np.zeros(10, dtype=complex)
    expected[:5] = c * h.coeffs
    assert np.all(np.abs(g.coeffs - expected) <= 1e-15 * np.abs(expected))


def test_co_analytic_extremal_attains_half():
    h = TruncatedSeries([0, 1, 0.25])
    g = co_analytic_from(h, rotation_dilatation(), order=3)
    assert g.coeffs[2] == pytest.approx(0.5, abs=1e-15)


def test_co_analytic_rejects_unnormalized():
    with pytest.raises(ValueError):
        co_analytic_from(TruncatedSeries([0, 2]), rotation_dilatation(), order=3)


def test_co_analytic_rejects_zero_order():
    with pytest.raises(ValueError):
        co_analytic_from(H_IDENTITY, rotation_dilatation(), order=0)


# D = deg h' = 7: orders up to, at and past the head b_1..b_{D+1}
@pytest.mark.parametrize("order", [1, 4, 5, 6, 7, 8, 9, 16, 64])
@pytest.mark.parametrize("beta", [0.0, 0.35, 0.8])
def test_convolution_route_consistency(order, beta):
    """Independent route: Cauchy-multiply the dilatation series with h', then
    integrate coefficient-wise (b_n = c_{n-1}/n); must match the direct
    construction to 1e-14."""
    rng = np.random.default_rng(order * 100 + int(beta * 10))
    coeffs = np.zeros(9, dtype=complex)
    coeffs[1] = 1.0
    coeffs[2:] = 0.05 * (rng.standard_normal(7) + 1j * rng.standard_normal(7))
    h = TruncatedSeries(coeffs)
    w = moebius_dilatation(beta, mu=0.3, phi=1.1)

    direct = co_analytic_from(h, w, order)
    gp = cauchy_product(dilatation_coeffs(w, order - 1), differentiate(h), order - 1)
    oracle = np.concatenate(([0.0], gp.coeffs / np.arange(1, order + 1)))
    assert np.max(np.abs(direct.coeffs - oracle)) < 1e-14


# ------------------------------------------------------------ ring queries

def test_truncated_g_agrees_with_the_closed_form_dilatation_on_rings():
    """|g'| from the truncated g against |w| |h'| from the closed form, so
    |h'| + |g'| = |h'| (1 + |w|) on the grid."""
    rng = np.random.default_rng(3)
    coeffs = np.zeros(7, dtype=complex)
    coeffs[1] = 1.0
    coeffs[2:] = 0.03 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
    h = TruncatedSeries(coeffs)
    f = harmonic_map(h, moebius_dilatation(0.5, mu=1.0, phi=0.2))
    grid = default_polar_grid()
    hp = np.abs(evaluate_polar(differentiate(h), grid.radii, grid.n_angles))
    gp = np.abs(evaluate_polar(differentiate(f.g), grid.radii, grid.n_angles))
    w = dilatation_modulus(f.w, grid.radii, grid.n_angles)
    assert np.max(np.abs(gp - w * hp)) < 1e-12


def test_harmonic_map_records_first_coefficient():
    f = harmonic_map(H_IDENTITY, moebius_dilatation(0.3))
    assert abs(f.g.coeffs[1]) == pytest.approx(0.3, abs=1e-13)


def test_harmonic_map_spec_rejects_mismatched_b1():
    from harmclass.model import HarmonicMapSpec

    bad_g = TruncatedSeries([0, 0.2, 0])
    with pytest.raises(ValueError):
        HarmonicMapSpec(h=H_IDENTITY, w=moebius_dilatation(0.3), g=bad_g)
    # a NaN b1 compares false with everything: it must not pass as |b1| = beta
    nan_g = TruncatedSeries([0, float("nan"), 0.1])
    with pytest.raises(ValueError, match="b1"):
        HarmonicMapSpec(h=H_IDENTITY, w=moebius_dilatation(0.3), g=nan_g)
