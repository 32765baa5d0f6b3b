import itertools
import math

import numpy as np
import pytest

from harmclass.bounds import (
    BoundEnvelope,
    area_envelope,
    bloch_bound,
    bloch_H_poly,
    bloch_L_coeffs,
    bn_bound,
    bn_bound_digamma,
    bn_bounds,
    covering_radius,
    covering_radius_floor,
    dilatation_envelope,
    distortion_slope,
    f_growth,
    f_growth_floor,
    g_growth_bounds,
    g_growth_crosscheck,
    g_growth_quadrature,
    gprime_envelope,
    hprime_envelope,
    normality_constant,
)
from harmclass.bounds import _BLOCH_BRACKET_WIDTH, _bloch_profile
from harmclass.errors import RootCountError
from harmclass.model import MAX_TRUNCATION_ORDER, ClassParams
from harmclass.numerics import bisect_bracket

P011 = ClassParams(0, 0, 1)

PARAM_GRID = [
    ClassParams(0, 0, 0),
    ClassParams(0, 0, 1),
    ClassParams(0.3, 0.5, 1),
    ClassParams(0.6, 0.3, 2),
    ClassParams(0.9, 0.9, 0),
]


def simpson(f, a, b, n=20001):
    """Composite Simpson oracle, independent of the package quadrature."""
    x = np.linspace(a, b, n)
    y = np.array([f(v) for v in x])
    h = (b - a) / (n - 1)
    return h / 3 * (y[0] + y[-1] + 4 * np.sum(y[1:-1:2]) + 2 * np.sum(y[2:-2:2]))


# ------------------------------------------------------------- coefficients

def test_b2_bound_is_half_for_beta_zero():
    for delta in (0, 0.5, 1, 3):
        assert bn_bound(ClassParams(0, 0, delta), 2) == 0.5


def test_b2_bound_hand_value():
    assert bn_bound(ClassParams(0, 0.5, 0), 2) == pytest.approx(0.625)


def test_b3_bound_hand_value():
    assert bn_bound(P011, 3) == pytest.approx(0.5)


def test_bn_bound_rejections():
    with pytest.raises(ValueError):
        bn_bound(P011, 1)
    with pytest.raises(ValueError):
        bn_bound(ClassParams(0, 0, -1), 2)


def test_bn_bounds_rejections():
    for n_top in (1, MAX_TRUNCATION_ORDER + 1):
        with pytest.raises(ValueError, match="coefficient index"):
            bn_bounds(P011, n_top)
    with pytest.raises(ValueError, match="delta"):
        bn_bounds(ClassParams(0, 0, -1), 3)


# every index up to 64, then a spread of indices up to 3000
_BN_INDICES = [*range(2, 65), *range(65, 3000, 37), 3000]


@pytest.mark.parametrize("params", PARAM_GRID, ids=str)
def test_bn_bound_is_an_entry_of_bn_bounds(params):
    table = bn_bounds(params, 3000)
    for n in _BN_INDICES:
        assert np.float64(bn_bound(params, n)).tobytes() == table[n - 2].tobytes(), n
        assert bn_bound(params, n) == bn_bounds(params, n)[-1]


def _bn_fsum(params, n):
    """The coefficient bound of index n >= 3 with its partial sum exactly rounded."""
    alpha, beta, delta = params.alpha, params.beta, params.delta
    partial = math.fsum(k ** (1.0 - delta) / (k - alpha) for k in range(1, n))
    return (1 - alpha) * (1 - beta * beta) / n * partial + (1 - alpha) * beta / (
        n**delta * (n - alpha)
    )


@pytest.mark.parametrize("params", PARAM_GRID, ids=str)
def test_bn_bounds_match_exactly_summed_oracle(params):
    table = bn_bounds(params, 3000)
    for n in _BN_INDICES[1:]:
        oracle = _bn_fsum(params, n)
        assert abs(table[n - 2] - oracle) <= 1e-14 * oracle, n


def test_digamma_form_values():
    assert bn_bound_digamma(0, 3) == pytest.approx(0.5, abs=1e-12)
    assert bn_bound_digamma(0, 4) == pytest.approx(11 / 24, abs=1e-12)


def test_digamma_form_rejections():
    with pytest.raises(ValueError):
        bn_bound_digamma(0, 2)
    with pytest.raises(ValueError):
        bn_bound_digamma(1.0, 3)


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.9])
def test_digamma_form_matches_sum_form(alpha):
    for n in range(3, 13):
        direct = bn_bound(ClassParams(alpha, 0, 1), n)
        assert bn_bound_digamma(alpha, n) == pytest.approx(direct, abs=1e-10)


def test_bn_bound_monotone_in_delta():
    deltas = [0.0, 0.5, 1.0, 2.0]
    for alpha in (0.0, 0.4):
        for beta in (0.0, 0.5):
            for n in (2, 3, 5, 8):
                vals = [bn_bound(ClassParams(alpha, beta, d), n) for d in deltas]
                assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


# ----------------------------------------------------------------- envelopes

def test_hprime_envelope_at_origin():
    env = hprime_envelope(P011, 0.0)
    assert (env.lower, env.upper) == (1.0, 1.0)


def test_hprime_envelope_half():
    env = hprime_envelope(P011, 0.5)
    assert (env.lower, env.upper) == (0.75, 1.25)


def test_hprime_envelope_collapses_as_alpha_to_one():
    env = hprime_envelope(ClassParams(1 - 1e-9, 0, 1), 0.9)
    assert env.lower == pytest.approx(1.0, abs=1e-8)
    assert env.upper == pytest.approx(1.0, abs=1e-8)


def test_hprime_envelope_rejects_radius():
    with pytest.raises(ValueError):
        hprime_envelope(P011, 1.0)


def test_hprime_lower_side_stays_positive_at_slope_one():
    # delta = 0, alpha = 0 puts the slope at 1; the lower side stays > 0 for r < 1
    params = ClassParams(0, 0, 0)
    assert distortion_slope(params) == 1.0
    env = hprime_envelope(params, float(np.nextafter(1.0, 0.0)))
    assert env.lower > 0.0


def test_dilatation_envelope_at_origin():
    env = dilatation_envelope(0.4, 0.0)
    assert (env.lower, env.upper) == (0.4, 0.4)


def test_dilatation_envelope_half_half():
    env = dilatation_envelope(0.5, 0.5)
    assert env.lower == 0.0
    assert env.upper == pytest.approx(0.8)


def test_dilatation_envelope_schwarz_case():
    for r in (0.1, 0.5, 0.9):
        env = dilatation_envelope(0.0, r)
        assert (env.lower, env.upper) == (r, r)


def test_gprime_envelope_at_origin():
    env = gprime_envelope(ClassParams(0, 0.3, 1), 0.0)
    assert (env.lower, env.upper) == (0.3, 0.3)


def test_gprime_envelope_half():
    env = gprime_envelope(P011, 0.5)
    assert (env.lower, env.upper) == (pytest.approx(0.375), pytest.approx(0.625))


def test_gprime_envelope_kink_zero():
    env = gprime_envelope(ClassParams(0.2, 0.4, 1), 0.4)
    assert env.lower == 0.0


def test_gprime_envelope_is_the_product_of_the_sides():
    rng = np.random.default_rng(24)
    for _ in range(2000):
        alpha, beta, r = rng.uniform(0.0, 1.0, 3)
        params = ClassParams(float(alpha), float(beta), float(rng.uniform(0.0, 3.0)))
        hp, wv = hprime_envelope(params, float(r)), dilatation_envelope(params.beta, float(r))
        env = gprime_envelope(params, float(r))
        assert (env.lower, env.upper) == (wv.lower * hp.lower, wv.upper * hp.upper)


@pytest.mark.parametrize("params", PARAM_GRID)
def test_envelopes_keep_lower_below_upper(params):
    for r in np.linspace(0, 0.999, 30):
        for env in (hprime_envelope(params, r), gprime_envelope(params, r)):
            assert env.lower <= env.upper


def test_bound_envelope_rejects_inversion():
    with pytest.raises(ValueError):
        BoundEnvelope(lower=1.0, upper=0.5, at=0.1)


# ------------------------------------------------------------------ g-growth

def test_g_growth_quarter_point():
    env = g_growth_bounds(ClassParams(0, 0.5, 1), 0.5)
    assert env.upper == pytest.approx(0.375, abs=1e-12)
    oracle = simpson(lambda x: (0.5 + x) / (1 + 0.5 * x) * (1 + 0.5 * x), 0, 0.5)
    assert env.upper == pytest.approx(oracle, abs=1e-10)


def test_g_growth_zero_radius():
    env = g_growth_bounds(ClassParams(0.2, 0.4, 1), 0.0)
    assert (env.lower, env.upper) == (0.0, 0.0)


def test_g_growth_beta_zero_limits():
    env = g_growth_bounds(P011, 1 - 1e-6)
    assert env.upper == pytest.approx(2 / 3, abs=3e-6)
    assert env.lower == pytest.approx(1 / 3, abs=3e-6)


def test_g_growth_small_beta_switch_is_continuous():
    # the quadrature branch (beta < 1e-3) must meet the closed branch
    lo = g_growth_bounds(ClassParams(0, 9e-4, 1), 0.6)
    hi = g_growth_bounds(ClassParams(0, 2e-3, 1), 0.6)
    assert abs(lo.upper - hi.upper) < 2e-3
    assert abs(lo.lower - hi.lower) < 2e-3
    # below the switch the bounds are the quadrature form, bit for bit
    small = ClassParams(0.3, 5e-4, 1)
    assert g_growth_bounds(small, 0.6) == g_growth_quadrature(small, 0.6)


def test_g_growth_closed_matches_quadrature_inside_beta():
    for params, r in [
        (ClassParams(0, 0.5, 1), 0.3),
        (ClassParams(0.5, 0.9, 0), 0.8),
        (ClassParams(0, 0.7, 2), 0.69),
    ]:
        closed = g_growth_bounds(params, r)
        quad = g_growth_quadrature(params, r)
        assert closed.lower == pytest.approx(quad.lower, abs=1e-9)
        assert closed.upper == pytest.approx(quad.upper, abs=1e-9)


def test_g_growth_crosscheck_flags_lower_beyond_beta():
    check = g_growth_crosscheck(ClassParams(0, 0.5, 1), 0.8)
    assert not check.agrees
    assert check.upper_diff < 1e-10
    recs = check.discrepancies()
    assert len(recs) == 1
    assert recs[0]["side"] == "lower"
    assert recs[0]["quadrature"] > recs[0]["closed_form"]


def test_g_growth_crosscheck_clean_inside_beta():
    check = g_growth_crosscheck(ClassParams(0, 0.5, 1), 0.4)
    assert check.agrees
    assert check.discrepancies() == []


@pytest.mark.parametrize("beta", [0.0, 0.0005, 0.5])
def test_g_growth_crosscheck_integrates_the_envelope_once(monkeypatch, beta):
    """Below the beta switch the closed side is the quadrature itself: the
    crosscheck makes the integrand calls of one ``g_growth_quadrature`` and
    returns its values on both sides, bit for bit."""
    import harmclass.bounds as bounds_mod

    calls = []
    for name in ("_gprime_lower_integrand", "_gprime_upper_integrand"):
        make = getattr(bounds_mod, name)

        def counted(params, make=make):
            f = make(params)
            return lambda x: calls.append(x) or f(x)

        monkeypatch.setattr(bounds_mod, name, counted)
    params = ClassParams(0.3, beta, 1)
    quad = g_growth_quadrature(params, 0.6)
    one_quadrature = len(calls)
    calls.clear()
    check = g_growth_crosscheck(params, 0.6)
    assert check.quadrature == quad
    if beta < 1e-3:
        assert len(calls) == one_quadrature
        assert check.closed == quad and check.agrees
    else:
        assert len(calls) == one_quadrature  # the closed forms integrate nothing
        assert check.closed == g_growth_bounds(params, 0.6)


# ---------------------------------------------------------------------- area

def test_area_closed_forms():
    env = area_envelope(P011, 1e-10)
    assert env.lower == pytest.approx(11 * math.pi / 40, abs=1e-10)
    assert env.upper == pytest.approx(97 * math.pi / 120, abs=1e-10)


def test_area_simpson_oracle():
    params = ClassParams(0.3, 0.4, 1)
    c = distortion_slope(params)
    lower_oracle = 2 * math.pi * simpson(
        lambda r: r * (1 - c * r) ** 2 * (1 - ((0.4 + r) / (1 + 0.4 * r)) ** 2), 0, 1
    )
    upper_oracle = 2 * math.pi * simpson(
        lambda r: r * (1 + c * r) ** 2 * (1 - ((0.4 - r) / (1 - 0.4 * r)) ** 2), 0, 1
    )
    env = area_envelope(params, 1e-10)
    assert env.lower == pytest.approx(lower_oracle, abs=1e-9)
    assert env.upper == pytest.approx(upper_oracle, abs=1e-9)


def test_area_vanishes_as_beta_to_one():
    uppers = [area_envelope(ClassParams(0, b, 1), 1e-10).upper for b in (0.9, 0.99, 0.9999)]
    assert uppers[0] > uppers[1] > uppers[2]
    assert uppers[2] < 0.04
    assert area_envelope(ClassParams(0, 0.9999, 1), 1e-10).lower < 1e-3


def test_area_rejects_bad_tol():
    with pytest.raises(ValueError):
        area_envelope(P011, 0.0)


# -------------------------------------------------------------------- growth

def test_f_growth_zero_radius():
    env = f_growth(ClassParams(0.1, 0.2, 1), 0.0)
    assert (env.lower, env.upper) == (0.0, 0.0)


def test_f_growth_limits_at_unit_radius():
    env = f_growth(P011, 1 - 1e-9)
    assert env.lower == pytest.approx(7 / 12, abs=1e-8)
    assert env.upper == pytest.approx(23 / 12, abs=1e-8)


@pytest.mark.parametrize("params", PARAM_GRID)
def test_f_growth_consistency_with_scalar_limits(params):
    # the upper side differs from the limit by O(1 - r) ~ 4e-9 at this radius
    tol = 1e-10
    env = f_growth(params, 1 - 1e-9, tol)
    assert env.lower == pytest.approx(covering_radius(params, tol), abs=2e-9)
    assert env.upper == pytest.approx(normality_constant(params, tol), abs=1e-8)


@pytest.mark.parametrize("params", PARAM_GRID)
def test_f_growth_floor_stays_below_stated_lower(params):
    for r in (0.2, 0.6, 0.95):
        assert f_growth_floor(params, r) <= f_growth(params, r).lower + 1e-12


def test_f_growth_floor_simpson_oracle():
    params = ClassParams(0.2, 0.3, 1)
    c = distortion_slope(params)
    oracle = simpson(lambda x: (1 - c * x) * 0.7 * (1 - x) / (1 + 0.3 * x), 0, 0.8)
    assert f_growth_floor(params, 0.8) == pytest.approx(oracle, abs=1e-9)


def test_normality_constant_reference_point():
    assert normality_constant(P011) == pytest.approx(23 / 12, abs=1e-10)


def test_normality_constant_alpha_limit():
    assert normality_constant(ClassParams(1 - 1e-12, 0, 1)) == pytest.approx(1.5, abs=1e-9)


def test_covering_radius_reference_point():
    assert covering_radius(P011, 1e-10) == pytest.approx(7 / 12, abs=1e-9)


def test_covering_radius_floor_reference_point():
    assert covering_radius_floor(P011, 1e-10) == pytest.approx(5 / 12, abs=1e-9)


def test_covering_radius_vanishes_as_beta_to_one():
    assert covering_radius(ClassParams(0, 1 - 1e-9, 1)) < 1e-6


def test_covering_radius_alpha_limit():
    assert covering_radius(ClassParams(1 - 1e-12, 0, 1)) == pytest.approx(0.5, abs=1e-9)


# --------------------------------------------------------------------- bloch

def test_bloch_quartic_reference_coefficients():
    assert np.allclose(bloch_H_poly(P011), [3, -2, -9, -4, 0])


@pytest.mark.parametrize("params", PARAM_GRID)
def test_bloch_quartic_endpoint_signs(params):
    coeffs = bloch_H_poly(params)
    poly = np.polynomial.Polynomial(coeffs)
    h0 = poly(0.0)
    h1 = poly(1.0)
    d2 = 2.0 ** (params.delta - 1) * (2 - params.alpha)
    assert h0 > 0
    assert h0 == pytest.approx(d2 * (1 - params.beta) + (1 - params.alpha), abs=1e-12)
    assert h1 == pytest.approx(-4 * (1 + params.beta) * (d2 + (1 - params.alpha)), abs=1e-12)


def test_bloch_reference_point():
    result = bloch_bound(P011)
    # frozen from the companion-matrix root oracle and direct profile evaluation
    assert result.r0 == pytest.approx(0.4430004681646913, abs=1e-9)
    assert result.bound == pytest.approx(1.4167112045001755, abs=1e-9)
    assert result.H_coeffs == (3.0, -2.0, -9.0, -4.0, 0.0)


def test_bloch_bracket_brackets_the_root():
    result = bloch_bound(P011)
    poly = np.polynomial.Polynomial(bloch_H_poly(P011))
    lo, hi = result.bracket
    assert lo <= result.r0 <= hi
    assert poly(0.4) > 0 > poly(0.5)
    assert abs(poly(result.r0)) < 1e-12


def test_bloch_root_is_bisection_on_numpy_horner():
    """On a seeded 6 x 6 x 6 lattice, r0 and the bracket equal exactly the
    bisection of the quartic evaluated by ``np.polynomial.polynomial.polyval``,
    which runs the same Horner order as ``Polynomial``."""
    rng = np.random.default_rng(2018)
    axes = (rng.uniform(0.0, 1.0, 6), rng.uniform(0.0, 1.0, 6), rng.uniform(0.0, 3.0, 6))
    for alpha, beta, delta in itertools.product(*axes):
        params = ClassParams(float(alpha), float(beta), float(delta))
        coeffs = bloch_H_poly(params)
        lo, hi = bisect_bracket(
            lambda x: np.polynomial.polynomial.polyval(x, coeffs), 0.0, 1.0, _BLOCH_BRACKET_WIDTH
        )
        result = bloch_bound(params)
        assert result.bracket == (lo, hi)
        assert result.r0 == 0.5 * (lo + hi)


@pytest.mark.parametrize("params", PARAM_GRID)
def test_bloch_r0_matches_eigenvalue_oracle(params):
    result = bloch_bound(params)
    roots = np.polynomial.Polynomial(bloch_H_poly(params)).roots()
    real = [z.real for z in roots if abs(z.imag) < 1e-10 and 0 < z.real < 1]
    assert len(real) == 1
    assert result.r0 == pytest.approx(real[0], abs=1e-10)


@pytest.mark.parametrize("params", PARAM_GRID)
def test_bloch_bound_is_profile_maximum(params):
    result = bloch_bound(params)
    alpha, beta, delta = params.alpha, params.beta, params.delta
    prefactor = (1 + beta) / ((2 - alpha) * 2 ** (delta - 1))
    d2 = 2 ** (delta - 1) * (2 - alpha)
    r = np.linspace(1e-4, 1 - 1e-4, 200)
    profile = prefactor * (
        ((1 + r - r**2 - r**3) * d2 + (1 - alpha) * (r + r**2 - r**3 - r**4)) / (1 + beta * r)
    )
    assert result.bound >= np.max(profile) * (1 - 1e-9)


def test_bloch_profile_factored_form_matches_expanded_quartic():
    # r below 0.9 covers every critical radius (H(1/2) <= 0, so r0 <= 1/2); towards
    # r = 1 the expanded form loses digits to the cancellation in 1 + r - r^2 - r^3.
    rng = np.random.default_rng(1809)
    for _ in range(2000):
        alpha, beta, r = (float(x) for x in rng.uniform(0.0, 1.0, 3))
        r *= 0.9
        delta = float(rng.uniform(0.0, 3.0))
        d2 = 2.0 ** (delta - 1.0) * (2.0 - alpha)
        expanded = (
            (1 + r - r**2 - r**3) * d2 + (1 - alpha) * (r + r**2 - r**3 - r**4)
        ) / (1 + beta * r)
        got = _bloch_profile(ClassParams(alpha, beta, delta), r)
        assert abs(got - expanded) <= 1e-15 * abs(expanded)


def test_bloch_L_coefficients_negative():
    for params in PARAM_GRID:
        for r in np.linspace(0.05, 0.95, 10):
            a0, a1 = bloch_L_coeffs(params, r)
            assert a0 < 0
            assert a1 < 0


def test_bloch_raises_on_unexpected_root_count(monkeypatch):
    import harmclass.bounds as bounds_mod

    # (x^2 - 0.04)(x^2 - 0.64): two roots inside (0, 1)
    fake = np.array([0.0256, 0.0, -0.68, 0.0, 1.0])
    monkeypatch.setattr(bounds_mod, "bloch_H_poly", lambda params: fake)
    monkeypatch.setattr(bounds_mod, "bisect_bracket", lambda *args: pytest.fail("bisected"))
    with pytest.raises(RootCountError, match="variation count is 2"):
        bounds_mod.bloch_bound(P011)


def test_bloch_rejects_negative_delta():
    with pytest.raises(ValueError):
        bloch_bound(ClassParams(0, 0, -0.1))
