import itertools
import json
import math
from decimal import Decimal

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
    gprime_envelope,
    hprime_envelope,
    normality_constant,
)
import harmclass.bounds as bounds_mod
import oracle_decimal
from harmclass import cli
from harmclass.bounds import MAX_COEFF_INDEX, _bloch_profile
from harmclass.errors import RootCountError
from harmclass.model import ClassParams
from harmclass.numerics import adaptive_quadrature
from harmclass.verify import _EnvelopeTable, default_polar_grid

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
    for n_top in (1, MAX_COEFF_INDEX + 1):
        with pytest.raises(ValueError, match="coefficient index"):
            bn_bounds(P011, n_top)
    with pytest.raises(ValueError, match="delta"):
        bn_bounds(ClassParams(0, 0, -1), 3)


@pytest.mark.parametrize(
    "call", [lambda p: bn_bound(p, 2.5), lambda p: bn_bounds(p, 3.7)], ids=["bn_bound", "bn_bounds"]
)
def test_non_integral_coefficient_index_is_rejected(call):
    # 2.5 used to return the n = 3 bound, and 3.7 three entries (n = 2..4)
    with pytest.raises(ValueError, match="integer"):
        call(ClassParams(0.3, 0.5, 1))


def test_integral_float_coefficient_index_is_accepted():
    params = ClassParams(0.3, 0.5, 1)
    assert bn_bounds(params, 4.0).tobytes() == bn_bounds(params, 4).tobytes()
    assert bn_bound(params, 3.0) == bn_bound(params, 3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta", [645.5, 700.0])
def test_bn_bounds_at_large_delta_take_the_limit_without_a_warning(delta):
    """n^delta overflows from delta ~ 646 at n = 3, and n^delta (n - alpha)
    already at 645.5; the term they divide goes to 0."""
    got = bn_bounds(ClassParams(0.3, 0.5, delta), 4).tolist()
    assert got == [0.375, 0.24999999999999994, 0.18749999999999997]


# every index up to 64, then a spread of indices up to 3000
_BN_INDICES = [*range(2, 65), *range(65, 3000, 37), 3000]

# 1 - delta = 0.5 and -0.5, and delta past 645, where 3^delta overflows
_BN_PARAMS = [
    *PARAM_GRID,
    *(ClassParams(0.3, 0.5, delta) for delta in (0.5, 1.5, 645.5, 700.0, 1023.5)),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("params", _BN_PARAMS, ids=str)
def test_bn_bound_is_an_entry_of_bn_bounds(params):
    table = bn_bounds(params, 3000)
    for n in _BN_INDICES:
        assert np.float64(bn_bound(params, n)).tobytes() == table[n - 2].tobytes(), n
        assert bn_bound(params, n) == bn_bounds(params, n)[-1]


@pytest.mark.filterwarnings("error")
def test_bn_bound_is_an_entry_of_bn_bounds_at_seeded_fractional_delta():
    """Numpy's power and Python's ** round differently for some fractional
    exponents; 2000 seeded points catch a term formed with the wrong one."""
    rng = np.random.default_rng(20180914)
    for alpha, beta, delta in rng.uniform(0.0, 1.0, (2000, 3)).tolist():
        params = ClassParams(alpha, beta, 3.0 * delta)
        table = bn_bounds(params, 12)
        for n in range(3, 13):
            assert np.float64(bn_bound(params, n)).tobytes() == table[n - 2].tobytes(), (params, n)


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
        BoundEnvelope(lower=1.0, upper=0.5)


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


@pytest.mark.parametrize("beta", [0.0, 5e-4, 9e-4, 2e-3, 0.5, 0.99])
def test_g_growth_bounds_take_one_path_for_every_beta(beta):
    """The stated forms are the integrals they equal at every beta, with no
    switch: the upper side is the exact integral's bit for bit, and so is the
    lower side up to r = beta and at beta = 0; past r = beta the stated
    lower side |A(r)| is below the integral of the |g'| lower envelope."""
    params = ClassParams(0.3, beta, 1)
    for r in (0.0, 1e-4, 4e-4, 8e-4, 1e-3, 0.01, 0.3, 0.5, 0.6, 0.95, 0.999, beta):
        stated, exact = g_growth_bounds(params, r), g_growth_crosscheck(params, r).quadrature
        assert stated.upper == exact.upper, r
        if r <= beta or beta == 0.0:
            assert stated.lower == exact.lower, r
        else:
            assert stated.lower < exact.lower, r


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta", [1020.5, 1023.5, 1024.0 - 2.0**-43])
@pytest.mark.parametrize("alpha, beta", itertools.product((0.0, 0.3, 0.9), (0.01, 0.5, 0.99)))
def test_g_growth_bounds_stay_finite_up_to_delta_1024(alpha, beta, delta):
    """2^delta (2 - alpha) overflows from delta ~ 1023, where a closed form
    divided by it would read NaN; the bounds integrate with the slope
    c = (1 - alpha)/((2 - alpha) 2^(delta - 1)), which tends to 0 and never
    overflows, and take the delta = 1000 values."""
    for r in (0.0, 0.3, 0.5, 0.999):
        got = g_growth_bounds(ClassParams(alpha, beta, delta), r)
        reference = g_growth_bounds(ClassParams(alpha, beta, 1000.0), r)
        assert got.lower == pytest.approx(reference.lower, rel=1e-12, abs=1e-300)
        assert got.upper == pytest.approx(reference.upper, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("deltas, bound", [((990.0, 1022.0), 2e-13), ((0.0, 3.0), 2e-12)])
def test_g_growth_bounds_are_the_stated_closed_forms(deltas, bound):
    """The paper's closed forms (|F|, E) / (2^delta (2-alpha) beta^3), taken
    literally in floats where 2^delta is finite and beta >= 0.05, are the
    integrals that ``g_growth_bounds`` evaluates, to ``bound`` times the
    upper side.  The difference is the rounding of the literal forms, whose
    terms cancel down to beta^3 times the bound: over 20 000 random points
    it reached 8.4e-14 for delta in [990, 1022] and 1.0e-12 for delta in
    [0, 3] (1.4e-14 and 1.8e-13 on the points here)."""
    rng = np.random.default_rng(1023)
    for _ in range(300):
        alpha, beta, r = rng.uniform(0.0, 1.0, 3).tolist()
        params = ClassParams(alpha, max(beta, 0.05), float(rng.uniform(*deltas)))
        d = 2.0**params.delta * (2.0 - alpha)
        b = params.beta
        e_val = r * b * (d * b - (1.0 - alpha) * (2.0 - (r + 2.0 * b) * b)) + (
            2.0 - 2.0 * alpha - d * b
        ) * (1.0 - b * b) * math.log1p(r * b)
        f_val = r * b * (-d * b + (1.0 - alpha) * (2.0 + (r - 2.0 * b) * b)) + (
            2.0 - 2.0 * alpha - d * b
        ) * (1.0 - b * b) * math.log1p(-r * b)
        got = g_growth_bounds(params, r)
        assert abs(got.lower - abs(f_val) / (d * b**3)) <= bound * got.upper
        assert abs(got.upper - e_val / (d * b**3)) <= bound * got.upper


def test_g_growth_closed_matches_quadrature_inside_beta():
    for params, r in [
        (ClassParams(0, 0.5, 1), 0.3),
        (ClassParams(0.5, 0.9, 0), 0.8),
        (ClassParams(0, 0.7, 2), 0.69),
    ]:
        closed = g_growth_bounds(params, r)
        quad = g_growth_crosscheck(params, r).quadrature
        assert closed.lower == pytest.approx(quad.lower, abs=1e-9)
        assert closed.upper == pytest.approx(quad.upper, abs=1e-9)


def test_g_growth_crosscheck_flags_lower_beyond_beta():
    check = g_growth_crosscheck(ClassParams(0, 0.5, 1), 0.8)
    assert not check.agrees
    assert check.closed.upper == check.quadrature.upper
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
    """The crosscheck integrates each side of the |g'| envelope once: the
    stated envelope is ``g_growth_bounds``, whose upper side the exact
    envelope shares bit for bit, and the exact lower side is the integral of
    the |g'| lower envelope, which at beta = 0 is the stated one."""

    calls = []
    for name in ("_gprime_lower_integral", "_gprime_upper_integral"):
        integral = getattr(bounds_mod, name)

        def counted(params, r, integral=integral, name=name):
            calls.append(name)
            return integral(params, r)

        monkeypatch.setattr(bounds_mod, name, counted)
    params = ClassParams(0.3, beta, 1)
    check = g_growth_crosscheck(params, 0.6)
    assert sorted(calls) == ["_gprime_lower_integral", "_gprime_upper_integral"]
    exact = BoundEnvelope(
        lower=bounds_mod._gprime_lower_integral(params, 0.6),
        upper=bounds_mod._gprime_upper_integral(params, 0.6),
    )
    assert check.quadrature == exact
    assert check.closed == g_growth_bounds(params, 0.6)
    assert check.closed.upper == check.quadrature.upper
    if beta == 0.0:
        assert check.closed == exact and check.agrees


@pytest.mark.parametrize("alpha, delta", [(0.0, 0.0), (0.3, 1.0), (0.9, 3.5)])
def test_g_growth_crosscheck_agrees_exactly_where_the_stated_form_is_exact(alpha, delta):
    """``agrees`` is the bit-for-bit equality of the two lower sides, and the
    upper sides are one float.  The lower sides agree at r <= beta and at
    beta = 0, and not at r = 0.50001 or 0.8 past beta.  At the float after
    beta the split, about (r - beta)^2 (1 - c beta)/(1 - beta^2), is far
    below the last bit, so there the sides are one rounding apart at most,
    either way."""
    for beta in (0.0, 5e-5, 0.5, 0.99):
        params = ClassParams(alpha, beta, delta)
        for r in (beta, math.nextafter(beta, 1.0), 0.50001, 0.8):
            check = g_growth_crosscheck(params, r)
            assert check.agrees == (check.closed.lower == check.quadrature.lower)
            assert check.closed.upper == check.quadrature.upper, (beta, r)
            if r <= beta or beta == 0.0:
                assert check.agrees and check.discrepancies() == [], (beta, r)
            elif r == math.nextafter(beta, 1.0):
                diff = abs(check.closed.lower - check.quadrature.lower)
                assert diff <= 3e-15 * check.quadrature.upper, (beta, r)
            else:
                assert not check.agrees, (beta, r)
                (record,) = check.discrepancies()
                assert record["side"] == "lower" and record["abs_diff"] > 0.0


_RADIUS_FUNCTIONS = {
    "hprime_envelope": lambda r: hprime_envelope(P011, r),
    "dilatation_envelope": lambda r: dilatation_envelope(0.5, r),
    "gprime_envelope": lambda r: gprime_envelope(P011, r),
    "g_growth_bounds": lambda r: g_growth_bounds(P011, r),
    "g_growth_crosscheck": lambda r: g_growth_crosscheck(P011, r),
    "f_growth": lambda r: f_growth(P011, r),
    "f_growth_floor": lambda r: f_growth_floor(P011, r),
}


@pytest.mark.parametrize("name", sorted(_RADIUS_FUNCTIONS))
def test_radius_functions_reject_negative_zero(name):
    """-0.0 compares equal to 0.0, but the bounds would carry its sign into
    the modulus bounds; every public radius function rejects it, as it
    rejects radii outside [0, 1), and takes +0.0."""
    call = _RADIUS_FUNCTIONS[name]
    for r in (-0.0, -1e-300, 1.0, math.nan):
        with pytest.raises(ValueError, match="radius must be in"):
            call(r)
    call(0.0)


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


# ------------------------------------------------ closed forms against quadrature

_ORACLE_LATTICE = [
    ClassParams(alpha, beta, delta)
    for alpha in (0.0, 0.3, 0.6, 0.9)
    for beta in (0.0, 1e-4, 0.3, 0.6, 0.9, 0.99, 0.999)
    for delta in (0.0, 1.0, 2.0)
]


def _oracle(f, r, beta):
    """``adaptive_quadrature`` of ``f`` over [0, r] at tol 1e-13, split at beta."""
    cuts = [0.0, *([beta] if 0.0 < beta < r else []), r]
    return sum(adaptive_quadrature(f, a, b, 1e-13) for a, b in zip(cuts, cuts[1:]))


def _assert_close(got, oracle, what):
    assert abs(got - oracle) <= 1e-14 * max(1.0, abs(oracle)), (what, got, oracle)


@pytest.mark.parametrize("params", _ORACLE_LATTICE, ids=str)
def test_closed_forms_match_quadrature_oracle(params):
    """Every exact radial integral is within 1e-14 * max(1, |value|) of the
    quadrature of its integrand."""
    beta, c = params.beta, distortion_slope(params)
    g_upper = lambda x: (beta + x) / (1.0 + beta * x) * (1.0 + c * x)
    g_lower = lambda x: abs(beta - x) / (1.0 - beta * x) * (1.0 - c * x)

    def f_lower(sign):
        return lambda x: (1.0 + sign * c * x) * (1.0 - beta) * (1.0 - x) / (1.0 + beta * x)

    def area(sign):
        def integrand(r):
            ratio = (beta - sign * r) / (1.0 - sign * beta * r)
            return r * (1.0 + sign * c * r) ** 2 * (1.0 - ratio * ratio)

        return 2.0 * math.pi * _oracle(integrand, 1.0, 0.0)

    env = area_envelope(params)
    _assert_close(env.lower, area(-1.0), "area lower")
    _assert_close(env.upper, area(1.0), "area upper")
    _assert_close(normality_constant(params), 1.0 + 0.5 * c + _oracle(g_upper, 1.0, beta), "M")
    _assert_close(covering_radius(params), _oracle(f_lower(1.0), 1.0, beta), "covering")
    _assert_close(covering_radius_floor(params), _oracle(f_lower(-1.0), 1.0, beta), "floor")
    for r in (0.05, 0.25, 0.5, 0.75, 0.995, beta):
        upper = _oracle(g_upper, r, beta)
        fg = f_growth(params, r)
        _assert_close(fg.lower, _oracle(f_lower(1.0), r, beta), ("f lower", r))
        _assert_close(fg.upper, r + 0.5 * c * r * r + upper, ("f upper", r))
        _assert_close(f_growth_floor(params, r), _oracle(f_lower(-1.0), r, beta), ("f floor", r))
        exact = g_growth_crosscheck(params, r).quadrature
        _assert_close(exact.lower, _oracle(g_lower, r, beta), ("g lower", r))
        _assert_close(exact.upper, upper, ("g upper", r))
        stated = g_growth_bounds(params, r)
        assert stated.upper == exact.upper
        if beta == 0.0 or r <= beta:
            assert stated == exact


@pytest.mark.parametrize("params", _ORACLE_LATTICE, ids=str)
def test_envelope_table_columns_match_quadrature_oracle(params):
    """Every radial integral of the table is within 1e-14 * max(1, |value|)
    of the quadrature of its integrand, on every radius of the default grid."""
    table = _EnvelopeTable(params, default_polar_grid())
    beta, c = params.beta, distortion_slope(params)
    integrands = {
        "g_upper": lambda x: (beta + x) / (1.0 + beta * x) * (1.0 + c * x),
        "g_lower": lambda x: abs(beta - x) / (1.0 - beta * x) * (1.0 - c * x),
        "f_floor": lambda x: (1.0 - c * x) * (1.0 - beta) * (1.0 - x) / (1.0 + beta * x),
    }
    for i, r in enumerate(table.grid.radii.tolist()):
        oracle = {name: _oracle(f, r, beta) for name, f in integrands.items()}
        oracle["f_upper"] = r + 0.5 * c * r * r + oracle["g_upper"]
        for name, value in oracle.items():
            got = getattr(table, name)[i, 0]
            assert abs(got - value) <= 1e-14 * max(1.0, abs(value)), (name, r)


def test_envelope_table_columns_equal_the_point_bounds():
    """Each table column is the point bound at its radius, bit for bit, on the
    whole lattice, and so are the table's area, covering and Bloch bounds."""
    grid = default_polar_grid()
    for params in _ORACLE_LATTICE:
        table = _EnvelopeTable(params, grid)
        for i, r in enumerate(grid.radii.tolist()):
            hp, gp = hprime_envelope(params, r), gprime_envelope(params, r)
            g = g_growth_crosscheck(params, r).quadrature
            point = {
                "hprime_lower": hp.lower, "hprime_upper": hp.upper,
                "gprime_lower": gp.lower, "gprime_upper": gp.upper,
                "g_lower": g.lower, "g_upper": g.upper,
                "f_upper": f_growth(params, r).upper, "f_floor": f_growth_floor(params, r),
            }
            for name, value in point.items():
                assert getattr(table, name)[i, 0] == value, (params, name, r)
        assert table.covering_floor == f_growth_floor(params, 0.999)
        assert table.area_envelope == area_envelope(params)
        assert table.bloch_bound == bloch_bound(params).bound


# ----------------------------------------------------------- decimal oracle

#: Largest relative error of each bound against ``oracle_decimal`` on
#: ``_decimal_oracle_points()``: the measured maximum, rounded up with room
#: for another libm.  "bn" is ``bn_bounds`` for n = 2..12; the envelope sides
#: are taken at the radii of the quadrature oracle and beta.  The |w| and |g'|
#: lower sides read 2.7e-16 and 5.4e-16: their 1 - beta r is summed as
#: (1 - beta) + beta (1 - r), which does not cancel near beta r = 1.  The
#: "g_stated" sides are ``g_growth_bounds``; past r = beta its lower side
#: |A(r)| crosses 0, so there ("g_stated_lower_past_beta") its error is taken
#: relative to the upper side.  "moments" and "moments_squared" are
#: ``bounds._moments`` on their own, on ``_decimal_oracle_moment_points()``.
_DECIMAL_ORACLE_BOUNDS = {
    "bn": 1e-15,
    "hprime_lower": 1e-15,
    "hprime_upper": 5e-16,
    "w_lower": 5e-16,
    "w_upper": 5e-16,
    "gprime_lower": 1e-15,
    "gprime_upper": 5e-16,
    "g_upper": 1e-15,
    "g_lower": 2e-15,
    "g_stated_upper": 1e-15,
    "g_stated_lower": 1e-15,
    "g_stated_lower_past_beta": 5e-16,
    "f_upper": 5e-16,
    "f_lower": 1e-15,
    "f_floor": 1e-15,
    "area_lower": 5e-15,
    "area_upper": 2e-15,
    "normality": 5e-16,
    "covering": 1e-15,
    "covering_floor": 1e-15,
    "bloch_r0": 5e-16,
    "bloch_bound": 1e-15,
    "moments": 5e-16,
    "moments_squared": 1e-15,
}


def _decimal_oracle_points():
    """The 84-point lattice, 40 seeded points with alpha up to 0.99 and beta
    up to 0.9999 (every other one close to 1), and 16 past delta = 1000."""
    rng = np.random.default_rng(9999)
    points = list(_ORACLE_LATTICE)
    for i in range(40):
        alpha, delta = float(rng.uniform(0.0, 0.99)), float(rng.uniform(0.0, 3.0))
        beta = float(rng.uniform(0.0, 0.9999)) if i % 2 else 1.0 - 10.0 ** float(rng.uniform(-4, -1))
        points.append(ClassParams(alpha, beta, delta))
    for alpha, beta, delta in rng.uniform(0.0, 1.0, (16, 3)).tolist():
        points.append(ClassParams(0.99 * alpha, 0.9999 * beta, 1000.0 + 24.0 * delta))
    return points


def _decimal_oracle_moment_points():
    """(t, squared) where ``_kernel_integral`` takes the moments: by the
    series for t in [-1/2, 1/2] (squared: [-4/5, 1/2]), and by the upward
    run for t > 1 (squared: t > 4, the area's), each range with its ends and
    20 seeded points, log-uniform up to 1e9 above."""
    rng = np.random.default_rng(4096)
    points = []
    for squared, low, high in ((False, -0.5, 1.0), (True, -0.8, 4.0)):
        below = [low, -0.25, 0.0, 1e-9, 0.5, *rng.uniform(low, 0.5, 20).tolist()]
        above = [math.nextafter(high, 2.0 * high), 1e9]
        above += (high * 10.0 ** rng.uniform(0.0, 9.0, 20)).tolist()
        points += [(t, squared) for t in below + above]
    return points


def _relative_error(got, exact):
    """|got - exact|/|exact|, and 0 where both are exactly 0."""
    error = abs(Decimal(got) - exact)
    return float(error / abs(exact)) if exact else float(error)


def test_bounds_match_the_decimal_oracle():
    """Each exact bound is within its recorded relative error of the 50-digit
    oracle, at the radii of the quadrature oracle and beta, and no recorded
    bound is above 1e-14."""
    worst = dict.fromkeys(_DECIMAL_ORACLE_BOUNDS, 0.0)

    def record(name, got, exact):
        worst[name] = max(worst[name], _relative_error(got, exact))

    od = oracle_decimal
    for params in _decimal_oracle_points():
        for got, exact in zip(bn_bounds(params, 12).tolist(), od.bn(params, 12)):
            record("bn", got, exact)
        for r in (0.05, 0.25, 0.5, 0.75, 0.995, params.beta):
            sides = od.envelopes(params, r)
            for name, env in (
                ("hprime", hprime_envelope(params, r)),
                ("w", dilatation_envelope(params.beta, r)),
                ("gprime", gprime_envelope(params, r)),
            ):
                record(name + "_lower", env.lower, sides[name][0])
                record(name + "_upper", env.upper, sides[name][1])
            if r == 0.0:
                continue
            exact, upper = g_growth_crosscheck(params, r).quadrature, od.g_upper(params, r)
            record("g_upper", exact.upper, upper)
            record("g_lower", exact.lower, od.g_lower(params, r))
            stated, stated_lower = g_growth_bounds(params, r), od.g_stated_lower(params, r)
            record("g_stated_upper", stated.upper, upper)
            if r <= params.beta:
                record("g_stated_lower", stated.lower, stated_lower)
            else:
                error = abs(Decimal(stated.lower) - stated_lower)
                worst["g_stated_lower_past_beta"] = max(
                    worst["g_stated_lower_past_beta"], float(error / upper)
                )
            growth = f_growth(params, r)
            record("f_upper", growth.upper, od.f_upper(params, r))
            record("f_lower", growth.lower, od.f_lower(params, r, 1))
            record("f_floor", f_growth_floor(params, r), od.f_lower(params, r, -1))
        area = area_envelope(params)
        record("area_lower", area.lower, od.area(params, -1))
        record("area_upper", area.upper, od.area(params, 1))
        record("normality", normality_constant(params), od.normality(params))
        record("covering", covering_radius(params), od.f_lower(params, 1.0, 1))
        record("covering_floor", covering_radius_floor(params), od.f_lower(params, 1.0, -1))
        result = bloch_bound(params)
        record("bloch_r0", result.r0, od.bloch_root(params))
        record("bloch_bound", result.bound, od.bloch(params))
    for t, squared in _decimal_oracle_moment_points():
        got = bounds_mod._moments(t, 6, squared)
        for value, exact in zip(got, od.moments(t, 6, squared)):
            record("moments_squared" if squared else "moments", value, exact)
    assert all(worst[name] <= bound for name, bound in _DECIMAL_ORACLE_BOUNDS.items()), worst
    assert max(_DECIMAL_ORACLE_BOUNDS.values()) <= 1e-14


# ------------------------------------------------------------ moment cache

_REFERENCE_RECIPROCALS = tuple(1.0 / (k + 1) for k in range(256))


def _reference_kernel_integral(factors, t, squared=False):
    """The kernel as one uncached loop, the form it had before its moments
    were memoised: the bit-for-bit reference of ``_kernel_integral``."""
    _RECIPROCALS = _REFERENCE_RECIPROCALS
    n, scale = len(factors) + 1, 1.0
    if not (-0.8 if squared else -0.5) <= t <= 0.5:
        factors = [(a + b, -b) for a, b in factors]
        scale = 1.0 + t
        t = -t / scale
        scale = scale * scale if squared else scale
    if t <= 0.5:
        top = n - 1 + (0 if t == 0.0 else math.ceil(60.0 / -math.log2(abs(t))))
        phi = psi = _RECIPROCALS[top]
        moments = [psi if squared else phi]
        for q in reversed(_RECIPROCALS[:top]):
            phi = q - t * phi
            psi = phi - t * psi
            moments.append(psi if squared else phi)
        moments = moments[: -n - 1 : -1]
    else:
        phi, psi, moments = math.log1p(t) / t, 1.0 / (1.0 + t), []
        for q in _RECIPROCALS[:n]:
            moments.append(psi if squared else phi)
            phi, psi = (q - phi) / t, (phi - psi) / t
    for a, b in factors:
        moments = [a * x + b * y for x, y in zip(moments, moments[1:])]
    return moments[0] / scale


def _with_neighbours(t):
    return [math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)]


_KERNEL_ARGUMENTS = [
    0.0, -0.0, 5e-324, 1e-9, -1e-9, 0.3, -0.3, 0.99, -0.99, 0.999, -0.999,
    *_with_neighbours(0.5), *_with_neighbours(-0.5), *_with_neighbours(-0.8),
]


def test_kernel_integral_matches_the_uncached_loop_bit_for_bit():
    """Every kernel argument (the series bounds 1/2, -1/2 and -4/5 with
    their float neighbours among them), 1 to 5 factors, squared or not, two
    factor sets per key, in either call order from an empty cache."""
    rng = np.random.default_rng(20260808)
    cases = [
        (tuple(map(tuple, rng.uniform(-2.0, 2.0, (k, 2)).tolist())), t, squared)
        for t in _KERNEL_ARGUMENTS
        for k in range(1, 6)
        for squared in (False, True)
        for _ in range(2)
    ]
    expected = [_reference_kernel_integral(*case) for case in cases]
    for order in (1, -1):
        bounds_mod._moments.cache_clear()
        got = [bounds_mod._kernel_integral(*case) for case in cases[::order]]
        assert got == expected[::order]
        assert all(type(v) is float for v in got)
    assert bounds_mod._moments.cache_info().hits > 0


def test_two_factor_kernel_integral_is_the_factor_loop_bit_for_bit():
    """The written-out form that every growth, normality and covering
    integral takes equals the factor loop, bit for bit: seeded factors (and
    factors shaped as the callers build them), unsquared and squared kernels,
    arguments in the series range and in both transformed ranges, t = 0 and
    the range edges -0.8, -0.5 and 0.5."""
    rng = np.random.default_rng(2030)
    arguments = [
        0.0, -0.0, -0.8, -0.5, 0.5,
        *rng.uniform(-0.5, 0.5, 40).tolist(),
        *rng.uniform(0.5, 0.9999, 40).tolist(),
        *rng.uniform(-0.8, -0.5, 40).tolist(),
        *rng.uniform(-0.9999, -0.8, 40).tolist(),
    ]
    transformed = {False: 0, True: 0}
    for t in arguments:
        for squared in (False, True):
            transformed[squared] += not (-0.8 if squared else -0.5) <= t <= 0.5
            beta, c, r = rng.uniform(0.0, 1.0, 3).tolist()
            cases = [
                tuple(map(tuple, rng.uniform(-2.0, 2.0, (2, 2)).tolist())),
                ((beta, r), (1.0, c * r)),
                ((beta, -r), (1.0, -c * r)),
                ((1.0, -c * r), (1.0, -r)),
            ]
            for factors in cases:
                got = bounds_mod._kernel_integral(factors, t, squared)
                assert got == _reference_kernel_integral(factors, t, squared), (factors, t, squared)
    assert transformed[False] >= 80 and transformed[True] >= 40


def test_moment_cache_keeps_no_numpy_scalars():
    """A numpy radius fills the cache with the same moments as a float one:
    the float call that follows returns Python floats, bit for bit."""
    params = ClassParams(0.3, 0.6, 1)
    bounds_mod._moments.cache_clear()
    for r in (0.25, 0.9):  # 0.6 * 0.9 lies past the series range
        first = f_growth(params, np.float64(r))
        env = f_growth(params, r)
        assert type(env.lower) is float and type(env.upper) is float
        assert (env.lower, env.upper) == (first.lower, first.upper)
    assert bounds_mod._moments.cache_info().hits > 0


@pytest.mark.parametrize("beta, sequences", [(0.0, 2), (0.3, 132), (0.6, 132), (0.9, 132)])
def test_cold_envelope_table_computes_each_moment_sequence_once(beta, sequences):
    """t = beta x and -beta x at the 64 radii, A(beta) at -beta^2, the
    covering floor and the two area kernels: 132 sequences, however often
    g_lower reads A(beta) and f_floor the moments of g_upper.  At beta = 0
    every argument is 0, one sequence per kernel length."""
    bounds_mod._moments.cache_clear()
    _EnvelopeTable(ClassParams(0.3, beta, 1), default_polar_grid())
    assert bounds_mod._moments.cache_info().misses == sequences


@pytest.mark.parametrize(
    "alpha, beta, delta", [(0.3, 0.6, 1), (0, 0, 1), (0.9, 0.99, 2), (0.3, 0.0005, 1), (0.6, 0.2, 0)]
)
def test_table_row_and_growth_rows_compute_at_most_ten_sequences(capsys, alpha, beta, delta):
    """Area (2), normality and both covering forms (1), and per growth radius
    t = beta r and -beta r (2 x 3), plus A(beta) once some radius passes beta."""
    point = ["--alpha", str(alpha), "--beta", str(beta), "--delta", str(delta)]
    bounds_mod._moments.cache_clear()
    assert cli.main(["table", *point]) == 0
    assert cli.main(["growth", *point]) == 0
    capsys.readouterr()
    assert bounds_mod._moments.cache_info().misses <= 10


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


def _loop_horner(coeffs):
    """x -> the polynomial with ascending ``coeffs`` by Horner's rule, over
    every coefficient."""

    def value(x):
        val = 0.0
        for c in reversed(coeffs):
            val = val * x + c
        return val

    return value


def _reference_bisection(p, a, b):
    """The bracket of the sign change of ``p`` on [a, b], bisected until the
    midpoint is no longer inside the bracket, or to a midpoint (or endpoint)
    where ``p`` is 0, whose bracket is that point twice.  The generic
    bisection that took the Bloch root before ``bloch_bound`` bisected its
    quartic itself, without the width it used to stop at."""
    fa, fb = p(a), p(b)
    if fa == 0.0:
        return (a, a)
    if fb == 0.0:
        return (b, b)
    positive_at_a = fa > 0
    assert positive_at_a != (fb > 0)
    while a < b:
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


def _bloch_reference_points():
    """A seeded 6 x 6 x 6 lattice, seeded points at beta = 0 (a zero leading
    coefficient) and at delta in (1000, 1024), and the 84-point lattice."""
    rng = np.random.default_rng(2018)
    axes = (rng.uniform(0.0, 1.0, 6), rng.uniform(0.0, 1.0, 6), rng.uniform(0.0, 3.0, 6))
    points = [ClassParams(*map(float, point)) for point in itertools.product(*axes)]
    for i, (alpha, delta) in enumerate(rng.uniform(0.0, 1.0, (40, 2)).tolist()):
        points.append(ClassParams(alpha, 0.0, delta * (1024.0 if i % 2 else 3.0)))
    for alpha, beta, delta in rng.uniform(0.0, 1.0, (40, 3)).tolist():
        points.append(ClassParams(alpha, beta, 1000.0 + 24.0 * delta))
    return points + _ORACLE_LATTICE


def test_bloch_root_is_bisection_on_a_loop_horner():
    """r0, the bracket and the coefficients equal exactly the bisection of
    ``bloch_H_poly`` evaluated by Horner's rule over all five coefficients,
    also where the leading one is 0."""
    points = _bloch_reference_points()
    assert sum(bloch_H_poly(params)[4] == 0.0 for params in points) >= 40
    for params in points:
        coeffs = bloch_H_poly(params).tolist()
        lo, hi = _reference_bisection(_loop_horner(coeffs), 0.0, 1.0)
        result = bloch_bound(params)
        assert result.bracket == (lo, hi), params
        assert result.r0 == 0.5 * (lo + hi), params
        assert result.H_coeffs == tuple(coeffs), params


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
        got = _bloch_profile(d2, 1.0 - alpha, beta, r)
        assert abs(got - expanded) <= 1e-15 * abs(expanded)


def test_bloch_L_coefficients_negative():
    for params in PARAM_GRID:
        for r in np.linspace(0.05, 0.95, 10):
            a0, a1 = bloch_L_coeffs(params, r)
            assert a0 < 0
            assert a1 < 0


def _unscaled_L_coeffs(params, r):
    """``bloch_L_coeffs`` with 2^delta (2 - alpha) formed unscaled."""
    alpha = params.alpha
    d = 2.0**params.delta * (2.0 - alpha)
    a0 = 2.0 * (1.0 - alpha) * (1.0 - 3.0 * r - 6.0 * r * r) - d * (1.0 + 3.0 * r)
    a1 = -d * (1.0 + 3.0 * r) * r + 2.0 * (1.0 - alpha) * (1.0 - 3.0 * r - 6.0 * r * r) * r
    return a0, a1


def test_bloch_L_coefficients_keep_their_bits_up_to_delta_1000():
    rng = np.random.default_rng(1000)
    deltas = [0.0, 1.0, 500.0, 999.5, 1000.0, *rng.uniform(0.0, 1000.0, 200).tolist()]
    for delta in deltas:
        alpha, r = rng.uniform(0.0, 1.0, 2).tolist()
        params = ClassParams(alpha, 0.5, delta)
        assert bloch_L_coeffs(params, r) == _unscaled_L_coeffs(params, r)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta", [1023.5, 1024.0 - 2.0**-43])
def test_bloch_L_coefficients_stay_finite_and_negative_up_to_delta_1024(delta):
    """Unscaled, both read -inf from delta ~ 1023; divided by 2^k they are
    finite and keep their sign."""
    assert _unscaled_L_coeffs(ClassParams(0.3, 0.5, 1023.5), 0.5) == (-math.inf, -math.inf)
    for alpha in (0.0, 0.3, 0.9):
        for r in np.linspace(0.05, 0.95, 10).tolist():
            a0, a1 = bloch_L_coeffs(ClassParams(alpha, 0.5, delta), r)
            assert math.isfinite(a0) and a0 < 0
            assert math.isfinite(a1) and a1 < 0


class _UnbisectedCoefficient(float):
    """A coefficient of a substituted quartic that fails the test when
    bisection evaluates H at a midpoint: Horner's rule there starts with
    c4 * mid, and the certificate before it only adds coefficients."""

    def __mul__(self, other):
        pytest.fail("bisected")

    __rmul__ = __mul__


def _substitute_quartic(monkeypatch, coeffs):
    """Make ``bloch_bound`` read the ascending ``coeffs`` as its quartic."""
    fake = tuple(map(_UnbisectedCoefficient, coeffs))
    monkeypatch.setattr(bounds_mod, "_bloch_quartic", lambda beta, d2, a1: fake)


def test_bloch_raises_on_unexpected_root_count(monkeypatch):
    # the substitute coefficients see bisection: the true quartic of P011 reaches it
    _substitute_quartic(monkeypatch, [3.0, -2.0, -9.0, -4.0, 0.0])
    with pytest.raises(pytest.fail.Exception, match="bisected"):
        bounds_mod.bloch_bound(P011)
    # (x^2 - 0.04)(x^2 - 0.64): two roots inside (0, 1)
    _substitute_quartic(monkeypatch, [0.0256, 0.0, -0.68, 0.0, 1.0])
    with pytest.raises(RootCountError, match="variation count is 2"):
        bounds_mod.bloch_bound(P011)


@pytest.mark.parametrize(
    "fake, values",
    [
        ([1.0, -0.5, 0.0, 0.0, 0.0], r"H\(0\) = 1.0, H\(1\) = 0.5"),
        ([-1.0, 0.5, 0.0, 0.0, 0.0], r"H\(0\) = -1.0, H\(1\) = -0.5"),
    ],
    ids=["H(1) > 0", "H(0) < 0"],
)
def test_bloch_raises_on_one_root_outside_the_unit_interval(monkeypatch, capsys, fake, values):
    """One sign variation, but the root is at 2: the endpoint signs reject it
    before bisection, and ``hcl bloch`` exits 3."""
    _substitute_quartic(monkeypatch, fake)
    with pytest.raises(RootCountError, match="variation count is 1, " + values):
        bounds_mod.bloch_bound(P011)
    assert cli.main(["bloch", "--alpha", "0", "--beta", "0", "--delta", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("root isolation failed: expected exactly one critical radius")


def test_bloch_bisection_stops_where_the_midpoint_leaves_the_bracket():
    """The bisection runs until no float lies strictly inside the bracket,
    or to a midpoint where H rounds to 0 (at (0, 0, 0) the root is 1/2, at
    (0.3, 0.5, 1) H rounds to 0 next to its root), and stops where the
    reference does."""
    brackets = []
    for params in PARAM_GRID:
        coeffs = bloch_H_poly(params).tolist()
        brackets.append(_reference_bisection(_loop_horner(coeffs), 0.0, 1.0))
        assert bloch_bound(params).bracket == brackets[-1]
    assert [hi == lo for lo, hi in brackets] == [True, False, True, False, False]
    assert all(hi in (lo, math.nextafter(lo, 1.0)) for lo, hi in brackets)


def test_bloch_bracket_is_two_adjacent_floats_or_an_exact_zero():
    """On every decimal-oracle point, 16 of them past delta = 1000, and where
    r0 is small (about 5e-5 at (0.3, 0.9999, 20) and (0.3, 0.9999, 1010),
    1.3e-3 at (0.99, 0.9999, 3), where the bisection to the absolute width
    1e-14 left it off by 6.4e-11, 6.7e-11 and 2.2e-12 relative), no float
    lies strictly inside the bracket, and r0, one of its ends, is within
    5e-16 relative of the 50-digit root."""
    small_r0 = [(0.3, 0.9999, 20.0), (0.3, 0.9999, 1010.0), (0.99, 0.9999, 3.0)]
    for params in _decimal_oracle_points() + [ClassParams(*point) for point in small_r0]:
        result = bloch_bound(params)
        lo, hi = result.bracket
        assert hi in (lo, math.nextafter(lo, 1.0)), params
        assert result.r0 in (lo, hi), params
        assert _relative_error(result.r0, oracle_decimal.bloch_root(params)) <= 5e-16, params


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha, beta", itertools.product((0.0, 0.3, 0.9), (0.0, 0.5, 0.99)))
def test_bloch_up_to_delta_1024_matches_delta_1000(alpha, beta):
    """The 1 - alpha terms fall below the last bit of the 2^delta terms, so
    r0 and the bound are those of delta = 1000, also where the unscaled
    quartic overflowed (from delta ~ 1022.07 on)."""
    reference = bloch_bound(ClassParams(alpha, beta, 1000.0))
    for delta in (1021.0, 1022.0, 1022.4, 1023.5, 1024.0 - 2.0**-43):
        result = bloch_bound(ClassParams(alpha, beta, delta))
        assert all(map(math.isfinite, result.H_coeffs))
        assert result.r0 == pytest.approx(reference.r0, abs=1e-12)
        assert result.bound == pytest.approx(reference.bound, abs=1e-12)


@pytest.mark.parametrize("delta", [1001.0, 1001.5, 1010.0, 1022.0])
def test_bloch_quartic_above_delta_1001_is_divided_exactly_by_a_power_of_two(delta):
    """Where the unscaled quartic is finite, the printed one is it times
    2^-k, k = ceil(delta - 1001), bit for bit."""
    alpha, beta = 0.3, 0.5
    d2, a1 = 2.0 ** (delta - 1.0) * (2.0 - alpha), 1.0 - alpha
    unscaled = [
        d2 * (1.0 - beta) + a1,
        -2.0 * (d2 - a1),
        -(d2 * (3.0 + beta) + a1 * (3.0 - beta)),
        -(2.0 * d2 * beta + a1 * (4.0 + 2.0 * beta)),
        -3.0 * a1 * beta,
    ]
    k = max(0, math.ceil(delta - 1001.0))
    got = bloch_H_poly(ClassParams(alpha, beta, delta)).tolist()
    assert got == [math.ldexp(c, -k) for c in unscaled]


@pytest.mark.filterwarnings("error")
def test_bloch_finds_the_root_where_the_unscaled_quartic_overflowed(capsys):
    """At delta = 1022.4 Horner's rule on the unscaled quartic overflowed to
    -inf where H > 0, and bisection stopped near 0.066; scaled, it finds the
    root near 0.186 and ``hcl bloch`` exits 0."""
    result = bloch_bound(ClassParams(0.3, 0.5, 1022.4))
    assert result.r0 == pytest.approx(0.18614066163450715, abs=1e-12)
    assert cli.main(["bloch", "--alpha", "0.3", "--beta", "0.5", "--delta", "1022.4"]) == 0
    assert json.loads(capsys.readouterr().out)["r0"] == result.r0


def test_bloch_rejects_negative_delta():
    with pytest.raises(ValueError):
        bloch_bound(ClassParams(0, 0, -0.1))
