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
import harmclass.bounds as bounds_mod
from harmclass import cli
from harmclass.bounds import _BLOCH_BRACKET_WIDTH, _bloch_profile
from harmclass.errors import RootCountError
from harmclass.model import MAX_TRUNCATION_ORDER, ClassParams
from harmclass.numerics import adaptive_quadrature, bisect_bracket
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
    for n_top in (1, MAX_TRUNCATION_ORDER + 1):
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
def test_bn_bounds_at_large_delta_take_the_limit_without_a_warning():
    """n^delta overflows from delta ~ 646 at n = 3; the term it divides goes to 0."""
    got = bn_bounds(ClassParams(0.3, 0.5, 700), 4).tolist()
    assert got == [0.375, 0.24999999999999994, 0.18749999999999997]


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
    """Below the beta switch the closed side is the exact integral itself:
    the crosscheck evaluates the integrals of one ``g_growth_quadrature`` and
    returns its values on both sides, bit for bit."""

    calls = []
    for name in ("_gprime_lower_integral", "_gprime_upper_integral"):
        integral = getattr(bounds_mod, name)

        def counted(params, r, integral=integral):
            calls.append(r)
            return integral(params, r)

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
        exact = g_growth_quadrature(params, r)
        _assert_close(exact.lower, _oracle(g_lower, r, beta), ("g lower", r))
        _assert_close(exact.upper, upper, ("g upper", r))
        if beta < 1e-3:
            assert g_growth_bounds(params, r) == exact


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
            g = g_growth_quadrature(params, r)
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
    # (x^2 - 0.04)(x^2 - 0.64): two roots inside (0, 1)
    fake = np.array([0.0256, 0.0, -0.68, 0.0, 1.0])
    monkeypatch.setattr(bounds_mod, "bloch_H_poly", lambda params: fake)
    monkeypatch.setattr(bounds_mod, "bisect_bracket", lambda *args: pytest.fail("bisected"))
    with pytest.raises(RootCountError, match="variation count is 2"):
        bounds_mod.bloch_bound(P011)


def test_bloch_rejects_negative_delta():
    with pytest.raises(ValueError):
        bloch_bound(ClassParams(0, 0, -0.1))
