import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from harmclass import numerics
from harmclass.bounds import bloch_H_poly
from harmclass.errors import QuadratureError
from harmclass.model import ClassParams
from harmclass.numerics import (
    Polynomial,
    adaptive_quadrature,
    bisect_bracket,
    cumulative_quadrature,
    digamma,
    sign_variations,
    vincent_variation_count,
)

EULER_GAMMA = 0.5772156649015329

# The quartic profile with the single critical radius near 0.443.
QUARTIC = Polynomial([3, -2, -9, -4, 0])


# ---------------------------------------------------------------- quadrature

def test_quadrature_constant_is_exact():
    assert adaptive_quadrature(lambda x: 1.0, 0.0, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-15)


def test_quadrature_covering_integrand():
    value = adaptive_quadrature(lambda x: (2 + x) * (1 - x) / 2, 0.0, 1.0, 1e-12)
    assert value == pytest.approx(7 / 12, abs=1e-12)


def test_quadrature_kink_with_breakpoint():
    value = adaptive_quadrature(lambda x: abs(0.5 - x), 0.0, 1.0, 1e-12, breakpoints=(0.5,))
    assert value == pytest.approx(0.25, abs=1e-12)


def test_quadrature_kink_without_breakpoint_still_converges():
    value = adaptive_quadrature(lambda x: abs(0.5 - x), 0.0, 1.0, 1e-9)
    assert value == pytest.approx(0.25, abs=1e-9)


def test_quadrature_empty_interval():
    assert adaptive_quadrature(lambda x: 1.0, 0.3, 0.3, 1e-10) == 0.0


def test_quadrature_rejects_reversed_interval():
    with pytest.raises(ValueError):
        adaptive_quadrature(lambda x: 1.0, 1.0, 0.0, 1e-10)


def test_quadrature_nonconvergence_is_an_error():
    step = lambda x: 0.0 if x < 1 / 3 else 1.0
    with pytest.raises(QuadratureError):
        adaptive_quadrature(step, 0.0, 1.0, 1e-13)


def test_quadrature_oscillatory():
    value = adaptive_quadrature(lambda x: math.sin(40 * x), 0.0, 1.0, 1e-12)
    assert value == pytest.approx((1 - math.cos(40)) / 40, abs=1e-12)


# ------------------------------------------------------------------- digamma

def test_digamma_at_one_is_minus_euler():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)


def test_digamma_recurrence_step():
    assert digamma(2.0) - digamma(1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", range(2, 21))
def test_digamma_harmonic_sum(n):
    harmonic = sum(1.0 / k for k in range(1, n))
    assert digamma(float(n)) - digamma(1.0) == pytest.approx(harmonic, abs=1e-12)


@pytest.mark.parametrize("x", [0.3, 0.51, 1.7, 3.2, 7.9, 11.5, 100.0])
def test_digamma_matches_lgamma_derivative(x):
    # central difference of lgamma: independent route, accurate to ~1e-9
    h = 1e-6 * max(1.0, x)
    oracle = (math.lgamma(x + h) - math.lgamma(x - h)) / (2 * h)
    assert digamma(x) == pytest.approx(oracle, abs=5e-9)


@pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
def test_digamma_rejects_nonpositive(x):
    with pytest.raises(ValueError):
        digamma(x)


# ------------------------------------------------------------ sign variation

def test_sign_variations_quartic_profile():
    assert sign_variations(QUARTIC) == 1


def test_sign_variations_all_positive():
    assert sign_variations(Polynomial([1, 1, 1])) == 0


def test_sign_variations_alternating():
    assert sign_variations(Polynomial([1, -1, 1])) == 2


def test_sign_variations_ignores_zeros():
    assert sign_variations(Polynomial([1, 0, 0, -1])) == 1


@pytest.mark.parametrize("coeffs", [[1, 0, 1], [-1, 0, 0, -1], [0, 0]])
def test_sign_variations_zeros_between_equal_signs_change_nothing(coeffs):
    assert sign_variations(Polynomial(coeffs)) == 0
    assert sign_variations(coeffs) == 0


def test_polynomial_degree_trims_trailing_zeros():
    assert QUARTIC.degree == 3
    assert Polynomial([0.0]).degree == 0


def test_vincent_count_quartic_unit_interval():
    assert vincent_variation_count(QUARTIC, 0.0, 1.0) == 1


def test_vincent_count_no_roots():
    assert vincent_variation_count(Polynomial([1, 1]), 0.0, 1.0) == 0


def test_vincent_count_simple_half_root():
    assert vincent_variation_count(Polynomial([-0.25, 0, 1]), 0.0, 1.0) == 1


def test_vincent_count_rejects_bad_interval():
    with pytest.raises(ValueError):
        vincent_variation_count(QUARTIC, 0.5, 0.5)


def _root_built_cases(seed, cases, max_degree):
    """Seeded products of real linear factors over random intervals in [0, 2.5):
    (roots, coefficients, a, b), skipping intervals that are too narrow or
    have a root within 1e-6 of an endpoint."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        degree = int(rng.integers(1, max_degree + 1))
        roots = rng.uniform(-2.0, 2.5, size=degree)
        coeffs = np.array([1.0])
        for root in roots:
            coeffs = np.convolve(coeffs, np.array([-root, 1.0]))
        a, b = (float(x) for x in sorted(rng.uniform(0.0, 2.5, size=2)))
        if b - a < 1e-3 or np.any(np.abs(roots - a) < 1e-6) or np.any(np.abs(roots - b) < 1e-6):
            continue
        yield roots, coeffs, a, b


def test_vincent_count_bounds_root_count_and_parity():
    """Random products of real linear factors: the variation count never
    undercounts the roots in (a, b) and matches them mod 2."""
    for roots, coeffs, a, b in _root_built_cases(42, 200, 6):
        inside = int(np.sum((roots > a) & (roots < b)))
        count = vincent_variation_count(Polynomial(coeffs), a, b)
        assert count >= inside
        assert (count - inside) % 2 == 0


def _vincent_count_numpy(p, a, b):
    """The variation count built with numpy convolutions, kept as an oracle
    for the plain-float version."""
    n = p.degree
    acc = np.zeros(n + 1)
    lin = np.array([a, b])
    lin_pow = np.array([1.0])
    for i, ci in enumerate(p.coeffs[: n + 1]):
        if ci != 0.0:
            shift_pow = np.ones(n - i + 1)
            for k in range(1, n - i + 1):
                shift_pow[k] = shift_pow[k - 1] * (n - i - k + 1) / k
            term = np.convolve(lin_pow, shift_pow)
            acc[: term.size] += ci * term
        if i < n:
            lin_pow = np.convolve(lin_pow, lin)
    signs = np.sign(acc[acc != 0.0])
    return int(np.sum(signs[1:] != signs[:-1]))


def _vincent_count_exact(p, a, b):
    """The variation count of the exact rational transform of the float
    coefficients over the float endpoints."""
    n = p.degree
    a, b = Fraction(a), Fraction(b)
    acc = [Fraction(0)] * (n + 1)
    for i, ci in enumerate(p.coeffs[: n + 1].tolist()):
        # (a + b x)^i (1 + x)^(n - i), coefficient of x^k
        for j, k in itertools.product(range(i + 1), range(n - i + 1)):
            acc[j + k] += Fraction(ci) * math.comb(i, j) * a ** (i - j) * b**j * math.comb(n - i, k)
    positive = [c > 0 for c in acc if c != 0]
    return sum(s != t for s, t in zip(positive, positive[1:]))


_BLOCH_LATTICE = [
    ClassParams(alpha, beta, delta)
    for alpha, beta, delta in itertools.product(
        (0.0, 0.3, 0.6), (0.0, 0.3, 0.6, 0.9, 0.99, 0.999), (0.0, 1.0, 2.0)
    )
]


@pytest.mark.parametrize("params", _BLOCH_LATTICE, ids=str)
def test_vincent_count_agrees_with_oracles_on_bloch_quartics(params):
    poly = Polynomial(bloch_H_poly(params))
    count = vincent_variation_count(poly, 0.0, 1.0)
    assert count == _vincent_count_numpy(poly, 0.0, 1.0) == _vincent_count_exact(poly, 0.0, 1.0)
    assert count == 1


def test_vincent_count_agrees_with_oracles_on_random_polynomials():
    checked = 0
    for _, coeffs, a, b in _root_built_cases(7, 400, 8):
        poly = Polynomial(coeffs)
        count = vincent_variation_count(poly, a, b)
        assert count == _vincent_count_numpy(poly, a, b) == _vincent_count_exact(poly, a, b)
        checked += 1
    assert checked > 300


def test_polynomial_call_is_horner_over_every_stored_coefficient():
    """Leaving the trailing zeros out of Horner's rule changes no bit at a
    finite x."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        coeffs = np.concatenate((rng.standard_normal(int(rng.integers(1, 6))), np.zeros(2)))
        poly = Polynomial(coeffs)
        for x in rng.uniform(-3.0, 3.0, 5).tolist():
            val = 0.0
            for c in coeffs[::-1].tolist():
                val = val * x + c
            assert poly(x) == val


def test_vincent_count_rejects_infinite_endpoint():
    with pytest.raises(ValueError, match="finite"):
        vincent_variation_count(Polynomial([-0.25, 0, 1]), 0.0, math.inf)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_vincent_count_rejects_non_finite_coefficient(bad):
    with pytest.raises(ValueError, match="finite"):
        vincent_variation_count(Polynomial([-0.25, bad, 1]), 0.0, 1.0)


def test_sign_variations_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        sign_variations([1.0, math.nan, 1.0])


# ------------------------------------------------------- cumulative quadrature

def _running_adaptive(f, points, tol, breakpoints=()):
    """Running sum of adaptive_quadrature over consecutive intervals from 0."""
    out, acc, prev = [], 0.0, 0.0
    for p in points:
        acc += adaptive_quadrature(f, prev, p, tol, breakpoints=breakpoints)
        out.append(acc)
        prev = p
    return out


@pytest.mark.parametrize("kink", [0.45, 0.5])  # inside an interval, on a point
def test_cumulative_quadrature_matches_running_adaptive_sums_exactly(kink):
    f = lambda x: abs(kink - x) / (1.0 - kink * x) * (1.0 - 0.7 * x)
    points = np.array([0.05, 0.2, 0.44, 0.5, 0.9, 0.999])
    got = cumulative_quadrature(f, points, 1e-9, breakpoints=(kink, 1.5))
    assert got.tolist() == _running_adaptive(f, points, 1e-9, breakpoints=(kink, 1.5))


def test_cumulative_quadrature_subdivided_panel_matches_exactly():
    # the steep panel next to x = 0.99 fails level 0 and is subdivided
    sizes = []

    def f(x):
        sizes.append(np.size(x))
        return abs(0.99 - x) / (1.0 - 0.99 * x)

    points = [0.4975, 0.995]
    got = cumulative_quadrature(f, points, 1e-9, breakpoints=(0.99,))
    assert len(sizes) > 1
    assert got.tolist() == _running_adaptive(f, points, 1e-9, breakpoints=(0.99,))


def test_cumulative_quadrature_levels_hold_several_panels():
    # one kink per interval: each level rejects the two panels holding a kink
    sizes = []

    def f(x):
        sizes.append(np.size(x))
        return abs(x - 0.3) + abs(x - 0.7)

    points = [0.5, 1.0]
    got = cumulative_quadrature(f, points, 1e-9)
    rejected = [size // 30 for size in sizes[1:]]  # two children of 15 nodes each
    assert any(a >= 2 and b >= 2 for a, b in zip(rejected, rejected[1:]))
    assert got.tolist() == _running_adaptive(f, points, 1e-9)


def test_cumulative_quadrature_wide_levels_match_exactly():
    # 601 panels at level 0: more than one integrand call may take
    sizes = []

    def f(x):
        sizes.append(np.size(x))
        return abs(x - 0.3) / (1.0 + x)

    points = np.linspace(0.001, 0.999, 601)
    got = cumulative_quadrature(f, points, 1e-9)
    assert max(sizes) <= 15 * numerics._LEVEL_PANELS < 15 * points.size
    assert got.tolist() == _running_adaptive(f, points, 1e-9)


# NaN from 1e6 on: every panel there is split until it is one float wide
_NAN_FROM_1E6 = lambda x: np.where(x >= 1e6, math.nan, 0.0)


@pytest.mark.parametrize(
    "f, points, reason",
    [
        (lambda x: (x >= 1 / 3) * 1.0, [1.0], "40 subdivision levels"),
        (lambda x: (x >= 1 / 3) + (x >= 2 / 3) * 1.0, [0.5, 1.0], "40 subdivision levels"),
        (lambda x: x * math.nan, [1.0], "40 subdivision levels"),
        (_NAN_FROM_1E6, [1e6, 1e6 + 1e-4], "cannot be subdivided"),
        # the right interval gets stuck ~20 levels before the left one hits the limit
        (lambda x: (x >= 1e6 / 3) + _NAN_FROM_1E6(x), [1e6, 1e6 + 1e-4], "40 subdivision levels"),
        # the right interval gets stuck on level 3; level 5, the last, accepts every
        # panel of the left one: the error recorded before it must still be raised
        (
            lambda x: 1e-9 * np.exp(-(((x - 3e5) / 3e4) ** 2)) + _NAN_FROM_1E6(x),
            [1e6, 1e6 + 1e-9],
            "cannot be subdivided",
        ),
    ],
    ids=[
        "step", "two-steps", "nan-everywhere", "unsplittable", "stuck-right-of-limit",
        "stuck-then-converged",
    ],
)
def test_cumulative_quadrature_raises_the_recursions_error(f, points, reason):
    """The error the depth-first recursion meets first, with the same message."""
    with pytest.raises(QuadratureError, match=reason) as scalar:
        _running_adaptive(f, points, 1e-13)
    with pytest.raises(QuadratureError) as levels:
        cumulative_quadrature(f, points, 1e-13)
    assert str(levels.value) == str(scalar.value)


def test_cumulative_quadrature_polynomial_values():
    got = cumulative_quadrature(lambda x: 3.0 * x * x, [0.5, 1.0, 2.0], 1e-12)
    assert got == pytest.approx([0.125, 1.0, 8.0], abs=1e-14)


def test_cumulative_quadrature_nonconvergence_is_an_error():
    step = lambda x: np.where(x < 1 / 3, 0.0, 1.0)
    with pytest.raises(QuadratureError):
        cumulative_quadrature(step, [0.5, 1.0], 1e-13)


@pytest.mark.parametrize("points", [[], [0.5, 0.5], [0.6, 0.2], [0.0, 0.5], [[0.1, 0.2]]])
def test_cumulative_quadrature_rejects_bad_points(points):
    with pytest.raises(ValueError):
        cumulative_quadrature(lambda x: x, points, 1e-10)


# ----------------------------------------------------------------- bisection

def bracket_midpoint(p, a, b, tol):
    """Midpoint of the final bisection bracket, as bloch_bound takes it."""
    lo, hi = bisect_bracket(p, a, b, tol)
    return 0.5 * (lo + hi)


def test_isolate_root_quartic():
    # frozen from the eigenvalue companion-matrix oracle (np.polynomial roots)
    root = bracket_midpoint(QUARTIC, 0.0, 1.0, 1e-12)
    assert root == pytest.approx(0.4430004681646913, abs=1e-6)


def test_isolate_root_eigen_oracle_agreement():
    eig_roots = np.polynomial.Polynomial(QUARTIC.coeffs).roots()
    real_root = [z.real for z in eig_roots if abs(z.imag) < 1e-12 and 0 < z.real < 1][0]
    assert bracket_midpoint(QUARTIC, 0.0, 1.0, 1e-13) == pytest.approx(real_root, abs=1e-10)


def test_isolate_root_half():
    assert bracket_midpoint(Polynomial([-0.25, 0, 1]), 0.0, 1.0, 1e-12) == pytest.approx(0.5)


def test_isolate_root_quartic_unit():
    assert bracket_midpoint(Polynomial([-1, 0, 0, 0, 1]), 0.0, 1.5, 1e-12) == pytest.approx(1.0)


def test_isolate_root_rejects_non_bracketing():
    with pytest.raises(ValueError):
        bracket_midpoint(Polynomial([1, 0, 1]), 0.0, 1.0, 1e-10)


def test_bisect_rejects_infinite_endpoint():
    with pytest.raises(ValueError, match="finite"):
        bisect_bracket(Polynomial([-0.25, 0, 1]), 0.0, math.inf, 1e-12)


def test_bisect_rejects_nan_value_and_nan_tol():
    with pytest.raises(ValueError, match="NaN"):
        bisect_bracket(lambda x: math.nan, 0.0, 1.0, 1e-12)
    with pytest.raises(ValueError, match="tol"):
        bisect_bracket(Polynomial([-0.25, 0, 1]), 0.0, 1.0, math.nan)


def test_isolate_root_residual_scale():
    tol = 1e-10
    root = bracket_midpoint(QUARTIC, 0.0, 1.0, tol)
    slope = abs(-2 - 18 * root - 12 * root**2)
    assert abs(QUARTIC(root)) <= slope * tol * 10
