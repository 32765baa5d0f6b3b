import itertools
import math

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
    digamma,
    sign_variations,
)

EULER_GAMMA = 0.5772156649015329

# The quartic profile with the single critical radius near 0.443.
QUARTIC = Polynomial([3, -2, -9, -4, 0])


# ---------------------------------------------------------------- quadrature

def test_quadrature_constant_is_exact():
    assert adaptive_quadrature(np.ones_like, 0.0, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-15)


def test_quadrature_covering_integrand():
    value = adaptive_quadrature(lambda x: (2 + x) * (1 - x) / 2, 0.0, 1.0, 1e-12)
    assert value == pytest.approx(7 / 12, abs=1e-12)


def test_quadrature_kink_split_by_the_caller():
    kink = lambda x: abs(0.5 - x)
    value = adaptive_quadrature(kink, 0.0, 0.5, 1e-12) + adaptive_quadrature(kink, 0.5, 1.0, 1e-12)
    assert value == pytest.approx(0.25, abs=1e-12)


def test_quadrature_kink_without_split_still_converges():
    value = adaptive_quadrature(lambda x: abs(0.5 - x), 0.0, 1.0, 1e-9)
    assert value == pytest.approx(0.25, abs=1e-9)


def test_quadrature_polynomial_value():
    assert adaptive_quadrature(lambda x: 3.0 * x * x, 0.0, 2.0, 1e-12) == pytest.approx(8.0, abs=1e-14)


def test_quadrature_empty_interval():
    assert adaptive_quadrature(np.ones_like, 0.3, 0.3, 1e-10) == 0.0


def test_quadrature_rejects_reversed_interval():
    with pytest.raises(ValueError):
        adaptive_quadrature(np.ones_like, 1.0, 0.0, 1e-10)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_quadrature_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        adaptive_quadrature(np.ones_like, 0.0, 1.0, tol)


def test_quadrature_nonconvergence_is_an_error():
    step = lambda x: np.where(x < 1 / 3, 0.0, 1.0)
    with pytest.raises(QuadratureError):
        adaptive_quadrature(step, 0.0, 1.0, 1e-13)


def test_quadrature_oscillatory():
    value = adaptive_quadrature(lambda x: np.sin(40 * x), 0.0, 1.0, 1e-12)
    assert value == pytest.approx((1 - math.cos(40)) / 40, abs=1e-12)


# ------------------------------------- the level loop against the scalar recursion

def _gauss_kronrod_15(f, a, b):
    """One 15-point Kronrod panel on [a, b] with scalar calls of ``f``;
    returns (estimate, error_estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    center = f(mid)
    pairs = []
    for x in numerics._XGK[:7]:
        dx = half * x
        pairs.append(f(mid - dx) + f(mid + dx))
    return numerics._kronrod_weights(center, pairs, half)


def _adaptive_panel(f, a, b, tol, depth=0):
    """The depth-first recursion, one panel at a time, whose values and first
    error ``numerics._adaptive_levels`` reproduces level by level."""
    est, err = _gauss_kronrod_15(f, a, b)
    if err <= tol:
        return est
    mid = 0.5 * (a + b)
    if depth >= numerics._DEPTH_LIMIT or mid <= a or mid >= b:
        raise numerics._failure(a, b, err, tol, depth)
    half_tol = 0.5 * tol
    return _adaptive_panel(f, a, mid, half_tol, depth + 1) + _adaptive_panel(
        f, mid, b, half_tol, depth + 1
    )


def _recursion(f, edges, tol):
    """The recursion on each interval between consecutive ``edges``, in order."""
    return [_adaptive_panel(f, lo, hi, tol) for lo, hi in zip(edges[:-1], edges[1:])]


def _levels(f, edges, tol):
    """``_adaptive_levels`` on the intervals between consecutive ``edges``."""
    edges = np.asarray(edges, dtype=float)
    return numerics._adaptive_levels(
        f, edges[:-1], edges[1:], np.full(edges.size - 1, tol)
    ).tolist()


@pytest.mark.parametrize("kink", [0.45, 0.5])  # inside an interval, on an edge
def test_levels_match_the_recursion_exactly(kink):
    f = lambda x: abs(kink - x) / (1.0 - kink * x) * (1.0 - 0.7 * x)
    edges = [0.0, 0.05, 0.2, 0.44, 0.5, 0.9, 0.999]
    assert _levels(f, edges, 1e-9) == _recursion(f, edges, 1e-9)


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: (2 + x) * (1 - x) / 2, 0.0, 1.0),
        (lambda x: abs(0.5 - x), 0.0, 1.0),
        (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0),
        (lambda x: abs(0.99 - x) / (1.0 - 0.99 * x), 0.3, 0.995),
    ],
    ids=["polynomial", "kink", "runge", "near-pole"],
)
def test_adaptive_quadrature_matches_the_recursion_exactly(f, a, b):
    assert adaptive_quadrature(f, a, b, 1e-10) == _adaptive_panel(f, a, b, 1e-10)


def test_breakpoints_that_bisection_reaches_keep_the_value_bit_for_bit():
    # the pole at 1/0.99 makes bisection split [0, 1] and then each right half
    calls = []

    def f(x):
        calls.append(np.size(x))
        return 1.0 / (1.0 - 0.99 * x) ** 2

    whole = adaptive_quadrature(f, 0.0, 1.0, 1e-10)
    bisection_calls = len(calls)
    calls.clear()
    graded = adaptive_quadrature(f, 0.0, 1.0, 1e-10, [0.5, 0.75, 0.875])
    assert graded == whole
    assert calls[0] == 4 * 15 and len(calls) <= bisection_calls - 3


def test_breakpoints_share_the_tolerance_by_width_and_sum_right_nested():
    f = lambda x: abs(0.3 - x) / (1.0 + x) + abs(0.7 - x)
    a, b, tol = 0.1, 1.3, 1e-9
    edges = [a, 0.2, 0.45, 0.8, b]
    v0, v1, v2, v3 = (
        _adaptive_panel(f, lo, hi, tol * ((hi - lo) / (b - a)))
        for lo, hi in zip(edges[:-1], edges[1:])
    )
    assert adaptive_quadrature(f, a, b, tol, edges[1:-1]) == v0 + (v1 + (v2 + v3))


@pytest.mark.parametrize(
    "breakpoints", [[0.5, 0.5], [0.7, 0.3], [0.0], [1.0], [1.5], [-0.5], [math.nan]]
)
def test_breakpoints_must_increase_strictly_inside_the_interval(breakpoints):
    with pytest.raises(ValueError, match="breakpoints"):
        adaptive_quadrature(np.ones_like, 0.0, 1.0, 1e-10, breakpoints)


def test_levels_subdivided_panel_matches_exactly():
    # the steep panel next to x = 0.99 fails level 0 and is subdivided
    sizes = []

    def f(x):
        sizes.append(np.size(x))
        return abs(0.99 - x) / (1.0 - 0.99 * x)

    edges = [0.0, 0.4975, 0.99, 0.995]
    got = _levels(f, edges, 1e-9)
    assert len(sizes) > 1
    assert got == _recursion(f, edges, 1e-9)


def test_levels_hold_several_panels():
    # one kink per interval: each level rejects the two panels holding a kink
    sizes = []

    def f(x):
        sizes.append(np.size(x))
        return abs(x - 0.3) + abs(x - 0.7)

    edges = [0.0, 0.5, 1.0]
    got = _levels(f, edges, 1e-9)
    rejected = [size // 30 for size in sizes[1:]]  # two children of 15 nodes each
    assert any(a >= 2 and b >= 2 for a, b in zip(rejected, rejected[1:]))
    assert got == _recursion(f, edges, 1e-9)


def test_wide_levels_match_exactly():
    # 601 panels at level 0: more than one integrand call may take
    sizes = []

    def f(x):
        sizes.append(np.size(x))
        return abs(x - 0.3) / (1.0 + x)

    edges = np.concatenate(([0.0], np.linspace(0.001, 0.999, 601)))
    got = _levels(f, edges, 1e-9)
    assert max(sizes) <= 15 * numerics._LEVEL_PANELS < 15 * (edges.size - 1)
    assert got == _recursion(f, edges.tolist(), 1e-9)


# NaN from 1e6 on: every panel there is split until it is one float wide
_NAN_FROM_1E6 = lambda x: np.where(x >= 1e6, math.nan, 0.0)


@pytest.mark.parametrize(
    "f, edges, reason",
    [
        (lambda x: (x >= 1 / 3) * 1.0, [0.0, 1.0], "40 subdivision levels"),
        (lambda x: (x >= 1 / 3) + (x >= 2 / 3) * 1.0, [0.0, 0.5, 1.0], "40 subdivision levels"),
        (lambda x: x * math.nan, [0.0, 1.0], "40 subdivision levels"),
        (_NAN_FROM_1E6, [0.0, 1e6, 1e6 + 1e-4], "cannot be subdivided"),
        # the right interval gets stuck ~20 levels before the left one hits the limit
        (
            lambda x: (x >= 1e6 / 3) + _NAN_FROM_1E6(x),
            [0.0, 1e6, 1e6 + 1e-4],
            "40 subdivision levels",
        ),
        # the right interval gets stuck on level 3; level 5, the last, accepts every
        # panel of the left one: the error recorded before it must still be raised
        (
            lambda x: 1e-9 * np.exp(-(((x - 3e5) / 3e4) ** 2)) + _NAN_FROM_1E6(x),
            [0.0, 1e6, 1e6 + 1e-9],
            "cannot be subdivided",
        ),
    ],
    ids=[
        "step", "two-steps", "nan-everywhere", "unsplittable", "stuck-right-of-limit",
        "stuck-then-converged",
    ],
)
def test_levels_raise_the_recursions_error(f, edges, reason):
    """The error the depth-first recursion meets first, with the same message."""
    with pytest.raises(QuadratureError, match=reason) as scalar:
        _recursion(f, edges, 1e-13)
    with pytest.raises(QuadratureError) as levels:
        _levels(f, edges, 1e-13)
    assert str(levels.value) == str(scalar.value)


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


def test_sign_variations_bound_positive_roots_and_match_their_parity():
    """Descartes' rule of signs on seeded products of real linear factors."""
    rng = np.random.default_rng(42)
    for _ in range(200):
        roots = rng.uniform(-2.0, 2.5, size=int(rng.integers(1, 7)))
        coeffs = np.array([1.0])
        for root in roots:
            coeffs = np.convolve(coeffs, np.array([-root, 1.0]))
        positive = int(np.sum(roots > 0))
        count = sign_variations(coeffs)
        assert count >= positive
        assert (count - positive) % 2 == 0


def test_polynomial_degree_trims_trailing_zeros():
    assert QUARTIC.degree == 3
    assert Polynomial([0.0]).degree == 0


_BLOCH_LATTICE = [
    ClassParams(alpha, beta, delta)
    for alpha, beta, delta in itertools.product(
        (0.0, 0.3, 0.6), (0.0, 0.3, 0.6, 0.9, 0.99, 0.999), (0.0, 1.0, 2.0)
    )
]


@pytest.mark.parametrize(
    "params",
    [*_BLOCH_LATTICE, ClassParams(0.3, 0.5, 1021.0), ClassParams(0.3, 0.5, 1022.0)],
    ids=str,
)
def test_bloch_quartic_sign_pattern_certifies_one_root_in_the_unit_interval(params):
    """c0 > 0, c2 < 0, c3 < 0 and c4 <= 0 whatever the sign of c1: one sign
    variation, so one positive root, and H(1) < 0 < H(0) puts it in (0, 1)."""
    coeffs = bloch_H_poly(params)
    assert coeffs[0] > 0 and coeffs[2] < 0 and coeffs[3] < 0 and coeffs[4] <= 0
    poly = Polynomial(coeffs)
    assert sign_variations(poly) == 1
    assert poly(1.0) < 0 < poly(0.0)


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


def test_sign_variations_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        sign_variations([1.0, math.nan, 1.0])


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
