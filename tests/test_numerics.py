import itertools
import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from harmclass import numerics
from harmclass.bounds import bloch_H_poly
from harmclass.errors import QuadratureError
from harmclass.model import ClassParams
from harmclass.numerics import (
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


def _levels(f, edges, tol, calls):
    """``_adaptive_levels`` on the intervals between consecutive ``edges``;
    the node count of each call of ``f`` is appended to ``calls``."""

    def counted(x):
        calls.append(np.size(x))
        return f(x)

    edges = np.asarray(edges, dtype=float)
    return numerics._adaptive_levels(
        counted, edges[:-1], edges[1:], np.full(edges.size - 1, tol)
    ).tolist()


def _assert_calls(calls, expected):
    """No call of the integrand gets an empty array, and the node counts of
    the calls are ``expected``, in order (those of the level-list driver that
    the recursion over levels replaced)."""
    assert min(calls) > 0
    assert calls == expected


@pytest.mark.parametrize(
    "kink, expected",
    [(0.45, [90] + [30] * 12), (0.5, [90])],  # inside an interval, on an edge
)
def test_levels_match_the_recursion_exactly(kink, expected):
    f = lambda x: abs(kink - x) / (1.0 - kink * x) * (1.0 - 0.7 * x)
    edges = [0.0, 0.05, 0.2, 0.44, 0.5, 0.9, 0.999]
    calls = []
    assert _levels(f, edges, 1e-9, calls) == _recursion(f, edges, 1e-9)
    _assert_calls(calls, expected)


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
    f = lambda x: abs(0.99 - x) / (1.0 - 0.99 * x)
    edges = [0.0, 0.4975, 0.99, 0.995]
    sizes = []
    got = _levels(f, edges, 1e-9, sizes)
    assert len(sizes) > 1
    assert got == _recursion(f, edges, 1e-9)
    _assert_calls(sizes, [45] + [30] * 4)


def test_levels_hold_several_panels():
    # one kink per interval: each level rejects the two panels holding a kink
    f = lambda x: abs(x - 0.3) + abs(x - 0.7)
    edges = [0.0, 0.5, 1.0]
    sizes = []
    got = _levels(f, edges, 1e-9, sizes)
    rejected = [size // 30 for size in sizes[1:]]  # two children of 15 nodes each
    assert any(a >= 2 and b >= 2 for a, b in zip(rejected, rejected[1:]))
    assert got == _recursion(f, edges, 1e-9)
    _assert_calls(sizes, [30] + [60] * 21)


def test_wide_levels_match_exactly():
    # 601 panels at level 0: more than one integrand call may take
    f = lambda x: abs(x - 0.3) / (1.0 + x)
    edges = np.concatenate(([0.0], np.linspace(0.001, 0.999, 601)))
    sizes = []
    got = _levels(f, edges, 1e-9, sizes)
    assert max(sizes) <= 15 * numerics._LEVEL_PANELS < 15 * (edges.size - 1)
    assert got == _recursion(f, edges.tolist(), 1e-9)
    # chunks of 256, 256 and 89 panels; the first two each split one panel
    _assert_calls(sizes, [3840, 30, 30, 3840, 1335])


# NaN from 1e6 on: every panel there is split until it is one float wide
_NAN_FROM_1E6 = lambda x: np.where(x >= 1e6, math.nan, 0.0)


#: Node counts of the integrand calls up to the error: levels of 256 panels or
#: fewer are one call each, and a wider level is refined 256 panels at a time.
_DOUBLING = [15 * 2**j for j in range(9)]  # 1, 2, 4, ..., 256 panels


@pytest.mark.parametrize(
    "f, edges, reason, expected",
    [
        (lambda x: (x >= 1 / 3) * 1.0, [0.0, 1.0], "40 subdivision levels", [15] + [30] * 40),
        (
            lambda x: (x >= 1 / 3) + (x >= 2 / 3) * 1.0,
            [0.0, 0.5, 1.0],
            "40 subdivision levels",
            [30] + [60] * 40,
        ),
        (lambda x: x * math.nan, [0.0, 1.0], "40 subdivision levels", _DOUBLING + [3840] * 32),
        (
            _NAN_FROM_1E6,
            [0.0, 1e6, 1e6 + 1e-4],
            "cannot be subdivided",
            [30] + _DOUBLING[1:] + [3840] * 11 + [30],
        ),
        # the right interval gets stuck ~20 levels before the left one hits the limit
        (
            lambda x: (x >= 1e6 / 3) + _NAN_FROM_1E6(x),
            [0.0, 1e6, 1e6 + 1e-4],
            "40 subdivision levels",
            [30, 60, 90, 150, 270, 510, 990, 1950] + [3840] * 12 + [60] + [30] * 20,
        ),
        # the right interval gets stuck on level 3; level 5, the last, accepts every
        # panel of the left one: the error recorded before it must still be raised
        (
            lambda x: 1e-9 * np.exp(-(((x - 3e5) / 3e4) ** 2)) + _NAN_FROM_1E6(x),
            [0.0, 1e6, 1e6 + 1e-9],
            "cannot be subdivided",
            [30, 60, 90, 180, 90, 90],
        ),
    ],
    ids=[
        "step", "two-steps", "nan-everywhere", "unsplittable", "stuck-right-of-limit",
        "stuck-then-converged",
    ],
)
def test_levels_raise_the_recursions_error(f, edges, reason, expected):
    """The error the depth-first recursion meets first, with the same message."""
    with pytest.raises(QuadratureError, match=reason) as scalar:
        _recursion(f, edges, 1e-13)
    calls = []
    with pytest.raises(QuadratureError) as levels:
        _levels(f, edges, 1e-13, calls)
    assert str(levels.value) == str(scalar.value)
    _assert_calls(calls, expected)


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
    assert sign_variations(QUARTIC.coef) == 1


def test_sign_variations_all_positive():
    assert sign_variations([1, 1, 1]) == 0


def test_sign_variations_alternating():
    assert sign_variations([1, -1, 1]) == 2


def test_sign_variations_ignores_zeros():
    assert sign_variations([1, 0, 0, -1]) == 1


@pytest.mark.parametrize("coeffs", [[1, 0, 1], [-1, 0, 0, -1], [0, 0]])
def test_sign_variations_zeros_between_equal_signs_change_nothing(coeffs):
    assert sign_variations(np.array(coeffs, dtype=float)) == 0
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
    assert sign_variations(coeffs) == 1
    poly = Polynomial(coeffs)
    assert poly(1.0) < 0 < poly(0.0)


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
    eig_roots = QUARTIC.roots()
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
