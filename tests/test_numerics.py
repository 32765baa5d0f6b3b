import itertools
import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from harmclass import numerics
from harmclass.bounds import bloch_H_poly
from harmclass.errors import QuadratureError
from harmclass.model import ClassParams
from harmclass.numerics import adaptive_quadrature, digamma, sign_variations

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
    """The depth-first recursion, one panel at a time, whose values
    ``numerics._adaptive_levels`` reproduces level by level."""
    est, err = _gauss_kronrod_15(f, a, b)
    if err <= tol:
        return est
    mid = 0.5 * (a + b)
    if depth >= numerics._DEPTH_LIMIT or mid <= a or mid >= b:
        raise QuadratureError(f"panel [{a!r}, {b!r}] on level {depth} cannot be refined")
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


def test_starting_panels_past_the_budget_raise_before_any_integrand_call():
    f = lambda x: np.cos(x)
    sizes = []
    edges = np.linspace(0.0, 1.0, numerics._PANEL_BUDGET + 1)  # 256 panels: one call
    assert _levels(f, edges, 1e-9, sizes) == _recursion(f, edges.tolist(), 1e-9)
    _assert_calls(sizes, [15 * 256])
    sizes.clear()
    edges = np.concatenate(([0.0], np.linspace(0.001, 0.999, 601)))  # 601 panels
    with pytest.raises(QuadratureError, match="more than 256 panels"):
        _levels(f, edges, 1e-9, sizes)
    assert sizes == []


# NaN from 1e6 on: no panel there converges, so each is split until the budget
# or the width of a float stops it
_NAN_FROM_1E6 = lambda x: np.where(x >= 1e6, math.nan, 0.0)


#: Node counts of the integrand calls when every panel is split: 1, 2, 4, ...,
#: 128 panels, and the level of 256 would take the total past the budget.
_DOUBLING = [15 * 2**j for j in range(8)]


@pytest.mark.parametrize(
    "f, edges, reason, expected",
    [
        (lambda x: (x >= 1 / 3) * 1.0, [0.0, 1.0], "in 40 levels", [15] + [30] * 40),
        (
            lambda x: (x >= 1 / 3) + (x >= 2 / 3) * 1.0,
            [0.0, 0.5, 1.0],
            "in 40 levels",
            [30] + [60] * 40,
        ),
        (lambda x: x * math.nan, [0.0, 1.0], "more than 256 panels", _DOUBLING),
        # the right interval doubles its panels; the left one converges on level 0
        (_NAN_FROM_1E6, [0.0, 1e6, 1e6 + 1e-4], "more than 256 panels", [30] + _DOUBLING[1:]),
        # the right interval doubles its panels, the left one keeps two at the step
        (
            lambda x: (x >= 1e6 / 3) + _NAN_FROM_1E6(x),
            [0.0, 1e6, 1e6 + 1e-4],
            "more than 256 panels",
            [30, 60, 90, 150, 270, 510, 990],
        ),
        # the right interval gets stuck on level 3, while the left one still refines
        (
            lambda x: 1e-9 * np.exp(-(((x - 3e5) / 3e4) ** 2)) + _NAN_FROM_1E6(x),
            [0.0, 1e6, 1e6 + 1e-9],
            "too narrow",
            [30, 60, 90, 180],
        ),
    ],
    ids=[
        "step", "two-steps", "nan-everywhere", "unsplittable", "stuck-right",
        "stuck-while-refining",
    ],
)
def test_levels_raise_within_the_budget(f, edges, reason, expected):
    """Where the depth-first recursion raises, the levels raise too, after at
    most _DEPTH_LIMIT + 1 integrand calls on at most 15 * 256 nodes in all."""
    with pytest.raises(QuadratureError):
        _recursion(f, edges, 1e-13)
    calls = []
    with pytest.raises(QuadratureError, match=reason):
        _levels(f, edges, 1e-13, calls)
    assert len(calls) <= numerics._DEPTH_LIMIT + 1 and sum(calls) <= 3840
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


@pytest.mark.parametrize(
    "coeffs",
    [[1, 0, 1], [-1, 0, 0, -1], [0, 0], [1, -0.0, 1], [-5e-324, -0.0, 0, -1], [5e-324, 0.0, 1e307], [-0.0]],
)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_sign_variations_rejects_non_finite_coefficients(bad, where):
    """Wherever a non-finite coefficient stands, after zeros, -0.0 and
    subnormals or before them, in a list, an array or a tuple."""
    coeffs = [1.0, -0.0, -1.0, 5e-324, 2.0]
    coeffs[where] = bad
    for seq in (coeffs, np.array(coeffs), tuple(coeffs)):
        with pytest.raises(ValueError, match="finite"):
            sign_variations(seq)


def _pairwise_variations(coeffs):
    """The definition: neighbouring nonzero coefficients of opposite sign."""
    nonzero = [c for c in coeffs if c != 0.0]
    return sum((s > 0.0) != (t > 0.0) for s, t in zip(nonzero, nonzero[1:]))


def _seeded_sequences():
    """600 seeded sequences of up to 12 entries drawn from zeros, -0.0, the
    smallest and largest subnormals and normals of both signs."""
    tiny, subnormal_max = 5e-324, math.nextafter(2.2250738585072014e-308, 0.0)
    pool = [0.0, -0.0, tiny, -tiny, subnormal_max, -subnormal_max, 1.0, -1.0, 1e307, -2.5e-300]
    rng = np.random.default_rng(1637)
    sequences = []
    for _ in range(600):
        picks = rng.integers(0, len(pool), int(rng.integers(0, 13)))
        seq = [pool[i] for i in picks.tolist()]
        if rng.uniform() < 0.3:
            seq = [c * float(rng.uniform(0.5, 2.0)) for c in seq]
        sequences.append(seq)
    return sequences


def test_sign_variations_match_the_pairwise_definition_on_seeded_sequences():
    """Zeros and -0.0 are skipped, subnormals count with their sign, as
    lists, tuples and float arrays."""
    sequences = _seeded_sequences()
    counts = [_pairwise_variations(seq) for seq in sequences]
    assert max(counts) >= 6 and sum(any(c == 0.0 for c in seq) for seq in sequences) >= 400
    for seq, expected in zip(sequences, counts):
        assert sign_variations(seq) == expected, seq
        assert sign_variations(tuple(seq)) == expected, seq
        assert sign_variations(np.array(seq, dtype=float)) == expected, seq
