"""The factors of ring evaluation, memoised or formed per call: every value
equals the inline formula, bit for bit, whatever the state of the caches."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from harmclass import model, series, verify
from harmclass.factory import budget_weights, certify, sample_certified_h
from harmclass.model import ClassParams, dilatation_coeffs, dilatation_modulus, moebius_dilatation
from harmclass.series import TruncatedSeries, differentiate, evaluate_polar
from harmclass.verify import default_polar_grid, run_member_suite

CACHES = (series._ring_powers, model._half_angle_cos2, model._ring_factors)

ORDERS = (0, 1, 15, 16, 127, 128, 129, 269, 2818)

#: alpha x beta x delta: 30 parameter points, beta up to 0.99.
LATTICE = [
    ClassParams(alpha, beta, delta)
    for alpha in (0.0, 0.3, 0.6)
    for beta in (0.0, 0.3, 0.6, 0.9, 0.99)
    for delta in (0.0, 1.0)
]


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_bits(a, b) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(_bits(a), _bits(b))


def _inline_evaluate_polar(s, radii, n_angles):
    """``evaluate_polar`` with its powers formed inline."""
    radii = np.asarray(radii, dtype=float)
    m = int(n_angles)
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
    k = min(m, s.coeffs.size)
    val[:, :k] *= radii[:, None] ** np.arange(k)
    return np.fft.ifft(val, axis=1, norm="forward")


def _inline_modulus(w, radii, n_angles):
    """The Moebius branch of ``dilatation_modulus`` with its half-angle factor inline."""
    radii = np.asarray(radii, dtype=float)
    m = int(n_angles)
    beta, r = w.beta, radii[:, None]
    a, b = np.pi * np.arange(m) / m, 0.5 * w.phi
    s = a + b
    v = s - a
    e = (a - (s - v)) + (b - v)
    q = (4.0 * beta) * r * (np.cos(s) - e * np.sin(s)) ** 2
    out = (r - beta) ** 2 + q
    out /= ((1.0 - beta) + beta * (1.0 - r)) ** 2 + q
    return np.sqrt(out, out=out)


def _inline_coeffs(w, order):
    """The Moebius branch of ``dilatation_coeffs`` with its factors inline."""
    coeffs = np.zeros(order + 1, dtype=complex)
    beta = w.beta
    coeffs[0] = beta * np.exp(1j * w.mu)
    if order >= 1:
        n = np.arange(1, order + 1)
        coeffs[1:] = (
            np.exp(1j * w.mu)
            * np.exp(1j * n * w.phi)
            * (1.0 - beta * beta)
            * np.where(n % 2 == 1, 1.0, -1.0)
            * beta ** (n - 1)
        )
    return coeffs


def _inline_weights(params, n_max):
    n = np.arange(2, n_max + 1, dtype=float)
    with np.errstate(over="ignore"):
        return n**params.delta * (n - params.alpha) / (1.0 - params.alpha)


def _random_series(order, seed):
    rng = np.random.default_rng(seed)
    return TruncatedSeries(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))


def _random_rings(seed):
    rng = np.random.default_rng(seed)
    size, n_angles = int(rng.integers(1, 40)), int(rng.integers(1, 300))
    return np.sort(rng.uniform(0.0, 1.0, size)), n_angles


RING_SETS = [
    (default_polar_grid().radii, default_polar_grid().n_angles),
    (np.array([0.999]), 256),
    *(_random_rings(seed) for seed in (1, 2, 3)),
]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("rings", range(len(RING_SETS)))
def test_evaluate_polar_matches_inline_powers(order, rings):
    radii, n_angles = RING_SETS[rings]
    s = _random_series(order, order)
    expected = _inline_evaluate_polar(s, radii, n_angles)
    assert_same_bits(evaluate_polar(s, radii, n_angles), expected)
    assert_same_bits(evaluate_polar(s, radii, n_angles), expected)  # from the cache


def test_evaluate_polar_after_eviction():
    radii, n_angles = RING_SETS[2]
    s = _random_series(129, 7)
    expected = _inline_evaluate_polar(s, radii, n_angles)
    assert_same_bits(evaluate_polar(s, radii, n_angles), expected)
    capacity = series._ring_powers.cache_info().maxsize
    for j in range(capacity + 6):
        evaluate_polar(s, [0.5 + j / 1000.0], 9)
    misses = series._ring_powers.cache_info().misses
    assert_same_bits(evaluate_polar(s, radii, n_angles), expected)
    assert series._ring_powers.cache_info().misses == misses + 1  # it was evicted
    assert series._ring_powers.cache_info().currsize <= capacity
    # one entry per (radii, n_angles, rows) serves every series of that many rows
    head = TruncatedSeries(s.coeffs[:2])
    expected = _inline_evaluate_polar(head, radii, n_angles)
    assert_same_bits(evaluate_polar(head, radii, n_angles), expected)
    assert series._ring_powers.cache_info().misses == misses + 1


def test_a_member_reads_two_ring_entries_on_the_grid():
    # h', h and g have 16, 17 and 366 coefficients: h' and h fold into 1 row, g into 3
    grid = default_polar_grid()
    params = ClassParams(0.3, 0.9, 1.0)
    series._ring_powers.cache_clear()
    for seed in (3, 4):
        h = sample_certified_h(params, 16, 0.8, seed)
        member = model.harmonic_map(h, moebius_dilatation(0.9, 1.0, 2.5))
        assert -(-member.g.coeffs.size // grid.n_angles) == 3
        for s in (differentiate(member.h), member.h, member.g):
            evaluate_polar(s, grid.radii, grid.n_angles)
        info = series._ring_powers.cache_info()
        assert (info.currsize, info.misses) == (2, 2)  # the second member adds none


def test_threads_sharing_ring_entries_get_fresh_values_and_replace_none():
    rings = [
        (default_polar_grid().radii, default_polar_grid().n_angles),
        (np.array([model.COVERING_CIRCLE_RADIUS]), 256),
    ]
    keys = [(radii, n_angles, rows) for radii, n_angles in rings for rows in (1, 3, 25)]
    calls = [
        (_random_series(rows * n_angles - 1, rows), radii, n_angles)
        for radii, n_angles, rows in keys
    ]
    expected = []
    for call in calls:
        series._ring_powers.cache_clear()
        expected.append(evaluate_polar(*call).tobytes())
    series._ring_powers.cache_clear()
    got = [[None] * len(calls) for _ in range(2 * len(calls))]
    start = threading.Barrier(len(got))

    def work(i):
        start.wait()
        for k in range(len(calls)):  # each thread starts at another call
            j = (i + k) % len(calls)
            got[i][j] = evaluate_polar(*calls[j]).tobytes()

    def run_threads():
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(got))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(row == expected for row in got)

    def entries():
        return [
            series._ring_powers(radii.tobytes(), n_angles, rows) for radii, n_angles, rows in keys
        ]

    run_threads()
    assert series._ring_powers.cache_info().currsize == len(calls)
    stored = entries()
    run_threads()
    for held, entry in zip(stored, entries()):
        assert all(a is b for a, b in zip(held, entry))


#: More phi than the cache holds; each signed zero also comes first once.
PHIS = [0.0, -0.0, np.pi, -np.pi, 2.0 * np.pi, 1e-300, 123.456, -7.25] + [
    float(x) for x in np.random.default_rng(5).uniform(-10.0, 10.0, 10)
] + [-0.0, 0.0]


@pytest.mark.parametrize("beta", (0.0, 0.3, 0.99))
def test_dilatation_modulus_matches_inline_half_angle(beta):
    grid = default_polar_grid()
    rings = [(grid.radii, grid.n_angles), (np.linspace(0.01, 0.99, 15), 128), RING_SETS[3]]
    assert len(PHIS) > model._half_angle_cos2.cache_info().maxsize
    for _ in range(2):  # the second pass runs after the first has been evicted
        for phi in PHIS:
            w = moebius_dilatation(beta, 0.4, phi)
            for radii, n_angles in rings:
                out = dilatation_modulus(w, radii, n_angles)
                assert_same_bits(out, _inline_modulus(w, radii, n_angles))
                if beta == 0.0:
                    assert_same_bits(out, np.broadcast_to(radii[:, None], out.shape).copy())


def _area_ring_sets(beta):
    """The ring sets that the area quadrature passes to ``dilatation_modulus``
    for one member at ``beta`` (one per bisection level)."""
    rings = []

    def spy(w, radii, n_angles, out=None, scratch=None):
        rings.append((np.array(radii), n_angles))
        return dilatation_modulus(w, radii, n_angles, out, scratch)

    params = ClassParams(0.3, beta, 1.0)
    h = sample_certified_h(params, 16, 0.8, 3)
    original = verify.dilatation_modulus
    verify.dilatation_modulus = spy
    try:
        verify._measure_area(differentiate(h), moebius_dilatation(beta, 0.4, 1.1), 1e-8)
    finally:
        verify.dilatation_modulus = original
    return rings


MODULUS_PIN_BETAS = (0.0, 0.3, 0.6, 0.9, 0.99, 0.9999)


@pytest.mark.parametrize("beta", MODULUS_PIN_BETAS)
def test_dilatation_modulus_has_the_bits_of_the_broadcast_form(beta):
    # two radial factors read as full arrays from their cache, the half-angle
    # row and the (r - beta)^2 column copied in, every product and sum in
    # place: the bits of the broadcast expression, on the grid, the covering
    # circle and area rings
    grid = default_polar_grid()
    rings = [(grid.radii, grid.n_angles), (np.array([model.COVERING_CIRCLE_RADIUS]), 256)]
    rings += _area_ring_sets(0.99)[:2]
    for phi in (0.0, 2.5, -4.0):
        w = moebius_dilatation(beta, 0.4, phi)
        for radii, n_angles in rings:
            expected = _inline_modulus(w, radii, n_angles)
            assert_same_bits(dilatation_modulus(w, radii, n_angles), expected)
            out, scratch = (np.full(expected.shape, np.nan) for _ in range(2))
            assert dilatation_modulus(w, radii, n_angles, out, scratch) is out
            assert_same_bits(out, expected)


def test_ring_factors_are_read_only_full_rows_in_a_bounded_cache():
    grid = default_polar_grid()
    model._ring_factors.cache_clear()
    r = grid.radii[:, None]
    for beta in (0.3, 0.99):
        factors = model._ring_factors(beta, grid.radii.tobytes(), grid.n_angles)
        columns = ((4.0 * beta) * r, ((1.0 - beta) + beta * (1.0 - r)) ** 2)
        for factor, column in zip(factors, columns, strict=True):
            assert factor.shape == (grid.radii.size, grid.n_angles) and factor.flags.c_contiguous
            assert not factor.flags.writeable
            assert_same_bits(factor, np.broadcast_to(column, factor.shape).copy())
        assert model._ring_factors(beta, grid.radii.tobytes(), grid.n_angles) is factors
    for beta in np.linspace(0.05, 0.95, 12):  # more (beta, rings) than it holds
        dilatation_modulus(moebius_dilatation(float(beta)), grid.radii, grid.n_angles)
    assert model._ring_factors.cache_info().currsize == model._ring_factors.cache_info().maxsize == 4


def test_dilatation_coeffs_match_inline_factors():
    for beta in (0.0, -0.0, 0.3, 0.6, 0.99):
        for order in (0, 1, 64, 2817):
            for mu, phi in ((0.0, 0.0), (0.7, -1.2), (5.0, 3.3)):
                w = moebius_dilatation(beta, mu, phi)
                assert_same_bits(dilatation_coeffs(w, order).coeffs, _inline_coeffs(w, order))


def test_budget_weights_and_sampler_match_inline_factors():
    for params in LATTICE[:6] + [ClassParams(0.3, 0.5, 250.0), ClassParams(0.3, 0.5, -3.0)]:
        for n_max in (2, 16, 40):
            assert_same_bits(budget_weights(params, n_max), _inline_weights(params, n_max))
    params = ClassParams(0.3, 0.5, 1.0)
    h = sample_certified_h(params, 16, 0.7, 11)
    n = np.arange(2, 17, dtype=float)
    rng = np.random.default_rng(11)
    draws = rng.uniform(0.0, 1.0, size=15)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=15)
    log_mags = np.log(draws) - (params.delta + 2.0) * np.log(n)
    terms = draws * (n - params.alpha) / ((1.0 - params.alpha) * n * n)
    log_scale = math.log(0.7 / terms.sum())
    assert_same_bits(h.coeffs[2:], np.exp(log_scale + log_mags) * np.exp(1j * phases))


def test_cached_arrays_are_read_only():
    grid = default_polar_grid()
    arrays = [
        *series._ring_powers(grid.radii.tobytes(), grid.n_angles, 5),
        model._half_angle_cos2(0.25, 128),
    ]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0


def test_returned_arrays_are_writable_and_leave_the_next_call_unchanged():
    grid = default_polar_grid()
    s = _random_series(40, 3)
    w = moebius_dilatation(0.6, 0.1, 0.2)
    for call in (
        lambda: evaluate_polar(s, grid.radii, grid.n_angles),
        lambda: dilatation_modulus(w, grid.radii, grid.n_angles),
    ):
        first = call()
        kept = first.copy()
        assert first.flags.writeable
        first[...] = np.nan
        assert_same_bits(call(), kept)


def test_budget_weights_is_a_fresh_array_that_certify_does_not_read():
    params = ClassParams(0.3, 0.6, 1.0)
    h = sample_certified_h(params, 16, 0.9, 4)
    budget = certify(h, params).budget_sum
    weights = budget_weights(params, 16)
    assert weights is not budget_weights(params, 16)
    weights[:] = 1e300
    assert_same_bits(budget_weights(params, 16), _inline_weights(params, 16))
    assert certify(h, params).budget_sum == budget


def _lattice_reports(points):
    return {
        params: repr([reports for _, _, reports in run_member_suite(params, 6, 11)])
        for params in points
    }


def test_member_suite_does_not_depend_on_cache_state():
    warm = _lattice_reports(LATTICE)
    for cache in CACHES:
        cache.cache_clear()
    assert _lattice_reports(LATTICE) == warm
    rotated = LATTICE[len(LATTICE) // 2 + 1 :] + LATTICE[: len(LATTICE) // 2 + 1]
    assert _lattice_reports(rotated) == warm


def test_caches_stay_small_after_a_sweep():
    # about 690 KiB of ring powers and 530 KiB of |w| ring factors (two full
    # arrays per beta, for the grid and the area rings of beta 0.9 and 0.99)
    for cache in CACHES:
        cache.cache_clear()
    tracemalloc.start()
    try:
        for params in LATTICE:
            run_member_suite(params, 2, 17)
        held = tracemalloc.get_traced_memory()[0]
        assert all(cache.cache_info().currsize > 0 for cache in CACHES)
        for cache in CACHES:
            cache.cache_clear()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < held < 3 * 2**19
