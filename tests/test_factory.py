import math

import numpy as np
import pytest

from harmclass.factory import (
    budget_weights,
    build_member,
    certify,
    extremal_h,
    member_to_json,
    sample_certified_h,
)
from harmclass.model import (
    ClassParams,
    constant_dilatation,
    dilatation_modulus,
    moebius_dilatation,
    rotation_dilatation,
)
from harmclass.series import TruncatedSeries, differentiate, evaluate_polar
from harmclass.verify import default_polar_grid

P011 = ClassParams(0, 0, 1)


def test_extremal_n2_delta1():
    h = extremal_h(2, 0.0, P011)
    assert np.allclose(h.coeffs, [0, 1, 0.25])


def test_extremal_n2_delta0():
    h = extremal_h(2, 0.0, ClassParams(0, 0, 0))
    assert np.allclose(h.coeffs, [0, 1, 0.5])
    assert certify(h, ClassParams(0, 0, 0)).budget_sum == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 9])
@pytest.mark.parametrize("theta", [0.0, 1.3, -2.0])
@pytest.mark.parametrize("alpha,beta,delta", [(0, 0, 1), (0.4, 0.2, 0), (0.8, 0.6, 2.5)])
def test_extremal_saturates_budget(n, theta, alpha, beta, delta):
    params = ClassParams(alpha, beta, delta)
    cert = certify(extremal_h(n, theta, params), params)
    assert cert.ok
    assert cert.budget_sum == pytest.approx(1.0, abs=1e-12)


def test_extremal_rejects_small_index():
    with pytest.raises(ValueError):
        extremal_h(1, 0.0, P011)


def test_certify_identity():
    cert = certify(TruncatedSeries([0, 1]), P011)
    assert cert.ok and cert.budget_sum == 0.0


def test_certify_budget_overrun():
    cert = certify(TruncatedSeries([0, 1, 0.3]), P011)
    assert cert.budget_sum == pytest.approx(1.2)
    assert not cert.ok


@pytest.mark.filterwarnings("error")
def test_certify_zero_coefficients_add_nothing_where_weights_overflow():
    """h = z padded with zeros to order 300 is in the class at any delta: at
    delta = 200 the weights n^200 overflow from n = 11 on, and inf * 0 must
    not turn the budget into NaN."""
    coeffs = np.zeros(301)
    coeffs[1] = 1.0
    cert = certify(TruncatedSeries(coeffs), ClassParams(0.3, 0.5, 200))
    assert cert.budget_sum == 0.0 and cert.ok
    coeffs[5] = 1e-300
    assert certify(TruncatedSeries(coeffs), ClassParams(0.3, 0.5, 200)).budget_sum > 0.0


@pytest.mark.filterwarnings("error")
def test_certify_takes_a_term_whose_weight_overflows_in_log_space():
    """h = z + 1e-320 z^300 at delta = 125: the weight 300^125 (...) overflows,
    but the term is 300^125 (299.7/0.7) 1e-320 ~ 1.87e-8, so h is certified."""
    coeffs = np.zeros(301)
    coeffs[1], coeffs[300] = 1.0, 1e-320
    params = ClassParams(0.3, 0.5, 125)
    assert np.isinf(budget_weights(params, 300)[-1])
    cert = certify(TruncatedSeries(coeffs), params)
    # 1.8695655978488...e-8: the exact term of the stored coefficient, from mpmath
    assert cert.budget_sum == pytest.approx(1.8695655978488e-8, rel=1e-12)
    assert cert.ok
    # a term past the float range is inf, and refused
    coeffs[300] = 1e-3
    cert = certify(TruncatedSeries(coeffs), params)
    assert cert.budget_sum == np.inf and not cert.ok


@pytest.mark.parametrize("seed", [0, 7, 991])
def test_certify_budget_is_the_plain_weighted_sum(seed):
    """Masking the zero coefficients keeps every finite budget bit for bit."""
    params = ClassParams(0.3, 0.5, 1.5)
    h = sample_certified_h(params, 12, 0.8, seed)
    coeffs = h.coeffs.copy()
    coeffs[3:7] = 0.0
    for series in (h, TruncatedSeries(coeffs)):
        plain = float(np.sum(budget_weights(params, 12) * np.abs(series.coeffs[2:])))
        assert certify(series, params).budget_sum == plain


def test_certify_rejects_unnormalized():
    with pytest.raises(ValueError):
        certify(TruncatedSeries([0.5, 1]), P011)


def test_sampler_zero_fill_is_identity():
    h = sample_certified_h(P011, max_degree=10, fill=0.0, rng_seed=1)
    assert np.allclose(h.coeffs, np.eye(11)[1])


@pytest.mark.parametrize("seed", [0, 7, 991])
@pytest.mark.parametrize("fill", [0.25, 1.0])
def test_sampler_hits_requested_budget(seed, fill):
    params = ClassParams(0.3, 0.2, 1.5)
    h = sample_certified_h(params, max_degree=12, fill=fill, rng_seed=seed)
    cert = certify(h, params)
    assert cert.ok
    assert cert.budget_sum == pytest.approx(fill, abs=1e-12)


def test_sampler_is_deterministic():
    a = sample_certified_h(P011, 16, 0.7, rng_seed=123)
    b = sample_certified_h(P011, 16, 0.7, rng_seed=123)
    c = sample_certified_h(P011, 16, 0.7, rng_seed=124)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_sampler_preconditions():
    with pytest.raises(ValueError):
        sample_certified_h(ClassParams(0, 0, -0.5), 8, 0.5, 1)
    with pytest.raises(ValueError):
        sample_certified_h(P011, 1, 0.5, 1)
    with pytest.raises(ValueError):
        sample_certified_h(P011, 8, 1.5, 1)


def _inline_sample(params, max_degree, fill, rng_seed):
    """The sampler's magnitudes and rescale formed from their logarithms."""
    n = np.arange(2, max_degree + 1, dtype=float)
    rng = np.random.default_rng(rng_seed)
    draws = rng.uniform(0.0, 1.0, n.size)
    phases = rng.uniform(0.0, 2.0 * np.pi, n.size)
    log_mags = np.log(draws) - (params.delta + 2.0) * np.log(n)
    terms = draws * (n - params.alpha) / ((1.0 - params.alpha) * n * n)
    kept = np.exp(math.log(fill / terms.sum()) + log_mags) >= np.finfo(float).tiny
    coeffs = np.zeros(max_degree + 1, dtype=complex)
    coeffs[1] = 1.0
    if kept.any():
        log_scale = math.log(fill / terms[kept].sum())
        coeffs[2:][kept] = np.exp(log_scale + log_mags[kept]) * np.exp(1j * phases[kept])
    return coeffs


def _direct_sample(params, max_degree, fill, rng_seed):
    """The same draws with magnitudes n^(-delta-2) and weights formed directly."""
    n = np.arange(2, max_degree + 1, dtype=float)
    rng = np.random.default_rng(rng_seed)
    mags = rng.uniform(0.0, 1.0, n.size) * n ** (-params.delta - 2.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, n.size)
    weights = n**params.delta * (n - params.alpha) / (1.0 - params.alpha)
    coeffs = np.zeros(max_degree + 1, dtype=complex)
    coeffs[1] = 1.0
    coeffs[2:] = (fill / float(np.sum(weights * mags))) * mags * np.exp(1j * phases)
    return coeffs


@pytest.mark.filterwarnings("error")
def test_sampler_forms_every_magnitude_from_its_logarithm():
    rng = np.random.default_rng(2535)
    for seed in range(200):
        alpha, beta, fill = rng.uniform(0.0, 1.0, 3).tolist()
        delta = float(rng.uniform(0.0, 253.5 if seed % 2 else 3.0))
        params = ClassParams(alpha, beta, delta)
        h = sample_certified_h(params, 16, fill, seed)
        assert h.coeffs.tobytes() == _inline_sample(params, 16, fill, seed).tobytes()
        # where every directly formed coefficient is a normal float, the two agree
        # to the rounding of exp at arguments down to -(delta + 2) log 16
        direct = _direct_sample(params, 16, fill, seed)
        if np.all(np.abs(direct[2:]) >= np.finfo(float).tiny):
            np.testing.assert_allclose(h.coeffs, direct, rtol=1e-12, atol=0.0)
    # 16^(-255.5) is the smallest normal float; past it the weights overflow too
    for delta in (253.5, 254.0, 300.0, 1015.0):
        params = ClassParams(0.3, 0.5, delta)
        for seed in range(20):
            h = sample_certified_h(params, 16, 0.5, seed)
            assert h.coeffs.tobytes() == _inline_sample(params, 16, 0.5, seed).tobytes()


@pytest.mark.filterwarnings("error")
def test_sampler_accepts_delta_up_to_the_float_range():
    params = ClassParams(0.3, 0.5, 253.5)
    h = sample_certified_h(params, 16, 0.5, 1)
    assert certify(h, params).budget_sum == pytest.approx(0.5, abs=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta", [254.0, 300.0, 645.5, 1000.0, 1015.0])
@pytest.mark.parametrize("fill", [0.5, 1.0])
def test_sampler_beyond_the_float_range_hits_the_budget_in_log_space(delta, fill):
    """At max_degree 16 the envelope 16^(-delta-2) is subnormal from delta >
    253.5 and the weight 16^delta overflows from delta ~ 255; the coefficients
    that stay normal floats carry the whole budget, and the others are 0."""
    params = ClassParams(0.3, 0.5, delta)
    for seed in range(20):
        h = sample_certified_h(params, 16, fill, seed)
        mags = np.abs(h.coeffs[2:])
        assert mags[0] > 0.0 and np.all((mags == 0.0) | (mags >= np.finfo(float).tiny))
        cert = certify(h, params)
        assert cert.ok and cert.budget_sum == pytest.approx(fill, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_sampler_gives_the_identity_where_no_coefficient_is_a_normal_float():
    """|a_2| <= (1 - alpha)/(2^delta (2 - alpha)) is below 2^-1022 above delta = 1021."""
    for delta in (1022.5, 1024.0 - 2.0**-43, 2000.0):
        h = sample_certified_h(ClassParams(0.3, 0.5, delta), 16, 1.0, 7)
        assert h.coeffs.tolist() == [0.0, 1.0] + [0.0] * 15


def test_build_member_rotation_gives_half_square():
    member = build_member(TruncatedSeries([0, 1]), rotation_dilatation(), P011)
    assert member.g.coeffs[2] == pytest.approx(0.5)
    assert abs(member.g.coeffs[1]) == 0.0


def test_build_member_records_beta():
    params = ClassParams(0, 0.3, 1)
    member = build_member(extremal_h(2, 0.0, params), moebius_dilatation(0.3), params)
    assert abs(member.g.coeffs[1]) == pytest.approx(0.3, abs=1e-13)


def test_build_member_rejects_beta_mismatch():
    with pytest.raises(ValueError):
        build_member(TruncatedSeries([0, 1]), moebius_dilatation(0.4), P011)


def test_build_member_rejects_uncertified():
    with pytest.raises(ValueError):
        build_member(TruncatedSeries([0, 1, 0.3]), rotation_dilatation(), P011)


def test_convex_combination_of_disjoint_extremals():
    h2 = extremal_h(2, 0.0, P011)
    h3 = extremal_h(3, 0.0, P011)
    mixed = TruncatedSeries(0.5 * np.pad(h2.coeffs, (0, 1)) + 0.5 * h3.coeffs)
    cert = certify(mixed, P011)
    assert cert.ok
    assert cert.budget_sum == pytest.approx(1.0, abs=1e-12)


def test_sampled_members_are_sense_preserving():
    """Certified h + admissible dilatation keeps the Jacobian |h'|^2 (1 - |w|^2)
    positive: |w| < 1 and |h'| > 0 on the default grid."""
    rng = np.random.default_rng(5)
    grid = default_polar_grid()
    for params in (P011, ClassParams(0.3, 0.5, 0)):
        for _ in range(5):
            h = sample_certified_h(params, 12, float(rng.uniform()), int(rng.integers(1 << 30)))
            member = build_member(h, moebius_dilatation(params.beta, 0.4, 1.0), params)
            assert np.max(dilatation_modulus(member.w, grid.radii, grid.n_angles)) < 1.0
            hp = evaluate_polar(differentiate(member.h), grid.radii, grid.n_angles)
            assert np.min(np.abs(hp)) > 0.0


def test_member_json_header():
    params = ClassParams(0, 0.3, 1)
    member = build_member(extremal_h(2, 0.0, params), moebius_dilatation(0.3), params)
    record = member_to_json(member, params, seed=9)
    assert record["params"] == {"alpha": 0.0, "beta": 0.3, "delta": 1.0}
    assert record["seed"] == 9
    assert record["h"]["order"] == 2
    assert len(record["g"]["re"]) == record["g"]["order"] + 1
    assert record["dilatation"]["kind"] == "moebius"


def test_member_json_records_a_constant_dilatation():
    params = ClassParams(0.3, 0.5, 1)
    member = build_member(extremal_h(2, 0.0, params), constant_dilatation(0.5, 0.2), params)
    record = member_to_json(member, params)
    assert record["dilatation"] == {"kind": "constant", "beta": 0.5, "mu": 0.2, "phi": 0.0}
