import dataclasses
import json
import math
import sys
import threading
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

import oracle_decimal
from harmclass.bounds import area_envelope, bloch_bound, bn_bound, distortion_slope
from harmclass.factory import build_member, extremal_h, sample_certified_h
from harmclass.model import (
    ClassParams,
    HarmonicMapSpec,
    co_analytic_from,
    constant_dilatation,
    dilatation_modulus,
    harmonic_map,
    moebius_dilatation,
    rotation_dilatation,
)
from harmclass import bounds, numerics, verify
from harmclass.errors import QuadratureError
from harmclass.numerics import adaptive_quadrature
from harmclass.series import TruncatedSeries, differentiate, evaluate, evaluate_polar
from harmclass.verify import (
    PolarGrid,
    _EnvelopeTable,
    _GridSample,
    default_polar_grid,
    report_to_dict,
    run_member_suite,
    verify_area,
    verify_bloch,
    verify_coefficients,
    verify_convexity,
    verify_covering,
    verify_distortion,
    verify_f_growth,
    verify_g_growth,
    verify_member,
)

P011 = ClassParams(0, 0, 1)


def extremal_member():
    return build_member(extremal_h(2, 0.0, P011), rotation_dilatation(), P011)


def identity_member():
    return harmonic_map(TruncatedSeries([0, 1]), constant_dilatation(0.0))


def half_square_member():
    return build_member(TruncatedSeries([0, 1]), rotation_dilatation(), P011)


def test_extremal_member_passes_all_seven():
    reports = verify_member(extremal_member(), P011)
    assert [r.theorem for r in reports] == [
        "coeff",
        "distortion",
        "g_growth",
        "area",
        "f_growth",
        "covering",
        "bloch",
    ]
    assert all(r.passed for r in reports)


def test_extremal_member_coefficient_equality():
    rep = verify_coefficients(extremal_member(), P011, n_max=6)
    assert rep.passed
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-12)
    assert rep.witness == "n=2"


def test_extremal_member_touches_distortion_envelope():
    rep = verify_distortion(extremal_member(), P011)
    assert rep.passed
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-12)


def test_extremal_member_sits_on_covering_floor():
    rep = verify_covering(extremal_member(), P011)
    assert rep.passed
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-10)


def test_identity_member_coefficients_trivial():
    rep = verify_coefficients(identity_member(), P011, n_max=8)
    assert rep.passed


def test_identity_member_covering_proxy():
    rep = verify_covering(identity_member(), P011)
    assert rep.passed
    # min |z| on the r = 0.999 circle is 0.999, far above the floor ~ 5/12
    assert rep.worst_margin == pytest.approx(0.999 - 5 / 12, abs=1e-3)


def test_vanishing_dilatation_violates_area_envelope():
    """f = z has Jacobian 1 and area pi, which exceeds the upper envelope:
    the proof needs |w| to reach the lower dilatation envelope, and w = 0
    does not.  The report must record the violation, not raise."""
    rep = verify_area(identity_member(), P011)
    assert not rep.passed
    assert rep.worst_margin == pytest.approx(97 * math.pi / 120 - math.pi, abs=1e-6)


def test_constant_dilatation_falls_below_the_moebius_gprime_lower_side():
    """The |g'| lower side |beta - r|/(1 - beta r) (1 - c r) is sharp for
    Moebius w only: near r = 1 it tends to 1 - c, while w = 0.5 keeps
    |g'| = |h'|/2.  The distortion check records the violation at the
    outermost ring."""
    params = ClassParams(0.3, 0.5, 1)
    h = sample_certified_h(params, 16, 0.7, 3)
    rep = verify_distortion(build_member(h, constant_dilatation(0.5), params), params)
    assert not rep.passed
    assert rep.witness.startswith("|g'| lower at r=0.995,")
    assert rep.worst_margin == pytest.approx(-0.10827858967853421, abs=1e-12)


@pytest.mark.parametrize("member", [half_square_member, identity_member])
def test_area_of_polynomial_jacobian_is_exact_at_table_tolerance(member):
    """The Jacobians of these members are polynomials in r on each ring, so the
    Kronrod rule integrates them exactly: a tighter tolerance gives the same bits."""
    f = member()
    hprime = differentiate(f.h)
    assert verify._measure_area(hprime, f.w, 1e-9) == verify._measure_area(hprime, f.w, 1e-8)


def test_half_square_member_area_is_half_pi():
    rep = verify_area(half_square_member(), P011)
    assert rep.passed
    measured = float(rep.witness.split()[1])
    assert measured == pytest.approx(math.pi / 2, abs=1e-6)


def test_half_square_member_bloch_peak():
    rep = verify_bloch(half_square_member(), P011)
    assert rep.passed
    measured = float(rep.witness.split()[1])
    # sup of (1 - r^2)(1 + r) is 32/27; the grid gets within its resolution
    assert measured <= 32 / 27 + 1e-12
    assert measured == pytest.approx(32 / 27, abs=5e-4)
    assert bloch_bound(P011).bound > measured


def test_bloch_grid_refinement_is_monotone():
    member = extremal_member()
    measured = []
    for n_radii in (16, 32, 64):
        grid = default_polar_grid(n_radii=n_radii, n_angles=64)
        rep = verify_bloch(member, P011, grid)
        assert rep.passed
        measured.append(bloch_bound(P011).bound - rep.worst_margin)
    assert measured[0] <= measured[1] + 1e-15
    assert measured[1] <= measured[2] + 1e-15


def test_convexity_of_identical_extremals():
    h2 = extremal_h(2, 0.0, P011)
    rep = verify_convexity(h2, h2, [0.0, 0.25, 0.5, 0.75, 1.0], P011)
    assert rep.passed
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-12)


def test_convexity_of_disjoint_extremals():
    rep = verify_convexity(
        extremal_h(2, 0.0, P011), extremal_h(3, 0.0, P011), [0.5], P011
    )
    assert rep.passed
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-12)


def test_convexity_of_random_certified_pairs():
    from harmclass.factory import sample_certified_h

    rng = np.random.default_rng(17)
    for _ in range(10):
        h1 = sample_certified_h(P011, 10, float(rng.uniform()), int(rng.integers(1 << 30)))
        h2 = sample_certified_h(P011, 14, float(rng.uniform()), int(rng.integers(1 << 30)))
        rep = verify_convexity(h1, h2, [0.0, 0.25, 0.5, 0.75, 1.0], P011)
        assert rep.passed


def test_convexity_rejects_nonzero_beta():
    h2 = extremal_h(2, 0.0, P011)
    with pytest.raises(ValueError):
        verify_convexity(h2, h2, [0.5], ClassParams(0, 0.2, 1))


def test_convexity_rejects_uncertified_input():
    with pytest.raises(ValueError):
        verify_convexity(
            TruncatedSeries([0, 1, 0.9]), extremal_h(2, 0.0, P011), [0.5], P011
        )


def test_coefficient_check_stops_at_the_g_order():
    h = extremal_h(3, 0.5, P011)
    w = moebius_dilatation(0.0, 0.2, 0.7)
    member = HarmonicMapSpec(h, w, co_analytic_from(h, w, 4))
    rep = verify_coefficients(member, P011, n_max=12)
    margins = [bn_bound(P011, n) - abs(member.g.coeffs[n]) for n in range(2, 5)]
    assert rep.worst_margin == min(margins)
    assert rep.witness == f"n={2 + margins.index(min(margins))}"
    with pytest.raises(ValueError, match="coefficient index"):
        verify_coefficients(member, P011, n_max=1)
    # a g of order 1 has no index n >= 2 to check
    linear = HarmonicMapSpec(h, w, co_analytic_from(h, w, 1))
    with pytest.raises(ValueError, match="order"):
        verify_coefficients(linear, P011, n_max=12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_member_suite(P011, members=0, seed=1),
        lambda: verify_convexity(extremal_h(2, 0.0, P011), extremal_h(2, 0.0, P011), [], P011),
    ],
    ids=["run_member_suite_no_members", "verify_convexity_no_lambdas"],
)
def test_checks_that_check_nothing_are_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_report_serializes_to_json_line():
    rep = verify_coefficients(extremal_member(), P011, n_max=4)
    record = report_to_dict(rep, member=3, alpha=0.0)
    line = json.dumps(record, sort_keys=True)
    parsed = json.loads(line)
    assert parsed["theorem"] == "coeff"
    assert parsed["member"] == 3
    assert parsed["passed"] is True
    assert parsed["slack"] == 1e-9


def test_report_dict_is_the_fields_then_extra_and_leaves_the_report_alone():
    rep = verify_coefficients(extremal_member(), P011, n_max=4)
    record = report_to_dict(rep, member=3, alpha=0.0)
    assert list(record.items()) == [*dataclasses.asdict(rep).items(), ("member", 3), ("alpha", 0.0)]
    record["witness"] = "changed"
    assert rep.witness != "changed"
    assert report_to_dict(rep, witness="extra wins")["witness"] == "extra wins"


def test_member_suite_is_deterministic():
    a = run_member_suite(P011, members=3, seed=99)
    b = run_member_suite(P011, members=3, seed=99)
    margins_a = [(idx, r.theorem, r.worst_margin) for idx, _, reps in a for r in reps]
    margins_b = [(idx, r.theorem, r.worst_margin) for idx, _, reps in b for r in reps]
    assert margins_a == margins_b


def test_member_suite_reports_seven_per_member():
    results = run_member_suite(ClassParams(0.3, 0.5, 1), members=4, seed=3)
    assert len(results) == 4
    for _, _, reports in results:
        assert len(reports) == 7
        assert all(r.passed for r in reports)


# ------------------------------------------------------------- grid and table

@pytest.mark.parametrize(
    "radii",
    [
        [0.9, 0.2],  # unsorted: the g-growth reference reused the 0.9 integral at 0.2
        [0.2, 0.2, 0.9],
        [0.0, 0.5],
        [0.5, 1.0],
        [0.5, 0.9991],  # past the covering circle, where g has no error bound
        [-0.1, 0.5],
        [],
        [[0.2, 0.9]],
    ],
)
def test_polar_grid_rejects_bad_radii(radii):
    with pytest.raises(ValueError, match="radii"):
        PolarGrid(radii=np.array(radii), n_angles=8)


@pytest.mark.parametrize("n_angles", [0, -8, 8.0, True])
def test_polar_grid_rejects_bad_n_angles(n_angles):
    with pytest.raises(ValueError, match="n_angles"):
        PolarGrid(radii=np.array([0.2, 0.9]), n_angles=n_angles)


def test_polar_grid_owns_read_only_radii():
    source = np.array([0.2, 0.5])
    grid = PolarGrid(radii=source, n_angles=8)
    source[0] = 0.9  # would leave the grid unsorted after validation if aliased
    assert grid.radii.tolist() == [0.2, 0.5]
    with pytest.raises(ValueError):
        grid.radii[0] = 0.9
    with pytest.raises(ValueError):
        grid.angles[0] = 0.0


def test_polar_grid_compares_and_hashes_by_identity():
    grid = default_polar_grid(16, 32)
    copy = PolarGrid(radii=grid.radii, n_angles=grid.n_angles)
    assert hash(grid) == hash(grid) != hash(copy)
    assert grid == grid
    assert grid != copy
    assert len({grid, copy, grid}) == 2


def test_polar_grid_accepts_a_list_of_radii():
    grid = PolarGrid(radii=[0.2, 0.5], n_angles=8)
    assert grid.radii.dtype == float
    assert grid.radii.tolist() == [0.2, 0.5]


def test_default_grid_and_its_points_are_built_once():
    grid = default_polar_grid()
    assert default_polar_grid() is grid
    assert default_polar_grid(16, 32) is default_polar_grid(16, 32) is not grid
    assert grid.angles is grid.angles
    assert verify._table(P011).grid is grid


def _stacked_report(margins, labels, grid):
    """The former grid report: the first minimum of one stacked margin array
    of shape (radii, sides, angles)."""
    r_idx, side, t_idx = np.unravel_index(int(np.argmin(margins)), margins.shape)
    witness = f"{labels[side]} at r={grid.radii[r_idx]:.6g}, theta={grid.angles[t_idx]:.6g}"
    return margins[r_idx, side, t_idx], witness


def _random_sides(rng, n_radii, n_angles):
    """Sides on a coarse lattice of values, so exact ties are common across
    angles, sides and radii; at most one lower side with a -inf envelope at
    some radii (unscored there), as in g-growth."""
    shape = (n_radii, n_angles)
    sides = []
    masked = rng.uniform() < 0.5
    for k in range(int(rng.integers(1, 5))):
        values = rng.integers(0, 4, size=shape) * 0.25
        envelope = rng.integers(-1, 5, size=(n_radii, 1)) * 0.25
        upper = bool(rng.integers(0, 2))
        if masked and k == 0:
            upper = False
            envelope[rng.uniform(size=n_radii) < 0.5] = -np.inf
            envelope[int(rng.integers(0, n_radii))] = -np.inf
        sides.append([f"side {k}", values, envelope, upper])
    if rng.uniform() < 0.5:
        # the same least margin planted on every side at one radius and angle
        i, j = int(rng.integers(0, n_radii)), int(rng.integers(0, n_angles))
        for side in sides:
            if np.isfinite(side[2][i, 0]):
                side[1][i, j] = side[2][i, 0] + (-1.0 if side[3] else 1.0)
    return [tuple(side) for side in sides]


@pytest.mark.parametrize("seed", range(6))
def test_grid_report_equals_stacked_argmin(seed):
    rng = np.random.default_rng(seed)
    for case in range(100):
        n_radii, n_angles = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        grid = PolarGrid(radii=np.linspace(0.1, 0.9, n_radii), n_angles=n_angles)
        sides = _random_sides(rng, n_radii, n_angles)
        if case % 4 == 1:
            sides[0][1][int(rng.integers(0, n_radii)), int(rng.integers(0, n_angles))] = np.nan
        if case % 4 == 2 and np.isneginf(sides[0][2]).any():
            # a NaN inside an unscored row and one outside it
            unscored = np.flatnonzero(np.isneginf(sides[0][2][:, 0]))
            sides[0][1][unscored[0], int(rng.integers(0, n_angles))] = np.nan
            sides[-1][1][int(rng.integers(0, n_radii)), int(rng.integers(0, n_angles))] = np.nan
        if case % 4 == 3:
            sides[0][1][int(rng.integers(0, n_radii)), int(rng.integers(0, n_angles))] = -0.0
        stacked = np.stack(
            [
                envelope - values if upper else values - envelope
                for _, values, envelope, upper in sides
            ],
            axis=1,
        )
        expected = _stacked_report(stacked, [side[0] for side in sides], grid)
        got = verify._grid_report("t", tuple(sides), grid)
        assert got.witness == expected[1]
        assert np.float64(got.worst_margin).tobytes() == np.float64(expected[0]).tobytes()


def test_extremal_member_touches_g_growth_lower_envelope():
    # for beta = 0 the lower side is scored at every radius, and w = z attains it
    # (the upper side too, so which side reports the least margin is rounding)
    member = extremal_member()
    assert verify_g_growth(member, P011).passed
    table = verify._table(P011)
    with _GridSample(member, table.grid) as sample:
        lower = (("|g| lower", sample.g, table.g_lower_scored, False),)
        rep = verify._grid_report("g_growth", lower, table.grid)
    assert rep.passed
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-12)


def test_nan_at_an_unscored_radius_fails_g_growth():
    params = ClassParams(0.3, 0.6, 1)
    member = run_member_suite(params, members=1, seed=4)[0][1]
    table = verify._table(params)
    radii, angles = table.grid.radii, table.grid.angles
    unscored = int(np.argmax(radii > params.beta))
    assert table.g_lower_scored[unscored, 0] == -np.inf
    with _GridSample(member, table.grid) as sample:
        assert verify._g_growth(sample, table).passed
        sample.g = sample.g.copy()
        sample.g[unscored, 3] = np.nan
        rep = verify._g_growth(sample, table)
        assert not rep.passed and math.isnan(rep.worst_margin)
        # the upper side comes first at that radius; the lower side alone fails too
        assert rep.witness == f"|g| upper at r={radii[unscored]:.6g}, theta={angles[3]:.6g}"
        lower = (("|g| lower", sample.g, table.g_lower_scored, False),)
        rep = verify._grid_report("g_growth", lower, table.grid)
    assert not rep.passed and math.isnan(rep.worst_margin)
    assert rep.witness == f"|g| lower at r={radii[unscored]:.6g}, theta={angles[3]:.6g}"


@pytest.mark.parametrize("params", [P011, ClassParams(0.3, 0.5, 1), ClassParams(0.6, 0.9, 0)])
def test_standalone_grid_checks_equal_member_reports(params):
    grid = default_polar_grid(n_radii=16, n_angles=32)
    members = [member for _, member, _ in run_member_suite(params, members=3, seed=5)]
    if params == P011:
        members.append(extremal_member())
    for member in members:
        reports = verify_member(member, params, grid=grid)
        assert verify_coefficients(member, params, 12) == reports[0]
        assert verify_distortion(member, params, grid) == reports[1]
        assert verify_g_growth(member, params, grid) == reports[2]
        assert verify_area(member, params) == reports[3]
        assert verify_f_growth(member, params, grid) == reports[4]
        assert verify_covering(member, params) == reports[5]
        assert verify_bloch(member, params, grid) == reports[6]


def test_member_suite_shares_one_table_with_verify_member():
    params = ClassParams(0.3, 0.6, 1)
    for _, member, reports in run_member_suite(params, members=3, seed=12):
        assert verify_member(member, params) == reports


def test_kink_radius_keeps_previous_numbers():
    """At beta = 0.99 on two radii the |g'| lower integral crosses the kink,
    where the former quadrature subdivided its panel.  Values frozen from the
    closed forms; the quadrature's lie within 1e-14 of them."""
    params = ClassParams(0.3, 0.99, 1.0)
    grid = default_polar_grid(n_radii=2)
    g_lower = _EnvelopeTable(params, grid).g_lower.ravel().tolist()
    assert g_lower == [0.43884989302329186, 0.7418941549142267]
    quadrature = [0.43884989302329186, 0.7418941549142266]
    assert max(abs(a - b) for a, b in zip(g_lower, quadrature)) <= 1e-14
    member = build_member(
        sample_certified_h(params, 16, 0.7, 123), moebius_dilatation(0.99, 0.4, 1.1), params
    )
    got = [(r.worst_margin, r.witness) for r in verify_member(member, params, grid=grid)]
    # Margins re-frozen after the grid moved from Horner to series.evaluate_polar,
    # the Bloch margin again after |w| moved from the complex closed form to
    # model.dilatation_modulus, the f-growth margin after the table's
    # integrals moved from quadrature to closed forms, and the Bloch margin
    # once more after the Bloch root was bisected to adjacent floats instead
    # of to the width 1e-14; the witnesses are unchanged and the earlier
    # values lie within 1e-14.
    expected = {
        1: (0.16347889581230735, "|h'| lower at r=0.4975, theta=5.39961"),
        2: (0.04505901298512738, "|g| upper at r=0.4975, theta=2.74889"),
        4: (0.00953997866213373, "|f| floor at r=0.4975, theta=1.37445"),
        6: (
            0.5225574172124512,
            "measured 1.54899102864 at r=0.4975, theta=2.69981 vs bound 2.07154844585",
        ),
    }
    earlier_margins = {
        "horner": {
            1: 0.16347889581230723,
            2: 0.04505901298512749,
            4: 0.009539978662133783,
            6: 0.5225574172124516,
        },
        "complex |w|": {6: 0.5225574172124512},
        "quadrature": {4: 0.009539978662133729},
        "bloch width 1e-14": {6: 0.5225574172124516},
    }
    for index, frozen in expected.items():
        assert got[index] == frozen
    for margins in earlier_margins.values():
        for index, margin in margins.items():
            assert abs(margin - expected[index][0]) <= 1e-14


def _ring_means(f, modulus=None):
    """The former area integrand: the ring means formed one radius at a time.
    h' is evaluated on each level's radii in one call over the sorted radii,
    mapped back to their positions, so a level of several rings takes the
    same kind of matrix product as the measurement, which passes them out of
    order.  ``modulus(r)`` gives |w| on the ring; by default
    ``dilatation_modulus``."""
    hprime = differentiate(f.h)
    modulus = modulus or (lambda r: dilatation_modulus(f.w, [r], 128)[0])

    def ring_mean(r, hp):
        if r == 0.0:
            return 0.0
        return r * float(np.mean(np.abs(hp) ** 2 * (1.0 - modulus(r) ** 2)))

    def rings(radii):
        order = np.argsort(radii, kind="stable")
        hp = np.empty((radii.size, 128), dtype=complex)
        hp[order] = evaluate_polar(hprime, radii[order], 128)
        return np.array([ring_mean(r, v) for r, v in zip(radii.tolist(), hp)])

    return rings


def _ring_by_ring_area(f, tol, modulus=None):
    """The former area measurement: ``_ring_means`` over the starting panels
    of the measurement."""
    edges = verify._area_breakpoints(f.w)
    return 2.0 * math.pi * adaptive_quadrature(_ring_means(f, modulus), 0.0, 1.0, tol, edges)


@pytest.mark.parametrize("beta", [0.0, 0.6, 0.9, 0.97, 0.99])
def test_area_equals_ring_by_ring_quadrature(beta):
    params = ClassParams(0.3, beta, 1.0)
    members = [member for _, member, _ in run_member_suite(params, members=3, seed=9)]
    if beta == 0.0:
        members.append(extremal_member())
    angles = np.exp(2j * np.pi * np.arange(128) / 128)
    for member in members:
        area = verify._measure_area(differentiate(member.h), member.w, 1e-8)
        assert area == _ring_by_ring_area(member, 1e-8)
        # the former integrand, |w| from the complex closed form
        w = member.w

        def complex_modulus(r):
            u = np.exp(1j * w.phi) * r * angles
            return np.abs(np.exp(1j * w.mu) * (u + w.beta) / (1.0 + w.beta * u))

        complex_form = _ring_by_ring_area(member, 1e-8, complex_modulus)
        assert abs(area - complex_form) <= 1e-13


@pytest.mark.parametrize("beta", [0.0, 0.9, 0.99])
def test_area_of_a_two_row_derivative_equals_ring_by_ring_quadrature(beta):
    # h' of a degree-200 h folds into two rows at 128 angles, and the Kronrod
    # nodes of each level arrive centre first, so the rings of one call reach
    # the matrix product of evaluate_polar out of order (the reference sorts them)
    params = ClassParams(0.3, beta, 1.0)
    h = sample_certified_h(params, 200, 0.9, 5)
    member = harmonic_map(h, moebius_dilatation(beta, 1.0, 2.0))
    hprime = differentiate(member.h)
    assert hprime.order == 199
    assert verify._measure_area(hprime, member.w, 1e-8) == _ring_by_ring_area(member, 1e-8)


def test_permuted_ring_means_raise_within_the_panel_budget():
    """Each level's ring means handed back in the order of the sorted radii:
    nothing converges, and the area quadrature raises after 5 integrand calls
    on 2790 nodes (without the panel budget it had made 1144 calls on 4.4
    million nodes and held 566 MB when it was stopped after 120 s)."""
    member = _suite_members(0.99, 1)[0]
    rings = _ring_means(member)
    calls = []

    def permuted(radii):
        calls.append(radii.size)
        return rings(radii)[np.argsort(radii, kind="stable")]

    edges = verify._area_breakpoints(member.w)
    with pytest.raises(QuadratureError, match="more than 256 panels"):
        adaptive_quadrature(permuted, 0.0, 1.0, 1e-8, edges)
    assert len(calls) <= numerics._DEPTH_LIMIT + 1 and sum(calls) <= 3840
    assert calls == [90, 180, 360, 720, 1440]


def _suite_members(beta, members=3):
    params = ClassParams(0.3, beta, 1.0)
    return [member for _, member, _ in run_member_suite(params, members=members, seed=9)]


def _areas(members, tol=1e-8):
    return [verify._measure_area(differentiate(m.h), m.w, tol) for m in members]


def test_area_breakpoints_halve_the_panel_next_to_the_pole():
    dyadic = lambda j: tuple(1.0 - 2.0**-i for i in range(1, j + 1))
    # the float 0.8 lies just above 4/5, where the first breakpoint appears
    expected = {
        0.0: 0, 0.6: 0, 0.75: 0, 0.79: 0, math.nextafter(0.8, 0.0): 0, 0.8: 1, 0.85: 1, 0.9: 2,
        0.99: 5, 0.999: 8, 0.9999: 12,
    }
    for beta, j in expected.items():
        assert verify._area_breakpoints(moebius_dilatation(beta, 1.0, 2.0)) == dyadic(j)
        assert verify._area_breakpoints(constant_dilatation(beta, 1.0)) == ()


def _area_cases():
    """Five suite members at each beta whose area is the identity (0 to just
    below 0.8) and at 0.8, the first float that takes the quadrature, and
    five seeded h with a constant w at beta 0.5 and 0.99."""
    cases = {}
    for beta in (0.0, 0.3, 0.6, 0.75, math.nextafter(0.8, 0.0), 0.8):
        cases[f"moebius {beta!r}"] = (ClassParams(0.3, beta, 1.0), _suite_members(beta, members=5))
    for beta in (0.5, 0.99):
        params = ClassParams(0.3, beta, 1.0)
        w = constant_dilatation(beta, 1.0)
        members = [harmonic_map(sample_certified_h(params, 16, 0.9, s), w) for s in range(5)]
        cases[f"constant {beta!r}"] = (params, members)
    return cases


def _exact_area(member):
    return oracle_decimal.coefficient_area(member.h.coeffs.tolist(), member.g.coeffs.tolist())


#: Largest relative error, against the 50-digit identity, of the area
#: report's margin and of ``_measure_area`` over ``_area_cases``, rounded up
#: from the measured maxima: 3.4e-16 for the Moebius identity, 3.6e-15 for
#: a constant w (at beta 0.99, where 1 - beta^2 amplifies the rounding of
#: the terms 50-fold), 2.7e-15 for the report at 0.8, and 3.8e-15 for the
#: quadrature over every case.
_AREA_ORACLE_BOUNDS = {"identity": 4e-16, "constant": 4e-15, "quadrature": 4e-15}


def test_area_reports_match_the_decimal_identity():
    """The area report's margin is the margin of the exact coefficient sum
    pi sum n (|a_n|^2 - |b_n|^2) of the member, to within rounding."""
    worst = dict.fromkeys(_AREA_ORACLE_BOUNDS, 0.0)
    for name, (params, members) in _area_cases().items():
        kind = "constant" if name.startswith("constant") else "identity"
        kind = "quadrature" if params.beta == 0.8 else kind
        env = area_envelope(params)
        for member in members:
            exact = _exact_area(member)
            margin = min(exact - Decimal(env.lower), Decimal(env.upper) - exact)
            got = Decimal(verify_area(member, params).worst_margin)
            worst[kind] = max(worst[kind], float(abs(got - margin) / exact))
    assert all(worst[kind] <= bound for kind, bound in _AREA_ORACLE_BOUNDS.items()), worst


def test_area_quadrature_matches_the_decimal_identity():
    worst = 0.0
    for params, members in _area_cases().values():
        for member in members:
            exact = _exact_area(member)
            area = verify._measure_area(differentiate(member.h), member.w, 1e-8)
            worst = max(worst, float(abs(Decimal(area) - exact) / exact))
    assert worst <= _AREA_ORACLE_BOUNDS["quadrature"], worst


@pytest.mark.parametrize(
    "w, identity",
    [
        (moebius_dilatation(math.nextafter(0.8, 0.0), 1.0, 2.0), True),
        (constant_dilatation(0.99, 1.0), True),
        (moebius_dilatation(0.8, 1.0, 2.0), False),
        (moebius_dilatation(math.nextafter(0.8, 1.0), 1.0, 2.0), False),
        (moebius_dilatation(0.9, 1.0, 2.0), False),
    ],
    ids=["moebius below 0.8", "constant 0.99", "moebius 0.8", "moebius above 0.8", "moebius 0.9"],
)
def test_area_takes_the_identity_exactly_where_the_quadrature_needs_no_breakpoints(
    monkeypatch, w, identity
):
    params = ClassParams(0.3, w.beta, 1.0)
    member = build_member(sample_certified_h(params, 16, 0.7, 3), w, params)
    identities = _counting(monkeypatch, verify, "_coefficient_area")
    quadratures = _counting(monkeypatch, verify, "_measure_area")
    verify_area(member, params)
    assert (len(identities), len(quadratures)) == ((1, 0) if identity else (0, 1))


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.6, 0.75])
def test_area_starts_from_the_unit_interval_where_nothing_is_pre_split(monkeypatch, beta):
    members = _suite_members(beta)
    members.append(harmonic_map(members[0].h, constant_dilatation(0.99, 1.0)))
    graded = _areas(members)
    monkeypatch.setattr(verify, "_area_breakpoints", lambda w: ())
    assert graded == _areas(members)


# From beta 0.999 on, the [0, 1] start itself misses: it accepts a wide panel
# whose Kronrod and Gauss rules both miss the pole, by up to 1.3e-11 at 0.999
# (80 suite members tried) and 5.2e-7 at 0.9999 (30 tried), where the graded
# start is within 3e-17 of a fine quadrature.  There the graded start is
# checked against that quadrature instead (next test).
@pytest.mark.parametrize("beta", [0.8, 0.9, 0.97, 0.99])
def test_graded_area_is_within_1e_12_of_the_unit_interval_start(monkeypatch, beta):
    members = _suite_members(beta)
    graded = _areas(members)
    monkeypatch.setattr(verify, "_area_breakpoints", lambda w: ())
    assert max(abs(a - b) for a, b in zip(graded, _areas(members))) <= 1e-12


@pytest.mark.parametrize("beta", [0.99, 0.999, 0.9999])
def test_graded_area_matches_a_fine_quadrature(monkeypatch, beta):
    members = _suite_members(beta, members=2)
    graded = _areas(members)
    fine_edges = tuple(1.0 - 2.0**-j for j in range(1, 41))
    monkeypatch.setattr(verify, "_area_breakpoints", lambda w: fine_edges)
    assert max(abs(a - b) for a, b in zip(graded, _areas(members, 1e-15))) <= 1e-13


def test_graded_area_takes_at_most_two_levels_at_beta_0_99(monkeypatch):
    members = _suite_members(0.99)
    levels = _counting(monkeypatch, verify, "evaluate_polar")  # one call per level
    for member in members:
        levels.clear()
        _areas([member])
        assert 1 <= len(levels) <= 2


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or original(*a, **k))
    return calls


def test_member_suite_computes_member_independent_bounds_once(monkeypatch):
    verify._tables.cache_clear()
    counted = {
        name: _counting(monkeypatch, bounds, name)
        for name in ("bloch_bound", "area_envelope", "f_growth_floor", "bn_bounds", "bn_bound")
    }
    run_member_suite(ClassParams(0.3, 0.5, 1), members=3, seed=3)
    assert len(counted["bloch_bound"]) == 1
    assert len(counted["area_envelope"]) == 1
    assert len(counted["f_growth_floor"]) == 1
    assert [n for _, n in counted["bn_bounds"]] == [12]
    assert counted["bn_bound"] == []


def test_standalone_checks_compute_only_what_they_read(monkeypatch):
    member = run_member_suite(ClassParams(0.3, 0.99, 1), members=1, seed=4)[0][1]
    params = ClassParams(0.3, 0.99, 1)
    verify._tables.cache_clear()  # the suite above filled this table
    evaluated = _counting(monkeypatch, verify, "evaluate_polar")
    verify_distortion(member, params)
    verify_bloch(member, params)
    # h' only: neither g (order 3167 here) nor h is evaluated on the grid
    assert [s.order for s, *_ in evaluated] == [member.h.order - 1] * 2


@pytest.mark.parametrize("beta", [0.0, 0.9, 0.99])
def test_grid_sample_matches_horner(beta):
    params = ClassParams(0.3, beta, 1)
    member = run_member_suite(params, members=1, seed=11)[0][1]
    grid = default_polar_grid()
    z = grid.radii[:, None] * np.exp(1j * grid.angles)
    g = evaluate(member.g, z)
    horner = {
        "hprime": np.abs(evaluate(differentiate(member.h), z)),
        "g": np.abs(g),
        "f": np.abs(evaluate(member.h, z) + np.conj(g)),
    }
    with _GridSample(member, grid) as sample:
        for name, values in horner.items():
            assert np.max(np.abs(getattr(sample, name) - values)) <= 1e-13, name


def test_a_member_verified_again_after_another_gets_the_same_reports():
    # A, B, A on one grid: the second A reuses the workspace that B wrote into
    grid = PolarGrid(default_polar_grid().radii, 128)
    a_params, b_params = ClassParams(0.3, 0.9, 1), ClassParams(0.6, 0.0, 0)
    a = run_member_suite(a_params, members=1, seed=13)[0][1]
    b = build_member(extremal_h(2, 0.0, b_params), rotation_dilatation(), b_params)
    first = verify_member(a, a_params, grid)
    (workspace,) = grid._workspaces
    verify_member(b, b_params, grid)
    again = verify_member(a, a_params, grid)
    assert grid._workspaces == [workspace]
    assert repr(again) == repr(first)


def test_samples_alive_on_one_grid_get_distinct_workspaces():
    grid = PolarGrid([0.2, 0.5, 0.9], 16)
    params = ClassParams(0.3, 0.6, 1)
    a, b = (member for _, member, _ in run_member_suite(params, members=2, seed=17))
    with _GridSample(a, grid) as first, _GridSample(b, grid) as second:
        assert first.workspace is not second.workspace
        f_a, f_b = first.f.copy(), second.f.copy()
    assert len(grid._workspaces) == 2
    assert grid._workspaces[0] is not grid._workspaces[1]
    for member, f in ((a, f_a), (b, f_b)):
        with _GridSample(member, grid) as sample:
            assert sample.f.tobytes() == f.tobytes()
    assert len(grid._workspaces) == 2


@pytest.mark.parametrize("beta", [0.0, 0.6, 0.9, 0.99])
def test_a_warm_sample_allocates_no_grid_arrays(beta):
    # a warm sample and the six checks besides the area allocate at most half
    # of what they did with fresh grid arrays per member (about 581 KiB).
    # Measured 8-12 KiB up to beta 0.9 and 56 KiB at beta 0.99 (g's folded
    # block); numpy's iterator buffers of the strided and broadcast passes
    # took 131 KiB, or 281 KiB at beta 0.6, before every pass was made
    # contiguous (test_a_warm_grid_sample_pays_no_iterator_buffers).
    params = ClassParams(0.3, beta, 1)
    table = verify._table(params)
    member = run_member_suite(params, members=1, seed=5)[0][1]
    checks = [check for check in verify._CHECKS if check is not verify._area]

    def verify_once():
        with _GridSample(member, table.grid) as sample:
            return [check(sample, table) for check in checks]

    expected = verify_once()
    tracemalloc.start()
    try:
        got = verify_once()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak <= {0.0: 132, 0.6: 282, 0.9: 132, 0.99: 132}[beta] * 1024


def _h_plus_conj_g(h, g):
    """|f| as the former kernel formed it: h + conj(g) in place in h's values."""
    f = h.copy()
    f.real += g.real
    f.imag -= g.imag
    return np.abs(f)


def test_f_has_the_bits_of_h_plus_conj_g_where_they_cancel():
    # conj(f) = conj(h) + g has the modulus of h + conj(g) bit for bit: rows
    # where g = -conj(h) (f is exactly 0, with signed zeros on both sides),
    # where only the real or only the imaginary parts cancel, and random rows
    grid = PolarGrid([0.2, 0.4, 0.5, 0.6, 0.8, 0.9], 64)
    rng = np.random.default_rng(36)
    h = rng.normal(size=(6, 64)) + 1j * rng.normal(size=(6, 64))
    h[0, ::3] = complex(-0.0, 0.0)
    h[0, 1::3] = complex(0.0, -0.0)
    g = rng.normal(size=(6, 64)) + 1j * rng.normal(size=(6, 64))
    g[0] = -np.conj(h[0])
    g[1] = -np.conj(h[1]) * 1e-300
    g[2].real = -h[2].real
    g[3].imag = h[3].imag
    member = run_member_suite(ClassParams(0.3, 0.6, 1), members=1, seed=3)[0][1]
    with _GridSample(member, grid) as sample:
        sample._polar = lambda s, out: np.copyto(out, h) or out
        sample.g_values = g
        got = sample.f.copy()
    assert got.tobytes() == _h_plus_conj_g(h, g).tobytes()
    assert not got[0].any() and got[2].tobytes() == np.abs(h[2].imag - g[2].imag).tobytes()


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.9, 0.99])
def test_f_of_a_member_has_the_bits_of_h_plus_conj_g(beta):
    params = ClassParams(0.3, beta, 1)
    member = run_member_suite(params, members=1, seed=8)[0][1]
    for grid in (default_polar_grid(), verify._COVERING_CIRCLE):
        h, g = (evaluate_polar(s, grid.radii, grid.n_angles) for s in (member.h, member.g))
        with _GridSample(member, grid) as sample:
            assert sample.f.tobytes() == _h_plus_conj_g(h, g).tobytes()


@pytest.mark.parametrize("first", ["hprime", "f"])
@pytest.mark.parametrize("beta", [0.0, 0.6, 0.99])
def test_hprime_and_f_share_one_complex_array_whichever_is_read_first(first, beta):
    # h' and h are each read only by their own modulus, so one complex
    # workspace array serves both: either order gives fresh values, bit for bit
    params = ClassParams(0.3, beta, 1)
    member = run_member_suite(params, members=1, seed=9)[0][1]
    for grid in (default_polar_grid(), verify._COVERING_CIRCLE):
        h, hprime, g = (
            evaluate_polar(s, grid.radii, grid.n_angles)
            for s in (member.h, differentiate(member.h), member.g)
        )
        expected = {"hprime": np.abs(hprime), "f": _h_plus_conj_g(h, g)}
        with _GridSample(member, grid) as sample:
            second = "f" if first == "hprime" else "hprime"
            got = {name: getattr(sample, name).copy() for name in (first, second)}
            assert sample.workspace.h_values is not sample.workspace.g_values
        for name in expected:
            assert got[name].tobytes() == expected[name].tobytes(), name


#: What a warm grid sample may allocate besides g's folded coefficient block.
_SAMPLE_ALLOCATION_ALLOWANCE = 16 * 1024


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.6, 0.9, 0.99])
def test_a_warm_grid_sample_pays_no_iterator_buffers(beta):
    # every grid-sized value (|h'|, |w|, |g|, |f|) is formed in contiguous
    # in-place passes over full-size operands, so numpy allocates no iterator
    # buffer: measured 4-9 KiB up to beta 0.9, where the strided and
    # broadcast passes took 130-281 KiB.  Above that only g's folded block
    # (ceil((N + 1)/M) rows of M complex values, 50 KiB at beta 0.99) is
    # added, while it has at most 128 rows (one matrix product).
    params = ClassParams(0.3, beta, 1)
    grid = default_polar_grid()
    member = run_member_suite(params, members=1, seed=5)[0][1]

    def sample_once():
        with _GridSample(member, grid) as sample:
            return [getattr(sample, name).copy() for name in ("hprime", "w", "g", "f")]

    expected = sample_once()
    tracemalloc.start()
    try:
        with _GridSample(member, grid) as sample:
            sample.hprime, sample.w, sample.g, sample.f
            peak = tracemalloc.get_traced_memory()[1]
            got = [getattr(sample, name).copy() for name in ("hprime", "w", "g", "f")]
    finally:
        tracemalloc.stop()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))
    block = -(-(member.g.order + 1) // grid.n_angles) * grid.n_angles * 16
    allowance = _SAMPLE_ALLOCATION_ALLOWANCE + (block if beta > 0.9 else 0)
    assert peak <= allowance


@pytest.mark.parametrize("beta", [0.0, 0.6, 0.99])
def test_the_bloch_check_pays_no_iterator_buffer(beta):
    # (1 - r^2) |h'| (1 + |w|) is scaled by the grid's full-size weight in
    # place, with the bits of the broadcast (radii, 1) column; that column
    # took a 66 KiB iterator buffer per member
    params = ClassParams(0.3, beta, 1)
    grid = default_polar_grid()
    member = run_member_suite(params, members=1, seed=5)[0][1]
    table = verify._table(params, grid)
    with _GridSample(member, grid) as sample:
        expected = (1.0 + sample.w) * sample.hprime * (1.0 - grid.radii[:, None] ** 2)
        report = verify._bloch(sample, table)
        tracemalloc.start()
        try:
            assert verify._bloch(sample, table) == report
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.workspace.scratch.tobytes() == expected.tobytes()
    assert peak <= _SAMPLE_ALLOCATION_ALLOWANCE


_TABLE_ARRAYS = (
    "hprime_lower", "hprime_upper", "gprime_lower", "gprime_upper", "bloch_weight",
    "g_lower_scored", "g_upper", "g_lower", "f_upper", "f_floor", "bn",
)


def test_envelope_table_arrays_are_read_only():
    table = _EnvelopeTable(ClassParams(0.3, 0.6, 1), default_polar_grid(16, 32))
    for name in _TABLE_ARRAYS:
        array = getattr(table, name)
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_envelope_table_is_built_whole():
    table = _EnvelopeTable(ClassParams(0.3, 0.6, 1), default_polar_grid(16, 32))
    fields = vars(table)
    for name in (*_TABLE_ARRAYS, "area_envelope", "covering_floor", "bloch_bound"):
        assert name in fields, name
    arrays = [value for value in fields.values() if isinstance(value, np.ndarray)]
    assert len(arrays) == len(_TABLE_ARRAYS)
    assert not any(array.flags.writeable for array in arrays)


def test_area_check_has_no_tolerance_knob():
    with pytest.raises(TypeError):
        verify_area(half_square_member(), P011, tol=1e-9)


_P = ClassParams(0.3, 0.6, 1)
_SECOND_CALLS = {
    "run_member_suite": lambda f: run_member_suite(_P, members=2, seed=3),
    "verify_member": lambda f: verify_member(f, _P),
    "verify_distortion": lambda f: verify_distortion(f, _P),
    "verify_g_growth": lambda f: verify_g_growth(f, _P),
    "verify_area": lambda f: verify_area(f, _P),
    "verify_f_growth": lambda f: verify_f_growth(f, _P),
    "verify_covering": lambda f: verify_covering(f, _P),
    "verify_bloch": lambda f: verify_bloch(f, _P),
}


@pytest.mark.parametrize("call", _SECOND_CALLS.values(), ids=_SECOND_CALLS)
def test_second_call_reuses_the_shared_table(monkeypatch, call):
    member = run_member_suite(_P, members=1, seed=4)[0][1]
    verify._tables.cache_clear()
    first = call(member)
    # distortion_slope: every table construction calls it
    counted = {
        name: _counting(monkeypatch, bounds, name)
        for name in (
            "bloch_bound", "area_envelope", "f_growth_floor", "bn_bounds", "distortion_slope"
        )
    }
    quadratures = _counting(monkeypatch, verify, "adaptive_quadrature")
    assert call(member) == first
    assert counted == {name: [] for name in counted}
    # at beta 0.6 the area is the coefficient identity: no quadrature runs
    assert quadratures == []


_LATTICE = [
    ClassParams(alpha, beta, delta)
    for alpha in (0.0, 0.3, 0.6)
    for beta in (0.0, 0.3, 0.6)
    for delta in (0.0, 1.0)
] + [ClassParams(0.3, 0.9, 1), ClassParams(0.3, 0.99, 1)]


@pytest.mark.parametrize("params", _LATTICE, ids=str)
def test_cached_table_reports_equal_fresh_table_reports(params):
    for _, member, reports in run_member_suite(params, members=2, seed=20260808):
        fresh = verify._verify_member(member, _EnvelopeTable(params, default_polar_grid()))
        assert reports == fresh
        assert verify_member(member, params) == fresh


def test_coefficient_check_builds_no_envelope_table():
    params = ClassParams(0.3, 0.6, 1)
    member = run_member_suite(params, members=1, seed=4)[0][1]
    assert verify_coefficients(member, params, 12) == verify_member(member, params)[0]
    verify._tables.cache_clear()
    verify_coefficients(member, params, 20)
    assert verify._tables.cache_info().currsize == 0


def test_shared_table_keys():
    verify._tables.cache_clear()
    params, grid = ClassParams(0.3, 0.6, 1), default_polar_grid(16, 32)
    table = verify._table(params)
    assert verify._table(params, default_polar_grid()) is table
    assert verify._table(ClassParams(0.3, 0.6, 1.0), None) is table
    assert verify._tables.cache_info().currsize == 1
    others = [
        verify._table(params, grid),
        verify._table(params, PolarGrid(radii=grid.radii, n_angles=grid.n_angles)),
        verify._table(ClassParams(0.3, 0.6, 2)),
    ]
    assert len({id(t) for t in [table, *others]}) == 4
    assert verify._tables.cache_info().currsize == 4


def test_negative_zero_params_share_the_zero_entry():
    for zero, negative in [
        (ClassParams(0.0, 0.3, 1.0), ClassParams(-0.0, 0.3, 1.0)),
        (ClassParams(0.3, 0.0, 0.0), ClassParams(0.3, -0.0, -0.0)),
    ]:
        assert verify._table(negative) is verify._table(zero)
        a, b = (_EnvelopeTable(p, default_polar_grid()) for p in (zero, negative))
        for name in _TABLE_ARRAYS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        for name in ("area_envelope", "covering_floor", "bloch_bound"):
            assert repr(getattr(a, name)) == repr(getattr(b, name)), name


def test_threads_filling_one_shared_table_get_fresh_table_reports():
    # each thread verifies its member three times through the one default grid,
    # so the threads also pass its workspaces between them
    params = ClassParams(0.3, 0.6, 1)
    members = [member for _, member, _ in run_member_suite(params, members=8, seed=21)]
    fresh = _EnvelopeTable(params, default_polar_grid())
    expected = [[verify._verify_member(member, fresh)] * 3 for member in members]
    verify._tables.cache_clear()
    got = [None] * len(members)

    def work(i):
        got[i] = [verify_member(members[i], params) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(members))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected
    workspaces = default_polar_grid()._workspaces
    assert len({id(workspace) for workspace in workspaces}) == len(workspaces)


def test_shared_tables_are_bounded():
    verify._tables.cache_clear()
    for k in range(33):
        verify._table(ClassParams(0.3, 0.6, k / 8))
    assert verify._tables.cache_info().currsize == 32
