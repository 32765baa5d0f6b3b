"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.  Tolerances are pinned here and nowhere
else; timing limits are asserted where the criterion states one.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
from numpy.polynomial import Polynomial

import harmclass as hc
from harmclass.bounds import bloch_L_coeffs, g_growth_crosscheck
from harmclass.numerics import sign_variations


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")


def test_criterion_1_coefficient_bound_exactness():
    with criterion(1, "coefficient bound exactness and digamma agreement"):
        start = time.perf_counter()
        assert hc.bn_bound(hc.ClassParams(0, 0, 1), 2) == 0.5
        for alpha in (0.0, 0.25, 0.5, 0.9):
            params = hc.ClassParams(alpha, 0, 1)
            for n in range(3, 13):
                diff = abs(hc.bn_bound(params, n) - hc.bn_bound_digamma(alpha, n))
                assert diff < 1e-10, f"alpha={alpha}, n={n}: diff {diff}"
        assert time.perf_counter() - start < 1.0


def test_criterion_2_sharpness_of_b2():
    with criterion(2, "degree-2 extremal member attains |b2| = 1/2"):
        start = time.perf_counter()
        params = hc.ClassParams(0, 0, 1)
        member = hc.build_member(
            hc.extremal_h(2, 0.0, params), hc.rotation_dilatation(), params
        )
        assert abs(abs(member.g.coeffs[2]) - 0.5) < 1e-12
        assert abs(member.g.coeffs[2]) <= hc.bn_bound(params, 2) + 1e-15
        assert time.perf_counter() - start < 1.0


def test_criterion_3_covering_radius():
    with criterion(3, "covering radius = 7/12 at (0,0,1) and -> 0 as beta -> 1"):
        start = time.perf_counter()
        value = hc.covering_radius(hc.ClassParams(0, 0, 1), 1e-10)
        assert abs(value - 7 / 12) < 1e-9
        assert hc.covering_radius(hc.ClassParams(0.3, 1 - 1e-9, 1), 1e-10) < 1e-6
        assert time.perf_counter() - start < 1.0


def test_criterion_4_bloch_computation():
    with criterion(4, "Bloch quartic, root isolation and L sign pattern"):
        start = time.perf_counter()
        params = hc.ClassParams(0, 0, 1)
        coeffs = hc.bloch_H_poly(params)
        assert np.array_equal(coeffs, [3, -2, -9, -4, 0])
        poly = Polynomial(coeffs)
        assert poly(0.0) == 3.0 and poly(0.0) > 0
        assert poly(1.0) == -12.0 and poly(1.0) < 0
        result = hc.bloch_bound(params)
        assert abs(result.r0 - 0.44300) < 1e-4
        assert abs(result.bound - 1.4167) < 1e-3
        # one positive root (Descartes); the endpoint signs above put it in (0, 1)
        assert sign_variations(coeffs) == 1

        for alpha in np.linspace(0.0, 0.9, 5):
            for beta in np.linspace(0.0, 0.9, 5):
                for delta in (0.0, 1.0, 2.0):
                    p = hc.ClassParams(alpha, beta, delta)
                    grid_coeffs = hc.bloch_H_poly(p)
                    assert sign_variations(grid_coeffs) == 1
                    grid_poly = Polynomial(grid_coeffs)
                    assert grid_poly(1.0) < 0 < grid_poly(0.0)
                    res = hc.bloch_bound(p)  # raises unless exactly one root isolated
                    assert 0.0 < res.r0 < 1.0
                    for r in (0.1, 0.5, 0.9, res.r0):
                        a0, a1 = bloch_L_coeffs(p, r)
                        assert a0 < 0 and a1 < 0
        assert time.perf_counter() - start < 5.0


def test_criterion_5_area_envelope():
    with criterion(5, "area envelope closed forms and measured member area"):
        start = time.perf_counter()
        params = hc.ClassParams(0, 0, 1)
        env = hc.area_envelope(params, 1e-10)
        assert abs(env.lower - 11 * math.pi / 40) < 1e-8
        assert abs(env.upper - 97 * math.pi / 120) < 1e-8

        member = hc.build_member(
            hc.TruncatedSeries([0, 1]), hc.rotation_dilatation(), params
        )
        report = hc.verify_area(member, params)
        assert report.passed
        measured = float(report.witness.split()[1])
        assert abs(measured - math.pi / 2) < 1e-6
        assert env.lower <= measured <= env.upper
        assert time.perf_counter() - start < 5.0


def test_criterion_6_growth_consistency():
    with criterion(6, "growth upper limit equals the normality constant"):
        start = time.perf_counter()
        params = hc.ClassParams(0, 0, 1)
        m = hc.normality_constant(params, 1e-10)
        assert abs(m - 23 / 12) < 1e-8
        upper = hc.f_growth(params, 1 - 1e-9, 1e-10).upper
        assert abs(upper - m) < 1e-6
        assert time.perf_counter() - start < 1.0


def test_criterion_7_property_suite():
    with criterion(7, "100 seeded members per point pass all seven checks"):
        start = time.perf_counter()
        worst = math.inf
        for alpha in (0.0, 0.3, 0.6):
            for beta in (0.0, 0.3, 0.6):
                for delta in (0.0, 1.0):
                    params = hc.ClassParams(alpha, beta, delta)
                    results = hc.run_member_suite(params, members=100, seed=20260808)
                    for index, _member, reports in results:
                        assert len(reports) == 7
                        for report in reports:
                            worst = min(worst, report.worst_margin)
                            assert report.worst_margin >= -1e-9, (
                                f"params=({alpha},{beta},{delta}) member={index} "
                                f"{report.theorem}: margin {report.worst_margin}, "
                                f"witness {report.witness}"
                            )
        elapsed = time.perf_counter() - start
        print(f"  [criterion 7] 1800 members, worst margin {worst:.3e}, {elapsed:.1f}s")
        assert elapsed < 60.0


def test_criterion_8_growth_form_crosscheck():
    with criterion(8, "closed g-growth forms vs quadrature, discrepancies reported"):
        start = time.perf_counter()
        agreements = 0
        discrepancies = []
        for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
            for r in (0.2, 0.5, 0.8):
                for alpha in (0.0, 0.5):
                    for delta in (0.0, 1.0):
                        params = hc.ClassParams(alpha, beta, delta)
                        check = g_growth_crosscheck(params, r, 1e-10)
                        # the stated upper form is exact: it must always agree
                        assert check.upper_diff < 1e-8
                        records = check.discrepancies()
                        if check.agrees:
                            agreements += 1
                            assert records == []
                        else:
                            # quadrature is authoritative; every disagreement
                            # must come out as a structured record
                            assert records, "disagreement without a report"
                            for rec in records:
                                assert rec["kind"] == "g_growth_form_discrepancy"
                                assert rec["abs_diff"] > 1e-8
                                assert rec["side"] == "lower"
                            discrepancies.extend(records)
                        if r <= beta:
                            assert check.agrees, (
                                f"closed/quadrature split inside r <= beta at "
                                f"(alpha={alpha}, beta={beta}, delta={delta}, r={r})"
                            )
        print(
            f"  [criterion 8] {agreements} agreeing points, "
            f"{len(discrepancies)} structured discrepancy records"
        )
        assert discrepancies, "the r > beta regime must surface discrepancies"
        assert time.perf_counter() - start < 10.0
