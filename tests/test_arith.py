"""Divisor sums, correction series, theta series and their identities."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from hcn7.arith import (
    _lopsided_series,
    d_pa_series,
    d_series,
    lambda_series,
    prop31_rhs,
    psi_7,
    theta_chi1,
    theta_mM,
)
from hcn7.qseries import QSeries, op_dilate, op_u, series_add, series_mul
from oracles import (
    d_pa_series_loop,
    d_series_loop,
    lambda_coeff,
    lambda_series_loop,
    lopsided_series_loop,
    phi_pa,
    sigma,
    values,
)

# Orders around the squares 0, 1, 4, 49 and beyond, so that every builder
# meets a last d (or u) whose d = e term, or whose first slice start, sits
# at or past the order.
BUILDER_ORDERS = [0, 1, 2, 5, 48, 49, 50, 300, 1200]


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_sigma():
    assert sigma(6) == 12
    assert sigma(1, 5) == 1
    assert sigma(12) == 28
    assert sigma(10, 2) == 1 + 4 + 25 + 100


def test_d_series():
    d = d_series(12)
    assert d[0] == 0 and d[1] == 1 and d[6] == 12
    for n in range(1, 13):
        assert d[n] == sigma(n)


@pytest.mark.parametrize("order", BUILDER_ORDERS)
def test_slice_builders_match_loops(order):
    assert d_series(order) == d_series_loop(order)
    for l in (1, 3):
        for p in (1, 7):
            for a in range(-1, 8):
                assert d_pa_series(l, p, a, order) == d_pa_series_loop(l, p, a, order), (l, p, a)
            for m in range(-1, 8):
                lopsided = _lopsided_series(l, p, m, order)
                assert lopsided == lopsided_series_loop(l, p, m, order), (l, p, m)
        for m in range(-1, 8):
            for M in (1, 5, 7):
                assert values(lambda_series(l, m, M, order)) == lambda_series_loop(l, m, M, order), (l, m, M)


def test_slice_builder_boundaries():
    # the d = e term of d_pa_series: 49 = 7 * 7 counts 7 once in class -a = 0
    assert d_pa_series(1, 7, 0, 49)[49] == phi_pa(49, 1, 7, 0) == 7
    # ... and the pairs d < e twice when both classes match (p = 1)
    assert d_pa_series(1, 1, 0, 50)[50] == phi_pa(50, 1, 1, 0) == 2 * (1 + 2 + 5)
    # a start past the order adds nothing: lambda's v = u term at u^2 = 49
    # with no v > u left, and a lopsided pair 7 * 8 = 56 > 50
    assert lambda_series(1, 0, 7, 50)[49] == lambda_coeff(1, 0, 7, 49) == 7
    assert _lopsided_series(1, 7, 1, 50) == lopsided_series_loop(1, 7, 1, 50) == QSeries.zero(50)
    for builder in (d_series(0), d_pa_series(1, 7, 0, 0), lambda_series(1, 0, 7, 0)):
        assert builder == QSeries([0])


def test_phi_pa_examples():
    assert phi_pa(8, 1, 7, 5) == 2
    assert phi_pa(1, 1, 7, 3) == 0
    assert phi_pa(4, 1, 1, 0) == 4


def test_d_pa_series_matches_phi():
    for a in range(7):
        for l in (1, 3):
            s = d_pa_series(l, 7, a, 200)
            assert s[0] == 0
            for n in range(1, 201):
                assert s[n] == phi_pa(n, l, 7, a), (l, a, n)
    assert d_pa_series(1, 7, 5, 10)[8] == 2
    assert d_pa_series(1, 1, 0, 3)[1] == 1


def test_phi_complement_oracle():
    # phi(a) + phi(-a) counts strict divisors twice and the boundary once
    # per matching class; oracle by raw divisor enumeration
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 400)
        p = rng.choice([3, 5, 7, 11])
        a = rng.randint(0, p - 1)
        expected = Fraction(0)
        for d in divisors(n):
            matches = int((d - a) % p == 0) + int((d + a) % p == 0)
            if d * d < n:
                expected += 2 * matches * d
            elif d * d == n:
                expected += matches * d
        assert phi_pa(n, 1, p, a) + phi_pa(n, 1, p, -a) == expected, (n, p, a)


def brute_lambda(l, m, M, n):
    """Oracle: enumerate (t, s) pairs directly from t^2 - s^2 = n.

    s runs to (n-1)/2, the largest value any solution can take (t = s+1).
    """
    total = Fraction(0)
    for s in range(n // 2 + 2):
        t2 = n + s * s
        t = isqrt(t2)
        if t * t != t2 or t <= s:
            continue
        weight = Fraction(1, 2) if s == 0 else 1
        for sign in (1, -1):
            if (t - sign * m) % M == 0:
                total += weight * (t - s) ** l
    return total


def test_lambda_coeff_examples():
    assert lambda_coeff(1, 1, 7, 32) == 4
    assert lambda_coeff(1, 1, 7, 4) == 0
    assert lambda_coeff(1, 0, 7, 196) == 14


def test_lambda_against_brute_force():
    rng = random.Random(37)
    for _ in range(150):
        n = rng.randint(1, 500)
        l = rng.choice([1, 3])
        m = rng.randint(0, 6)
        assert lambda_coeff(l, m, 7, n) == brute_lambda(l, m, 7, n), (l, m, n)


def test_lambda_series_after_u4():
    ls = op_u(lambda_series(1, 1, 7, 40), 4)
    assert ls[8] == 4
    ls0 = op_u(lambda_series(1, 0, 7, 200), 4)
    assert ls0[49] == 14
    # no even/odd-compatible factorization -> zero
    assert lambda_coeff(1, 1, 7, 2) == 0


def test_prop31_rhs_anchors():
    r = prop31_rhs(0, 20)[1]
    assert r[8] == 4
    assert r[1] == 0
    assert prop31_rhs(0, 60)[0][49] == 14


def test_prop31_identity_small():
    for k in (0, 1):
        for m, rhs in enumerate(prop31_rhs(k, 100)):
            lhs = op_u(lambda_series(2 * k + 1, m, 7, 400), 4)
            for n in range(101):
                assert lhs[n] == rhs[n], (k, m, n)


def test_theta_mM():
    t = theta_mM(0, 1, 10)
    assert tuple(t.coeffs[:5]) == (1, 2, 0, 0, 2)
    assert theta_mM(1, 7, 10)[1] == 1
    assert theta_mM(0, 7, 49)[49] == 2
    # periodicity in m and partition over a residue system
    assert theta_mM(2, 7, 300) == theta_mM(9, 7, 300)
    total = theta_mM(0, 7, 300)
    for r in range(1, 7):
        total = series_add(total, theta_mM(r, 7, 300))
    assert total == theta_mM(0, 1, 300)


def test_theta_chi1():
    t = theta_chi1(50)
    assert t[1] == 1 and t[4] == 2 and t[9] == -3
    assert t[2] == 0


def test_psi7():
    ps = psi_7(60)
    assert ps[11] == 4
    assert ps[2] == 0
    assert ps[9] == -3
    assert ps[0] == 0


def test_theta_product_identity():
    # lattice sum factors as signed theta times the 7-fold dilated theta
    order = 500
    lhs = psi_7(order)
    theta0 = theta_mM(0, 1, order // 7 + 1)
    rhs = series_mul(theta_chi1(order), op_dilate(theta0, 7, order))
    assert lhs == rhs


def test_integer_coefficients():
    for s in (
        theta_mM(3, 7, 100),
        theta_chi1(100),
        psi_7(100),
    ):
        assert s.den == 1 and all(type(c) is int for c in s.coeffs)
