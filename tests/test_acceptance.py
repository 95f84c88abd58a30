"""Acceptance criteria, one test per criterion, all comparisons exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion with timings.
"""

import random
import time
from fractions import Fraction

from hcn7.arith import lambda_series, prop31_rhs
from hcn7.hurwitz import hmm_series, hmm_sum
from hcn7.newform49 import cm_aps, ec_point_count, newform_an
from hcn7.primes import primes_up_to
from hcn7.qseries import QSeries, op_dilate, op_u, series_add
from hcn7.verify import (
    main_table_rows,
    sturm_bound,
    verify_lemma42,
    verify_main_table,
    verify_prop31,
    verify_prop41,
    verify_thm35,
)
from oracles import hk_rhs_oracle, op_sieve, verify_lemma42_literal_u


def _stamp(label, start):
    print(f"ACCEPTANCE {label}: PASS ({time.perf_counter() - start:.1f}s)")


def test_c01_hurwitz_kronecker_to_5000():
    start = time.perf_counter()
    for n in range(1, 5001):
        assert hmm_sum(0, 1, n) == hk_rhs_oracle(n), n
    _stamp("C1 Hurwitz-Kronecker n<=5000", start)


def test_c02_dual_path_sums_to_500():
    start = time.perf_counter()
    for m in range(7):
        series = hmm_series(m, 7, 500)
        for n in range(501):
            assert series[n] == hmm_sum(m, 7, n), (m, n)
    _stamp("C2 product route = direct sums, m in 0..6, n<=500", start)


def test_c03_prop31_to_300():
    start = time.perf_counter()
    for k in (0, 1):
        for rep in verify_prop31(k, 300):
            assert rep.ok, str(rep)
    anchor = op_u(lambda_series(1, 1, 7, 32), 4)
    assert anchor[8] == 4
    assert prop31_rhs(0, 8)[1][8] == 4
    anchor0 = op_u(lambda_series(1, 0, 7, 196), 4)
    assert anchor0[49] == 14
    assert prop31_rhs(0, 49)[0][49] == 14
    _stamp("C3 correction series identity, k in {0,1}, n<=300", start)


def test_c04_thm35_all_19():
    start = time.perf_counter()
    reports = verify_thm35()
    assert len(reports) == 19
    for rep in reports:
        assert rep.ok, str(rep)
    bounds = sorted(r.checked_upto for r in reports)
    assert bounds == [57] + [337] * 18
    _stamp("C4 all 19 weight-2 identities at bounds 337/57", start)


def test_c05_lemma42_dilation_and_negative_control():
    start = time.perf_counter()
    assert verify_lemma42(1000).ok
    control = verify_lemma42_literal_u(56)
    assert not control.ok
    assert control.first_mismatch == (1, 1, -4) and control.unit == 1
    _stamp("C5 dilation identity n<=1000; literal-U control fails at n=1", start)


def test_c06_prop41_product_to_1000():
    start = time.perf_counter()
    assert verify_prop41(1000).ok
    _stamp("C6 theta product identity n<=1000", start)


def test_c07_newform_cross_check():
    start = time.perf_counter()
    primes = [p for p in primes_up_to(10**4) if p not in (2, 7)]
    for p, ap in zip(primes, cm_aps(primes)):
        assert ap == p + 1 - ec_point_count(p), p
        assert (ap == 0) == (p % 7 in (3, 5, 6)), p
    an = newform_an(9)
    assert [an[n] for n in range(1, 10)] == [1, 1, 0, -1, 0, 0, 0, -3, -3]
    _stamp("C7 CM route = point counts for odd p < 10^4", start)


def test_c08_main_table():
    start = time.perf_counter()
    reports = verify_main_table(10**4)
    for rep in reports:
        assert rep.ok, str(rep)
    # cells are in 24ths: 24 H_{m,7}(p) by the formula
    formula = {(row.p, m): f for row in main_table_rows(23) for m, _, f in row.cells}
    assert 24 * hmm_sum(0, 7, 11) == formula[11, 0] == 96  # 4
    assert 24 * hmm_sum(1, 7, 11) == formula[11, 1] == 48  # 2
    assert 24 * hmm_sum(0, 7, 23) == formula[23, 0] == 192  # 8
    assert 24 * hmm_sum(0, 7, 3) == formula[3, 0] == 32  # 4/3
    assert hmm_sum(0, 7, 3) == Fraction(4, 3)
    for p in primes_up_to(10**4):
        if p in (2, 7):
            continue
        total = hmm_sum(0, 7, p) + 2 * sum(hmm_sum(m, 7, p) for m in (1, 2, 3))
        assert total == 2 * p, p
    _stamp("C8 closing table and row sums for odd p < 10^4", start)


def test_c09_sturm_bounds():
    start = time.perf_counter()
    assert sturm_bound(2, 196, 7) == 336
    assert sturm_bound(2, 196, 1) == 56
    _stamp("C9 Sturm bounds 336 and 56", start)


def _random_series(rng, max_order, density=0.5):
    # values r / q, q in 1..9, as numerators over lcm(1..9) = 2520
    order = rng.randint(0, max_order)
    return QSeries(
        [
            rng.randint(-9, 9) * (2520 // rng.randint(1, 9))
            if rng.random() < density
            else 0
            for _ in range(order + 1)
        ],
        2520,
    )


def test_c10_operator_algebra():
    start = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(100):
        f = _random_series(rng, 100)
        M = rng.randint(1, 10)
        assert op_u(op_dilate(f, M, f.order * M), M) == f
    for _ in range(100):
        f = _random_series(rng, 200)
        M = rng.randint(1, 12)
        total = QSeries.zero(f.order)
        for r in range(M):
            total = series_add(total, op_sieve(f, M, r))
        assert total == f
    _stamp("C10 operator algebra, 100 randomized cases per law", start)
