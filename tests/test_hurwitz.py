"""Hurwitz class numbers: single values, batch sieve, sums, and relations."""

import random
from fractions import Fraction
from math import isqrt

import pytest

import hcn7.hurwitz
from hcn7.arith import theta_mM
from hcn7.hurwitz import (
    hmm_series,
    hmm_sum,
    hurwitz_batch,
    hurwitz_series,
    hurwitz_single,
    twelfths_upto,
)
from hcn7.qseries import MAX_H_INDEX, QSeries, op_u, series_mul
from oracles import hk_rhs_oracle

# Frozen values, each recomputable by listing reduced forms by hand:
# H(3) <- (1,1,1) at weight 1/3; H(4) <- (1,0,1) at 1/2; H(11) <- (1,1,3);
# H(44) <- (1,0,11), (2,2,6), (3,+-2,4); H(92) <- (1,0,23), (2,2,12),
# (3,+-2,8), (4,+-2,6).
KNOWN = {
    0: Fraction(-1, 12),
    1: 0,
    2: 0,
    3: Fraction(1, 3),
    4: Fraction(1, 2),
    5: 0,
    6: 0,
    7: 1,
    8: 1,
    11: 1,
    12: Fraction(4, 3),
    15: 2,
    16: Fraction(3, 2),
    43: 1,
    44: 4,
    92: 6,
}


def brute_force_hurwitz(N):
    """Independent oracle: scan (a, b, c) boxes with the reduction rules."""
    if N == 0:
        return Fraction(-1, 12)
    if N % 4 in (1, 2):
        return Fraction(0)
    total = Fraction(0)
    for a in range(1, isqrt(N) + 2):
        for b in range(-a, a + 1):
            num = b * b + N
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            if a == b == c:
                total += Fraction(1, 3)
            elif b == 0 and a == c:
                total += Fraction(1, 2)
            else:
                total += 1
    return total


def test_known_values():
    for n, v in KNOWN.items():
        assert hurwitz_single(n) == v


def test_single_against_brute_force():
    for n in range(0, 200):
        assert hurwitz_single(n) == brute_force_hurwitz(n), n


def test_batch_matches_single_spot_checks():
    twelfths = hurwitz_batch(10_000)
    assert twelfths[0] == -1
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(0, 10_000)
        assert Fraction(twelfths[n], 12) == hurwitz_single(n), n


def test_batch_structure():
    twelfths = hurwitz_batch(500)
    assert len(twelfths) == 501
    for n, t in enumerate(twelfths):
        assert type(t) is int
        if n % 4 in (1, 2):
            assert t == 0
        if n > 0:
            assert t >= 0


def test_series():
    s = hurwitz_series(4)
    assert s.coeffs == (Fraction(-1, 12), 0, 0, Fraction(1, 3), Fraction(1, 2))
    assert hurwitz_series(0)[0] == Fraction(-1, 12)
    # large index needed by the identity battery comes out exactly
    big = hurwitz_series(1348)
    assert (12 * big[1348]).denominator == 1


def test_series_rejects_negative_order_after_the_cache_grew():
    hmm_sum(0, 1, 100)  # the cache now holds more than 400 entries
    with pytest.raises(ValueError, match="non-negative"):
        hurwitz_series(-5)


@pytest.mark.parametrize("grow_to", [0, 2000])
def test_hmm_series_rejects_negative_order_whatever_the_cache_holds(monkeypatch, grow_to):
    monkeypatch.setattr(hcn7.hurwitz, "_cache", hurwitz_batch(0))
    if grow_to:
        hmm_sum(0, 1, grow_to)  # the cache now holds more than 8000 entries
    cache = hcn7.hurwitz._cache
    with pytest.raises(ValueError, match="order must be non-negative"):
        hmm_series(0, 7, -1)
    assert hcn7.hurwitz._cache is cache


def test_cache_doubling_stops_at_the_cap(monkeypatch):
    # H_{0,7}(875) reads index 3500; doubling a 3001-entry cache would
    # sieve to 6000, past the cap
    monkeypatch.setattr(hcn7.hurwitz, "MAX_H_INDEX", 5000)
    monkeypatch.setattr(hcn7.hurwitz, "_cache", hurwitz_batch(3000))
    hmm_sum(0, 7, 875)
    assert hcn7.hurwitz._cache == hurwitz_batch(5000)


def test_hmm_sum_examples():
    assert hmm_sum(0, 7, 11) == 4
    assert hmm_sum(1, 7, 3) == 1
    assert hmm_sum(1, 7, 11) == 2  # H(43) + H(8)
    assert hmm_sum(0, 7, 23) == 8  # H(92) + 2 H(43)
    assert hmm_sum(0, 7, 0) == Fraction(-1, 12)
    assert hmm_sum(1, 7, 0) == 0


def test_hmm_sum_symmetry_and_residue_partition():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(0, 300)
        M = rng.randint(1, 9)
        m = rng.randint(0, M - 1)
        assert hmm_sum(m, M, n) == hmm_sum(-m, M, n)
        total = sum(hmm_sum(r, M, n) for r in range(M))
        assert total == hmm_sum(0, 1, n)


def test_hmm_series_matches_direct_sum():
    for m in range(7):
        s = hmm_series(m, 7, 120)
        for n in range(121):
            assert s[n] == hmm_sum(m, 7, n), (m, n)


def composed_hmm_series(m, M, order):
    """Reference for hmm_series: the whole product of the twelfths with
    theta_{m,M} to order 4*order, then op_u keeps every 4th coefficient,
    then each is divided by 12."""
    internal = 4 * order
    twelfths = QSeries(twelfths_upto(internal)[: internal + 1])
    product = op_u(series_mul(twelfths, theta_mM(m, M, internal)), 4)
    return QSeries(Fraction(t, 12) for t in product.coeffs)


def test_hmm_series_matches_composed_product():
    for m in range(7):
        assert hmm_series(m, 7, 337) == composed_hmm_series(m, 7, 337), m
    for M in (1, 2, 4, 13, 22):
        for m in {0, 1, M // 2, M - 1}:
            assert hmm_series(m, M, 750) == composed_hmm_series(m, M, 750), (m, M)


def test_hmm_series_does_not_use_the_direct_sum(monkeypatch):
    def unreachable(m, M, n):
        raise AssertionError("hmm_series called hmm_sum")

    monkeypatch.setattr(hcn7.hurwitz, "hmm_sum", unreachable)
    assert hmm_series(3, 7, 200) == composed_hmm_series(3, 7, 200)


def test_hmm_series_examples():
    s0 = hmm_series(0, 7, 12)
    assert s0[11] == 4 and s0[0] == Fraction(-1, 12)
    assert hmm_series(1, 7, 4)[3] == 1


def test_hmm_series_respects_order_cap(monkeypatch):
    def unreachable(n_max):
        raise AssertionError("hmm_series read the table before checking its cap")

    monkeypatch.setattr(hcn7.hurwitz, "twelfths_upto", unreachable)
    # internal order 4 * order just over MAX_H_INDEX
    with pytest.raises(ValueError, match="MAX_H_INDEX"):
        hmm_series(0, 7, MAX_H_INDEX // 4 + 1)


def test_hmm_sum_respects_the_cap(monkeypatch):
    monkeypatch.setattr(hcn7.hurwitz, "MAX_H_INDEX", 5000)
    monkeypatch.setattr(hcn7.hurwitz, "_cache", hurwitz_batch(0))
    # 4n = 8000 is over the patched cap
    with pytest.raises(ValueError, match="MAX_H_INDEX"):
        hmm_sum(0, 7, 2000)
    assert hcn7.hurwitz._cache == hurwitz_batch(0)


def test_hurwitz_kronecker():
    assert hmm_sum(0, 1, 1) == hk_rhs_oracle(1) == 1
    assert hmm_sum(0, 1, 11) == hk_rhs_oracle(11) == 22
    assert hmm_sum(0, 1, 4) == hk_rhs_oracle(4)
    for n in range(1, 600):
        assert hmm_sum(0, 1, n) == hk_rhs_oracle(n), n
