"""Hurwitz class numbers: single values, the sieve, sums, and relations."""

import random
from fractions import Fraction
from math import isqrt

import pytest

import hcn7.hurwitz
from hcn7.arith import theta_mM
from hcn7.hurwitz import (
    hmm_product,
    hmm_series,
    hmm_sum,
    hmm_twelfths,
    hurwitz_series,
    hurwitz_single,
    twelfths_upto,
)
from hcn7.qseries import MAX_H_INDEX, QSeries, op_u, series_mul
from oracles import composed_hmm_series, hecke_relations, hk_rhs_oracle, sieve_oracle, sieved, values

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
        assert Fraction(hurwitz_single(n), 12) == v


def test_single_against_brute_force():
    for n in range(0, 200):
        assert type(hurwitz_single(n)) is int
        assert Fraction(hurwitz_single(n), 12) == brute_force_hurwitz(n), n


def test_batch_matches_single_spot_checks():
    twelfths = sieved(10_000)
    assert twelfths[0] == -1
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(0, 10_000)
        assert twelfths[n] == hurwitz_single(n), n


def test_batch_structure():
    twelfths = sieved(500)
    assert len(twelfths) == 501
    for n, t in enumerate(twelfths):
        assert type(t) is int
        if n % 4 in (1, 2):
            assert t == 0
        if n > 0:
            assert t >= 0


def oracle_batch(n_max):
    """12*H(N) for N <= n_max by the element-wise sieve of the oracles."""
    twelfths = [0] * (n_max + 1)
    twelfths[0] = -1
    sieve_oracle(twelfths, 1)
    return tuple(twelfths)


def unreachable(*args):
    raise AssertionError("called a function of the other route")


def test_batch_matches_the_element_wise_sieve(monkeypatch):
    monkeypatch.setattr(hcn7.hurwitz, "hurwitz_single", unreachable)
    for n_max in range(301):
        assert sieved(n_max) == oracle_batch(n_max), n_max
    for n_max in (40_000, 100_000):
        assert sieved(n_max) == oracle_batch(n_max), n_max


HECKE_TOP = 400_000


def test_sieve_obeys_the_weight_3_2_hecke_relations():
    # Each relation (oracles.hecke_relations) ties an entry whose index has
    # a square factor to smaller ones, and none reads the sieve's structure
    # or hurwitz_single; CI checks all 904,151 of them to MAX_H_INDEX.  The
    # 90,322 relations to 4 * 10^5 cover 78,408 of the 200,000 entries of
    # class 0 or 3 there: 59,473 of class 0 (every N = 0, 12 (mod 16) among
    # them) and 18,935 of class 3.  The others, with -N or -N/4
    # fundamental, are checked past 10^5 (the element-wise sieve's reach
    # here) only by sums over them, as in the hk suite, and by
    # hurwitz_single at the entries other tests pick.
    covered = set()
    for N, lhs, rhs in hecke_relations(sieved(HECKE_TOP), HECKE_TOP):
        assert lhs == rhs, N
        covered.add(N)
    assert len(covered) == 78_408
    assert sum(1 for N in covered if N % 4 == 0) == 59_473


# The c > a progression of (a, b) starts at 4a(a + 1) - b^2; the packed
# sieve adds its terms below 4a(a + 1) apart, several of them when
# b^2 > 4a, as for (5, 5), (8, 7) and (12, 10), in a loop, and as one slice
# from 16 terms on: (64, 64) starts at 12,544 with 16 terms, so a split one
# past its start leaves 15 for the loop, and (96, 96) starts at 28,032
# with 24 terms, so every split here leaves a slice.
@pytest.mark.parametrize(
    "a, b", [(1, 0), (2, 1), (3, 3), (5, 0), (5, 5), (8, 7), (12, 10), (64, 64), (96, 96)]
)
def test_growth_split_at_a_progression_start_matches_the_element_wise_sieve(monkeypatch, a, b):
    top = max(1500, 4 * a * (a + 1))  # past the progression's last term below 4a(a + 1)
    whole = oracle_batch(top)
    start = 4 * a * (a + 1) - b * b
    for size in (start - 1, start, start + 1):
        monkeypatch.setattr(hcn7.hurwitz, "_cache", whole[:size])
        assert twelfths_upto(top) == whole, size  # sieves [size, top]


def slot_widths(monkeypatch) -> list[int]:
    """The slot width of each accumulator the sieve unpacks from now on."""
    widths = []
    unpack = hcn7.hurwitz._unpack
    monkeypatch.setattr(
        hcn7.hurwitz, "_unpack", lambda packed, count, width: widths.append(width) or unpack(packed, count, width)
    )
    return widths


# 12 A (A + 3), A = isqrt(N // 3), is 216 < 2^8 at N = 47 and 336 at 48;
# 64,800 < 2^16 at N = 15,986 and 66,576 at 15,987
@pytest.mark.parametrize("n_max, width", [(47, 1), (48, 2), (15_986, 2), (15_987, 3)])
def test_sieve_matches_the_element_wise_sieve_at_each_slot_width_change(monkeypatch, n_max, width):
    widths = slot_widths(monkeypatch)
    assert sieved(n_max) == oracle_batch(n_max)
    assert widths == [width, width]  # one accumulator per class


def test_growth_across_a_slot_width_change_matches_the_element_wise_sieve(monkeypatch):
    # battery's growth: the rows to 1348 in 2-byte slots, then 3-byte ones
    monkeypatch.setattr(hcn7.hurwitz, "_cache", (-1,))
    widths = slot_widths(monkeypatch)
    for n_max in (1348, 20_000, 40_000):
        assert twelfths_upto(n_max) == oracle_batch(n_max), n_max
    assert widths == [2, 2, 3, 3, 3, 3]


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_slot_packer_round_trips_at_each_width(width):
    top = (1 << 8 * width) - 1
    for values in ([0], [top], [0, top, 1, 0], [top, 0, top - 1, 1, top]):
        packed = hcn7.hurwitz._slot_bytes(values, width)
        assert len(packed) == width * len(values)
        assert hcn7.hurwitz._unpack(int.from_bytes(packed, "big"), len(values), width) == tuple(values)


class Untouchable:
    """A table of the given length whose entries cannot be read."""

    def __init__(self, size):
        self.size = size

    def __len__(self):
        return self.size

    def __getitem__(self, n):
        raise LookupError("the sieve read an entry")


# 12 A (A + 3) < 2^32 for A = isqrt(N // 3) = 18917, not for 18918
@pytest.mark.parametrize("n_max, error", [(3 * 18918**2 - 1, LookupError), (3 * 18918**2, OverflowError)])
def test_sieve_checks_the_slot_bound_before_it_adds(n_max, error):
    with pytest.raises(error):
        hcn7.hurwitz._sieve(Untouchable(n_max + 1), 1)


def test_product_checks_the_slot_bound_before_it_packs(monkeypatch):
    # theta_{0,1} to order 8 sums to 5 (a = 0, +-1, +-2), so no slot exceeds
    # 5 times the largest entry; entries at N = 1, 2 (mod 4) stay 0
    largest = (2**32 - 1) // 5
    for top in (largest, largest + 1):
        table = tuple(-1 if n == 0 else top if n % 4 in (0, 3) else 0 for n in range(9))
        monkeypatch.setattr(hcn7.hurwitz, "twelfths_upto", lambda n_max: table)
        if top == largest:
            product = op_u(series_mul(QSeries(table), theta_mM(0, 1, 8)), 4)
            assert hmm_series(0, 1, 2) == QSeries(product.coeffs, 12)
        else:
            with pytest.raises(OverflowError, match="32-bit slot"):
                hmm_series(0, 1, 2)


def test_product_packs_once_per_table_and_order(monkeypatch):
    twelfths_upto(400)  # sieved first: the sieve packs too
    packed = []
    slot_bytes = hcn7.hurwitz._slot_bytes
    monkeypatch.setattr(hcn7.hurwitz, "_slot_bytes", lambda v: packed.append(len(v)) or slot_bytes(v))
    monkeypatch.setattr(hcn7.hurwitz, "_packed", (None, -1, 0, ()))
    first = [hmm_series(m, 7, 100) for m in range(7)]
    assert len(packed) == 2  # the two classes, once for all seven residues
    hmm_series(0, 7, 60)
    assert len(packed) == 4  # another order packs again
    table = tuple(twelfths_upto(400))  # equal entries, another object
    monkeypatch.setattr(hcn7.hurwitz, "twelfths_upto", lambda n_max: table)
    assert [hmm_series(m, 7, 100) for m in range(7)] == first
    assert len(packed) == 6
    for m in range(7):
        assert values(first[m]) == [hmm_sum(m, 7, n) for n in range(101)]


def test_series():
    s = hurwitz_series(4)
    assert s.den == 12 and s.coeffs == (-1, 0, 0, 4, 6)
    assert values(s) == [Fraction(-1, 12), 0, 0, Fraction(1, 3), Fraction(1, 2)]
    assert hurwitz_series(0)[0] == Fraction(-1, 12)
    # large index needed by the identity battery comes out exactly
    big = hurwitz_series(1348)
    assert (12 * big[1348]).denominator == 1


def test_series_rejects_negative_order_after_the_cache_grew():
    hmm_sum(0, 1, 100)  # the cache now holds more than 400 entries
    with pytest.raises(ValueError, match="non-negative"):
        hurwitz_series(-5)


def test_series_respects_the_cap(monkeypatch):
    monkeypatch.setattr(hcn7.hurwitz, "MAX_H_INDEX", 5000)
    monkeypatch.setattr(hcn7.hurwitz, "_cache", (-1,))
    cache = hcn7.hurwitz._cache
    with pytest.raises(ValueError, match="H index 9000 is over the cap MAX_H_INDEX = 5000"):
        hurwitz_series(9000)
    assert hcn7.hurwitz._cache is cache
    assert hurwitz_series(5000).order == 5000  # the cap itself is admitted


def test_table_rejects_an_index_over_the_cap_before_it_sieves(monkeypatch):
    monkeypatch.setattr(hcn7.hurwitz, "_sieve", unreachable)
    cache = hcn7.hurwitz._cache
    with pytest.raises(ValueError, match=f"H index {MAX_H_INDEX + 1} is over the cap MAX_H_INDEX"):
        twelfths_upto(MAX_H_INDEX + 1)
    assert hcn7.hurwitz._cache is cache


def sum_of(twelfths):
    """hmm_sum with its kernel hmm_twelfths patched to return n: the
    division by 12 it makes, and its memo, on any int twelfths."""
    return hmm_sum(0, 1, twelfths)


def test_hmm_sum_memo_is_exact_and_an_int_where_integral(monkeypatch):
    monkeypatch.setattr(hcn7.hurwitz, "_div12_table", hcn7.hurwitz._Div12Table())
    monkeypatch.setattr(hcn7.hurwitz, "hmm_twelfths", lambda m, M, n: n)
    for _ in range(2):  # the second pass reads the table
        for t in range(-50, 5001):  # 12 H(0) = -1 included
            value = sum_of(t)
            assert value == Fraction(t, 12), t
            assert type(value) is (int if t % 12 == 0 else Fraction), t


def test_hmm_sum_memo_stops_at_its_cap_and_stays_exact(monkeypatch):
    monkeypatch.setattr(hcn7.hurwitz, "_div12_table", hcn7.hurwitz._Div12Table())
    monkeypatch.setattr(hcn7.hurwitz, "hmm_twelfths", lambda m, M, n: n)
    cap = hcn7.hurwitz._DIV12_CAP
    assert cap == 4096
    twelfths = range(1, 12 * (cap + 500), 12)  # distinct, none a multiple of 12
    for _ in range(2):
        for t in twelfths:
            value = sum_of(t)
            assert type(value) is Fraction and value == Fraction(t, 12), t
        assert len(hcn7.hurwitz._div12_table) == cap


@pytest.mark.parametrize("grow_to", [0, 2000])
def test_hmm_series_rejects_negative_order_whatever_the_cache_holds(monkeypatch, grow_to):
    monkeypatch.setattr(hcn7.hurwitz, "_cache", (-1,))
    if grow_to:
        hmm_sum(0, 1, grow_to)  # the cache now holds more than 8000 entries
    cache = hcn7.hurwitz._cache
    with pytest.raises(ValueError, match="order must be non-negative"):
        hmm_series(0, 7, -1)
    assert hcn7.hurwitz._cache is cache


def test_cache_grows_to_exactly_the_index_asked(monkeypatch):
    # `sum --n 5` reads index 20 and sieves no further; a cache that already
    # covers a request is returned as it is, longer than asked
    monkeypatch.setattr(hcn7.hurwitz, "_cache", (-1,))
    assert hmm_twelfths(0, 7, 5) == 12 * hmm_sum(0, 7, 5)
    assert len(hcn7.hurwitz._cache) == 21
    for n_max, size in [(20, 21), (10, 21), (3000, 3001), (2999, 3001)]:
        twelfths = twelfths_upto(n_max)
        assert twelfths is hcn7.hurwitz._cache and len(twelfths) == size, n_max
    # H_{0,7}(875) reads index 3500, below a patched cap of 5000, and the
    # table stops at 3500
    monkeypatch.setattr(hcn7.hurwitz, "MAX_H_INDEX", 5000)
    hmm_sum(0, 7, 875)
    assert hcn7.hurwitz._cache == oracle_batch(3500)


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
        twelfths = hmm_product(m, 7, 120)
        for n in range(121):
            assert s[n] == hmm_sum(m, 7, n), (m, n)
            assert twelfths[n] == hmm_twelfths(m, 7, n), (m, n)


def test_hmm_series_matches_composed_product():
    for m in range(7):
        assert values(hmm_series(m, 7, 337)) == composed_hmm_series(m, 7, 337), m
    for M in (1, 2, 4, 13, 22):
        for m in {0, 1, M // 2, M - 1}:
            assert values(hmm_series(m, M, 750)) == composed_hmm_series(m, M, 750), (m, M)


def test_hmm_series_does_not_use_the_direct_sum(monkeypatch):
    monkeypatch.setattr(hcn7.hurwitz, "hmm_sum", unreachable)
    monkeypatch.setattr(hcn7.hurwitz, "hmm_twelfths", unreachable)
    monkeypatch.setattr(hcn7.hurwitz, "hurwitz_single", unreachable)
    assert values(hmm_series(3, 7, 200)) == composed_hmm_series(3, 7, 200)
    assert hmm_product(3, 7, 200) == [12 * c for c in composed_hmm_series(3, 7, 200)]


@pytest.mark.parametrize(
    "m, M, order",
    [
        (0, 2, 40),  # H(0) = -1/12 at k = a^2/4 for each even a
        (0, 1, 0),
        (1, 3, 0),
        (0, 7, 1),
        (3, 7, 1),
        (-3, 7, 120),
        (-12, 5, 90),
        (5, 100, 3),  # theta_{m,M} to order 12 is zero
        (0, 100, 3),  # one nonzero, at q^0
        (-97, 100, 3),  # one nonzero, at q^9
    ],
)
def test_hmm_series_edge_cases_match_composed_product(m, M, order):
    series = hmm_series(m, M, order)
    assert values(series) == composed_hmm_series(m, M, order)
    assert series.den == 12 and all(type(t) is int for t in series.coeffs)
    for n, t in enumerate(series.coeffs):
        assert type(series[n]) is (int if t % 12 == 0 else Fraction), n


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


@pytest.mark.parametrize("M", [0, -3])
def test_hmm_series_rejects_a_modulus_below_1_before_reading_the_table(monkeypatch, M):
    monkeypatch.setattr(hcn7.hurwitz, "twelfths_upto", unreachable)
    with pytest.raises(ValueError, match="M must be positive"):
        hmm_series(2, M, 5)


def test_hmm_sum_respects_the_cap(monkeypatch):
    monkeypatch.setattr(hcn7.hurwitz, "MAX_H_INDEX", 5000)
    monkeypatch.setattr(hcn7.hurwitz, "_cache", (-1,))
    # 4n = 8000 is over the patched cap
    for direct in (hmm_sum, hmm_twelfths):
        with pytest.raises(ValueError, match="MAX_H_INDEX"):
            direct(0, 7, 2000)
    assert hcn7.hurwitz._cache == (-1,)


def test_direct_sum_reads_a_covering_cache_in_place(monkeypatch):
    # a cache that already reaches 4n is read without calling twelfths_upto
    twelfths = [hurwitz_single(N) for N in range(401)]
    monkeypatch.setattr(hcn7.hurwitz, "_cache", sieved(400))
    monkeypatch.setattr(hcn7.hurwitz, "twelfths_upto", unreachable)
    for M in (1, 2, 7):
        for m in range(M):
            for n in range(101):  # 4n <= 400, the cache's last index
                r = isqrt(4 * n)
                expected = sum(twelfths[4 * n - a * a] for a in range(-r, r + 1) if (a - m) % M == 0)
                assert hmm_twelfths(m, M, n) == expected, (m, M, n)
                assert hmm_sum(m, M, n) == Fraction(expected, 12), (m, M, n)
    for direct in (hmm_sum, hmm_twelfths):
        with pytest.raises(AssertionError):  # 4n = 404 is past the cache
            direct(0, 7, 101)


def test_hmm_sum_is_its_kernel_over_12():
    # hmm_sum calls hmm_twelfths and divides once: an int where 12 divides it
    for M in (1, 2, 5, 7, 11):
        for m in range(-2, M + 2):
            for n in range(0, 300, 7):
                twelfths = hmm_twelfths(m, M, n)
                assert type(twelfths) is int
                assert hmm_sum(m, M, n) == Fraction(twelfths, 12), (m, M, n)
                assert (type(hmm_sum(m, M, n)) is int) == (twelfths % 12 == 0)
    for args, message in (((0, 0, 5), "M must be positive"), ((0, 7, -1), "n must be non-negative")):
        for direct in (hmm_sum, hmm_twelfths):
            with pytest.raises(ValueError, match=message):
                direct(*args)


def test_hurwitz_kronecker():
    assert hmm_sum(0, 1, 1) == hk_rhs_oracle(1) == 1
    assert hmm_sum(0, 1, 11) == hk_rhs_oracle(11) == 22
    assert hmm_sum(0, 1, 4) == hk_rhs_oracle(4)
    for n in range(1, 600):
        assert hmm_sum(0, 1, n) == hk_rhs_oracle(n), n
