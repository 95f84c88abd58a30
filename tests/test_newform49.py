"""The level-49 newform: point counts, Hecke recursion, CM closed form."""

import random

import pytest

import hcn7.arith
import hcn7.newform49
import hcn7.primes
import hcn7.verify
from hcn7.newform49 import (
    ap_pairs,
    cm_ap,
    ec_point_count,
    g_series,
    newform_an,
    newform_ap,
    represent_7,
)
from hcn7.primes import primes_up_to
from hcn7.verify import main_table_rows
from oracles import newform_an_oracle, represent_7_scan


def brute_points(p):
    """Oracle: exhaustive (x, y) enumeration of the curve over F_p."""
    count = 1
    for x in range(p):
        rhs = (x**3 - x**2 - 2 * x - 1) % p
        for y in range(p):
            if (y * y + x * y) % p == rhs:
                count += 1
    return count


def test_point_count_examples():
    assert ec_point_count(2) == 2
    assert ec_point_count(3) == 4
    assert ec_point_count(11) == 8


def test_point_count_against_brute_force():
    for p in primes_up_to(200):
        if p == 7:
            continue
        assert ec_point_count(p) == brute_points(p), p


def test_point_count_validation():
    with pytest.raises(ValueError):
        ec_point_count(7)


def test_ap_values():
    assert newform_ap(2) == 1
    assert newform_ap(3) == 0
    assert newform_ap(7) == 0
    assert newform_ap(11) == 4


def test_an_expansion():
    an = newform_an(49)
    assert [an[n] for n in range(1, 10)] == [1, 1, 0, -1, 0, 0, 0, -3, -3]
    assert an[6] == 0  # a2 * a3
    assert an[49] == 0
    with pytest.raises(IndexError):
        an[50]


def test_an_matches_factoring_oracle():
    an = newform_an(5000)
    assert an[0] == 0
    assert [n for n in range(1, 5001) if an[n] != newform_an_oracle(n)] == []


def test_an_multiplicative():
    an = newform_an(2000)
    rng = random.Random(41)
    from math import gcd

    for _ in range(200):
        m = rng.randint(1, 60)
        n = rng.randint(1, 33)
        if gcd(m, n) == 1:
            assert an[m * n] == an[m] * an[n], (m, n)


def test_hasse_bound():
    for p in primes_up_to(3000):
        if p == 7:
            continue
        ap = newform_ap(p)
        assert ap * ap <= 4 * p, p


def test_inert_primes_vanish():
    for p in primes_up_to(3000):
        if p in (2, 7):
            continue
        if p % 7 in (3, 5, 6):
            assert newform_ap(p) == 0, p
        else:
            assert newform_ap(p) != 0, p


def test_representations():
    assert represent_7(11) == (2, 1)
    assert represent_7(23) == (4, 1)
    assert represent_7(29) == (1, 2)


def test_representation_uniqueness_full_scan():
    split = [p for p in primes_up_to(10**5) if p % 7 in (1, 2, 4) and p != 2]
    assert [p for p in split if represent_7(p) != represent_7_scan(p)] == []


def test_representation_errors():
    with pytest.raises(ValueError):
        represent_7(2)
    with pytest.raises(ValueError):
        represent_7(3)  # inert, no representation
    with pytest.raises(ValueError):
        represent_7(7)
    with pytest.raises(ValueError):
        represent_7(15)
    # any n ends, in ValueError or in a true representation: 91 = 7 * 13 has
    # none, 841 = 29^2 = 27^2 + 7 * 4^2
    for n in [91, 841, *range(-3, 400)]:
        try:
            x, y = represent_7(n)
        except ValueError:
            continue
        assert x > 0 and y > 0 and x * x + 7 * y * y == n, n


def test_cm_ap():
    assert cm_ap(11) == 4
    assert cm_ap(29) == 2
    assert cm_ap(3) == 0
    assert cm_ap(2) == 1
    assert cm_ap(7) == 0


def test_cm_matches_point_counts():
    assert [p for p, ec, cm in ap_pairs(2000) if ec != cm] == []


def test_g_series():
    g = g_series(11)
    assert g[0] == 0
    assert [int(g[n]) for n in range(1, 10)] == [1, 1, 0, -1, 0, 0, 0, -3, -3]
    assert g[11] == 4


def test_primes_come_only_from_the_sieve(monkeypatch):
    """With every trial-division routine failing and a cold a_p cache,
    each route over primes still runs: its primes come from the sieve."""

    def forbidden(*args):
        raise AssertionError("a prime was re-checked by trial division")

    for module in (hcn7.primes, hcn7.arith, hcn7.verify, hcn7.newform49):
        for name in ("prime_factors", "is_prime"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(hcn7.newform49, "_ap_cache", {7: 0})
    assert [p for p, ec, cm in ap_pairs(3000) if ec != cm] == []
    assert newform_an(3000) == newform_an(3000, cm_ap)
    assert all(r.ok for r in main_table_rows(3000))
