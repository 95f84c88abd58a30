"""The baby-step/giant-step point count against the O(p) scan.

ec_point_count settles #E(F_p) by baby-step/giant-step in the Hasse
interval and falls back to the scan only when that leaves the order
undecided.  These tests pin the two to each other, pin the fallback on
its own and the primes where it runs, pin the even orders, and the orders
divisible by 4 under full 2-torsion, pin the search helper to repeated
addition on the halved and the quartered interval, and show that the
elliptic-curve route reads nothing of the CM side it is cross-checked
against.
"""

from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcn7.newform49
from hcn7.newform49 import (
    _A,
    _B,
    _D,
    _T,
    _add,
    _bsgs_count,
    _multiples_in,
    _scan_count,
    ec_aps,
    ec_point_count,
)
from hcn7.primes import primes_up_to
from test_newform49 import brute_points


def test_bsgs_matches_scan_below_5000():
    for p in primes_up_to(5000):
        if p > 7:
            assert ec_point_count(p) == _scan_count(p), p


@settings(deadline=None, max_examples=25, database=None)
@given(st.sampled_from([p for p in primes_up_to(2 * 10**5) if p >= 11]))
def test_bsgs_matches_scan_on_random_primes(p):
    assert ec_point_count(p) == _scan_count(p)


def test_fallback_alone_matches_brute_force(monkeypatch):
    monkeypatch.setattr(hcn7.newform49, "_bsgs_count", lambda p: None)
    for p in primes_up_to(200):
        if p != 7:
            assert ec_point_count(p) == brute_points(p), p


def test_point_count_reads_nothing_of_the_cm_side(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the point count reached the CM side")

    for name in ("cm_aps", "cm_ap_at", "represent_7", "chi_minus7"):
        monkeypatch.setattr(hcn7.newform49, name, forbidden)
    primes = [p for p in primes_up_to(10**4) if p != 7]
    for p in primes:
        assert ec_point_count(p) > 0
    # the route over a range too, from a cold cache, so that every prime is
    # counted, and split across two processes where the machine has two cores
    monkeypatch.setattr(hcn7.newform49, "_ap_cache", {7: 0})
    assert ec_aps(primes) == [p + 1 - ec_point_count(p) for p in primes]


def test_curve_has_2_torsion_so_every_order_is_even():
    assert _T**3 + _A * _T + _B == 0
    for p in primes_up_to(5000):
        if p > 7:
            assert _scan_count(p) % 2 == 0, p


def test_full_2_torsion_means_orders_divisible_by_4():
    """D is a square mod p exactly when the short cubic splits completely,
    and then #E and #E' = 2p + 2 - #E are multiples of 4."""
    assert _D == _T**2 - 4 * (_A + _T**2)
    for p in primes_up_to(5000):
        if p <= 7:
            continue
        roots = sum((x**3 + _A * x + _B) % p == 0 for x in range(p))
        assert (pow(_D, (p - 1) // 2, p) == 1) == (roots == 3), p
        if roots == 3:
            count = _scan_count(p)
            assert count % 4 == 0 and (2 * p + 2 - count) % 4 == 0, p


def test_bsgs_falls_back_to_the_scan_only_at_11():
    assert [p for p in primes_up_to(10**4) if p > 7 and _bsgs_count(p) is None] == [11]


def _order(Q, a, p):
    """The order of Q != O, by repeated addition."""
    R, n = Q, 1
    while R is not None:
        R, n = _add(R, Q, a, p), n + 1
    return n


def test_multiples_in_matches_repeated_addition():
    """On every model y^2 = X^3 + A f^2 X + B f^3 that _bsgs_count draws a
    point P = (f x, f^2) from, for every x: the multiples of the order of
    Q = 2P in the Hasse interval divided by e = 2 and by e = 4, or None
    just when that order is at most 2s + 1.  The quartered intervals
    include the giant walk's first centre at 0 (p = 11) and first windows
    that start below low."""
    for p in primes_up_to(200):
        if p < 11:
            continue
        root = isqrt(4 * p)
        for e in (2, 4):
            low, high = -(-(p + 1 - root) // e), (p + 1 + root) // e
            s = isqrt((high - low) // 2) + 1
            for x in range(p):
                f = (x**3 + _A * x + _B) % p
                if not f:
                    continue
                a = _A * f * f % p
                P = f * x % p, f * f % p
                Q = _add(P, P, a, p)
                n = _order(Q, a, p)
                want = None if n <= 2 * s + 1 else {m for m in range(low, high + 1) if m % n == 0}
                assert _multiples_in(Q, a, p, low, high) == want, (p, e, x)
