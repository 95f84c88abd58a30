"""The baby-step/giant-step point count against the O(p) scan.

ec_point_count settles #E(F_p) by baby-step/giant-step in the Hasse
interval and falls back to the scan only when that leaves the order
undecided.  These tests pin the two to each other, pin the fallback on
its own, and show that the elliptic-curve route reads nothing of the CM
side it is cross-checked against.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcn7.newform49
from hcn7.newform49 import _scan_count, ec_point_count
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

    for name in ("cm_ap", "represent_7", "chi_minus7"):
        monkeypatch.setattr(hcn7.newform49, name, forbidden)
    for p in primes_up_to(10**4):
        if p != 7:
            assert ec_point_count(p) > 0
