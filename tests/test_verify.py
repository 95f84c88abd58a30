"""Sturm bounds, identity reports, the 19-identity battery, closing table."""

from collections import Counter
from fractions import Fraction

import pytest

import hcn7.hurwitz
import hcn7.newform49
import hcn7.verify
from hcn7.arith import d_series, hk_rhs_series
from hcn7.hurwitz import hmm_series, hmm_sum, hurwitz_batch
from hcn7.newform49 import g_series, newform_ap
from hcn7.primes import primes_up_to
from hcn7.qseries import QSeries
from hcn7.verify import (
    _TABLE_WEIGHTS,
    THM35_BOUND,
    THM35_BOUND_M0,
    _thm35_m0_sides,
    _thm35_sides,
    compare,
    main_table_rows,
    run_suite,
    sturm_bound,
    verify_hurwitz_kronecker,
    verify_lemma42,
    verify_main_table,
    verify_prop31,
    verify_prop41,
    verify_thm35,
)
from oracles import sigma, verify_lemma42_literal_u


def test_sturm_bound_values():
    assert sturm_bound(2, 196, 7) == 336
    assert sturm_bound(2, 196, 1) == 56
    assert sturm_bound(2, 1, 1) == 0


def test_sturm_bound_validation():
    with pytest.raises(ValueError):
        sturm_bound(2, 7, 196)  # N2 does not divide N1
    with pytest.raises(ValueError):
        sturm_bound(0, 196, 7)


def test_sturm_bound_monotone():
    # increasing weight, and increasing level along divisibility
    for n1 in (4, 28, 196):
        for k in range(1, 8):
            assert sturm_bound(k, n1, 1) <= sturm_bound(k + 1, n1, 1)
    chain = [(1, 1), (7, 1), (49, 7), (196, 7)]
    bounds = [sturm_bound(2, n1, n2) for n1, n2 in chain]
    assert bounds == sorted(bounds)


def test_compare_reports():
    rep = compare("toy.equal", 5, 0.0, QSeries([1] * 6), QSeries([1] * 6))
    assert rep.ok and rep.first_mismatch is None and rep.checked_upto == 5

    rep = compare("toy.bad", 2, 0.0, QSeries([0, 1, 2, 0, 0]), QSeries([0, 1, 3, 0, 0]))
    assert not rep.ok and rep.first_mismatch == (2, 2, 3)

    with pytest.raises(ValueError):
        compare("toy.short", 5, 0.0, QSeries([1]), QSeries([1]))

    # first = 1 skips a differing constant term
    lhs, rhs = QSeries([0, 1, 2]), QSeries([5, 1, 2])
    assert not compare("toy.first", 2, 0.0, lhs, rhs).ok
    rep = compare("toy.first", 2, 0.0, lhs, rhs, first=1)
    assert rep.ok and rep.checked_upto == 2


def test_thm35_suite_structure():
    reports = verify_thm35()
    assert len(reports) == 19
    by_id = {r.id: r for r in reports}
    assert by_id["thm35.m0"].checked_upto == THM35_BOUND_M0 == 57
    assert by_id["thm35.m1.s3"].checked_upto == THM35_BOUND == 337
    assert sum(1 for r in reports if r.checked_upto == 337) == 18


def test_thm35_worked_coefficients():
    series = hmm_series, d_series, g_series
    # class-3 row: H_{1,7}(3) = H(11) = 1 equals sigma(3)/4
    lhs, rhs = _thm35_sides(1, 3, 10, *series)
    assert lhs[3] == rhs[3] == 1
    # class-4 row at n = 4: H(15) = 2 = sigma(4)/4 - a_4/4
    lhs, rhs = _thm35_sides(1, 4, 10, *series)
    assert lhs[4] == rhs[4] == 2
    # residue-0 row at n = 6: the sigma/12 middle term is what closes the gap
    lhs, rhs = _thm35_m0_sides(10, *series)
    assert lhs[6] == rhs[6] == 4


def test_thm35_all_hold_small():
    reports = verify_thm35(80, 57)
    assert [r.checked_upto for r in reports] == [57] + [80] * 18
    for rep in reports:
        assert rep.ok, str(rep)


def test_thm35_builds_each_series_once(monkeypatch):
    calls = Counter()

    def counting(name):
        fn = getattr(hcn7.verify, name)

        def wrapper(*args):
            calls[(name, *args)] += 1
            return fn(*args)

        return wrapper

    for name in ("hmm_series", "d_series", "g_series"):
        monkeypatch.setattr(hcn7.verify, name, counting(name))
    assert all(rep.ok for rep in run_suite("thm35"))
    assert sum(n for (name, *_), n in calls.items() if name == "hmm_series") == 4
    assert calls[("g_series", THM35_BOUND)] == 1
    assert max(calls.values()) == 1


def test_lemma42():
    rep = verify_lemma42(300)
    assert rep.ok
    with pytest.raises(ValueError):
        verify_lemma42(40)


def test_lemma42_worked_values():
    from hcn7.arith import psi_7

    ps = psi_7(10)
    assert ps[4] == 2  # a4 - a2 + 4 a1
    assert ps[8] == 2  # a8 - a4 + 4 a2
    assert ps[1] == 1  # a1


def test_lemma42_negative_control():
    rep = verify_lemma42_literal_u(56)
    assert not rep.ok
    assert rep.first_mismatch == (1, Fraction(1), Fraction(-4))


def test_prop41():
    assert verify_prop41(400).ok


def test_hurwitz_kronecker_report():
    rep = verify_hurwitz_kronecker(800)
    assert rep.ok and rep.checked_upto == 800


def test_hurwitz_kronecker_sides(monkeypatch):
    def unreachable(*args):
        raise AssertionError("unexpected call")

    # the left side is the product route, the right side reads no H
    monkeypatch.setattr(hcn7.verify, "hmm_sum", unreachable)
    assert verify_hurwitz_kronecker(300).ok
    monkeypatch.setattr(hcn7.hurwitz, "twelfths_upto", unreachable)
    definition = [
        2 * sigma(n) - sum(min(d, n // d) for d in range(1, n + 1) if n % d == 0)
        for n in range(1, 61)
    ]
    assert hk_rhs_series(60) == QSeries([0] + definition)


def test_prop31_reports():
    for k in (0, 1):
        for m in range(7):
            rep = verify_prop31(k, m, 80)
            assert rep.ok, str(rep)


def test_main_table_rows():
    rows = {row.p: row for row in main_table_rows(23)}
    assert sorted(rows) == [3, 5, 11, 13, 17, 19, 23]
    row = rows[11]
    assert row.residue == 4 and (row.x, row.y) == (2, 1)
    assert row.ok
    assert row.cells[0][1] == row.cells[0][2] == 4
    assert row.cells[1][2] == 2
    row = rows[3]
    assert row.x is None and row.cells[0][1] == row.cells[0][2] == Fraction(4, 3)
    assert rows[23].cells[0][2] == 8
    assert rows[13].cells[0][2] == Fraction(8, 3)


def test_main_table_represents_each_prime_once(monkeypatch):
    calls = Counter()
    represent = hcn7.verify.represent_7

    def counted(p):
        calls[p] += 1
        return represent(p)

    monkeypatch.setattr(hcn7.verify, "represent_7", counted)
    assert all(r.ok for r in verify_main_table(600))
    split = [p for p in primes_up_to(600) if p % 7 in (1, 2, 4) and p != 2]
    assert calls == Counter(split)


def test_main_table_small():
    reports = verify_main_table(600)
    assert len(reports) == 25
    assert all(r.ok for r in reports)
    ids = {r.id for r in reports}
    assert "main.rowsum" in ids and "main.r1.m0" in ids


def test_rowsum_identity():
    from hcn7.primes import primes_up_to

    for p in primes_up_to(600):
        if p in (2, 7):
            continue
        total = hmm_sum(0, 7, p) + 2 * sum(hmm_sum(m, 7, p) for m in (1, 2, 3))
        assert total == 2 * p, p


def test_table_weights_obey_the_row_law():
    # H_0 + 2H_1 + 2H_2 + 2H_3 = 2p whatever p and a_p: (48, 0, 0) / 24
    assert sorted(_TABLE_WEIGHTS) == [1, 2, 3, 4, 5, 6]
    for r, row in _TABLE_WEIGHTS.items():
        assert len(row) == 4
        law = [row[0][i] + 2 * (row[1][i] + row[2][i] + row[3][i]) for i in range(3)]
        assert law == [48, 0, 0], r


def test_table_weights_hold_with_the_curve_ap(monkeypatch):
    # a_p by point counts on 49a1, so no cell reads x^2 + 7y^2
    def unreachable(p):
        raise AssertionError("represent_7 called")

    monkeypatch.setattr(hcn7.newform49, "represent_7", unreachable)
    for p in primes_up_to(3000):
        if p in (2, 7):
            continue
        ap = newform_ap(p)
        for m, (c_p, c_1, c_a) in enumerate(_TABLE_WEIGHTS[p % 7]):
            assert Fraction(c_p * p + c_1 + c_a * ap, 24) == hmm_sum(m, 7, p), (p, m)


def test_run_suite_names():
    reports = run_suite("lemma42", bound=100)
    assert len(reports) == 1 and reports[0].ok
    reports = run_suite("hk", bound=100)
    assert reports[0].checked_upto == 100
    with pytest.raises(ValueError):
        run_suite("nope")


def test_hk_and_main_sieve_the_table_to_their_size(monkeypatch):
    # hk needs H(N) for N <= 4 * 5000, main for N <= 4 * 10000; growing by
    # doubling instead would overshoot to 65,473 entries
    monkeypatch.setattr(hcn7.hurwitz, "_cache", hurwitz_batch(0))
    run_suite("hk")
    run_suite("main")
    assert len(hcn7.hurwitz._cache) == 40_001


def test_table_rows_sieve_the_table_once(monkeypatch):
    # growing by doubling from 1,024 would end at 16,385 entries
    monkeypatch.setattr(hcn7.hurwitz, "_cache", hurwitz_batch(0))
    rows = list(main_table_rows(3000))
    assert rows[-1].p == 2999
    assert len(hcn7.hurwitz._cache) == 12_001
