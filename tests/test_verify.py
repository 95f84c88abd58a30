"""Sturm bounds, identity reports, the 19-identity battery, closing table."""

from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

import hcn7.arith
import hcn7.hurwitz
import hcn7.newform49
import hcn7.verify
from hcn7.arith import d_pa_series, d_series, hk_rhs_series, prop31_rhs
from hcn7.hurwitz import hmm_product, hmm_series, hmm_sum, hmm_twelfths
from hcn7.newform49 import ec_aps, g_series
from hcn7.primes import primes_up_to
from hcn7.qseries import QSeries
from hcn7.verify import (
    _CELL_WEIGHTS,
    _THM35_ROWS,
    THM35_BOUND,
    THM35_BOUND_M0,
    TableRow,
    VerificationReport,
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
from oracles import (
    TABLE_WEIGHTS,
    op_sieve,
    prop31_rhs_sieved,
    sigma,
    thm35_m0_sides,
    thm35_sides_sieved,
    values,
    verify_lemma42_literal_u,
)


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


def test_sturm_bound_matches_the_index_by_trial_division():
    # [SL2(Z) : Gamma0(n1)] = n1 prod (1 + 1/p) and phi(n2), each from its
    # own trial division, against sturm_bound's one pass over the sieve
    def prime_divisors(n):
        return [d for d in range(2, n + 1) if n % d == 0 and all(d % e for e in range(2, d))]

    for n1 in range(1, 400):
        psi = n1
        for p in prime_divisors(n1):
            psi = psi // p * (p + 1)
        for n2 in (d for d in range(1, n1 + 1) if n1 % d == 0):
            phi = sum(1 for j in range(1, n2 + 1) if gcd(j, n2) == 1)
            for k in (1, 2, 3):
                assert sturm_bound(k, n1, n2) == k * psi * phi // 12, (k, n1, n2)


def test_compare_reports():
    rep = compare("toy.equal", 5, 0.0, QSeries([1] * 6), QSeries([1] * 6))
    assert rep.ok and rep.first_mismatch is None and rep.checked_upto == 5

    rep = compare("toy.bad", 2, 0.0, QSeries([0, 1, 2, 0, 0]), QSeries([0, 1, 3, 0, 0]))
    assert not rep.ok and rep.first_mismatch == (2, 2, 3)

    # the report's contract: these fields in this order, immutable
    assert repr(VerificationReport("toy", 5, None, 0.5)) == (
        "VerificationReport(id='toy', checked_upto=5, first_mismatch=None, elapsed=0.5, unit=1)"
    )
    with pytest.raises(AttributeError):
        rep.checked_upto = 3

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


def thm35_series(order: int):
    """The series _thm35_sides reads, as verify_thm35 builds them to order."""
    h = [hmm_product(m, 7, order) for m in range(4)]
    phi = {cls: d_pa_series(1, 7, cls, order) for cls in range(1, 7)}
    return h, phi, d_series(order), g_series(order)


def test_thm35_worked_coefficients():
    # both sides over den 24, from 12 H_{m,7}, D_1^(7,cls), D and G
    series = thm35_series(10)
    # class-3 row: H_{1,7}(3) = H(11) = 1 equals sigma(3)/4
    lhs, rhs = _thm35_sides([(1, 3)], 10, *series)
    assert lhs.den == rhs.den == 24
    assert lhs.coeffs[3] == rhs.coeffs[3] == 24 and lhs[3] == 1
    # class-4 row at n = 4: H(15) = 2 = sigma(4)/4 - a_4/4
    lhs, rhs = _thm35_sides([(1, 4)], 10, *series)
    assert lhs[4] == rhs[4] == 2
    # row (0, 6) at n = 6: H_{0,7}(6) + 2 phi_1^(7,1)(6) = 2 + 2 = sigma(6)/3,
    # the 1/4 + 1/12 of an inert class
    lhs, rhs = _thm35_sides([(0, 6)], 10, *series)
    assert hmm_series(0, 7, 10)[6] == 2
    assert lhs[6] == rhs[6] == 4


@pytest.mark.parametrize("order", [57, 400])
def test_thm35_m0_is_the_sum_of_its_six_rows(monkeypatch, order):
    # the sides thm35.m0 compares are the paper's m = 0 identity, whose
    # sigma chi(chi - 1)/24 term the inert rows carry as cD = 1/3
    sides = {}

    def recording(id, bound, start, lhs, rhs, first=0):
        sides[id] = (lhs, rhs)
        return compare(id, bound, start, lhs, rhs, first)

    monkeypatch.setattr(hcn7.verify, "compare", recording)
    assert all(rep.ok and rep.unit == 24 for rep in verify_thm35(60, order))
    # thm35 compares in 24ths; the oracle states the sides as Fractions
    assert all(side.den == 24 and side.order == order for side in sides["thm35.m0"])
    assert tuple(map(values, sides["thm35.m0"])) == thm35_m0_sides(order)


def test_thm35_all_hold_small():
    reports = verify_thm35(80, 57)
    assert [r.checked_upto for r in reports] == [57] + [80] * 18
    for rep in reports:
        assert rep.ok, str(rep)


def test_thm35_each_m0_row_holds_on_its_own():
    # thm35.m0 checks the six rows, each on its own class, only to 57; each
    # row (0, a) also holds alone to 337, the bound of the other 18 reports
    b = THM35_BOUND
    series = thm35_series(b)
    for a in range(1, 7):
        rep = compare(f"thm35.m0.s{a}", b, 0.0, *_thm35_sides([(0, a)], b, *series))
        assert rep.ok and rep.unit == 24, str(rep)


def count_calls(monkeypatch, calls: Counter, module, name: str) -> None:
    """Patch module.name to count each argument tuple in calls as (name, *args)."""
    fn = getattr(module, name)

    def wrapper(*args):
        calls[(name, *args)] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, wrapper)


def test_thm35_builds_each_series_once(monkeypatch):
    calls = Counter()
    for name in ("hmm_product", "d_pa_series", "d_series", "g_series"):
        count_calls(monkeypatch, calls, hcn7.verify, name)
    assert all(rep.ok for rep in run_suite("thm35"))
    assert sum(n for (name, *_), n in calls.items() if name == "hmm_product") == 4
    assert sum(n for (name, *_), n in calls.items() if name == "d_pa_series") == 6
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
    assert rep.first_mismatch == (1, 1, -4) and rep.unit == 1


def test_prop41():
    assert verify_prop41(400).ok


def test_hurwitz_kronecker_report():
    rep = verify_hurwitz_kronecker(800)
    assert rep.ok and rep.checked_upto == 800 and rep.unit == 12


def test_hurwitz_kronecker_sides(monkeypatch):
    def unreachable(*args):
        raise AssertionError("unexpected call")

    # the left side is the product route, the right side reads no H
    monkeypatch.setattr(hcn7.hurwitz, "hmm_twelfths", unreachable)
    assert verify_hurwitz_kronecker(300).ok
    monkeypatch.setattr(hcn7.hurwitz, "twelfths_upto", unreachable)
    definition = [
        2 * sigma(n) - sum(min(d, n // d) for d in range(1, n + 1) if n % d == 0)
        for n in range(1, 61)
    ]
    assert hk_rhs_series(60) == QSeries([0] + definition)


def test_prop31_reports():
    for k in (0, 1):
        reports = verify_prop31(k, 80)
        assert [rep.id for rep in reports] == [f"prop31.k{k}.m{m}" for m in range(7)]
        for rep in reports:
            assert rep.ok and rep.unit == 2 and rep.checked_upto == 80, str(rep)


def test_prop31_builds_each_series_once(monkeypatch):
    calls = Counter()
    count_calls(monkeypatch, calls, hcn7.arith, "d_pa_series")
    count_calls(monkeypatch, calls, hcn7.verify, "lambda_series")
    assert all(rep.ok for rep in run_suite("prop31"))
    # per exponent l = 2k + 1: D^(7,c)_l for c = 1..6 and the m = 0 tail's base
    for l in (1, 3):
        built = {key for key in calls if key[:2] == ("d_pa_series", l)}
        assert built == {("d_pa_series", l, 7, c, 300) for c in range(1, 7)} | {("d_pa_series", l, 1, 0, 300 // 49)}
    assert sum(n for (name, *_), n in calls.items() if name == "d_pa_series") == 14
    assert sum(n for (name, *_), n in calls.items() if name == "lambda_series") == 14
    assert max(calls.values()) == 1


def test_thm35_rows_equal_their_sieved_construction():
    b = THM35_BOUND
    series = thm35_series(b)
    for m, a in _THM35_ROWS:
        got = _thm35_sides([(m, a)], b, *series)
        want = thm35_sides_sieved(m, a, *series)
        for side, reference in zip(got, want):
            assert side.coeffs == reference.coeffs and side.den == reference.den == 24, (m, a)


def test_prop31_sides_equal_their_sieved_construction():
    for k in (0, 1):
        for m, side in enumerate(prop31_rhs(k, 300)):
            reference = prop31_rhs_sieved(k, m, 300)
            assert side.coeffs == reference.coeffs and side.den == reference.den == 1, (k, m)


def test_mismatches_are_ints_over_their_unit(monkeypatch):
    # hk in twelfths, prop31 in halves: one more on the right side at n = 7
    def plus_one_at_7(side):
        return QSeries([c + (n == 7) * side.den for n, c in enumerate(side.coeffs)], side.den)

    hk_rhs, rhs_sides = hcn7.verify.hk_rhs_series, hcn7.verify.prop31_rhs
    monkeypatch.setattr(hcn7.verify, "hk_rhs_series", lambda n: plus_one_at_7(hk_rhs(n)))
    monkeypatch.setattr(hcn7.verify, "prop31_rhs", lambda k, order: list(map(plus_one_at_7, rhs_sides(k, order))))
    hk = verify_hurwitz_kronecker(30)
    assert hk.unit == 12 and hk.first_mismatch == (7, 12 * hmm_sum(0, 1, 7), 12 * hmm_sum(0, 1, 7) + 12)
    for k in (0, 1):
        for rep in verify_prop31(k, 30):
            n, lhs, rhs = rep.first_mismatch
            assert rep.unit == 2 and n == 7 and rhs == lhs + 2, rep
            assert type(lhs) is int and type(rhs) is int


def test_main_table_rows():
    # each cell is (m, direct, formula), both 24 H_{m,7}(p) as ints
    rows = {row.p: row for row in main_table_rows(23)}
    assert sorted(rows) == [3, 5, 11, 13, 17, 19, 23]
    row = rows[11]
    assert row.residue == 4 and (row.x, row.y) == (2, 1)
    assert row.ok
    assert row.cells[0][1] == row.cells[0][2] == 96  # H_{0,7}(11) = 4
    assert row.cells[1][2] == 48  # 2
    row = rows[3]
    assert row.x is None and row.cells[0][1] == row.cells[0][2] == 32  # 4/3
    assert rows[23].cells[0][2] == 192  # 8
    assert rows[13].cells[0][2] == 64  # 8/3
    for row in rows.values():
        for m, direct, formula in row.cells:
            assert type(direct) is int and type(formula) is int
            assert Fraction(direct, 24) == hmm_sum(m, 7, row.p)

    # the row's contract: these fields in this order, immutable, ok only if every cell matches
    bad = TableRow(3, 3, None, None, rows[3].cells[:1] + ((1, 24, 48),))
    assert repr(bad) == (
        "TableRow(p=3, residue=3, x=None, y=None, cells=((0, 32, 32), (1, 24, 48)))"
    )
    assert not bad.ok
    with pytest.raises(AttributeError):
        row.cells = ()


def test_main_table_represents_each_prime_once(monkeypatch):
    # one sweep per table, over the table's odd primes other than 7
    calls = []
    represent = hcn7.verify.represent_7

    def counted(primes):
        calls.append(list(primes))
        return represent(primes)

    monkeypatch.setattr(hcn7.verify, "represent_7", counted)
    assert all(r.ok for r in verify_main_table(600))
    assert calls == [[p for p in primes_up_to(600) if p not in (2, 7)]]


def test_main_table_small():
    reports = verify_main_table(600)
    assert len(reports) == 25
    assert all(r.ok for r in reports)
    ids = {r.id for r in reports}
    assert "main.rowsum" in ids and "main.r1.m0" in ids


def test_main_table_mismatch_reports_fractions(monkeypatch):
    # one twelfth more on every H_{1,7}(p) of the product: the row law and
    # the m = 1 cells fail, each by a non-integral amount, reported as ints
    # in 24ths
    product = hcn7.verify.hmm_product

    def nudged(m, M, order):
        return [t + (m == 1) for t in product(m, M, order)]

    monkeypatch.setattr(hcn7.verify, "hmm_product", nudged)
    reports = {r.id: r for r in verify_main_table(60)}
    assert all(rep.unit == 24 for rep in reports.values())
    direct = {m: 2 * nudged(m, 7, 3)[3] for m in range(4)}
    total = direct[0] + 2 * (direct[1] + direct[2] + direct[3])
    assert Fraction(total, 24) == 6 + Fraction(1, 6)
    assert reports["main.rowsum"].first_mismatch == (3, total, 24 * 6)
    for r, p in ((1, 29), (2, 23), (3, 3), (4, 11), (5, 5), (6, 13)):
        n, lhs, rhs = reports[f"main.r{r}.m1"].first_mismatch
        assert (n, lhs) == (p, 2 * nudged(1, 7, p)[p]), r
        assert Fraction(rhs, 24) == hmm_sum(1, 7, p) and lhs - rhs == 2, r
        assert all(type(v) is int for v in (lhs, rhs))
        assert reports[f"main.r{r}.m0"].ok


def test_main_table_h_side_equals_the_direct_sums():
    # the table reads the product route; the direct sums check it here
    for row in main_table_rows(10_000):
        for m, direct, _ in row.cells:
            assert direct == 2 * hmm_twelfths(m, 7, row.p), (row.p, m)


def test_main_table_builds_four_products_and_no_direct_sum(monkeypatch):
    calls = []
    product = hcn7.verify.hmm_product

    def counted(*args):
        calls.append(args)
        return product(*args)

    def unreachable(*args):
        raise AssertionError("direct sum called")

    monkeypatch.setattr(hcn7.verify, "hmm_product", counted)
    monkeypatch.setattr(hcn7.hurwitz, "hmm_twelfths", unreachable)
    assert all(row.ok for row in main_table_rows(3000))
    assert calls == [(m, 7, 3000) for m in range(4)]


def test_rowsum_identity():
    from hcn7.primes import primes_up_to

    for p in primes_up_to(600):
        if p in (2, 7):
            continue
        total = hmm_sum(0, 7, p) + 2 * sum(hmm_sum(m, 7, p) for m in (1, 2, 3))
        assert total == 2 * p, p


def test_phi_at_a_prime_is_one_exactly_on_the_classes_plus_minus_1():
    # the closed form the table weights are read off with: the one factor
    # pair of p is (1, p)
    primes = [p for p in primes_up_to(3000) if p not in (2, 7)]
    for c in range(7):
        phi = d_pa_series(1, 7, c, 3000)
        assert all(phi[p] == (c in (1, 6)) for p in primes), c


def test_g_vanishes_on_the_inert_classes():
    # so the inert rows of Theorem 3.5 carry cG = 0, and a cell's c_a is 0
    # where a_p is
    g = g_series(2000)
    for a in (3, 5, 6):
        assert not any(op_sieve(g, 7, a).coeffs), a


def test_cell_weights_equal_the_hand_written_table():
    assert _CELL_WEIGHTS == TABLE_WEIGHTS
    assert all(type(c) is int for row in _CELL_WEIGHTS.values() for cell in row for c in cell)
    for extras, c_d, c_g in _THM35_ROWS.values():
        assert all(type(c) is int for c in (c_d, c_g, *(c for pair in extras for c in pair)))


def test_table_weights_obey_the_row_law():
    # H_0 + 2H_1 + 2H_2 + 2H_3 = 2p whatever p and a_p: (48, 0, 0) / 24
    assert sorted(_CELL_WEIGHTS) == [1, 2, 3, 4, 5, 6]
    for r, row in _CELL_WEIGHTS.items():
        assert len(row) == 4
        law = [row[0][i] + 2 * (row[1][i] + row[2][i] + row[3][i]) for i in range(3)]
        assert law == [48, 0, 0], r


def test_table_weights_hold_with_the_curve_ap(monkeypatch):
    # a_p by point counts on 49a1, so no cell reads x^2 + 7y^2
    def unreachable(p):
        raise AssertionError("represent_7 called")

    monkeypatch.setattr(hcn7.newform49, "represent_7", unreachable)
    primes = [p for p in primes_up_to(3000) if p not in (2, 7)]
    for p, ap in zip(primes, ec_aps(primes)):
        for m, (c_p, c_1, c_a) in enumerate(_CELL_WEIGHTS[p % 7]):
            assert Fraction(c_p * p + c_1 + c_a * ap, 24) == hmm_sum(m, 7, p), (p, m)


def test_run_suite_names():
    reports = run_suite("lemma42", bound=100)
    assert len(reports) == 1 and reports[0].ok
    reports = run_suite("hk", bound=100)
    assert reports[0].checked_upto == 100
    with pytest.raises(ValueError):
        run_suite("nope")


def test_hk_and_main_sieve_the_table_to_their_size(monkeypatch):
    # hk needs H(N) for N <= 4 * 5000, main for N <= 4 * 10000, and the
    # table grows to exactly the index each asks for
    monkeypatch.setattr(hcn7.hurwitz, "_cache", (-1,))
    run_suite("hk")
    run_suite("main")
    assert len(hcn7.hurwitz._cache) == 40_001


def test_table_rows_sieve_the_table_once(monkeypatch):
    # four products to 4 * 3000 ask for the table once, to exactly 12,000
    monkeypatch.setattr(hcn7.hurwitz, "_cache", (-1,))
    rows = list(main_table_rows(3000))
    assert rows[-1].p == 2999
    assert len(hcn7.hurwitz._cache) == 12_001
