"""Sturm bounds and the coefficient-exact identity battery.

Every identity is a plain function: it builds both sides as exact
q-series up to a bound and hands them to compare, the one comparison
loop, which reports the first index where they differ.  The bound for
weight-2 forms on the relevant groups comes from the Sturm bound
B = floor(k m / 12) with index

    m = [SL2(Z) : Gamma0(N1) n Gamma1(N2)] = N1 prod_{p|N1} (1 + 1/p) phi(N2)

so equality of the leading B+1 coefficients proves equality of forms;
THM35_BOUND and THM35_BOUND_M0 are derived from sturm_bound.  Failures
are reported, never raised: a VerificationReport records the first
differing index with both values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Iterator

from .arith import d_pa_series, d_series, hk_rhs_series, lambda_series, prop31_rhs, psi_7, theta_chi1, theta_mM
from .hurwitz import hmm_series, hmm_sum, twelfths_upto
from .newform49 import g_series, represent_7
from .primes import euler_phi, prime_factors, primes_up_to
from .qseries import (
    ExactRational,
    QSeries,
    chi_minus7,
    op_dilate,
    op_sieve,
    op_u,
    series_add,
    series_mul,
    series_scale,
    series_sub,
    series_truncate,
)


def sturm_bound(k: int, n1: int, n2: int) -> int:
    """floor(k m / 12) for Gamma0(n1) n Gamma1(n2), with n2 | n1."""
    if k < 1:
        raise ValueError("weight must be positive")
    if n1 < 1 or n2 < 1 or n1 % n2:
        raise ValueError("need n2 dividing n1")
    index = n1 * euler_phi(n2)
    for p in prime_factors(n1):
        index = index // p * (p + 1)  # exact: p divides n1, so p divides index
    return k * index // 12


@dataclass(frozen=True)
class VerificationReport:
    id: str
    checked_upto: int
    first_mismatch: tuple[int, ExactRational, ExactRational] | None
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.first_mismatch is None


def compare(
    id: str, bound: int, start: float, lhs: QSeries, rhs: QSeries, first: int = 0
) -> VerificationReport:
    """Compare coefficients first..bound inclusive of lhs and rhs and report
    the first (n, lhs, rhs) that differ, timed from start.  A side shorter
    than bound is an error, never a shorter comparison."""
    if lhs.order < bound or rhs.order < bound:
        raise ValueError(f"{id}: a side has order {min(lhs.order, rhs.order)} < bound {bound}")
    pairs = zip(range(first, bound + 1), lhs.coeffs[first:], rhs.coeffs[first:])
    mismatch = next(((n, a, b) for n, a, b in pairs if a != b), None)
    return VerificationReport(id, bound, mismatch, time.perf_counter() - start)


# --------------------------------------------------------------------------
# The 19 weight-2 identities: one for residue 0 and six per theta shift
# m = 1, 2, 3.  Each non-zero-residue row reads
#
#   (H-series * theta_{m,7}) | U_4 | S_{7,a}  +  extra divisor terms
#       = cD * D | S_{7,a}  +  cG * G | S_{7,a}
#
# with the extras a list of (coefficient, class) pairs for D_1^(7,class).
# In the m = 3 block the G term of the class-4 row is sieved to class 4:
# a series supported on class 4 cannot equal one supported on class 1,
# and the check passes only with matching classes.
# --------------------------------------------------------------------------

_THM35_ROWS: dict[tuple[int, int], tuple[list[tuple[Fraction, int]], Fraction, Fraction]] = {
    (1, 1): ([(Fraction(1), 3), (Fraction(1), 5)], Fraction(1, 3), Fraction(0)),
    (1, 2): ([(Fraction(1, 2), 3), (Fraction(1, 2), 4)], Fraction(7, 24), Fraction(1, 8)),
    (1, 3): ([], Fraction(1, 4), Fraction(0)),
    (1, 4): ([], Fraction(1, 4), Fraction(-1, 4)),
    (1, 5): ([(Fraction(1), 6), (Fraction(1), 2)], Fraction(1, 3), Fraction(0)),
    (1, 6): ([], Fraction(1, 4), Fraction(0)),
    (2, 1): ([(Fraction(1, 2), 1), (Fraction(1, 2), 6)], Fraction(7, 24), Fraction(1, 8)),
    (2, 2): ([], Fraction(1, 4), Fraction(-1, 4)),
    (2, 3): ([], Fraction(1, 4), Fraction(0)),
    (2, 4): ([(Fraction(1), 3), (Fraction(1), 6)], Fraction(1, 3), Fraction(0)),
    (2, 5): ([], Fraction(1, 4), Fraction(0)),
    (2, 6): ([(Fraction(1), 4), (Fraction(1), 5)], Fraction(1, 3), Fraction(0)),
    (3, 1): ([], Fraction(1, 4), Fraction(-1, 4)),
    (3, 2): ([(Fraction(1), 1), (Fraction(1), 2)], Fraction(1, 3), Fraction(0)),
    (3, 3): ([(Fraction(1), 4), (Fraction(1), 6)], Fraction(1, 3), Fraction(0)),
    (3, 4): ([(Fraction(1, 2), 2), (Fraction(1, 2), 5)], Fraction(7, 24), Fraction(1, 8)),
    (3, 5): ([], Fraction(1, 4), Fraction(0)),
    (3, 6): ([], Fraction(1, 4), Fraction(0)),
}

# One past the Sturm bound for Gamma0(196) n Gamma1(7), and for Gamma0(196).
THM35_BOUND = sturm_bound(2, 196, 7) + 1
THM35_BOUND_M0 = sturm_bound(2, 196, 1) + 1


def _drop_sevens(f: QSeries) -> QSeries:
    """Zero the coefficients at multiples of 7: the twist by chi_minus7^2."""
    return QSeries([c if n % 7 else 0 for n, c in enumerate(f.coeffs)])


def _thm35_sides(m: int, a: int, b: int, hmm, d, g) -> tuple[QSeries, QSeries]:
    extras, c_d, c_g = _THM35_ROWS[(m, a)]
    lhs = op_sieve(hmm(m, 7, b), 7, a)
    for coeff, cls in extras:
        lhs = series_add(lhs, series_scale(op_sieve(d_pa_series(1, 7, cls, b), 7, a), coeff))
    rhs = series_scale(op_sieve(d(b), 7, a), c_d)
    if c_g:
        rhs = series_add(rhs, series_scale(op_sieve(g(b), 7, a), c_g))
    return lhs, rhs


def _thm35_m0_sides(b: int, hmm, d, g) -> tuple[QSeries, QSeries]:
    lhs = _drop_sevens(hmm(0, 7, b))
    for cls, sieve in ((1, 6), (2, 3), (3, 5)):
        lhs = series_add(lhs, series_scale(op_sieve(d_pa_series(1, 7, cls, b), 7, sieve), 2))
    dd = d(b)
    rhs = series_scale(_drop_sevens(dd), Fraction(1, 4))
    # sigma(n) chi(n)(chi(n) - 1) / 24: nonzero only on residues where
    # the mod-7 character is -1, where it contributes sigma(n) / 12
    mid = QSeries([dd[n] * chi_minus7(n) * (chi_minus7(n) - 1) for n in range(b + 1)])
    rhs = series_add(rhs, series_scale(mid, Fraction(1, 24)))
    return lhs, series_add(rhs, series_scale(_drop_sevens(g(b)), Fraction(1, 4)))


def verify_thm35(bound: int = THM35_BOUND, bound_m0: int = THM35_BOUND_M0) -> list[VerificationReport]:
    """All 19 identities, m = 0 to bound_m0 and the 18 others to bound.

    They share one build of each H_{m,7}, D and G series per bound: the
    six rows of an m read the same hmm_series(m, 7, b).
    """
    series = cache(hmm_series), cache(d_series), cache(g_series)
    start = time.perf_counter()
    reports = [compare("thm35.m0", bound_m0, start, *_thm35_m0_sides(bound_m0, *series))]
    for m in (1, 2, 3):
        for a in range(1, 7):
            start = time.perf_counter()
            sides = _thm35_sides(m, a, bound, *series)
            reports.append(compare(f"thm35.m{m}.s{a}", bound, start, *sides))
    return reports


def verify_lemma42(order: int) -> VerificationReport:
    """Lattice sum over x^2 + 7y^2 against G - G(q^2) + 4 G(q^4).

    The dilation form is the one that holds; the coefficient-extraction
    reading, with U_2 and U_4 in place of the dilations, fails at n = 1.
    order must cover the Sturm bound for Gamma0(196), as thm35.m0 does.
    """
    sturm = THM35_BOUND_M0 - 1
    if order < sturm:
        raise ValueError(f"order must cover the Sturm bound {sturm}")
    start = time.perf_counter()
    g = g_series(order)
    rhs = series_sub(g, series_truncate(op_dilate(g, 2), order))
    rhs = series_add(rhs, series_scale(series_truncate(op_dilate(g, 4), order), 4))
    return compare("lemma42", order, start, psi_7(order), rhs)


def verify_prop41(order: int) -> VerificationReport:
    """Product form of the lattice sum: Psi_7 = theta(chi,1) * theta0(q^7)."""
    start = time.perf_counter()
    theta0 = theta_mM(0, 1, -(-order // 7))
    rhs = series_mul(theta_chi1(order), series_truncate(op_dilate(theta0, 7), order))
    return compare("prop41", order, start, psi_7(order), rhs)


def verify_hurwitz_kronecker(n_max: int) -> VerificationReport:
    """Both sides of the classical class number relation for 1 <= n <= n_max:
    hmm_series(0, 1, n_max) from the H table, hk_rhs_series reading no H."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    start = time.perf_counter()
    return compare(
        "hurwitz-kronecker", n_max, start, hmm_series(0, 1, n_max), hk_rhs_series(n_max), first=1
    )


def verify_prop31(k: int, m: int, order: int) -> VerificationReport:
    """Correction series | U_4 against its divisor-sum form, exponent 2k+1."""
    start = time.perf_counter()
    lhs = op_u(lambda_series(2 * k + 1, m, 7, 4 * order), 4)
    return compare(f"prop31.k{k}.m{m}", order, start, lhs, prop31_rhs(k, m, order))


# --------------------------------------------------------------------------
# The closing table: H_{m,7}(p) for odd primes p != 7, by residue row
# r = p mod 7 and column m = 0..3.  Each cell is (c_p p + c_1 + c_a a_p) / 24
# with the integer weights (c_p, c_1, c_a) below and a_p the prime
# coefficient of 49.2.a.a: a_p = 2 chi(x) x with p = x^2 + 7y^2 in the
# split rows r = 1, 2, 4, and 0 in the inert rows.  In every row
# c_0 + 2(c_1 + c_2 + c_3) = (48, 0, 0), the row law
# H_0 + 2H_1 + 2H_2 + 2H_3 = 2p for every p and a_p.
# --------------------------------------------------------------------------

_TABLE_WEIGHTS: dict[int, tuple[tuple[int, int, int], ...]] = {
    1: ((6, 6, 6), (8, 8, 0), (7, -17, 3), (6, 6, -6)),
    2: ((6, 6, 6), (7, 7, 3), (6, 6, -6), (8, -16, 0)),
    3: ((8, 8, 0), (6, 6, 0), (6, 6, 0), (8, -16, 0)),
    4: ((6, 6, 6), (6, 6, -6), (8, -16, 0), (7, 7, 3)),
    5: ((8, 8, 0), (8, -16, 0), (6, 6, 0), (6, 6, 0)),
    6: ((8, -40, 0), (6, 6, 0), (8, 8, 0), (6, 6, 0)),
}


@dataclass(frozen=True)
class TableRow:
    """One prime's worth of closing-table data, as shown by the CLI."""

    p: int
    residue: int
    x: int | None
    y: int | None
    cells: tuple[tuple[int, ExactRational, ExactRational, bool], ...]

    @property
    def ok(self) -> bool:
        return all(match for _, _, _, match in self.cells)


def _main_table_row(p: int) -> TableRow:
    """Direct sums against the table formulas for one odd prime p != 7,
    with one representation p = x^2 + 7y^2 for all four cells.

    Only the split rows r = 1, 2, 4 have (x, y), found by represent_7, and
    a_p = 2 chi(x) x; a_p is 0 in the inert rows.
    """
    r = p % 7
    x = y = None
    ap = 0
    if r in (1, 2, 4):
        x, y = represent_7(p)
        ap = 2 * chi_minus7(x) * x
    cells = []
    for m, (c_p, c_1, c_a) in enumerate(_TABLE_WEIGHTS[r]):
        direct = hmm_sum(m, 7, p)
        formula = Fraction(c_p * p + c_1 + c_a * ap, 24)
        cells.append((m, direct, formula, direct == formula))
    return TableRow(p, r, x, y, tuple(cells))


def main_table_rows(p_max: int) -> Iterator[TableRow]:
    """The closing-table row of every odd prime p <= p_max, p != 7, in order.

    The rows are built only here, from the sieve, so no row is ever built
    for a composite.
    """
    if p_max < 3:
        raise ValueError("p_max must be at least 3")
    twelfths_upto(4 * p_max)  # one sieve for every hmm_sum below
    return (_main_table_row(p) for p in primes_up_to(p_max) if p not in (2, 7))


def verify_main_table(p_max: int) -> list[VerificationReport]:
    """Check all 24 table cells over every odd prime p <= p_max, p != 7.

    Returns one report per (residue row, column) cell keyed by the first
    mismatching prime, plus a report for the row-sum identity
    H_0 + 2H_1 + 2H_2 + 2H_3 = 2p.  Elapsed time of the shared scan is
    recorded on every report.  p_max >= 29 gives every row a prime: row 1
    starts at 29, rows 2 to 6 at 23, 3, 11, 5 and 13.
    """
    if p_max < 29:
        raise ValueError("p_max must be at least 29, the first prime p = 1 (mod 7)")
    start = time.perf_counter()
    first_bad: dict[tuple[int, int], tuple[int, ExactRational, ExactRational]] = {}
    rowsum_bad = None
    for row in main_table_rows(p_max):
        p = row.p
        total = 0
        for m, direct, formula, match in row.cells:
            total += direct if m == 0 else 2 * direct
            key = (row.residue, m)
            if not match and key not in first_bad:
                first_bad[key] = (p, direct, formula)
        if total != 2 * p and rowsum_bad is None:
            rowsum_bad = (p, total, Fraction(2 * p))
    elapsed = time.perf_counter() - start
    reports = [
        VerificationReport(f"main.r{r}.m{m}", p_max, first_bad.get((r, m)), elapsed)
        for r in range(1, 7)
        for m in range(4)
    ]
    reports.append(VerificationReport("main.rowsum", p_max, rowsum_bad, elapsed))
    return reports


# --------------------------------------------------------------------------
# Suite runner used by the CLI.
# --------------------------------------------------------------------------

SUITE_NAMES = ("thm35", "lemma42", "prop31", "prop41", "hk", "main")


def _cap(default: int, bound: int | None) -> int:
    return default if bound is None else min(default, bound)


def run_suite(name: str, bound: int | None = None) -> list[VerificationReport]:
    """Run one named suite; bound truncates the default comparison range."""
    if name == "thm35":
        return verify_thm35(_cap(THM35_BOUND, bound), _cap(THM35_BOUND_M0, bound))
    if name == "lemma42":
        return [verify_lemma42(_cap(1000, bound))]
    if name == "prop31":
        return [
            verify_prop31(k, m, _cap(300, bound)) for k in (0, 1) for m in range(7)
        ]
    if name == "prop41":
        return [verify_prop41(_cap(1000, bound))]
    if name == "hk":
        return [verify_hurwitz_kronecker(_cap(5000, bound))]
    if name == "main":
        return verify_main_table(_cap(10_000, bound))
    if name == "all":
        out = []
        for suite in SUITE_NAMES:
            out.extend(run_suite(suite, bound))
        return out
    raise ValueError(f"unknown suite {name!r}")
