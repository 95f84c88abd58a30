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
differing index with both values, as ints over the report's unit.
"""

from __future__ import annotations

import time
from itertools import repeat
from math import lcm
from operator import add, mul
from typing import Iterator, NamedTuple

from .arith import d_pa_series, d_series, hk_rhs_series, lambda_series, prop31_rhs, psi_7, theta_chi1, theta_mM
from .hurwitz import hmm_product, hmm_series
from .newform49 import cm_ap_at, g_series, represent_7
from .primes import euler_phi, prime_factors, primes_up_to
from .qseries import (
    QSeries,
    numerators,
    op_dilate,
    op_u,
    series_add,
    series_mul,
    series_scale,
    series_sub,
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


class VerificationReport(NamedTuple):
    id: str
    checked_upto: int
    first_mismatch: tuple[int, int, int] | None
    elapsed: float
    unit: int = 1  # the mismatch's two values are ints in units of 1 / unit

    @property
    def ok(self) -> bool:
        return self.first_mismatch is None


def compare(
    id: str, bound: int, start: float, lhs: QSeries, rhs: QSeries, first: int = 0
) -> VerificationReport:
    """Compare coefficients first..bound inclusive of lhs and rhs as ints
    over their least common den, the report's unit, and report the first
    (n, lhs, rhs) that differ, timed from start.  A side shorter than bound
    is an error, never a shorter comparison."""
    if lhs.order < bound or rhs.order < bound:
        raise ValueError(f"{id}: a side has order {min(lhs.order, rhs.order)} < bound {bound}")
    unit = lcm(lhs.den, rhs.den)
    a, b = (tuple(numerators(side, unit))[first:] for side in (lhs, rhs))
    mismatch = next(((n, x, y) for n, x, y in zip(range(first, bound + 1), a, b) if x != y), None)
    return VerificationReport(id, bound, mismatch, time.perf_counter() - start, unit)


# --------------------------------------------------------------------------
# Theorem 3.5: 24 weight-2 identities, one row (m, a) for each theta shift
# m = 0..3 and class a = 1..6, checked as 19 reports.  Row (m, a) reads
#
#   (H-series * theta_{m,7}) | U_4 | S_{7,a}  +  extra divisor terms
#       = cD * D | S_{7,a}  +  cG * G | S_{7,a}
#
# with the extras a list of (coefficient, class) pairs for D_1^(7,class).
# Every coefficient is a whole number of 24ths, so the rows state them as
# ints in 24ths (cD = 7 is 7/24) and both sides are series over den 24.
# The six m = 0 rows are checked as their sum, a form on Gamma0(196).  G
# vanishes on the inert classes 3, 5, 6, so those rows carry cG = 0.  In
# row (3, 4) G is sieved to class 4, not 1: only matching classes agree.
#
# A row's sides are built on class a alone: each starts from zeros, and
# each term, its coefficient in 24ths times its series, is added to the
# exponents n = a (mod 7) as one C-level map over that slice.  So only a
# seventh of each series is read, and compare still sees a full-order
# series, zero off the class.  The H side is hmm_product's twelfths at
# coefficient 2, and D, G and the D_1^(7,class) are the point-count and
# divisor builders' ints at theirs; every series is built once, for all
# 24 rows.
# --------------------------------------------------------------------------

_THM35_ROWS: dict[tuple[int, int], tuple[list[tuple[int, int]], int, int]] = {
    (0, 1): ([], 6, 6),
    (0, 2): ([], 6, 6),
    (0, 3): ([(48, 2)], 8, 0),
    (0, 4): ([], 6, 6),
    (0, 5): ([(48, 3)], 8, 0),
    (0, 6): ([(48, 1)], 8, 0),
    (1, 1): ([(24, 3), (24, 5)], 8, 0),
    (1, 2): ([(12, 3), (12, 4)], 7, 3),
    (1, 3): ([], 6, 0),
    (1, 4): ([], 6, -6),
    (1, 5): ([(24, 6), (24, 2)], 8, 0),
    (1, 6): ([], 6, 0),
    (2, 1): ([(12, 1), (12, 6)], 7, 3),
    (2, 2): ([], 6, -6),
    (2, 3): ([], 6, 0),
    (2, 4): ([(24, 3), (24, 6)], 8, 0),
    (2, 5): ([], 6, 0),
    (2, 6): ([(24, 4), (24, 5)], 8, 0),
    (3, 1): ([], 6, -6),
    (3, 2): ([(24, 1), (24, 2)], 8, 0),
    (3, 3): ([(24, 4), (24, 6)], 8, 0),
    (3, 4): ([(12, 2), (12, 5)], 7, 3),
    (3, 5): ([], 6, 0),
    (3, 6): ([], 6, 0),
}

# One past the Sturm bound for Gamma0(196) n Gamma1(7), and for Gamma0(196).
THM35_BOUND = sturm_bound(2, 196, 7) + 1
THM35_BOUND_M0 = sturm_bound(2, 196, 1) + 1


def _on_class(a: int, terms) -> QSeries:
    """The sum of c * f over the (c, f) terms, each f a coefficient
    sequence of one length, on the exponents n = a (mod 7) and zero
    elsewhere, over den 24: one slice-add per term."""
    out = [0] * len(terms[0][1])
    for c, f in terms:
        out[a::7] = map(add, out[a::7], map(mul, f[a::7], repeat(c)))
    return QSeries(out, 24)


def _thm35_sides(m: int, a: int, h, phi, d: QSeries, g: QSeries) -> tuple[QSeries, QSeries]:
    """Row (m, a)'s sides over den 24 on class a, zero elsewhere, from
    h[m] = hmm_product(m, 7, order), which is 12 H_{m,7}, and phi[cls], D and G."""
    extras, c_d, c_g = _THM35_ROWS[(m, a)]
    lhs = [(2, h[m])] + [(coeff, phi[cls].coeffs) for coeff, cls in extras]
    return _on_class(a, lhs), _on_class(a, [(c_d, d.coeffs), (c_g, g.coeffs)])


def verify_thm35(bound: int = THM35_BOUND, bound_m0: int = THM35_BOUND_M0) -> list[VerificationReport]:
    """All 24 rows as 19 reports in 24ths: the sum of the six m = 0 rows to
    bound_m0, and the 18 others to bound.  Each series a row reads is built
    once, to the larger bound."""
    start = time.perf_counter()
    b = max(bound, bound_m0)
    h = [hmm_product(m, 7, b) for m in range(4)]
    phi = {cls: d_pa_series(1, 7, cls, b) for cls in range(1, 7)}
    series = h, phi, d_series(b), g_series(b)
    rows = [_thm35_sides(0, a, *series) for a in range(1, 7)]
    # row (0, a) lives on class a, so the six rows' sum reads n off row n mod 7
    sides = (QSeries((s[n % 7 - 1].coeffs[n] if n % 7 else 0 for n in range(bound_m0 + 1)), 24) for s in zip(*rows))
    reports = [compare("thm35.m0", bound_m0, start, *sides)]
    for m in (1, 2, 3):
        for a in range(1, 7):
            start = time.perf_counter()
            sides = _thm35_sides(m, a, *series)
            reports.append(compare(f"thm35.m{m}.s{a}", bound, start, *sides))
    return reports


def verify_lemma42(order: int) -> VerificationReport:
    """Lattice sum over x^2 + 7y^2 against G - G(q^2) + 4 G(q^4).

    The dilation form is the one that holds; the coefficient-extraction
    reading, with U_2 and U_4 in place of the dilations, fails at n = 1.
    order must cover the Sturm bound for Gamma0(196), as thm35.m0 does.
    """
    if order < LEAST_BOUND["lemma42"]:
        raise ValueError(f"order must cover the Sturm bound {LEAST_BOUND['lemma42']}")
    start = time.perf_counter()
    g = g_series(order)
    rhs = series_sub(g, op_dilate(g, 2, order))
    rhs = series_add(rhs, series_scale(op_dilate(g, 4, order), 4))
    return compare("lemma42", order, start, psi_7(order), rhs)


def verify_prop41(order: int) -> VerificationReport:
    """Product form of the lattice sum: Psi_7 = theta(chi,1) * theta0(q^7)."""
    start = time.perf_counter()
    theta0 = theta_mM(0, 1, order // 7)
    rhs = series_mul(theta_chi1(order), op_dilate(theta0, 7, order))
    return compare("prop41", order, start, psi_7(order), rhs)


def verify_hurwitz_kronecker(n_max: int) -> VerificationReport:
    """Both sides of the class number relation for 1 <= n <= n_max, in twelfths:
    hmm_series(0, 1, n_max) from the H table, hk_rhs_series reading no H."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    start = time.perf_counter()
    return compare(
        "hurwitz-kronecker", n_max, start, hmm_series(0, 1, n_max), hk_rhs_series(n_max), first=1
    )


def verify_prop31(k: int, order: int) -> list[VerificationReport]:
    """Correction series | U_4 against its divisor-sum form, exponent 2k+1,
    in halves, for m = 0..6: seven reports.  The seven divisor-sum sides
    are built together, and the first report's time includes theirs."""
    start = time.perf_counter()
    reports = []
    for m, rhs in enumerate(prop31_rhs(k, order)):
        lhs = op_u(lambda_series(2 * k + 1, m, 7, 4 * order), 4)
        reports.append(compare(f"prop31.k{k}.m{m}", order, start, lhs, rhs))
        start = time.perf_counter()
    return reports


# --------------------------------------------------------------------------
# The closing table: H_{m,7}(p) for odd primes p != 7, by residue row
# r = p mod 7 and column m = 0..3, is Theorem 3.5 read at a prime.  There
# D(p) = p + 1, G(p) = a_p, and phi_1^(7,cls)(p) is 1 when cls = +-1 (mod 7)
# and 0 otherwise, since (1, p) is the one factor pair.  So row (m, r)
# gives 24 H_{m,7}(p) = c_p p + c_1 + c_a a_p with the integer weights
# _CELL_WEIGHTS, computed once at import.  In every row
# c_0 + 2(c_1 + c_2 + c_3) = (48, 0, 0): the row law H_0 + 2H_1 + 2H_2 + 2H_3 = 2p.
#
# Both sides of a cell are ints in 24ths.  The H side is the product
# route read at primes, 2 * hmm_product(m, 7, p_max)[p], one product per
# column; the row law reads d_0 + 2(d_1 + d_2 + d_3) = 48p.
# A report carries these ints with its unit, 24, which the CLI divides by.
# --------------------------------------------------------------------------


def _cell_weights(m: int, r: int) -> tuple[int, int, int]:
    """24 times the weights of p, 1 and a_p in row (m, r) at a prime p: the
    row's cD, cD less its extras on the classes +-1, and cG."""
    extras, c_d, c_g = _THM35_ROWS[(m, r)]
    return c_d, c_d - sum(c for c, cls in extras if cls in (1, 6)), c_g


_CELL_WEIGHTS = {r: tuple(_cell_weights(m, r) for m in range(4)) for r in range(1, 7)}


class TableRow(NamedTuple):
    """One prime's worth of closing-table data, as shown by the CLI.

    Each cell is (m, direct, formula): 24 H_{m,7}(p) by the product route
    and by the table formula, both ints.  The H side keeps the name
    "direct" it had when direct sums computed it, so the csv header, the
    json key and `table --help` stay as they were.
    """

    p: int
    residue: int
    x: int | None
    y: int | None
    cells: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return all(direct == formula for _, direct, formula in self.cells)


def _main_table_row(p: int, xy: tuple[int, int] | None, columns: list[dict[int, int]]) -> TableRow:
    """The product route against the table formulas for one odd prime
    p != 7, with its representation p = x^2 + 7y^2 for all four cells;
    columns[m][p] is 12 H_{m,7}(p).

    Only the split rows r = 1, 2, 4 have (x, y), and there a_p = cm_ap_at(x);
    a_p is 0 in the inert rows.
    """
    r = p % 7
    x, y = xy or (None, None)
    ap = 0 if x is None else cm_ap_at(x)
    cells = tuple(
        (m, 2 * columns[m][p], c_p * p + c_1 + c_a * ap)
        for m, (c_p, c_1, c_a) in enumerate(_CELL_WEIGHTS[r])
    )
    return TableRow(p, r, x, y, cells)


def main_table_rows(p_max: int) -> Iterator[TableRow]:
    """The closing-table row of every odd prime p <= p_max, p != 7, in order.

    The rows are built only here, from the sieve, so no row is ever built
    for a composite; one sweep, represent_7, finds every row's (x, y).  The
    H side is hmm_product(m, 7, p_max) for m = 0..3, each kept only at the
    primes before the next is built, so one product list is alive at a time.
    """
    if p_max < 3:
        raise ValueError("p_max must be at least 3")
    primes = [p for p in primes_up_to(p_max) if p not in (2, 7)]
    columns = []
    for m in range(4):
        product = hmm_product(m, 7, p_max)
        columns.append({p: product[p] for p in primes})
        del product  # else it stays alive while the next one is built
    found = represent_7(primes)
    return (_main_table_row(p, found.get(p), columns) for p in primes)


def verify_main_table(p_max: int) -> list[VerificationReport]:
    """Check all 24 table cells over every odd prime p <= p_max, p != 7.

    Returns one report per (residue row, column) cell keyed by the first
    mismatching prime, plus a report for the row-sum identity
    H_0 + 2H_1 + 2H_2 + 2H_3 = 2p, all compared in 24ths; a first mismatch
    is reported as those ints, with unit 24.  Elapsed time of the shared
    scan is recorded on every report.  p_max >= 29 gives every row a prime:
    row 1 starts at 29, rows 2 to 6 at 23, 3, 11, 5 and 13.
    """
    if p_max < LEAST_BOUND["main"]:
        raise ValueError("p_max must be at least 29, the first prime p = 1 (mod 7)")
    start = time.perf_counter()
    first_bad: dict[tuple[int, int], tuple[int, int, int]] = {}
    rowsum_bad = None
    for row in main_table_rows(p_max):
        p = row.p
        total = 0
        for m, direct, formula in row.cells:
            total += direct if m == 0 else 2 * direct
            key = (row.residue, m)
            if direct != formula and key not in first_bad:
                first_bad[key] = (p, direct, formula)
        if total != 48 * p and rowsum_bad is None:
            rowsum_bad = (p, total, 48 * p)
    elapsed = time.perf_counter() - start
    reports = [
        VerificationReport(f"main.r{r}.m{m}", p_max, first_bad.get((r, m)), elapsed, 24)
        for r in range(1, 7)
        for m in range(4)
    ]
    reports.append(VerificationReport("main.rowsum", p_max, rowsum_bad, elapsed, 24))
    return reports


# --------------------------------------------------------------------------
# Suite runner used by the CLI.
# --------------------------------------------------------------------------

SUITE_NAMES = ("thm35", "lemma42", "prop31", "prop41", "hk", "main")
# The least bound of each suite that has one: lemma42 covers its Sturm
# bound, hk starts at n = 1, and main gives every residue row a prime.
LEAST_BOUND = {"lemma42": THM35_BOUND_M0 - 1, "hk": 1, "main": 29}


def _cap(default: int, bound: int | None) -> int:
    return default if bound is None else min(default, bound)


def run_suite(name: str, bound: int | None = None) -> list[VerificationReport]:
    """Run one named suite; bound truncates the default comparison range."""
    if name == "thm35":
        return verify_thm35(_cap(THM35_BOUND, bound), _cap(THM35_BOUND_M0, bound))
    if name == "lemma42":
        return [verify_lemma42(_cap(1000, bound))]
    if name == "prop31":
        return [report for k in (0, 1) for report in verify_prop31(k, _cap(300, bound))]
    if name == "prop41":
        return [verify_prop41(_cap(1000, bound))]
    if name == "hk":
        return [verify_hurwitz_kronecker(_cap(5000, bound))]
    if name == "main":
        return verify_main_table(_cap(10_000, bound))
    if name == "all":
        return [report for suite in SUITE_NAMES for report in run_suite(suite, bound)]
    raise ValueError(f"unknown suite {name!r}")
