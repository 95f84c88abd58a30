"""Per-coefficient oracles that the tests compare the package's sieves
against, the element-wise loops that the slice-add builders of
hcn7.arith replaced, the whole product that the H_{m,M} product route
skips most of, the literal-U negative control of Lemma 4.2, the
hand-written statements of Theorem 3.5 at m = 0 and of the closing table
that hcn7.verify derives from the theorem's rows, and the sieve operator
S_{M,r} with the full-length-then-sieved construction of Theorem 3.5's
rows and of Proposition 3.1's divisor-sum sides that the package's
class-by-class builders replaced.  sieved is the one-shot H sieve that
the tests compare the growing cache and hurwitz_single with.

Each oracle computes one coefficient by its definition, with a plain
divisor loop, or one table entry or one coefficient at a time, and shares
no code with the builder it checks.  The rational oracles state their
coefficients as lists of Fractions, and values reads a QSeries, ints over
its den, in that form, so that the tests compare exact values whatever
the denominator a builder chose.
"""

import time
from fractions import Fraction
from math import isqrt

import hcn7.hurwitz
from hcn7.arith import d_pa_series, d_series, psi_7
from hcn7.hurwitz import hmm_series, twelfths_upto
from hcn7.newform49 import ec_point_count, g_series
from hcn7.primes import primes_up_to
from hcn7.qseries import QSeries, chi_minus7, op_dilate, op_u, series_add, series_mul, series_scale, series_sub
from hcn7.verify import _THM35_ROWS, VerificationReport, compare


def values(f: QSeries) -> list[Fraction]:
    """Each coefficient of f as the Fraction it stands for, coeffs[n] / den:
    the one form in which the tests compare a series with Fractions."""
    return [Fraction(c, f.den) for c in f.coeffs]


def sigma(n: int, l: int = 1) -> int:
    """Sum of d^l over the positive divisors d of n: the reference for
    arith.d_series."""
    if n < 1:
        raise ValueError("n must be positive")
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d**l
            e = n // d
            if e != d:
                total += e**l
    return total


def composed_hmm_series(m: int, M: int, order: int) -> list[Fraction]:
    """Reference for hurwitz.hmm_series: the whole product of the H table's
    twelfths with a dense theta_{m,M} to order 4*order, counted here one
    integer a at a time, then op_u keeps every 4th coefficient, then each
    is divided by 12 as a Fraction."""
    internal = 4 * order
    r = isqrt(internal)
    theta = [0] * (internal + 1)
    for a in range(-r, r + 1):
        if (a - m) % M == 0:
            theta[a * a] += 1
    twelfths = QSeries(twelfths_upto(internal)[: internal + 1])
    product = op_u(series_mul(twelfths, QSeries(theta)), 4)
    return [Fraction(t, 12) for t in product.coeffs]


def sieved(n_max: int) -> tuple[int, ...]:
    """12*H(N) for N <= n_max from one sieve over [1, n_max]: twelfths_upto
    on a fresh cache, with the cache put back afterwards."""
    saved = hcn7.hurwitz._cache
    hcn7.hurwitz._cache = (-1,)
    try:
        return twelfths_upto(n_max)
    finally:
        hcn7.hurwitz._cache = saved


def sieve_oracle(twelfths: list[int], lo: int) -> None:
    """Add 12 times the weight of every reduced form (a, b, c) whose index
    4ac - b^2 lies in [lo, len(twelfths)), lo >= 1, one index at a time:
    the reference for hurwitz._sieve, which packs the periodic part.

    For fixed (a, b) the indices with c > a step by 4a; each progression
    starts at its first term >= lo.
    """
    n_max = len(twelfths) - 1

    def tail(first: int, step: int) -> range:
        return range(first if first >= lo else lo + (first - lo) % step, n_max + 1, step)

    for a in range(1, isqrt(n_max // 3) + 1):
        step = 4 * a
        # b = 0: a(x^2 + y^2) at c = a, weight 12 for c > a
        if lo <= step * a <= n_max:
            twelfths[step * a] += 6
        for n in tail(step * (a + 1), step):
            twelfths[n] += 12
        # 0 < b < a: weight 12 at c = a, 24 for c > a (the forms +-b)
        for b in range(1, a):
            if lo <= step * a - b * b <= n_max:
                twelfths[step * a - b * b] += 12
            for n in tail(step * (a + 1) - b * b, step):
                twelfths[n] += 24
        # b = a: a(x^2 + xy + y^2) at c = a, weight 12 for c > a
        if lo <= 3 * a * a:
            twelfths[3 * a * a] += 4
        for n in tail(step * (a + 1) - a * a, step):
            twelfths[n] += 12


def hecke_relations(T, top: int):
    """(index, left side, right side) of each weight-3/2 Hecke relation among
    the entries T[N] = 12H(N), N <= top, of a table: the check of the sieve
    that reads neither its structure nor hurwitz_single.

    The class-number formula for orders gives, for an odd prime p,
    T(p^2 N) = (p + 1 - (-N/p)) T(N) - p T(N/p^2), with T(N/p^2) = 0
    unless p^2 | N; and at p = 2, T(4n) = 4T(n) for n = 3 (mod 8),
    T(4n) = 2T(n) for n = 7 (mod 8) and T(16k) = 3T(4k) - 2T(k).
    The index is the entry each relation ties to smaller ones.
    """
    for n in range(3, top // 4 + 1, 4):
        yield 4 * n, T[4 * n], (4 if n % 8 == 3 else 2) * T[n]
    for k in range(1, top // 16 + 1):
        yield 16 * k, T[16 * k], 3 * T[4 * k] - 2 * T[k]
    for p in primes_up_to(isqrt(top))[1:]:
        square = p * p
        for N in range(3, top // square + 1):
            if N % 4 in (1, 2):
                continue
            symbol = pow(-N, (p - 1) // 2, p)  # (-N/p) mod p, by Euler's criterion
            if symbol == p - 1:
                symbol = -1
            below = T[N // square] if N % square == 0 else 0
            yield square * N, T[square * N], (p + 1 - symbol) * T[N] - p * below


def hk_rhs_oracle(n: int) -> int:
    """2 sigma(n) - sum_{d|n} min(d, n/d) by a divisor loop for one n >= 1:
    the reference for arith.hk_rhs_series."""
    rhs = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            e = n // d
            # the pair {d, e} contributes 2d + 2e - min - min = 2e (d < e),
            # or 2d - d = d when d = e
            rhs += 2 * e if e != d else d
    return rhs


def phi_pa(n: int, l: int, p: int, a: int) -> int:
    """Two-sided divisor sum with classes -a (weak boundary) and a (strict):
    the reference for arith.d_pa_series.

    Only divisors d with d*d <= n can appear; the cofactor n/d never does.
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d:
            continue
        if (d + a) % p == 0:
            total += d**l
        if d * d < n and (d - a) % p == 0:
            total += d**l
    return total


def d_series_loop(order: int) -> QSeries:
    """sigma(n) for n <= order, adding each divisor d to each multiple in
    turn: the reference for arith.d_series."""
    coeffs = [0] * (order + 1)
    for d in range(1, order + 1):
        for n in range(d, order + 1, d):
            coeffs[n] += d
    return QSeries(coeffs)


def d_pa_series_loop(l: int, p: int, a: int, order: int) -> QSeries:
    """phi_l^(p,a)(n) for n <= order, one factor pair d*e = n, d <= e, at a
    time: the reference for arith.d_pa_series.  The d = e term enters only
    through the -a class."""
    coeffs = [0] * (order + 1)
    for d in range(1, isqrt(order) + 1):
        dl = d**l
        minus = (d + a) % p == 0
        plus = (d - a) % p == 0
        if not (minus or plus):
            continue
        for e in range(d, order // d + 1):
            n = d * e
            if minus:
                coeffs[n] += dl
            if plus and d < e:
                coeffs[n] += dl
    return QSeries(coeffs)


def lambda_series_loop(l: int, m: int, M: int, order: int) -> list[Fraction]:
    """The correction series for n <= order, one factor pair n = u v, u <= v
    of equal parity, at a time, in doubled weights halved as Fractions: the
    reference for arith.lambda_series (see lambda_coeff for the weights)."""
    doubled = [0] * (order + 1)
    for u in range(1, isqrt(order) + 1):
        ul = u**l
        for v in range(u, order // u + 1, 2):
            t = (u + v) // 2
            value = ul if u == v else 2 * ul
            if (t - m) % M == 0:
                doubled[u * v] += value
            if (t + m) % M == 0:
                doubled[u * v] += value
    return [Fraction(d, 2) for d in doubled]


def lopsided_series_loop(l: int, p: int, m: int, order: int) -> QSeries:
    """Sum of d^l over pairs d e = n <= order with p | d, d < e and
    e = +-m (mod p), one pair at a time: the reference for
    arith._lopsided_series."""
    coeffs = [0] * (order + 1)
    for d in range(p, isqrt(order) + 1, p):
        dl = d**l
        for e in range(d + 1, order // d + 1):
            if (e - m) % p == 0 or (e + m) % p == 0:
                coeffs[d * e] += dl
    return QSeries(coeffs)


def newform_an_oracle(n: int) -> int:
    """a_n of the level-49 newform for one n >= 1: the reference for
    newform49.newform_an.

    n is factored by trial division; each a(p^k) comes from
    a_p = p + 1 - ec_point_count(p), counted here rather than read from the
    cache that newform_an fills, by the Hecke recursion
    a(p^(k+1)) = a_p a(p^k) - p a(p^(k-1)), a(7^k) = 0 for k >= 1, and the
    prime powers multiply.
    """
    an = 1
    p = 2
    while n > 1:
        if p * p > n:
            p = n  # what is left is prime
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            if p == 7:
                return 0
            ap = p + 1 - ec_point_count(p)
            prev, cur = 1, ap  # a(p^0), a(p^1)
            for _ in range(k - 1):
                prev, cur = cur, ap * cur - p * prev
            an *= cur
        p += 1
    return an


def represent_7_scan(p: int) -> tuple[int, int]:
    """The (x, y) with x, y > 0 and p = x^2 + 7 y^2, by a scan over every
    y: the reference for newform49.represent_7.  Raises ValueError unless
    exactly one pair is found."""
    hits = []
    for y in range(1, isqrt(p // 7) + 1):
        rest = p - 7 * y * y
        x = isqrt(rest)
        if x > 0 and x * x == rest:
            hits.append((x, y))
    if len(hits) != 1:
        raise ValueError(f"{p} = x^2 + 7y^2 has {len(hits)} representations: {hits}")
    return hits[0]


def lambda_coeff(l: int, m: int, M: int, n: int) -> Fraction:
    """Coefficient n >= 1 of arith.lambda_series, from the factorizations
    n = u v, u <= v of equal parity, one at a time.

    Each gives t = (u+v)/2, s = (v-u)/2 and contribution (t-s)^l = u^l,
    at weight 1/2 when s = 0.  Both sign branches t = +m and t = -m (mod M)
    are summed, even when the classes coincide.
    """
    if n < 1:
        raise ValueError("n must be positive")
    doubled = 0
    for u in range(1, isqrt(n) + 1):
        if n % u:
            continue
        v = n // u
        if (u + v) % 2:
            continue
        t = (u + v) // 2
        weight2 = 1 if u == v else 2  # s = 0 exactly when u = v
        value = weight2 * u**l
        if (t - m) % M == 0:
            doubled += value
        if (t + m) % M == 0:
            doubled += value
    return Fraction(doubled, 2)


def verify_lemma42_literal_u(order: int = 56) -> VerificationReport:
    """Negative control: with U-extraction instead of dilation the identity
    of verify.verify_lemma42 breaks immediately (already at n = 1, where
    the right side is -4)."""
    start = time.perf_counter()
    g = g_series(4 * order)
    rhs = series_sub(QSeries(g.coeffs[: order + 1]), op_u(g, 2))
    rhs = series_add(rhs, series_scale(op_u(g, 4), 4))
    return compare("lemma42.literal-u", order, start, psi_7(order), rhs)


# The closing table's weights (c_p, c_1, c_a) per residue row r = p mod 7,
# one triple per column m = 0..3, as written by hand: the reference for
# verify._CELL_WEIGHTS, which reads them off Theorem 3.5's rows.
TABLE_WEIGHTS: dict[int, tuple[tuple[int, int, int], ...]] = {
    1: ((6, 6, 6), (8, 8, 0), (7, -17, 3), (6, 6, -6)),
    2: ((6, 6, 6), (7, 7, 3), (6, 6, -6), (8, -16, 0)),
    3: ((8, 8, 0), (6, 6, 0), (6, 6, 0), (8, -16, 0)),
    4: ((6, 6, 6), (6, 6, -6), (8, -16, 0), (7, 7, 3)),
    5: ((8, 8, 0), (8, -16, 0), (6, 6, 0), (6, 6, 0)),
    6: ((8, -40, 0), (6, 6, 0), (8, 8, 0), (6, 6, 0)),
}


def thm35_m0_sides(b: int) -> tuple[list[Fraction], list[Fraction]]:
    """Both sides of Theorem 3.5 at m = 0 to order b as Fractions, in the
    paper's form with the sigma(n) chi(n)(chi(n) - 1) / 24 term: the
    reference for the sum of the six rows (0, a) that verify.verify_thm35
    checks.  Both sides vanish at the multiples of 7 (the twist by
    chi_minus7^2); D_1^(7,cls) for cls = 1, 2, 3 enters, doubled, on the
    classes 6, 3 and 5."""
    h = values(hmm_series(0, 7, b))
    phi = {sieve: d_pa_series(1, 7, cls, b) for cls, sieve in ((1, 6), (2, 3), (3, 5))}
    dd, g = d_series(b), g_series(b)
    lhs = [0 if n % 7 == 0 else h[n] + (2 * phi[n % 7][n] if n % 7 in phi else 0) for n in range(b + 1)]
    rhs = [
        0
        if n % 7 == 0
        else Fraction(dd[n], 4) + Fraction(dd[n] * chi_minus7(n) * (chi_minus7(n) - 1), 24) + Fraction(g[n], 4)
        for n in range(b + 1)
    ]
    return lhs, rhs


def op_sieve(f: QSeries, M: int, r: int) -> QSeries:
    """S_{M,r}: keep the coefficients at exponents n == r (mod M), zero the
    rest, over f.den."""
    if M < 1:
        raise ValueError("M must be positive")
    r %= M
    out = [0] * (f.order + 1)
    out[r::M] = f.coeffs[r::M]
    return QSeries(out, f.den)


def thm35_sides_sieved(m: int, a: int, h, phi, d: QSeries, g: QSeries) -> tuple[QSeries, QSeries]:
    """Row (m, a) of Theorem 3.5 over den 24, each side summed at full
    length and then sieved to class a: the reference for
    verify._thm35_sides([(m, a)], order, ...), which adds each term on class
    a alone, from the same h[m] = hmm_product(m, 7, order), phi[cls], D and G."""
    extras, c_d, c_g = _THM35_ROWS[(m, a)]
    lhs = QSeries([2 * t for t in h[m]], 24)
    for coeff, cls in extras:
        lhs = series_add(lhs, series_scale(phi[cls], coeff, 24))
    rhs = series_add(series_scale(d, c_d, 24), series_scale(g, c_g, 24))
    return op_sieve(lhs, 7, a), op_sieve(rhs, 7, a)


def prop31_rhs_sieved(k: int, m: int, order: int) -> QSeries:
    """The divisor-sum side of Proposition 3.1 at (k, m), each D^(7,c)
    built at full length by the element-wise loop, summed and then sieved:
    the reference for arith.prop31_rhs(k, order)[m] (see its docstring for
    the formula)."""
    p, l = 7, 2 * k + 1
    inv2 = pow(2, -1, p)
    inv4 = inv2 * inv2 % p
    m %= p
    total = QSeries([0] * (order + 1))
    if m == 0:
        for a in range(1, p):
            term = d_pa_series_loop(l, p, a * inv2 % p, order)
            total = series_add(total, op_sieve(term, p, -a * a * inv4 % p))
        tail = op_dilate(d_pa_series_loop(l, 1, 0, order // (p * p)), p * p, order)
        return series_scale(series_add(total, series_scale(tail, p**l)), 2**l)
    # total accumulates twice the bracket, so that it stays in ints
    for a in range(p):
        if a == m or a == (-m) % p:
            continue
        pair = series_add(
            d_pa_series_loop(l, p, (m - a) * inv2 % p, order),
            d_pa_series_loop(l, p, (a - m) * inv2 % p, order),
        )
        total = series_add(total, op_sieve(pair, p, (m * m - a * a) * inv4 % p))
    pair = series_add(d_pa_series_loop(l, p, m, order), d_pa_series_loop(l, p, -m % p, order))
    total = series_add(total, op_sieve(pair, p, 0))
    total = series_add(total, series_scale(lopsided_series_loop(l, p, m, order), 2))
    return series_scale(total, 2 ** (l - 1))
