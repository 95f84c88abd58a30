"""Hurwitz class numbers and their residue-restricted sums.

H(N) is the weighted count of SL2(Z)-classes of integral binary quadratic
forms of discriminant -N: each reduced form (a, b, c) with b^2 - 4ac = -N,
|b| <= a <= c and b >= 0 when |b| = a or a = c contributes 1, except that
forms proportional to x^2 + y^2 count 1/2 and forms proportional to
x^2 + xy + y^2 count 1/3.  By convention H(0) = -1/12 and H(N) = 0 for
N = 1, 2 (mod 4).

Two independent code paths produce H: hurwitz_single enumerates reduced
forms for one N, hurwitz_batch sieves over all (a, b, c) at once.  The
residue-restricted sums

    H_{m,M}(n) = sum over a = m (mod M) of H(4n - a^2)

are likewise computed two ways: hmm_sum by direct summation and
hmm_series as the series product (H-series * theta_{m,M}) | U_4, of
which only the coefficients U_4 keeps are computed.

The weights 1/2 and 1/3 and H(0) = -1/12 make every 12*H(N) an integer,
so both H routes count in twelfths, and the table, the direct sums and
the series product stay ints; the division by 12 happens once, at the
end of each route, and gives an int wherever H_{m,M}(n) is integral.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .arith import theta_mM
from .qseries import MAX_H_INDEX, ExactRational, QSeries, series_mul_u


def hurwitz_single(N: int) -> ExactRational:
    """H(N) by direct enumeration of reduced forms of discriminant -N."""
    if N < 0:
        raise ValueError("N must be non-negative")
    if N == 0:
        return Fraction(-1, 12)
    if N % 4 in (1, 2):
        return Fraction(0)
    twelfths = 0
    # 3a^2 <= N for reduced forms, and b matches the parity of N.
    for a in range(1, isqrt(N // 3) + 1):
        for b in range(N % 2, a + 1, 2):
            num = b * b + N
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            twelfths += _weight12(a, b, c)
    return Fraction(twelfths, 12)


def _weight12(a: int, b: int, c: int) -> int:
    """12 times the weighted multiplicity of the reduced orbit (a, +-b, c)."""
    if a == b == c:
        return 4  # a(x^2 + xy + y^2)
    if b == 0 and a == c:
        return 6  # a(x^2 + y^2)
    if 0 < b < a < c:
        return 24  # (a, b, c) and (a, -b, c) are distinct reduced forms
    return 12


def hurwitz_batch(n_max: int) -> tuple[int, ...]:
    """12*H(N) for N <= n_max, an int at index N, via one sieve over
    reduced forms."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    twelfths = [0] * (n_max + 1)
    twelfths[0] = -1
    _sieve(twelfths, 1)
    return tuple(twelfths)


def _sieve(twelfths: list[int], lo: int) -> None:
    """Add 12 times the weight of every reduced form (a, b, c) whose index
    4ac - b^2 lies in [lo, len(twelfths)), lo >= 1.

    For fixed (a, b) the indices with c > a step by 4a; each progression
    starts at its first term >= lo.  The weights are _weight12's, by loop
    position.
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


# Cache behind hurwitz_series, hmm_sum and hmm_series; query results are
# pure.  It grows by sieving only the indices it lacks, to at least twice
# its last index and at least 1,024, so that callers asking in small steps
# sieve few times, but past MAX_H_INDEX only as far as a caller asks; the
# main suite and `hcn7 table` ask for their whole range up front, and the
# hk suite reads it once, through hmm_series.
_cache: tuple[int, ...] = hurwitz_batch(0)


def twelfths_upto(n_max: int) -> tuple[int, ...]:
    """12*H(N) for at least 0 <= N <= n_max, from the cache."""
    global _cache
    size = len(_cache)
    if size <= n_max:
        grown = max(n_max, min(max(2 * (size - 1), 1024), MAX_H_INDEX))
        twelfths = list(_cache) + [0] * (grown + 1 - size)
        _sieve(twelfths, size)
        _cache = tuple(twelfths)
    return _cache


def hurwitz_series(order: int) -> QSeries:
    """Generating series sum_n H(n) q^n."""
    if order < 0:
        raise ValueError("order must be non-negative")
    return QSeries([Fraction(t, 12) for t in twelfths_upto(order)[: order + 1]])


def hmm_sum(m: int, M: int, n: int) -> ExactRational:
    """H_{m,M}(n) summed directly over all integers a = m (mod M).

    The twelfths are added in a plain loop; the value is an int when it is
    integral and a Fraction otherwise.  The largest index read, 4n, is
    checked against MAX_H_INDEX before the table is read.
    """
    if M < 1:
        raise ValueError("M must be positive")
    if n < 0:
        raise ValueError("n must be non-negative")
    four_n = 4 * n
    if four_n > MAX_H_INDEX:
        raise ValueError(f"index 4n = {four_n} is over the cap MAX_H_INDEX = {MAX_H_INDEX}")
    twelfths = twelfths_upto(four_n)
    r = isqrt(four_n)
    first = -r + (m + r) % M  # least a >= -r in the residue class
    total = 0
    for a in range(first, r + 1, M):
        total += twelfths[four_n - a * a]
    return total // 12 if total % 12 == 0 else Fraction(total, 12)


def hmm_series(m: int, M: int, order: int) -> QSeries:
    """H_{m,M} by the product route: (H-series * theta_{m,M}) | U_4.

    The product is taken in twelfths, an int series, by
    qseries.series_mul_u, which computes only the coefficients at 4n: one
    row add of order + 1 - ceil(a^2 / 4) terms per nonzero q^(a^2) of
    theta_{m,M}.  Each coefficient is then divided by 12 on its own: an
    int where it is integral, a Fraction otherwise.  The internal order
    4*order is an H index, so MAX_H_INDEX caps it, checked before the
    table is read.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    internal = 4 * order
    if internal > MAX_H_INDEX:
        raise ValueError(f"internal order {internal} is over the cap MAX_H_INDEX = {MAX_H_INDEX}")
    twelfths = QSeries(twelfths_upto(internal)[: internal + 1])
    product = series_mul_u(twelfths, theta_mM(m, M, internal), 4)
    return QSeries([t // 12 if t % 12 == 0 else Fraction(t, 12) for t in product.coeffs])

