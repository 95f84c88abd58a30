"""Hurwitz class numbers and their residue-restricted sums.

H(N) is the weighted count of SL2(Z)-classes of integral binary quadratic
forms of discriminant -N: each reduced form (a, b, c) with b^2 - 4ac = -N,
|b| <= a <= c and b >= 0 when |b| = a or a = c contributes 1, except that
forms proportional to x^2 + y^2 count 1/2 and forms proportional to
x^2 + xy + y^2 count 1/3.  By convention H(0) = -1/12 and H(N) = 0 for
N = 1, 2 (mod 4).

Two independent code paths produce 12*H as ints: hurwitz_single
enumerates reduced forms for one N, hurwitz_batch sieves over all
(a, b, c) at once.  The residue-restricted sums

    H_{m,M}(n) = sum over a = m (mod M) of H(4n - a^2)

are likewise computed two ways: hmm_sum by direct summation, whose
kernel hmm_twelfths returns 12*H_{m,M}(n) as an int, and hmm_series as
the series product (H-series * theta_{m,M}) | U_4, whose kernel
hmm_product computes in twelfths only the coefficients U_4 keeps.  The
product route is also the H side of the closing table, read at primes;
the direct sums are the route of `hcn7 sum` and check the product.

The weights 1/2 and 1/3 and H(0) = -1/12 make every 12*H(N) an integer,
so both H routes count in twelfths, and the table, the direct sums and
the series product stay ints: hurwitz_series and hmm_series hold them
over den 12.  Only hmm_sum, one direct sum's value, divides by 12.

A reduced form of index N = 4ac - b^2 has N = 0 or 3 (mod 4), so the
table lives in two classes, N = 4k and N = 4k + 3.  The sieve and the
series product each hold a class as one int of unsigned 32-bit slots
(struct's standard ">I", whatever the platform), the first slot most
significant, so that one big-int add, with a right shift for the
product, adds a whole row.  The product reads theta_{m,M} as its nonzero
(exponent, count) pairs, arith.theta_terms, about 2 sqrt(4 order) / M of
them, and shifts one row per pair.  No slot may reach 2^32: the sieve
checks that before it packs, and the product before its first shift-add.
"""

from __future__ import annotations

from math import isqrt
from operator import add
from struct import pack, unpack

from .arith import theta_terms
from .qseries import MAX_H_INDEX, QSeries


def hurwitz_single(N: int) -> int:
    """12*H(N) by direct enumeration of reduced forms of discriminant -N."""
    if N < 0:
        raise ValueError("N must be non-negative")
    if N == 0:
        return -1
    if N % 4 in (1, 2):
        return 0
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
    return twelfths


def _weight12(a: int, b: int, c: int) -> int:
    """12 times the weighted multiplicity of the reduced orbit (a, +-b, c)."""
    if a == b == c:
        return 4  # a(x^2 + xy + y^2)
    if b == 0 and a == c:
        return 6  # a(x^2 + y^2)
    if 0 < b < a < c:
        return 24  # (a, b, c) and (a, -b, c) are distinct reduced forms
    return 12


def _slot_bytes(values) -> bytes:
    """values as consecutive big-endian 32-bit slots."""
    return pack(f">{len(values)}I", *values)


def _unpack(packed: int, count: int) -> tuple[int, ...]:
    """The count 32-bit slots of packed, first slot most significant."""
    return unpack(f">{count}I", packed.to_bytes(4 * count, "big"))


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

    For fixed (a, b) the indices with c > a step by 4a.  From 4a(a + 1) on,
    where all these progressions have begun, a adds a pattern of period 4a
    (12 at -b^2 for b = 0 and b = a, 24 for 0 < b < a), which has period a
    in k within each class 4k + r.  One period, repeated by bytes
    multiplication, goes into the class's packed accumulator by one
    big-int add per a; the accumulators are unpacked into the table at the
    end.  The c = a forms, and the c > a forms below 4a(a + 1) (several
    per b once b^2 > 4a), are added one by one.

    A form of index N has 3a^2 <= N and at most a + 1 values of b per a,
    each of weight at most 24, so 12*H(N) <= 12 A (A + 3), A = isqrt(N // 3),
    about 1.6e7 at MAX_H_INDEX.  The weights are positive, so no partial
    sum in a slot exceeds that bound, checked against 2^32 up front.
    """
    n_max = len(twelfths) - 1
    top = isqrt(n_max // 3)
    if 12 * top * (top + 3) >= 1 << 32:
        raise OverflowError(f"12*H(N) for N <= {n_max} may not fit a 32-bit slot")
    # packed[r] holds the indices 4k + r, first[r] <= k <= last[r]
    first = {r: (lo - r + 3) // 4 for r in (0, 3)}
    last = {r: (n_max - r) // 4 for r in (0, 3)}
    packed = {0: 0, 3: 0}
    for a in range(top, 0, -1):  # the shortest rows first, so each accumulator grows with them
        step = 4 * a
        start = step * (a + 1)
        if start > lo:  # else every form below 4a(a + 1) is below lo
            for b in range(a, -1, -1):
                n = step * a - b * b  # c = a, rising as b falls
                if n > n_max:
                    break
                if lo <= n:  # a(x^2 + xy + y^2) at b = a, a(x^2 + y^2) at b = 0
                    twelfths[n] += 4 if b == a else 6 if b == 0 else 12
                weight = 12 if b in (0, a) else 24  # c > a: (a, +-b, c) for 0 < b < a
                n += step
                for n in range(n if n >= lo else lo + (n - lo) % step, min(start, n_max + 1), step):
                    twelfths[n] += weight
        for r in (0, 3):
            k = max(a * (a + 1), first[r])  # index 4k + r >= 4a(a + 1)
            count = last[r] - k + 1
            if count <= 0:
                continue
            period = [0] * a
            for b in range(r % 2, a + 1, 2):
                period[(-(b * b + r) // 4) % a] += 12 if b in (0, a) else 24
            phase = k % a
            row = _slot_bytes(period) * ((phase + count) // a + 1)
            packed[r] += int.from_bytes(row[4 * phase : 4 * (phase + count)], "big")
    for r in (0, 3):
        count = last[r] - first[r] + 1
        if count > 0:
            n = 4 * first[r] + r
            twelfths[n::4] = map(add, twelfths[n::4], _unpack(packed[r], count))


# Cache behind hurwitz_series, hmm_product and hmm_twelfths (which reads it
# in place once it reaches 4n); query results are pure.  It grows by sieving
# only the indices it lacks, to at least twice its last index and at least
# 1,024, so that callers asking in small steps sieve few times, but past
# MAX_H_INDEX only as far as a caller asks.  hmm_product asks for its
# whole internal order up front, so the main suite and `hcn7 table`, four
# products to 4 * p_max, sieve once, and the hk suite reads it once.
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
    """Generating series sum_n H(n) q^n: the table's twelfths over den 12.
    The order is an H index, so MAX_H_INDEX caps it, checked before the
    table is read."""
    if order < 0:
        raise ValueError("order must be non-negative")
    if order > MAX_H_INDEX:
        raise ValueError(f"order {order} is over the cap MAX_H_INDEX = {MAX_H_INDEX}")
    return QSeries(twelfths_upto(order)[: order + 1], 12)


def hmm_twelfths(m: int, M: int, n: int) -> int:
    """12*H_{m,M}(n), an int, summed directly over all integers a = m (mod M).

    The twelfths are added in a plain loop.  4n, the largest index read, is
    checked against MAX_H_INDEX first; a cache that covers it is read in place.
    """
    if M < 1:
        raise ValueError("M must be positive")
    if n < 0:
        raise ValueError("n must be non-negative")
    four_n = 4 * n
    if four_n > MAX_H_INDEX:
        raise ValueError(f"index 4n = {four_n} is over the cap MAX_H_INDEX = {MAX_H_INDEX}")
    twelfths = _cache if four_n < len(_cache) else twelfths_upto(four_n)
    r = isqrt(four_n)
    first = -r + (m + r) % M  # least a >= -r in the residue class
    total = 0
    for a in range(first, r + 1, M):
        total += twelfths[four_n - a * a]
    return total


# Fraction(t, 12) for each t that 12 does not divide, built on first lookup, as the same twelfths
# recur across residues, moduli and n: hmm_sum's memo.  At most _DIV12_CAP are kept, none evicted.
_DIV12_CAP = 4096


class _Div12Table(dict):
    def __missing__(self, t: int):
        from fractions import Fraction  # only here: no command divides by 12
        value = Fraction(t, 12)
        if len(self) < _DIV12_CAP:
            self[t] = value
        return value


_div12_table = _Div12Table()


def hmm_sum(m: int, M: int, n: int):
    """H_{m,M}(n) by the direct sum: hmm_twelfths over 12, an int where integral, else a Fraction."""
    total = hmm_twelfths(m, M, n)
    return total // 12 if total % 12 == 0 else _div12_table[total]


# The last (table, internal order) hmm_product packed, and what it packed.
_packed: tuple = (None, -1, 0, ())


def _packed_rows(table: tuple[int, ...], internal: int) -> tuple[int, tuple[int, ...]]:
    """The largest 12H(N), N <= internal, and the rows hmm_product shifts:
    slot j of rows[r] is 12H(4j + r), classes 1 and 2 of the table zero.

    Calls with the same table object and internal order, as every modulus
    at one order makes, share one packing; the key holds the table itself,
    so a new table never matches an old one's id.
    """
    global _packed
    if _packed[0] is not table or _packed[1] != internal:
        twelfths = table[: internal + 1]
        class0 = int.from_bytes(_slot_bytes((0,) + twelfths[4::4]), "big")
        class3 = int.from_bytes(_slot_bytes(twelfths[3::4] + (0,)), "big")
        _packed = table, internal, max(twelfths), (class0, 0, 0, class3)
    return _packed[2], _packed[3]


def hmm_product(m: int, M: int, order: int) -> list[int]:
    """12*H_{m,M}(k) for k <= order, as ints: (12H-series * theta_{m,M}) | U_4.

    Coefficient k sums c * 12H(4k - a^2) over the nonzero terms (a^2, c) of
    theta_{m,M} (arith.theta_terms).  Each term adds the packed row of its
    class r = -a^2 (mod 4) (_packed_rows) moved ceil(a^2 / 4) slots on,
    which drops the slots past order: one big-int shift and add per term.
    The counts are 1 or 2, so the rows of each count are summed first and
    the total is ones + 2 * twos.  The rows are added from the largest
    shift to the smallest, so that the running sum is never longer than
    the row just added: an int add copies its longer operand.  H(0) = -1/12
    is left out of the packing and c is subtracted at k = a^2 / 4 for each
    even a.  The ints are the same as from one add per term, in any
    order, and so is the bound: every slot is non-negative, so no slot of
    either sum, or of the total, exceeds the sum of the counts times the
    largest 12*H, which is checked against 2^32.  The internal
    order 4*order is an H index, so MAX_H_INDEX caps it; it and M >= 1 are
    checked before the table is read.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    internal = 4 * order
    if internal > MAX_H_INDEX:
        raise ValueError(f"internal order {internal} is over the cap MAX_H_INDEX = {MAX_H_INDEX}")
    terms = theta_terms(m, M, internal)
    largest, rows = _packed_rows(twelfths_upto(internal), internal)
    if sum(c for _, c in terms) * largest >= 1 << 32:
        raise OverflowError(f"a coefficient of 12*H_{{{m},{M}}} may not fit a 32-bit slot")
    sums = {1: 0, 2: 0}
    for e, c in sorted(terms, reverse=True):
        sums[c] += rows[-e % 4] >> 32 * -(-e // 4)  # slot j moves to j + ceil(e / 4)
    product = list(_unpack(sums[1] + 2 * sums[2], order + 1))
    for e, c in terms:
        if e % 4 == 0:
            product[e // 4] -= c
    return product


def hmm_series(m: int, M: int, order: int) -> QSeries:
    """H_{m,M} by the product route: hmm_product's twelfths over den 12."""
    return QSeries(hmm_product(m, M, order), 12)
