"""Hurwitz class numbers and their residue-restricted sums.

H(N) is the weighted count of SL2(Z)-classes of integral binary quadratic
forms of discriminant -N: each reduced form (a, b, c) with b^2 - 4ac = -N,
|b| <= a <= c and b >= 0 when |b| = a or a = c contributes 1, except that
forms proportional to x^2 + y^2 count 1/2 and forms proportional to
x^2 + xy + y^2 count 1/3.  By convention H(0) = -1/12 and H(N) = 0 for
N = 1, 2 (mod 4).

Two independent code paths produce 12*H as ints: hurwitz_single
enumerates reduced forms for one N, and twelfths_upto sieves over all
(a, b, c) at once into the one table every other caller reads; it
rejects an index over MAX_H_INDEX before it allocates anything.  The
residue-restricted sums

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
over den 12.  Only hmm_sum, one direct sum's value, divides by 12, by
qseries.fraction where 12 does not divide it, as a series read does.

A reduced form of index N = 4ac - b^2 has N = 0 or 3 (mod 4), so the
table lives in two classes, N = 4k and N = 4k + 3.  The sieve and the
series product each hold a class as one int of unsigned big-endian
slots, the first slot most significant, so that one big-int add, with a
right shift for the product, adds a whole row.  The product's slots are
32-bit (struct's standard ">I", whatever the platform).  The sieve's are
only as wide as its a-priori bound on 12*H needs: 1 byte to N = 47,
2 bytes to N = 15,986 and 3 bytes from there through MAX_H_INDEX, each
cut from the ">I" packing, since every byte an int holds costs time in
int.from_bytes and in every add.  The product reads theta_{m,M} as its
nonzero (exponent, count) pairs, arith.theta_terms, about
2 sqrt(4 order) / M of them, and shifts one row per pair.  No slot may
overflow: the sieve checks its bound, against 2^32 at most, before it
reads the table, and the product checks its own before its first
shift-add.
"""

from __future__ import annotations

from itertools import repeat
from math import isqrt
from operator import add
from struct import pack, unpack

from .arith import theta_terms
from .qseries import MAX_H_INDEX, QSeries, fraction


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


def _slot_bytes(values, width: int = 4) -> bytes:
    """values as consecutive big-endian slots of width bytes, 1 <= width <= 4,
    each value below 2^(8 width): struct's standard ">I" packing with the
    high 4 - width bytes of every slot dropped."""
    wide = pack(f">{len(values)}I", *values)
    if width == 4:
        return wide
    narrow = bytearray(width * len(values))
    for j in range(width):
        narrow[j::width] = wide[4 - width + j :: 4]
    return bytes(narrow)


def _unpack(packed: int, count: int, width: int = 4) -> tuple[int, ...]:
    """The count slots of width bytes of packed, first slot most significant:
    _slot_bytes read back."""
    narrow = packed.to_bytes(width * count, "big")
    if width == 4:
        return unpack(f">{count}I", narrow)
    wide = bytearray(4 * count)
    for j in range(width):
        wide[4 - width + j :: 4] = narrow[j::width]
    return unpack(f">{count}I", wide)


# A c > a progression below 4a(a + 1) with at least this many terms is added
# as one slice, a shorter one by a plain loop.  A slice costs a fixed setup
# (two list slices and a map) and less per term; the crossover, measured on
# progressions of 4 to 48 terms, lies between 9 and 16 terms, and the whole
# sieve to 10^6 took the same time for thresholds 12 to 24.
_SLICE_TERMS = 16


def _progression(twelfths: list[int], n: int, end: int, step: int, weight: int, lo: int) -> None:
    """Add weight at n, n + step, ... below end, from the first term >= lo."""
    if n < lo:
        n = lo + (n - lo) % step
    if n + (_SLICE_TERMS - 1) * step < end:
        twelfths[n:end:step] = map(add, twelfths[n:end:step], repeat(weight))
    else:
        for n in range(n, end, step):
            twelfths[n] += weight


def _sieve(twelfths: list[int], lo: int) -> None:
    """Add 12 times the weight of every reduced form (a, b, c) whose index
    4ac - b^2 lies in [lo, len(twelfths)), lo >= 1.

    For fixed (a, b) the indices with c > a step by 4a.  From 4a(a + 1) on,
    where all these progressions have begun, a adds a pattern of period 4a
    (12 at -b^2 for b = 0 and b = a, 24 for 0 < b < a), which has period a
    in k within each class 4k + r.  One period, repeated by bytes
    multiplication, goes into the class's packed accumulator by one
    big-int add per a; the accumulators are unpacked into the table at the
    end.  The c = a forms are added one by one, b = a and b = 0 (weights 4
    and 6, then 12 for c > a) outside the loop over 0 < b < a, which adds
    the constant weights 12 and 24.  The c > a forms below 4a(a + 1), about
    b^2 / 4a of them per b, go through _progression: one slice for a
    progression of at least _SLICE_TERMS terms, and a plain loop for a
    shorter one.  The long progressions hold 28% of these terms to 4*10^4,
    84% to 4*10^5 and 97% to 4*10^6.

    A form of index N has 3a^2 <= N and at most a + 1 values of b per a,
    each of weight at most 24, so 12*H(N) <= 12 A (A + 3), A = isqrt(N // 3),
    16,022,136 < 2^24 at MAX_H_INDEX.  The weights are positive, so no
    partial sum in a slot exceeds that bound.  It sets the slot width, the
    fewest bytes that hold it, and is checked against 2^32 before the table
    is read.
    """
    n_max = len(twelfths) - 1
    top = isqrt(n_max // 3)
    bound = 12 * top * (top + 3)
    if bound >= 1 << 32:
        raise OverflowError(f"12*H(N) for N <= {n_max} may not fit a 32-bit slot")
    width = max(1, -(-bound.bit_length() // 8))
    # packed[r] holds the indices 4k + r, first[r] <= k <= last[r]
    first = {r: (lo - r + 3) // 4 for r in (0, 3)}
    last = {r: (n_max - r) // 4 for r in (0, 3)}
    packed = {0: 0, 3: 0}
    for a in range(top, 0, -1):  # the shortest rows first, so each accumulator grows with them
        step = 4 * a
        start = step * (a + 1)
        if start > lo:  # else every form below 4a(a + 1) is below lo
            end = min(start, n_max + 1)
            # b = a: a(x^2 + xy + y^2) at c = a, 3a^2 <= n_max, then weight 12
            n = 3 * a * a
            if lo <= n:
                twelfths[n] += 4
            _progression(twelfths, n + step, end, step, 12, lo)
            n = step * a  # b = 0: a(x^2 + y^2) at c = a, then weight 12
            if n <= n_max:
                if lo <= n:
                    twelfths[n] += 6
                _progression(twelfths, n + step, end, step, 12, lo)
            for b in range(a - 1, 0, -1):  # 12 at c = a, 24 for c > a: (a, +-b, c)
                n = step * a - b * b  # rising as b falls
                if n > n_max:
                    break
                if lo <= n:
                    twelfths[n] += 12
                _progression(twelfths, n + step, end, step, 24, lo)
        for r in (0, 3):
            k = max(a * (a + 1), first[r])  # index 4k + r >= 4a(a + 1)
            count = last[r] - k + 1
            if count <= 0:
                continue
            period = [0] * a
            for b in range(r % 2, a + 1, 2):
                period[(-(b * b + r) // 4) % a] += 12 if b in (0, a) else 24
            phase = k % a
            row = _slot_bytes(period, width) * ((phase + count) // a + 1)
            packed[r] += int.from_bytes(row[width * phase : width * (phase + count)], "big")
    for r in (0, 3):
        count = last[r] - first[r] + 1
        if count > 0:
            n = 4 * first[r] + r
            twelfths[n::4] = map(add, twelfths[n::4], _unpack(packed[r], count, width))


# The H table: cmd_hurwitz, hurwitz_series, hmm_product and hmm_twelfths
# (which reads it in place once it reaches 4n) read it only through
# twelfths_upto; query results are pure.  It grows to exactly the index
# asked, sieving only the indices it lacks, and never past MAX_H_INDEX.
# Each caller asks once, for the largest index it reads: N for
# `hurwitz --max N`, the order for the H-series, 4n for one direct sum,
# and a product's whole internal order up front, so the main suite and
# `hcn7 table`, four products to 4 * p_max, sieve once, and the hk suite
# reads it once.
_cache: tuple[int, ...] = (-1,)  # 12 H(0)


def twelfths_upto(n_max: int) -> tuple[int, ...]:
    """12*H(N) for 0 <= N <= n_max or further, the whole cache as grown so
    far; an n_max over MAX_H_INDEX is rejected before anything is allocated."""
    global _cache
    if n_max > MAX_H_INDEX:
        raise ValueError(f"H index {n_max} is over the cap MAX_H_INDEX = {MAX_H_INDEX}")
    size = len(_cache)
    if size <= n_max:
        twelfths = list(_cache) + [0] * (n_max + 1 - size)
        _sieve(twelfths, size)
        _cache = tuple(twelfths)
    return _cache


def hurwitz_series(order: int) -> QSeries:
    """Generating series sum_n H(n) q^n: the table's twelfths over den 12.
    The order is an H index, which twelfths_upto checks against MAX_H_INDEX."""
    if order < 0:
        raise ValueError("order must be non-negative")
    return QSeries(twelfths_upto(order)[: order + 1], 12)


def hmm_twelfths(m: int, M: int, n: int) -> int:
    """12*H_{m,M}(n), an int, summed directly over all integers a = m (mod M).

    The twelfths are added in a plain loop, read from the cache in place once
    it covers 4n, the largest index read; twelfths_upto checks the cap.
    Short of 4n, it grows to exactly 4n, copying itself each time, so a
    caller that sweeps n should ask for its largest n first.
    """
    if M < 1:
        raise ValueError("M must be positive")
    if n < 0:
        raise ValueError("n must be non-negative")
    four_n = 4 * n
    twelfths = _cache if four_n < len(_cache) else twelfths_upto(four_n)
    r = isqrt(four_n)
    first = -r + (m + r) % M  # least a >= -r in the residue class
    total = 0
    for a in range(first, r + 1, M):
        total += twelfths[four_n - a * a]
    return total


def hmm_sum(m: int, M: int, n: int):
    """H_{m,M}(n) by the direct sum: hmm_twelfths over 12, an int where integral,
    else qseries.fraction(total, 12).  The table grows to exactly 4n, copying
    itself, so a caller that sweeps n should ask for its largest n first."""
    total = hmm_twelfths(m, M, n)
    return total // 12 if total % 12 == 0 else fraction(total, 12)


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
