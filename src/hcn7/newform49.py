"""Fourier coefficients of the weight-2 level-49 CM newform (LMFDB 49.2.a.a).

Two fully independent routes to the prime coefficients a_p:

  * point counting on the attached elliptic curve 49a1
        y^2 + xy = x^3 - x^2 - 2x - 1
    over F_p, giving a_p = p + 1 - #E(F_p) for p != 7.  For p > 7 the
    group order is found by Shanks-Mestre baby-step/giant-step inside the
    Hasse interval |#E - p - 1| <= 2 sqrt(p), in O(p^(1/4)) group
    operations per point tried.  Points come from the twist trick: each x
    gives a point P on either E or its quadratic twist, whose order is
    2p + 2 - #E, with no square root taken.  E has a rational 2-torsion
    point, and so has every twist model, so both orders are divisible by
    e = 2, or e = 4 when all of E[2] is rational: the search runs on
    Q = 2P over the interval divided by e and multiplies what it finds by
    e.  Baby steps are matched by x alone, so that the giant step at
    k tests the 2s + 1 values k - s, ..., k + s at once, and the sign of y
    tells k - j from k + j.  Each point keeps only the candidates for #E
    that its order divides, and #E always stays by Lagrange.  Where 40
    points leave more than one candidate, and for p = 3, 5, the count is
    an O(p) Legendre scan;

  * the CM closed form: a_p = 0 for p = 3, 5, 6 (mod 7), and otherwise
    a_p = 2 chi(x) x where chi is the quadratic character mod 7 and
    (x, y) is the unique positive pair with p = x^2 + 7 y^2.  One sweep
    of x^2 + 7 y^2 up to the largest prime asked for finds the pairs of
    the whole range, with no square root taken mod p.  a_2 = 1 is the same
    form read at 4p = X^2 + 7 Y^2, X = 2x: 8 = 1^2 + 7 * 1^2.

Both routes take a list of primes and give their a_p in the same order.
The point-count route counts the primes not yet in its cache as one range.
From _SPLIT_MIN_PRIMES primes on, when a second core is free and no other
thread runs, one forked child counts every other prime of the range and
sends its counts back through a pipe; both processes run ec_point_count,
so the split changes no value and no output, only the wall time.  It is
not an option: a command's output never depends on how it was counted.

a_7 = 0 is fixed directly (additive reduction at the level prime); the
value is confirmed numerically by the dilation identity relating the form
to the x^2 + 7y^2 lattice sum.  newform_an builds the other coefficients
in one pass over the prime powers p^e <= n_max, with no n factored: the
a(p^e) follow a(p^(e+1)) = a_p a(p^e) - (p != 7) * p * a(p^(e-1)), so every
a(7^e) is 0, and one slice per p^e multiplies a(p^e) into every k p^e with
p not dividing k, which is multiplicativity.
"""

from __future__ import annotations

import marshal
import os
import sys
from itertools import cycle, islice, repeat
from math import isqrt
from operator import mul
from typing import Callable, Iterator

from .primes import primes_up_to
from .qseries import QSeries, chi_minus7

# 49a1 as y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, its one statement;
# the rest is derived (Silverman, AEC III.1).  Completing the square gives
# (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, and
# (x, y) -> (36x + 3 b2, 108(2y + a1 x + a3)) maps E onto the short model
# y^2 = x^3 + A x + B, A = -27 c4 and B = -54 c6, an isomorphism over F_p
# for p not in {2, 3}.  E has discriminant -7^3, so for p not in {2, 3, 7}
# the short model is smooth.
_A1, _A2, _A3, _A4, _A6 = 1, -1, 0, -2, -1
_B2, _B4, _B6 = _A1 * _A1 + 4 * _A2, 2 * _A4 + _A1 * _A3, _A3 * _A3 + 4 * _A6
_A = -27 * (_B2 * _B2 - 24 * _B4)  # -27 c4
_B = -54 * (-(_B2**3) + 36 * _B2 * _B4 - 216 * _B6)  # -54 c6

# E has a rational 2-torsion point: (2, -1) on 49a1, where 2y + a1 x + a3 = 0.
# On the short model it is (T, 0), T an integer root of X^3 + A X + B; a
# root T has T^2 <= |A| + |B|, so the search below sees every one.
_R = isqrt(abs(_A) + abs(_B))
_T = next((t for t in range(-_R, _R + 1) if t**3 + _A * t + _B == 0), None)
if _T is None:
    raise ArithmeticError("the short model has no rational 2-torsion point")
# X^3 + A X + B = (X - T)(X^2 + T X + A + T^2): all of E[2] is rational
# over F_p exactly when D, the quadratic's discriminant, is a square mod p.
_D = _T * _T - 4 * (_A + _T * _T)


def ec_point_count(p: int) -> int:
    """#E(F_p), including the point at infinity, for a prime p from the
    caller's sieve; nothing re-checks it.

    For odd p > 5 the group order comes from _bsgs_count: baby-step/
    giant-step inside the Hasse interval on the short model, at O(p^(1/4))
    group operations per point tried.  p = 3, 5, and any p where that does
    not settle #E, fall back to _scan_count, the O(p) Legendre scan.  p = 2
    is done by exhaustive (x, y) enumeration to avoid dividing by 2.
    """
    if p == 7:
        raise ValueError("additive reduction at p = 7; a_7 is fixed separately")
    if p == 2:
        count = 1  # infinity
        for x in (0, 1):
            rhs = x**3 + _A2 * x * x + _A4 * x + _A6
            for y in (0, 1):
                count += (y * y + _A1 * x * y + _A3 * y - rhs) % 2 == 0
        return count
    count = _bsgs_count(p) if p > 5 else None
    return _scan_count(p) if count is None else count


def _scan_count(p: int) -> int:
    """#E(F_p) for odd p by a scan over x: the y-count per x is
    1 + legendre(disc) with disc = 4x^3 + b2 x^2 + 2 b4 x + b6."""
    square = bytearray(p)
    for t in range(p // 2 + 1):
        square[t * t % p] = 1
    count = p + 1
    for x in range(p):
        disc = (((4 * x + _B2) * x + 2 * _B4) * x + _B6) % p
        if disc:
            count += 1 if square[disc] else -1
    return count


_MAX_POINTS = 40  # points tried before _bsgs_count gives up


def _add(P, Q, a: int, p: int):
    """P + Q on y^2 = x^3 + a x + b over F_p; None is the point at infinity.

    The loops below inline the common step, distinct x, and call this only
    for the rest: a doubling, a sum that reaches O, or O itself.
    """
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def _mul(k: int, P, a: int, p: int):
    """k P for k >= 1 and P != O, by left-to-right double-and-add."""
    xp, yp = P
    R = P
    for bit in bin(k)[3:]:
        if R is None or R[1] == 0:
            R = _add(R, R, a, p)
        else:
            x, y = R
            slope = (3 * x * x + a) * pow(2 * y, -1, p) % p
            x3 = (slope * slope - 2 * x) % p
            R = x3, (slope * (x - x3) - y) % p
        if bit == "1":
            if R is None or R[0] == xp:
                R = _add(R, P, a, p)
            else:
                x, y = R
                slope = (yp - y) * pow(xp - x, -1, p) % p
                x3 = (slope * slope - x - xp) % p
                R = x3, (slope * (x - x3) - y) % p
    return R


def _multiples_in(Q, a: int, p: int, low: int, high: int) -> set[int] | None:
    """Every m in [low, high] with m Q = O, for a point Q != O, by
    baby-step/giant-step with x-only matching; or None if the order of Q is
    at most 2s + 1, s = isqrt((high - low) // 2) + 1.

    Baby steps store x(jQ) -> (j, y(jQ)) for 1 <= j <= s and go on to
    (s + 1)Q.  They meet O, or an x already stored, exactly when the order
    of Q is at most 2s + 1, since iQ = +-jQ means (j -+ i)Q = O.  Otherwise
    every window [k - s, k + s] holds at most one multiple of the order,
    and no jQ has y = 0.  Giant steps walk the centres k = q0 w,
    (q0 + 1) w, ..., w = 2s + 1 and q0 = (low + s) // w, whose windows
    tile the integers from one that holds low; they start from q0 times
    the stride wQ = (s + 1)Q + sQ.  If kQ = O then k is a multiple; if
    x(kQ) = x(jQ) then kQ = +-jQ, and the sign of y says which of k - j
    and k + j is the multiple.
    """
    s = isqrt((high - low) // 2) + 1
    xq, yq = Q
    R = _add(Q, Q, a, p)
    if R is None:
        return None
    baby = {xq: (1, yq)}
    xs, ys = xq, yq  # jQ of the loop below, then sQ
    x, y = R  # (j + 1)Q, then (s + 1)Q
    for j in range(2, s + 1):
        if x in baby:
            return None
        baby[x] = j, y
        slope = (y - yq) * pow(x - xq, -1, p) % p
        xs, ys = x, y
        x = (slope * slope - x - xq) % p
        y = (slope * (xs - x) - ys) % p
    if x in baby:
        return None
    slope = (y - ys) * pow(x - xs, -1, p) % p
    gx = (slope * slope - x - xs) % p
    stride = gx, (slope * (x - gx) - y) % p
    sx, sy = stride
    found = set()
    w = 2 * s + 1
    q0 = (low + s) // w
    G = _mul(q0, stride, a, p) if q0 else None
    for k in range(q0 * w, high + s + 1, w):
        if G is None:
            if low <= k <= high:
                found.add(k)
            G = stride
            continue
        gx, gy = G
        hit = baby.get(gx)
        if hit is not None:
            j, y = hit
            m = k - j if gy == y else k + j
            if low <= m <= high:
                found.add(m)
        if gx == sx:
            G = _add(G, stride, a, p)
        else:
            slope = (sy - gy) * pow(sx - gx, -1, p) % p
            x = (slope * slope - gx - sx) % p
            G = x, (slope * (gx - x) - gy) % p
    return found


def _bsgs_count(p: int) -> int | None:
    """#E(F_p) for a prime p > 7 by Shanks-Mestre baby-step/giant-step,
    or None if _MAX_POINTS points leave it undecided.

    For x = 0, 1, 2, ... with f = x^3 + A x + B != 0, the point
    P = (f x, f^2) lies on y^2 = X^3 + A f^2 X + B f^3, which is E when f
    is a square mod p and otherwise the quadratic twist E', with
    #E' = 2p + 2 - #E; no square root is needed.  That model's cubic has
    the roots f times those of X^3 + A X + B: T f, and the roots of
    X^2 + T f X + (A + T^2) f^2, of discriminant D f^2.  So E and E' have
    the point (T f, 0) of order 2, and when D is a square mod p all of
    E[2]; each group is then Z/n1 x Z/n2 with 2 | n1 | n2, and its doubles
    form a subgroup of order #E / 4 (#E' / 4) that holds Q = 2P.  With
    e = 4 then and e = 2 otherwise, by Lagrange #E / e is among the m in
    [ceil(low / e), floor(high / e)] with m Q = O for every P on E, and
    #E' / e among those for every P on E', where [low, high] =
    [p + 1 - isqrt(4p), p + 1 + isqrt(4p)] is the Hasse interval.  The
    candidates e m (2p + 2 - e m on the twist) are intersected over the
    points tried until one is left; a point whose Q has small order, which
    _multiples_in skips, cuts nothing.  P has y = f^2 != 0, so Q != O.
    """
    low, high = p + 1 - isqrt(4 * p), p + 1 + isqrt(4 * p)
    e = 4 if pow(_D, (p - 1) // 2, p) == 1 else 2
    points = ((x, f) for x in range(p) if (f := (x * x * x + _A * x + _B) % p))
    candidates = None
    for x, f in islice(points, _MAX_POINTS):
        a = _A * f * f % p
        P = f * x % p, f * f % p
        found = _multiples_in(_add(P, P, a, p), a, p, -(-low // e), high // e)
        if found is None:
            continue
        if pow(f, (p - 1) // 2, p) == 1:
            found = {e * m for m in found}
        else:  # P is on the twist
            found = {2 * p + 2 - e * m for m in found}
        candidates = found if candidates is None else candidates & found
        if len(candidates) == 1:
            return candidates.pop()
    return None


# A range of fewer primes is counted in one process.  Forking the child,
# its start and the pipe cost about 1.5-3 ms.  Measured on 2 cores (medians
# of 15, three runs), the split broke even at 192 to 384 primes, as the
# machine's speed drifted, and the first 512 odd primes took 0.68-0.86 of
# their one-process time.  512 keeps the battery's G (168 primes) whole.
_SPLIT_MIN_PRIMES = 512


def _split_map(f: Callable[[int], int], primes: list[int]) -> list[int]:
    """[f(p) for p in primes], in order, with the odd positions computed by
    one forked child when the range has _SPLIT_MIN_PRIMES primes, a second
    core is free and no other thread runs.

    The child sends its values through a pipe as marshal bytes and leaves
    only by os._exit, so it never flushes the stdout buffer it inherited
    and never returns to the caller.  The parent computes the even
    positions, reads the pipe to its end, then closes it and reaps the
    child on every path; closing first frees a child blocked on a full
    pipe.  The child exits 0 only once all its bytes are written; if it
    does not, the parent computes that share itself, so an error in f
    comes up in the parent as it would in one process.
    """
    threading = sys.modules.get("threading")
    if (
        len(primes) < _SPLIT_MIN_PRIMES
        or not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or len(os.sched_getaffinity(0)) < 2
        or (threading is not None and threading.active_count() > 1)
    ):
        return [f(p) for p in primes]
    theirs = primes[1::2]
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: count in this one
        os.close(read_end)
        os.close(write_end)
        return [f(p) for p in primes]
    if pid == 0:
        try:
            os.close(read_end)
            data = memoryview(marshal.dumps([f(p) for p in theirs]))
            while data:
                data = data[os.write(write_end, data) :]
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_end)
    chunks = []
    try:
        mine = [f(p) for p in primes[::2]]
        while chunk := os.read(read_end, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(read_end)
        status = os.waitpid(pid, 0)[1]
    values = marshal.loads(b"".join(chunks)) if status == 0 else [f(p) for p in theirs]
    out = primes[:]
    out[::2], out[1::2] = mine, values
    return out


_ap_cache: dict[int, int] = {7: 0}


def ec_aps(primes: list[int]) -> list[int]:
    """a_p = p + 1 - #E(F_p) for each prime of primes, in order, a_7 = 0;
    the primes not in _ap_cache yet are point counted as one range,
    _split_map, into it."""
    todo = [p for p in primes if p not in _ap_cache]
    for p, count in zip(todo, _split_map(ec_point_count, todo)):
        _ap_cache[p] = p + 1 - count
    return [_ap_cache[p] for p in primes]


def newform_an(n_max: int, aps: Callable[[list[int]], list[int]] = ec_aps) -> QSeries:
    """The q-expansion a_0 = 0, a_1, ..., a_n_max, with each prime
    coefficient a_p from the route aps, run once on the primes up to n_max:
    ec_aps (point counts) or cm_aps (CM closed form).

    a starts as [0] + [1] * n_max, and each prime power p^e <= n_max
    multiplies its a(p^e) into every k p^e with p not dividing k, as one
    slice a[p^e::p^e] against a(p^e) repeated p - 1 times, then 1.  So each
    a_n ends as the product over its prime-power parts.  The a(p^e) follow
    the Hecke recursion a(p^(e+1)) = a_p a(p^e) - (p != 7) * p * a(p^(e-1)):
    with a_7 = 0 from both routes, every a(7^e) is 0."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    primes = primes_up_to(n_max)
    values = aps(primes)  # before the big list below: a lower peak
    a = [0] + [1] * n_max
    for p, ap in zip(primes, values):
        below, ape, pe = 1, ap, p  # a(p^(e-1)), a(p^e), p^e
        while pe <= n_max:
            # k p^e <= n_max < p^(e+1) leaves k < p: no k is a multiple of p
            factors = repeat(ape) if pe * p > n_max else cycle([ape] * (p - 1) + [1])
            a[pe::pe] = map(mul, a[pe::pe], factors)
            below, ape, pe = ape, ap * ape - (p != 7) * p * below, pe * p
    return QSeries(a)


def represent_7(primes: list[int]) -> dict[int, tuple[int, int]]:
    """{p: (x, y)} with x, y > 0 and p = x^2 + 7 y^2, for each p of primes
    that has such a pair.

    One sweep over every y >= 1 and x >= 1 with x^2 + 7 y^2 <= max(primes),
    about 0.3 max(primes) pairs, keeps the values that are in primes.  A
    prime has at most one pair, and has one exactly when it is odd and
    p = 1, 2, 4 (mod 7); so 2, 7 and the inert primes get no entry.  Any
    other n given gets one of its pairs, or none.
    """
    wanted = set(primes)
    top = max(primes, default=0)
    found = {}
    for y in range(1, isqrt(top // 7) + 1):
        seven_y2 = 7 * y * y
        for x in range(1, isqrt(top - seven_y2) + 1):
            n = x * x + seven_y2
            if n in wanted:
                found[n] = x, y
    return found


def cm_ap_at(x: int) -> int:
    """a_p = 2 chi(x) x, the CM closed form, for the split prime
    p = x^2 + 7 y^2 with x, y > 0."""
    return 2 * chi_minus7(x) * x


def cm_aps(primes: list[int]) -> list[int]:
    """a_p from the CM closed form for each prime of primes, in order: 0 for
    7 and the inert primes, which represent_7 leaves out.  No prime is point
    counted.  The form 2 chi(x) x for p = x^2 + 7y^2 is chi(X) X for
    4p = X^2 + 7Y^2 with X = 2x, since chi(2) = 1.  x^2 + 7y^2 never
    represents 2, but 8 = 1^2 + 7 * 1^2, so a_2 = chi(1) * 1 = 1."""
    found = represent_7(primes)
    return [
        chi_minus7(1) * 1 if p == 2 else cm_ap_at(found[p][0]) if p in found else 0
        for p in primes
    ]


def g_series(order: int) -> QSeries:
    """q-expansion of the newform, coefficient 0 at n = 0."""
    # point counts, never cm_aps: the lemma42 check compares G against the
    # x^2 + 7y^2 lattice sum, so G must not be built from that lattice
    return newform_an(order, ec_aps)


def ap_pairs(p_max: int) -> Iterator[tuple[int, int, int]]:
    """(p, a_p by point count, a_p by CM) for each odd prime p <= p_max, p != 7."""
    if p_max < 3:
        raise ValueError("p_max must be at least 3")
    primes = [p for p in primes_up_to(p_max) if p not in (2, 7)]
    return zip(primes, ec_aps(primes), cm_aps(primes))
