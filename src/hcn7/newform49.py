"""Fourier coefficients of the weight-2 level-49 CM newform (LMFDB 49.2.a.a).

Two fully independent routes to the prime coefficients a_p:

  * point counting on the attached elliptic curve 49a1
        y^2 + xy = x^3 - x^2 - 2x - 1
    over F_p, giving a_p = p + 1 - #E(F_p) for p != 7.  For p > 7 the
    group order is found by Shanks-Mestre baby-step/giant-step inside the
    Hasse interval |#E - p - 1| <= 2 sqrt(p), in O(p^(1/4)) group
    operations per point tried.  Points come from the twist trick: each x
    gives a point on either E or its quadratic twist, whose order is
    2p + 2 - #E, with no square root taken.  Each point keeps only the
    candidates m in the interval with m P = O (2p + 2 - m for a point on
    the twist), and #E always stays by Lagrange.  Where 40 points leave
    more than one candidate, and for p = 3, 5, the count is an O(p)
    Legendre scan;

  * the CM closed form: a_p = 0 for p = 3, 5, 6 (mod 7), and otherwise
    a_p = 2 chi(x) x where chi is the quadratic character mod 7 and
    (x, y) is the unique positive pair with p = x^2 + 7 y^2.

a_7 = 0 is fixed directly (additive reduction at the level prime); the
value is confirmed numerically by the dilation identity relating the form
to the x^2 + 7y^2 lattice sum.  Coefficients at composite indices follow
from the Hecke recursion a(p^(r+1)) = a_p a(p^r) - p a(p^(r-1)) and
multiplicativity.
"""

from __future__ import annotations

from itertools import islice
from math import isqrt
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
    """P + Q on y^2 = x^3 + a x + b over F_p; None is the point at infinity."""
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
    """k P for k >= 0, by double-and-add."""
    result = None
    while k:
        if k & 1:
            result = _add(result, P, a, p)
        P = _add(P, P, a, p)
        k >>= 1
    return result


def _multiples_in(P, a: int, p: int, low: int, high: int) -> set[int] | None:
    """Every m in [low, high] with m P = O, by baby-step/giant-step, or
    None if the order of P is below s = isqrt(high - low) + 1.

    Baby steps store -jP for 0 <= j < s, all distinct when the order is at
    least s; giant steps walk (low + i s) P, and (low + i s) P = -jP means
    m = low + i s + j.  Since s^2 > high - low every such m is found.
    """
    s = isqrt(high - low) + 1
    baby = {}
    R = None
    for j in range(s):
        if j and R is None:
            return None
        baby[None if R is None else (R[0], -R[1] % p)] = j
        R = _add(R, P, a, p)
    found = set()  # R is now s P, the giant step
    Q = _mul(low, P, a, p)
    for m in range(low, high + 1, s):
        j = baby.get(Q, -1)
        if j >= 0 and m + j <= high:
            found.add(m + j)
        Q = _add(Q, R, a, p)
    return found


def _bsgs_count(p: int) -> int | None:
    """#E(F_p) for a prime p > 7 by Shanks-Mestre baby-step/giant-step,
    or None if _MAX_POINTS points leave it undecided.

    For x = 0, 1, 2, ... with f = x^3 + A x + B != 0, the point (f x, f^2)
    lies on y^2 = X^3 + A f^2 X + B f^3, which is E when f is a square
    mod p and otherwise the quadratic twist E', with #E' = 2p + 2 - #E;
    no square root is needed.  Both orders lie in the Hasse interval
    [low, high] = [p + 1 - isqrt(4p), p + 1 + isqrt(4p)].  By Lagrange #E
    is among the m in it with m P = O for every point P on E, and
    2p + 2 - #E among those for every P on E'.  The candidates are
    intersected over the points tried until one is left; a point of small
    order, which _multiples_in skips, cuts nothing.
    """
    low, high = p + 1 - isqrt(4 * p), p + 1 + isqrt(4 * p)
    points = ((x, f) for x in range(p) if (f := (x * x * x + _A * x + _B) % p))
    candidates = None
    for x, f in islice(points, _MAX_POINTS):
        found = _multiples_in((f * x % p, f * f % p), _A * f * f % p, p, low, high)
        if found is None:
            continue
        if pow(f, (p - 1) // 2, p) != 1:  # P is on the twist
            found = {2 * p + 2 - m for m in found}
        candidates = found if candidates is None else candidates & found
        if len(candidates) == 1:
            return candidates.pop()
    return None


_ap_cache: dict[int, int] = {7: 0}


def newform_ap(p: int) -> int:
    """a_p = p + 1 - #E(F_p) for good p; a_7 = 0."""
    ap = _ap_cache.get(p)
    if ap is None:
        ap = _ap_cache[p] = p + 1 - ec_point_count(p)
    return ap


def newform_an(n_max: int, ap: Callable[[int], int] = newform_ap) -> QSeries:
    """The q-expansion a_0 = 0, a_1, ..., a_n_max, with a_n for n >= 2 from
    the Hecke recursion and multiplicativity and each prime coefficient a_p
    (p != 7) from the route ap: newform_ap (point counts) or cm_ap (CM
    closed form)."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    spf = list(range(n_max + 1))  # smallest prime factor: the last p written
    for p in reversed(primes_up_to(isqrt(n_max))):
        spf[p * p :: p] = [p] * ((n_max - p * p) // p + 1)
    a = [0] * (n_max + 1)
    a[1] = 1
    for n in range(2, n_max + 1):
        p = spf[n]
        m = n
        pe = 1
        while m % p == 0:
            m //= p
            pe *= p
        if m > 1:
            a[n] = a[pe] * a[m]
        elif p == 7:
            a[n] = 0
        elif pe == p:
            a[n] = ap(p)
        else:
            a[n] = a[p] * a[pe // p] - p * a[pe // (p * p)]
    return QSeries(a)


def represent_7(p: int) -> tuple[int, int]:
    """The unique (x, y) with x, y > 0 and p = x^2 + 7 y^2, for a prime p
    from the caller's sieve; nothing re-checks it.

    Exists exactly for odd primes p = 1, 2, 4 (mod 7).  The full scan over
    y detects non-uniqueness, and raises for 2, 7 and the inert primes.
    """
    hits = []
    for y in range(1, isqrt(p // 7) + 1):
        rest = p - 7 * y * y
        x = isqrt(rest)
        if x > 0 and x * x == rest:
            hits.append((x, y))
    if len(hits) != 1:
        raise ValueError(
            f"expected exactly one representation of {p} = x^2 + 7y^2, "
            f"found {hits or 'none'}"
        )
    return hits[0]


def cm_ap(p: int) -> int:
    """a_p from the CM closed form, for a prime p from the caller's sieve;
    nothing re-checks it.  No odd p is point counted.  p = 2 is the one
    exception: x^2 + 7y^2 never represents 2, so it defers to the curve count.
    """
    if p == 2:
        return newform_ap(2)
    if p == 7:
        return 0
    if p % 7 in (3, 5, 6):
        return 0
    x, _ = represent_7(p)
    return 2 * chi_minus7(x) * x


def g_series(order: int) -> QSeries:
    """q-expansion of the newform, coefficient 0 at n = 0."""
    if order < 1:
        return QSeries.zero(order)
    # point counts, never cm_ap: the lemma42 check compares G against the
    # x^2 + 7y^2 lattice sum, so G must not be built from that lattice
    return newform_an(order, newform_ap)


def ap_pairs(p_max: int) -> Iterator[tuple[int, int, int]]:
    """(p, a_p by point count, a_p by CM) for each odd prime p <= p_max, p != 7."""
    if p_max < 3:
        raise ValueError("p_max must be at least 3")
    return ((p, newform_ap(p), cm_ap(p)) for p in primes_up_to(p_max) if p not in (2, 7))
