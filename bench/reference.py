"""Reference code for the benchmark's checks.

Nothing here imports hcn7, and nothing copies its algorithms: every value
is recomputed the slow, obvious way so that a check never compares the
program against itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def primes_upto(n: int) -> list[int]:
    """Every prime p <= n, by crossing out multiples."""
    composite = [False] * (n + 1)
    out = []
    for k in range(2, n + 1):
        if not composite[k]:
            out.append(k)
            for multiple in range(k * k, n + 1, k):
                composite[multiple] = True
    return out


def hurwitz_h(N: int) -> Fraction:
    """H(N) by counting the reduced forms (a, b, c) with b^2 - 4ac = -N.

    A form is reduced when |b| <= a <= c, with b >= 0 if |b| = a or a = c.
    Forms proportional to x^2 + y^2 count 1/2, forms proportional to
    x^2 + xy + y^2 count 1/3, every other form 1.  H(0) = -1/12.
    """
    if N == 0:
        return Fraction(-1, 12)
    twelfths = 0
    a = 1
    while 3 * a * a <= N:
        # b ranges over -a < b <= a with b = N (mod 2)
        first = -a + 1 if (-a + 1 - N) % 2 == 0 else -a + 2
        for b in range(first, a + 1, 2):
            num = b * b + N
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (b < 0 and c == a):
                continue
            if a == b == c:
                twelfths += 4
            elif b == 0 and a == c:
                twelfths += 6
            else:
                twelfths += 12
        a += 1
    return Fraction(twelfths, 12)


def class_sum(m: int, M: int, n: int) -> Fraction:
    """sum over all integers a = m (mod M) with a^2 <= 4n of H(4n - a^2)."""
    total = Fraction(0)
    a = 0
    while a * a <= 4 * n:
        for x in {a, -a}:
            if (x - m) % M == 0:
                total += hurwitz_h(4 * n - x * x)
        a += 1
    return total


def hurwitz_kronecker_rhs(n: int) -> int:
    """2 sigma(n) - sum over d | n of min(d, n/d), by a full divisor loop."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += 2 * d - min(d, n // d)
    return total


def curve_points(p: int) -> int:
    """#E(F_p) for y^2 + xy = x^3 - x^2 - 2x - 1 and an odd prime p != 7.

    Completing the square, (2y + x)^2 = 4x^3 - 3x^2 - 8x - 4.  Each x gives
    1 + (disc / p) points, the Legendre symbol by Euler's criterion; the
    point at infinity adds one.
    """
    count = 1
    for x in range(p):
        disc = (4 * x**3 - 3 * x**2 - 8 * x - 4) % p
        if disc == 0:
            count += 1
        elif pow(disc, (p - 1) // 2, p) == 1:
            count += 2
    return count


def sturm_bound(k: int, n1: int, n2: int) -> int:
    """floor(k i / 12) with i = n1 prod_{p | n1} (1 + 1/p) phi(n2), the
    index used for Gamma0(n1) n Gamma1(n2)."""
    index = Fraction(n1)
    for p in primes_upto(n1):
        if n1 % p == 0:
            index *= 1 + Fraction(1, p)
    index *= sum(1 for r in range(1, n2 + 1) if gcd(r, n2) == 1)
    return int(k * index / 12)
