"""Per-coefficient oracles that the tests compare the package's sieves
against, and the literal-U negative control of Lemma 4.2.

Each oracle computes one coefficient by its definition, with a plain
divisor loop, and shares no code with the series builder it checks.
"""

import time
from fractions import Fraction
from math import isqrt

from hcn7.arith import psi_7
from hcn7.newform49 import g_series, newform_ap
from hcn7.qseries import op_u, series_add, series_scale, series_sub, series_truncate
from hcn7.verify import VerificationReport, compare


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


def newform_an_oracle(n: int) -> int:
    """a_n of the level-49 newform for one n >= 1: the reference for
    newform49.newform_an.

    n is factored by trial division; each a(p^k) comes from newform_ap by
    the Hecke recursion a(p^(k+1)) = a_p a(p^k) - p a(p^(k-1)), a(7^k) = 0
    for k >= 1, and the prime powers multiply.
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
            ap = newform_ap(p)
            prev, cur = 1, ap  # a(p^0), a(p^1)
            for _ in range(k - 1):
                prev, cur = cur, ap * cur - p * prev
            an *= cur
        p += 1
    return an


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
    rhs = series_sub(series_truncate(g, order), op_u(g, 2))
    rhs = series_add(rhs, series_scale(op_u(g, 4), 4))
    return compare("lemma42.literal-u", order, start, psi_7(order), rhs)
