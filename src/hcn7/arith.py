"""Divisor-sum and theta-type series.

Contents:

    d_series(order)          sum_{n>=1} sigma(n) q^n, sigma(n) = sum_{d|n} d
    hk_rhs_series(order)     sum_{n>=1} (2 sigma(n) - sum_{d|n} min(d, n/d)) q^n
    d_pa_series              the two-sided divisor sums
                                 phi_l^(p,a)(n) = sum_{d|n, d<=sqrt(n), d=-a (p)} d^l
                                                + sum_{d|n, d<sqrt(n),  d= a (p)} d^l
    lambda_series            the correction series built from
                             factorizations t^2 - s^2 = n
    prop31_rhs               the divisor-sum forms of the corrected series
                             after extracting every 4th coefficient, one
                             for each m = 0..6, each built only on the
                             residue classes mod 7 it keeps, from one set
                             of divisor series
    theta_terms              the nonzero terms of theta_mM, as (exponent, count)
    theta_mM                 sum over integers n = m (mod M) of q^(n^2)
    theta_chi1               weight-3/2 theta: coefficient chi(x) x at x^2
    psi_7                    lattice sum over x^2 + 7 y^2 = n of chi(x) x, halved

with chi = chi_minus7, the quadratic character mod 7, in the last two.

Everything is exact; square-root boundaries are decided by integer
comparison (d*d <= n), never by floating point.

The divisor-type builders (d_series, hk_rhs_series, d_pa_series,
lambda_series and the lopsided part of prop31_rhs) sieve: for each small
factor, the n it contributes to form an arithmetic progression, which is
a slice of the coefficient list, and the contribution is added to the
whole slice as one C-level map(add, ...).  The element-wise loops they
replace are kept in tests/oracles.py as their references.
"""

from __future__ import annotations

from itertools import repeat
from math import isqrt
from operator import add, mul

from .qseries import QSeries, chi_minus7


def d_series(order: int) -> QSeries:
    """Generating series of sigma(n), with constant term 0.

    Sieved over factor pairs d e = n, d <= e, as hk_rhs_series is: the pair
    contributes d + e, or d alone when d = e.  For each d the pairs with
    e > d sit at n = d e, a slice of step d, to which d + e is added as one
    C-level map.  (One slice per divisor d <= order, each adding d, took
    longer than the element-wise loop: most of those slices are short.)
    """
    coeffs = [0] * (order + 1)
    for d in range(1, isqrt(order) + 1):
        coeffs[d * d] += d
        tail = slice(d * (d + 1), None, d)
        coeffs[tail] = map(add, coeffs[tail], range(2 * d + 1, d + order // d + 1))
    return QSeries(coeffs)


def hk_rhs_series(order: int) -> QSeries:
    """Right side of the Hurwitz-Kronecker relation,
    2 sigma(n) - sum_{d|n} min(d, n/d), with constant term 0.

    Sieved over factor pairs d e = n, d <= e: the pair {d, e} contributes
    2d + 2e - 2 min(d, e) = 2e when d < e, and 2d - d = d when d = e.  For
    each d the pairs with e > d sit at n = d e, a slice of step d, added
    as one C-level map.
    """
    coeffs = [0] * (order + 1)
    for d in range(1, isqrt(order) + 1):
        coeffs[d * d] += d
        tail = slice(d * (d + 1), None, d)
        coeffs[tail] = map(add, coeffs[tail], range(2 * (d + 1), 2 * (order // d) + 1, 2))
    return QSeries(coeffs)


def d_pa_series(l: int, p: int, a: int, order: int) -> QSeries:
    """Series of phi_l^(p,a)(n), built by sieving over factor pairs d*e = n.

    d <= sqrt(n) iff d <= e, and d < sqrt(n) iff d < e, so the boundary
    term (d = e) enters only through the -a class.  For each d the pairs
    sit at n = d e, a slice of step d from d^2 (class -a) or from d(d + 1)
    (class a), and d^l is added to the whole slice as one C-level map.
    """
    coeffs = [0] * (order + 1)
    for d in range(1, isqrt(order) + 1):
        dl = repeat(d**l)
        if (d + a) % p == 0:
            coeffs[d * d :: d] = map(add, coeffs[d * d :: d], dl)
        if (d - a) % p == 0:
            coeffs[d * (d + 1) :: d] = map(add, coeffs[d * (d + 1) :: d], dl)
    return QSeries(coeffs)


def lambda_series(l: int, m: int, M: int, order: int) -> QSeries:
    """Correction series built from factorizations t^2 - s^2 = n, n >= 1.

    Writing n = u v with u <= v of equal parity gives t = (u+v)/2,
    s = (v-u)/2 and contribution (t-s)^l = u^l.  A term with s = 0
    (n a perfect square) carries weight 1/2.  The two sign branches
    t = +m and t = -m (mod M) are both summed even when the residue
    classes coincide, so m = 0 contributes each solution twice.

    Built by sieving over the factor pairs n = u v, in doubled weights,
    which are the series' numerators over den 2.  The term v = u is added
    alone.  For
    fixed u the v > u whose t lies in one branch's class step by 2M, so
    their n = u v form a slice of step 2uM, to which 2u^l is added as one
    C-level map.
    """
    doubled = [0] * (order + 1)
    for u in range(1, isqrt(order) + 1):
        ul = u**l
        for target in (m, -m):
            if (u - target) % M == 0:  # v = u, t = u
                doubled[u * u] += ul
            t = u + 1 + (target - u - 1) % M  # least t > u in the class
            tail = slice(u * (2 * t - u), None, 2 * u * M)
            doubled[tail] = map(add, doubled[tail], repeat(2 * ul))
    return QSeries(doubled, 2)


def _lopsided_series(l: int, p: int, m: int, order: int) -> QSeries:
    """sum over pairs d e = n with p | d, d < e and e = +-m (mod p) of d^l.

    This is the residue-class-0 contribution coming from factorizations
    whose p-divisible member is the smaller one; no phi-type divisor sum
    at n or n/p reproduces it because the boundary sits at sqrt(n/p),
    not sqrt(n).  For each d and each of the classes +-m (once when they
    coincide) the e > d of the class step by p, so their n = d e form a
    slice of step d p, to which d^l is added as one C-level map.
    """
    coeffs = [0] * (order + 1)
    for d in range(p, isqrt(order) + 1, p):
        dl = d**l
        for c in {m % p, -m % p}:
            e = d + 1 + (c - d - 1) % p  # least e > d in the class
            tail = slice(d * e, None, d * p)
            coeffs[tail] = map(add, coeffs[tail], repeat(dl))
    return QSeries(coeffs)


def prop31_rhs(k: int, order: int) -> list[QSeries]:
    """Divisor-sum expressions equal to lambda_series(2k+1, m, 7) | U_4, for
    m = 0..6, at index m.

    For m != 0 (mod 7):

        2^(2k+1) [ sum_{a != +-m (7)} (1/2)(D^(7,(m-a)/2) + D^(7,(a-m)/2))
                                          | S_{7,(m^2-a^2)/4}
                   + (1/2)(D^(7,m) + D^(7,-m)) | S_{7,0}
                   + sum_{d e = n, 7 | d, d < e, e = +-m (7)} d^(2k+1) ]

    and for m == 0 (mod 7):

        2^(2k+1) [ sum_{a != 0 (7)} D^(7,a/2) | S_{7,-a^2/4}
                   + 7^(2k+1) (D^(1,0) dilated by 49) ]

    The residue divisions by 2 and 4 are carried out mod 7.  On residue
    class 0 the m != 0 case splits by which member of the factor pair is
    divisible by 7: the half-sum covers pairs whose smaller member lies
    in class +-m, the lopsided sum those whose smaller member is
    7-divisible.  Both halves (and the dilation reading of the m = 0
    tail) are forced numerically by the factorization side.

    No D^(7,0) appears, so the six D^(7,c), c = 1..6, and the m = 0
    tail's base D^(1,0) to order // 49 are built once for all seven m.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    l = 2 * k + 1
    d = {c: d_pa_series(l, 7, c, order).coeffs for c in range(1, 7)}
    base = d_pa_series(l, 1, 0, order // 49).coeffs
    return [_prop31_side(l, m, d, base, order) for m in range(7)]


def _prop31_side(l: int, m: int, d: dict[int, tuple[int, ...]], base: tuple[int, ...], order: int) -> QSeries:
    """prop31_rhs at m, from d[c], the coefficients of D^(7,c)_l, and base,
    those of D^(1,0)_l to order // 49.

    The side starts from the m = 0 tail on the multiples of 49, or from
    the lopsided sum (on class 0 by its construction); each D term that
    S_{7,s} keeps is then added to the exponents n = s (mod 7) as one
    C-level map over that slice, so no D is read off its class.
    """
    p, inv2, inv4 = 7, 4, 2  # 2 * 4 = 4 * 2 = 1 (mod 7)
    if m == 0:
        out = [0] * (order + 1)
        out[:: p * p] = map(mul, base, repeat(p**l))
        terms = [(-a * a * inv4 % p, (a * inv2 % p,)) for a in range(1, p)]
        scale = 2**l
    else:
        # out holds twice the bracket, so that it stays in ints
        out = [2 * c for c in _lopsided_series(l, p, m, order).coeffs]
        terms = [
            ((m * m - a * a) * inv4 % p, ((m - a) * inv2 % p, (a - m) * inv2 % p))
            for a in range(p)
            if a not in (m, p - m)
        ]
        terms.append((0, (m, p - m)))
        scale = 2 ** (l - 1)
    for s, classes in terms:
        for c in classes:
            out[s::p] = map(add, out[s::p], d[c][s::p])
    return QSeries(map(mul, out, repeat(scale)))


def theta_terms(m: int, M: int, order: int) -> list[tuple[int, int]]:
    """The nonzero terms of theta_{m,M} to order, as (a^2, count) pairs.

    For a >= 0 the count is the number of n in {a, -a} with n = m (mod M):
    a runs over the classes m and -m (mod M) once each, and over their one
    class twice when they coincide, except that a = 0 is a single n.
    """
    if M < 1:
        raise ValueError("M must be positive")
    r = isqrt(order)
    lo, hi = sorted((m % M, -m % M))
    if lo != hi:
        return [(a * a, 1) for a in range(lo, r + 1, M)] + [(a * a, 1) for a in range(hi, r + 1, M)]
    terms = [(a * a, 2) for a in range(lo, r + 1, M)]
    if lo == 0 and terms:
        terms[0] = (0, 1)
    return terms


def theta_mM(m: int, M: int, order: int) -> QSeries:
    """Count integers n = m (mod M), both signs, at exponent n^2."""
    coeffs = [0] * (order + 1)
    for e, c in theta_terms(m, M, order):
        coeffs[e] = c
    return QSeries(coeffs)


def theta_chi1(order: int) -> QSeries:
    """Halved signed theta (1/2) sum_x chi(x) x q^(x^2), chi = chi_minus7.

    chi is odd, so the x and -x terms agree: the coefficient at x^2 is
    chi(x) x for x >= 1 and the result has integer coefficients.
    """
    coeffs = [0] * (order + 1)
    for x in range(1, isqrt(order) + 1):
        coeffs[x * x] = chi_minus7(x) * x
    return QSeries(coeffs)


def psi_7(order: int) -> QSeries:
    """Halved lattice sum of chi(x) x over x^2 + 7 y^2 = n, all (x, y),
    chi = chi_minus7.

    Direct enumeration; the +-x pairing absorbs the 1/2 exactly as in
    theta_chi1, while y runs over both signs independently.
    """
    coeffs = [0] * (order + 1)
    ymax = isqrt(order // 7)
    for y in range(-ymax, ymax + 1):
        rest = order - 7 * y * y
        for x in range(1, isqrt(rest) + 1):
            coeffs[x * x + 7 * y * y] += chi_minus7(x) * x
    return QSeries(coeffs)
