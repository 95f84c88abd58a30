"""Fourier coefficients of the weight-2 level-49 CM newform (LMFDB 49.2.a.a).

Two fully independent routes to the prime coefficients a_p:

  * point counting on the attached elliptic curve
        y^2 + xy = x^3 - x^2 - 2x - 1
    over F_p, giving a_p = p + 1 - #E(F_p) for p != 7;

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

from dataclasses import dataclass
from math import isqrt
from typing import Callable, Iterator

from .primes import is_prime, primes_up_to
from .qseries import QSeries, chi_minus7


def ec_point_count(p: int) -> int:
    """#E(F_p), including the point at infinity.

    For odd p the y-count per x is 1 + legendre(disc) with
    disc = x^2 + 4 rhs = 4x^3 - 3x^2 - 8x - 4; p = 2 is done by
    exhaustive (x, y) enumeration to avoid dividing by 2.
    """
    if p == 7:
        raise ValueError("additive reduction at p = 7; a_7 is fixed separately")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        count = 1  # infinity
        for x in (0, 1):
            rhs = x**3 - x**2 - 2 * x - 1
            for y in (0, 1):
                if (y * y + x * y - rhs) % 2 == 0:
                    count += 1
        return count
    square = bytearray(p)
    for t in range(p // 2 + 1):
        square[t * t % p] = 1
    count = p + 1
    for x in range(p):
        disc = (((4 * x - 3) * x - 8) * x - 4) % p
        if disc:
            count += 1 if square[disc] else -1
    return count


_ap_cache: dict[int, int] = {7: 0}


def newform_ap(p: int) -> int:
    """a_p = p + 1 - #E(F_p) for good p; a_7 = 0."""
    ap = _ap_cache.get(p)
    if ap is None:
        ap = _ap_cache[p] = p + 1 - ec_point_count(p)
    return ap


@dataclass(frozen=True)
class NewformCoefficients:
    """a_1..a_n_max; a[0] is a padding zero so a[n] reads naturally."""

    a: tuple[int, ...]
    n_max: int

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"coefficient index {n} outside 1..{self.n_max}")
        return self.a[n]


def newform_an(n_max: int, ap: Callable[[int], int] = newform_ap) -> NewformCoefficients:
    """All a_n up to n_max via the Hecke recursion and multiplicativity,
    with each prime coefficient a_p (p != 7) from the route ap: newform_ap
    (point counts) or cm_ap (CM closed form)."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    spf = list(range(n_max + 1))  # smallest prime factor
    for p in range(2, isqrt(n_max) + 1):
        if spf[p] == p:
            for q in range(p * p, n_max + 1, p):
                if spf[q] == q:
                    spf[q] = p
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
    return NewformCoefficients(tuple(a), n_max)


@dataclass(frozen=True)
class Representation7:
    """The unique positive solution of p = x^2 + 7 y^2."""

    p: int
    x: int
    y: int

    def __post_init__(self):
        if self.x < 1 or self.y < 1 or self.p != self.x**2 + 7 * self.y**2:
            raise ValueError(f"({self.x}, {self.y}) does not represent {self.p}")


def represent_7(p: int) -> Representation7:
    """Find the unique (x, y) with x, y > 0 and p = x^2 + 7 y^2.

    Exists exactly for odd primes p = 1, 2, 4 (mod 7); a full scan over y
    is kept so that non-uniqueness would be detected, not silently eaten.
    """
    if not is_prime(p) or p == 2 or p == 7:
        raise ValueError("p must be an odd prime different from 7")
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
    x, y = hits[0]
    return Representation7(p, x, y)


def cm_ap(p: int) -> int:
    """a_p from the CM closed form, with no point counting for odd p.

    p = 2 is the one genuine exception: x^2 + 7y^2 never represents 2,
    so the value defers to the curve count.
    """
    if p == 2:
        return newform_ap(2)
    if p == 7:
        return 0
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p % 7 in (3, 5, 6):
        return 0
    rep = represent_7(p)
    return 2 * chi_minus7()(rep.x) * rep.x


def g_series(order: int) -> QSeries:
    """q-expansion of the newform, coefficient 0 at n = 0."""
    if order < 1:
        return QSeries.zero(order)
    # point counts, never cm_ap: the lemma42 check compares G against the
    # x^2 + 7y^2 lattice sum, so G must not be built from that lattice
    an = newform_an(order, newform_ap)
    return QSeries(an.a)


def ap_pairs(p_max: int) -> Iterator[tuple[int, int, int]]:
    """(p, a_p by point count, a_p by CM) for each odd prime p <= p_max, p != 7."""
    if p_max < 3:
        raise ValueError("p_max must be at least 3")
    return ((p, newform_ap(p), cm_ap(p)) for p in primes_up_to(p_max) if p not in (2, 7))


def cross_check_ap(p_max: int) -> list[int]:
    """Primes p <= p_max (odd, != 7) where the two a_p routes disagree."""
    return [p for p, ec, cm in ap_pairs(p_max) if ec != cm]
