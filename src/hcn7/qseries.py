"""Truncated q-series with exact rational coefficients.

A QSeries holds the coefficients a(0)..a(order) of a formal power series
sum_n a(n) q^n.  Coefficients beyond the truncation order are unknown, not
zero: binary operations return the minimum of the operand orders and never
fabricate terms.  a(n) = coeffs[n] / den: ints over one positive int den,
which each builder states (12 for H and H_{m,M}, 2 for the correction
series, else 1) and no operation reduces, so all arithmetic is int work
and equality is by value.  f[n] is the exact value, an int where den
divides it, else a fractions.Fraction, imported on that read.

Series arithmetic is spelled as functions only: series_add, series_sub,
series_scale and series_mul.  The coefficient operators act purely on
exponents and coefficient values, and keep den:

    op_u(f, M)               a(M n) re-indexed to n
    op_dilate(f, M, order)   a(n) moved to exponent M n <= order (q -> q^M)

series_add and series_sub are one C-level map over the two numerator
tuples over a common den, and the two operators are slices of the tuple
(f.coeffs[::M] and out[::M] = f.coeffs[: order // M + 1]), so none of
them loops in Python.  Sieving to a residue class, S_{M,r}, has no
operator: the identities that use it (verify's Theorem 3.5 rows and
arith.prop31_rhs) build each side on the classes it keeps, adding every
term to out[r::M] as one slice.

The product route of H_{m,M}, (H-series * theta_{m,M}) | U_4, does not
use series_mul: hurwitz.hmm_product packs the H table into big ints and
computes only the coefficients U_4 keeps.

chi_minus7 is the one character the paper uses, the quadratic character
mod 7.  MAX_H_INDEX caps every H(N) index the package tabulates, and with
it the internal order of the product route hurwitz.hmm_product.
"""

from __future__ import annotations

from itertools import compress, islice, repeat
from math import lcm
from operator import add, mul, sub

# Largest H(N) index anything tabulates.  Sized so that `table --pmax 10**6`
# and `newform --nmax 10**6` stay admissible.
MAX_H_INDEX = 4 * 10**6


def max_order() -> int:
    """Cap on the product route's internal order, an H index: MAX_H_INDEX."""
    return MAX_H_INDEX


class QSeries:
    """Immutable truncated power series in q: coeffs over den."""

    __slots__ = ("coeffs", "order", "den")

    def __init__(self, coeffs, den: int = 1):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        if den < 1:
            raise ValueError("den must be positive")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "order", len(cs) - 1)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    def __getitem__(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} unknown beyond order {self.order}")
        c = self.coeffs[n]
        if c % self.den == 0:
            return c // self.den
        from fractions import Fraction  # only here: int values never need it
        return Fraction(c, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries) or self.order != other.order:
            return False
        den = lcm(self.den, other.den)
        return tuple(numerators(self, den)) == tuple(numerators(other, den))

    __hash__ = None  # equal values may have other numerators and dens

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order >= 6 else ""
        return f"QSeries(order={self.order}, den={self.den}, [{head}{tail}])"


def numerators(f: QSeries, den: int):
    """f's numerators over den, a multiple of f.den: f.coeffs, or a map."""
    return f.coeffs if den == f.den else map(mul, f.coeffs, repeat(den // f.den))


def series_add(f: QSeries, g: QSeries) -> QSeries:
    """Coefficientwise sum over the least common denominator, truncated to
    the shorter operand (where map stops)."""
    den = lcm(f.den, g.den)
    return QSeries(map(add, numerators(f, den), numerators(g, den)), den)


def series_sub(f: QSeries, g: QSeries) -> QSeries:
    """Coefficientwise difference, as series_add."""
    den = lcm(f.den, g.den)
    return QSeries(map(sub, numerators(f, den), numerators(g, den)), den)


def series_scale(f: QSeries, c: int, den: int = 1) -> QSeries:
    """(c / den) times f, c an int and den a positive int: the numerators
    times c, over f.den * den."""
    return QSeries(map(mul, f.coeffs, repeat(c)), f.den * den)


def series_mul(f: QSeries, g: QSeries) -> QSeries:
    """Cauchy product up to min(f.order, g.order).

    The numerators multiply as ints, over f.den * g.den.  A nonzero
    coefficient c at index i of the sparser operand (the one with
    more zeros) adds the row c * b to out[i:] as a single C-level map
    (without the multiplication when c == 1).  The product costs one row
    add per nonzero of the sparser operand, which makes products with
    theta-like series (few nonzero terms) cheap.

    Kronecker substitution (Harvey 2009: pack each operand into one big
    int, multiply, unpack) pays only for dense products: 12*H squared at
    order 3000 took 6 ms against 0.16 s by row adds, but the 12*H series
    times theta_{1,7} at order 3000 (15 nonzeros in 3,001 slots) took
    1.6 ms for the big-int multiplication alone, against 1.5 ms for the
    whole product by row adds (CPython 3.11.7, a 2-core Xeon).  For a
    sparse factor, hurwitz.hmm_product packs the dense one and adds one
    shifted copy per nonzero instead.
    """
    order = min(f.order, g.order)
    a, b = f.coeffs[: order + 1], g.coeffs[: order + 1]
    if a.count(0) < b.count(0):
        a, b = b, a
    out = [0] * (order + 1)
    for i, c in compress(enumerate(a), a):
        row = b if c == 1 else map(mul, repeat(c), b)
        out[i:] = map(add, islice(out, i, None), row)
    return QSeries(out, f.den * g.den)


def op_u(f: QSeries, M: int) -> QSeries:
    """Extract every M-th coefficient: a(M n) at index n."""
    if M < 1:
        raise ValueError("M must be positive")
    if M == 1:
        return f
    return QSeries(f.coeffs[::M], f.den)


def op_dilate(f: QSeries, M: int, order: int) -> QSeries:
    """Substitute q -> q^M up to order: a(n) moves to exponent M n, zeros
    elsewhere.  f must reach order // M, the last n that lands within
    order, so that no term is invented."""
    if M < 1:
        raise ValueError("M must be positive")
    top = order // M
    if f.order < top:
        raise ValueError(f"cannot dilate order {f.order} by {M} to order {order}")
    out = [0] * (order + 1)
    out[::M] = f.coeffs[: top + 1]
    return QSeries(out, f.den)


# The quadratic character mod 7: +1 on {1,2,4}, -1 on {3,5,6}, 0 on 7Z.
_CHI_MINUS7 = (0, 1, 1, -1, 1, -1, -1)


def chi_minus7(n: int) -> int:
    """The non-principal real character mod 7 at n (odd: chi(-1) = -1)."""
    return _CHI_MINUS7[n % 7]
