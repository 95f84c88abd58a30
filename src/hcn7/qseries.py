"""Truncated q-series with exact rational coefficients.

A QSeries holds the coefficients a(0)..a(order) of a formal power series
sum_n a(n) q^n.  Coefficients beyond the truncation order are unknown, not
zero: binary operations return the minimum of the operand orders and never
fabricate terms.  Coefficients are exact ints or fractions.Fraction, kept
as the builder gave them: an int and the equal Fraction compare and hash
alike, so every operation is exact and equality is by value.

The coefficient operators provided here act purely on exponents and
coefficient values:

    op_u(f, M)        a(M n) re-indexed to n
    op_dilate(f, M)   a(n) moved to exponent M n   (q -> q^M)
    op_sieve(f, M, r) keep exponents n == r (mod M)
    op_twist(f, chi)  multiply a(n) by chi(n), for any callable chi

series_mul_u(f, g, M) equals op_u(series_mul(f, g), M) but computes only
the coefficients op_u keeps; series_mul is its case M = 1.

chi_minus7 is the one character the paper uses, the quadratic character
mod 7.  MAX_H_INDEX caps every H(N) index the package tabulates, and with
it the internal order of the product route hurwitz.hmm_series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, islice, repeat
from operator import add, mul

# Exact rational scalar.  Series coefficients are exact ints or Fractions:
# an int is the ExactRational of denominator 1, equal to it and hashed alike.
ExactRational = Fraction

# Largest H(N) index anything tabulates.  Sized so that `table --pmax 10**6`
# and `newform --nmax 10**6` stay admissible.
MAX_H_INDEX = 4 * 10**6


def max_order() -> int:
    """Cap on the product route's internal order, an H index: MAX_H_INDEX."""
    return MAX_H_INDEX


class QSeries:
    """Immutable truncated power series in q."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "order", len(cs) - 1)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls([0] * (order + 1))

    def __getitem__(self, n: int) -> ExactRational:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} unknown beyond order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "QSeries") -> "QSeries":
        return series_add(self, other)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return series_sub(self, other)

    def __neg__(self) -> "QSeries":
        return series_scale(self, -1)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            return series_mul(self, other)
        return series_scale(self, other)

    def __rmul__(self, scalar) -> "QSeries":
        return series_scale(self, scalar)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order >= 6 else ""
        return f"QSeries(order={self.order}, [{head}{tail}])"


def series_add(f: QSeries, g: QSeries) -> QSeries:
    """Coefficientwise sum, truncated to the shorter operand."""
    order = min(f.order, g.order)
    return QSeries([f.coeffs[n] + g.coeffs[n] for n in range(order + 1)])


def series_sub(f: QSeries, g: QSeries) -> QSeries:
    order = min(f.order, g.order)
    return QSeries([f.coeffs[n] - g.coeffs[n] for n in range(order + 1)])


def series_scale(f: QSeries, c) -> QSeries:
    """c times each coefficient; a zero coefficient stays the int 0, equal
    to c * 0 and hashed alike, without building a Fraction zero."""
    return QSeries([c * a if a else 0 for a in f.coeffs])


def series_truncate(f: QSeries, order: int) -> QSeries:
    if order > f.order:
        raise ValueError(f"cannot extend order {f.order} to {order}")
    return QSeries(f.coeffs[: order + 1])


def series_mul(f: QSeries, g: QSeries) -> QSeries:
    """Cauchy product up to min(f.order, g.order): series_mul_u with M = 1."""
    return series_mul_u(f, g, 1)


def series_mul_u(f: QSeries, g: QSeries, M: int) -> QSeries:
    """(f * g) | U_M, the product's coefficients at M n re-indexed to n,
    for M n <= min(f.order, g.order), computing only those coefficients.

    One path serves int and Fraction coefficients: ints in, ints out.  A
    nonzero coefficient c at index i of the sparser operand (the one with
    more zeros) reaches kept coefficient k through b[M k - i], for every
    k >= ceil(i / M).  So it adds the row c * b[M k - i :: M] to out[k:],
    k = ceil(i / M), as a single C-level map (without the multiplication
    when c == 1).  The product costs one row add of about order / M terms
    per nonzero of the sparser operand, which makes products with
    theta-like series (few nonzero terms) cheap.

    Kronecker substitution (Harvey 2009: pack each operand into one big
    int, multiply, unpack) computes every coefficient of the product, so
    it cannot skip those U_M drops.  For the 12*H series times theta_{1,7}
    at order 3000 (15 nonzeros in 3,001 slots) the big-int multiplication
    alone took 1.6 ms, against 1.5 ms for the whole product by row adds
    and 0.6 ms for the 751 coefficients U_4 keeps (CPython 3.11.7, a
    2-core Xeon).  It pays for dense products: 12*H squared at order 3000
    took 6 ms against 0.16 s.
    """
    if M < 1:
        raise ValueError("M must be positive")
    order = min(f.order, g.order)
    a, b = f.coeffs[: order + 1], g.coeffs[: order + 1]
    if a.count(0) < b.count(0):
        a, b = b, a
    out = [0] * (order // M + 1)
    for i, c in compress(enumerate(a), a):
        k = -(-i // M)
        row = b[M * k - i :: M]
        if c != 1:
            row = map(mul, repeat(c), row)
        out[k:] = map(add, islice(out, k, None), row)
    return QSeries(out)


def series_qderiv(f: QSeries, s: int) -> QSeries:
    """s-fold application of q d/dq: coefficient a(n) becomes n^s a(n)."""
    if s < 0:
        raise ValueError("derivative order must be non-negative")
    if s == 0:
        return f
    return QSeries([(n**s) * c for n, c in enumerate(f.coeffs)])


def gen_binomial(x, r: int) -> ExactRational:
    """Generalized binomial x(x-1)...(x-r+1)/r!, exact for rational x."""
    if r < 0:
        raise ValueError("r must be non-negative")
    num = Fraction(1)
    x = Fraction(x)
    for i in range(r):
        num *= x - i
    return num / math.factorial(r)


def rankin_cohen(f: QSeries, k, g: QSeries, l, n: int) -> QSeries:
    """Bracket sum_{r+s=n} (-1)^s C(k+n-1,r) C(l+n-1,s) f^(s) g^(r).

    k and l are half-integer weights; level n = 0 is the plain product.
    """
    if n < 0:
        raise ValueError("bracket level must be non-negative")
    k = Fraction(k)
    l = Fraction(l)
    order = min(f.order, g.order)
    out = QSeries.zero(order)
    for r in range(n + 1):
        s = n - r
        coeff = gen_binomial(k + n - 1, r) * gen_binomial(l + n - 1, s)
        if s % 2:
            coeff = -coeff
        if not coeff:
            continue
        term = series_mul(series_qderiv(f, s), series_qderiv(g, r))
        out = series_add(out, series_scale(term, coeff))
    return out


def op_u(f: QSeries, M: int) -> QSeries:
    """Extract every M-th coefficient: a(M n) at index n."""
    if M < 1:
        raise ValueError("M must be positive")
    if M == 1:
        return f
    return QSeries([f.coeffs[M * n] for n in range(f.order // M + 1)])


def op_dilate(f: QSeries, M: int) -> QSeries:
    """Substitute q -> q^M: a(n) moves to exponent M n, zeros elsewhere.

    The resulting order is f.order * M; callers truncate what they need.
    """
    if M < 1:
        raise ValueError("M must be positive")
    if M == 1:
        return f
    out = [0] * (f.order * M + 1)
    out[::M] = f.coeffs
    return QSeries(out)


def op_sieve(f: QSeries, M: int, r: int) -> QSeries:
    """Keep coefficients at exponents n == r (mod M), zero the rest."""
    if M < 1:
        raise ValueError("M must be positive")
    r %= M
    return QSeries(
        [c if n % M == r else 0 for n, c in enumerate(f.coeffs)]
    )


def op_twist(f: QSeries, chi) -> QSeries:
    """Multiply the coefficient at n by chi(n)."""
    return QSeries([chi(n) * c for n, c in enumerate(f.coeffs)])


# The quadratic character mod 7: +1 on {1,2,4}, -1 on {3,5,6}, 0 on 7Z.
_CHI_MINUS7 = (0, 1, 1, -1, 1, -1, -1)


def chi_minus7(n: int) -> int:
    """The non-principal real character mod 7 at n (odd: chi(-1) = -1)."""
    return _CHI_MINUS7[n % 7]
