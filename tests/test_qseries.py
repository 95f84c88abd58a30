"""Series arithmetic, operators, and their algebraic properties."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcn7.qseries import (
    QSeries,
    chi_minus7,
    op_dilate,
    op_u,
    series_add,
    series_mul,
    series_scale,
    series_sub,
)
from oracles import op_sieve, values


def rand_series(rng, max_order=200, density=0.5):
    # values r / q, q in 1..9, as numerators over lcm(1..9) = 2520
    order = rng.randint(0, max_order)
    coeffs = [
        rng.randint(-9, 9) * (2520 // rng.randint(1, 9))
        if rng.random() < density
        else 0
        for _ in range(order + 1)
    ]
    return QSeries(coeffs, 2520)


def test_exact_rational_invariants():
    # a coefficient's value is in lowest terms with a positive denominator
    x = QSeries([-6], 8)[0]
    assert type(x) is Fraction and (x.numerator, x.denominator) == (-3, 4)
    assert QSeries([-16], 8)[0] == -2 and type(QSeries([-16], 8)[0]) is int
    # sums are exact, over the least common denominator, and equal by value
    total = series_add(QSeries([1], 3), QSeries([1], 6))
    assert (total.coeffs, total.den) == ((3,), 6)
    assert total == QSeries([1], 2)
    assert total != QSeries([1], 3)


def test_construction_invariants():
    f = QSeries([2, 1, 0], 2)
    assert f.order == 2 and len(f.coeffs) == f.order + 1
    assert f.coeffs == (2, 1, 0) and f.den == 2
    assert (f[0], f[1], f[2]) == (1, Fraction(1, 2), 0) and type(f[0]) is int
    assert QSeries([5]).den == 1
    for den in (0, -2):
        with pytest.raises(ValueError, match="den must be positive"):
            QSeries([1], den)
    with pytest.raises(ValueError):
        QSeries([])
    with pytest.raises(IndexError):
        f[3]
    with pytest.raises(AttributeError):
        f.order = 5


def test_add_examples():
    one_plus = QSeries([1, 1])
    one_minus = QSeries([1, -1])
    assert series_add(one_plus, one_minus) == QSeries([2, 0])
    f = QSeries([3, 1, 4, 1, 5])
    assert series_add(f, QSeries([0] * 5)) == f
    # truncation: orders (5, 2) give order 2
    g = series_add(QSeries([0, 1, 1, 0, 0, 0]), QSeries([0, 1, 0]))
    assert g == QSeries([0, 2, 1])


def test_mul_examples():
    assert series_mul(QSeries([1, 1]), QSeries([1, -1])) == QSeries([1, 0])
    f = QSeries([2, 3, 5])
    assert series_mul(f, QSeries([1, 0, 0])) == f
    assert series_mul(QSeries([1, 1, 1]), QSeries([1, 1, 1])) == QSeries([1, 2, 3])


def test_theta_square_counts_lattice_points():
    # theta0^2 counts pairs (a, b) with a^2 + b^2 = n; oracle by enumeration
    order = 10
    theta0 = QSeries([0] * (order + 1))
    coeffs = [0] * (order + 1)
    for a in range(-3, 4):
        if a * a <= order:
            coeffs[a * a] += 1
    theta0 = QSeries(coeffs)
    sq = series_mul(theta0, theta0)
    for n in range(order + 1):
        r2 = sum(
            1
            for a in range(-4, 5)
            for b in range(-4, 5)
            if a * a + b * b == n
        )
        assert sq[n] == r2
    assert sq[5] == 8


def test_op_u():
    f = QSeries([0, 1, 2, 3, 4, 5, 6])
    assert op_u(f, 1) == f
    assert op_u(f, 2) == QSeries([0, 2, 4, 6])
    assert op_u(f, 3) == QSeries([0, 3, 6])


def test_op_dilate():
    f = QSeries([1, 2, 3])
    assert op_dilate(f, 1, 2) == f
    d = op_dilate(f, 3, 6)
    assert d.order == 6
    assert d == QSeries([1, 0, 0, 2, 0, 0, 3])


def test_op_dilate_cap():
    f = QSeries([1] * 8)
    d = op_dilate(f, 4, 13)
    assert d.order == 13  # stops at the order asked for
    assert d[0] == 1 and d[4] == 1 and d[8] == 1 and d[12] == 1 and d[5] == 0
    assert op_dilate(f, 4, 31).order == 31  # 31 // 4 = 7 = f.order
    with pytest.raises(ValueError, match="cannot dilate"):
        op_dilate(f, 4, 32)  # would need a(8), past f.order: never invented


def test_op_sieve():
    f = QSeries([1] * 15)
    assert op_sieve(f, 1, 0) == f
    s = op_sieve(f, 7, 3)
    assert [n for n, c in enumerate(s.coeffs) if c] == [3, 10]
    assert op_sieve(f, 7, 10) == s  # residue reduced mod M


def test_u_inverts_dilate():
    rng = random.Random(11)
    for _ in range(100):
        f = rand_series(rng, max_order=100)
        M = rng.randint(1, 10)
        assert op_u(op_dilate(f, M, f.order * M), M) == f


def test_sieve_partition():
    rng = random.Random(13)
    for _ in range(100):
        f = rand_series(rng)
        M = rng.randint(1, 12)
        total = QSeries([0] * (f.order + 1))
        for r in range(M):
            total = series_add(total, op_sieve(f, M, r))
        assert total == f


def test_mul_commutative_and_associative():
    rng = random.Random(19)
    for _ in range(60):
        f = rand_series(rng, max_order=40)
        g = rand_series(rng, max_order=40)
        h = rand_series(rng, max_order=40)
        assert series_mul(f, g) == series_mul(g, f)
        assert series_mul(series_mul(f, g), h) == series_mul(f, series_mul(g, h))


def schoolbook_mul(f, g):
    """Reference Cauchy product: the plain double loop over both operands."""
    order = min(f.order, g.order)
    out = [0] * (order + 1)
    for i in range(order + 1):
        c = f.coeffs[i]
        if not c:
            continue
        for j in range(order - i + 1):
            d = g.coeffs[j]
            if d:
                out[i + j] += c * d
    return out


# Numerators: zero, one (a row added without a product), small and
# negative ints and ints beyond 2^64; a list may mix them all.  The
# denominators are the package's own, 1, 2, 12 and 24, and any up to 30.
coefficients = st.one_of(
    st.just(0),
    st.just(1),
    st.integers(-9, 9),
    st.integers(-(2**80), 2**80),
)
denominators = st.one_of(st.sampled_from([1, 2, 12, 24]), st.integers(1, 30))
series = st.builds(
    QSeries,
    st.one_of(
        st.lists(coefficients, min_size=1, max_size=40),
        st.integers(1, 40).map(lambda n: [0] * n),
    ),
    denominators,
)


@settings(deadline=None, max_examples=300, database=None)
@given(series, series)
def test_mul_matches_schoolbook(f, g):
    product = series_mul(f, g)
    assert product.order == min(f.order, g.order)
    assert list(product.coeffs) == schoolbook_mul(f, g) and product.den == f.den * g.den
    assert all(type(c) is int for c in product.coeffs)
    vf, vg = values(f), values(g)
    assert values(product) == [sum(vf[i] * vg[n - i] for i in range(n + 1)) for n in range(product.order + 1)]


@settings(deadline=None, max_examples=200, database=None)
@given(series, series)
def test_add_sub_match_elementwise(f, g):
    # orders differ in most draws: the result stops at the shorter one
    order = min(f.order, g.order)
    for op, ref in ((series_add, lambda a, b: a + b), (series_sub, lambda a, b: a - b)):
        want = [ref(a, b) for a, b in zip(values(f), values(g))]
        got = op(f, g)
        assert got.order == order
        assert values(got) == want and all(type(c) is int for c in got.coeffs)
        assert got.den == f.den * g.den // gcd(f.den, g.den)


@settings(deadline=None, max_examples=200, database=None)
@given(series, st.integers(1, 50), st.integers(-60, 60))
def test_sieve_and_u_match_elementwise(f, M, r):
    # M ranges past the orders drawn (at most 39), r over negative values too
    sieved = op_sieve(f, M, r)
    want = [c if n % M == r % M else 0 for n, c in enumerate(f.coeffs)]
    assert list(sieved.coeffs) == want and sieved.den == f.den
    assert all(type(c) is int for c in sieved.coeffs)
    u = op_u(f, M)
    assert list(u.coeffs) == [f.coeffs[M * n] for n in range(f.order // M + 1)] and u.den == f.den
    if M == 1:
        assert op_u(f, M) is f and sieved == f


def test_sieve_and_u_examples():
    f = QSeries([7, 42, -10, 0, 126], 14)  # 1/2, 3, -5/7, 0, 9
    assert op_sieve(f, 3, -1) == QSeries([0, 0, -10, 0, 0], 14)
    assert op_sieve(f, 9, 4) == QSeries([0, 0, 0, 0, 9])  # M past the order
    assert op_sieve(f, 2, 1).coeffs == (0, 42, 0, 0, 0)
    assert values(op_u(f, 9)) == [Fraction(1, 2)]
    assert values(op_u(f, 2)) == [Fraction(1, 2), Fraction(-5, 7), 9]
    assert series_sub(f, QSeries([1, 6], 2)) == QSeries([0, 0])


def test_scale_truncate_operators():
    f = QSeries([1, 2, 3, 4])
    assert values(series_scale(f, -3)) == [-3, -6, -9, -12]
    assert series_scale(QSeries([1, 2], 3), 5) == QSeries([5, 10], 3)  # den kept
    assert op_dilate(f, 1, 1) == QSeries([1, 2])  # q -> q^1 truncates
    with pytest.raises(ValueError):
        op_dilate(f, 1, 9)
    assert series_sub(f, f) == QSeries([0] * 4)
    assert series_scale(f, 2) == QSeries([2, 4, 6, 8])


def test_character_validation():
    assert [chi_minus7(n) for n in range(7)] == [0, 1, 1, -1, 1, -1, -1]
    assert chi_minus7(-1) == -1 and chi_minus7(9) == 1
