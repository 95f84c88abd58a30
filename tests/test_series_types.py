"""Series coefficients are exact ints or Fractions, kept as built.

Each of the 25 series names of `hcn7 series` stands for one builder call.

QSeries stores what a builder hands it, so the integer series stay ints
and a product of two int series is int work.  The divisor-sum side of
Prop. 3.1 is integral and is built in ints.  The H-series, the
correction series and both H_{m,M} routes give an int exactly where the
value is integral.  Scaling leaves a zero the int 0.
"""

import random
from fractions import Fraction

import pytest

from hcn7.arith import d_pa_series, d_series, lambda_series, prop31_rhs, psi_7, theta_mM
from hcn7.cli import _SERIES_BUILDERS, named_series
from hcn7.hurwitz import hmm_series, hmm_sum, hurwitz_series
from hcn7.newform49 import g_series
from hcn7.qseries import QSeries, series_mul, series_scale

NAMES = (
    ["H", "D", "G", "Psi7"]
    + [f"D1_7_{a}" for a in range(7)]
    + [f"theta_{m}_7" for m in range(7)]
    + [f"Lambda_1_{m}_7" for m in range(7)]
)
INTEGER_NAMES = [n for n in NAMES if n != "H" and not n.startswith("Lambda")]


def direct(name: str, order: int) -> QSeries:
    """The builder call a series name stands for, read off the name."""
    if name.startswith("D1_7_"):
        return d_pa_series(1, 7, int(name[5:]), order)
    if name.startswith("theta_"):
        return theta_mM(int(name[6:-2]), 7, order)
    if name.startswith("Lambda_1_"):
        return lambda_series(1, int(name[9:-2]), 7, order)
    return {"H": hurwitz_series, "D": d_series, "G": g_series, "Psi7": psi_7}[name](order)


def test_the_accepted_names_are_exactly_the_25():
    assert len(NAMES) == 25
    assert sorted(_SERIES_BUILDERS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_named_series_is_its_builder(name):
    assert named_series(name, 30) == direct(name, 30)


@pytest.mark.parametrize("name", NAMES)
def test_every_named_series_is_exact(name):
    assert all(type(c) in (int, Fraction) for c in named_series(name, 60).coeffs)


@pytest.mark.parametrize("name", INTEGER_NAMES)
def test_integer_series_stay_ints(name):
    assert all(type(c) is int for c in named_series(name, 60).coeffs)


@pytest.mark.parametrize("name", [n for n in NAMES if n not in INTEGER_NAMES])
def test_rational_series_give_ints_exactly_where_integral(name):
    for value in named_series(name, 60).coeffs:
        assert type(value) is (int if Fraction(value).denominator == 1 else Fraction), value


def test_product_of_int_series_is_int():
    rng = random.Random(7)
    f = QSeries([rng.randint(-9, 9) for _ in range(80)])
    g = QSeries([rng.randint(-9, 9) for _ in range(60)])
    product = series_mul(f, g)
    assert product.order == 59
    assert all(type(c) is int for c in product.coeffs)
    assert product == series_mul(QSeries(map(Fraction, f.coeffs)), g)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("m", range(7))
def test_prop31_rhs_is_int(k, m):
    assert all(type(c) is int for c in prop31_rhs(k, m, 300).coeffs)


@pytest.mark.parametrize("M", [1, 2, 4, 7])
def test_hmm_routes_give_ints_exactly_where_integral(M):
    kinds = set()
    for m in range(M):
        for n, value in enumerate(hmm_series(m, M, 150).coeffs):
            direct = hmm_sum(m, M, n)
            assert direct == value, (m, n)
            kind = int if Fraction(value).denominator == 1 else Fraction
            assert type(value) is kind and type(direct) is kind, (m, n)
            kinds.add(kind)
    assert kinds == {int, Fraction}


def test_scale_keeps_zeros_int():
    f = QSeries([0, Fraction(0), 3, Fraction(5, 2), -1])
    for c in (Fraction(7, 24), Fraction(-1, 4), 2, Fraction(0)):
        scaled = series_scale(f, c)
        assert scaled == QSeries([c * a for a in f.coeffs])
        assert type(scaled[0]) is int and type(scaled[1]) is int
    assert [type(a) for a in series_scale(QSeries([0, 3, -2]), 5).coeffs] == [int] * 3
