"""Series coefficients are ints over one denominator each builder states.

Each of the 25 series names of `hcn7 series` stands for one builder call.

The integer series have den 1, and a product of two of them is int work.
The divisor-sum side of Prop. 3.1 is integral and is built in ints.  The
H-series and both H_{m,M} routes have den 12, the correction series den 2,
and the exact value a series gives at n is an int exactly where it is
integral; the direct sum hmm_sum gives the same value of the same type.
Scaling by c / d keeps every numerator an int.
"""

import random
from fractions import Fraction

import pytest

from hcn7.arith import d_pa_series, d_series, lambda_series, prop31_rhs, psi_7, theta_mM
from hcn7.cli import _SERIES_BUILDERS, named_series
from hcn7.hurwitz import hmm_series, hmm_sum, hurwitz_series
from hcn7.newform49 import g_series
from hcn7.qseries import QSeries, series_mul, series_scale
from oracles import values

NAMES = (
    ["H", "D", "G", "Psi7"]
    + [f"D1_7_{a}" for a in range(7)]
    + [f"theta_{m}_7" for m in range(7)]
    + [f"Lambda_1_{m}_7" for m in range(7)]
)
INTEGER_NAMES = [n for n in NAMES if n != "H" and not n.startswith("Lambda")]
DEN = {"H": 12, **{f"Lambda_1_{m}_7": 2 for m in range(7)}}


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
    series = named_series(name, 60)
    assert all(type(c) is int for c in series.coeffs)
    assert series.den == DEN.get(name, 1)
    assert all(type(series[n]) in (int, Fraction) for n in range(61))


@pytest.mark.parametrize("name", INTEGER_NAMES)
def test_integer_series_stay_ints(name):
    series = named_series(name, 60)
    assert series.den == 1 and all(type(c) is int for c in series.coeffs)


@pytest.mark.parametrize("name", [n for n in NAMES if n not in INTEGER_NAMES])
def test_rational_series_give_ints_exactly_where_integral(name):
    series = named_series(name, 60)
    for n, value in enumerate(values(series)):
        assert type(series[n]) is (int if value.denominator == 1 else Fraction), n
        assert series[n] == value


def test_product_of_int_series_is_int():
    rng = random.Random(7)
    f = QSeries([rng.randint(-9, 9) for _ in range(80)])
    g = QSeries([rng.randint(-9, 9) for _ in range(60)])
    product = series_mul(f, g)
    assert product.order == 59
    assert product.den == 1 and all(type(c) is int for c in product.coeffs)
    # the same values whatever the operands' denominators
    assert product == series_mul(QSeries([3 * c for c in f.coeffs], 3), g)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("m", range(7))
def test_prop31_rhs_is_int(k, m):
    series = prop31_rhs(k, m, 300)
    assert series.den == 1 and all(type(c) is int for c in series.coeffs)


@pytest.mark.parametrize("M", [1, 2, 4, 7])
def test_hmm_routes_give_ints_exactly_where_integral(M):
    kinds = set()
    for m in range(M):
        series = hmm_series(m, M, 150)
        for n in range(151):
            value, direct = series[n], hmm_sum(m, M, n)
            assert direct == value, (m, n)
            kind = int if series.coeffs[n] % 12 == 0 else Fraction
            assert type(value) is kind and type(direct) is kind, (m, n)
            kinds.add(kind)
    assert kinds == {int, Fraction}


def test_scale_keeps_zeros_int():
    f = QSeries([0, 0, 6, 5, -2], 2)  # 0, 0, 3, 5/2, -1
    for c, d in ((7, 24), (-1, 4), (2, 1), (0, 1)):
        scaled = series_scale(f, c, d)
        assert values(scaled) == [Fraction(c, d) * a for a in values(f)]
        assert all(type(a) is int for a in scaled.coeffs)
        assert type(scaled[0]) is int and type(scaled[1]) is int
    assert [type(a) for a in series_scale(QSeries([0, 3, -2]), 5).coeffs] == [int] * 3
