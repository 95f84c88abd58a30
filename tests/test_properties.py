"""Property tests: the paired routes agree on random inputs.

Both H routes (reduced-form enumeration and the sieve) and both H_{m,M}
routes (direct sum and series product) are compared on drawn arguments,
with M != 7 so that the moduli differ from the ones the acceptance tests
fix; the series product is also compared with the whole product it skips
most of, over moduli up to 60, where theta_{m,M} may have no term or one.  The cache behind hmm_sum and hurwitz_series is reset before each
draw, so that the draws make it grow (it sieves only the indices it
lacks) and not only read a table some earlier test left behind.  The
correction series built by its factor-pair sieve is compared with its
per-coefficient definition, and the right side of the Hurwitz-Kronecker
relation, sieved, with its divisor loop per n.
"""

from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hcn7.hurwitz
from hcn7.arith import hk_rhs_series, lambda_series
from hcn7.hurwitz import (
    hmm_series,
    hmm_sum,
    hurwitz_single,
    twelfths_upto,
)
from oracles import composed_hmm_series, hk_rhs_oracle, lambda_coeff, sieved, values

PROPERTY = settings(deadline=None, max_examples=50, database=None)

moduli = st.integers(1, 12).filter(lambda M: M != 7)


# Table sizes, among them indices where a progression of the sieve starts
# (4a(a+1) - b^2 for 0 <= b <= a), the periodic start 4a(a+1) itself (b = 0)
# drawn as often as all other b together, and their neighbours.
progression_starts = st.builds(
    lambda a, b, shift: 4 * a * (a + 1) - min(a, b) ** 2 + shift,
    st.integers(1, 35),
    st.one_of(st.just(0), st.integers(1, 35)),
    st.integers(-1, 1),
)
table_sizes = st.one_of(st.integers(0, 5000), progression_starts.filter(lambda n: n <= 5000))


@contextmanager
def fresh_cache(n_max=0):
    """The H table cache starts from sieved(n_max) inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hcn7.hurwitz, "_cache", sieved(n_max))
        yield


@PROPERTY
@given(N=st.integers(0, 3000), extra=st.integers(0, 300))
def test_single_matches_sieve(N, extra):
    assert hurwitz_single(N) == sieved(N + extra)[N]


@PROPERTY
@given(n_max=st.integers(0, 3000))
def test_sieve_counts_twelfths_in_ints(n_max):
    twelfths = sieved(n_max)
    assert len(twelfths) == n_max + 1
    assert all(type(t) is int for t in twelfths)


@PROPERTY
@given(start=table_sizes, sizes=st.lists(table_sizes, min_size=1, max_size=4))
def test_cache_grown_by_range_matches_sieve(start, sizes):
    # the first growth sieves from index start + 1, a progression start
    # when start is one below it
    with fresh_cache(start):
        for size in sorted(sizes):
            twelfths = twelfths_upto(size)
            assert twelfths is hcn7.hurwitz._cache
            assert len(twelfths) > size
            assert twelfths == sieved(len(twelfths) - 1)
            assert all(type(t) is int for t in twelfths)


@PROPERTY
@given(
    M=moduli,
    m=st.integers(-30, 30),
    n=st.integers(0, 600),
    ahead=st.integers(0, 150),
)
def test_direct_sum_matches_product(M, m, n, ahead):
    order = n + ahead  # at most 750, the cap of hmm_series
    with fresh_cache():
        direct = hmm_sum(m, M, n)  # grows the table to >= 4n
        series = hmm_series(m, M, order)  # to 4 * order, if it lacks it
        assert series[n] == direct == hmm_sum(m, M, n)


# m in [-2M, 2M]: theta_{m,M} to 4 * 200 has no term when the classes +-m
# start past isqrt(800) = 28, and one term when only a = 0 or one a is in.
residues = st.integers(1, 60).flatmap(lambda M: st.tuples(st.integers(-2 * M, 2 * M), st.just(M)))


@PROPERTY
@given(spec=residues, order=st.integers(0, 200))
@example(spec=(30, 60), order=200)  # no term
@example(spec=(0, 60), order=200)  # one term, a = 0
@example(spec=(-59, 60), order=200)  # one term, a = 1
@example(spec=(29, 58), order=200)  # the classes +-m coincide, count 2
def test_product_walk_matches_composed_product_and_direct_sum(spec, order):
    m, M = spec
    with fresh_cache():
        series = hmm_series(m, M, order)
        assert values(series) == composed_hmm_series(m, M, order)
        direct = [hmm_sum(m, M, n) for n in range(order + 1)]
    exact = [series[n] for n in range(order + 1)]
    assert [(type(c), c) for c in exact] == [(type(d), d) for d in direct]


@PROPERTY
@given(M=moduli, n=st.integers(1, 1500))
def test_residue_sums_add_to_hurwitz_kronecker(M, n):
    with fresh_cache():
        total = sum(hmm_sum(m, M, n) for m in range(M))
    assert total == hk_rhs_oracle(n)


# Orders where the last factor d = isqrt(N) has no pair d < e in range.
perfect_squares = st.integers(1, 54).map(lambda k: k * k)


@PROPERTY
@given(N=st.one_of(st.integers(1, 3000), perfect_squares))
@example(N=1)
@example(N=2)
@example(N=3)
def test_hk_rhs_series_matches_divisor_loop(N):
    series = hk_rhs_series(N)
    assert series.coeffs == (0, *(hk_rhs_oracle(n) for n in range(1, N + 1)))
    assert all(type(c) is int for c in series.coeffs)


lambda_specs = st.integers(1, 12).flatmap(
    lambda M: st.tuples(st.sampled_from([1, 3, 5]), st.integers(0, M - 1), st.just(M))
)


@PROPERTY
@given(spec=lambda_specs, order=st.integers(0, 400))
def test_lambda_series_matches_its_coefficients(spec, order):
    expected = [0] + [lambda_coeff(*spec, n) for n in range(1, order + 1)]
    assert values(lambda_series(*spec, order)) == expected
