"""Property tests: the paired routes agree on random inputs.

Both H routes (reduced-form enumeration and the sieve) and both H_{m,M}
routes (direct sum and series product) are compared on drawn arguments,
with M != 7 so that the moduli differ from the ones the acceptance tests
fix.  The cache behind hmm_sum and hurwitz_series is reset to its
one-entry start before each draw, so that the draws make it grow across
its first doubling boundaries (N = 1024, 2048) and not only read a table
some earlier test left behind.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcn7.hurwitz
from hcn7.hurwitz import (
    hmm_series,
    hmm_sum,
    hurwitz_batch,
    hurwitz_kronecker_lhs_rhs,
    hurwitz_single,
)

PROPERTY = settings(deadline=None, max_examples=50, database=None)

moduli = st.integers(1, 12).filter(lambda M: M != 7)


@contextmanager
def fresh_cache():
    """The H table cache starts from hurwitz_batch(0) inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hcn7.hurwitz, "_cache", hurwitz_batch(0))
        yield


@PROPERTY
@given(N=st.integers(0, 3000), extra=st.integers(0, 300))
def test_single_matches_sieve(N, extra):
    assert hurwitz_single(N) == hurwitz_batch(N + extra)[N]


@PROPERTY
@given(n_max=st.integers(0, 3000))
def test_sieve_counts_twelfths_in_ints(n_max):
    twelfths = hurwitz_batch(n_max).twelfths
    assert len(twelfths) == n_max + 1
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
        series = hmm_series(m, M, order)  # to >= 4 * order, maybe by doubling
        assert series[n] == direct == hmm_sum(m, M, n)


@PROPERTY
@given(M=moduli, n=st.integers(1, 1500))
def test_residue_sums_add_to_hurwitz_kronecker(M, n):
    with fresh_cache():
        total = sum(hmm_sum(m, M, n) for m in range(M))
    assert total == hurwitz_kronecker_lhs_rhs(n)[1]
