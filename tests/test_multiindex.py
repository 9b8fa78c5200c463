import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdeform import (mi_binom, mi_factorial, mi_norm, multiindices,
                      multiindices_graded, submultiindices)


def test_norm_factorial_examples():
    assert (mi_norm((0, 0, 0)), mi_factorial((0, 0, 0))) == (0, 1)
    assert (mi_norm((2, 1, 0)), mi_factorial((2, 1, 0))) == (3, 2)
    assert (mi_norm((3, 3, 3)), mi_factorial((3, 3, 3))) == (9, 216)


def test_binom_examples():
    assert mi_binom((2, 1), (1, 1)) == 2
    assert mi_binom((3, 2, 5), (0, 0, 0)) == 1
    assert mi_binom((1, 0), (0, 1)) == 0
    with pytest.raises(ValueError, match="length mismatch"):
        mi_binom((1, 2), (1, 2, 3))


indices = st.lists(st.integers(0, 4), min_size=1, max_size=4).map(tuple)


@settings(max_examples=60, deadline=None)
@given(indices)
def test_vandermonde_sum(i):
    assert sum(mi_binom(i, m) for m in submultiindices(i)) == 2 ** sum(i)


@settings(max_examples=60, deadline=None)
@given(indices)
def test_binom_factorial_identity(i):
    for j in submultiindices(i):
        expected = 1
        for a, b in zip(i, j):
            expected *= math.factorial(a) // (
                math.factorial(b) * math.factorial(a - b))
        assert mi_binom(i, j) == expected


@settings(max_examples=60, deadline=None)
@given(st.one_of(indices, st.just(())), st.integers(-1, 6))
def test_bounded_submultiindices(i, max_norm):
    # Only the norm budget is enumerated, in the unbounded order.
    assert list(submultiindices(i, max_norm)) == [
        m for m in submultiindices(i) if sum(m) <= max_norm]


def test_iteration_order():
    subs = list(submultiindices((1, 2)))
    assert subs == sorted(subs)
    assert subs[0] == (0, 0) and subs[-1] == (1, 2)

    all_idx = list(multiindices(3, 2))
    assert all_idx == sorted(all_idx)
    assert len(all_idx) == 10

    graded = list(multiindices_graded(3, 2))
    assert [sum(i) for i in graded] == sorted(sum(i) for i in graded)
    assert set(graded) == set(all_idx)

