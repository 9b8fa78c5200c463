"""Multi-index combinatorics: norms, factorials, componentwise binomials
and the bounded iterations behind every summation range.

Indices are plain tuples of nonnegative ints; length 3 for central indices,
length 4 for Q/P indices, length 7 for full ordered-monomial exponents.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import product
from typing import Iterable, Iterator

MultiIndex = tuple[int, ...]


def mi_norm(i: MultiIndex) -> int:
    return sum(i)


def mi_factorial(i: MultiIndex) -> int:
    out = 1
    for c in i:
        out *= math.factorial(c)
    return out


def mi_binom(i: MultiIndex, j: MultiIndex) -> int:
    """Product of componentwise binomial coefficients; 0 if any j_k > i_k."""
    if len(i) != len(j):
        raise ValueError(f"length mismatch: {len(i)} vs {len(j)}")
    out = 1
    for a, b in zip(i, j):
        out *= math.comb(a, b)
        if not out:
            return 0
    return out


def submultiindices(i: MultiIndex,
                    max_norm: int | None = None) -> Iterable[MultiIndex]:
    """All 0 <= m <= i componentwise, in lexicographic order; only those
    with norm <= max_norm when it is given, the others never formed, as a
    tuple built once per index and bound."""
    if max_norm is None:
        return product(*(range(c + 1) for c in i))
    return _bounded_submultiindices(tuple(i), max_norm)


@cache
def _bounded_submultiindices(i: MultiIndex,
                             max_norm: int) -> tuple[MultiIndex, ...]:
    if not i:
        return ((),) if max_norm >= 0 else ()
    return tuple((head,) + tail for head in range(min(i[0], max_norm) + 1)
                 for tail in _bounded_submultiindices(i[1:], max_norm - head))


def multiindices(length: int, max_norm: int) -> Iterator[MultiIndex]:
    """All indices of the given length with norm <= max_norm, lexicographic."""
    if length == 0:
        yield ()
        return
    for head in range(max_norm + 1):
        for tail in multiindices(length - 1, max_norm - head):
            yield (head,) + tail


def multiindices_of_norm(length: int, norm: int) -> Iterator[MultiIndex]:
    """All indices of the given length with norm exactly norm, lexicographic."""
    if length == 0:
        if norm == 0:
            yield ()
        return
    for head in range(norm + 1):
        for tail in multiindices_of_norm(length - 1, norm - head):
            yield (head,) + tail


def multiindices_graded(length: int, max_norm: int) -> Iterator[MultiIndex]:
    """All indices with norm <= max_norm, by increasing norm then lex."""
    for d in range(max_norm + 1):
        yield from multiindices_of_norm(length, d)
