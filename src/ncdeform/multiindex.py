"""Multi-index combinatorics: norms, factorials, componentwise binomials
and the bounded iterations behind every summation range.

Indices are plain tuples of nonnegative ints; length 3 for central indices,
length 4 for Q/P indices, length 7 for full ordered-monomial exponents.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator

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


def submultiindices(i: MultiIndex) -> Iterator[MultiIndex]:
    """All 0 <= m <= i componentwise, in lexicographic order."""
    return product(*(range(c + 1) for c in i))


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
