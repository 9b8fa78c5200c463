"""Multi-index combinatorics: norms, factorials, componentwise binomials
and the bounded iterations behind every summation range.

Indices are plain tuples of nonnegative ints; length 3 for central indices,
length 4 for Q/P indices, length 7 for full ordered-monomial exponents.

Inner loops that add exponents pack a whole key into one int instead
(Layout): each exponent a fixed-width field, so the key of a product whose
exponents simply add is the sum of the two keys.  The tensor kernels of
hopf pack a key of leg monomials and h this way, and the closed star
product of dual packs a dual key (W^K, Y^L, h) as the one-leg tensor key
(K + L, h).
"""

from __future__ import annotations

import math
from functools import cache
from itertools import product
from operator import mul
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


class Memo(dict):
    """A dict that fills a missing key with fill(key)."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class Layout:
    """Packed integer keys for the terms of tensors of one arity.

    A key (m_1, ..., m_arity, h) becomes one int of fixed-width fields:
    the three exponents of h in the lowest bits, then the seven of each leg
    monomial, leg by leg.  Packing is linear, so the key of a term pair
    whose leg products are plain exponent sums is the sum of the two keys.
    Every field is width bits, which the caller chooses to hold the largest
    exponent any key it forms may reach, so no exponent carries into its
    neighbour: an exponent that outgrew its field would silently change
    another, not raise.  A layout is a shared value: it is built once per
    (arity, width) by key_layout, and its decoding memos fill across every
    caller.
    """

    def __init__(self, arity: int, width: int):
        w = self.width = width
        self.arity = arity
        self.weights = tuple(1 << w * i for i in range(7))
        self.hbits = 3 * w
        self.offsets = tuple(3 * w + 7 * w * i for i in range(arity))
        self.mono_mask = (1 << 7 * w) - 1
        # The Q/P fields of every leg; the rest of a key is its central part.
        self.qp_mask = sum(((1 << 4 * w) - 1) << off + 3 * w
                           for off in self.offsets)
        # Decoding memos: each distinct monomial and h exponent once.
        self.monos = Memo(lambda code: self.fields(code, 7))
        self.hs = Memo(lambda code: self.fields(code, 3))

    def code(self, fields: tuple) -> int:
        return sum(map(mul, fields, self.weights))

    def fields(self, code: int, count: int) -> tuple:
        w, mask = self.width, (1 << self.width) - 1
        return tuple(code >> w * i & mask for i in range(count))

    def decode(self, keys: list[int], nums: list[int]) -> dict[tuple, int]:
        """{key unpacked to (m_1, ..., m_arity, h): numerator} for the
        parallel lists keys and nums; built column by column."""
        monos, hs = self.monos, self.hs
        mask, hmask = self.mono_mask, (1 << self.hbits) - 1
        cols = [[monos[k >> off & mask] for k in keys] for off in self.offsets]
        cols.append([hs[k & hmask] for k in keys])
        return dict(zip(zip(*cols), nums))


@cache
def key_layout(arity: int, width: int) -> Layout:
    """The one layout of tensors of arity with fields of width bits."""
    return Layout(arity, width)
