import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import strategies as st

from ncdeform import AlgebraElement, DeformParams, SeriesScalar

PARAM_SETS = [
    (Fraction(1), Fraction(1), Fraction(1)),
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(2), Fraction(1, 2), Fraction(-3)),
]


def assert_stored_once(t):
    """A term map's one storage: integer numerators over one positive
    denominator, no zero and no common factor; the terms view holds
    reduced nonzero Fractions, directly or as series coefficients."""
    assert t.den > 0 and all(t.nums.values())
    assert gcd(t.den, *t.nums.values()) == 1
    coeffs = [c for v in t.terms.values()
              for c in (v.terms.values() if isinstance(v, SeriesScalar)
                        else [v])]
    assert all(isinstance(c, Fraction) and c
               and gcd(c.numerator, c.denominator) == 1 for c in coeffs)


def params(alpha=1, beta=1, gamma=1, trunc=2) -> DeformParams:
    return DeformParams(Fraction(alpha), Fraction(beta), Fraction(gamma), trunc)


@pytest.fixture
def p111_d2() -> DeformParams:
    return params(1, 1, 1, 2)


def small_fractions():
    return st.fractions(min_value=-5, max_value=5, max_denominator=6)


def h_exponents(trunc: int):
    return st.tuples(st.integers(0, trunc), st.integers(0, trunc),
                     st.integers(0, trunc)).filter(lambda h: sum(h) <= trunc)


def series(trunc: int):
    return st.dictionaries(h_exponents(trunc), small_fractions(),
                           max_size=5).map(lambda d: SeriesScalar(d, trunc))


def invertible_series(trunc: int):
    return st.tuples(series(trunc),
                     small_fractions().filter(lambda c: c != 0)).map(
        lambda t: t[0] + SeriesScalar.from_rational(
            t[1] - t[0].constant(), trunc))


def random_element(rng: random.Random, p: DeformParams,
                   max_gen_degree: int = 2, n_terms: int = 3) -> AlgebraElement:
    out = AlgebraElement.zero(p)
    for _ in range(n_terms):
        mono = [0] * 7
        for _ in range(rng.randint(0, max_gen_degree)):
            mono[rng.randrange(7)] += 1
        h = [0, 0, 0]
        for _ in range(rng.randint(0, p.trunc)):
            h[rng.randrange(3)] += 1
        if sum(h) > p.trunc:
            continue
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        out = out + AlgebraElement.monomial(
            p, tuple(mono), SeriesScalar.monomial(tuple(h), coeff, p.trunc))
    return out
