from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdeform import (AlgebraElement, DualElement, InvalidParamsError,
                      NonInvertibleSeriesError, ParamsMismatchError,
                      SeriesScalar, TensorElement, TruncationMismatchError,
                      WedgeElement, from_z_basis, parse_rational)

from conftest import (assert_stored_once, h_exponents, invertible_series,
                      params, series, small_fractions)


def s(trunc, **terms):
    parsed = {}
    for key, val in terms.items():
        h = tuple(int(c) for c in key.strip("h"))
        parsed[h] = Fraction(val)
    return SeriesScalar(parsed, trunc)


def test_add_examples():
    one, h1 = SeriesScalar.one(2), SeriesScalar.hbar(1, 2)
    assert (one + h1) + (-h1) == one
    x = s(2, h110=Fraction(3, 7))
    assert SeriesScalar.zero(2) + x == x
    half_h2 = SeriesScalar.monomial((0, 1, 0), Fraction(1, 2), 2)
    assert half_h2 + half_h2 == SeriesScalar.hbar(2, 2)


def test_mul_truncation():
    def one_plus(i, trunc):
        return SeriesScalar.one(trunc) + SeriesScalar.hbar(i, trunc)
    assert one_plus(1, 1) * one_plus(2, 1) == s(
        1, h000=1, h100=1, h010=1)
    assert one_plus(1, 2) * one_plus(2, 2) == s(
        2, h000=1, h100=1, h010=1, h110=1)
    x = s(2, h100=2, h011=Fraction(-1, 3))
    assert x * SeriesScalar.zero(2) == SeriesScalar.zero(2)


def test_inv_examples():
    one, h1 = SeriesScalar.one(2), SeriesScalar.hbar(1, 2)
    assert (one + h1).inv() == s(2, h000=1, h100=-1, h200=1)
    assert SeriesScalar.from_rational(2, 2).inv() == \
        SeriesScalar.from_rational(Fraction(1, 2), 2)
    # Multiply-back oracle first, then the frozen expansion.
    x = one + h1 + SeriesScalar.hbar(2, 2)
    assert x * x.inv() == one
    assert x.inv() == s(2, h000=1, h100=-1, h010=-1,
                              h200=1, h110=2, h020=1)


def test_inv_zero_constant_term():
    with pytest.raises(NonInvertibleSeriesError):
        SeriesScalar.hbar(1, 2).inv()
    with pytest.raises(NonInvertibleSeriesError):
        SeriesScalar.zero(3).inv()


def test_limit_examples():
    x = s(2, h000=1, h100=1, h011=1)
    assert x.limit({2, 3}) == s(2, h000=1, h100=1)
    assert x.limit(set()) == x
    assert SeriesScalar.hbar(2, 1).limit({2}) == SeriesScalar.zero(1)


def test_coeff_examples():
    x = s(1, h000=1, h100=3)
    assert x.coeff((1, 0, 0)) == 3
    assert SeriesScalar.one(1).coeff((0, 1, 0)) == 0
    sq = s(2, h000=1, h100=1) * s(2, h000=1, h100=1)
    assert sq.coeff((2, 0, 0)) == 1
    with pytest.raises(ValueError, match="degree overflow"):
        x.coeff((2, 0, 0))


def test_truncation_mismatch():
    with pytest.raises(TruncationMismatchError):
        SeriesScalar.one(1) + SeriesScalar.one(2)
    with pytest.raises(TruncationMismatchError):
        SeriesScalar.one(1) * SeriesScalar.one(2)


@pytest.mark.parametrize("build", [
    lambda c: from_z_basis({((1, 0, 0), (0, 0, 0, 0)): c}, params(1, 1, 1, 3)),
    lambda c: AlgebraElement.monomial(params(1, 1, 1, 3),
                                      (1, 0, 0, 0, 0, 0, 0), c),
    lambda c: DualElement(3, {((1, 0, 0), (0, 0, 0, 0)): c}),
], ids=["from_z_basis", "AlgebraElement.monomial", "DualElement"])
def test_constructors_refuse_a_coefficient_of_lower_order(build):
    # h1 over truncation 1 is known only mod h^2, so it cannot stand as a
    # coefficient over truncation 3; one of a higher order is cut at 3.
    with pytest.raises(TruncationMismatchError):
        build(SeriesScalar.hbar(1, 1))
    high = SeriesScalar.hbar(1, 5) + s(5, h400=7)
    assert build(high) == build(SeriesScalar.hbar(1, 3))


def test_series_times_term_map_scales_it():
    # A series on the left leaves a term map to the term map's __rmul__
    # instead of reading its keys as h exponents.
    p = params(1, 1, 1, 2)
    h = SeriesScalar.hbar(1, 2)
    for x in (AlgebraElement.unit(p), TensorElement.unit(p),
              DualElement.unit(2)):
        assert h * x == x * h == x.scale(h)


def test_no_stored_zeros_and_equality():
    x = SeriesScalar({(0, 0, 0): Fraction(0), (1, 0, 0): Fraction(1)}, 2)
    assert (0, 0, 0) not in x.terms
    assert x == SeriesScalar.hbar(1, 2)
    assert SeriesScalar.zero(2) == 0
    assert SeriesScalar.from_rational(Fraction(3, 4), 2) == Fraction(3, 4)


@settings(max_examples=80, deadline=None)
@given(series(2), series(2), series(2))
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(invertible_series(3))
def test_inverse_roundtrip(a):
    assert a * a.inv() == SeriesScalar.one(3)


@settings(max_examples=60, deadline=None)
@given(series(2), series(2))
def test_limit_is_ring_hom(a, b):
    for zeroed in ({1}, {2, 3}, {1, 2, 3}):
        assert (a + b).limit(zeroed) == a.limit(zeroed) + b.limit(zeroed)
        assert (a * b).limit(zeroed) == a.limit(zeroed) * b.limit(zeroed)


@settings(max_examples=60, deadline=None)
@given(series(3), series(3))
def test_truncation_coherence(a, b):
    for lower in (0, 1, 2):
        assert (a * b).truncate(lower) == a.truncate(lower) * b.truncate(lower)
        assert (a + b).truncate(lower) == a.truncate(lower) + b.truncate(lower)


def test_truncate_refuses_a_higher_order():
    # The h1^2 coefficient of a trunc-1 series is unknown, not 0.
    x = SeriesScalar.one(1) + SeriesScalar.hbar(1, 1)
    assert x.truncate(1) == x
    with pytest.raises(InvalidParamsError):
        x.truncate(3)
    with pytest.raises(InvalidParamsError):
        x.truncate(-1)


def test_text_format():
    x = s(2, h000=1, h100=2, h020=Fraction(-1, 2))
    assert x.to_text() == "1 - (1/2)*h2^2 + 2*h1"
    assert SeriesScalar.zero(2).to_text() == "0"


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    with pytest.raises(ValueError):
        parse_rational("1.5")


# -- the term-map base ----------------------------------------------------------

@pytest.mark.parametrize("x,other,build", [
    (AlgebraElement.unit(params(1, 1, 1, 1)),
     AlgebraElement.unit(params(1, 1, 1, 2)),
     lambda x, terms: AlgebraElement(x.params, terms)),
    (TensorElement.unit(params(1, 1, 1, 1)),
     TensorElement.unit(params(1, 1, 1, 1), 3),
     lambda x, terms: TensorElement(x.params, x.arity, terms)),
    # Equal, and added into one, before DualElement compared truncations.
    (DualElement.unit(1), DualElement.unit(3),
     lambda x, terms: DualElement(x.trunc, terms)),
    (SeriesScalar.one(1), SeriesScalar.one(2),
     lambda x, terms: SeriesScalar(terms, x.trunc)),
], ids=["algebra", "tensor", "dual", "series"])
def test_term_maps_over_different_spaces(x, other, build):
    # The terms view goes back through the class's own constructor.
    assert x == build(x, dict(x.terms)) and x != other
    with pytest.raises(ParamsMismatchError):
        x + other
    with pytest.raises(ParamsMismatchError):
        x - other


@pytest.mark.parametrize("x", [
    AlgebraElement.unit(params(1, 1, 1, 1)),
    TensorElement.unit(params(1, 1, 1, 1)),
    DualElement.unit(1),
    WedgeElement.wedge(3, 5),
    SeriesScalar.hbar(1, 1),
], ids=["algebra", "tensor", "dual", "wedge", "series"])
def test_term_maps_add_only_term_maps(x):
    with pytest.raises(TypeError):
        x + 1
    with pytest.raises(TypeError):
        1 + x
    assert repr(x) == f"{type(x).__name__}({x.to_text()!r})"
    assert str(x) == x.to_text()


# -- the shared integer storage against a Fraction reference ---------------------

H0 = (0, 0, 0)
MONOS = st.tuples(*[st.integers(0, 2)] * 7)
BASIS_KEYS = {
    "algebra": MONOS,
    "tensor": st.tuples(MONOS, MONOS),
    "dual": st.tuples(st.tuples(*[st.integers(0, 2)] * 3),
                      st.tuples(*[st.integers(0, 2)] * 4)),
    "wedge": st.tuples(st.integers(0, 6), st.integers(0, 6)),
    "series": st.just(()),
}


def nonzero(ref):
    return {k: c for k, c in ref.items() if c}


def ref_sum(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return nonzero(out)


def ref_scale(a, factor, trunc):
    """A reference term map times a series given as {h: Fraction}."""
    out = {}
    for k, c in a.items():
        for hf, cf in factor.items():
            h = tuple(x + y for x, y in zip(k[-1], hf))
            if sum(h) <= trunc:
                key = k[:-1] + (h,)
                out[key] = out.get(key, 0) + c * cf
    return nonzero(out)


def flat_view(x):
    """A term map's public terms view as {key + (h,): Fraction}."""
    if isinstance(x, SeriesScalar):
        return {(h,): c for h, c in x.terms.items()}
    out = {}
    for key, v in x.terms.items():
        if isinstance(v, SeriesScalar):
            out.update({tuple(key) + (h,): c for h, c in v.terms.items()})
        else:
            out[key if isinstance(x, TensorElement) else key + (H0,)] = v
    return out


@st.composite
def term_map(draw, kind, trunc):
    """(term map, reference): a term map of the given kind built through its
    public constructor, and its coefficients as {key + (h,): Fraction}."""
    p = params(2, Fraction(1, 2), -3, trunc)
    if kind == "wedge":
        raw = draw(st.dictionaries(BASIS_KEYS[kind], small_fractions(),
                                   max_size=6))
        ref = {}
        for (i, j), c in raw.items():
            if i != j:
                key = (min(i, j), max(i, j), H0)
                ref[key] = ref.get(key, 0) + (c if i < j else -c)
        return WedgeElement(raw), nonzero(ref)
    raw = draw(st.dictionaries(st.tuples(BASIS_KEYS[kind], h_exponents(trunc)),
                               small_fractions(), max_size=6))
    ref = nonzero({key + (h,): c for (key, h), c in raw.items()})
    if kind == "tensor":
        return TensorElement(p, 2, ref), ref
    grouped = {}
    for (key, h), c in raw.items():
        grouped.setdefault(key, {})[h] = c
    if kind == "series":
        return SeriesScalar(grouped.get((), {}), trunc), ref
    terms = {key: SeriesScalar(hmap, trunc) for key, hmap in grouped.items()}
    if kind == "algebra":
        return AlgebraElement(p, terms), ref
    return DualElement(trunc, terms), ref


@st.composite
def term_map_pairs(draw):
    kind = draw(st.sampled_from(sorted(BASIS_KEYS)))
    trunc = 0 if kind == "wedge" else draw(st.integers(0, 3))
    return (trunc, draw(term_map(kind, trunc)), draw(term_map(kind, trunc)),
            draw(series(trunc)))


@settings(max_examples=300, deadline=None)
@given(term_map_pairs(), small_fractions())
def test_term_map_operations_match_fraction_reference(pair, f):
    trunc, (x, rx), (y, ry), s = pair
    assert flat_view(x) == rx and flat_view(y) == ry
    for got, want in ((x + y, ref_sum(rx, ry)), (x - y, ref_sum(rx, ry, -1)),
                      (-x, ref_sum({}, rx, -1)),
                      (x.scale(f), ref_scale(rx, {H0: f}, trunc)),
                      (x.scale(s), ref_scale(rx, s.terms, trunc))):
        assert flat_view(got) == want
        assert_stored_once(got)
    assert (x == y) == (rx == ry)
    # Equal values reached by different sums compare equal.
    assert (x + y) - y == x and x - x == x.scale(0) and not x - x
    assert (x == x + y) == (not ry)


#: A basis key of each kind that no drawn term map holds.
ABSENT_KEYS = {AlgebraElement: (3,) * 7, TensorElement: ((3,) * 7, (3,) * 7),
               DualElement: ((3,) * 3, (3,) * 4), WedgeElement: (0, 7),
               SeriesScalar: ((3, 3, 3),)}


@settings(max_examples=150, deadline=None)
@given(term_map_pairs())
def test_coefficient_matches_the_coefficients_view(pair):
    # coefficient(key) reads one key's numerators; coefficients() builds
    # every key's series.  y's keys are mostly absent from x.
    trunc, (x, _), (y, _), _ = pair
    coeffs = x.coefficients()
    keys = set(coeffs) | set(y.coefficients()) | {ABSENT_KEYS[type(x)]}
    for key in keys:
        got = x.coefficient(key)
        assert got.trunc == x.trunc == trunc
        assert got == coeffs.get(key, SeriesScalar.zero(trunc)), key
        assert all(type(c) is Fraction and c for c in got.terms.values())
    assert x.coefficient(ABSENT_KEYS[type(x)]).terms == {}


@st.composite
def series_triples(draw):
    trunc = draw(st.integers(0, 3))
    return (trunc, draw(series(trunc)), draw(series(trunc)),
            draw(invertible_series(trunc)))


@settings(max_examples=150, deadline=None)
@given(series_triples())
def test_series_products_match_fraction_reference(triple):
    trunc, a, b, c = triple
    got = a * b
    assert flat_view(got) == ref_scale(flat_view(a), b.terms, trunc)
    assert got.trunc == trunc
    assert_stored_once(got)
    # The reference product of c and its inverse is exactly 1.
    inv = c.inv()
    assert ref_scale(flat_view(c), inv.terms, trunc) == {(H0,): 1}
    assert_stored_once(inv)
