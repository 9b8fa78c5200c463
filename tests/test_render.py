"""The text and JSON of every term map, against a Fraction-based reference.

The renderers print straight from a term map's integer numerators and its
denominator.  The reference below builds a Fraction for every term, orders
the terms by (basis key, h) and formats each Fraction, as the renderers did
before they moved onto the integers; both must give the same bytes.
"""

import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncdeform import (AlgebraElement, DualElement, SeriesScalar,
                      TensorElement, WedgeElement, coproduct, evaluate,
                      star_closed, to_z_basis)
from ncdeform.algebra import GENERATOR_NAMES
from ncdeform.render import (dual_to_json, dual_to_text, element_to_json,
                             element_to_text, tensor_to_json, tensor_to_text,
                             wedge_to_json, wedge_to_text, zmap_to_json,
                             zmap_to_text)
from ncdeform.series import TermMap

from conftest import h_exponents, params, series, small_fractions

P = params(2, Fraction(1, 2), -3, 2)
TRUNC = P.trunc
H0 = (0, 0, 0)
ONE, Q1, TH = (0,) * 7, (0, 0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0)


# -- the Fraction-based reference ------------------------------------------------

def ref_render_terms(parts) -> str:
    chunks = []
    for coeff, factors in parts:
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        if not factors:
            body = str(mag) if mag.denominator == 1 else f"({mag})"
        elif mag == 1:
            body = "*".join(factors)
        elif mag.denominator == 1:
            body = "*".join([str(mag)] + factors)
        else:
            body = "*".join([f"({mag})"] + factors)
        if not chunks:
            chunks.append(body if sign == "+" else "-" + body)
        else:
            chunks.append(f" {sign} {body}")
    return "".join(chunks)


def ref_factors(names, exps) -> list[str]:
    return [name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, exps) if e]


def ref_h_factors(h) -> list[str]:
    return ref_factors(("h1", "h2", "h3"), h)


def ref_mono_factors(m) -> list[str]:
    return ref_factors(GENERATOR_NAMES, m)


def ref_h_terms_json(terms) -> list:
    return [{"h": list(h), "c": str(Fraction(c))} for h, c in sorted(terms)]


def ref_render_flat(pairs) -> str:
    items = []
    for key, factors, terms in pairs:
        for h, c in terms:
            items.append(((key, h), c, ref_h_factors(h) + factors))
    items.sort(key=lambda t: t[0])
    if not items:
        return "0"
    return ref_render_terms([(coeff, factors) for _, coeff, factors in items])


def ref_term_rows(x):
    den = x.den
    return ((key, [(h, Fraction(n, den)) for h, n in row])
            for key, row in x.rows().items())


def ref_bracket(name, idx) -> list[str]:
    return [f"{name}[{','.join(str(i) for i in idx)}]"] if any(idx) else []


def ref_text(x) -> str:
    if isinstance(x, dict):
        return ref_render_flat(
            (k, ref_bracket("Z", k[0]) + ref_bracket("X", k[1]),
             s.terms.items()) for k, s in x.items())
    if isinstance(x, SeriesScalar):
        if not x.nums:
            return "0"
        return ref_render_terms([(c, ref_h_factors(h))
                                 for h, c in sorted(x.terms.items())])
    if isinstance(x, WedgeElement):
        if not x:
            return "0"
        return ref_render_terms(
            [(c, [f"{GENERATOR_NAMES[i]}/\\{GENERATOR_NAMES[j]}"])
             for (i, j), c in sorted(x.terms.items())])
    if isinstance(x, AlgebraElement):
        def factors(m):
            return ref_mono_factors(m)
    elif isinstance(x, DualElement):
        def factors(k):
            return ref_bracket("W", k[0]) + ref_bracket("Y", k[1])
    else:
        def factors(legs):
            return [" (x) ".join("*".join(ref_mono_factors(m)) or "1"
                                 for m in legs)]
    return ref_render_flat((k, factors(k), terms)
                           for k, terms in ref_term_rows(x))


def ref_json(x):
    if isinstance(x, dict):
        return {"terms": [{"z": list(k[0]), "x": list(k[1]),
                           "coeff": ref_h_terms_json(x[k].terms.items())}
                          for k in sorted(x)]}
    if isinstance(x, SeriesScalar):
        return ref_h_terms_json(x.terms.items())
    if isinstance(x, WedgeElement):
        return [{"i": i, "j": j, "c": str(c)}
                for (i, j), c in sorted(x.terms.items())]
    if isinstance(x, AlgebraElement):
        def key_json(m):
            return {"exp": list(m)}
    elif isinstance(x, DualElement):
        def key_json(k):
            return {"w": list(k[0]), "y": list(k[1])}
    else:
        names = (("left", "right") if x.arity == 2
                 else ("left", "middle", "right"))

        def key_json(legs):
            return dict(zip(names, map(list, legs)))
    return {"terms": [{**key_json(k), "coeff": ref_h_terms_json(terms)}
                      for k, terms in sorted(ref_term_rows(x))]}


def rendered(x) -> tuple[str, str]:
    """(text, JSON text) of a carrier, as the CLI prints them."""
    if isinstance(x, dict):
        text, js = zmap_to_text, zmap_to_json
    else:
        text, js = {AlgebraElement: (element_to_text, element_to_json),
                    DualElement: (dual_to_text, dual_to_json),
                    TensorElement: (tensor_to_text, tensor_to_json),
                    SeriesScalar: (SeriesScalar.to_text, SeriesScalar.to_json),
                    WedgeElement: (wedge_to_text, wedge_to_json)}[type(x)]
    return text(x), json.dumps(js(x))


# -- drawn carriers ---------------------------------------------------------------

def small_tuples(n):
    return st.tuples(*[st.integers(0, 2)] * n)


def keyed(keys):
    """{(basis key, h): Fraction} over the given basis keys."""
    return st.dictionaries(st.tuples(keys, h_exponents(TRUNC)),
                           small_fractions(), max_size=6)


def grouped(raw) -> dict:
    out = {}
    for (key, h), c in raw.items():
        out.setdefault(key, {})[h] = c
    return {key: SeriesScalar(hmap, TRUNC) for key, hmap in out.items()}


def carriers():
    monos = small_tuples(7)
    tensor = st.integers(2, 3).flatmap(lambda arity: keyed(
        st.tuples(*[monos] * arity)).map(lambda raw: TensorElement(
            P, arity, {legs + (h,): c for (legs, h), c in raw.items()})))
    wedge_keys = st.tuples(st.integers(0, 6), st.integers(0, 6))
    return st.one_of(
        keyed(monos).map(lambda raw: AlgebraElement(P, grouped(raw))),
        keyed(st.tuples(small_tuples(3), small_tuples(4))).map(
            lambda raw: DualElement(TRUNC, grouped(raw))),
        tensor,
        # Each series of a Z-basis map keeps its own denominator.
        st.dictionaries(st.tuples(small_tuples(3), small_tuples(4)),
                        series(TRUNC), max_size=4),
        series(TRUNC),
        st.dictionaries(wedge_keys, small_fractions(),
                        max_size=6).map(WedgeElement))


def element(*terms) -> AlgebraElement:
    """The element sum c * h^h * m over (m, h, c) triples."""
    return AlgebraElement(P, grouped({(m, h): c for m, h, c in terms}))


@settings(max_examples=400, deadline=None)
@given(carriers())
@example(AlgebraElement.zero(P))
@example(TensorElement.zero(P, 3))
@example(WedgeElement())
@example({})
@example(SeriesScalar.from_rational(Fraction(1, 2), TRUNC))
@example(element((ONE, H0, Fraction(1, 2))))
@example(element((ONE, H0, 1), (Q1, H0, -1)))
@example(element((ONE, H0, -1), (Q1, (1, 0, 0), 1)))
@example(element((TH, H0, Fraction(-2, 3)), (Q1, (0, 1, 1), 3)))
@example(element((ONE, (1, 1, 0), 1), (ONE, (0, 0, 2), -4)))
@example(SeriesScalar({(0, 2, 0): -1, (1, 0, 0): Fraction(5, 3)}, TRUNC))
@example(TensorElement(P, 2, {(ONE, Q1, H0): 1, (Q1, ONE, (0, 0, 1)): -1,
                              (TH, Q1, H0): Fraction(-3, 4)}))
@example(WedgeElement({(3, 5): -1, (1, 0): Fraction(3, 2)}))
def test_text_and_json_match_the_fraction_reference(x):
    assert rendered(x) == (ref_text(x), json.dumps(ref_json(x)))


def test_a_zbasis_map_over_several_denominators():
    zmap = to_z_basis(evaluate("1/3*Th + 1/2*Q1*P1 - 5/7*h1*Q2", P))
    assert len({s.den for s in zmap.values()}) > 1
    assert rendered(zmap) == (ref_text(zmap), json.dumps(ref_json(zmap)))


def test_printing_builds_no_fraction(monkeypatch):
    # The printed values are computed first; printing them must not build
    # a Fraction nor read any term map's terms view.
    values = [coproduct(evaluate("Q1*Q2*P1*P2", P)),
              star_closed(evaluate("x1 + 2*x4 - x6", P),
                          evaluate("x2 - 1/3*x5", P)),
              to_z_basis(evaluate("1/3*Th", P))]
    assert len(values[1].nums) > 1
    built, read = [], []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def spy(view):
        def reading(self):
            read.append(type(self).__name__)
            return view.__get__(self)
        return property(reading)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for cls in (TermMap, SeriesScalar, TensorElement, WedgeElement):
        monkeypatch.setattr(cls, "terms", spy(vars(cls)["terms"]))
    printed = [rendered(v) for v in values]
    monkeypatch.undo()
    assert built == [] and read == []
    assert printed == [(ref_text(v), json.dumps(ref_json(v)))
                       for v in values]
