"""Deterministic text and JSON rendering for every carrier type.

Terms are ordered lexicographically by exponent tuples, then by h-monomials,
so identical values always serialize to identical bytes.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import GENERATOR_NAMES, AlgebraElement, mono_factors
from .series import format_rational, h_factors, h_terms_json, render_terms


def _render_flat(pairs) -> str:
    """pairs: iterable of (sort key, factor list, (h, coefficient) pairs)."""
    items = []
    for key, factors, terms in pairs:
        for h, c in terms:
            items.append(((key, h), c, h_factors(h) + factors))
    items.sort(key=lambda t: t[0])
    if not items:
        return "0"
    return render_terms([(coeff, factors) for _, coeff, factors in items])


def _term_rows(x):
    """(basis key, (h, Fraction) pairs) for each basis key of a term map,
    read from its numerators without building a series per key."""
    den = x.den
    return ((key, [(h, Fraction(n, den)) for h, n in row])
            for key, row in x.rows().items())


def element_to_text(x: AlgebraElement) -> str:
    return _render_flat((m, mono_factors(m), terms)
                        for m, terms in _term_rows(x))


def element_to_json(x: AlgebraElement) -> dict:
    return {"terms": [{"exp": list(m), "coeff": h_terms_json(terms)}
                      for m, terms in sorted(_term_rows(x))]}


def _bracket(name: str, idx) -> str:
    return f"{name}[{','.join(str(i) for i in idx)}]"


def dual_to_text(u) -> str:
    def factors(key):
        w, y = key
        out = []
        if any(w):
            out.append(_bracket("W", w))
        if any(y):
            out.append(_bracket("Y", y))
        return out
    return _render_flat((k, factors(k), terms) for k, terms in _term_rows(u))


def dual_to_json(u) -> dict:
    return {"terms": [{"w": list(k[0]), "y": list(k[1]),
                       "coeff": h_terms_json(terms)}
                      for k, terms in sorted(_term_rows(u))]}


def zmap_to_text(zmap) -> str:
    def factors(key):
        ci, qp = key
        out = []
        if any(ci):
            out.append(_bracket("Z", ci))
        if any(qp):
            out.append(_bracket("X", qp))
        return out
    return _render_flat((k, factors(k), s.terms.items())
                        for k, s in zmap.items())


def zmap_to_json(zmap) -> dict:
    return {"terms": [{"z": list(k[0]), "x": list(k[1]),
                       "coeff": zmap[k].to_json()}
                      for k in sorted(zmap)]}


def tensor_to_text(t) -> str:
    def factors(legs):
        return [" (x) ".join("*".join(mono_factors(m)) or "1" for m in legs)]
    return _render_flat((legs, factors(legs), terms)
                        for legs, terms in _term_rows(t))


def tensor_to_json(t) -> dict:
    names = ("left", "right") if t.arity == 2 else ("left", "middle", "right")
    out = []
    for legs, terms in sorted(_term_rows(t)):
        item = {name: list(m) for name, m in zip(names, legs)}
        item["coeff"] = h_terms_json(terms)
        out.append(item)
    return {"terms": out}


def wedge_to_json(w) -> list:
    return [{"i": i, "j": j, "c": format_rational(c)}
            for (i, j), c in sorted(w.terms.items())]


def wedge_to_text(w) -> str:
    if not w:
        return "0"
    return render_terms([(c, [f"{GENERATOR_NAMES[i]}/\\{GENERATOR_NAMES[j]}"])
                         for (i, j), c in sorted(w.terms.items())])


def group_to_text(g) -> str:
    vals = [g.theta, g.phi, g.psi, g.q[0], g.q[1], g.p[0], g.p[1]]
    return ",".join(format_rational(v) for v in vals)


def group_to_json(g) -> dict:
    return {"theta": format_rational(g.theta),
            "phi": format_rational(g.phi),
            "psi": format_rational(g.psi),
            "q": [format_rational(v) for v in g.q],
            "p": [format_rational(v) for v in g.p]}
