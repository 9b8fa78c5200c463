"""Deterministic text and JSON rendering for every carrier type.

A term map is printed straight from its integer storage: rows() groups the
numerators by basis key, and each coefficient n/den is reduced by
gcd(n, den) as it is written; no Fraction is built.  Terms are ordered by
basis key (sorted(rows)), then by h exponent (sorted(row)), so identical
values always serialize to identical bytes.
"""

from __future__ import annotations

from .algebra import GENERATOR_NAMES, AlgebraElement, mono_text
from .series import format_rational, h_terms_json, ratio_text, render_terms


def _text(x, key_text) -> str:
    den = x.den
    return render_terms((den, key_text(k), row)
                        for k, row in sorted(x.rows().items()))


def _json(x, key_json) -> dict:
    den, out = x.den, []
    for k, row in sorted(x.rows().items()):
        item = key_json(k)
        item["coeff"] = h_terms_json(row, den)
        out.append(item)
    return {"terms": out}


def element_to_text(x: AlgebraElement) -> str:
    return _text(x, mono_text)


def element_to_json(x: AlgebraElement) -> dict:
    return _json(x, lambda m: {"exp": list(m)})


def _brackets(name_a: str, a, name_b: str, b) -> str:
    """The text A[a]*B[b], each factor left out when its index is 0."""
    return "*".join(f"{name}[{','.join(map(str, idx))}]"
                    for name, idx in ((name_a, a), (name_b, b)) if any(idx))


def dual_to_text(u) -> str:
    return _text(u, lambda k: _brackets("W", k[0], "Y", k[1]))


def dual_to_json(u) -> dict:
    return _json(u, lambda k: {"w": list(k[0]), "y": list(k[1])})


def zmap_to_text(zmap) -> str:
    """Each series of the map is written over its own denominator."""
    return render_terms((s.den, _brackets("Z", k[0], "X", k[1]), row)
                        for k, s in sorted(zmap.items())
                        for row in s.rows().values())


def zmap_to_json(zmap) -> dict:
    return {"terms": [{"z": list(k[0]), "x": list(k[1]),
                       "coeff": zmap[k].to_json()}
                      for k in sorted(zmap)]}


def tensor_to_text(t) -> str:
    return _text(t, lambda legs: " (x) ".join(mono_text(m) or "1"
                                              for m in legs))


def tensor_to_json(t) -> dict:
    names = ("left", "right") if t.arity == 2 else ("left", "middle", "right")
    return _json(t, lambda legs: dict(zip(names, map(list, legs))))


def wedge_to_json(w) -> list:
    return [{"i": i, "j": j, "c": ratio_text(n, w.den)}
            for (i, j, _), n in sorted(w.nums.items())]


def wedge_to_text(w) -> str:
    return _text(w, lambda k: "/\\".join(GENERATOR_NAMES[i] for i in k))


def group_to_text(g) -> str:
    vals = [g.theta, g.phi, g.psi, g.q[0], g.q[1], g.p[0], g.p[1]]
    return ",".join(format_rational(v) for v in vals)


def group_to_json(g) -> dict:
    return {"theta": format_rational(g.theta),
            "phi": format_rational(g.phi),
            "psi": format_rational(g.psi),
            "q": [format_rational(v) for v in g.q],
            "p": [format_rational(v) for v in g.p]}
