"""Truncated formal power series in the deformation parameters h1, h2, h3,
and the linear-space core shared by every finite sum over a basis.

This is the scalar ring of the whole engine.  A series is a sparse map from
exponent triples (m1, m2, m3) -- standing for h1^m1 * h2^m2 * h3^m3 -- to
exact rational coefficients, together with a truncation order: every monomial
of total degree > trunc is discarded by every operation.  Zero coefficients
are never stored, so two series are equal iff their term maps are equal.

Every other carrier (algebra elements, tensors, dual functionals, wedges) is
a TermMap, whose vector-space operations are written once here.
numerators(), flat_numerators() and from_numerators() are the
integer-numerator layout of a {key: SeriesScalar} map that the integer
kernels work in.

>>> a = SeriesScalar.one(2) + SeriesScalar.hbar(1, 2)
>>> print((a * a).to_text())
1 + 2*h1 + h1^2
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

HExponent = tuple[int, int, int]

_ZERO_H: HExponent = (0, 0, 0)
_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class TruncationMismatchError(ValueError):
    """Two series with different truncation orders were combined."""


class NonInvertibleSeriesError(ValueError):
    """The series has zero constant term and cannot be inverted."""


class InvalidParamsError(ValueError):
    """Rejected deformation parameters (alpha = 0, negative truncation...)."""


class ParamsMismatchError(ValueError):
    """Two elements over different parameters or truncations were combined."""


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into an exact rational."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


class SeriesScalar:
    __slots__ = ("terms", "trunc")

    def __init__(self, terms: Mapping[HExponent, Fraction], trunc: int):
        if trunc < 0:
            raise InvalidParamsError("truncation order must be >= 0")
        clean: dict[HExponent, Fraction] = {}
        for h, c in terms.items():
            if sum(h) > trunc:
                continue
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                clean[h] = c
        self.terms = clean
        self.trunc = trunc

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> "SeriesScalar":
        return cls({}, trunc)

    @classmethod
    def one(cls, trunc: int) -> "SeriesScalar":
        return cls({_ZERO_H: Fraction(1)}, trunc)

    @classmethod
    def from_rational(cls, value, trunc: int) -> "SeriesScalar":
        return cls({_ZERO_H: Fraction(value)}, trunc)

    @classmethod
    def hbar(cls, i: int, trunc: int) -> "SeriesScalar":
        """The variable h_i, i in {1, 2, 3}."""
        if i not in (1, 2, 3):
            raise ValueError("variable index must be 1, 2 or 3")
        h = tuple(1 if k == i - 1 else 0 for k in range(3))
        return cls({h: Fraction(1)}, trunc)

    @classmethod
    def monomial(cls, h: HExponent, coeff, trunc: int) -> "SeriesScalar":
        return cls({tuple(h): Fraction(coeff)}, trunc)

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def constant(self) -> Fraction:
        return self.terms.get(_ZERO_H, Fraction(0))

    def coeff(self, h: HExponent) -> Fraction:
        h = tuple(h)
        if sum(h) > self.trunc:
            raise ValueError(f"degree overflow: |{h}| > truncation {self.trunc}")
        return self.terms.get(h, Fraction(0))

    def __eq__(self, other) -> bool:
        if isinstance(other, SeriesScalar):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                return not self.terms
            return self.terms == {_ZERO_H: other}
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"SeriesScalar({self.to_text()!r}, trunc={self.trunc})"

    def _check(self, other: "SeriesScalar") -> None:
        if self.trunc != other.trunc:
            raise TruncationMismatchError(
                f"truncation mismatch: {self.trunc} vs {other.trunc}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "SeriesScalar") -> "SeriesScalar":
        if isinstance(other, (int, Fraction)):
            other = SeriesScalar.from_rational(other, self.trunc)
        self._check(other)
        out = dict(self.terms)
        for h, c in other.terms.items():
            out[h] = out.get(h, 0) + c
        return _raw({h: c for h, c in out.items() if c}, self.trunc)

    __radd__ = __add__

    def __neg__(self) -> "SeriesScalar":
        return _raw({h: -c for h, c in self.terms.items()}, self.trunc)

    def __sub__(self, other: "SeriesScalar") -> "SeriesScalar":
        return self + (-other)

    def __mul__(self, other) -> "SeriesScalar":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                return SeriesScalar.zero(self.trunc)
            return _raw({h: c * other for h, c in self.terms.items()}, self.trunc)
        self._check(other)
        trunc = self.trunc
        out: dict[HExponent, Fraction] = {}
        for h1, c1 in self.terms.items():
            for h2, c2 in other.terms.items():
                h = (h1[0] + h2[0], h1[1] + h2[1], h1[2] + h2[2])
                if h[0] + h[1] + h[2] > trunc:
                    continue
                out[h] = out.get(h, 0) + c1 * c2
        return _raw({h: c for h, c in out.items() if c}, trunc)

    __rmul__ = __mul__

    def shifted(self, h: HExponent, scale=1) -> "SeriesScalar":
        """Multiply by scale * h1^a h2^b h3^c, dropping overflowing terms."""
        scale = Fraction(scale)
        if not scale:
            return SeriesScalar.zero(self.trunc)
        trunc = self.trunc
        out: dict[HExponent, Fraction] = {}
        for k, c in self.terms.items():
            nk = (k[0] + h[0], k[1] + h[1], k[2] + h[2])
            if nk[0] + nk[1] + nk[2] <= trunc:
                out[nk] = c * scale
        return _raw(out, trunc)

    def inv(self) -> "SeriesScalar":
        """Inverse by geometric series; requires a nonzero constant term."""
        u = self.constant()
        if not u:
            raise NonInvertibleSeriesError("non-invertible series: zero constant term")
        one = SeriesScalar.one(self.trunc)
        g = one - self * (1 / u)
        acc = one
        for _ in range(self.trunc):
            acc = one + g * acc
        return acc * (1 / u)

    def limit(self, zeroed: Iterable[int]) -> "SeriesScalar":
        """Set the listed variables (1-based) to zero."""
        zeroed = set(zeroed)
        out = {h: c for h, c in self.terms.items()
               if all(h[i - 1] == 0 for i in zeroed)}
        return _raw(out, self.trunc)

    def truncate(self, trunc: int) -> "SeriesScalar":
        return SeriesScalar(self.terms, trunc)

    # -- presentation ------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for h in sorted(self.terms):
            parts.append((self.terms[h], h_factors(h)))
        return render_terms(parts)

    def to_json(self) -> list:
        return [{"h": list(h), "c": format_rational(self.terms[h])}
                for h in sorted(self.terms)]

    @classmethod
    def from_json(cls, data: list, trunc: int) -> "SeriesScalar":
        return cls({tuple(item["h"]): parse_rational(item["c"]) for item in data},
                   trunc)


def _raw(terms: dict, trunc: int) -> SeriesScalar:
    s = SeriesScalar.__new__(SeriesScalar)
    s.terms = terms
    s.trunc = trunc
    return s


class TermMap:
    """A finite sum over a basis: terms maps basis keys to nonzero
    coefficients.  A subclass adds to_text(), space(), what two operands
    must share to be combined or equal, and like(terms), the term map over
    the same space whose constructor drops zero coefficients."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.space() == other.space()
                and self.canonical() == other.canonical())

    __hash__ = None

    def canonical(self):
        """What equality compares: the term map itself, unless a subclass
        stores its coefficients in another form that is unique per value."""
        return self.terms

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()

    def check(self, other: "TermMap") -> None:
        """Raise unless other is the same kind of term map over this space."""
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} "
                            f"with {type(other).__name__}")
        if self.space() != other.space():
            raise ParamsMismatchError(
                f"{type(self).__name__}s live over different spaces: "
                f"{self.space()} vs {other.space()}")

    def __add__(self, other: "TermMap") -> "TermMap":
        self.check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            cur = out.get(k)
            out[k] = c if cur is None else cur + c
        return self.like(out)

    def __neg__(self) -> "TermMap":
        return self.like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "TermMap") -> "TermMap":
        return self + (-other)

    def scale(self, factor) -> "TermMap":
        """Multiply every coefficient by factor."""
        return self.like({k: c * factor for k, c in self.terms.items()})


def numerators(terms: Mapping) -> tuple[int, list]:
    """A map {key: SeriesScalar} as integer numerators over one denominator:
    (L, [(key, [(h, numerator), ...]), ...]), L the lcm of the denominators
    of every coefficient."""
    L = lcm(*(c.denominator for s in terms.values() for c in s.terms.values()))
    return L, [(key, [(h, c.numerator * (L // c.denominator))
                      for h, c in s.terms.items()])
               for key, s in terms.items()]


def flat_numerators(terms: Mapping) -> tuple[int, tuple]:
    """numerators() flattened: (L, ((key, h, numerator), ...))."""
    L, rows = numerators(terms)
    return L, tuple((key, h, n) for key, coef in rows for h, n in coef)


def from_numerators(acc: Mapping[tuple, int], den: int, trunc: int) -> dict:
    """Integer sums keyed by (key, h) as {key: SeriesScalar}, each nonzero
    sum becoming one Fraction over den."""
    out: dict = {}
    for (key, h), n in acc.items():
        if n:
            out.setdefault(key, {})[h] = Fraction(n, den)
    return {key: SeriesScalar(terms, trunc) for key, terms in out.items()}


def h_factors(h: HExponent) -> list[str]:
    """The factors of h1^a h2^b h3^c as text, e.g. ["h1", "h3^2"]."""
    out = []
    for i, e in enumerate(h):
        if e == 1:
            out.append(f"h{i + 1}")
        elif e > 1:
            out.append(f"h{i + 1}^{e}")
    return out


def render_terms(parts: list[tuple[Fraction, list[str]]]) -> str:
    """Join (coefficient, factor list) terms into canonical "a + b - c" text."""
    chunks: list[str] = []
    for coeff, factors in parts:
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        if not factors:
            body = format_rational(mag) if mag.denominator == 1 else f"({format_rational(mag)})"
        elif mag == 1:
            body = "*".join(factors)
        elif mag.denominator == 1:
            body = "*".join([format_rational(mag)] + factors)
        else:
            body = "*".join([f"({format_rational(mag)})"] + factors)
        if not chunks:
            chunks.append(body if sign == "+" else "-" + body)
        else:
            chunks.append(f" {sign} {body}")
    return "".join(chunks)

