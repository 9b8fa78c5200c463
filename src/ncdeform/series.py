"""Truncated formal power series in the deformation parameters h1, h2, h3,
and the linear-space core shared by every finite sum over a basis.

This is the scalar ring of the whole engine.  A series is a sparse map from
exponent triples (m1, m2, m3) -- standing for h1^m1 * h2^m2 * h3^m3 -- to
exact rational coefficients, together with a truncation order: every monomial
of total degree > trunc is discarded by every operation.  Zero coefficients
are never stored, so two series are equal iff their term maps are equal.

Every other carrier (algebra elements, tensors, dual functionals, wedges) is
a TermMap: a finite sum over a basis whose coefficients are such series.
All four share one storage, in the layout of FLINT's fmpq_poly (an integer
polynomial and one denominator, https://flintlib.org/doc/fmpq_poly.html):
nums maps key + (h,), a basis key (a tuple) followed by an h exponent
triple, to a nonzero int numerator, and den is one positive int sharing no
factor with all of them.  That pair is unique per value, so equality
compares it.  TermMap holds the only copy of the conversion from a public
coefficient map, of sum, negation, scaling, equality and the h filters,
all on those integers; every kernel reads and fills nums and den directly,
and coefficients become Fractions only when they are read (terms,
coefficient(), rendering).

>>> a = SeriesScalar.one(2) + SeriesScalar.hbar(1, 2)
>>> print((a * a).to_text())
1 + 2*h1 + h1^2
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import Iterable, Mapping

from .multiindex import multiindices

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


@cache
def _h_exponents(trunc: int) -> tuple[HExponent, ...]:
    """Every h exponent triple of total degree <= trunc."""
    return tuple(multiindices(3, trunc))


def _raw(terms: dict, trunc: int) -> SeriesScalar:
    s = SeriesScalar.__new__(SeriesScalar)
    s.terms = terms
    s.trunc = trunc
    return s


class TermMap:
    """A finite sum over a basis with coefficients in Q[h1, h2, h3],
    truncated above total h-degree trunc, stored as nums over den (see the
    module docstring).  terms is a view built when it is read,
    {key: SeriesScalar} unless a subclass shapes it otherwise.

    A subclass adds trunc, to_text(), space(), what two operands must share
    to be combined or equal, and like(terms), the term map over the same
    space converted from a public coefficient map by _store().  Its own
    __slots__ hold that space and nothing else: over_denominator() copies
    them to make each result, without building an empty map first.
    """

    __slots__ = ("nums", "den")

    def _store(self, coeffs: Iterable) -> None:
        """Fill nums and den from (key + (h,), rational) pairs: repeated
        keys add up, and zeros and h-degrees above trunc are dropped."""
        trunc = self.trunc
        acc: dict = {}
        for key, c in coeffs:
            h = key[-1]
            if h[0] + h[1] + h[2] <= trunc:
                acc[key] = acc.get(key, 0) + (
                    c if type(c) in (int, Fraction) else Fraction(c))
        fracs = [(key, c) for key, c in acc.items() if c]
        # Over the lcm of reduced denominators the numerators share no
        # factor with it: a prime's highest power in the lcm divides some
        # denominator, and that numerator is then free of the prime.
        den = lcm(*(c.denominator for _, c in fracs))
        self.nums = {key: c.numerator * (den // c.denominator)
                     for key, c in fracs}
        self.den = den

    def _store_series(self, terms: Mapping) -> None:
        """_store() from a {key: SeriesScalar} map."""
        self._store((tuple(key) + (h,), c) for key, s in terms.items()
                    for h, c in s.terms.items())

    def over_denominator(self, nums: Mapping[tuple, int],
                         den: int) -> "TermMap":
        """The term map sum nums[k] / den * k over this one's space,
        den > 0: zero numerators are dropped and the common factor is
        divided out."""
        g = gcd(den, *nums.values())
        out = object.__new__(type(self))
        for name in type(self).__slots__:
            setattr(out, name, getattr(self, name))
        # A dict copy reuses the stored key hashes; a comprehension rehashes
        # every key.
        out.nums = (dict(nums) if g == 1 and 0 not in nums.values()
                    else {k: n // g for k, n in nums.items() if n})
        out.den = den // g
        return out

    def rows(self) -> dict:
        """The numerators grouped by basis key: {key: [(h, numerator)]}."""
        out: dict = {}
        for k, n in self.nums.items():
            out.setdefault(k[:-1], []).append((k[-1], n))
        return out

    def coefficients(self) -> dict:
        """{key: SeriesScalar}, one coefficient per basis key."""
        den, trunc = self.den, self.trunc
        return {key: _raw({h: Fraction(n, den) for h, n in row}, trunc)
                for key, row in self.rows().items()}

    terms = property(coefficients)

    def coefficient(self, key: tuple) -> SeriesScalar:
        """The coefficient of one basis key, zero if it has no term; only
        that key's numerators are read, one lookup per h exponent."""
        key, nums, den = tuple(key), self.nums, self.den
        out = {}
        for h in _h_exponents(self.trunc):
            n = nums.get(key + (h,))
            if n is not None:
                out[h] = Fraction(n, den)
        return _raw(out, self.trunc)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.space() == other.space()
                and self.den == other.den and self.nums == other.nums)

    __hash__ = None

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

    def _sum(self, other: "TermMap", sign: int) -> "TermMap":
        self.check(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = {k: n * fa for k, n in self.nums.items()}
        get = out.get
        for k, n in other.nums.items():
            out[k] = get(k, 0) + n * fb
        return self.over_denominator(out, den)

    def __add__(self, other: "TermMap") -> "TermMap":
        return self._sum(other, 1)

    def __sub__(self, other: "TermMap") -> "TermMap":
        return self._sum(other, -1)

    def __neg__(self) -> "TermMap":
        return self.over_denominator(
            {k: -n for k, n in self.nums.items()}, self.den)

    def scale(self, factor) -> "TermMap":
        """Multiply every coefficient by a rational or a SeriesScalar."""
        if not isinstance(factor, SeriesScalar):
            factor = SeriesScalar.from_rational(factor, self.trunc)
        elif factor.trunc != self.trunc:
            raise TruncationMismatchError(
                f"truncation mismatch: {self.trunc} vs {factor.trunc}")
        den = lcm(*(c.denominator for c in factor.terms.values()))
        return substitute(self, [((), self, (), h, c.numerator
                                  * (den // c.denominator))
                                 for h, c in factor.terms.items()], den)

    def _filtered(self, keep) -> "TermMap":
        return self.over_denominator(
            {k: n for k, n in self.nums.items() if keep(k[-1])}, self.den)

    def limit(self, zeroed: Iterable[int]) -> "TermMap":
        """Set the listed deformation parameters (1-based) to zero."""
        zeroed = {i - 1 for i in zeroed}
        return self._filtered(lambda h: not any(h[i] for i in zeroed))

    def hdegree_truncated(self, below: int) -> "TermMap":
        """Keep only the terms of h-degree < below."""
        return self._filtered(lambda h: h[0] + h[1] + h[2] < below)


def substitute(into: TermMap, items: list, den: int) -> TermMap:
    """The term map over into's space summing n/den * h^g * t, with each
    key k + (h,) of t placed as before + k + after, over the items
    (before, t, after, g, n), t a term map and before, after tuples of
    basis-key parts; h-degrees above into's truncation are dropped.  Every
    t is brought to the lcm Lt of their denominators, so the sums are
    integers over den * Lt."""
    trunc = into.trunc
    Lt = lcm(*{t.den for _, t, *_ in items})
    out: dict = {}
    get = out.get
    for before, t, after, g, n in items:
        n *= Lt // t.den
        for k, c in t.nums.items():
            h = k[-1]
            hh = (g[0] + h[0], g[1] + h[1], g[2] + h[2])
            if hh[0] + hh[1] + hh[2] <= trunc:
                key = before + k[:-1] + after + (hh,)
                out[key] = get(key, 0) + n * c
    return into.over_denominator(out, den * Lt)


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

