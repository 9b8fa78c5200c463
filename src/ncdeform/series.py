"""Truncated formal power series in the deformation parameters h1, h2, h3,
and the linear-space core shared by every finite sum over a basis.

This is the scalar ring of the whole engine.  A series is a sparse map from
exponent triples (m1, m2, m3) -- standing for h1^m1 * h2^m2 * h3^m3 -- to
exact rational coefficients, together with a truncation order: every monomial
of total degree > trunc is discarded by every operation.  Zero coefficients
are never stored, so two series are equal iff their term maps are equal.

Every carrier (series, algebra elements, tensors, dual functionals, wedges)
is a TermMap: a finite sum over a basis whose coefficients are such series;
a series is the one whose basis key is empty.  All five share one storage,
in the layout of FLINT's fmpq_poly (an integer polynomial and one
denominator, https://flintlib.org/doc/fmpq_poly.html): nums maps key + (h,),
a basis key (a tuple) followed by an h exponent triple, to a nonzero int
numerator, and den is one positive int sharing no factor with all of them.
That pair is unique per value, so equality compares it.  TermMap holds the
only copy of the conversion from a public coefficient map, of sum,
negation, scaling, equality and the h filters, all on those integers; every
kernel reads and fills nums and den directly, and coefficients become
Fractions only when they are read (terms, constant(), coeff()); text and
JSON are rendered from the integers.

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


class NonInvertibleSeriesError(ValueError):
    """The series has zero constant term and cannot be inverted."""


class InvalidParamsError(ValueError):
    """Rejected deformation parameters (alpha = 0, negative truncation...)."""


class ParamsMismatchError(ValueError):
    """Two elements over different parameters or truncations were combined."""


class TruncationMismatchError(ParamsMismatchError):
    """Two term maps with different truncation orders were combined."""


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


@cache
def _h_exponents(trunc: int) -> tuple[HExponent, ...]:
    """Every h exponent triple of total degree <= trunc."""
    return tuple(multiindices(3, trunc))


class TermMap:
    """A finite sum over a basis with coefficients in Q[h1, h2, h3],
    truncated above total h-degree trunc, stored as nums over den (see the
    module docstring).  terms is a view built when it is read,
    {key: SeriesScalar} unless a subclass shapes it otherwise.

    A subclass adds trunc, to_text() and space(), what two operands must
    share to be combined or equal; its constructor converts a public
    coefficient map by _store().  Its own __slots__ hold that space and
    nothing else: over_denominator() copies them to make each result,
    without building an empty map first.
    """

    __slots__ = ("nums", "den")

    def _store(self, coeffs: Iterable) -> None:
        """Fill nums and den from (key + (h,), rational) pairs: repeated
        keys add up, and zeros and h-degrees above trunc are dropped."""
        trunc = self.trunc
        acc: dict = {}
        get = acc.get
        for key, c in coeffs:
            h = key[-1]
            if h[0] + h[1] + h[2] <= trunc:
                if type(c) not in (int, Fraction):
                    c = Fraction(c)
                prev = get(key)
                acc[key] = c if prev is None else prev + c
        fracs = [(key, c) for key, c in acc.items() if c]
        # Over the lcm of reduced denominators the numerators share no
        # factor with it: a prime's highest power in the lcm divides some
        # denominator, and that numerator is then free of the prime.
        den = lcm(*(c.denominator for _, c in fracs))
        self.nums = {key: c.numerator * (den // c.denominator)
                     for key, c in fracs}
        self.den = den

    def _store_series(self, terms: Mapping) -> None:
        """_store() from a {key: SeriesScalar} map: every series's
        numerators are brought to the lcm of their denominators.  A series
        of a lower order than trunc is not known to it, and raises
        TruncationMismatchError; one of a higher order is cut at trunc."""
        trunc = self.trunc
        den = lcm(*(s.den for s in terms.values()))
        nums = {}
        for key, s in terms.items():
            if s.trunc < trunc:
                raise TruncationMismatchError(
                    f"a coefficient of truncation {s.trunc} is not known "
                    f"to truncation {trunc}")
            key, f = tuple(key), den // s.den
            for k, n in s.nums.items():
                h = k[0]
                if h[0] + h[1] + h[2] <= trunc:
                    nums[key + k] = n * f
        # A common factor is left only where terms above trunc were dropped.
        g = gcd(den, *nums.values())
        self.nums = {k: n // g for k, n in nums.items()} if g > 1 else nums
        self.den = den // g

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
        zero, den = SeriesScalar.zero(self.trunc), self.den
        return {key: zero.over_denominator({(h,): n for h, n in row}, den)
                for key, row in self.rows().items()}

    terms = property(coefficients)

    def coefficient(self, key: tuple) -> SeriesScalar:
        """The coefficient of one basis key, zero if it has no term; only
        that key's numerators are read, one lookup per h exponent."""
        key, nums = tuple(key), self.nums
        row = {}
        for h in _h_exponents(self.trunc):
            n = nums.get(key + (h,))
            if n is not None:
                row[(h,)] = n
        zero = SeriesScalar.zero(self.trunc)
        return zero.over_denominator(row, self.den) if row else zero

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
        if self.trunc != other.trunc:
            raise TruncationMismatchError(
                f"truncation mismatch: {self.trunc} vs {other.trunc}")
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
            f = Fraction(factor)
            return self.over_denominator(
                {k: n * f.numerator for k, n in self.nums.items()},
                self.den * f.denominator)
        if factor.trunc != self.trunc:
            raise TruncationMismatchError(
                f"truncation mismatch: {self.trunc} vs {factor.trunc}")
        return substitute(self, [(self, k[0], n)
                                 for k, n in factor.nums.items()], factor.den)

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


class SeriesScalar(TermMap):
    """A truncated series: the term map whose basis key is empty, so nums
    maps (h,) to a numerator and space() is trunc.  terms, the view built
    when it is read, maps each h exponent to a Fraction."""

    __slots__ = ("trunc",)

    def __init__(self, terms: Mapping[HExponent, Fraction], trunc: int):
        if trunc < 0:
            raise InvalidParamsError("truncation order must be >= 0")
        self.trunc = trunc
        self._store(((tuple(h),), c) for h, c in terms.items())

    # -- constructors ------------------------------------------------------

    @classmethod
    @cache
    def zero(cls, trunc: int) -> "SeriesScalar":
        """The zero series, one per order: no term map is changed in place,
        and the readers build each coefficient from it by
        over_denominator()."""
        return cls({}, trunc)

    @classmethod
    def one(cls, trunc: int) -> "SeriesScalar":
        return cls.from_rational(1, trunc)

    @classmethod
    def from_rational(cls, value, trunc: int) -> "SeriesScalar":
        if type(value) not in (int, Fraction):
            value = Fraction(value)
        return cls.zero(trunc).over_denominator({(_ZERO_H,): value.numerator},
                                                value.denominator)

    @classmethod
    def hbar(cls, i: int, trunc: int) -> "SeriesScalar":
        """The variable h_i, i in {1, 2, 3}."""
        if i not in (1, 2, 3):
            raise ValueError("variable index must be 1, 2 or 3")
        h = tuple(1 if k == i - 1 else 0 for k in range(3))
        return cls({h: 1}, trunc)

    @classmethod
    def monomial(cls, h: HExponent, coeff, trunc: int) -> "SeriesScalar":
        return cls({tuple(h): coeff}, trunc)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict[HExponent, Fraction]:
        den = self.den
        return {k[0]: Fraction(n, den) for k, n in self.nums.items()}

    def space(self) -> int:
        return self.trunc

    def constant(self) -> Fraction:
        return Fraction(self.nums.get((_ZERO_H,), 0), self.den)

    def coeff(self, h: HExponent) -> Fraction:
        h = tuple(h)
        if sum(h) > self.trunc:
            raise ValueError(f"degree overflow: |{h}| > truncation {self.trunc}")
        return Fraction(self.nums.get((h,), 0), self.den)

    def __eq__(self, other) -> bool:
        """A series also equals a rational, as its constant series."""
        if isinstance(other, (int, Fraction)):
            other = SeriesScalar.from_rational(other, self.trunc)
        return TermMap.__eq__(self, other)

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other) -> "SeriesScalar":
        if isinstance(other, (int, Fraction, SeriesScalar)):
            return self.scale(other)
        return NotImplemented

    # The bench tracer wraps __mul__ through this class's namespace, so both
    # names stay bound here.
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

    def truncate(self, trunc: int) -> "SeriesScalar":
        """The same series to a lower order.  A higher order is refused:
        the coefficients above this one's order are unknown, not 0."""
        if trunc > self.trunc:
            raise InvalidParamsError(
                f"cannot raise truncation order {self.trunc} to {trunc}")
        return SeriesScalar.zero(trunc).over_denominator(
            {k: n for k, n in self.nums.items() if sum(k[0]) <= trunc},
            self.den)

    # -- presentation ------------------------------------------------------

    def to_text(self) -> str:
        return render_terms((self.den, "", row)
                            for row in self.rows().values())

    def to_json(self) -> list:
        return h_terms_json(self.rows().get((), ()), self.den)


def substitute(into: TermMap, items: list, den: int) -> TermMap:
    """The term map over into's space summing n/den * h^g * t over the
    items (t, g, n), t a term map over into's basis keys; h-degrees above
    into's truncation are dropped.  Every t is brought to the lcm Lt of
    their denominators, so the sums are integers over den * Lt."""
    trunc = into.trunc
    Lt = lcm(*{t.den for t, _, _ in items})
    out: dict = {}
    get = out.get
    for t, g, n in items:
        n *= Lt // t.den
        for k, c in t.nums.items():
            h = k[-1]
            hh = (g[0] + h[0], g[1] + h[1], g[2] + h[2])
            if hh[0] + hh[1] + hh[2] <= trunc:
                key = k[:-1] + (hh,)
                out[key] = get(key, 0) + n * c
    return into.over_denominator(out, den * Lt)


@cache
def _h_text(h: HExponent) -> str:
    """h1^a h2^b h3^c as factor text, e.g. "h1*h3^2"; "" for h^0."""
    return "*".join([f"h{i + 1}" if e == 1 else f"h{i + 1}^{e}"
                     for i, e in enumerate(h) if e])


def ratio_text(n: int, den: int) -> str:
    """n/den, den > 0, in lowest terms as text: "-3/2", or "4"."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def h_terms_json(row, den: int) -> list:
    """The JSON of one series from its (h, numerator) pairs over den,
    ordered by h."""
    return [{"h": list(h), "c": ratio_text(n, den)} for h, n in sorted(row)]


def render_terms(rows) -> str:
    """Canonical "a + b - c" text of (den, basis text, [(h, numerator)])
    rows: the rows in the order given, each row's terms ordered by h, each
    term the coefficient n/den, then the h factors, then the basis text.
    A coefficient 1 is dropped before factors, a fraction is parenthesised,
    and no term at all is "0"."""
    chunks = []
    for den, text, row in rows:
        for h, n in sorted(row):
            g = gcd(n, den)
            a, b = abs(n) // g, den // g
            hx = _h_text(h)
            factors = f"{hx}*{text}" if hx and text else hx or text
            if a != 1 or b != 1 or not factors:
                coeff = str(a) if b == 1 else f"({a}/{b})"
                factors = f"{coeff}*{factors}" if factors else coeff
            chunks.append(f" - {factors}" if n < 0 else f" + {factors}")
    if not chunks:
        return "0"
    first = chunks[0]
    chunks[0] = "-" + first[3:] if first[1] == "-" else first[3:]
    return "".join(chunks)

