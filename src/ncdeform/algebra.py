"""The deformed enveloping algebra on the seven generators
Th, Ph, Ps, Q1, Q2, P1, P2.

Elements are term maps (series.TermMap): finite sums of ordered monomials
Th^e1 Ph^e2 Ps^e3 Q1^e4 Q2^e5 P1^e6 P2^e7 with truncated-series coefficients
(see series.SeriesScalar).  The first three generators are central, and every
commutator among the last four is a central element:

    [Q1, P1] = [Q2, P2] = (lam/alpha) Th
    [Q1, Q2] = (beta lam/alpha^2) Ph
    [P1, P2] = (gamma lam/alpha^2) Ps

where lam = sinh(2*rho)/(2*rho) with rho = h1*Th + h2*Ph + h3*Ps.  Because all
commutators are central, products normal-order through the closed exchange
rule for adjacent out-of-order powers (c = [A, B] central):

    B^n A^m = sum_k (-1)^k k! C(m,k) C(n,k) c^k A^(m-k) B^(n-k)

The central factors c^k are series-valued central elements and multiply
through commutatively.  Generator exponents are never truncated; only the
h-degree of coefficients is.

alpha, beta and gamma enter only through these commutators.  rho, lam,
lam^-1, lam^k and exp(c*rho) contain none of them, so they are built once
per truncation order, as elements over Truncation(trunc), and every
parameter set of that truncation reads the same tables; make_rho,
make_lambda and make_exp_rho hand out copies over the caller's parameters.
power_series sums lam, lam^-1 (lambda_coefficients) and exp(c*rho) in rho,
and, in hopf, cop(lam) and its inverse in cop(rho).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm
from typing import Callable, Mapping, Sequence

from .multiindex import mi_factorial
from .series import (InvalidParamsError, ParamsMismatchError, SeriesScalar,
                     TermMap)

GENERATOR_NAMES = ("Th", "Ph", "Ps", "Q1", "Q2", "P1", "P2")
TH, PH, PS, Q1, Q2, P1, P2 = range(7)
CENTRAL_GENERATORS = (TH, PH, PS)
EMPTY_MONO: tuple[int, ...] = (0,) * 7

PBWMonomial = tuple[int, int, int, int, int, int, int]
#: Z-basis key: (central index I, q/p index J) for Z^I X^J.
ZMonomial = tuple[tuple[int, int, int], tuple[int, int, int, int]]


@dataclass(frozen=True)
class DeformParams:
    """Deformation parameters alpha != 0, beta, gamma and truncation order."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    trunc: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if not self.alpha:
            raise InvalidParamsError("alpha must be nonzero")
        Truncation(self.trunc)  # rejects a negative order
        # Every memo table is keyed by the parameters, and hashing three
        # Fractions costs microseconds, so the hash is computed once.
        object.__setattr__(self, "_hash", hash(
            (self.alpha, self.beta, self.gamma, self.trunc)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class Truncation:
    """The parameter-free side of one truncation order.

    Tables that contain no alpha, beta or gamma (the central series here,
    the coproduct tables in hopf, the Z-basis tables in dual) are built
    once as elements over Truncation(trunc) and shared by every parameter
    set.  Its engine has no commutator table, so a product that would need
    reordering raises instead of using some parameter set's commutators.
    A negative order raises InvalidParamsError.
    """

    trunc: int

    def __post_init__(self):
        if self.trunc < 0:
            raise InvalidParamsError("truncation order must be >= 0")


class AlgebraElement(TermMap):
    """Finite sum of ordered monomials with series coefficients; a basis
    key is the monomial's exponent tuple."""

    __slots__ = ("params",)

    def __init__(self, params: DeformParams,
                 terms: Mapping[PBWMonomial, SeriesScalar]):
        self.params = params
        self._store_series(terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, params: DeformParams) -> "AlgebraElement":
        return cls(params, {})

    @classmethod
    def unit(cls, params: DeformParams) -> "AlgebraElement":
        return cls.monomial(params, EMPTY_MONO)

    @classmethod
    def monomial(cls, params: DeformParams, mono: PBWMonomial,
                 coeff=1) -> "AlgebraElement":
        if not isinstance(coeff, SeriesScalar):
            coeff = SeriesScalar.from_rational(coeff, params.trunc)
        return cls(params, {tuple(mono): coeff})

    # -- structure ---------------------------------------------------------

    @property
    def trunc(self) -> int:
        return self.params.trunc

    def space(self) -> DeformParams | Truncation:
        return self.params

    def over(self, params) -> "AlgebraElement":
        """The same terms over other parameters of the same truncation: how
        a per-truncation table reaches one parameter set."""
        if params.trunc != self.params.trunc:
            raise ParamsMismatchError(
                "elements live over different truncations")
        return AlgebraElement.zero(params).over_denominator(self.nums,
                                                            self.den)

    # -- products ----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, SeriesScalar)):
            return self.scale(other)
        return normal_order_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, SeriesScalar)):
            return self.scale(other)
        return normal_order_mul(other, self)

    def __pow__(self, n: int) -> "AlgebraElement":
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = AlgebraElement.unit(self.params)
        for _ in range(n):
            out = normal_order_mul(out, self)
        return out

    # -- presentation ------------------------------------------------------

    def to_text(self) -> str:
        from .render import element_to_text
        return element_to_text(self)

    def to_json(self) -> dict:
        from .render import element_to_json
        return element_to_json(self)


def mono_factors(mono: PBWMonomial) -> list[str]:
    out = []
    for idx, e in enumerate(mono):
        if e == 1:
            out.append(GENERATOR_NAMES[idx])
        elif e > 1:
            out.append(f"{GENERATOR_NAMES[idx]}^{e}")
    return out


# ---------------------------------------------------------------------------
# The normal-ordering engine.  engine(params) builds one per DeformParams,
# holding the commutator table and the memoised products of ordered
# monomials, and one per Truncation, with no commutator table, for the
# shared per-truncation tables (the hopf coproduct tables and the dual
# Z-basis tables multiply only products that are already ordered).  Its
# tables are functools.cache memos, written on every miss and kept for the
# life of the process.  Under the interpreter lock two threads that miss
# the same key may both compute it and one equal result is kept, so the
# engine may be shared across threads as long as no caller mutates a
# returned table.
# ---------------------------------------------------------------------------

_WordBlock = tuple[int, int]            # (generator index, exponent)


class _Engine:
    def __init__(self, params: DeformParams | Truncation):
        self.params = params
        if isinstance(params, Truncation):
            self._comms = None
            return

        # [A, B] for the straightening rule, keyed by generator pair A < B.
        alpha, beta, gamma = params.alpha, params.beta, params.gamma
        lam = _lam_pow(1, params.trunc)
        th = AlgebraElement.monomial(params, _unit_mono(TH))
        ph = AlgebraElement.monomial(params, _unit_mono(PH))
        ps = AlgebraElement.monomial(params, _unit_mono(PS))
        table: dict[tuple[int, int], AlgebraElement | None] = {
            (Q1, P1): _central_mul(lam, th).scale(1 / alpha),
            (Q2, P2): _central_mul(lam, th).scale(1 / alpha),
            (Q1, Q2): _central_mul(lam, ph).scale(beta / alpha ** 2),
            (P1, P2): _central_mul(lam, ps).scale(gamma / alpha ** 2),
            (Q1, P2): None,
            (Q2, P1): None,
        }
        self._comms = {k: (v if v else None) for k, v in table.items()}

    @cache
    def comm_pow(self, a: int, b: int, k: int) -> AlgebraElement:
        if k == 0:
            return AlgebraElement.unit(self.params)
        return _central_mul(self.comm_pow(a, b, k - 1), self._comms[(a, b)])

    # -- normal ordering ---------------------------------------------------

    @cache
    def mono_mul(self, ma: PBWMonomial, mb: PBWMonomial) -> tuple:
        """Product of two ordered monomials over one denominator: (den,
        ((monomial, h exponent, numerator), ...)) in order of h-degree,
        each numerator over den."""
        c0, c1, c2 = ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2]
        x = self._straighten(_canon_word(
            [(g, ma[g]) for g in (Q1, Q2, P1, P2) if ma[g]]
            + [(g, mb[g]) for g in (Q1, Q2, P1, P2) if mb[g]]))
        cells = [((k[0] + c0, k[1] + c1, k[2] + c2) + k[3:7], k[7], n)
                 for k, n in x.nums.items()]
        cells.sort(key=lambda cell: sum(cell[1]))
        return x.den, tuple(cells)

    @cache
    def _straighten(self, word: tuple[_WordBlock, ...]) -> AlgebraElement:
        pos = next((t for t in range(len(word) - 1)
                    if word[t][0] > word[t + 1][0]), None)
        if pos is None:
            mono = list(EMPTY_MONO)
            for g, e in word:
                mono[g] = e
            return AlgebraElement.monomial(self.params, tuple(mono))
        (b, n), (a, m) = word[pos], word[pos + 1]
        if self._comms is None:
            raise RuntimeError(
                f"{GENERATOR_NAMES[b]} before {GENERATOR_NAMES[a]} needs a "
                f"commutator, and the engine of {self.params} has none")
        c = self._comms[(a, b)]
        if c is None:
            return self._straighten(_canon_word(
                list(word[:pos]) + [(a, m), (b, n)] + list(word[pos + 2:])))
        out = AlgebraElement.zero(self.params)
        for k in range(min(m, n) + 1):
            sub = self._straighten(_canon_word(
                list(word[:pos]) + [(a, m - k), (b, n - k)]
                + list(word[pos + 2:])))
            out = out + _central_mul(self.comm_pow(a, b, k), sub).scale(
                (-1) ** k * factorial(k) * comb(m, k) * comb(n, k))
        return out


def _unit_mono(idx: int) -> PBWMonomial:
    return tuple(1 if k == idx else 0 for k in range(7))


def _canon_word(blocks: list[_WordBlock]) -> tuple[_WordBlock, ...]:
    out: list[_WordBlock] = []
    for g, e in blocks:
        if not e:
            continue
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + e)
        else:
            out.append((g, e))
    return tuple(out)


def _central_mul(c: AlgebraElement, x: AlgebraElement) -> AlgebraElement:
    """Product where the left factor is central (no straightening needed).

    The product lives over x's parameters: c may be a per-truncation table.
    """
    trunc = x.params.trunc
    out: dict = {}
    get = out.get
    for kc, nc in c.nums.items():
        hc = kc[7]
        for kx, nx in x.nums.items():
            hx = kx[7]
            h = (hc[0] + hx[0], hc[1] + hx[1], hc[2] + hx[2])
            if h[0] + h[1] + h[2] > trunc:
                continue
            key = (kc[0] + kx[0], kc[1] + kx[1], kc[2] + kx[2], kc[3] + kx[3],
                   kc[4] + kx[4], kc[5] + kx[5], kc[6] + kx[6], h)
            out[key] = get(key, 0) + nc * nx
    return x.over_denominator(out, c.den * x.den)


@cache
def engine(params: DeformParams | Truncation) -> _Engine:
    """The normal-ordering engine of one parameter set, built once.

    It holds the commutator table and one memo of monomial products,
    mono_mul(ma, mb), the product of two ordered monomials as integer
    numerators over one denominator; normal_order_mul, tensor_mul and
    mu_antipode_leg read it.  The engine of a Truncation has no commutator
    table and raises on any product that is not already ordered.
    """
    return _Engine(params)


# ---------------------------------------------------------------------------
# The central series, one set per truncation order, over Truncation(trunc).
# rho carries h-degree 1, so every power series in it stops at rho^trunc.
# ---------------------------------------------------------------------------

def lambda_coefficients(k: int, trunc: int) -> list[Fraction]:
    """The coefficients of x^0 .. x^trunc in (sinh(2x)/(2x))^k, k = +-1:
    4^n/(2n+1)! at x^(2n) for k = 1, their reciprocal series for k = -1."""
    lam = [Fraction(2 ** n, factorial(n + 1)) if n % 2 == 0 else Fraction(0)
           for n in range(trunc + 1)]
    if k == 1:
        return lam
    if k != -1:
        raise ValueError(f"lambda coefficients are built for k = +-1, not {k}")
    inv = [Fraction(1)]
    for n in range(1, trunc + 1):
        inv.append(-sum(lam[j] * inv[n - j] for j in range(1, n + 1)))
    return inv


def power_series(coeffs: Sequence[Fraction], x, one, mul: Callable):
    """sum_n coeffs[n] * x^n, with x^n built from one by repeated mul."""
    out = one.scale(coeffs[0])
    power = one
    for c in coeffs[1:]:
        power = mul(power, x)
        out = out + power.scale(c)
    return out


@cache
def _rho(trunc: int) -> AlgebraElement:
    return AlgebraElement(Truncation(trunc), {
        _unit_mono(TH): SeriesScalar.hbar(1, trunc),
        _unit_mono(PH): SeriesScalar.hbar(2, trunc),
        _unit_mono(PS): SeriesScalar.hbar(3, trunc),
    })


@cache
def _lam_pow(k: int, trunc: int) -> AlgebraElement:
    """lam^k for any integer k."""
    one = AlgebraElement.unit(Truncation(trunc))
    if k == 0:
        return one
    if k in (1, -1):
        return power_series(lambda_coefficients(k, trunc), _rho(trunc), one,
                            _central_mul)
    step = 1 if k > 0 else -1
    return _central_mul(_lam_pow(k - step, trunc), _lam_pow(step, trunc))


@cache
def _exp_rho(c: Fraction, trunc: int) -> AlgebraElement:
    return power_series([c ** n / factorial(n) for n in range(trunc + 1)],
                        _rho(trunc), AlgebraElement.unit(Truncation(trunc)),
                        _central_mul)

# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

_NAME_TO_INDEX = {name: i for i, name in enumerate(GENERATOR_NAMES)}


def make_generator(name, params: DeformParams) -> AlgebraElement:
    """One of Th, Ph, Ps, Q1, Q2, P1, P2 as an element (by name or index)."""
    if isinstance(name, str):
        if name not in _NAME_TO_INDEX:
            raise ValueError(f"unknown generator {name!r}")
        idx = _NAME_TO_INDEX[name]
    else:
        idx = int(name)
        if not 0 <= idx < 7:
            raise ValueError(f"generator index out of range: {idx}")
    return AlgebraElement.monomial(params, _unit_mono(idx))


def make_rho(params: DeformParams) -> AlgebraElement:
    """rho = h1*Th + h2*Ph + h3*Ps."""
    return _rho(params.trunc).over(params)


def make_lambda(params: DeformParams) -> AlgebraElement:
    """lam = sinh(2*rho)/(2*rho), an invertible central series."""
    return _lam_pow(1, params.trunc).over(params)


def make_exp_rho(c, params: DeformParams) -> AlgebraElement:
    """exp(c*rho) truncated at the configured order."""
    return _exp_rho(Fraction(c), params.trunc).over(params)


def normal_order_mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Product of two elements, re-expressed in the ordered-monomial basis.

    A key pair whose lowest h-degrees already exceed the truncation is
    skipped; every other reads its mono_mul cell, all brought to the lcm Lm
    of their denominators, so the sums are integers over
    x.den * y.den * Lm.
    """
    x.check(y)
    trunc = x.params.trunc
    mono_mul = engine(x.params).mono_mul
    yrows = [(mb, row, min(sum(h) for h, _ in row))
             for mb, row in y.rows().items()]
    cells = []
    for ma, xrow in x.rows().items():
        low = trunc - min(sum(h) for h, _ in xrow)
        cells += [(xrow, yrow, mono_mul(ma, mb))
                  for mb, yrow, d in yrows if d <= low]
    Lm = lcm(*{cell[0] for *_, cell in cells})
    out: dict = {}
    get = out.get
    for xrow, yrow, (den, entries) in cells:
        f = Lm // den
        for ha, na in xrow:
            for hb, nb in yrow:
                h0, h1, h2 = ha[0] + hb[0], ha[1] + hb[1], ha[2] + hb[2]
                budget = trunc - h0 - h1 - h2
                if budget < 0:
                    continue
                n = na * nb * f
                for m, hc, c in entries:
                    if hc[0] + hc[1] + hc[2] > budget:
                        break
                    key = m + ((h0 + hc[0], h1 + hc[1], h2 + hc[2]),)
                    out[key] = get(key, 0) + n * c
    return x.over_denominator(out, x.den * y.den * Lm)


def commutator(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return normal_order_mul(x, y) - normal_order_mul(y, x)


def classical_limit(x: AlgebraElement) -> AlgebraElement:
    """Set all three deformation parameters to zero."""
    return x.limit((1, 2, 3))


def _lam_graded(x: AlgebraElement, power: Callable) -> AlgebraElement:
    """The sum over the terms of x of lam^power(key) times the term."""
    parts: dict[int, dict] = {}
    for k, n in x.nums.items():
        parts.setdefault(power(k), {})[k] = n
    out = AlgebraElement.zero(x.params)
    for p, nums in parts.items():
        out = out + _central_mul(_lam_pow(p, x.params.trunc),
                                 x.over_denominator(nums, x.den))
    return out


def phi_automorphism(x: AlgebraElement) -> AlgebraElement:
    """The flatness automorphism: each generator is divided by lam.

    A monomial of total generator degree g picks up the central factor
    lam^(-g); the map is extended linearly.
    """
    return _lam_graded(x, lambda k: -sum(k[:7]))


def _z_factorial(key: tuple) -> int:
    """I! J! for the key of Z^I X^J, read as a monomial I + J."""
    return mi_factorial(key[:3]) * mi_factorial(key[3:7])


def _from_z(z: AlgebraElement) -> AlgebraElement:
    """The element whose coefficient of Z^I X^J is z's at the monomial
    I + J, where Z^I X^J = lam^|I| Th^i1 Ph^i2 Ps^i3 Q1^j1 Q2^j2 P1^j3 P2^j4
    / (I! J!)."""
    L = lcm(*{_z_factorial(k) for k in z.nums})
    scaled = z.over_denominator(
        {k: n * (L // _z_factorial(k)) for k, n in z.nums.items()}, z.den * L)
    return _lam_graded(scaled, lambda k: sum(k[:3]))


def from_z_basis(zmap: Mapping[ZMonomial, SeriesScalar],
                 params: DeformParams) -> AlgebraElement:
    """Assemble an element from divided-power coordinates.

    Z^I X^J = lam^|I| Th^i1 Ph^i2 Ps^i3 Q1^j1 Q2^j2 P1^j3 P2^j4 / (I! J!).
    """
    return _from_z(AlgebraElement(params, {
        tuple(ci) + tuple(qp): s if isinstance(s, SeriesScalar)
        else SeriesScalar.from_rational(s, params.trunc)
        for (ci, qp), s in zmap.items()}))


def z_element(x: AlgebraElement) -> AlgebraElement:
    """The divided-power coordinates of x as an element over its
    parameters: the coefficient of Z^I X^J stands at the monomial I + J.

    Successive approximation: reading off Z-coefficients as if lam were 1 is
    exact up to terms of two more h-degrees, so repeating on the remainder
    terminates within trunc/2 + 1 rounds.
    """
    z = AlgebraElement.zero(x.params)
    rem = x
    for _ in range(x.params.trunc // 2 + 2):
        if not rem.nums:
            break
        inc = rem.over_denominator(
            {k: n * _z_factorial(k) for k, n in rem.nums.items()}, rem.den)
        z = z + inc
        rem = rem - _from_z(inc)
    if rem.nums:
        raise RuntimeError("z-basis conversion failed to terminate")
    return z


def to_z_basis(x: AlgebraElement) -> dict[ZMonomial, SeriesScalar]:
    """Divided-power coordinates of an element, by z_element."""
    return {(m[:3], m[3:]): s for m, s in z_element(x).terms.items()}
