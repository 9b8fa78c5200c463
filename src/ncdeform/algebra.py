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
commutators are central, the product of two ordered monomials is a closed
sum (Wick's theorem, G. C. Wick, Phys. Rev. 80, 268, 1950).  Let a and b be
the Q1 Q2 P1 P2 exponents of the left and the right factor.  A letter of the
left factor that comes after a letter of the right one contracts with it,
in k1 pairs Q2.Q1, k2 pairs P1.Q1, k3 pairs P2.Q2 and k4 pairs P2.P1 (Q1
commutes with P2 and Q2 with P1).  With g = (beta/alpha^2, 1/alpha, 1/alpha,
gamma/alpha^2) and the falling factorial (n)_k = n!/(n-k)!,

    ma mb = sum_k  prod_t (-g_t)^k_t / k_t!
                   * (a2)_k1 (a3)_k2 (a4)_(k3+k4) (b1)_(k1+k2) (b2)_k3 (b3)_k4
                   * lam^(k1+k2+k3+k4) Th^(k2+k3) Ph^k1 Ps^k4
                   * (ma + mb less the contracted letters)

over k1 + k2 <= b1 and k3 + k4 <= a4.  Generator exponents are never
truncated; only the h-degree of coefficients is.

alpha, beta and gamma enter only through these commutators.  rho, lam,
lam^-1, lam^k and exp(c*rho) contain none of them, so they are built once
per truncation order, as elements over Truncation(trunc), and every
parameter set of that truncation reads the same tables; make_rho,
make_lambda and make_exp_rho hand out copies over the caller's parameters.
power_series sums lam, lam^-1 (lambda_coefficients) and exp(c*rho) in rho,
and, in hopf, the inverse of cop(lam) in cop(rho).

The divided-power basis is Z^I X^J = lam^|I| Th^I X^J / (I! J!), Z_i =
lam Th_i on the central letters Th_i = Th, Ph, Ps.  Each way the basis
change is one central multiplication per |I|: from_z_basis by lam^|I|, and
z_element by lam^-|I| = (asinh(2u)/(2u))^|I|, since u = h1*Z1 + h2*Z2 +
h3*Z3 = lam*rho = sinh(2*rho)/2 gives rho = asinh(2u)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm, perm
from operator import add
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
    set.  It has no commutators, so mono_mul raises on a product that
    would need reordering instead of using some parameter set's.
    A negative order raises InvalidParamsError.
    """

    trunc: int

    def __post_init__(self):
        if self.trunc < 0:
            raise InvalidParamsError("truncation order must be >= 0")


def require_first_order(trunc: int, what: str) -> None:
    """Refuse a truncation order below 1 for what reads an h_i coefficient,
    which order 0 discards."""
    if trunc < 1:
        raise InvalidParamsError(f"{what} needs truncation >= 1")


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


def mono_text(mono: PBWMonomial) -> str:
    """The monomial's factors as text, e.g. "Th*Q1^2"; "" for the unit."""
    return "*".join([name if e == 1 else f"{name}^{e}"
                     for name, e in zip(GENERATOR_NAMES, mono) if e])


# ---------------------------------------------------------------------------
# Normal ordering.  mono_mul is memoised per DeformParams and per Truncation,
# which has no weights: the shared coproduct and Z-basis tables multiply only
# ordered products.  Two threads that miss one key may both fill it with
# equal cells, so the memos may be shared while no caller mutates a cell.
# ---------------------------------------------------------------------------

_H0 = (0, 0, 0)


@cache
def _weights(space: DeformParams | Truncation) -> tuple | None:
    """g of the contractions Q2.Q1, P1.Q1, P2.Q2 and P2.P1, each as
    (numerator, denominator); None over a Truncation."""
    if isinstance(space, Truncation):
        return None
    a = space.alpha
    return tuple((g.numerator, g.denominator) for g in (
        space.beta / a ** 2, 1 / a, 1 / a, space.gamma / a ** 2))


@cache
def mono_mul(space: DeformParams | Truncation, ma: PBWMonomial,
             mb: PBWMonomial) -> tuple:
    """Product of two ordered monomials, the module docstring's sum over
    the contraction counts: (den, ((monomial, h exponent, numerator), ...))
    in order of h-degree, over the lcm of its terms' denominators.  Over a
    Truncation a pair that needs reordering raises RuntimeError."""
    plain = tuple(map(add, ma, mb))
    last, first = qp_span(ma)[1], qp_span(mb)[0]
    if last <= first:
        return 1, ((plain, _H0, 1),)
    weights = _weights(space)
    if weights is None:
        raise RuntimeError(
            f"{GENERATOR_NAMES[last]} before {GENERATOR_NAMES[first]} "
            f"needs a commutator, and {space} has none")
    th, ph, ps = plain[:3]
    if th or ph or ps:
        # Central letters only shift the product of the Q/P letters, which
        # many pairs share.
        den, cells = mono_mul(space, (0, 0, 0) + ma[3:], (0, 0, 0) + mb[3:])
        return den, tuple(((m[0] + th, m[1] + ph, m[2] + ps) + m[3:], h, n)
                          for m, h, n in cells)
    trunc = space.trunc
    g1, g2, g3, g4 = weights
    parts = []
    for k1, k2, ln, ld in _contractions(ma[Q2], ma[P1], mb[Q1], g1, g2):
        for k3, k4, rn, rd in _contractions(mb[Q2], mb[P1], ma[P2], g3, g4):
            lam = _lam_pow(k1 + k2 + k3 + k4, trunc)
            mono = (k2 + k3, k1, k4, plain[Q1] - k1 - k2,
                    plain[Q2] - k1 - k3, plain[P1] - k2 - k4,
                    plain[P2] - k3 - k4)
            parts.append((mono, ln * rn, ld * rd * lam.den, lam.nums))
    L = lcm(*[den for _, _, den, _ in parts])
    cells = [((m[0] + k[0], m[1] + k[1], m[2] + k[2]) + m[3:], k[7],
              num * (L // den) * n)
             for m, num, den, lam in parts for k, n in lam.items()]
    common = gcd(L, *[n for _, _, n in cells])
    cells.sort(key=lambda cell: sum(cell[1]))
    return L // common, tuple((m, h, n // common) for m, h, n in cells)


def _contractions(x: int, y: int, n: int, gx: tuple[int, int],
                  gy: tuple[int, int]) -> list[tuple[int, int, int, int]]:
    """The nonzero terms (i, j, numerator, denominator) of contracting i of
    x letters and j of y letters with i + j of n letters, i + j <= n:
    (x)_i (y)_j (n)_(i+j) (-gx)^i (-gy)^j / (i! j!), with gx and gy as
    (numerator, denominator)."""
    (xn, xd), (yn, yd) = gx, gy
    out = []
    for i in range(min(x, n) + 1):
        for j in range(min(y, n - i) + 1):
            num = (perm(x, i) * perm(y, j) * perm(n, i + j)
                   * (-xn) ** i * (-yn) ** j)
            if num:
                out.append((i, j, num,
                            xd ** i * yd ** j * factorial(i) * factorial(j)))
    return out


@cache
def qp_span(mono: PBWMonomial) -> tuple[int, int]:
    """The first and the last Q/P generator of a monomial, (P2 + 1, Q1)
    when it has none."""
    present = [g for g in (Q1, Q2, P1, P2) if mono[g]]
    return (present[0], present[-1]) if present else (P2 + 1, Q1)


def _unit_mono(idx: int) -> PBWMonomial:
    return tuple(1 if k == idx else 0 for k in range(7))


def _central_mul(c: AlgebraElement, x: AlgebraElement) -> AlgebraElement:
    """Product where the left factor is central (no reordering needed).

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
def _asinh_pow(k: int, trunc: int) -> AlgebraElement:
    """lam^-k = (asinh(2u)/(2u))^k in the Z_i, k >= 0, Z_i on central letter
    i (module docstring): (-1)^n C(2n, n)/(2n+1) at u^(2n) for k = 1."""
    one = AlgebraElement.unit(Truncation(trunc))
    if k == 0:
        return one
    if k == 1:
        return power_series(
            [Fraction((-1) ** (n // 2) * comb(n, n // 2), n + 1) if n % 2 == 0
             else Fraction(0) for n in range(trunc + 1)],
            _rho(trunc), one, _central_mul)
    return _central_mul(_asinh_pow(k - 1, trunc), _asinh_pow(1, trunc))


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
    Each pair of rows, [(h, numerator)] of TermMap.rows(), whose lowest
    h-degrees fit the truncation is read with its mono_mul cell (den,
    entries): each pair of row terms adds na * nb * c under monomial +
    (h sum,) for every entry (monomial, h, c) within the truncation, the
    entries being in order of h-degree.  Each den is summed apart, so no
    cell is held, and the sums are merged over the lcm L of the dens.
    _central_mul keeps its own loop (phi and zbasis ran 1.5-2x slower
    through this one), as does dual.star_sums, the loop under star_closed
    and the star associativity cube: its tables are shared by every Y
    index of the same norms, and each pair of rows attaches its own.
    """
    x.check(y)
    space, trunc = x.params, x.params.trunc
    yrows = [(mb, row, min(h[0] + h[1] + h[2] for h, _ in row))
             for mb, row in y.rows().items()]
    by_den: dict[int, dict] = {}
    for ma, xrow in x.rows().items():
        low = trunc - min(h[0] + h[1] + h[2] for h, _ in xrow)
        for mb, yrow, d in yrows:
            if d > low:
                continue
            den, entries = mono_mul(space, ma, mb)
            out = by_den.setdefault(den, {})
            get = out.get
            for ha, na in xrow:
                for hb, nb in yrow:
                    h0, h1, h2 = ha[0] + hb[0], ha[1] + hb[1], ha[2] + hb[2]
                    budget = trunc - h0 - h1 - h2
                    if budget < 0:
                        continue
                    n = na * nb
                    for m, hc, c in entries:
                        if hc[0] + hc[1] + hc[2] > budget:
                            break
                        key = m + ((h0 + hc[0], h1 + hc[1], h2 + hc[2]),)
                        out[key] = get(key, 0) + n * c
    L = lcm(*by_den)
    if len(by_den) == 1:
        sums = by_den[L]
    else:
        sums = {}
        get = sums.get
        for den, out in by_den.items():
            f = L // den
            for key, n in out.items():
                sums[key] = get(key, 0) + n * f
    return x.over_denominator(sums, x.den * y.den * L)


def commutator(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return normal_order_mul(x, y) - normal_order_mul(y, x)


def classical_limit(x: AlgebraElement) -> AlgebraElement:
    """Set all three deformation parameters to zero."""
    return x.limit((1, 2, 3))


def _lam_graded(x: AlgebraElement, power: Callable,
                table: Callable = _lam_pow) -> AlgebraElement:
    """The sum over the terms of x of table(power(key)) times the term."""
    parts: dict[int, dict] = {}
    for k, n in x.nums.items():
        parts.setdefault(power(k), {})[k] = n
    out = AlgebraElement.zero(x.params)
    for p, nums in parts.items():
        out = out + _central_mul(table(p, x.params.trunc),
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


def check_z_key(key, name: str = "Z-basis key (I, J)") -> None:
    """Raise ValueError unless key is a Z-basis key (I, J) of 3 and 4
    naturals; name is the kind of key the message names, as a dual key
    (K, L) has the same shape."""
    if not (isinstance(key, tuple) and len(key) == 2
            and isinstance(key[0], tuple) and isinstance(key[1], tuple)
            and len(key[0]) == 3 and len(key[1]) == 4
            and set(map(type, key[0] + key[1])) == {int}
            and min(key[0] + key[1]) >= 0):
        raise ValueError(f"not a {name} of 3 and 4 naturals: {key!r}")


def from_z_basis(zmap: Mapping[ZMonomial, SeriesScalar],
                 params: DeformParams) -> AlgebraElement:
    """Assemble an element from divided-power coordinates.

    Z^I X^J = lam^|I| Th^i1 Ph^i2 Ps^i3 Q1^j1 Q2^j2 P1^j3 P2^j4 / (I! J!).
    A key other than (I, J) of 3 and 4 naturals raises ValueError.
    """
    for key in zmap:
        check_z_key(key)
    z = AlgebraElement(params, {
        ci + qp: s if isinstance(s, SeriesScalar)
        else SeriesScalar.from_rational(s, params.trunc)
        for (ci, qp), s in zmap.items()})
    L = lcm(*{_z_factorial(k) for k in z.nums})
    scaled = z.over_denominator(
        {k: n * (L // _z_factorial(k)) for k, n in z.nums.items()}, z.den * L)
    return _lam_graded(scaled, lambda k: sum(k[:3]))


def z_element(x: AlgebraElement) -> AlgebraElement:
    """The divided-power coordinates of x as an element over its
    parameters: the coefficient of Z^I X^J stands at the monomial I + J.
    Th^I X^J = lam^-|I| (Z1^i1 Z2^i2 Z3^i3 X^J), lam^-|I| by _asinh_pow,
    and that product of letters is I! J! Z^I X^J."""
    z = _lam_graded(x, lambda k: sum(k[:3]), _asinh_pow)
    return z.over_denominator(
        {k: n * _z_factorial(k) for k, n in z.nums.items()}, z.den)


def to_z_basis(x: AlgebraElement) -> dict[ZMonomial, SeriesScalar]:
    """Divided-power coordinates of an element, by z_element."""
    return {(m[:3], m[3:]): s for m, s in z_element(x).terms.items()}
