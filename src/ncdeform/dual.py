"""The dual side: functionals W^K Y^L dual to the divided-power basis
Z^I X^J, the closed-form star product, an engine-backed pairing oracle,
per-direction Poisson brackets and the induced seven-dimensional Lie algebra.

The closed formula for the product of two dual monomials is

    W^I Y^J * W^K Y^L =
        sum_{0<=M<=I, 0<=N<=K}  H^(M+N) W^(I+K-M-N) Y^(J+L)
        * C(I,M) C(K,N) (-2|K-N| - |L|)^|M| (2|I-M| + |J|)^|N|

with the convention 0^0 = 1, which makes the M = N = 0 term reproduce the
commutative divided-power product W^(I+K) Y^(J+L).  The coefficient reads J
and L only through their norms, and the Y index of every term is J + L, so
the formula is tabulated once per (I, |J|, K, |L|, trunc) and each pair of
terms attaches its own J + L.

The oracle reconstructs the same product from first principles through
<u * v, Z^S X^T> = <u (x) v, cop(Z^S X^T)> with the coproduct evaluated by
the normal-ordering engine and both tensor legs converted back to the
divided-power basis.  It never touches the closed formula.  Every oracle
path walks the support of a pair (a, b) (_support): the targets Z^S X^T
with T = y_a + y_b and |S| <= |w_a| + |w_b|, the only ones whose coproduct
can pair with a (x) b; the grid walks the union of the supports of its
pairs.  The coproduct and the divided-power basis contain no alpha, beta or
gamma, so nothing on this side reads them: every function here takes a
truncation order, or reads it off its operands, and never a DeformParams.
The oracle's tables (the Z-basis expansion of each monomial and
cop(Z^S X^T) in that basis) are built once per truncation order, as integer
rows: each Z-basis expansion over its own denominator, and each
cop(Z^S X^T) as rows of numerators per pair of basis keys over one
denominator.  delta_on_zbasis is a view of one table whose entries become
series coefficients when they are read; the oracle reads each table through
it and builds its products from the integer rows over the lcm of their
denominators.

Both products run on the integer numerators of series.TermMap: the inner
loops add integer products per key.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from math import comb, lcm

from .algebra import (AlgebraElement, PBWMonomial, Truncation, ZMonomial,
                      from_z_basis, z_element)
from .bialgebra import LieData
from .hopf import coproduct
from .multiindex import mi_binom, mi_norm, multiindices, submultiindices
from .series import SeriesScalar, TermMap

DualMonomial = tuple[tuple[int, int, int], tuple[int, int, int, int]]

CHI_NAMES = ("chi1", "chi2", "chi3", "chi4", "chi5", "chi6", "chi7")

_W_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_Y_UNITS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
_ZERO_W = (0, 0, 0)
_ZERO_Y = (0, 0, 0, 0)
_H0 = (0, 0, 0)


class NonLinearBracketError(ValueError):
    """A basis bracket failed to be linear in the basis functionals."""


class DualElement(TermMap):
    """Finite sum of dual monomials W^K Y^L with series coefficients; a
    basis key is the pair (K, L)."""

    __slots__ = ("trunc",)

    def __init__(self, trunc: int, terms: Mapping[DualMonomial, SeriesScalar]):
        self.trunc = trunc
        self._store_series(terms)

    @classmethod
    def zero(cls, trunc: int) -> "DualElement":
        return cls(trunc, {})

    @classmethod
    def unit(cls, trunc: int) -> "DualElement":
        return cls.monomial(_ZERO_W, _ZERO_Y, trunc)

    @classmethod
    def monomial(cls, w, y, trunc: int, coeff=1) -> "DualElement":
        if not isinstance(coeff, SeriesScalar):
            coeff = SeriesScalar.from_rational(coeff, trunc)
        return cls(trunc, {(tuple(w), tuple(y)): coeff})

    def space(self) -> int:
        return self.trunc

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, SeriesScalar)):
            return self.scale(other)
        return classical_product(self, other)

    __rmul__ = __mul__

    def to_text(self) -> str:
        from .render import dual_to_text
        return dual_to_text(self)

    def to_json(self) -> dict:
        from .render import dual_to_json
        return dual_to_json(self)


def chi(i: int, trunc: int) -> DualElement:
    """chi_1..chi_3 = unit W functionals, chi_4..chi_7 = unit Y functionals."""
    if not 1 <= i <= 7:
        raise ValueError("chi index must be in 1..7")
    if i <= 3:
        return DualElement.monomial(_W_UNITS[i - 1], _ZERO_Y, trunc)
    return DualElement.monomial(_ZERO_W, _Y_UNITS[i - 4], trunc)


def classical_product(u: DualElement, v: DualElement) -> DualElement:
    """The commutative constant-term product: indices simply add."""
    u.check(v)
    trunc = u.trunc
    out: dict = {}
    get = out.get
    for (wa, ya, ha), na in u.nums.items():
        for (wb, yb, hb), nb in v.nums.items():
            h = (ha[0] + hb[0], ha[1] + hb[1], ha[2] + hb[2])
            if h[0] + h[1] + h[2] > trunc:
                continue
            key = (tuple(a + b for a, b in zip(wa, wb)),
                   tuple(a + b for a, b in zip(ya, yb)), h)
            out[key] = get(key, 0) + na * nb
    return u.over_denominator(out, u.den * v.den)


# ---------------------------------------------------------------------------
# The closed star product.
# ---------------------------------------------------------------------------

@cache
def _star_terms(I, nJ: int, K, nL: int,
                trunc: int) -> tuple[tuple[tuple, tuple, int], ...]:
    """The closed formula for W^I Y^J * W^K Y^L with |J| = nJ, |L| = nL,
    as ((w, h, c), ...), one entry per term c * h1^a h2^b h3^c * W^w
    Y^(J+L), h = (a, b, c), with its integer coefficient c.  The formula
    reads J and L only through their norms, and every term's Y index is
    J + L, so one table serves every J and L of these norms.  Only the M
    and N within the h budget trunc are enumerated, and zero sums are
    dropped."""
    out: dict[tuple, int] = {}
    normK = mi_norm(K)
    for M in submultiindices(I, trunc):
        bIM = mi_binom(I, M)
        normM = mi_norm(M)
        # 0^0 == 1 keeps the undeformed M = N = 0 term intact.
        base2 = 2 * (mi_norm(I) - normM) + nJ
        for N in submultiindices(K, trunc - normM):
            normN = mi_norm(N)
            base1 = -2 * (normK - normN) - nL
            c = bIM * mi_binom(K, N) * base1 ** normM * base2 ** normN
            key = (tuple(a + b - m - n for a, b, m, n in zip(I, K, M, N)),
                   (M[0] + N[0], M[1] + N[1], M[2] + N[2]))
            out[key] = out.get(key, 0) + c
    return tuple((w, h, c) for (w, h), c in out.items() if c)


def star_closed(u: DualElement, v: DualElement) -> DualElement:
    """Bilinear extension of the closed-formula product of dual monomials.

    A pair of terms nu h^ha W^wa Y^ya, nv h^hb W^wb Y^yb adds the integer
    nu * nv * c to the key (w, ya + yb, ha + h) for every (w, h, c) of
    _star_terms(wa, |ya|, wb, |yb|) within the truncation budget; the sums
    are the result's numerators over u.den * v.den.
    """
    u.check(v)
    trunc = u.trunc
    acc: dict = {}
    get = acc.get
    vrows = [(wb, yb, sum(yb), vrow) for (wb, yb), vrow in v.rows().items()]
    for (wa, ya), urow in u.rows().items():
        nya = sum(ya)
        for wb, yb, nyb, vrow in vrows:
            monos = _star_terms(wa, nya, wb, nyb, trunc)
            y = (ya[0] + yb[0], ya[1] + yb[1], ya[2] + yb[2], ya[3] + yb[3])
            for ha, na in urow:
                for hb, nb in vrow:
                    h0, h1, h2 = ha[0] + hb[0], ha[1] + hb[1], ha[2] + hb[2]
                    budget = trunc - h0 - h1 - h2
                    n = na * nb
                    if budget == trunc:
                        # h-free pair: monos is already within trunc.
                        for w, h, c in monos:
                            key = (w, y, h)
                            acc[key] = get(key, 0) + n * c
                        continue
                    if budget < 0:
                        continue
                    for w, h, c in monos:
                        if h[0] + h[1] + h[2] > budget:
                            continue
                        key = (w, y, (h0 + h[0], h1 + h[1], h2 + h[2]))
                        acc[key] = get(key, 0) + n * c
    return u.over_denominator(acc, u.den * v.den)


def star_commutator(u: DualElement, v: DualElement) -> DualElement:
    return star_closed(u, v) - star_closed(v, u)


# ---------------------------------------------------------------------------
# The engine-backed oracle.
# ---------------------------------------------------------------------------

def pairing(u: DualElement, zmap: Mapping[ZMonomial, SeriesScalar]) -> SeriesScalar:
    """<W^K Y^L, Z^I X^J> = delta_KI delta_LJ, extended bilinearly."""
    out = SeriesScalar.zero(u.trunc)
    for key, s in u.terms.items():
        c = zmap.get(key)
        if c is not None:
            out = out + s * c
    return out


def delta_on_zbasis(S, T, trunc: int) -> Mapping[tuple[ZMonomial, ZMonomial],
                                                 SeriesScalar]:
    """cop(Z^S X^T) with both tensor legs re-expressed in the Z X basis.

    Computed entirely by the engine: build the element, apply the coproduct,
    convert each leg monomial through the cached Z-basis expansion.  The
    table is built once per truncation order, on integers (_delta_z); this
    is a read-only view of it (_ZTable), whose entries become SeriesScalars
    when they are read.  The oracle reads the view's den and rows, never
    its entries.
    """
    return _ZTable(*_delta_z(tuple(S), tuple(T), trunc), trunc)


class _ZTable(Mapping):
    """One _delta_z table as a mapping (k1, k2) -> SeriesScalar: den and
    rows are the table itself, and each entry is made a SeriesScalar, row
    / den, when it is read."""

    __slots__ = ("den", "rows", "trunc")

    def __init__(self, den: int, rows: dict, trunc: int):
        self.den, self.rows, self.trunc = den, rows, trunc

    def __getitem__(self, pair) -> SeriesScalar:
        return SeriesScalar.zero(self.trunc).over_denominator(
            {(h,): n for h, n in self.rows[pair]}, self.den)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


@cache
def _mono_z(mono: PBWMonomial, trunc: int) -> tuple[int, tuple]:
    """Z-basis expansion of a single ordered monomial as integer numerators
    over one denominator: (den, ((zkey, h, numerator), ...))."""
    z = z_element(AlgebraElement.monomial(Truncation(trunc), mono))
    return z.den, tuple(((k[:3], k[3:7]), k[7], n) for k, n in z.nums.items())


@cache
def _delta_z(S, T, trunc: int) -> tuple[int, dict]:
    """cop(Z^S X^T) in the Z X basis as integer rows over one denominator:
    (den, {(k1, k2): [(h, numerator), ...]}), nonzero numerators only.
    Each Z-expansion keeps its own denominator, the coproduct's terms are
    put over one common denominator, and the products of numerators are
    added per ((k1, k2), h)."""
    shared = Truncation(trunc)
    ten = coproduct(from_z_basis({(S, T): SeriesScalar.one(trunc)}, shared))
    rows = [(_mono_z(m1, trunc), _mono_z(m2, trunc), h, c)
            for (m1, m2, h), c in ten.nums.items()]
    # Every row over one denominator: the coproduct's denominator times the
    # lcms L1, L2 of the Z-expansions met on each leg.
    L1 = lcm(*(z1[0] for z1, *_ in rows))
    L2 = lcm(*(z2[0] for _, z2, *_ in rows))
    acc: dict[tuple, int] = {}
    get = acc.get
    for (d1, z1), (d2, z2), h, c in rows:
        n = c * (L1 // d1) * (L2 // d2)
        budget = trunc - h[0] - h[1] - h[2]
        for k1, g, n1 in z1:
            b1 = budget - g[0] - g[1] - g[2]
            if b1 < 0:
                continue
            g0, g1, g2 = h[0] + g[0], h[1] + g[1], h[2] + g[2]
            m = n * n1
            for k2, e, n2 in z2:
                if e[0] + e[1] + e[2] > b1:
                    continue
                key = ((k1, k2), (g0 + e[0], g1 + e[1], g2 + e[2]))
                acc[key] = get(key, 0) + m * n2
    out: dict = {}
    for (pair, h), n in acc.items():
        if n:
            out.setdefault(pair, []).append((h, n))
    return ten.den * L1 * L2, out


def _support(s_bound: int, T) -> list[tuple[tuple, tuple]]:
    """The targets Z^S X^T with |S| <= s_bound and this T: the support of
    every pair of dual monomials (a, b) with y_a + y_b = T and |w_a| + |w_b|
    = s_bound, the only targets whose coproduct can pair with a (x) b.

    The X legs of cop(Z^S X^T) split T exactly (the binomial expansion of
    the Q/P coproduct powers has no central corrections), and the Z legs
    carry total Z-degree at least |S|.  Both facts come from the shape of
    the engine's coproduct, not from the closed formula, so the oracle
    stays an independent check.
    """
    return [(S, T) for S in multiindices(3, s_bound)]


def star_oracle(a: DualMonomial, b: DualMonomial, trunc: int) -> DualElement:
    """Star product of two dual monomials reconstructed through the pairing,
    over the targets of its support."""
    Truncation(trunc)  # rejects a negative order
    key = ((tuple(a[0]), tuple(a[1])), (tuple(b[0]), tuple(b[1])))
    T = tuple(x + y for x, y in zip(a[1], b[1]))
    found = []
    for S, T in _support(mi_norm(a[0]) + mi_norm(b[0]), T):
        table = delta_on_zbasis(S, T, trunc)
        row = table.rows.get(key)
        if row is not None:
            found.append((S, T, table.den, row))
    return _over_targets(trunc, found)


# bench/tracer.py wraps the oracle by this name, so the name stays bound.
star_oracle_restricted = star_oracle


def oracle_targets(u: DualElement, v: DualElement) -> int:
    """The work of star_oracle_element(u, v), counted without building
    anything: for each pair of basis keys, the targets of their support,
    C(|w_a| + |w_b| + 3, 3), times the classical splits of each target's X
    part, prod(t + 1 for t in y_a + y_b)."""
    out = 0
    for wa, ya in u.rows():
        for wb, yb in v.rows():
            splits = 1
            for x, y in zip(ya, yb):
                splits *= x + y + 1
            out += comb(mi_norm(wa) + mi_norm(wb) + 3, 3) * splits
    return out


def star_oracle_element(u: DualElement, v: DualElement) -> DualElement:
    """Bilinear extension of star_oracle to two dual elements of one
    truncation order."""
    Truncation(u.trunc)  # rejects a negative order, also when u or v is 0
    u.check(v)
    out = DualElement.zero(u.trunc)
    vterms = v.terms.items()
    for ka, sa in u.terms.items():
        for kb, sb in vterms:
            out = out + star_oracle(ka, kb, u.trunc).scale(sa * sb)
    return out


def star_oracle_grid(norm_bound: int, trunc: int) -> dict:
    """Oracle products for every pair of dual monomials of norm <= norm_bound,
    via one pass over the shared coproduct tables.  The union of the
    supports of those pairs is every target with |S| + |T| <= 2 *
    norm_bound: for each T, the support of the pairs with y_a + y_b = T and
    the most W-norm left."""
    Truncation(trunc)  # rejects a negative order
    cap = 2 * norm_bound
    buckets: dict[tuple[DualMonomial, DualMonomial], list] = {}
    targets = [target for T in multiindices(4, cap)
               for target in _support(cap - sum(T), T)]
    for S, T in targets:
        table = delta_on_zbasis(S, T, trunc)
        for (k1, k2), row in table.rows.items():
            if (mi_norm(k1[0]) + mi_norm(k1[1]) > norm_bound
                    or mi_norm(k2[0]) + mi_norm(k2[1]) > norm_bound):
                continue
            buckets.setdefault((k1, k2), []).append((S, T, table.den, row))
    return {pair: _over_targets(trunc, found)
            for pair, found in buckets.items()}


def _over_targets(trunc: int, found: list) -> DualElement:
    """The dual element with the coefficient row / den at W^S Y^T for each
    (S, T, den, row) found, row an integer row of _delta_z: every row is
    brought to the lcm L of the dens, so the sums are integers over L."""
    L = lcm(*(den for _, _, den, _ in found))
    return DualElement.zero(trunc).over_denominator(
        {(S, T, h): n * (L // den) for S, T, den, row in found
         for h, n in row}, L)


# ---------------------------------------------------------------------------
# Poisson layer.
# ---------------------------------------------------------------------------

def poisson_bracket_dir(u: DualElement, v: DualElement, i: int) -> DualElement:
    """Coefficient of h_i in the star commutator, as an h-free dual element.

    Under this normalization the proportionality constants of the linear
    Poisson structure equal 2 per unit direction.
    """
    if i not in (1, 2, 3):
        raise ValueError("direction must be 1, 2 or 3")
    h = tuple(1 if k == i - 1 else 0 for k in range(3))
    comm = star_commutator(u, v)
    return comm.over_denominator({k[:-1] + (_H0,): n
                                  for k, n in comm.nums.items() if k[-1] == h},
                                 comm.den)


_CHI_KEYS = tuple((w, _ZERO_Y) for w in _W_UNITS) + tuple(
    (_ZERO_W, y) for y in _Y_UNITS)


def dual_structure_constants(i: int, trunc: int = 1) -> LieData:
    """Structure constants of the direction-i Poisson bracket on chi_1..chi_7.

    Raises NonLinearBracketError if any basis bracket fails to be a linear
    combination of the chi functionals.
    """
    chis = [chi(k, trunc) for k in range(1, 8)]
    constants: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a in range(7):
        for b in range(7):
            br = poisson_bracket_dir(chis[a], chis[b], i)
            vec: dict[int, Fraction] = {}
            for key, s in br.terms.items():
                if key not in _CHI_KEYS:
                    raise NonLinearBracketError(
                        f"non-linear bracket: {CHI_NAMES[a]},{CHI_NAMES[b]} "
                        f"-> {key}")
                vec[_CHI_KEYS.index(key)] = s.constant()
            if vec:
                constants[(a, b)] = vec
    return LieData(names=CHI_NAMES, constants=constants)
