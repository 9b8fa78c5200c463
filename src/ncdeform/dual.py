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
divided-power basis.  cop is an algebra map and Z1, Z2, Z3 are central, so
cop(Z^S X^T) = cop(X^T) prod_i cop(Z_i)^(S_i) / (S! T!): the engine builds
it as one chain of packed tables (hopf.divided_power_coproduct), the Q/P
letters of X^T first and then one link per Z letter, never as the
coproduct of the expansion lam^|S| Th^S X^T; the targets of one T share
the Q/P links.  It never touches the closed formula.  Every oracle
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
denominators.  A table holds only the rows its reader can read, the keys
(k1, k2) within one norm bound per leg: (|a|, |b|) for star_oracle(a, b)
and (nb, nb) for star_oracle_grid(nb, .), |k| = |I| + |J| for k = (I, J).
A key's norm is at least its leg monomial's degree, as the basis change
multiplies Th^I X^J by lam^-|I|, a series in u = h.Z that only adds Z
letters, so the legs above a bound are never expanded (_delta_z).  Like
_support's facts, this one comes from the engine, here the basis change,
not from the closed formula.

Both products run on the integer numerators of series.TermMap: the inner
loops add integer products per key.  Inside the closed product a key is
one int (star_layout): a dual key (W^w, Y^y, h) is packed as the one-leg
tensor key (w + y, h) of multiindex.Layout, the layout hopf's tensor
kernels use, with fields as wide as the operands' largest exponents and
the truncation order demand.  The closed formula is tabulated packed
(_packed_terms), so each pair of terms adds its table's entries as ints,
acc[ka + kb + m] += n * c, and the sum is decoded once per product;
keys stay tuples at the edges: DualElement storage, rows(), rendering and
every public function.  The classical product stays on tuple keys, as its
pairs of terms mostly form keys of their own.  DualElement and star_oracle
refuse a key other than (K, L) of 3 and 4 naturals, as a negative field
would borrow from its neighbour in a packed key.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from math import comb, lcm

from .algebra import (AlgebraElement, PBWMonomial, Truncation, ZMonomial,
                      check_z_key, require_first_order, z_element)
from .bialgebra import CHI_NAMES, LieData
from .hopf import divided_power_coproduct
from .multiindex import (Layout, Memo, key_layout, mi_binom, mi_norm,
                         multiindices, submultiindices)
from .series import SeriesScalar, TermMap

DualMonomial = tuple[tuple[int, int, int], tuple[int, int, int, int]]

_W_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_Y_UNITS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
_ZERO_W = (0, 0, 0)
_ZERO_Y = (0, 0, 0, 0)
_H0 = (0, 0, 0)
_UNIT_KEY = (_ZERO_W, _ZERO_Y, _H0)
_KEY_NAME = "dual key (K, L)"


class NonLinearBracketError(ValueError):
    """A basis bracket failed to be linear in the basis functionals."""


class DualElement(TermMap):
    """Finite sum of dual monomials W^K Y^L with series coefficients; a
    basis key is the pair (K, L) of 3 and 4 naturals, and any other key
    raises ValueError."""

    __slots__ = ("trunc",)

    def __init__(self, trunc: int, terms: Mapping[DualMonomial, SeriesScalar]):
        Truncation(trunc)  # rejects a negative order
        for key in terms:
            check_z_key(key, _KEY_NAME)
        self.trunc = trunc
        self._store_series(terms)

    @classmethod
    def zero(cls, trunc: int) -> "DualElement":
        return cls(trunc, {})

    @classmethod
    def unit(cls, trunc: int) -> "DualElement":
        # Its one key is known good, so it is stored as zero's numerators.
        return cls.zero(trunc).over_denominator({_UNIT_KEY: 1}, 1)

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
    """The commutative constant-term product: indices simply add.  It
    stays on tuple keys: its pairs of terms mostly form keys of their own,
    so decoding a packed sum would cost what building the tuples does, on
    top of the packing (star_layout)."""
    u.check(v)
    trunc = u.trunc
    out: dict = {}
    get = out.get
    bitems = v.nums.items()
    for (wa, ya, ha), na in u.nums.items():
        for (wb, yb, hb), nb in bitems:
            h = (ha[0] + hb[0], ha[1] + hb[1], ha[2] + hb[2])
            if h[0] + h[1] + h[2] > trunc:
                continue
            key = ((wa[0] + wb[0], wa[1] + wb[1], wa[2] + wb[2]),
                   (ya[0] + yb[0], ya[1] + yb[1], ya[2] + yb[2],
                    ya[3] + yb[3]), h)
            out[key] = get(key, 0) + na * nb
    return u.over_denominator(out, u.den * v.den)


# ---------------------------------------------------------------------------
# The closed star product.
# ---------------------------------------------------------------------------

def star_layout(trunc: int, top: int) -> Layout:
    """The packed keys of the closed products at order trunc of operands
    whose W or Y exponents sum pairwise to at most top (top_exponent of a
    left operand plus that of a right one).

    A dual key (W^w, Y^y, h) is the one-leg tensor key (w + y, h) of
    multiindex.Layout, with fields wide enough for max(trunc, top).
    Packing is linear over the integers, so a sum of packed keys, some
    parts of it negative, is the packed key of the sum of their fields
    whenever each field of that sum lies in 0..2^width - 1.  Every key a
    product forms has its fields in that range: it keeps h only within
    trunc, its Y index is J + L, and its W index I + K - M - N lies in
    0..I + K.  The bound is read off the operands, as a library caller
    has no degree bound, and a field too narrow would carry into its
    neighbour and silently give a wrong key."""
    return key_layout(1, max(trunc, top).bit_length() or 1)


def top_exponent(x: DualElement) -> int:
    """The largest W or Y exponent in x's keys, 0 for none."""
    top = 0
    for w, y, _ in x.nums:
        m = max(w + y)
        if m > top:
            top = m
    return top


@cache
def _codes(layout: Layout) -> tuple[Memo, Memo, Memo]:
    """layout's memos of dual keys, filled as they are met: {(w, y, h):
    (packed key, |h|)}, {packed key: (w, y, h)}, so that packing a term
    and decoding a sum are one lookup each and decoded keys are shared,
    and {h: packed key of (W^-h, h)}, the shift a term of the closed
    formula adds (_packed_terms)."""
    code, bits = layout.code, layout.hbits
    f1, f2, f3, f4, f5, f6, f7, f8, f9 = (layout.width * i
                                          for i in range(1, 10))
    mask = (1 << layout.width) - 1

    def pack(key: tuple) -> tuple[int, int]:
        w, y, h = key
        return code(h) + (code(w + y) << bits), h[0] + h[1] + h[2]

    def unpack(k: int) -> tuple:
        return ((k >> f3 & mask, k >> f4 & mask, k >> f5 & mask),
                (k >> f6 & mask, k >> f7 & mask, k >> f8 & mask,
                 k >> f9 & mask),
                (k & mask, k >> f1 & mask, k >> f2 & mask))

    return (Memo(pack), Memo(unpack),
            Memo(lambda h: code(h) - (code(h) << bits)))


def _decoded(layout: Layout, sums: dict[int, int]) -> dict:
    """sums on packed keys as {(w, y, h): numerator}."""
    keys = _codes(layout)[1]
    return {keys[k]: n for k, n in sums.items()}


def _star_terms(I, nJ: int, K, nL: int,
                trunc: int) -> tuple[tuple[tuple, tuple, int], ...]:
    """The closed formula for W^I Y^J * W^K Y^L with |J| = nJ, |L| = nL,
    as ((w, h, c), ...), one entry per term c * h1^a h2^b h3^c * W^w
    Y^(J+L), h = (a, b, c), with its integer coefficient c.  The formula
    reads J and L only through their norms, and every term's Y index is
    J + L, so one table serves every J and L of these norms.  Only the M
    and N within the h budget trunc are enumerated, and zero sums are
    dropped.  It is read only to be packed, so only its packed form is
    kept (_packed_terms)."""
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


@cache
def _packed_terms(I, nJ: int, K, nL: int, trunc: int,
                  layout: Layout) -> tuple[tuple[tuple[int, int], ...], ...]:
    """_star_terms(I, nJ, K, nL, trunc) packed in layout, by budget: entry
    b holds (m, c) for every term c h^e W^w with |e| <= b, b = 0..trunc,
    so a pair of terms whose own h-degree leaves budget b reads entry b
    whole.  m is the packed key of (W^-e, e), what the term adds to the
    packed keys of its operands' terms, which carry I and K: its W index
    I + K - M - N is I + K - e, as e = M + N."""
    shift = _codes(layout)[2]
    by_degree: list[list] = [[] for _ in range(trunc + 1)]
    for _, h, c in _star_terms(I, nJ, K, nL, trunc):
        by_degree[h[0] + h[1] + h[2]].append((shift[h], c))
    out, upto = [], ()
    for items in by_degree:
        upto += tuple(items)
        out.append(upto)
    return tuple(out)


def star_rows(x: DualElement, layout: Layout, tag=None,
              scale: int = 1) -> list:
    """x's numerators times scale as the rows star_sums reads, packed in
    layout (star_layout): [(tag, w, |y|, [(packed key, |h|, numerator)])],
    one row for the terms of each W index w and Y-norm |y|, as the closed
    formula reads y only through |y|."""
    codes = _codes(layout)[0]
    rows: dict = {}
    for key, n in x.nums.items():
        w, y, _ = key
        rkey = w, y[0] + y[1] + y[2] + y[3]
        row = rows.get(rkey)
        if row is None:
            row = rows[rkey] = []
        row.append((*codes[key], n * scale))
    return [(tag, w, ny, row) for (w, ny), row in rows.items()]


def star_sums(urows: list, vrows: list, trunc: int, layout: Layout,
              out: dict) -> dict:
    """The closed-formula products of prepared rows (see star_rows), summed
    into out[(tag_u, tag_v)], a dict keyed by packed key, and returned.

    A pair of rows (tu, wa, |ya|, urow), (tv, wb, |yb|, vrow) reads the
    table _packed_terms(wa, |ya|, wb, |yb|, trunc, layout) once; each pair
    of their terms (ka, da, na), (kb, db, nb) with da + db <= trunc adds
    na * nb * c under ka + kb + m for every entry (m, c) of the table's
    budget trunc - da - db.  ka + kb + m is the packed key of (W^w, Y^(ya
    + yb), ha + hb + h): ka and kb carry wa and wb, m carries h and the
    W part w - wa - wb = -(M + N), and the fields add as integers, which
    star_layout's width holds, as rows and tables are packed in one
    layout.  The sums are integers, zeros kept: the caller puts them over
    the product of its operands' denominators, and decodes them.  Pairs
    of rows with the same tags add up, so one call can sum a whole block
    of products.
    """
    for tu, wa, nya, urow in urows:
        for tv, wb, nyb, vrow in vrows:
            acc = out.get((tu, tv))
            if acc is None:
                acc = out[(tu, tv)] = {}
            get = acc.get
            terms = _packed_terms(wa, nya, wb, nyb, trunc, layout)
            for ka, da, na in urow:
                for kb, db, nb in vrow:
                    budget = trunc - da - db
                    if budget < 0:
                        continue
                    k, n = ka + kb, na * nb
                    for m, c in terms[budget]:
                        key = k + m
                        acc[key] = get(key, 0) + n * c
    return out


def star_closed(u: DualElement, v: DualElement) -> DualElement:
    """Bilinear extension of the closed-formula product of dual monomials:
    star_sums of the untagged rows of u and v, decoded once, over u.den *
    v.den."""
    u.check(v)
    layout = star_layout(u.trunc, top_exponent(u) + top_exponent(v))
    sums = star_sums(star_rows(u, layout), star_rows(v, layout), u.trunc,
                     layout, {})
    return u.over_denominator(_decoded(layout, sums.get((None, None), {})),
                              u.den * v.den)


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


def delta_on_zbasis(S, T, trunc: int, bounds: tuple[int, int] | None = None
                    ) -> Mapping[tuple[ZMonomial, ZMonomial], SeriesScalar]:
    """cop(Z^S X^T) with both tensor legs re-expressed in the Z X basis,
    restricted to the keys (k1, k2) with |k1| <= n1 and |k2| <= n2 for
    bounds = (n1, n2), |k| = |I| + |J| being the norm of k = (I, J).

    Computed entirely by the engine: the coproduct as one chain of X and Z
    letters (hopf.divided_power_coproduct), each leg monomial converted
    through the cached Z-basis expansion.  The table is built once per
    truncation order and bounds, on integers (_delta_z); this is a
    read-only view of it (_ZTable), whose entries become SeriesScalars when
    they are read.  The oracle reads the view's den and rows, never its
    entries.

    A key's norm is at least its leg monomial's degree, as the basis
    change only adds Z letters (_delta_z), so the legs above a bound are
    never expanded.  Without bounds the whole table is returned, at the
    bound |S| + |T| + trunc on each leg, which covers every key: counting
    a letter as 1 and a power of h as -1, no term of cop(Z^S X^T) weighs
    more than |S| + |T| (each letter's coproduct weighs 1, lam and
    exp(c rho) are series in h.Th of weight 0, and a contraction trades two
    letters for lam Th), and the basis change keeps a monomial's weight,
    each u = h.Z adding one letter and one h.  So a leg key's norm is at
    most |S| + |T| + |h| for the entry's h.
    """
    S, T = tuple(S), tuple(T)
    if bounds is None:
        bounds = (mi_norm(S) + mi_norm(T) + trunc,) * 2
    return _ZTable(*_delta_z(S, T, trunc, *bounds), trunc)


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
    over one denominator: (den, ((zkey, |zkey|, h, numerator), ...)), with
    |zkey| = |I| + |J| the norm of zkey = (I, J)."""
    z = z_element(AlgebraElement.monomial(Truncation(trunc), mono))
    return z.den, tuple(((k[:3], k[3:7]), sum(k[:7]), k[7], n)
                        for k, n in z.nums.items())


@cache
def _delta_z(S, T, trunc: int, n1: int, n2: int) -> tuple[int, dict]:
    """cop(Z^S X^T) in the Z X basis, restricted to the keys (k1, k2) with
    |k1| <= n1 and |k2| <= n2, as integer rows over one denominator:
    (den, {(k1, k2): [(h, numerator), ...]}), nonzero numerators only.
    The coproduct is hopf.divided_power_coproduct, one chain of X and Z
    letters, so lam^|S| is never expanded into PBW monomials.  Each
    Z-expansion of a leg monomial keeps its own denominator, the
    coproduct's terms are put over one common denominator, and the
    products of numerators are added per ((k1, k2), h).

    The bounds are applied before any product is formed.  z_element
    multiplies Th^I X^J by lam^-|I|, a series in u = h.Z, which only adds
    Z letters, so every key of a leg monomial's expansion has norm at
    least that monomial's degree: a leg monomial of degree above its
    leg's bound is skipped before it is expanded, and each expanded key
    above it is dropped.  The fact comes from the basis change, not from
    the closed formula.  The denominator is the lcm over the rows kept,
    so it may be smaller than the unrestricted table's."""
    ten = divided_power_coproduct(S, T, trunc)
    rows = [(_mono_z(m1, trunc), _mono_z(m2, trunc), h, c)
            for (m1, m2, h), c in ten.nums.items()
            if sum(m1) <= n1 and sum(m2) <= n2]
    # Every row over one denominator: the coproduct's denominator times the
    # lcms L1, L2 of the Z-expansions met on each leg.
    L1 = lcm(*(z1[0] for z1, *_ in rows))
    L2 = lcm(*(z2[0] for _, z2, *_ in rows))
    acc: dict[tuple, int] = {}
    get = acc.get
    for (d1, z1), (d2, z2), h, c in rows:
        n = c * (L1 // d1) * (L2 // d2)
        budget = trunc - h[0] - h[1] - h[2]
        z2 = [(k2, e, c2) for k2, s2, e, c2 in z2 if s2 <= n2]
        for k1, s1, g, c1 in z1:
            b1 = budget - g[0] - g[1] - g[2]
            if b1 < 0 or s1 > n1:
                continue
            g0, g1, g2 = h[0] + g[0], h[1] + g[1], h[2] + g[2]
            m = n * c1
            for k2, e, c2 in z2:
                if e[0] + e[1] + e[2] > b1:
                    continue
                key = ((k1, k2), (g0 + e[0], g1 + e[1], g2 + e[2]))
                acc[key] = get(key, 0) + m * c2
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
    stays an independent check.  So does the third fact the oracle reads,
    which bounds the rows of a table rather than its targets: a key's norm
    is at least its leg monomial's degree (delta_on_zbasis).
    """
    return [(S, T) for S in multiindices(3, s_bound)]


def star_oracle(a: DualMonomial, b: DualMonomial, trunc: int) -> DualElement:
    """Star product of two dual monomials reconstructed through the pairing,
    over the targets of its support.  a and b are keys (K, L) of 3 and 4
    naturals; any other raises ValueError.  It reads only the row (a, b)
    of each table, so each table is built on the bounds (|a|, |b|)."""
    Truncation(trunc)  # rejects a negative order
    key = a, b = _dual_key(a), _dual_key(b)
    bounds = mi_norm(a[0]) + mi_norm(a[1]), mi_norm(b[0]) + mi_norm(b[1])
    T = tuple(x + y for x, y in zip(a[1], b[1]))
    found = []
    for S, T in _support(mi_norm(a[0]) + mi_norm(b[0]), T):
        table = delta_on_zbasis(S, T, trunc, bounds=bounds)
        row = table.rows.get(key)
        if row is not None:
            found.append((S, T, table.den, row))
    return _over_targets(trunc, found)


def _dual_key(x) -> DualMonomial:
    """x, its parts made tuples, checked to be a dual key (K, L)."""
    key = tuple(tuple(part) if isinstance(part, list) else part
                for part in x)
    check_z_key(key, _KEY_NAME)
    return key


# bench/tracer.py wraps the oracle by this name, so the name stays bound.
star_oracle_restricted = star_oracle


def oracle_targets(u: DualElement, v: DualElement) -> int:
    """The work of star_oracle_element(u, v), counted without building
    anything: for each pair of basis keys, the targets Z^S X^T of their
    support, each weighed by |S| + 1 (generous: each Z letter adds one
    link to the chain of cop(Z^S X^T), whose Q/P links the targets of one
    T share), times the classical splits of their X part, prod(t + 1 for
    t in y_a + y_b).  With s = |w_a| + |w_b| the weighed targets sum to
    sum_{n <= s} (n + 1) C(n + 2, 2) = 3 C(s + 4, 4) - 2 C(s + 3, 3)."""
    out = 0
    for wa, ya in u.rows():
        for wb, yb in v.rows():
            splits = 1
            for x, y in zip(ya, yb):
                splits *= x + y + 1
            s = mi_norm(wa) + mi_norm(wb)
            out += (3 * comb(s + 4, 4) - 2 * comb(s + 3, 3)) * splits
    return out


def star_oracle_element(u: DualElement, v: DualElement) -> DualElement:
    """Bilinear extension of star_oracle to two dual elements of one
    truncation order."""
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
    the most W-norm left.  Each table is built on the bounds (norm_bound,
    norm_bound), so every row it holds is a pair of the grid: a key's norm
    is at least its leg monomial's degree, so no leg above the bound is
    expanded (delta_on_zbasis)."""
    Truncation(trunc)  # rejects a negative order
    cap = 2 * norm_bound
    buckets: dict[tuple[DualMonomial, DualMonomial], list] = {}
    targets = [target for T in multiindices(4, cap)
               for target in _support(cap - sum(T), T)]
    for S, T in targets:
        table = delta_on_zbasis(S, T, trunc, bounds=(norm_bound, norm_bound))
        for pair, row in table.rows.items():
            buckets.setdefault(pair, []).append((S, T, table.den, row))
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
    """Coefficient of h_i in the star commutator, as an h-free dual element;
    truncation 0 discards it, so the operands need truncation >= 1.

    Under this normalization the proportionality constants of the linear
    Poisson structure equal 2 per unit direction.
    """
    if i not in (1, 2, 3):
        raise ValueError("direction must be 1, 2 or 3")
    require_first_order(u.trunc, "the Poisson bracket")
    return h_coefficient(star_commutator(u, v), i)


def h_coefficient(x: DualElement, i: int) -> DualElement:
    """The coefficient of h_i in x, as an h-free dual element of x's order:
    poisson_bracket_dir's reading of a star commutator."""
    h = tuple(1 if k == i - 1 else 0 for k in range(3))
    return x.over_denominator({k[:-1] + (_H0,): n
                               for k, n in x.nums.items() if k[-1] == h},
                              x.den)


_CHI_KEYS = tuple((w, _ZERO_Y) for w in _W_UNITS) + tuple(
    (_ZERO_W, y) for y in _Y_UNITS)


def dual_structure_constants(i: int, trunc: int = 1) -> LieData:
    """Structure constants of the direction-i Poisson bracket on chi_1..chi_7.

    Raises NonLinearBracketError if any basis bracket fails to be a linear
    combination of the chi functionals, and InvalidParamsError for a
    truncation order below 1, as poisson_bracket_dir does.
    """
    require_first_order(trunc, "the Poisson bracket")
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
