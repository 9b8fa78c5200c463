"""Coproduct, counit and antipode for the deformed algebra, tensor-algebra
arithmetic, exhaustive axiom verification and the one-parameter limit report.

The coproduct is fixed on generators,

    cop(Qi) = Qi (x) exp(rho)  + exp(-rho)  (x) Qi      (same for Pi)
    cop(Th) = (lam*Th (x) exp(2rho) + exp(-2rho) (x) lam*Th) / cop(lam)

(and likewise for Ph, Ps), and extended multiplicatively.  cop is an
algebra map and cop(rho) = rho (x) 1 + 1 (x) rho, so cop(lam) and its
inverse are the power series of lam and lam^-1 (algebra.power_series with
algebra.lambda_coefficients) in cop(rho) instead of rho.

None of this contains alpha, beta or gamma, so the letters' coproducts
(_letters) and the coproducts of monomials on two and three legs are built
once per truncation order, over algebra.Truncation(trunc), and shared by
every parameter set.  Two functions read the two-leg tables: coproduct()
adds the tables of its operand's monomials on their packed keys and
decodes the sum once per layout, over the caller's parameters, and the
Hopf grid's antipode check runs _Table.mu_antipode on each monomial's
table.  apply_coproduct_leg() groups a tensor's terms by their other legs
and puts the coproduct() of each group in the leg.  The antipode reverses
products, so its tables are built per parameter set, with that set's
commutators.

A tensor's basis key is its tuple of leg monomials (series.TermMap holds
the storage).  The product kernel works on packed integer keys instead
(multiindex.Layout): the exponents of a key (m_1, ..., m_arity, h) are
fixed-width fields of one int, h in the lowest bits, then each leg monomial
in turn, and the width holds the largest exponent a product can form, so no
field carries into the next.  There is one layout per arity and width
(multiindex.key_layout), shared with its decoding memos by every caller,
the dual side's closed star product among them.

There is one packed product, _Table.times, and every tensor product runs
on it: the coproduct tables over a Truncation and tensor_mul over the
caller's parameters.  The Q/P letters of a monomial split across the legs
with binomial weights, and each split is multiplied by a central series in
Th, Ph, Ps and h, few of which are distinct.  So a table stores, for each
Q/P part of its keys, one interned central block (_Block) times an integer
factor.  As every commutator is central (Wick's theorem, see algebra), a
leg product that reorders is again a new Q/P part times a central series:
a product of two tables takes each pair of Q/P keys, multiplies their Q/P
parts leg by leg through mono_mul, and multiplies the two blocks and the
central part of that product as blocks (_block_product), each distinct
block pair once per process.  Where no leg's Q/P letters can come out of
order, as in every link of a coproduct chain, the Q/P parts simply add and
each distinct pair of blocks is multiplied once per product.  tensor_mul
packs its operands at the width its product needs, multiplies them, and
decodes the result.  There is one antipode kernel, _Table.mu_antipode:
Th, Ph and Ps are central, so S(c) = (-1)^|c| c on a central monomial c,
and mu (S (x) 1) of a table is, block by block, one signed central series
times the sum of S(q1) q2 over the block's Q/P keys.  That series holds
no alpha, beta or gamma, so it is kept per (layout, block, leg) (_signed),
and it is multiplied once per block, by one normal_order_mul, into the sum
of the block's Q/P products.  mu_antipode_leg packs its tensor and runs the
same kernel.

The coproduct tables of monomials are stored packed (_Table), on two legs
and on the three legs of the coassociativity check (_cop_table, one chain
for both): the table of a monomial is the last link of a chain (_chain),
each link the one before times a letter's table (_gen), and every link
and letter table of the chain is packed at the one width read off the
monomial (_width).  So a product meets two tables of one layout, and no
table changes once it is cached.  One walker (_walk) builds every chain
bottom up, one link per letter, so its length is bounded by memory alone,
not by recursion.  A chain is spelled by a word that counts its ten
letters, walked in one order: Q1, Q2, P1, P2, Th, Ph, Ps, Z1, Z2, Z3
(_letters, their coproducts).  A Z letter's coproduct is Z_i (x) exp(2rho)
+ exp(-2rho) (x) Z_i, the numerator that cop(Th_i) is built from, so no
chain calls coproduct().  A monomial's chain walks its Q/P letters first
and its central letters after them: cop of a central monomial is central
in the tensor algebra, so the order leaves the table as it is, and the
monomials of one Q/P part share its links.  The pairing oracle's cop(Z^S
X^T) (divided_power_coproduct) is the walk of the word X^T Z^S divided by
S! T!: cop is an algebra map and Z_i = lam Th_i is central.  The targets
of one T and width share the links of its Q/P letters, and a central or Z
link, having no Q/P letter, never reorders.
Over the degree-3 grid at trunc 3 the two three-leg sides hold 1,632 (Q/P
key, block) slots but 77 distinct blocks, and their products meet 121
distinct block pairs.  No decoded copy of a table is kept: coproduct()
decodes only its packed sum, the antipode check only each block's signed
series and Q/P keys, the coassociativity check compares the two
sides' blocks and factors, and a three-leg table is decoded only to write
a failure's note.  Only integers are added, over one denominator per
table.  This keeps the exhaustive degree-3 verification grids fast enough
for interactive use.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from itertools import chain
from math import factorial, gcd, lcm
from operator import add, or_
from typing import Mapping

from .algebra import (CENTRAL_GENERATORS, EMPTY_MONO, GENERATOR_NAMES, P1, P2,
                      Q1, Q2, TH, AlgebraElement, DeformParams,
                      InvalidParamsError, ParamsMismatchError, PBWMonomial,
                      Truncation, check_z_key, commutator, lambda_coefficients,
                      make_exp_rho, make_generator, make_lambda, make_rho,
                      mono_mul, mono_text, normal_order_mul, power_series,
                      qp_span)
from .multiindex import (Layout, key_layout, mi_factorial,
                         multiindices_graded)
from .report import VerificationReport, clip_note
from .series import SeriesScalar, TermMap, substitute

_H0 = (0, 0, 0)

#: Flattened tensor key: leg monomials followed by the h exponent triple.
TensorKey = tuple


class TensorElement(TermMap):
    """Finite sum of monomial tensors (arity 2 or 3) with series
    coefficients; a basis key is the tuple of leg monomials, so terms, the
    view built when it is read, maps (m_1, ..., m_arity, h) to a Fraction.
    Multiplication is componentwise on the legs, and there is no sign rule.
    """

    __slots__ = ("params", "arity")

    def __init__(self, params: DeformParams, arity: int,
                 terms: Mapping[TensorKey, Fraction]):
        if arity not in (2, 3):
            raise ValueError(f"a tensor has 2 or 3 legs, not {arity}")
        self.params = params
        self.arity = arity
        self._store(terms.items())

    @property
    def terms(self) -> dict[TensorKey, Fraction]:
        den = self.den
        return {k: Fraction(n, den) for k, n in self.nums.items()}

    @property
    def trunc(self) -> int:
        return self.params.trunc

    @classmethod
    def zero(cls, params: DeformParams, arity: int = 2) -> "TensorElement":
        return cls(params, arity, {})

    @classmethod
    def unit(cls, params: DeformParams, arity: int = 2) -> "TensorElement":
        return cls(params, arity, {(EMPTY_MONO,) * arity + (_H0,): 1})

    def space(self) -> tuple:
        return self.params, self.arity

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, SeriesScalar)):
            return self.scale(other)
        return tensor_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, SeriesScalar)):
            return self.scale(other)
        return tensor_mul(other, self)

    def flip(self) -> "TensorElement":
        if self.arity != 2:
            raise ValueError("flip is defined for two legs")
        return self.over_denominator(
            {(k[1], k[0], k[2]): n for k, n in self.nums.items()}, self.den)

    def to_text(self) -> str:
        from .render import tensor_to_text
        return tensor_to_text(self)

    def to_json(self) -> dict:
        from .render import tensor_to_json
        return tensor_to_json(self)


def tensor_of(*factors: AlgebraElement) -> TensorElement:
    """Independent legs: (sum_a) (x) (sum_b) ... with coefficient products."""
    params = factors[0].params
    into = TensorElement.zero(params, len(factors))
    D = params.trunc
    parts = [((), _H0, 1)]
    den = 1
    for f in factors:
        if f.params != params:
            raise ParamsMismatchError("tensor legs over different parameters")
        den *= f.den
        new = []
        for legs, h, c in parts:
            for k, n in f.nums.items():
                hs = k[7]
                hh = (h[0] + hs[0], h[1] + hs[1], h[2] + hs[2])
                if hh[0] + hh[1] + hh[2] <= D:
                    new.append((legs + (k[:7],), hh, c * n))
        parts = new
    out: dict[TensorKey, int] = {}
    for legs, h, c in parts:
        key = legs + (h,)
        out[key] = out.get(key, 0) + c
    return into.over_denominator(out, den)


def _pair_sums(aitems: list, bitems: list) -> list[dict[int, int]]:
    """The pair loop of two central blocks (_block_product).  Each operand
    is a list of (key, numerator) sequences, one for each h-degree
    0..trunc, keys in one layout; the result is {ka + kb: sum of na * nb}
    at degree da + db for every term pair within the truncation budget, as
    central letters commute."""
    D = len(aitems) - 1
    out: list[dict[int, int]] = [{} for _ in aitems]
    bitems = [list(items) for items in bitems]
    for da, items in enumerate(aitems):
        if not items:
            continue
        for db in range(D + 1 - da):
            bitem = bitems[db]
            if not bitem:
                continue
            acc = out[da + db]
            get = acc.get
            for ka, na in items:
                for kb, nb in bitem:
                    k = ka + kb
                    acc[k] = get(k, 0) + na * nb
    return out


def tensor_mul(a: TensorElement, b: TensorElement) -> TensorElement:
    """Componentwise product of two tensors of the same arity: both packed
    as tables (_Table.pack), multiplied by _Table.times over a's
    parameters, and decoded; over a Truncation a leg product that a term
    pair within the budget reaches and that needs reordering raises.

    The fields hold 2 * (top_a + top_b) + trunc, top the largest exponent
    of an operand: a Q/P exponent of the product is at most top_a + top_b,
    and a central one at most the plain sum top_a + top_b, plus one letter
    per contracted pair (k1 <= b[Q1], k4 <= a[P2], k2 + k3 <= a[P1] +
    b[Q2] in algebra's notation), plus the letters of lam, each of which
    comes with an h."""
    a.check(b)
    if not (a.nums and b.nums):
        return a.over_denominator({}, 1)
    width = (2 * (_top(a) + _top(b)) + a.trunc).bit_length() or 1
    return _Table.pack(a, width).times(_Table.pack(b, width)).tensor()


def _top(t: TensorElement) -> int:
    """The largest exponent in t's keys."""
    return max(map(max, chain.from_iterable(t.nums)))


def tensor_commutator(a: TensorElement, b: TensorElement) -> TensorElement:
    return tensor_mul(a, b) - tensor_mul(b, a)


# ---------------------------------------------------------------------------
# Coproduct tables, one set per truncation order over Truncation(trunc):
# the coproduct contains no alpha, beta or gamma, and every leg product in
# them is already ordered (a chain multiplies on the right by the table of
# its last letter in walk order, _letters), so no commutator is ever
# needed.  The coproduct tables of monomials, on two and three legs, stay
# packed as central blocks (_Table).
# Antipode tables, one set per parameter set: S reverses products, so they
# reorder with that parameter set's commutators.  All are functools.cache
# memos.
# ---------------------------------------------------------------------------

@cache
def _letters(trunc: int) -> tuple[TensorElement, ...]:
    """The coproducts of the ten letters of a coproduct chain over
    Truncation(trunc), in walk order: Q1, Q2, P1, P2, Th, Ph, Ps, Z1, Z2,
    Z3.  Z_i = lam Th_i, so cop(Z_i) = Z_i (x) exp(2rho) + exp(-2rho) (x)
    Z_i is the numerator of cop(Th_i), and cop(Th_i) is cop(Z_i) times the
    power series of lam^-1 in cop(rho) = rho (x) 1 + 1 (x) rho."""
    shared = Truncation(trunc)
    one = AlgebraElement.unit(shared)
    rho, lam = make_rho(shared), make_lambda(shared)
    cop_rho = tensor_of(rho, one) + tensor_of(one, rho)
    cop_lam_inv = power_series(lambda_coefficients(-1, trunc), cop_rho,
                               TensorElement.unit(shared), tensor_mul)
    e1, em1 = make_exp_rho(1, shared), make_exp_rho(-1, shared)
    e2, em2 = make_exp_rho(2, shared), make_exp_rho(-2, shared)
    qp = [tensor_of(x, e1) + tensor_of(em1, x)
          for x in (make_generator(i, shared) for i in (Q1, Q2, P1, P2))]
    zs = [tensor_of(z, e2) + tensor_of(em2, z)
          for z in (normal_order_mul(lam, make_generator(i, shared))
                    for i in CENTRAL_GENERATORS)]
    return (*qp, *(tensor_mul(z, cop_lam_inv) for z in zs), *zs)


def coproduct(x: AlgebraElement) -> TensorElement:
    """Algebra-homomorphism extension of the generator coproducts, summed on
    packed keys.  The terms n h^e m of x are grouped by the layout of m's
    two-leg table (_cop_table); within a group every table's blocks add
    into one {packed key: numerator} map, key q + code(e) + k and
    numerator n * c * v brought to the lcm L of the tables' denominators.
    A block is read only up to the end of h-degree trunc - |e|, as its keys
    are sorted by h-degree.  Each group is decoded once, over x.den * L,
    and the groups are summed."""
    trunc = x.params.trunc
    groups: dict[Layout, list] = {}
    for key, n in x.nums.items():
        table = _cop_table(trunc, key[:7], None)
        groups.setdefault(table.layout, []).append((key[7], n, table))
    parts = []
    for layout, items in groups.items():
        L = lcm(*{table.den for *_, table in items})
        acc: dict[int, int] = {}
        get = acc.get
        for e, n, table in items:
            shift, budget = layout.code(e), trunc - sum(e)
            n *= L // table.den
            for block, qs in table.blocks.items():
                end = block.ends[budget]
                entries = list(zip(block.keys[:end], block.values[:end]))
                for q, c in qs.items():
                    q += shift
                    c *= n
                    for k, v in entries:
                        k += q
                        acc[k] = get(k, 0) + c * v
        parts.append(TensorElement.zero(x.params).over_denominator(
            layout.decode(list(acc), list(acc.values())), x.den * L))
    return reduce(add, parts) if parts else TensorElement.zero(x.params)


def counit(x: AlgebraElement) -> SeriesScalar:
    """Every generator goes to 0; returns the coefficient of the unit."""
    return x.coefficient(EMPTY_MONO)


@cache
def antipode_mono(params: DeformParams, mono: PBWMonomial) -> AlgebraElement:
    if mono == EMPTY_MONO:
        return AlgebraElement.unit(params)
    g = min(i for i in range(7) if mono[i])
    prev = mono[:g] + (mono[g] - 1,) + mono[g + 1:]
    # S(g * m') = S(m') * S(g) = S(m') * (-g)
    return normal_order_mul(antipode_mono(params, prev),
                            -make_generator(g, params))


def antipode(x: AlgebraElement) -> AlgebraElement:
    """Anti-homomorphism with S(g) = -g on every generator."""
    return substitute(x, [(antipode_mono(x.params, k[:7]), k[7], n)
                          for k, n in x.nums.items()], x.den)


def _check_leg(t: TensorElement, leg: int) -> None:
    if leg not in range(t.arity):
        raise ValueError(f"leg {leg} is outside 0..{t.arity - 1}")


def apply_coproduct_leg(t: TensorElement, leg: int) -> TensorElement:
    """Apply the coproduct to one tensor leg, raising the arity by one: the
    coproduct() of each group of t's terms with equal other legs takes the
    leg's place."""
    _check_leg(t, leg)
    into = TensorElement.zero(t.params, t.arity + 1)
    groups: dict[tuple, dict] = {}
    for key, n in t.nums.items():
        groups.setdefault((key[:leg], key[leg + 1:-1]), {})[
            key[leg] + key[-1:]] = n
    zero = AlgebraElement.zero(t.params)
    cops = {legs: coproduct(zero.over_denominator(nums, t.den))
            for legs, nums in groups.items()}
    L = lcm(*(cop.den for cop in cops.values()))
    nums = {before + k[:2] + after + k[2:]: n * (L // cop.den)
            for (before, after), cop in cops.items()
            for k, n in cop.nums.items()}
    return into.over_denominator(nums, L)


def apply_counit_leg(t: TensorElement, leg: int):
    """Contract one tensor leg with the counit (arity drops by one)."""
    _check_leg(t, leg)
    out: dict = {}
    for key, n in t.nums.items():
        if key[leg] != EMPTY_MONO:
            continue
        nk = key[:leg] + key[leg + 1:]
        if t.arity == 2:
            nk = nk[0] + nk[1:]     # (m, h) as the algebra key m + (h,)
        out[nk] = out.get(nk, 0) + n
    into = (AlgebraElement.zero(t.params) if t.arity == 2
            else TensorElement.zero(t.params, t.arity - 1))
    return into.over_denominator(out, t.den)


def mu_antipode_leg(t: TensorElement, leg: int) -> AlgebraElement:
    """mu (S (x) 1) (leg = 0) or mu (1 (x) S) (leg = 1) on a two-leg
    tensor: t packed as a table (_Table.pack) at the width of its largest
    exponent, and the table's _Table.mu_antipode over t's parameters."""
    if t.arity != 2:
        raise ValueError("mu_antipode_leg is defined for two legs")
    _check_leg(t, leg)
    if not t.nums:
        return AlgebraElement.zero(t.params)
    return _Table.pack(t, _top(t).bit_length() or 1).mu_antipode(t.params,
                                                                  leg)


def _width(trunc: int, top: int) -> int:
    """The field width of the coproduct tables of a monomial whose largest
    exponent is top.  No field of them, on two legs or three, exceeds
    trunc + top: every Q/P exponent of a leg is at most the monomial's
    own, each central generator a leg gains over the monomial comes with
    one h of the same index (through rho, lam, exp(c rho) or cop(rho)),
    and no h exponent exceeds trunc."""
    return (trunc + top).bit_length() or 1


class _Block:
    """The central block of one Q/P key of a table (_Table): parallel
    tuples keys and values (numerators), the keys the central and h fields
    of packed keys, grouped by h-degree 0..trunc (degree d ends at
    ends[d]) and ascending within each degree.  Like _Table it is packed
    kernel storage, not a term map.  Blocks are made only by _block_of,
    primitive (the numerators share no factor and the first is positive)
    and interned (_block, which keeps every block), so blocks equal up to
    a factor are one object, and a block is compared and hashed by
    identity, which costs no Python call."""

    __slots__ = ("keys", "values", "ends")

    def __init__(self, keys: tuple, values: tuple, ends: tuple):
        self.keys, self.values, self.ends = keys, values, ends

    def degrees(self) -> list[tuple]:
        """The (key, numerator) pairs of each h-degree 0..trunc."""
        keys, values = self.keys, self.values
        return [tuple(zip(keys[start:end], values[start:end]))
                for start, end in zip((0,) + self.ends, self.ends)]


@cache
def _block(keys: tuple, values: tuple, ends: tuple) -> _Block:
    """The one block with this content."""
    return _Block(keys, values, ends)


def _block_of(groups: list[dict[int, int]]) -> tuple[int, _Block] | None:
    """groups, one {central key: numerator} for each h-degree, as (c,
    block) with c times block's numerators equal to groups'; None when
    every numerator is 0."""
    keys: list[int] = []
    nums: list[int] = []
    ends = []
    for group in groups:
        ordered = sorted(k for k, n in group.items() if n)
        keys += ordered
        nums += map(group.__getitem__, ordered)
        ends.append(len(keys))
    if not nums:
        return None
    c = gcd(*nums) if nums[0] > 0 else -gcd(*nums)
    if c != 1:
        nums = [n // c for n in nums]
    return c, _block(tuple(keys), tuple(nums), tuple(ends))


@cache
def _block_product(a: _Block, b: _Block) -> tuple[int, _Block] | None:
    """The product of two blocks as _block_of gives it, None when it
    vanishes within the truncation: their central keys add, as no central
    generator reorders."""
    return _block_of(_pair_sums(a.degrees(), b.degrees()))


def _split(layout: Layout, trunc: int,
           terms) -> dict[int, tuple[int, _Block]]:
    """Packed terms (key, h-degree, numerator), repeated keys adding up,
    split by Q/P key: {q: (c, block)}, c times block (_block_of) the
    central parts of the terms under q; a Q/P key whose numerators all
    cancel is left out."""
    parts: dict[int, list[dict[int, int]]] = {}
    qp_mask = layout.qp_mask
    for k, d, n in terms:
        q = k & qp_mask
        if q not in parts:
            parts[q] = [{} for _ in range(trunc + 1)]
        group = parts[q][d]
        group[k ^ q] = group.get(k ^ q, 0) + n
    return {q: entry for q, part in parts.items()
            if (entry := _block_of(part)) is not None}


#: A table's terms: {block: {Q/P key: c}}, c times block at each Q/P key.
Blocks = dict[_Block, dict[int, int]]


def _blocks(sums: Blocks) -> Blocks:
    """sums in a table's one form: the blocks at a Q/P key that sits under
    several are summed into one (_block_of), and zero factors dropped."""
    counts = Counter(chain.from_iterable(sums.values())) if len(sums) > 1 \
        else {}
    for q in [q for q, n in counts.items() if n > 1]:
        acc: list[dict[int, int]] = [{} for _ in next(iter(sums)).ends]
        for block, qs in sums.items():
            c = qs.pop(q, 0)
            if not c:
                continue
            for group, items in zip(acc, block.degrees()):
                get = group.get
                for k, n in items:
                    group[k] = get(k, 0) + c * n
        entry = _block_of(acc)
        if entry is not None:
            sums.setdefault(entry[1], {})[q] = entry[0]
    return {block: qs if 0 not in qs.values()
            else {q: c for q, c in qs.items() if c}
            for block, qs in sums.items() if any(qs.values())}


class _Table:
    """A tensor on packed keys, the storage of _gen and _cop_table and the
    kernel of tensor_mul.  A key is the sum of its Q/P part (the Q/P
    fields of every leg, layout.qp_mask) and its central part (the central
    and h fields); each Q/P key q carries one block times a factor c, so
    the terms are q + k with numerator c * n for each entry (k, n) of the
    block, over one denominator den, in space: a Truncation for the
    coproduct tables, the caller's parameters for tensor_mul.  They are
    kept grouped by block (Blocks), since few blocks are distinct.  No
    table changes once built, and equal tables have equal (den, blocks) in
    one layout.  coproduct() reads the two-leg tables on their packed keys
    and mu_antipode() block by block; tensor() decodes tensor_mul's
    products, and three-leg tables only for a failing coassociativity
    check's note.
    """

    __slots__ = ("layout", "space", "den", "blocks")

    def __init__(self, layout: Layout, space, den: int, blocks: Blocks):
        self.layout, self.space, self.den = layout, space, den
        self.blocks = blocks

    @classmethod
    def pack(cls, t: TensorElement, width: int) -> "_Table":
        """t with fields of width bits, its terms split by Q/P key."""
        layout = key_layout(t.arity, width)
        cols = list(zip(*t.nums))
        codes = {h: layout.code(h) for h in set(cols[-1])}
        keys = map(codes.__getitem__, cols[-1])
        for col, off in zip(cols, layout.offsets):
            codes = {}
            for m in set(col):
                c = layout.code(m)
                layout.monos[c] = m   # decoding returns the operand's tuples
                codes[m] = c << off
            keys = map(add, keys, map(codes.__getitem__, col))
        blocks: Blocks = {}
        for q, (c, block) in _split(layout, t.trunc, zip(
                keys, map(sum, cols[-1]), t.nums.values())).items():
            blocks.setdefault(block, {})[q] = c
        return cls(layout, t.params, t.den, blocks)

    def spans(self) -> list[tuple[int, int]]:
        """Per leg, the first and the last Q/P generator over all Q/P keys
        (qp_span of the leg's fields or-ed over the keys)."""
        layout = self.layout
        seen = reduce(or_, chain.from_iterable(self.blocks.values()), 0)
        return [qp_span(layout.fields(seen >> off & layout.mono_mask, 7))
                for off in layout.offsets]

    def times(self, other: "_Table") -> "_Table":
        """The product of two tables of one layout and space, in that
        layout.  Where on some leg a Q/P letter of self can come after one
        of other (spans), the Q/P keys are multiplied pair by pair
        (_reordered); otherwise the Q/P keys add, and each distinct pair of
        blocks is multiplied once (_block_product) for all the Q/P key
        pairs under it."""
        if any(last > first for (_, last), (first, _)
               in zip(self.spans(), other.spans())):
            sums, L = self._reordered(other)
        else:
            sums, L = {}, 1
            bblocks = other.blocks.items()
            for ba, aqs in self.blocks.items():
                for bb, bqs in bblocks:
                    product = _block_product(ba, bb)
                    if product is None:
                        continue
                    r, block = product
                    acc = sums.setdefault(block, {})
                    get = acc.get
                    bitems = [(qb, cb * r) for qb, cb in bqs.items()]
                    for qa, ca in aqs.items():
                        for qb, cb in bitems:
                            q = qa + qb
                            acc[q] = get(q, 0) + ca * cb
        blocks = _blocks(sums)
        den = self.den * other.den * L
        g = gcd(den, *(c for qs in blocks.values() for c in qs.values()))
        if g > 1:
            blocks = {block: {q: c // g for q, c in qs.items()}
                      for block, qs in blocks.items()}
        return _Table(self.layout, self.space, den // g, blocks)

    def _reordered(self, other: "_Table") -> tuple[Blocks, int]:
        """The product's sums over L, for tables whose leg products may
        reorder.  Each pair of Q/P keys whose blocks' product is not 0
        within the truncation (_block_product), that is whose blocks'
        lowest h-degrees fit it, is multiplied leg by leg through mono_mul
        over the space, which raises over a Truncation; each Q/P part of
        that product is a Q/P key of the result, and its central letters
        and h a block, multiplied by the product of the pair's blocks.  L
        is the lcm of the mono_mul denominators."""
        layout, space = self.layout, self.space
        D, code, fields = space.trunc, layout.code, layout.fields
        mask = layout.mono_mask
        bitems = [(qb, bb, cb)
                  for bb, bqs in other.blocks.items() for qb, cb in bqs.items()]
        parts = []
        for ba, aqs in self.blocks.items():
            for qb, bb, cb in bitems:
                product = _block_product(ba, bb)
                if product is None:
                    continue
                r, block = product
                for qa, ca in aqs.items():
                    den, terms = 1, [(0, 0, ca * cb * r)]
                    for off in layout.offsets:
                        lden, entries = mono_mul(
                            space, fields(qa >> off & mask, 7),
                            fields(qb >> off & mask, 7))
                        den *= lden
                        leg = [((code(m) << off) + code(h), sum(h), n)
                               for m, h, n in entries]
                        terms = [(k + lk, d + ld, c * ln)
                                 for k, d, c in terms for lk, ld, ln in leg
                                 if d + ld <= D]
                    for q, (c, cell) in _split(layout, D, terms).items():
                        product = _block_product(block, cell)
                        if product is not None:
                            parts.append((product[1], q, c * product[0], den))
        L = lcm(*(den for *_, den in parts))
        sums: Blocks = {}
        for block, q, n, den in parts:
            acc = sums.setdefault(block, {})
            acc[q] = acc.get(q, 0) + n * (L // den)
        return sums, L

    def mu_antipode(self, params: DeformParams, leg: int) -> AlgebraElement:
        """mu (S (x) 1) (leg = 0) or mu (1 (x) S) (leg = 1) of a two-leg
        table, over params of its truncation.  Split each leg monomial into
        its central part c and its Q/P part q.  Th, Ph and Ps are central,
        so S(c) = (-1)^|c| c and

            mu (S (x) 1)(c1 q1 (x) c2 q2) = (-1)^|c1| c1 c2 S(q1) q2
            mu (1 (x) S)(c1 q1 (x) c2 q2) = (-1)^|c2| c1 c2 q1 S(q2).

        The central parts of a table's terms are its blocks, so each block
        B is one signed central series (_signed) times the sum of c S(q1)
        q2 (or c q1 S(q2)) over its Q/P keys q with factor c, S from
        antipode_mono: one normal_order_mul per Q/P key and one per block."""
        layout = self.layout
        monos, mask = layout.monos, layout.mono_mask
        off1, off2 = layout.offsets
        mono, zero = AlgebraElement.monomial, AlgebraElement.zero(params)
        parts = []
        for block, qs in self.blocks.items():
            series = _signed(layout, block, leg)
            if not series:
                continue
            items = []
            for q, c in qs.items():
                q1, q2 = monos[q >> off1 & mask], monos[q >> off2 & mask]
                pair = ((mono(params, q1), antipode_mono(params, q2)) if leg
                        else (antipode_mono(params, q1), mono(params, q2)))
                items.append((normal_order_mul(*pair), _H0, c))
            parts.append((normal_order_mul(zero.over_denominator(series, 1),
                                           substitute(zero, items, 1)),
                          _H0, 1))
        return substitute(zero, parts, self.den)

    def equals(self, other: "_Table") -> bool:
        """Equal values in one layout, as the two three-leg tables of one
        monomial are."""
        return (self.layout is other.layout and self.den == other.den
                and self.blocks == other.blocks)

    def tensor(self) -> TensorElement:
        """The table as a TensorElement over its space, decoded block by
        block."""
        keys: list[int] = []
        nums: list[int] = []
        for block, qs in self.blocks.items():
            bkeys, values = block.keys, block.values
            keys += [q + k for q in qs for k in bkeys]
            nums += [c * n for c in qs.values() for n in values]
        into = TensorElement.zero(self.space, self.layout.arity)
        return into.over_denominator(self.layout.decode(keys, nums), self.den)


@cache
def _signed(layout: Layout, block: _Block, leg: int) -> dict:
    """The entries c1 (x) c2 h of a two-leg block folded into the central
    series (-1)^|c_leg| c1 c2 h, as {algebra key: numerator}, zeros left
    out.  It holds no alpha, beta or gamma, so it is kept per block."""
    monos, hs = layout.monos, layout.hs
    mask, hmask = layout.mono_mask, (1 << layout.hbits) - 1
    off1, off2 = layout.offsets
    out: dict = {}
    get = out.get
    for k, n in zip(block.keys, block.values):
        c1, c2 = monos[k >> off1 & mask], monos[k >> off2 & mask]
        c = c2 if leg else c1
        key = (c1[0] + c2[0], c1[1] + c2[1], c1[2] + c2[2], 0, 0, 0, 0,
               hs[k & hmask])
        out[key] = get(key, 0) + (-n if (c[0] + c[1] + c[2]) & 1 else n)
    return {key: n for key, n in out.items() if n}


#: Three letters that a word (_walk) does not contain.
_ABSENT = (0, 0, 0)


@cache
def _gen(trunc: int, g: int, side: int | None, width: int) -> _Table:
    """The table of letter g, the g-th in walk order (_letters), on two
    legs (side None), or with the coproduct applied once more to leg side,
    on three; packed with fields of width bits, the width of the chain
    whose links it multiplies."""
    cop = _letters(trunc)[g]
    return _Table.pack(cop if side is None else apply_coproduct_leg(cop, side),
                       width)


@cache
def _chain(trunc: int, word: tuple, side: int | None, width: int) -> _Table:
    """One link of a coproduct chain, packed with fields of width bits: the
    link of the word without its last letter g in walk order times g's
    table (_gen).  _walk requests the links in order, so the one before is
    cached."""
    if not any(word):
        return _Table.pack(TensorElement.unit(Truncation(trunc),
                                              2 if side is None else 3), width)
    g = max(i for i in range(len(word)) if word[i])
    prev = word[:g] + (word[g] - 1,) + word[g + 1:]
    return _chain(trunc, prev, side, width).times(_gen(trunc, g, side, width))


def _walk(trunc: int, word: tuple, side: int | None, width: int) -> _Table:
    """The last link of a word's chain, built from the empty word up, one
    letter at a time in walk order.  A word counts the ten letters of
    _letters, in their order."""
    prefix = [0] * len(word)
    table = _chain(trunc, tuple(prefix), side, width)
    for g, count in enumerate(word):
        for _ in range(count):
            prefix[g] += 1
            table = _chain(trunc, tuple(prefix), side, width)
    return table


@cache
def _cop_table(trunc: int, mono: PBWMonomial, side: int | None) -> _Table:
    """cop of a monomial on two legs (side None), or (cop (x) 1) cop
    (side 0) or (1 (x) cop) cop (side 1) on three, at the width read off
    the monomial (_width): the walk of its letters, Q/P letters first and
    central letters after them, as in divided_power_coproduct.  cop of a
    central monomial is central in the tensor algebra, so the order leaves
    the table as it is, and monomials of one Q/P part share its links."""
    return _walk(trunc, mono[3:] + mono[:3] + _ABSENT, side,
                 _width(trunc, max(mono)))


def divided_power_coproduct(S, T, trunc: int) -> TensorElement:
    """cop(Z^S X^T) over Truncation(trunc), equal to coproduct(from_z_basis(
    {(S, T): 1}, Truncation(trunc))): the walk of the word X^T Z^S, Q/P
    letters first as in _cop_table, at the width _width(trunc, max(S + T)),
    decoded once and divided by S! T!."""
    S, T = tuple(S), tuple(T)
    check_z_key((S, T))
    t = _walk(trunc, T + _ABSENT + S, None, _width(trunc, max(S + T))).tensor()
    return t.over_denominator(t.nums, t.den * mi_factorial(S + T))


# ---------------------------------------------------------------------------
# Verification suites.
# ---------------------------------------------------------------------------

def _mono_name(mono: PBWMonomial) -> str:
    return mono_text(mono) or "1"


def _diff_note(kind: str, diff) -> str:
    return f"{kind} differs by {clip_note(diff.to_text())}"


def verify_hopf_axioms(max_generator_degree: int,
                       params: DeformParams) -> VerificationReport:
    """Exhaustively check the Hopf axioms on all ordered monomials of
    generator degree <= max_generator_degree, plus the homomorphism laws on
    generator pairs."""
    if max_generator_degree < 0:
        raise InvalidParamsError(
            f"generator-degree bound must be >= 0, got {max_generator_degree}")
    D = params.trunc
    report = VerificationReport()
    unit = AlgebraElement.unit(params)

    for mono in multiindices_graded(7, max_generator_degree):
        name = _mono_name(mono)
        elt = AlgebraElement.monomial(params, mono)
        cop = coproduct(elt)

        left3 = _cop_table(D, mono, 0)
        right3 = _cop_table(D, mono, 1)
        ok = left3.equals(right3)
        report.add("coassociativity", name, ok,
                   None if ok else _diff_note(
                       "(cop(x)1)cop - (1(x)cop)cop",
                       left3.tensor() - right3.tensor()))

        left = apply_counit_leg(cop, 0)
        right = apply_counit_leg(cop, 1)
        ok = left == elt and right == elt
        report.add("counit", name, ok,
                   None if ok else _diff_note("counit contraction",
                                              (left - elt) + (right - elt)))

        target = unit.scale(counit(elt))
        table = _cop_table(D, mono, None)
        sleft, sright = (table.mu_antipode(params, leg) for leg in (0, 1))
        ok = sleft == target and sright == target
        report.add("antipode", name, ok,
                   None if ok else _diff_note("mu(S(x)1)cop - eta eps",
                                              (sleft - target) + (sright - target)))

    gens = [make_generator(i, params) for i in range(7)]
    cop_gen = [coproduct(g) for g in gens]
    for i in range(7):
        for j in range(i + 1, 7):
            pair = f"[{GENERATOR_NAMES[i]},{GENERATOR_NAMES[j]}]"
            lhs = coproduct(commutator(gens[i], gens[j]))
            rhs = tensor_commutator(cop_gen[i], cop_gen[j])
            ok = lhs == rhs
            report.add("coproduct-homomorphism", pair, ok,
                       None if ok else _diff_note("cop[x,y] - [cop x,cop y]",
                                                  lhs - rhs))

            slhs = antipode(commutator(gens[i], gens[j]))
            srhs = commutator(antipode(gens[j]), antipode(gens[i]))
            ok = slhs == srhs
            report.add("antipode-antihomomorphism", pair, ok,
                       None if ok else _diff_note("S[x,y] - [S y,S x]",
                                                  slhs - srhs))

    rho = make_rho(params)
    lhs = coproduct(rho)
    cop_rho = tensor_of(rho, unit) + tensor_of(unit, rho)
    ok = lhs == cop_rho
    report.add("coproduct-consistency", "rho", ok,
               None if ok else _diff_note("cop(rho) - (rho(x)1 + 1(x)rho)",
                                          lhs - cop_rho))

    # Multiplicativity through reordered products: cop(x y) = cop(x) cop(y)
    # for products whose reordering contracts a pair.
    sample_pairs = [
        (gens[P1], gens[Q1]),
        (gens[P2], gens[Q2]),
        (normal_order_mul(gens[P1], gens[P2]),
         normal_order_mul(gens[Q1], gens[Q2])),
        (normal_order_mul(gens[Q1], gens[P1]),
         normal_order_mul(gens[Q2], gens[P2])),
        (normal_order_mul(gens[TH], gens[P1]), gens[Q1]),
    ]
    for k, (x, y) in enumerate(sample_pairs):
        lhs = coproduct(normal_order_mul(x, y))
        rhs = tensor_mul(coproduct(x), coproduct(y))
        ok = lhs == rhs
        report.add("coproduct-multiplicativity", f"pair {k}", ok,
                   None if ok else _diff_note("cop(xy) - cop(x)cop(y)",
                                              lhs - rhs))
    return report


def heisenberg_limit_report(hbar_degree: int) -> VerificationReport:
    """With alpha=1, beta=gamma=0 and h2 = h3 = 0 the engine must reproduce
    the one-parameter quantization: [Qi, Pj] = delta_ij sinh(2 h1 Th)/(2 h1),
    primitive Th, and exp(+-h1 Th) factors in cop(Qi), cop(Pi)."""
    params = DeformParams(Fraction(1), Fraction(0), Fraction(0), hbar_degree)
    report = VerificationReport()
    zeroed = (2, 3)
    D = hbar_degree

    # Independent expansion of sinh(2 h Th)/(2 h): sum 4^n/(2n+1)! h^(2n) Th^(2n+1).
    sinh_terms = {}
    n = 0
    while 2 * n <= D:
        mono = (2 * n + 1, 0, 0, 0, 0, 0, 0)
        sinh_terms[mono] = SeriesScalar.monomial(
            (2 * n, 0, 0), Fraction(4 ** n, factorial(2 * n + 1)), D)
        n += 1
    sinh_series = AlgebraElement(params, sinh_terms)

    qs = [make_generator("Q1", params), make_generator("Q2", params)]
    ps = [make_generator("P1", params), make_generator("P2", params)]
    for i in range(2):
        for j in range(2):
            got = commutator(qs[i], ps[j]).limit(zeroed)
            want = sinh_series if i == j else AlgebraElement.zero(params)
            ok = got == want
            report.add("limit-commutator", f"[Q{i+1},P{j+1}]", ok,
                       None if ok else _diff_note("engine - sinh series",
                                                  got - want))
    for name, (x, y) in (("[Q1,Q2]", (qs[0], qs[1])),
                         ("[P1,P2]", (ps[0], ps[1]))):
        got = commutator(x, y).limit(zeroed)
        ok = not got
        report.add("limit-commutator", name, ok,
                   None if ok else _diff_note("nonzero", got))

    # exp(+-h1 Th) assembled from factorials alone.
    eplus = {}
    eminus = {}
    for n in range(D + 1):
        mono = (n, 0, 0, 0, 0, 0, 0)
        eplus[mono] = SeriesScalar.monomial((n, 0, 0),
                                            Fraction(1, factorial(n)), D)
        eminus[mono] = SeriesScalar.monomial((n, 0, 0),
                                             Fraction((-1) ** n, factorial(n)), D)
    ep = AlgebraElement(params, eplus)
    em = AlgebraElement(params, eminus)

    one = AlgebraElement.unit(params)
    th = make_generator("Th", params)
    got = coproduct(th).limit(zeroed)
    want = tensor_of(th, one) + tensor_of(one, th)
    ok = got == want
    report.add("limit-coproduct", "Th", ok,
               None if ok else _diff_note("cop(Th) - primitive", got - want))

    for name, gen in (("Q1", qs[0]), ("Q2", qs[1]),
                      ("P1", ps[0]), ("P2", ps[1])):
        got = coproduct(gen).limit(zeroed)
        want = tensor_of(gen, ep) + tensor_of(em, gen)
        ok = got == want
        report.add("limit-coproduct", name, ok,
                   None if ok else _diff_note("cop - exp(h Th) form",
                                              got - want))
    return report
