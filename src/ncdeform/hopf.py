"""Coproduct, counit and antipode for the deformed algebra, tensor-algebra
arithmetic, exhaustive axiom verification and the one-parameter limit report.

The coproduct is fixed on generators,

    cop(Qi) = Qi (x) exp(rho)  + exp(-rho)  (x) Qi      (same for Pi)
    cop(Th) = (lam*Th (x) exp(2rho) + exp(-2rho) (x) lam*Th) / cop(lam)

(and likewise for Ph, Ps), and extended multiplicatively.  cop is an
algebra map and cop(rho) = rho (x) 1 + 1 (x) rho, so cop(lam) and its
inverse are the power series of lam and lam^-1 (algebra.power_series with
algebra.lambda_coefficients) in cop(rho) instead of rho.

None of this contains alpha, beta or gamma, so cop(rho), cop(lam) and its
inverse, the generator coproducts and the coproducts of monomials on two
and three legs are built once per truncation order, over
algebra.Truncation(trunc), and shared by every parameter set; coproduct()
and apply_coproduct_leg() return their results over the caller's
parameters.  The antipode reverses products, so its tables are built per
parameter set, with that set's commutators.

A tensor's basis key is its tuple of leg monomials (series.TermMap holds
the storage).  For multiplication a tensor also keeps, built once, its leg
monomials interned to small ints and its terms grouped by h exponent in
order of h-degree (buckets()), so that pairs over the truncation budget are
never touched.  tensor_mul takes the leg products it can reach over one
denominator per call and adds integer products only; the antipode check
(mu_antipode_leg) reads the same buckets, antipode_mono and the engine's
mono_mul cells.  This keeps the exhaustive degree-3 verification grids fast
enough for interactive use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, lcm
from typing import Mapping

from .algebra import (CENTRAL_GENERATORS, EMPTY_MONO, GENERATOR_NAMES, P1, P2,
                      Q1, Q2, TH, AlgebraElement, DeformParams,
                      InvalidParamsError, ParamsMismatchError, PBWMonomial,
                      Truncation, commutator, engine, lambda_coefficients,
                      make_exp_rho, make_generator, make_lambda, make_rho,
                      mono_factors, normal_order_mul, power_series)
from .multiindex import multiindices_graded
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

    __slots__ = ("params", "arity", "_buckets")

    def __init__(self, params: DeformParams, arity: int,
                 terms: Mapping[TensorKey, Fraction]):
        self.params = params
        self.arity = arity
        self._buckets = None
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

    def like(self, terms) -> "TensorElement":
        return TensorElement(self.params, self.arity, terms)

    def over(self, params) -> "TensorElement":
        """The same terms over other parameters of the same truncation: how
        a per-truncation table reaches one parameter set."""
        if params.trunc != self.params.trunc:
            raise ParamsMismatchError(
                "tensors live over different truncations")
        return TensorElement.zero(params, self.arity).over_denominator(
            self.nums, self.den)

    def buckets(self) -> tuple:
        """Integer view for tensor_mul and mu_antipode_leg, built lazily
        once: (den, legs, groups).

        legs[i] is (monomials, min_deg): the distinct monomials on leg i
        and, for each, the least h-degree of a term carrying it.  groups
        lists (h, h-degree, terms) in order of h-degree; a term is the
        indices of its leg monomials in legs followed by its numerator.
        """
        if self._buckets is None:
            index: list[dict] = [{} for _ in range(self.arity)]
            min_deg: list[list[int]] = [[] for _ in range(self.arity)]
            groups: dict[tuple, list] = {}
            for key, n in self.nums.items():
                h = key[-1]
                d = h[0] + h[1] + h[2]
                term = []
                for leg in range(self.arity):
                    degs = min_deg[leg]
                    pos = index[leg].setdefault(key[leg], len(degs))
                    if pos == len(degs):
                        degs.append(d)
                    elif d < degs[pos]:
                        degs[pos] = d
                    term.append(pos)
                term.append(n)
                groups.setdefault(h, []).append(tuple(term))
            self._buckets = (
                self.den,
                [(list(idx), degs) for idx, degs in zip(index, min_deg)],
                sorted(((h, sum(h), terms) for h, terms in groups.items()),
                       key=lambda group: group[1]))
        return self._buckets

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
    return TensorElement.zero(params, len(factors)).over_denominator(out, den)


def tensor_mul(a: TensorElement, b: TensorElement) -> TensorElement:
    """Componentwise product of two tensors of the same arity.

    With a's numerators over La, b's over Lb and every leg product over this
    call's Lm, a term pair adds the integer na * nb * c_1 * ... * c_arity to
    its output key, and the sums are the result's numerators over
    La * Lb * Lm**arity, reduced by one common factor.
    """
    a.check(b)
    D = a.params.trunc
    arity = a.arity
    La, alegs, agroups = a.buckets()
    Lb, blegs, bgroups = b.buckets()
    tables, Lm = _leg_tables(engine(a.params), alegs, blegs, D)
    pairs = _pairs2 if arity == 2 else _pairs3
    out: dict[TensorKey, int] = {}
    for ha, da, aterms in agroups:
        for hb, db, bterms in bgroups:
            if da + db > D:
                break
            h = (ha[0] + hb[0], ha[1] + hb[1], ha[2] + hb[2])
            pairs(out, h, aterms, bterms, tables, D)
    return a.over_denominator(out, La * Lb * Lm ** arity)


def _leg_tables(eng, alegs, blegs, D: int) -> tuple[list, int]:
    """Per-leg products of a's and b's leg monomials over one denominator.

    tables[i][ia][ib] is the cell for a's monomial ia times b's monomial ib
    on leg i: (monomial, numerator) when the product is one h-free
    monomial, else (None, ((monomial, h, numerator), ...)).  A cell that no
    term pair within the truncation budget reaches is None.  Every
    numerator is over the returned Lm, the lcm of the fetched denominators.
    """
    mono_mul = eng.mono_mul
    raw = []
    dens = set()
    for (amonos, amin), (bmonos, bmin) in zip(alegs, blegs):
        table = []
        for ma, da in zip(amonos, amin):
            row = []
            for mb, db in zip(bmonos, bmin):
                if da + db > D:
                    row.append(None)
                    continue
                cell = mono_mul(ma, mb)
                dens.add(cell[0])
                row.append(cell)
            table.append(row)
        raw.append(table)
    Lm = lcm(*dens)

    def rescale(cell):
        if cell is None:
            return None
        den, entries = cell
        f = Lm // den
        (m, h, c), *rest = entries
        if not rest and h == _H0:
            return (m, c * f)
        return (None, tuple((m, h, c * f) for m, h, c in entries))

    return [[[rescale(cell) for cell in row] for row in table]
            for table in raw], Lm


def _pairs2(out: dict, h: tuple, aterms, bterms, tables, D: int) -> None:
    """Accumulate the two-leg term pairs of one (h_a, h_b) group pair."""
    t0, t1 = tables
    get = out.get
    for a0, a1, na in aterms:
        r0 = t0[a0]
        r1 = t1[a1]
        for b0, b1, nb in bterms:
            m0, c0 = r0[b0]
            m1, c1 = r1[b1]
            if m0 is None or m1 is None:
                _spread(out, (r0[b0], r1[b1]), h, na * nb, D)
                continue
            key = (m0, m1, h)
            out[key] = get(key, 0) + na * nb * c0 * c1


def _pairs3(out: dict, h: tuple, aterms, bterms, tables, D: int) -> None:
    """Accumulate the three-leg term pairs of one (h_a, h_b) group pair."""
    t0, t1, t2 = tables
    get = out.get
    for a0, a1, a2, na in aterms:
        r0 = t0[a0]
        r1 = t1[a1]
        r2 = t2[a2]
        for b0, b1, b2, nb in bterms:
            m0, c0 = r0[b0]
            m1, c1 = r1[b1]
            m2, c2 = r2[b2]
            if m0 is None or m1 is None or m2 is None:
                _spread(out, (r0[b0], r1[b1], r2[b2]), h, na * nb, D)
                continue
            key = (m0, m1, m2, h)
            out[key] = get(key, 0) + na * nb * c0 * c1 * c2


def _spread(out: dict, cells: tuple, h: tuple, c: int, D: int) -> None:
    """Generic pair path, for pairs where some leg product has several
    terms or carries h: expand leg by leg within the truncation budget."""
    stack = [((), h, c)]
    for mono, x in cells:
        entries = x if mono is None else ((mono, _H0, x),)
        new = []
        for legs, h, c in stack:
            for m, hm, cm in entries:
                hh = (h[0] + hm[0], h[1] + hm[1], h[2] + hm[2])
                if hh[0] + hh[1] + hh[2] > D:
                    continue
                new.append((legs + (m,), hh, c * cm))
        stack = new
    for legs, h, c in stack:
        key = legs + (h,)
        out[key] = out.get(key, 0) + c


def tensor_commutator(a: TensorElement, b: TensorElement) -> TensorElement:
    return tensor_mul(a, b) - tensor_mul(b, a)


# ---------------------------------------------------------------------------
# Coproduct tables, one set per truncation order over Truncation(trunc):
# the coproduct contains no alpha, beta or gamma, and every leg product in
# them is already ordered (cop of a monomial is built by multiplying on the
# right by cop of its largest generator), so no commutator is ever needed.
# Antipode tables, one set per parameter set: S reverses products, so they
# reorder with that parameter set's commutators.  All are functools.cache
# memos.
# ---------------------------------------------------------------------------

class _HopfCache:
    def __init__(self, trunc: int):
        shared = Truncation(trunc)
        one = AlgebraElement.unit(shared)
        rho, lam = make_rho(shared), make_lambda(shared)

        self.cop_rho = tensor_of(rho, one) + tensor_of(one, rho)
        self.cop_lam, self.cop_lam_inv = (
            power_series(lambda_coefficients(k, trunc), self.cop_rho,
                         TensorElement.unit(shared), tensor_mul)
            for k in (1, -1))

        e1, em1 = make_exp_rho(1, shared), make_exp_rho(-1, shared)
        e2, em2 = make_exp_rho(2, shared), make_exp_rho(-2, shared)
        self.cop_gen: list[TensorElement] = []
        for idx in range(7):
            gen = make_generator(idx, shared)
            if idx in CENTRAL_GENERATORS:
                lam_gen = normal_order_mul(lam, gen)
                num = tensor_of(lam_gen, e2) + tensor_of(em2, lam_gen)
                self.cop_gen.append(tensor_mul(num, self.cop_lam_inv))
            else:
                self.cop_gen.append(tensor_of(gen, e1) + tensor_of(em1, gen))


@cache
def _hopf(trunc: int) -> _HopfCache:
    return _HopfCache(trunc)


@cache
def _cop_mono(trunc: int, mono: PBWMonomial) -> TensorElement:
    if mono == EMPTY_MONO:
        return TensorElement.unit(Truncation(trunc))
    g = max(i for i in range(7) if mono[i])
    prev = mono[:g] + (mono[g] - 1,) + mono[g + 1:]
    return tensor_mul(_cop_mono(trunc, prev), _hopf(trunc).cop_gen[g])


def coproduct(x: AlgebraElement) -> TensorElement:
    """Algebra-homomorphism extension of the generator coproducts."""
    trunc = x.params.trunc
    return substitute(TensorElement.zero(x.params),
                      [((), _cop_mono(trunc, k[:7]), (), k[7], n)
                       for k, n in x.nums.items()], x.den)


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
    return substitute(x, [((), antipode_mono(x.params, k[:7]), (), k[7], n)
                          for k, n in x.nums.items()], x.den)


def apply_coproduct_leg(t: TensorElement, leg: int) -> TensorElement:
    """Apply the coproduct to one tensor leg, raising the arity by one."""
    trunc = t.params.trunc
    return substitute(TensorElement.zero(t.params, t.arity + 1),
                      [(key[:leg], _cop_mono(trunc, key[leg]),
                        key[leg + 1:-1], key[-1], n)
                       for key, n in t.nums.items()], t.den)


def apply_counit_leg(t: TensorElement, leg: int):
    """Contract one tensor leg with the counit (arity drops by one)."""
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
    """mu (S (x) 1) (leg = 0) or mu (1 (x) S) (leg = 1) on a two-leg tensor.

    Runs on integers.  Each distinct leg pair (m1, m2) of t is expanded
    once per call, within the h-degree budget of its lowest term: S(m1)
    from antipode_mono times m2 (or m1 times S(m2)) through the engine's
    mono_mul cells, every entry over this call's Lp.  A term of t then adds
    its numerator times each entry that fits its own budget, and the sums
    are the result's numerators over den * Lp.
    """
    params = t.params
    D = params.trunc
    mono_mul = engine(params).mono_mul
    den, legs, groups = t.buckets()
    monos0, monos1 = legs[0][0], legs[1][0]
    budget: dict[tuple[int, int], int] = {}
    for _, d, terms in groups:      # in order of h-degree: least d first
        for i0, i1, _ in terms:
            budget.setdefault((i0, i1), D - d)

    raw = {}
    dens = set()
    for (i0, i1), b in budget.items():
        m1, m2 = monos0[i0], monos1[i1]
        S = antipode_mono(params, m1 if leg == 0 else m2)
        entries = []
        for ks, ns in S.nums.items():
            ms, hs = ks[:7], ks[7]
            if hs[0] + hs[1] + hs[2] > b:
                continue
            cden, cells = mono_mul(ms, m2) if leg == 0 else mono_mul(m1, ms)
            pden = S.den * cden
            dens.add(pden)
            for m, hc, nc in cells:
                g = (hs[0] + hc[0], hs[1] + hc[1], hs[2] + hc[2])
                dg = g[0] + g[1] + g[2]
                if dg <= b:
                    entries.append((dg, m, g, ns * nc, pden))
        raw[(i0, i1)] = entries
    Lp = lcm(*dens)
    table = {pair: sorted(((dg, m, g, n * (Lp // pden))
                           for dg, m, g, n, pden in entries),
                          key=lambda entry: entry[0])
             for pair, entries in raw.items()}

    acc: dict[tuple, int] = {}
    get = acc.get
    for h, d, terms in groups:
        b = D - d
        for i0, i1, n in terms:
            for dg, m, g, k in table[(i0, i1)]:
                if dg > b:
                    break
                key = m + ((h[0] + g[0], h[1] + g[1], h[2] + g[2]),)
                acc[key] = get(key, 0) + n * k
    return AlgebraElement.zero(params).over_denominator(acc, den * Lp)


@cache
def _gen3(trunc: int, g: int, side: int) -> TensorElement:
    return apply_coproduct_leg(_hopf(trunc).cop_gen[g], side)


@cache
def _cop3_mono(trunc: int, mono: PBWMonomial, side: int) -> TensorElement:
    """(cop (x) 1) cop  (side 0) or (1 (x) cop) cop  (side 1) on a monomial."""
    if mono == EMPTY_MONO:
        return TensorElement.unit(Truncation(trunc), 3)
    g = max(i for i in range(7) if mono[i])
    prev = mono[:g] + (mono[g] - 1,) + mono[g + 1:]
    return tensor_mul(_cop3_mono(trunc, prev, side), _gen3(trunc, g, side))


# ---------------------------------------------------------------------------
# Verification suites.
# ---------------------------------------------------------------------------

def _mono_name(mono: PBWMonomial) -> str:
    return "*".join(mono_factors(mono)) or "1"


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
        cop = _cop_mono(D, mono).over(params)

        left3 = _cop3_mono(D, mono, 0)
        right3 = _cop3_mono(D, mono, 1)
        ok = left3 == right3
        report.add("coassociativity", name, ok,
                   None if ok else _diff_note("(cop(x)1)cop - (1(x)cop)cop",
                                              left3 - right3))

        left = apply_counit_leg(cop, 0)
        right = apply_counit_leg(cop, 1)
        ok = left == elt and right == elt
        report.add("counit", name, ok,
                   None if ok else _diff_note("counit contraction",
                                              (left - elt) + (right - elt)))

        target = unit.scale(counit(elt))
        sleft = mu_antipode_leg(cop, 0)
        sright = mu_antipode_leg(cop, 1)
        ok = sleft == target and sright == target
        report.add("antipode", name, ok,
                   None if ok else _diff_note("mu(S(x)1)cop - eta eps",
                                              (sleft - target) + (sright - target)))

    gens = [make_generator(i, params) for i in range(7)]
    cop_gen = [t.over(params) for t in _hopf(D).cop_gen]
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

    lhs = coproduct(make_rho(params))
    cop_rho = _hopf(D).cop_rho.over(params)
    ok = lhs == cop_rho
    report.add("coproduct-consistency", "rho", ok,
               None if ok else _diff_note("cop(rho) - (rho(x)1 + 1(x)rho)",
                                          lhs - cop_rho))

    # Multiplicativity through reordered products: cop(x y) = cop(x) cop(y)
    # for products that exercise the exchange rule.
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
