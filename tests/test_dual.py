from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdeform import (AlgebraElement, DualElement, SeriesScalar, chi,
                      classical_product, coproduct, delta_on_zbasis,
                      dual_structure_constants, from_z_basis, pairing,
                      poisson_bracket_dir, star_closed, star_commutator,
                      star_oracle, star_oracle_grid, to_z_basis)
from ncdeform import (InvalidParamsError, ParamsMismatchError, dual, hopf,
                      star_oracle_element, verify_star_suite)
from ncdeform.multiindex import (mi_binom, mi_norm, multiindices,
                                 submultiindices)
from ncdeform import suites
from ncdeform.report import VerificationReport
from ncdeform.suites import _DEEP_PROBES, first_associativity_failure

from conftest import assert_stored_once, h_exponents, params, small_fractions

W0 = (0, 0, 0)
Y0 = (0, 0, 0, 0)


def dm(w, y, trunc, coeff=1):
    return DualElement.monomial(w, y, trunc, coeff)


def h_series(h, coeff, trunc):
    return SeriesScalar.monomial(h, coeff, trunc)


def grid(norm, trunc):
    out = []
    for w in multiindices(3, norm):
        for y in multiindices(4, norm - sum(w)):
            out.append(dm(w, y, trunc))
    return out


# -- closed formula -----------------------------------------------------------

def test_star_chi4_chi1():
    t = 3
    got = star_closed(chi(4, t), chi(1, t))
    expected = dm((1, 0, 0), (1, 0, 0, 0), t) + \
        dm(W0, (1, 0, 0, 0), t, h_series((1, 0, 0), 1, t))
    assert got == expected


def test_star_chi1_chi4():
    t = 3
    got = star_closed(chi(1, t), chi(4, t))
    expected = dm((1, 0, 0), (1, 0, 0, 0), t) + \
        dm(W0, (1, 0, 0, 0), t, h_series((1, 0, 0), -1, t))
    assert got == expected


def test_star_chi1_chi1_corrections_cancel():
    t = 4
    assert star_closed(chi(1, t), chi(1, t)) == dm((2, 0, 0), Y0, t)


def test_star_chi1_chi2():
    t = 2
    got = star_closed(chi(1, t), chi(2, t))
    expected = (dm((1, 1, 0), Y0, t)
                + dm((1, 0, 0), Y0, t, h_series((0, 1, 0), 2, t))
                + dm((0, 1, 0), Y0, t, h_series((1, 0, 0), -2, t)))
    assert got == expected


def test_star_unit_law():
    t = 2
    unit = DualElement.unit(t)
    for u in grid(2, t):
        assert star_closed(unit, u) == u
        assert star_closed(u, unit) == u


def test_star_commutator_examples():
    t = 3
    got = star_commutator(chi(4, t), chi(1, t))
    assert got == dm(W0, (1, 0, 0, 0), t, h_series((1, 0, 0), 2, t))
    u = chi(2, t) + chi(5, t).scale(Fraction(3, 2))
    assert star_commutator(u, u) == DualElement.zero(t)


def test_classical_commutativity_grid():
    t = 2
    monos = grid(2, t)
    for u, v in product(monos, repeat=2):
        assert not star_commutator(u, v).hdegree_truncated(1).terms


def test_constant_term_is_classical_product():
    t = 2
    monos = grid(2, t)
    for u, v in product(monos, repeat=2):
        assert star_closed(u, v).hdegree_truncated(1) == classical_product(u, v)


def test_star_cancelling_key_is_dropped():
    # chi1*chi2 and chi2*chi1 share the W[1,1,0] term, which cancels here.
    t = 2
    got = star_closed(chi(1, t) + chi(2, t), chi(1, t) - chi(2, t))
    expected = (dm((2, 0, 0), Y0, t) - dm((0, 2, 0), Y0, t)
                + dm((1, 0, 0), Y0, t, h_series((0, 1, 0), -4, t))
                + dm((0, 1, 0), Y0, t, h_series((1, 0, 0), 4, t)))
    assert got == expected
    assert ((1, 1, 0), Y0) not in got.terms


# -- the integer kernels against SeriesScalar references -----------------------

def reference_star_monos(I, J, K, L, trunc):
    """The closed formula summed in SeriesScalar arithmetic."""
    out = {}
    y_key = tuple(a + b for a, b in zip(J, L))
    for M in submultiindices(I):
        for N in submultiindices(K):
            h = tuple(m + n for m, n in zip(M, N))
            if sum(h) > trunc:
                continue
            base1 = -2 * (mi_norm(K) - mi_norm(N)) - mi_norm(L)
            base2 = 2 * (mi_norm(I) - mi_norm(M)) + mi_norm(J)
            c = (mi_binom(I, M) * mi_binom(K, N) * base1 ** mi_norm(M)
                 * base2 ** mi_norm(N))
            key = (tuple(a + b - m - n for a, b, m, n in zip(I, K, M, N)),
                   y_key)
            inc = SeriesScalar.monomial(h, c, trunc)
            out[key] = out[key] + inc if key in out else inc
    return {key: s for key, s in out.items() if s.terms}


def reference_star_closed(u, v):
    trunc = u.trunc
    out = {}
    for (wa, ya), sa in u.terms.items():
        for (wb, yb), sb in v.terms.items():
            scale = sa * sb
            for k, s in reference_star_monos(wa, ya, wb, yb, trunc).items():
                val = s * scale
                out[k] = out[k] + val if k in out else val
    return DualElement(trunc, out)


def star_terms_with_y(I, J, K, L, trunc):
    """_star_terms(I, |J|, K, |L|) with the Y index J + L attached, in the
    shape of reference_star_monos."""
    y = tuple(a + b for a, b in zip(J, L))
    out = {}
    for w, h, c in dual._star_terms(I, mi_norm(J), K, mi_norm(L), trunc):
        assert c and h not in out.setdefault((w, y), {}), (w, h)
        out[(w, y)][h] = c
    return {key: SeriesScalar(hmap, trunc) for key, hmap in out.items()}


@pytest.mark.parametrize("trunc", [0, 1, 2, 3])
def test_ynorm_tables_match_series_reference(trunc):
    monos = [(w, y) for w in multiindices(3, 3)
             for y in multiindices(4, 3 - sum(w))]
    for (I, J), (K, L) in product(monos, repeat=2):
        assert star_terms_with_y(I, J, K, L, trunc) == reference_star_monos(
            I, J, K, L, trunc), (I, J, K, L)


def test_star_suite_rejects_a_negative_norm_bound():
    # An empty grid would pass its grid checks over no case at all.
    with pytest.raises(InvalidParamsError, match="norm bound"):
        verify_star_suite(-1)


def test_oracle_builds_a_chain_past_the_recursion_limit():
    # The coproduct of x4^600 is a chain of 600 links; built one nested
    # call per letter it died with RecursionError past about 490.
    a, b = ((0, 0, 0), (600, 0, 0, 0)), (W0, Y0)
    assert star_oracle(a, b, 0) == star_closed(dm(*a, 0), dm(*b, 0))


def test_star_suite_builds_no_coproduct_of_an_expanded_target(monkeypatch):
    # The oracle builds cop(Z^S X^T) as one chain of Q/P and Z letters
    # (hopf.divided_power_coproduct), never as the coproduct of the
    # expansion lam^|S| Th^S X^T, and the Z letters are closed forms: it
    # asks for no monomial's table, where a fall-back to the expansion
    # would ask for the monomials of lam^|S| Th^S X^T.
    for memo in (dual._delta_z, dual._mono_z, hopf._cop_table, hopf._chain,
                 hopf._gen):
        memo.cache_clear()
    real = hopf._cop_table
    asked = set()

    def recorder(trunc, mono, side):
        asked.add((trunc, mono))
        return real(trunc, mono, side)

    monkeypatch.setattr(hopf, "_cop_table", recorder)
    assert verify_star_suite(2).passed
    assert asked == set()


def test_star_suite_builds_one_table_per_ynorm(monkeypatch):
    # The suite's products at truncation 1 (the pair table and the
    # norm <= 2 associativity cube) read one table per (I, |J|, K, |L|),
    # 1,875 of them; one per (I, J, K, L) would be 22,464.  The six depth-2
    # probes at truncation 3 add one each.  A table is kept packed, once
    # per layout it is read in (_packed_terms), and the formula is summed
    # once for each: the pair table's products are packed at 1 to 3 bits
    # a field, the cube's at 3, so 2,099 packed tables in all.
    dual._packed_terms.cache_clear()
    summed = []
    formula = dual._star_terms
    monkeypatch.setattr(dual, "_star_terms",
                        lambda *key: summed.append(key) or formula(*key))
    assert verify_star_suite(2).passed
    assert len(set(summed)) == 1875 + len(_DEEP_PROBES)
    assert len(summed) == dual._packed_terms.cache_info().currsize == 2099


@pytest.mark.parametrize("side", ["left", "right"])
def test_star_unit_law_reads_row_and_column_zero(monkeypatch, side):
    # The unit law reads the unit's row and column of the pair table, so
    # the grid must start with the unit at every norm bound.
    for bound in range(4):
        assert suites._dual_monomials(bound, 1)[0] == DualElement.unit(1)
    unit, target = DualElement.unit(1), dm((0, 1, 0), Y0, 1)
    bad = (unit, target) if side == "left" else (target, unit)

    def wrong(u, v):
        out = star_closed(u, v)
        return out + out if (u, v) == bad else out

    monkeypatch.setattr(suites, "star_closed", wrong)
    check = next(c for c in verify_star_suite(1).checks
                 if c.name == "star-unit-law")
    assert not check.passed
    assert check.counterexample == target.to_text()


def pair_table(monos):
    return [[star_closed(u, v) for v in monos] for u in monos]


def reference_first_failure(monos, table):
    """The first (i, j, k) with table[i][j] * monos[k] != monos[i] *
    table[j][k], one star_closed product per side and triple: the scan the
    block cube replaced."""
    n = len(monos)
    return next(((i, j, k) for i, j, k in product(range(n), repeat=3)
                 if star_closed(table[i][j], monos[k])
                 != star_closed(monos[i], table[j][k])), None)


def test_block_cube_finds_the_reference_first_failure_at_truncation_3():
    # The closed formula is associative only mod h^3; on the norm <= 2
    # grid at truncation 3, 11,934 triples fail.
    monos = grid(2, 3)
    table = pair_table(monos)
    want = reference_first_failure(monos, table)
    assert [monos[x].to_text() for x in want] == [
        "Y[0,0,0,1]", "W[0,0,1]", "W[0,0,2]"]
    assert first_associativity_failure(monos, table, 3) == want


def test_block_cube_reports_the_lexicographically_first_triple():
    # A wrong entry table[2][1] fails the triples (2, 1, k), found in the
    # block of j = 1, and (i, 2, 1), found in the later block of j = 2.  The
    # first in lexicographic order is (0, 2, 1), not the first block's
    # (2, 1, 0).
    monos = grid(1, 1)
    table = pair_table(monos)
    table[2][1] = table[2][1] + dm((1, 0, 0), Y0, 1, Fraction(1, 3))
    assert reference_first_failure(monos, table) == (0, 2, 1)
    assert first_associativity_failure(monos, table, 1) == (0, 2, 1)


def rational_operands(trunc):
    """Sums of dual monomials with coefficients of several denominators."""
    return [dm(W0, (0, 0, 0, 1), trunc, Fraction(1, 2)),
            dm((0, 0, 1), Y0, trunc, Fraction(2, 3))
            + dm(W0, (1, 0, 0, 0), trunc, Fraction(-1, 5)),
            dm((0, 0, 2), Y0, trunc, Fraction(3, 7)),
            dm((1, 0, 0), Y0, trunc, Fraction(5, 4))
            - dm((0, 1, 0), (0, 1, 0, 0), trunc, h_series((1, 0, 0),
                                                          Fraction(1, 3),
                                                          trunc)),
            dm((2, 0, 0), Y0, trunc, 3)]


@pytest.mark.parametrize("trunc,verdict", [(1, None), (3, (0, 1, 2))])
def test_block_cube_reads_operands_over_their_denominators(
        monkeypatch, trunc, verdict):
    # Mod h^2 the product is associative whatever the denominators, so a
    # cube that compared numerators over different denominators would
    # fail at truncation 1; at truncation 3 it must fail where the
    # reference does.  The cube makes no star_closed product.
    monos = rational_operands(trunc)
    table = pair_table(monos)
    assert {x.den for line in table for x in line} - {1}
    assert reference_first_failure(monos, table) == verdict

    def forbidden(*args):
        raise AssertionError("the cube built a product per triple")

    monkeypatch.setattr(suites, "star_closed", forbidden)
    monkeypatch.setattr(dual, "star_closed", forbidden)
    assert first_associativity_failure(monos, table, trunc) == verdict


def test_star_suite_reports_the_reference_counterexample(monkeypatch):
    # One wrong h-coefficient in the closed formula's table for
    # W[1,0,0] * W[0,1,0] breaks associativity mod h^2; the suite names
    # the triple the per-triple scan finds first.
    original = dual._star_terms
    wrong = ((1, 0, 0), 0, (0, 1, 0), 0)

    def perturbed(I, nJ, K, nL, trunc):
        terms = original(I, nJ, K, nL, trunc)
        if (I, nJ, K, nL) == wrong:
            terms = tuple((w, h, c + 1 if h == (1, 0, 0) else c)
                          for w, h, c in terms)
        return terms

    monkeypatch.setattr(dual, "_star_terms", perturbed)
    # The kernel reads the formula packed (_packed_terms); a memo of its
    # own for this test packs the perturbed table, and leaves the shared
    # memo as it was.
    monkeypatch.setattr(dual, "_packed_terms",
                        cache(dual._packed_terms.__wrapped__))
    check = next(c for c in verify_star_suite(2).checks
                 if c.name == "star-associativity")
    monos = grid(2, 1)
    want = reference_first_failure(monos, pair_table(monos))
    assert not check.passed
    assert check.subject == "46656 triples (mod h^2)"
    assert check.counterexample == ", ".join(monos[x].to_text() for x in want)


def dual_elements(trunc):
    keys = st.sampled_from([(m.terms.popitem()[0]) for m in grid(2, 0)])
    coeffs = st.one_of(st.sampled_from([1, -1, 2]), small_fractions())
    coeff_series = st.dictionaries(h_exponents(trunc), coeffs, min_size=1,
                                   max_size=3).map(
        lambda d: SeriesScalar(d, trunc))
    return st.lists(st.tuples(keys, coeff_series), max_size=4).map(
        lambda terms: sum((DualElement(trunc, {k: s}) for k, s in terms),
                          DualElement.zero(trunc)))


@st.composite
def star_operands(draw):
    trunc = draw(st.integers(0, 3))
    return draw(dual_elements(trunc)), draw(dual_elements(trunc))


@settings(max_examples=150, deadline=None)
@given(star_operands())
def test_star_closed_matches_series_reference(operands):
    u, v = operands
    for a, b in ((u, v), (u + v, u - v)):
        got = star_closed(a, b)
        assert got == reference_star_closed(a, b)
        assert_stored_once(got)
        for s in got.terms.values():
            assert s.terms
            assert all(type(c) is Fraction and c for c in s.terms.values())


# -- the packed kernels against their tuple-keyed forms ------------------------

def reference_star_rows(x, tag=None, scale=1):
    """The rows of the tuple-keyed kernel: [(tag, w, y, |y|, [(h, n)])]."""
    return [(tag, w, y, sum(y), [(h, n * scale) for h, n in row])
            for (w, y), row in x.rows().items()]


def reference_star_sums(urows, vrows, trunc, out):
    """The closed-formula kernel on tuple keys (w, y, h), as it was before
    keys were packed: each pair of terms builds its key as tuples."""
    for tu, wa, ya, nya, urow in urows:
        for tv, wb, yb, nyb, vrow in vrows:
            acc = out.setdefault((tu, tv), {})
            monos = dual._star_terms(wa, nya, wb, nyb, trunc)
            y = tuple(a + b for a, b in zip(ya, yb))
            for ha, na in urow:
                for hb, nb in vrow:
                    for w, h, c in monos:
                        hh = tuple(a + b + e for a, b, e in zip(ha, hb, h))
                        if sum(hh) <= trunc:
                            key = (w, y, hh)
                            acc[key] = acc.get(key, 0) + na * nb * c
    return out


def reference_closed(u, v):
    sums = reference_star_sums(reference_star_rows(u),
                               reference_star_rows(v), u.trunc, {})
    return u.over_denominator(sums.get((None, None), {}), u.den * v.den)


def reference_classical_product(u, v):
    """The constant-term product as it was written before its index sums
    were spelled out: indices simply add, through zip."""
    out = {}
    for (wa, ya, ha), na in u.nums.items():
        for (wb, yb, hb), nb in v.nums.items():
            h = tuple(a + b for a, b in zip(ha, hb))
            if sum(h) <= u.trunc:
                key = (tuple(a + b for a, b in zip(wa, wb)),
                       tuple(a + b for a, b in zip(ya, yb)), h)
                out[key] = out.get(key, 0) + na * nb
    return u.over_denominator(out, u.den * v.den)


def unpacked(layout, sums):
    """A block of packed sums as {(w, y, h): n}, read through the layout's
    own decoding rather than the kernel's."""
    keys = list(sums)
    decoded = layout.decode(keys, [sums[k] for k in keys])
    return {(m[:3], m[3:], h): n for (m, h), n in decoded.items()}


def layout_for(lefts, rights):
    return dual.star_layout(lefts[0].trunc,
                            max(map(dual.top_exponent, lefts))
                            + max(map(dual.top_exponent, rights)))


@st.composite
def packed_operands(draw):
    """Two lists of dual elements of one order 0..4 on keys of norm <= 3,
    with h-series coefficients of several denominators."""
    trunc = draw(st.integers(0, 4))
    keys = st.sampled_from([(w, y) for w in multiindices(3, 3)
                            for y in multiindices(4, 3 - sum(w))])
    coeff = st.dictionaries(h_exponents(trunc), small_fractions(),
                            min_size=1, max_size=3).map(
        lambda d: SeriesScalar(d, trunc))
    element = st.dictionaries(keys, coeff, max_size=4).map(
        lambda terms: DualElement(trunc, terms))
    return (draw(st.lists(element, min_size=1, max_size=3)),
            draw(st.lists(element, min_size=1, max_size=3)))


@settings(max_examples=120, deadline=None)
@given(packed_operands())
def test_packed_kernel_matches_the_tuple_kernel(operands):
    # star_closed and classical_product on every pair, and star_sums on
    # every row at once, untagged rows of the first operand of each list
    # mixed with rows tagged by position, over one common denominator.
    us, vs = operands
    trunc = us[0].trunc
    for u, v in product(us, vs):
        assert star_closed(u, v) == reference_closed(u, v)
        assert classical_product(u, v) == reference_classical_product(u, v)
    layout = layout_for(us, vs)
    D = lcm(*(x.den for x in us + vs))
    tags = [None] + list(range(1, 4))
    got = dual.star_sums(
        [row for tag, u in zip(tags, us)
         for row in dual.star_rows(u, layout, tag, D // u.den)],
        [row for tag, v in zip(tags, vs)
         for row in dual.star_rows(v, layout, tag, D // v.den)],
        trunc, layout, {})
    want = reference_star_sums(
        [row for tag, u in zip(tags, us)
         for row in reference_star_rows(u, tag, D // u.den)],
        [row for tag, v in zip(tags, vs)
         for row in reference_star_rows(v, tag, D // v.den)],
        trunc, {})
    assert {pair: unpacked(layout, sums) for pair, sums in got.items()} \
        == want


#: The widest operands: the degree-32 ones the CLI admits at its largest
#: order, and one of a library caller beyond any fixed field width, each
#: with whether its product forms a field of the bound top_u + top_v
#: itself (W[0,0,16]*Y[0,0,16,0] times W[16,0,0]*Y[0,0,0,16] forms none
#: above 16).
WIDE_PRODUCTS = [((32, 0, 0), Y0, (32, 0, 0), Y0, 6, True),
                 (W0, (0, 0, 0, 32), W0, (0, 0, 0, 32), 6, True),
                 ((0, 0, 16), (0, 0, 16, 0), (16, 0, 0), (0, 0, 0, 16), 6,
                  False),
                 ((300, 0, 0), Y0, (300, 0, 0), Y0, 2, True)]


def wide_products(tight_only=False):
    for wa, ya, wb, yb, trunc, tight in WIDE_PRODUCTS:
        if tight or not tight_only:
            u = dm(wa, ya, trunc, Fraction(3, 2)) + dm(W0, Y0, trunc)
            v = dm(wb, yb, trunc, h_series((0, 1, 0), Fraction(-1, 5), trunc))
            yield u, v


def test_the_width_holds_the_widest_operands():
    for u, v in wide_products():
        assert star_closed(u, v) == reference_closed(u, v)
        assert classical_product(u, v) == reference_classical_product(u, v)


def test_a_narrower_width_shows_as_a_wrong_product(monkeypatch):
    # One bit less than star_layout's bound lets a field that reaches the
    # bound carry into its neighbour (or out of the key), which the
    # references see; so the test above can see an overflow.
    narrower = dual.key_layout
    monkeypatch.setattr(dual, "key_layout",
                        lambda arity, width: narrower(arity, width - 1))
    for u, v in wide_products(tight_only=True):
        assert star_closed(u, v) != reference_closed(u, v)


@pytest.mark.parametrize("call", [
    lambda: DualElement.monomial((-1, 0, 0), Y0, 1),
    lambda: DualElement.monomial(W0, (0, 0, -2, 0), 1),
    lambda: DualElement.monomial((1, 0), Y0, 1),
    lambda: DualElement.monomial(W0, (1, 0, 0), 1),
    lambda: DualElement(1, {((1, 0, 0), (0, 0, 0, 0), (0, 0, 0)):
                            SeriesScalar.one(1)}),
    lambda: star_oracle(((-1, 0, 0), Y0), ((1, 0, 0), Y0), 1),
    lambda: star_oracle((W0, Y0), ((1, 0), Y0), 1),
    lambda: star_oracle((W0, (0, 0, 0, 0, 0)), (W0, Y0), 1),
], ids=["negative-w", "negative-y", "short-w", "short-y", "three-parts",
        "oracle-negative", "oracle-short", "oracle-long"])
def test_malformed_dual_indices_raise(call):
    # A negative field would borrow from its neighbour in a packed key:
    # star_closed of W[-1,0,0] with itself returned 0, and a two-field W
    # index died in star_closed with an IndexError.
    with pytest.raises(ValueError, match="dual key"):
        call()


def test_star_oracle_takes_lists_as_indices():
    a, b = ([1, 0, 0], [0, 0, 0, 0]), ([0, 0, 0], [1, 0, 0, 0])
    assert star_oracle(a, b, 1) == star_oracle(
        ((1, 0, 0), Y0), (W0, (1, 0, 0, 0)), 1)


def reference_delta_on_zbasis(S, T, p):
    """cop(Z^S X^T) in the Z X basis, summed in SeriesScalar arithmetic."""
    ten = coproduct(from_z_basis({(S, T): SeriesScalar.one(p.trunc)}, p))
    zmaps = {}

    def zmap(mono):
        if mono not in zmaps:
            zmaps[mono] = to_z_basis(AlgebraElement.monomial(p, mono))
        return zmaps[mono]

    out = {}
    for (m1, m2, h), c in ten.terms.items():
        for k1, c1 in zmap(m1).items():
            sc1 = c1 * SeriesScalar.monomial(h, c, p.trunc)
            for k2, c2 in zmap(m2).items():
                key = (k1, k2)
                out[key] = out[key] + sc1 * c2 if key in out else sc1 * c2
    return {key: s for key, s in out.items() if s.terms}


@pytest.mark.parametrize("trunc", [1, 2])
@pytest.mark.parametrize("abc", [(1, 1, 1), (2, Fraction(1, 2), -3)])
def test_delta_on_zbasis_matches_series_reference(trunc, abc):
    # The targets of star_oracle_grid at norm bound 1, with the cap of
    # |a| + |b| + 1 the oracle once enumerated.
    p = params(*abc, trunc)
    cap = 3
    for S in multiindices(3, cap):
        for T in multiindices(4, cap - sum(S)):
            got = delta_on_zbasis(S, T, trunc)
            assert got == reference_delta_on_zbasis(S, T, p), (S, T)
            for s in got.values():
                assert s.terms
                assert all(type(c) is Fraction for c in s.terms.values())
            # The support lemma every oracle walks: the X legs split T, and
            # the Z legs carry at least |S|.
            for (w1, y1), (w2, y2) in got:
                assert tuple(a + b for a, b in zip(y1, y2)) == T, (S, T)
                assert sum(S) <= sum(w1) + sum(w2), (S, T)


def test_oracle_never_calls_the_closed_formula(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called the closed formula")

    # star_closed, its kernel and its tables are the whole closed formula.
    monkeypatch.setattr(dual, "star_closed", forbidden)
    monkeypatch.setattr(dual, "star_sums", forbidden)
    monkeypatch.setattr(dual, "star_rows", forbidden)
    monkeypatch.setattr(dual, "_star_terms", forbidden)
    monkeypatch.setattr(dual, "_packed_terms", forbidden)
    # The oracle's tables are shared by every parameter set of a
    # truncation, so they are dropped to make sure every one is built here,
    # down to the packed coproduct tables they are read from.
    dual._delta_z.cache_clear()
    dual._mono_z.cache_clear()
    hopf._cop_table.cache_clear()
    hopf._chain.cache_clear()
    a, b = (W0, (1, 0, 0, 0)), ((1, 0, 0), Y0)
    assert star_oracle(a, b, 1) == dm((1, 0, 0), (1, 0, 0, 0), 1) + dm(
        W0, (1, 0, 0, 0), 1, h_series((1, 0, 0), 1, 1))
    assert star_oracle_grid(1, 1)[(a, b)] == star_oracle(a, b, 1)
    # bench/tracer.py wraps the oracle by its former name.
    assert dual.star_oracle_restricted is star_oracle


# -- pairing and the engine oracle ---------------------------------------------

def test_pairing_examples():
    t = 2
    one = SeriesScalar.one(t)
    unit_z = {(W0, Y0): one}
    assert pairing(DualElement.unit(t), unit_z) == one
    z100 = {((1, 0, 0), Y0): one}
    assert pairing(chi(1, t), z100) == one
    z010 = {((0, 1, 0), Y0): one}
    assert pairing(chi(1, t), z010) == SeriesScalar.zero(t)


def test_delta_table_unit():
    table = delta_on_zbasis(W0, Y0, 1)
    assert table == {((W0, Y0), (W0, Y0)): SeriesScalar.one(1)}


def test_delta_table_q1():
    # cop(Q1) = Q1 (x) exp(rho) + exp(-rho) (x) Q1; at truncation 1 the
    # exponentials contribute 1 +- h_i Z_i.
    table = delta_on_zbasis(W0, (1, 0, 0, 0), 1)
    xq1 = (W0, (1, 0, 0, 0))
    expected = {
        (xq1, (W0, Y0)): SeriesScalar.one(1),
        ((W0, Y0), xq1): SeriesScalar.one(1),
    }
    for i in range(3):
        zi = (tuple(1 if k == i else 0 for k in range(3)), Y0)
        expected[(xq1, zi)] = SeriesScalar.hbar(i + 1, 1)
        expected[(zi, xq1)] = -SeriesScalar.hbar(i + 1, 1)
    assert table == expected


def test_delta_table_classical_shuffle():
    # At h = 0 the coproduct of Z^S X^T is the divided-power shuffle:
    # sum over all splits with coefficient 1.
    S, T = (2, 0, 0), (0, 0, 0, 1)
    table = delta_on_zbasis(S, T, 2)
    classical = {}
    for key, s in table.items():
        c = s.constant()
        if c:
            classical[key] = c
    expected = {}
    for i in range(3):
        for j in range(2):
            left = ((i, 0, 0), (0, 0, 0, j))
            right = ((2 - i, 0, 0), (0, 0, 0, 1 - j))
            expected[(left, right)] = Fraction(1)
    assert classical == expected


def test_delta_table_is_parameter_independent():
    # The table takes no parameters; references built from scratch at two
    # parameter sets both equal it.
    S, T = (1, 0, 0), (1, 0, 0, 0)
    table = delta_on_zbasis(S, T, 1)
    assert table == reference_delta_on_zbasis(S, T, params(1, 1, 1, 1))
    assert table == reference_delta_on_zbasis(
        S, T, params(2, Fraction(1, 2), -3, 1))


def test_oracle_unit_and_constant_term():
    u = ((1, 0, 1), (0, 2, 0, 0))
    got = star_oracle(u, (W0, Y0), 1)
    assert got == dm(u[0], u[1], 1)
    got = star_oracle(((1, 0, 0), Y0), ((0, 1, 0), Y0), 1)
    assert got.coefficient(((1, 1, 0), Y0)).constant() == 1


@pytest.mark.parametrize("a,b", [
    ((W0, (1, 0, 0, 0)), ((1, 0, 0), Y0)),
    (((1, 0, 0), Y0), (W0, (1, 0, 0, 0))),
    (((1, 0, 0), Y0), ((0, 1, 0), Y0)),
    (((2, 0, 0), Y0), ((1, 0, 0), Y0)),
    ((W0, (1, 0, 1, 0)), (W0, (0, 1, 0, 1))),
])
def test_oracle_matches_closed_formula_mod_h2(a, b):
    got = star_oracle(a, b, 1)
    want = star_closed(dm(a[0], a[1], 1), dm(b[0], b[1], 1))
    assert got == want


def oracle_from_view(pairs, targets, trunc):
    """{(a, b): DualElement} with the coefficient delta_on_zbasis(S, T)[a, b]
    at W^S Y^T for each of the targets, for each pair (a, b) it holds."""
    out = {}
    for S, T in targets:
        for pair, c in delta_on_zbasis(S, T, trunc).items():
            if pair in pairs:
                out.setdefault(pair, {})[(S, T)] = c
    return {pair: DualElement(trunc, table) for pair, table in out.items()}


def test_oracle_grid_matches_the_public_view():
    # The reference reads every target with |S| + |T| <= 2 * norm + trunc,
    # the full enumeration, so a coproduct that leaks outside the support
    # the grid walks is caught.
    for norm, trunc in ((2, 1), (1, 2)):
        monos = [(w, y) for w in multiindices(3, norm)
                 for y in multiindices(4, norm - sum(w))]
        cap = 2 * norm + trunc
        want = oracle_from_view(set(product(monos, repeat=2)),
                                [(S, T) for S in multiindices(3, cap)
                                 for T in multiindices(4, cap - sum(S))],
                                trunc)
        got = star_oracle_grid(norm, trunc)
        assert got.keys() == want.keys() and len(got) == len(monos) ** 2
        for pair, u in got.items():
            assert_stored_once(u)
            assert u == want[pair], (norm, trunc, pair)


def test_oracle_reads_its_tables_through_the_public_view(monkeypatch):
    # Every oracle reads cop(Z^S X^T) through delta_on_zbasis, once per
    # target and with the bounds of the rows it can read, so a tracer
    # wrapping it sees the oracle's table reads.
    seen = []

    def counted(S, T, trunc, bounds=None):
        seen.append((S, T, bounds))
        return view(S, T, trunc, bounds=bounds)

    view = dual.delta_on_zbasis
    monkeypatch.setattr(dual, "delta_on_zbasis", counted)
    a, b = (W0, (1, 0, 0, 0)), ((1, 0, 0), Y0)
    star_oracle(a, b, 1)
    assert len(seen) == len(set(seen)) > 0
    assert {bounds for *_, bounds in seen} == {(1, 1)}
    seen.clear()
    star_oracle_grid(1, 1)
    assert len(seen) == len(set(seen)) == sum(
        1 for S in multiindices(3, 2) for _ in multiindices(4, 2 - sum(S)))
    assert {bounds for *_, bounds in seen} == {(1, 1)}


def key_norm(key):
    return mi_norm(key[0]) + mi_norm(key[1])


def grid_targets(norm):
    """The targets star_oracle_grid(norm, .) reads: |S| + |T| <= 2 norm."""
    return [(S, T) for S in multiindices(3, 2 * norm)
            for T in multiindices(4, 2 * norm - sum(S))]


@pytest.mark.parametrize("trunc", range(4))
def test_budgeted_tables_are_the_full_tables_restricted(trunc):
    # A key's norm is at least its leg monomial's degree, so the legs a
    # bound skips hold no key within it: a budgeted table is the full one
    # restricted to its bounds, row for row.  Entries are compared as
    # series, as dropping rows can change a table's denominator.
    for nb in (1, 2):
        for S, T in grid_targets(nb):
            full = dict(delta_on_zbasis(S, T, trunc))
            for n1, n2 in ((nb, nb), (nb, nb - 1), (0, nb)):
                got = delta_on_zbasis(S, T, trunc, bounds=(n1, n2))
                assert dict(got) == {
                    (k1, k2): s for (k1, k2), s in full.items()
                    if key_norm(k1) <= n1 and key_norm(k2) <= n2}, (
                        S, T, n1, n2)


def test_star_suite_oracle_reads_budgeted_tables(monkeypatch):
    # The star suite's oracle paths read every table on the bounds of the
    # rows they can read: (nb, nb) for the grid and (|a|, |b|) for a probe.
    # A fall-back to full tables would keep every other test green.
    reads = []

    def checked(S, T, trunc, bounds=None):
        table = view(S, T, trunc, bounds=bounds)
        reads.append((bounds, table))
        return table

    view = dual.delta_on_zbasis
    monkeypatch.setattr(dual, "delta_on_zbasis", checked)
    star_oracle_grid(2, 1)
    assert len(reads) == len(grid_targets(2))
    assert {bounds for bounds, _ in reads} == {(2, 2)}
    for _, a, b in _DEEP_PROBES:
        star_oracle(a, b, 3)
    probes = reads[len(grid_targets(2)):]
    assert {bounds for bounds, _ in probes} == {
        (key_norm(a), key_norm(b)) for _, a, b in _DEEP_PROBES}
    for bounds, table in reads:
        for k1, k2 in table.rows:
            assert key_norm(k1) <= bounds[0] and key_norm(k2) <= bounds[1]


@pytest.mark.parametrize("label,a,b", _DEEP_PROBES,
                         ids=[label for label, *_ in _DEEP_PROBES])
def test_deep_probes_match_the_public_view(label, a, b):
    trunc = 3
    T = tuple(x + y for x, y in zip(a[1], b[1]))
    targets = [(S, T) for S in multiindices(3, mi_norm(a[0]) + mi_norm(b[0]))]
    want = oracle_from_view({(a, b)}, targets, trunc)
    got = star_oracle(a, b, trunc)
    assert_stored_once(got)
    assert got == want[(a, b)]


# The closed formula's powers c^n differ from the exact P_n(c) first at
# n = 3, by c^3 - P_3(c) = 4c: the h^3 gap, pinned exactly.
_DEEP_GAPS = (
    dm((1, 0, 0), Y0, 3, h_series((3, 0, 0), -8, 3)),
    dm((0, 1, 0), Y0, 3, h_series((0, 3, 0), -8, 3)),
    dm((0, 0, 1), Y0, 3, h_series((1, 1, 1), -8, 3)),
    dm(W0, (1, 0, 0, 0), 3, h_series((3, 0, 0), -4, 3)),
    DualElement.zero(3),
    DualElement.zero(3),
)


@pytest.mark.parametrize("probe,gap", list(zip(_DEEP_PROBES, _DEEP_GAPS)),
                         ids=[label for label, *_ in _DEEP_PROBES])
def test_closed_minus_oracle_is_the_h3_gap(probe, gap):
    _, a, b = probe
    closed = star_closed(dm(a[0], a[1], 3), dm(b[0], b[1], 3))
    assert closed - star_oracle(a, b, 3) == gap


def test_closed_associator_is_the_h3_gap():
    a, b, c = dm(W0, (0, 0, 0, 1), 3), dm((0, 0, 1), Y0, 3), dm(
        (0, 0, 2), Y0, 3)
    associator = star_closed(star_closed(a, b), c) - star_closed(
        a, star_closed(b, c))
    assert associator == dm(W0, (0, 0, 0, 1), 3,
                            h_series((0, 0, 3), -4, 3))


def test_oracle_grid_consistency():
    table = star_oracle_grid(1, 1)
    a = ((1, 0, 0), Y0)
    b = (W0, (1, 0, 0, 0))
    assert table[(a, b)] == star_oracle(a, b, 1)


@pytest.mark.parametrize("call", [
    lambda: delta_on_zbasis(W0, Y0, -1),
    lambda: star_oracle((W0, Y0), (W0, Y0), -1),
    lambda: star_oracle_grid(0, -1),
    lambda: star_oracle_grid(1, -1),
    lambda: dual.star_oracle_restricted((W0, Y0), (W0, Y0), -1),
    lambda: star_oracle_element(DualElement.zero(-1), DualElement.zero(-1)),
    lambda: star_oracle_element(DualElement(-1, {}), chi(1, 1)),
    lambda: DualElement(-1, {((1, 0, 0), Y0): SeriesScalar.one(2)}),
], ids=["delta_on_zbasis", "star_oracle", "star_oracle_grid-0",
        "star_oracle_grid-1", "star_oracle_restricted",
        "star_oracle_element-zero", "star_oracle_element", "DualElement"])
def test_oracle_rejects_negative_truncation(call):
    # Before the check, star_oracle, star_oracle_grid(0, .) and
    # star_oracle_element on zero operands returned 0 for a negative order,
    # and DualElement(-1, terms) was 0 over truncation -1.
    with pytest.raises(InvalidParamsError, match="truncation"):
        call()


@pytest.mark.parametrize("call", [
    lambda: DualElement.monomial((1, 0, 0), (0, 0, 0, 0), -1),
    lambda: chi(1, -1),
], ids=["monomial", "chi"])
def test_dual_constructors_reject_negative_truncation(call):
    # The series ring raised a plain ValueError here, unlike Truncation.
    with pytest.raises(InvalidParamsError, match="truncation"):
        call()


@pytest.mark.parametrize("product", [
    star_closed, star_oracle_element,
    lambda u, v: poisson_bracket_dir(u, v, 1),
], ids=["star_closed", "star_oracle_element", "poisson_bracket_dir"])
@pytest.mark.parametrize("u,v", [
    (DualElement.unit(1), chi(1, 3)), (chi(1, 3), DualElement.unit(1)),
], ids=["low-first", "high-first"])
def test_dual_products_reject_mixed_truncations(product, u, v):
    # Each product used to return an element at the first operand's order.
    with pytest.raises(ParamsMismatchError):
        product(u, v)


# -- Poisson layer --------------------------------------------------------------

def test_poisson_examples():
    t = 1
    assert poisson_bracket_dir(chi(1, t), chi(2, t), 2) == \
        dm((1, 0, 0), Y0, t, 4)
    assert poisson_bracket_dir(chi(1, t), chi(2, t), 1) == \
        dm((0, 1, 0), Y0, t, -4)
    assert poisson_bracket_dir(chi(4, t), chi(1, t), 1) == \
        dm(W0, (1, 0, 0, 0), t, 2)
    for i, j in product(range(4, 8), repeat=2):
        for direction in (1, 2, 3):
            assert poisson_bracket_dir(chi(i, t), chi(j, t), direction) == \
                DualElement.zero(t)


@pytest.mark.parametrize("call", [
    lambda: poisson_bracket_dir(chi(1, 0), chi(4, 0), 1),
    lambda: dual_structure_constants(1, 0),
], ids=["poisson_bracket_dir", "dual_structure_constants"])
def test_poisson_bracket_requires_positive_truncation(call):
    # The bracket is the h_i coefficient, which truncation 0 discards: the
    # bracket read 0 and the structure constants were empty.
    with pytest.raises(InvalidParamsError, match="truncation >= 1"):
        call()


def test_dual_structure_constants_direction1():
    data = dual_structure_constants(1)
    expected = {}
    expected[(0, 1)] = {1: Fraction(-4)}
    expected[(1, 0)] = {1: Fraction(4)}
    expected[(0, 2)] = {2: Fraction(-4)}
    expected[(2, 0)] = {2: Fraction(4)}
    for k in range(3, 7):
        expected[(k, 0)] = {k: Fraction(2)}
        expected[(0, k)] = {k: Fraction(-2)}
    assert data.constants == expected
    assert data.is_antisymmetric()
    assert data.first_jacobi_failure() is None


@pytest.mark.parametrize("direction", [1, 2, 3])
def test_dual_structure_constants_jacobi(direction):
    data = dual_structure_constants(direction)
    assert data.is_antisymmetric()
    assert data.first_jacobi_failure() is None


def test_leibniz_check_reports_the_first_failing_triple(monkeypatch):
    # The suite computes each star commutator [u, v] and [u, v w] once and
    # reads every direction from it.  With one commutator wrong in h2, it
    # reports the failure that the per-triple scan (direction, then u, v,
    # w) meets first, in the same words.
    small = grid(1, 1)
    bad = (small[1], small[5])
    calls = []

    def wrong(u, v):
        calls.append(None)
        out = star_commutator(u, v)
        return out + dm(W0, Y0, 1, h_series((0, 1, 0), 1, 1)) \
            if (u, v) == bad else out

    def bracket(u, v, direction):
        return dual.h_coefficient(wrong(u, v), direction)

    want = next(
        f"dir {d}: {u.to_text()}, {v.to_text()}, {w.to_text()}"
        for d in (1, 2, 3) for u, v, w in product(small, repeat=3)
        if bracket(u, classical_product(v, w), d)
        != classical_product(bracket(u, v, d), w)
        + classical_product(v, bracket(u, w, d)))
    monkeypatch.setattr(suites, "star_commutator", wrong)
    report = VerificationReport()
    calls.clear()
    suites._poisson_checks(report, 1)
    check = next(c for c in report.checks if c.name == "poisson-leibniz")
    assert not check.passed
    assert check.counterexample == want
    assert len(calls) == 8 ** 2 + 8 ** 3


def test_poisson_leibniz_small_grid():
    t = 1
    monos = grid(1, t)
    for direction in (1, 2, 3):
        for u, v, w in product(monos[:4], monos[:4], monos[:4]):
            lhs = poisson_bracket_dir(u, classical_product(v, w), direction)
            rhs = classical_product(
                poisson_bracket_dir(u, v, direction), w) + classical_product(
                v, poisson_bracket_dir(u, w, direction))
            assert lhs == rhs
