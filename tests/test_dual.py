from fractions import Fraction
from itertools import product

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
from ncdeform.suites import _DEEP_PROBES

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


def test_star_suite_builds_one_table_per_ynorm():
    # The suite's products at truncation 1 (the pair table and the
    # norm <= 2 associativity cube) read one table per (I, |J|, K, |L|),
    # 1,875 of them; one per (I, J, K, L) would be 22,464.  The six depth-2
    # probes at truncation 3 add one each.
    dual._star_terms.cache_clear()
    assert verify_star_suite(2).passed
    assert dual._star_terms.cache_info().currsize == 1875 + len(_DEEP_PROBES)


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

    # star_closed and its tables are the whole closed formula.
    monkeypatch.setattr(dual, "star_closed", forbidden)
    monkeypatch.setattr(dual, "_star_terms", forbidden)
    # The oracle's tables are shared by every parameter set of a
    # truncation, so they are dropped to make sure every one is built here,
    # down to the packed coproduct tables they are read from.
    dual._delta_z.cache_clear()
    dual._mono_z.cache_clear()
    hopf._cop_table.cache_clear()
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
    # target, so a tracer wrapping it sees the oracle's table reads.
    seen = []

    def counted(S, T, trunc):
        seen.append((S, T))
        return view(S, T, trunc)

    view = dual.delta_on_zbasis
    monkeypatch.setattr(dual, "delta_on_zbasis", counted)
    a, b = (W0, (1, 0, 0, 0)), ((1, 0, 0), Y0)
    star_oracle(a, b, 1)
    assert len(seen) == len(set(seen)) > 0
    seen.clear()
    star_oracle_grid(1, 1)
    assert len(seen) == len(set(seen)) == sum(
        1 for S in multiindices(3, 2) for _ in multiindices(4, 2 - sum(S)))


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
], ids=["delta_on_zbasis", "star_oracle", "star_oracle_grid-0",
        "star_oracle_grid-1", "star_oracle_restricted",
        "star_oracle_element-zero", "star_oracle_element"])
def test_oracle_rejects_negative_truncation(call):
    # Before the check, star_oracle, star_oracle_grid(0, .) and
    # star_oracle_element on zero operands returned 0 for a negative order.
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
