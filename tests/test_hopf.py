from fractions import Fraction
from functools import cache
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncdeform import (AlgebraElement, SeriesScalar, TensorElement, antipode,
                      apply_coproduct_leg, apply_counit_leg, commutator,
                      coproduct, counit, heisenberg_limit_report,
                      make_exp_rho, make_generator, make_lambda, make_rho,
                      mu_antipode_leg, normal_order_mul, tensor_commutator,
                      tensor_mul, tensor_of, verify_hopf_axioms)
from ncdeform.algebra import (EMPTY_MONO, P2, Q1, DeformParams,
                              InvalidParamsError, Truncation, _central_mul,
                              from_z_basis, lambda_coefficients,
                              power_series)
from ncdeform import hopf
from ncdeform.hopf import (_block, _chain, _cop_table, _gen, _letters,
                          _Table, _width, antipode_mono,
                          divided_power_coproduct)
from ncdeform.multiindex import (Layout, key_layout, multiindices,
                                 multiindices_graded)
from ncdeform import series

from conftest import (PARAM_SETS, assert_stored_once, h_exponents, params,
                      random_element, small_fractions)

EMPTY_KEY = (EMPTY_MONO, EMPTY_MONO, (0, 0, 0))


def cop_table(trunc: int, m: tuple) -> TensorElement:
    """cop of a monomial over Truncation(trunc), decoded from its packed
    two-leg table."""
    return _cop_table(trunc, m, None).tensor()


def gens(p):
    return {name: make_generator(name, p)
            for name in ("Th", "Ph", "Ps", "Q1", "Q2", "P1", "P2")}


def test_scalars_multiply_a_tensor_from_either_side():
    p = params(1, 2, 3, 2)
    g = gens(p)
    t = tensor_of(g["Q1"], g["P2"])
    for c in (3, Fraction(-1, 2), SeriesScalar.hbar(2, 2)):
        assert c * t == t * c == t.scale(c)


@pytest.mark.parametrize("other", [1.5, "x", None])
def test_a_non_scalar_tensor_factor_is_a_type_error(other):
    # 1.5 * t reached tensor_mul(1.5, t) and raised AttributeError.
    g = gens(params(1, 1, 1, 1))
    t = tensor_of(g["Q1"], g["P1"])
    with pytest.raises(TypeError):
        other * t
    with pytest.raises(TypeError):
        t * other


def test_tensor_mul_examples():
    p = params(1, 1, 1, 2)
    g = gens(p)
    one = AlgebraElement.unit(p)
    e1, em1 = make_exp_rho(1, p), make_exp_rho(-1, p)

    assert tensor_mul(tensor_of(g["Q1"], one), tensor_of(one, g["P1"])) == \
        tensor_of(g["Q1"], g["P1"])
    assert tensor_commutator(tensor_of(g["Q1"], e1),
                             tensor_of(em1, g["P1"])) == \
        TensorElement.zero(p)
    lam_th = _central_mul(make_lambda(p), g["Th"])
    assert tensor_commutator(tensor_of(g["Q1"], e1),
                             tensor_of(g["P1"], e1)) == \
        tensor_of(lam_th, make_exp_rho(2, p))


def test_coproduct_generators():
    p = params(1, 1, 1, 2)
    g = gens(p)
    e1, em1 = make_exp_rho(1, p), make_exp_rho(-1, p)
    assert coproduct(g["Q1"]) == tensor_of(g["Q1"], e1) + tensor_of(em1, g["Q1"])
    assert coproduct(g["P2"]) == tensor_of(g["P2"], e1) + tensor_of(em1, g["P2"])


def test_coproduct_rho_is_primitive():
    p = params(1, 1, 1, 3)
    rho = make_rho(p)
    one = AlgebraElement.unit(p)
    assert coproduct(rho) == tensor_of(rho, one) + tensor_of(one, rho)


def test_coproduct_theta_classical():
    p0 = params(1, 1, 1, 0)
    th = make_generator("Th", p0)
    one = AlgebraElement.unit(p0)
    assert coproduct(th) == tensor_of(th, one) + tensor_of(one, th)


def test_coproduct_theta_first_order_cross_terms():
    # cop(Th) at truncation 1 is primitive plus the antisymmetric linear part
    # that later feeds the cocommutators.
    p = params(1, 1, 1, 1)
    g = gens(p)
    one = AlgebraElement.unit(p)
    h2 = SeriesScalar.hbar(2, 1)
    h3 = SeriesScalar.hbar(3, 1)
    cross = (tensor_of(g["Th"], g["Ph"]) - tensor_of(g["Ph"], g["Th"])).scale(h2) \
        + (tensor_of(g["Th"], g["Ps"]) - tensor_of(g["Ps"], g["Th"])).scale(h3)
    expected = tensor_of(g["Th"], one) + tensor_of(one, g["Th"]) + cross.scale(2)
    assert coproduct(g["Th"]) == expected


def test_coproduct_lambda_theta():
    p = params(1, 1, 1, 3)
    g = gens(p)
    lam = make_lambda(p)
    lam_th = _central_mul(lam, g["Th"])
    e2, em2 = make_exp_rho(2, p), make_exp_rho(-2, p)
    expected = tensor_of(lam_th, e2) + tensor_of(em2, lam_th)
    assert coproduct(lam_th) == expected
    assert tensor_mul(coproduct(g["Th"]), coproduct(lam)) == expected


def test_classical_primitivity_all_generators():
    p = params(1, 1, 1, 2)
    one = AlgebraElement.unit(p)
    for name, g in gens(p).items():
        got = coproduct(g).limit((1, 2, 3))
        assert got == tensor_of(g, one) + tensor_of(one, g), name


def test_flip_difference_vanishes_classically():
    p = params(1, 1, 1, 2)
    for name, g in gens(p).items():
        t = coproduct(g)
        d = t - t.flip()
        assert all(key[-1] != (0, 0, 0) for key in d.terms), name


def test_counit_examples():
    p = params(1, 1, 1, 2)
    g = gens(p)
    assert counit(g["Q1"]) == SeriesScalar.zero(2)
    x = AlgebraElement.unit(p) + g["Th"].scale(SeriesScalar.monomial(
        (1, 0, 0), 3, 2))
    assert counit(x) == SeriesScalar.one(2)
    assert counit(make_lambda(p)) == SeriesScalar.one(2)


def test_antipode_examples():
    p = params(1, 1, 1, 2)
    g = gens(p)
    assert antipode(g["Q1"]) == -g["Q1"]
    lam = make_lambda(p)
    assert antipode(lam) == lam
    got = antipode(normal_order_mul(g["Q1"], g["P1"]))
    lam_th = _central_mul(lam, g["Th"])
    assert got == normal_order_mul(g["Q1"], g["P1"]) - lam_th


def test_antipode_mu_kills_p1():
    p = params(1, 1, 1, 2)
    t = coproduct(make_generator("P1", p))
    assert mu_antipode_leg(t, 0) == AlgebraElement.zero(p)
    assert mu_antipode_leg(t, 1) == AlgebraElement.zero(p)


def test_tensor_inverse_of_cop_lambda():
    # The Th_i letter is the Z_i letter times the tensor inverse of
    # cop(lam), so it times cop(lam), built here from cop(rho) and the
    # lam coefficients, gives the Z_i letter back.
    for trunc in range(6):
        shared = Truncation(trunc)
        one, rho = AlgebraElement.unit(shared), make_rho(shared)
        cop_lam = power_series(lambda_coefficients(1, trunc),
                               tensor_of(rho, one) + tensor_of(one, rho),
                               TensorElement.unit(shared), tensor_mul)
        letters = _letters(trunc)
        for i in range(3):
            assert tensor_mul(letters[4 + i], cop_lam) == letters[7 + i], \
                (trunc, i)


@pytest.mark.parametrize("trunc", range(6))
def test_z_letters_match_the_coproduct_of_lam_th(trunc):
    # The Z letters are written in closed form, Z_i (x) exp(2rho) +
    # exp(-2rho) (x) Z_i; the coproduct of the expanded lam Th_i is the
    # path they replace.
    for i in range(3):
        unit = tuple(int(j == i) for j in range(3))
        want = coproduct(from_z_basis({(unit, (0, 0, 0, 0)): 1},
                                      Truncation(trunc)))
        got = _letters(trunc)[7 + i]
        assert (got.nums, got.den) == (want.nums, want.den), i


def test_coassociativity_dp_matches_leg_application():
    for mono in [(0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 1, 0),
                 (1, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1, 1)]:
        cop = cop_table(2, mono)
        assert _cop_table(2, mono, 0).tensor() == apply_coproduct_leg(cop, 0)
        assert _cop_table(2, mono, 1).tensor() == apply_coproduct_leg(cop, 1)


@pytest.mark.parametrize("alpha,beta,gamma",
                         [(1, 1, 1), (2, Fraction(1, 2), -3)])
def test_hopf_axioms_degree2(alpha, beta, gamma):
    report = verify_hopf_axioms(2, params(alpha, beta, gamma, 2))
    assert report.passed, report.to_text()


def test_heisenberg_limit_report():
    report = heisenberg_limit_report(3)
    assert report.passed, report.to_text()


def test_heisenberg_frozen_degree3():
    p = params(1, 0, 0, 3)
    got = commutator(make_generator("Q1", p),
                     make_generator("P1", p)).limit((2, 3))
    expected = AlgebraElement.monomial(p, (1, 0, 0, 0, 0, 0, 0)) + \
        AlgebraElement.monomial(p, (3, 0, 0, 0, 0, 0, 0),
                                SeriesScalar.monomial((2, 0, 0),
                                                      Fraction(2, 3), 3))
    assert got == expected


def test_heisenberg_q1_q2_commute():
    p = params(1, 0, 0, 2)
    got = commutator(make_generator("Q1", p), make_generator("Q2", p))
    assert got == AlgebraElement.zero(p)


def test_hopf_axioms_every_truncation_up_to_3():
    # Degree-3 monomial grid at every truncation D <= 3 (the D = 3 case is
    # covered by the acceptance suite).
    for trunc in (0, 1, 2):
        report = verify_hopf_axioms(3, params(1, 1, 1, trunc))
        assert report.passed, report.to_text()


def test_verify_hopf_axioms_rejects_negative_degree():
    with pytest.raises(InvalidParamsError):
        verify_hopf_axioms(-1, params(1, 1, 1, 1))


def reference_tensor_mul(a: TensorElement, b: TensorElement) -> TensorElement:
    """Plain product: every term pair, Fraction arithmetic, normal_order_mul
    of the two monomials on each leg, and truncation on the summed h
    exponents."""
    p = a.params
    out: dict = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            h0 = tuple(x + y for x, y in zip(ka[-1], kb[-1]))
            parts = [((), h0, ca * cb)]
            for leg in range(a.arity):
                prod = normal_order_mul(AlgebraElement.monomial(p, ka[leg]),
                                        AlgebraElement.monomial(p, kb[leg]))
                parts = [(legs + (m,), tuple(x + y for x, y in zip(h, hs)),
                          c * cs)
                         for legs, h, c in parts
                         for m, s in prod.terms.items()
                         for hs, cs in s.terms.items()]
            for legs, h, c in parts:
                if sum(h) <= a.params.trunc:
                    key = legs + (h,)
                    out[key] = out.get(key, 0) + c
    return TensorElement(a.params, a.arity, out)


def leg_monomials():
    """Ordered monomials of generator degree <= 2."""
    return st.lists(st.integers(0, 6), max_size=2).map(
        lambda gens: tuple(gens.count(g) for g in range(7)))


@st.composite
def tensor_pairs(draw, arities=(2, 3)):
    alpha, beta, gamma = draw(st.sampled_from(
        [(1, 1, 1), (2, Fraction(1, 2), -3), (Fraction(-3, 2), 0, 5)]))
    p = params(alpha, beta, gamma, draw(st.integers(0, 3)))
    arity = draw(st.sampled_from(arities))
    keys = st.tuples(*[leg_monomials()] * arity, h_exponents(p.trunc))
    terms = st.dictionaries(keys, small_fractions(), min_size=1, max_size=6)
    return (TensorElement(p, arity, draw(terms)),
            TensorElement(p, arity, draw(terms)))


@settings(max_examples=200, deadline=None)
@given(tensor_pairs())
def test_tensor_mul_matches_reference(pair):
    a, b = pair
    got = tensor_mul(a, b)
    assert got == reference_tensor_mul(a, b)
    assert_stored_once(got)
    rebuilt = TensorElement(got.params, got.arity, got.terms)
    assert got == rebuilt and rebuilt == got


def ordered_leg_monomials(lowest_qp: int, highest_qp: int):
    """Monomials whose Q/P generators lie in [lowest_qp, highest_qp], with
    exponents up to 9; central generators are free."""
    return st.tuples(*[
        st.integers(0, 9) if g < Q1 or lowest_qp <= g <= highest_qp
        else st.just(0) for g in range(7)])


@st.composite
def ordered_truncation_pairs(draw):
    """Two tensors over Truncation(trunc) whose every leg product is
    ordered: on each leg, a's Q/P generators come before b's."""
    p = Truncation(draw(st.integers(0, 3)))
    arity = draw(st.sampled_from((2, 3)))
    splits = [draw(st.integers(Q1, P2 + 1)) for _ in range(arity)]
    hs = h_exponents(p.trunc)
    a_keys = st.tuples(*[ordered_leg_monomials(Q1, s) for s in splits], hs)
    b_keys = st.tuples(*[ordered_leg_monomials(s, P2) for s in splits], hs)
    return (TensorElement(p, arity, draw(st.dictionaries(
                a_keys, small_fractions(), min_size=1, max_size=6))),
            TensorElement(p, arity, draw(st.dictionaries(
                b_keys, small_fractions(), min_size=1, max_size=6))))


@settings(max_examples=150, deadline=None)
@given(ordered_truncation_pairs())
def test_truncation_tensor_mul_matches_reference(pair):
    # Every leg product is a plain exponent sum, as in the coproduct tables.
    a, b = pair
    got = tensor_mul(a, b)
    assert got == reference_tensor_mul(a, b)
    assert_stored_once(got)


def mono(**exponents) -> tuple:
    return tuple(exponents.get(name, 0)
                 for name in ("Th", "Ph", "Ps", "Q1", "Q2", "P1", "P2"))


@pytest.mark.parametrize("ea,eb", [(3, 4), (4, 4), (127, 128), (128, 128),
                                   (0, 1), (1, 1)])
@pytest.mark.parametrize("arity", [2, 3])
def test_tensor_mul_fields_at_the_width_boundary(ea, eb, arity):
    # ea + eb is the largest exponent of the product: 2**k - 1 fills every
    # bit of a field and 2**k needs one more.  The exponents sit in the
    # fields next to another leg's or to h's, where a carry would land.
    p = Truncation(1)
    a_legs = (mono(Th=ea, P2=ea),) + (mono(Th=ea),) * (arity - 1)
    b_legs = (mono(Th=eb, P2=eb),) + (mono(Th=eb, P2=eb),) * (arity - 1)
    a = TensorElement(p, arity, {a_legs + ((0, 0, 1),): Fraction(1, 2),
                                 (EMPTY_MONO,) * arity + ((0, 0, 0),): 3})
    b = TensorElement(p, arity, {b_legs + ((0, 0, 0),): 5})
    got = tensor_mul(a, b)
    want = TensorElement(p, arity, {
        tuple(tuple(x + y for x, y in zip(ma, mb))
              for ma, mb in zip(a_legs, b_legs)) + ((0, 0, 1),):
        Fraction(5, 2),
        b_legs + ((0, 0, 0),): 15})
    assert got == want == reference_tensor_mul(a, b)


def test_tensor_mul_width_holds_reordered_products():
    # P1 Q1 reorders into Q1 P1 - lam*Th: at h^2 the Th exponent of a term
    # exceeds the sum of the operands' largest exponents.
    p = params(1, 1, 1, 3)
    for th in range(3, 9):
        a = TensorElement(p, 2, {(mono(Th=th, P1=1), mono(Q1=1),
                                  (0, 0, 0)): 1})
        b = TensorElement(p, 2, {(mono(Q1=1), mono(P1=1), (0, 0, 0)): 1})
        assert tensor_mul(a, b) == reference_tensor_mul(a, b), th
    # Q2 Q1 gains Ph and P2 P1 gains Ps the same way, and lam at h^2 two
    # more, so the largest exponent is e + 3.  In the arity-3 pair, which
    # reorders on two legs at once, Th^e P1 P2 times Th^e Q1 Q2 contracts
    # two pairs into Th, whose exponent 2e + 4 then exceeds the sum of the
    # operands' largest exponents and the truncation.  Over e these
    # exponents fill a field to its last bit and pass it, at 8 and 16.
    for e in range(2, 14):
        for a_legs, b_legs in [
                ((mono(Ph=e, Q2=1), mono(Q1=1)), (mono(Q1=1), mono(P1=1))),
                ((mono(Ps=e, P2=1), mono(P1=1)), (mono(P1=1), mono(Q2=1))),
                ((mono(Th=e, P1=1, P2=1), mono(Ph=e, Q2=1), mono(Ps=e)),
                 (mono(Th=e, Q1=1, Q2=1), mono(Q1=1), mono(P2=1)))]:
            a = TensorElement(p, len(a_legs), {a_legs + ((0, 0, 0),): 1})
            b = TensorElement(p, len(b_legs), {b_legs + ((0, 0, 0),): 1})
            assert tensor_mul(a, b) == reference_tensor_mul(a, b), (e, a_legs)


def test_truncation_tensor_mul_refuses_to_reorder():
    # The engine of a Truncation has no commutators: a leg product that a
    # term pair reaches and that needs reordering raises, on any leg.
    p = Truncation(1)
    p1, q1 = mono(P1=1), mono(Q1=1)
    for leg in range(3):
        def tensor(m, h=(0, 0, 0)):
            legs = [EMPTY_MONO] * 3
            legs[leg] = m
            return TensorElement(p, 3, {tuple(legs) + (h,): 1})
        with pytest.raises(RuntimeError):
            tensor_mul(tensor(p1), tensor(q1))
        assert tensor_mul(tensor(q1), tensor(p1)) == tensor(mono(Q1=1, P1=1))
        # Over the truncation budget the product is never fetched.
        assert not tensor_mul(tensor(p1, (1, 0, 0)), tensor(q1, (0, 1, 0)))
        # The budget is read per Q/P key, off the lowest h-degree of all
        # its terms: P1*h1 + Th*P1 reaches Q1*h2 through Th*P1, while
        # P1*h1 + Th*P1*h3 does not.
        q1h2 = tensor(q1, (0, 1, 0))
        with pytest.raises(RuntimeError):
            tensor_mul(tensor(p1, (1, 0, 0)) + tensor(mono(Th=1, P1=1)), q1h2)
        assert not tensor_mul(tensor(p1, (1, 0, 0))
                              + tensor(mono(Th=1, P1=1), (0, 0, 1)), q1h2)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(PARAM_SETS),
       st.integers(0, 3))
def test_kernel_outputs_are_stored_once(rng, abc, trunc):
    p = params(*abc, trunc)
    x, y = random_element(rng, p), random_element(rng, p)
    for got in (normal_order_mul(x, y), coproduct(x), antipode(x),
                antipode(normal_order_mul(x, y)),
                mu_antipode_leg(coproduct(x), 0),
                mu_antipode_leg(coproduct(x), 1)):
        assert_stored_once(got)


def test_three_leg_products_match_leg_substitution():
    # Leg substitution never multiplies two three-leg tensors, so it checks
    # the three-leg product path by a different route.
    for mono in multiindices_graded(7, 2):
        cop = cop_table(3, mono)
        left, right = _cop_table(3, mono, 0), _cop_table(3, mono, 1)
        assert apply_coproduct_leg(cop, 0) == left.tensor(), mono
        assert apply_coproduct_leg(cop, 1) == right.tensor(), mono


def letter(trunc: int, g: int) -> TensorElement:
    """The coproduct of generator g (PBW index) from the letter list, whose
    walk order puts Q1, Q2, P1, P2 before Th, Ph, Ps."""
    return _letters(trunc)[(g + 4) % 7]


def reference_cop3(trunc: int, m: tuple, side: int) -> TensorElement:
    """(cop (x) 1) cop (side 0) or (1 (x) cop) cop (side 1) on a monomial
    by public tensor_mul calls: the generator coproducts with the
    coproduct applied to one leg, multiplied in PBW order."""
    t = TensorElement.unit(Truncation(trunc), 3)
    for g, e in enumerate(m):
        gen = apply_coproduct_leg(letter(trunc, g), side)
        for _ in range(e):
            t = tensor_mul(t, gen)
    return t


def reference_cop2(trunc: int, m: tuple) -> TensorElement:
    """cop of a monomial by public tensor_mul calls: the generator
    coproducts multiplied in PBW order."""
    t = TensorElement.unit(Truncation(trunc))
    for g, e in enumerate(m):
        for _ in range(e):
            t = tensor_mul(t, letter(trunc, g))
    return t


@pytest.mark.parametrize("trunc,degree", [(0, 3), (1, 3), (2, 3), (3, 2)])
def test_packed_two_leg_tables_match_tensor_chains(trunc, degree):
    for m in multiindices_graded(7, degree):
        cop = cop_table(trunc, m)
        assert_stored_once(cop)
        assert cop == reference_cop2(trunc, m), m
        # Every read decodes the packed table again; no decoded copy is kept.
        again = cop_table(trunc, m)
        assert again is not cop and again == cop


@pytest.mark.parametrize("trunc,degree", [(0, 3), (1, 3), (2, 3), (3, 2)])
def test_packed_tables_match_tensor_chains(trunc, degree):
    for m in multiindices_graded(7, degree):
        cop = cop_table(trunc, m)
        for side in (0, 1):
            table = _cop_table(trunc, m, side).tensor()
            assert_stored_once(table)
            assert table == apply_coproduct_leg(cop, side), (m, side)
            assert table == reference_cop3(trunc, m, side), (m, side)


@pytest.mark.parametrize("e", [3, 4, 7, 8])
def test_packed_chain_at_the_width_boundary(e):
    # At trunc 1 the chain of g^e reaches g^e (x) 1 (x) 1, or g^e (x) 1 on
    # two legs, and Th^e gains one more Th with h1: its fields reach
    # 1 + e, the bound the width is read off.  1 + e = 2**k for e = 3 and
    # 7 needs one bit more than e alone.
    width = (1 + e).bit_length()
    for g in ("Th", "P2"):
        m = mono(**{g: e})
        assert _cop_table(1, m, None).layout.width == width
        assert cop_table(1, m) == reference_cop2(1, m), g
        for side in (0, 1):
            table = _cop_table(1, m, side)
            assert table.layout is key_layout(3, width)
            assert table.tensor() == reference_cop3(1, m, side), (g, side)
            assert table.tensor() == apply_coproduct_leg(cop_table(1, m),
                                                         side), (g, side)


def test_unequal_tables_report_the_decoded_difference(monkeypatch):
    # One side gains a term whose Th^4 is packed wider than the other
    # side's fields: tables of two layouts are never equal, and the note
    # shows the decoded difference.
    real = hopf._cop_table
    q1 = mono(Q1=1)
    extra = TensorElement(Truncation(1), 3, {
        (q1, mono(Th=4), EMPTY_MONO, (0, 1, 0)): Fraction(2, 3)})

    def skewed(trunc, m, side):
        table = real(trunc, m, side)
        if m == q1 and side == 1:
            wide = _Table.pack(table.tensor() + extra, 3)
            assert wide.layout.width > real(trunc, m, 0).layout.width
            return wide
        return table

    monkeypatch.setattr(hopf, "_cop_table", skewed)
    report = verify_hopf_axioms(1, params(2, Fraction(1, 2), -3, 1))
    [failure] = report.failures()
    assert (failure.name, failure.subject) == ("coassociativity", "Q1")
    assert failure.counterexample == (
        "(cop(x)1)cop - (1(x)cop)cop differs by "
        "-(2/3)*h2*Q1 (x) Th^4 (x) 1")


def snapshot(table):
    """A copy of what a table stores: its layout, its denominator, and each
    block's content with the factors at its Q/P keys."""
    return table.layout, table.den, {
        (block.keys, block.values, block.ends): dict(qs)
        for block, qs in table.blocks.items()}


@pytest.mark.parametrize("side", [None, 0, 1])
def test_cached_tables_never_change(side):
    # At trunc 1 the tables of P2 and P2^2 are packed with fields of 2
    # bits and P2^3's with 3 (trunc + max(m)): P2^3 builds its prefixes
    # again at 3 bits and leaves the 2-bit tables and their blocks as they
    # were, each table in the one shared layout of its width.
    for memo in (_cop_table, _chain, _gen):
        memo.cache_clear()
    arity = 2 if side is None else 3
    tables = [_cop_table(1, mono(P2=e), side) for e in (1, 2)]
    before = [snapshot(t) for t in tables]
    assert [t.layout for t in tables] == [key_layout(arity, 2)] * 2
    wide = _cop_table(1, mono(P2=3), side)
    assert wide.layout is key_layout(arity, 3)
    assert [snapshot(t) for t in tables] == before
    assert [_cop_table(1, mono(P2=e), side) for e in (1, 2)] == tables


def test_every_chain_product_meets_one_layout(monkeypatch):
    # Every link of a chain, and every generator table it reads, is packed
    # at the width of the chain's monomial, also where the chain crosses a
    # width boundary: at trunc 1 P2^3 takes 3 bits where P2^2 alone takes
    # 2, and Th^7 takes 4 where Th^6 alone takes 3.
    for memo in (_cop_table, _chain, _gen):
        memo.cache_clear()
    met = []
    times = _Table.times

    def spy(self, other):
        met.append((self.layout, other.layout))
        return times(self, other)

    monkeypatch.setattr(_Table, "times", spy)
    chains = [(2, m) for m in multiindices_graded(7, 2)]
    chains += [(1, mono(P2=3)), (1, mono(Th=7))]
    for trunc, m in chains:
        for side in (None, 0, 1):
            _cop_table(trunc, m, side)
    assert all(a is b for a, b in met)
    layouts = {a for a, _ in met}
    assert {key_layout(arity, width) for arity in (2, 3)
            for width in (2, 3, 4)} <= layouts


def divided_targets(trunc):
    """The (S, T) of the chain tests: |S| + |T| <= 4 at trunc 0-2, and at
    trunc 3 |S| <= 4 with T zero or a unit vector."""
    if trunc < 3:
        return [(S, T) for S in multiindices(3, 4)
                for T in multiindices(4, 4 - sum(S))]
    units = [(0, 0, 0, 0)] + [tuple(int(i == k) for i in range(4))
                              for k in range(4)]
    return [(S, T) for S in multiindices(3, 4) for T in units]


@pytest.mark.parametrize("trunc", range(4))
def test_divided_power_chain_matches_the_expansion(trunc):
    # cop(Z^S X^T) as one chain, Q/P letters then Z letters, equals the
    # coproduct of the expanded element lam^|S| Th^S X^T / (S! T!).  The
    # Z links come from the closed-form letters, not from coproduct(), so
    # the two sides are built independently.
    for S, T in divided_targets(trunc):
        got = divided_power_coproduct(S, T, trunc)
        want = coproduct(from_z_basis({(S, T): 1}, Truncation(trunc)))
        assert got.params == Truncation(trunc)
        assert (got.nums, got.den) == (want.nums, want.den), (S, T)


@pytest.mark.parametrize("key", [((1, 0), (0, 0, 0, 0)), ((-1, 0, 0), (0,) * 4),
                                 ((0, 0, 0), (0, 1.0, 0, 0))])
def test_divided_power_chain_refuses_malformed_keys(key):
    with pytest.raises(ValueError, match="not a Z-basis key"):
        divided_power_coproduct(*key, 1)


def test_targets_of_one_t_share_the_q_p_links():
    # At trunc 2 every S below has max(S + T) = 2, so all the chains have
    # one width.  The first target's links are the empty word, the three
    # Q/P letters and Z1; each later one builds only the Z links that no
    # earlier target walked, and none of the Q/P links again.
    for memo in (_cop_table, _chain, _gen):
        memo.cache_clear()
    T = (2, 1, 0, 0)
    divided_power_coproduct((1, 0, 0), T, 2)
    assert _chain.cache_info().misses == sum(T) + 2
    for S, new_z_links in (((0, 1, 0), 1), ((1, 1, 0), 1), ((0, 0, 2), 2),
                           ((1, 0, 0), 0), ((0, 0, 0), 0)):
        before = _chain.cache_info().misses
        divided_power_coproduct(S, T, 2)
        assert _chain.cache_info().misses - before == new_z_links, S


def test_monomials_of_one_q_p_part_share_its_links():
    # A monomial's chain walks its Q/P letters first, so Th Ph Q1^2 P2
    # reuses the links of Q1^2 P2 (one width, 3 bits at trunc 2) and builds
    # one link per central letter, on two legs and on each three-leg side.
    qp, mixed = mono(Q1=2, P2=1), mono(Th=1, Ph=1, Q1=2, P2=1)
    for side in (None, 0, 1):
        for memo in (_cop_table, _chain, _gen):
            memo.cache_clear()
        _cop_table(2, qp, side)
        before = _chain.cache_info().misses
        _cop_table(2, mixed, side)
        assert _chain.cache_info().misses - before == 2, side


def test_chains_call_no_coproduct(monkeypatch):
    # The two-leg chains of monomials and of divided-power targets read
    # every letter from the closed forms of _letters: none of them calls
    # coproduct(), not even for a Z letter.
    calls = []
    real = hopf.coproduct

    def counted(x):
        calls.append(x)
        return real(x)

    for memo in (_cop_table, _chain, _gen, _letters):
        memo.cache_clear()
    monkeypatch.setattr(hopf, "coproduct", counted)
    for trunc in range(4):
        for S, T in divided_targets(trunc):
            divided_power_coproduct(S, T, trunc)
        for m in multiindices_graded(7, 3):
            _cop_table(trunc, m, None)
    assert calls == []


def test_a_wrong_letter_table_fails_the_grid(monkeypatch):
    # With cop(Q1) = Q1 (x) exp(rho) + exp(rho) (x) Q1 the grid, which
    # reads the generator coproducts through coproduct(), still fails: the
    # antipode of Q1, the homomorphism law on the two pairs whose
    # commutator with Q1 is not 0, and the three products that reorder Q1
    # past P1.  Counit and coassociativity hold for this table.
    real = hopf._letters

    def skewed(trunc):
        shared = Truncation(trunc)
        q1, e1 = make_generator("Q1", shared), make_exp_rho(1, shared)
        return (tensor_of(q1, e1) + tensor_of(e1, q1),) + real(trunc)[1:]

    for memo in (_cop_table, _chain, _gen):
        memo.cache_clear()
    monkeypatch.setattr(hopf, "_letters", skewed)
    try:
        report = verify_hopf_axioms(1, params(2, Fraction(1, 2), -3, 1))
    finally:
        for memo in (_cop_table, _chain, _gen):
            memo.cache_clear()
    assert sorted((c.name, c.subject) for c in report.failures()) == [
        ("antipode", "Q1"),
        ("coproduct-homomorphism", "[Q1,P1]"),
        ("coproduct-homomorphism", "[Q1,Q2]"),
        ("coproduct-multiplicativity", "pair 0"),
        ("coproduct-multiplicativity", "pair 2"),
        ("coproduct-multiplicativity", "pair 4")]


def test_three_leg_tables_share_their_blocks():
    # The central series that multiply the splits of the Q/P letters
    # repeat: over the degree <= 3 grid at trunc 3 the two sides hold
    # 1,632 (Q/P key, block) slots and at most a fifth as many distinct
    # blocks.
    tables = [_cop_table(3, m, side)
              for m in multiindices_graded(7, 3) for side in (0, 1)]
    slots = sum(len(qs) for t in tables for qs in t.blocks.values())
    blocks = {block for t in tables for block in t.blocks}
    assert slots == 1632
    assert 5 * len(blocks) <= slots


def test_blocks_are_interned_and_primitive():
    # Blocks equal up to a factor are one object, in the form whose
    # numerators share no factor and start positive.
    for m in multiindices_graded(7, 2):
        for side in (None, 0, 1):
            for block, qs in _cop_table(2, m, side).blocks.items():
                assert _block(block.keys, block.values, block.ends) is block
                assert block.values[0] > 0 and gcd(*block.values) == 1
                assert all([k for k, _ in items] == sorted(k for k, _ in items)
                           for items in block.degrees())
                assert 0 not in qs.values()


@pytest.mark.parametrize("m", [mono(Q1=1, Q2=1, P1=1), mono(Th=1, Q1=1, P2=1),
                               mono(Th=1, Ph=1, Ps=1)])
@pytest.mark.parametrize("side", [0, 1])
def test_degree3_three_leg_tables_at_trunc3(m, side):
    table = _cop_table(3, m, side).tensor()
    assert table == reference_cop3(3, m, side)
    assert table == apply_coproduct_leg(cop_table(3, m), side)


def reference_mu_antipode_leg(t: TensorElement, leg: int) -> AlgebraElement:
    """Fraction path: sum c * h^h * S(m1) m2 (leg 0) or m1 S(m2) (leg 1),
    each product by normal_order_mul."""
    p = t.params
    out = AlgebraElement.zero(p)
    for (m1, m2, h), c in t.terms.items():
        x = AlgebraElement.monomial(p, m1)
        y = AlgebraElement.monomial(p, m2)
        prod = (normal_order_mul(antipode(x), y) if leg == 0
                else normal_order_mul(x, antipode(y)))
        out = out + prod.scale(SeriesScalar.monomial(h, c, p.trunc))
    return out


# One leg pair at h-degrees 0 and 1: S(P1) Q1 = -P1 Q1 reorders into lam,
# whose h^2 terms only the degree-0 term may reach.
P1_Q1 = TensorElement(params(2, Fraction(1, 2), -3, 2), 2, {
    ((0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0, 0), h): 1
    for h in ((0, 0, 0), (1, 0, 0))})


# Leg monomials with odd and even central degrees on both legs, at
# h-degrees 0 and 1: Th P1 (x) Ph^2 Q1 and its flip.
TH_P1_PH2_Q1 = TensorElement(params(2, Fraction(1, 2), -3, 2), 2, {
    ((1, 0, 0, 0, 0, 1, 0), (0, 2, 0, 1, 0, 0, 0), h): c
    for h, c in (((0, 0, 0), 1), ((0, 1, 0), Fraction(-2, 3)))})


@settings(max_examples=150, deadline=None)
@given(tensor_pairs(arities=(2,)), st.sampled_from((0, 1)))
@example((P1_Q1, P1_Q1.flip()), 0)
@example((P1_Q1, P1_Q1.flip()), 1)
@example((TH_P1_PH2_Q1, TH_P1_PH2_Q1.flip()), 0)
@example((TH_P1_PH2_Q1, TH_P1_PH2_Q1.flip()), 1)
@example((TH_P1_PH2_Q1.flip(), TH_P1_PH2_Q1), 0)
@example((TH_P1_PH2_Q1.flip(), TH_P1_PH2_Q1), 1)
def test_mu_antipode_leg_matches_reference(pair, leg):
    # The product repeats leg pairs at several h-degrees.
    for t in (pair[0], tensor_mul(*pair)):
        assert mu_antipode_leg(t, leg) == reference_mu_antipode_leg(t, leg)


@pytest.mark.parametrize("trunc", range(4))
def test_mu_antipode_kernel_matches_reference_on_every_cop_table(trunc):
    # The Hopf grid runs the kernel on the cached two-leg tables; the
    # hypothesis test above runs it through mu_antipode_leg's packing.
    grid_abc = (Fraction(2), Fraction(1, 2), Fraction(-3))
    for abc in dict.fromkeys([*PARAM_SETS, grid_abc]):
        p = params(*abc, trunc)
        for m in multiindices_graded(7, 3):
            table, cop = _cop_table(trunc, m, None), decoded_cop(trunc, m)
            cop = TensorElement.zero(p).over_denominator(cop.nums, cop.den)
            for leg in (0, 1):
                assert table.mu_antipode(p, leg) == \
                    reference_mu_antipode_leg(cop, leg), (abc, m, leg)


def test_antipode_check_fails_on_a_wrong_antipode(monkeypatch):
    # With S(Q1) = +Q1 the grid must fail the antipode check of Q1 alone,
    # and still pass counit and coassociativity on every monomial.
    real = hopf.antipode_mono
    q1 = mono(Q1=1)

    def skewed(space, m):
        return AlgebraElement.monomial(space, m) if m == q1 else real(space, m)

    real.cache_clear()
    monkeypatch.setattr(hopf, "antipode_mono", skewed)
    try:
        report = verify_hopf_axioms(1, params(2, Fraction(1, 2), -3, 2))
    finally:
        real.cache_clear()
    failed = {(c.name, c.subject): c.counterexample
              for c in report.failures()}
    assert [subject for name, subject in failed if name == "antipode"] == \
        ["Q1"]
    # The two legs give 2 Q1 exp(rho) and 2 Q1 exp(-rho) instead of 0.
    assert failed["antipode", "Q1"] == (
        "mu(S(x)1)cop - eta eps differs by 4*Q1 + 2*h3^2*Ps^2*Q1 + "
        "4*h2*h3*Ph*Ps*Q1 + 2*h2^2*Ph^2*Q1 + 4*h1*h3*Th*Ps*Q1 + "
        "4*h1*h2*Th*Ph*Q1 + 2*h1^2*Th^2*Q1")
    for name in ("counit", "coassociativity"):
        # One check per monomial of degree <= 1: 1 and the 7 generators.
        assert [c.passed for c in report.checks if c.name == name] == \
            [True] * 8


def test_signed_series_are_kept_once_for_every_parameter_set():
    # A block's signed central series holds no alpha, beta or gamma, so a
    # second parameter set at the same truncation adds no memo entry.
    verify_hopf_axioms(2, params(1, 1, 1, 2))
    size = hopf._signed.cache_info().currsize
    assert size
    verify_hopf_axioms(2, params(2, Fraction(1, 2), -3, 2))
    assert hopf._signed.cache_info().currsize == size


@pytest.mark.parametrize("space", [params(2, Fraction(1, 2), -3, 3),
                                   Truncation(2)], ids=["params", "trunc"])
def test_antipode_of_a_central_monomial_is_its_signed_self(space):
    # mu_antipode_leg factors the central letters out of S by this fact;
    # antipode_mono builds S(c) by reversing the letters of c.
    for c in multiindices_graded(3, 3):
        m = c + (0, 0, 0, 0)
        assert antipode_mono(space, m) == AlgebraElement.monomial(
            space, m, (-1) ** sum(c)), m


@pytest.mark.parametrize("apply,arity,leg", [
    (mu_antipode_leg, 2, 2), (mu_antipode_leg, 2, -1), (mu_antipode_leg, 3, 0),
    (apply_counit_leg, 2, 2), (apply_counit_leg, 2, -1),
    (apply_counit_leg, 3, 3), (apply_coproduct_leg, 2, 2),
    (apply_coproduct_leg, 2, -1), (apply_coproduct_leg, 3, 3),
], ids=lambda v: getattr(v, "__name__", v))
def test_legs_outside_the_tensor_are_refused(apply, arity, leg):
    p = params(2, Fraction(1, 2), -3, 1)
    q1 = make_generator("Q1", p)
    t = (coproduct(q1) if arity == 2
         else tensor_of(AlgebraElement.unit(p), AlgebraElement.unit(p), q1))
    with pytest.raises(ValueError):
        apply(t, leg)


@pytest.mark.parametrize("make", [
    lambda q1: apply_coproduct_leg(tensor_of(q1, q1, q1), 1),
    lambda q1: tensor_of(q1),
    lambda q1: tensor_of(q1, q1, q1, q1),
    lambda q1: TensorElement.zero(q1.params, 4),
    lambda q1: TensorElement.unit(q1.params, 1),
], ids=["coproduct-leg-of-three", "one-factor", "four-factors", "zero",
        "unit"])
def test_tensors_of_other_than_two_or_three_legs_are_refused(make):
    # Text and JSON name two or three legs: a fourth leg was printed
    # without its monomial.
    q1 = make_generator("Q1", params(2, Fraction(1, 2), -3, 1))
    with pytest.raises(ValueError, match="2 or 3 legs"):
        make(q1)


def test_tensor_storage_is_canonical():
    p, q = params(1, 1, 1, 2), params(2, Fraction(1, 2), -3, 2)
    key = ((0, 0, 0, 1, 0, 0, 0), EMPTY_MONO, (1, 0, 0))
    t = TensorElement(p, 2, {key: Fraction(4, 6), EMPTY_KEY: Fraction(-2)})
    assert (t.den, t.nums) == (3, {key: 2, EMPTY_KEY: -6})
    assert TensorElement.zero(p).over_denominator({key: 8, EMPTY_KEY: -24},
                                                  12) == t
    # The same numerators over other parameters are another tensor.
    moved = TensorElement.zero(q).over_denominator(t.nums, t.den)
    assert_stored_once(moved)
    assert moved != t and TensorElement.zero(p).over_denominator(
        moved.nums, moved.den) == t
    # A sum whose numerators all cancel is the zero tensor, over 1.
    zero = TensorElement.zero(p).over_denominator({key: 0, EMPTY_KEY: 0}, 12)
    assert zero == TensorElement.zero(p) and (zero.den, zero.nums) == (1, {})


def test_cancelling_products_are_zero():
    p = params(2, Fraction(1, 2), -3, 2)
    cop = {name: coproduct(x) for name, x in gens(p).items()}
    # Th is central and cop a homomorphism: every term of the two
    # products cancels.
    comm = tensor_commutator(cop["Th"], cop["Q1"])
    assert comm == TensorElement.zero(p) and not comm.nums
    # Every term pair of (h1 * 1 (x) 1)^2 lies over truncation order 1.
    h1 = TensorElement(params(1, 1, 1, 1), 2,
                       {(EMPTY_MONO, EMPTY_MONO, (1, 0, 0)): 1})
    assert tensor_mul(h1, h1) == TensorElement.zero(params(1, 1, 1, 1))


def test_hopf_axioms_degree3_trunc4():
    report = verify_hopf_axioms(3, DeformParams(2, Fraction(1, 2), -3, 4))
    assert report.passed, report.to_text()
    assert len([c for c in report.checks if not c.diagnostic]) == 408


@cache
def decoded_cop(trunc: int, m: tuple) -> TensorElement:
    """cop_table, decoded once per test run for the references."""
    return cop_table(trunc, m)


def decode_and_substitute(space, arity: int, items) -> TensorElement:
    """The reference of coproduct() and apply_coproduct_leg(): the sum of
    c * h^g * before (x) cop(m) (x) after over the items (before, m, after,
    g, c), each cop(m) decoded from its two-leg table and its terms placed
    one by one, over the lcm of all denominators."""
    cops = {m: decoded_cop(space.trunc, m) for _, m, *_ in items}
    den = lcm(*(c.denominator * cops[m].den for _, m, _, _, c in items))
    out: dict = {}
    for before, m, after, g, c in items:
        cop = cops[m]
        f = c.numerator * (den // (c.denominator * cop.den))
        for (m1, m2, h), n in cop.nums.items():
            hh = (g[0] + h[0], g[1] + h[1], g[2] + h[2])
            if sum(hh) <= space.trunc:
                key = before + (m1, m2) + after + (hh,)
                out[key] = out.get(key, 0) + f * n
    return TensorElement(space, arity,
                         {k: Fraction(n, den) for k, n in out.items()})


def reference_coproduct(x: AlgebraElement) -> TensorElement:
    """The substitution route: each monomial's two-leg table decoded, and
    the decoded tables substituted with x's coefficients."""
    return decode_and_substitute(x.params, 2, [
        ((), k[:7], (), k[7], Fraction(n, x.den)) for k, n in x.nums.items()])


def reference_coproduct_leg(t: TensorElement, leg: int) -> TensorElement:
    """The substitution route: each leg monomial's two-leg table decoded
    and substituted into the leg."""
    return decode_and_substitute(t.params, t.arity + 1, [
        (k[:leg], k[leg], k[leg + 1:-1], k[-1], Fraction(n, t.den))
        for k, n in t.nums.items()])


def packed_sum_inputs(abc):
    """Elements whose coproduct the packed sum must get right, over the
    parameters abc at trunc 0-3."""
    for trunc in range(4):
        p = params(*abc, trunc)
        coeff = SeriesScalar({(0, 0, 0): Fraction(3, 2),
                              (0, 1, 0): Fraction(-5, 7)}, trunc)
        for m in multiindices_graded(7, 3):
            yield AlgebraElement(p, {m: coeff})
        # A term whose h-degree is the truncation keeps only its tables'
        # h-free terms.
        top = SeriesScalar.monomial((trunc, 0, 0), Fraction(2, 5), trunc)
        yield AlgebraElement(p, {mono(Q1=1, Q2=1, P2=1): top,
                                 mono(Th=1, P1=2): coeff})
        x = AlgebraElement.monomial(p, mono(Ph=1, Q2=2), coeff)
        yield x - x
        yield AlgebraElement.zero(p)
    # Tables of two widths at trunc 1: Q1's fields take 2 bits, Q1^3's 3.
    p = params(*abc, 1)
    yield AlgebraElement(p, {
        mono(Q1=1): SeriesScalar.one(1),
        mono(Q1=3): SeriesScalar.monomial((1, 0, 0), Fraction(3, 4), 1)})
    for trunc in (1, 2):
        p = params(*abc, trunc)
        for s in multiindices_graded(3, 2):
            for t in multiindices_graded(4, 1):
                yield from_z_basis({(s, t): 1}, p)


@pytest.mark.parametrize("abc", [(2, Fraction(1, 2), -3),
                                 (Fraction(-3, 2), 0, 5)],
                         ids=["2,1/2,-3", "-3/2,0,5"])
def test_packed_coproduct_matches_substitution(abc, monkeypatch):
    # coproduct() adds the packed tables of x's monomials and decodes the
    # sum once per layout; it never decodes a table on its own.
    calls = []
    tensor, decode = _Table.tensor, Layout.decode

    def spy_tensor(self):
        calls.append("tensor")
        return tensor(self)

    def spy_decode(self, keys, nums):
        calls.append(self.width)
        return decode(self, keys, nums)

    monkeypatch.setattr(_Table, "tensor", spy_tensor)
    monkeypatch.setattr(Layout, "decode", spy_decode)
    width_counts = set()
    for x in packed_sum_inputs(abc):
        want = reference_coproduct(x)
        widths = {_cop_table(x.trunc, k[:7], None).layout.width
                  for k in x.nums}
        width_counts.add(len(widths))
        calls.clear()
        got = coproduct(x)
        assert sorted(calls) == sorted(widths), x
        assert got == want, x
        assert got.params is x.params
        assert_stored_once(got)
    assert width_counts == {0, 1, 2}


def coproduct_leg_inputs(abc):
    """Two-leg tensors whose leg coproducts must match the substitution
    route: cop of every monomial of degree <= 3 over Truncation(trunc) at
    trunc 0-2 and of degree <= 2 at trunc 3 (the reference spends 21 s on
    the degree-3 monomials there), and tensors over the parameters abc
    whose other leg carries several monomials, with h terms and
    denominators in their coefficients, at trunc 0-3."""
    for trunc, degree in ((0, 3), (1, 3), (2, 3), (3, 2)):
        for m in multiindices_graded(7, degree):
            yield cop_table(trunc, m)
        p = params(*abc, trunc)
        coeff = SeriesScalar({(0, 0, 0): Fraction(3, 2),
                              (0, 1, 0): Fraction(-5, 7)}, trunc)
        top = SeriesScalar.monomial((trunc, 0, 0), Fraction(2, 5), trunc)
        x = AlgebraElement(p, {EMPTY_MONO: SeriesScalar.one(trunc),
                               mono(Q1=1): coeff, mono(Th=1, P2=1): top})
        y = AlgebraElement(p, {mono(Ph=1, Q2=2): coeff, mono(P1=1): top,
                               mono(Ps=1, Q1=1): coeff})
        yield tensor_of(x, y)
        yield tensor_of(y, x) - tensor_of(x, x)


def test_coproduct_leg_reads_tables_only_through_coproduct(monkeypatch):
    # apply_coproduct_leg hands each group of terms with equal other legs
    # to coproduct(), which sums the packed tables: no table is decoded on
    # its own, and nothing is substituted term by term.
    calls = []
    tensor, substitute = _Table.tensor, series.substitute

    def spy_tensor(self):
        calls.append("tensor")
        return tensor(self)

    def spy_substitute(*args):
        calls.append("substitute")
        return substitute(*args)

    monkeypatch.setattr(_Table, "tensor", spy_tensor)
    monkeypatch.setattr(series, "substitute", spy_substitute)
    monkeypatch.setattr(hopf, "substitute", spy_substitute)
    for t in coproduct_leg_inputs((2, Fraction(1, 2), -3)):
        want = [reference_coproduct_leg(t, leg) for leg in (0, 1)]
        calls.clear()
        got = [apply_coproduct_leg(t, leg) for leg in (0, 1)]
        assert calls == [], t
        assert got == want, t
        for out in got:
            assert out.params is t.params and out.arity == 3
            assert_stored_once(out)
