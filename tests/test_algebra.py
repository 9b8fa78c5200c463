import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdeform import (AlgebraElement, DeformParams, InvalidParamsError,
                      ParamsMismatchError, SeriesScalar, algebra,
                      classical_limit, commutator, from_z_basis,
                      make_exp_rho, make_generator, make_lambda, make_rho,
                      normal_order_mul, phi_automorphism, to_z_basis)
from ncdeform.algebra import Truncation, z_element

from ncdeform.multiindex import mi_factorial, multiindices

from conftest import (PARAM_SETS, h_exponents, params, random_element,
                      small_fractions)

TH, PH, PS, Q1, Q2, P1, P2 = range(7)


def gen(name, p):
    return make_generator(name, p)


def mono(p, exps, coeff=1):
    return AlgebraElement.monomial(p, tuple(exps), coeff)


# -- brute-force straightening oracle ----------------------------------------
# Rewrites one adjacent transposition at a time: ... B A ... =
# ... A B ... - c * (word with the pair removed), with c = [A, B] built
# directly from the defining relations (central products only).

def comm_table(p):
    lam = make_lambda(p)
    th, ph, ps = gen("Th", p), gen("Ph", p), gen("Ps", p)
    a, b, g = p.alpha, p.beta, p.gamma
    return {
        (Q1, P1): normal_order_mul(lam, th).scale(1 / a),
        (Q2, P2): normal_order_mul(lam, th).scale(1 / a),
        (Q1, Q2): normal_order_mul(lam, ph).scale(b / a ** 2),
        (P1, P2): normal_order_mul(lam, ps).scale(g / a ** 2),
        (Q1, P2): None,
        (Q2, P1): None,
    }


def brute_product(letters, p, table):
    for t in range(len(letters) - 1):
        b, a = letters[t], letters[t + 1]
        if b > a:
            swapped = letters[:t] + [a, b] + letters[t + 2:]
            out = brute_product(swapped, p, table)
            c = table[(a, b)]
            if c is not None:
                reduced = letters[:t] + letters[t + 2:]
                out = out - normal_order_mul(c, brute_product(reduced, p, table))
            return out
    exps = [0] * 7
    for g in letters:
        exps[g] += 1
    return mono(p, exps)


@pytest.mark.parametrize("alpha,beta,gamma", PARAM_SETS[:1] + PARAM_SETS[2:])
@pytest.mark.parametrize("pair", [(Q1, P1), (Q1, Q2), (P1, P2)])
def test_exchange_rule_against_single_transpositions(alpha, beta, gamma, pair):
    p = params(alpha, beta, gamma, 2)
    table = comm_table(p)
    a, b = pair
    for m in range(4):
        for n in range(4):
            engine = normal_order_mul(mono(p, [0] * b + [n] + [0] * (6 - b)),
                                      mono(p, [0] * a + [m] + [0] * (6 - a)))
            brute = brute_product([b] * n + [a] * m, p, table)
            assert engine == brute, (pair, m, n)


def letters(m):
    """The Q/P letters of an ordered monomial, in order."""
    return [g for g in (Q1, Q2, P1, P2) for _ in range(m[g])]


@pytest.mark.parametrize("alpha,beta,gamma", [(2, Fraction(1, 2), -3),
                                              (Fraction(3, 2), 0, 5)])
def test_wick_sum_against_single_transpositions(alpha, beta, gamma):
    # Every pair of monomials of degree <= 3, so a Q1 of the right factor
    # contracts with a Q2 and with a P1 of the left one, and a P2 of the
    # left factor with a Q2 and with a P1 of the right one.
    p = params(alpha, beta, gamma, 2)
    table = comm_table(p)
    monos = list(multiindices(7, 3))
    brute = {}
    for ma in monos:
        for mb in monos:
            word = tuple(letters(ma) + letters(mb))
            if word not in brute:
                brute[word] = brute_product(list(word), p, table)
            central = [x + y for x, y in zip(ma[:3], mb[:3])] + [0] * 4
            want = normal_order_mul(mono(p, central), brute[word])
            assert normal_order_mul(mono(p, ma), mono(p, mb)) == want, \
                (ma, mb)


def test_truncation_engine_refuses_exactly_the_unordered_pairs():
    shared = algebra.Truncation(2)
    monos = list(multiindices(7, 2))
    for ma in monos:
        for mb in monos:
            unordered = any(ma[i] and mb[j]
                            for i in (Q2, P1, P2) for j in range(Q1, i))
            if unordered:
                with pytest.raises(RuntimeError):
                    algebra.mono_mul(shared, ma, mb)
            else:
                plain = tuple(x + y for x, y in zip(ma, mb))
                assert algebra.mono_mul(shared, ma, mb) == (
                    1, ((plain, (0, 0, 0), 1),))


def test_products_merge_the_sums_of_each_denominator():
    # The cells of this product have dens 1, 6 and 24: the ordered pairs,
    # P1 Q1 = Q1 P1 - (lam/alpha) Th and Q2 Q1 = Q1 Q2 - (beta lam/alpha^2)
    # Ph, where lam = 1 + (2/3) rho^2.  Each den is summed on its own and
    # the sums are merged over their lcm, where Q1 P1 cancels between the
    # cells over 1 and 6.  At trunc 2 the h budget drops h1 * h2^2 and,
    # past h1 and h2^2, the h^2 terms of lam.
    p = params(2, Fraction(1, 2), -3, 2)
    table = comm_table(p)
    h1 = SeriesScalar.hbar(1, 2)
    h2sq = SeriesScalar.monomial((0, 2, 0), 1, 2)
    xs = [(1, [P1]), (-1, [Q1]), (1, [Q2]), (h1, [Q2])]
    ys = [(1, [P1]), (1, [Q1]), (h2sq, [Q1])]

    def element(terms):
        out = AlgebraElement.zero(p)
        for c, word in terms:
            out = out + brute_product(word, p, table).scale(c)
        return out

    want = AlgebraElement.zero(p)
    for cx, wx in xs:
        for cy, wy in ys:
            want = want + brute_product(wx + wy, p, table).scale(cx).scale(cy)
    got = normal_order_mul(element(xs), element(ys))
    assert got == want
    p1, q2, q1 = (0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 1, 0, 0), \
        (0, 0, 0, 1, 0, 0, 0)
    assert algebra.mono_mul(p, p1, q1)[0] == 6
    assert algebra.mono_mul(p, q2, q1)[0] == 24
    assert (0, 0, 0, 1, 0, 1, 0, (0, 0, 0)) not in got.nums


# -- generators, rho, lambda, exp --------------------------------------------

def test_generator_examples(p111_d2):
    assert gen("Th", p111_d2).terms.keys() == {(1, 0, 0, 0, 0, 0, 0)}
    assert gen("Q1", p111_d2).terms.keys() == {(0, 0, 0, 1, 0, 0, 0)}
    assert gen("P2", p111_d2).terms.keys() == {(0, 0, 0, 0, 0, 0, 1)}
    with pytest.raises(ValueError):
        gen("X9", p111_d2)


def test_rho(p111_d2):
    rho = make_rho(p111_d2)
    assert rho.coefficient((1, 0, 0, 0, 0, 0, 0)) == SeriesScalar.hbar(1, 2)
    assert rho.coefficient((0, 1, 0, 0, 0, 0, 0)) == SeriesScalar.hbar(2, 2)
    assert rho.coefficient((0, 0, 1, 0, 0, 0, 0)) == SeriesScalar.hbar(3, 2)
    assert not make_rho(params(1, 1, 1, 0)).terms
    limited = rho.limit({2, 3})
    assert limited == mono(p111_d2, [1, 0, 0, 0, 0, 0, 0],
                           SeriesScalar.hbar(1, 2))


def test_lambda_low_orders():
    for trunc in (0, 1):
        assert make_lambda(params(1, 1, 1, trunc)) == \
            AlgebraElement.unit(params(1, 1, 1, trunc))


def test_lambda_frozen_d2(p111_d2):
    # 1 + (2/3) rho^2 with the full multinomial cross terms.
    lam = make_lambda(p111_d2)
    expected = AlgebraElement.unit(p111_d2)
    third2 = Fraction(2, 3)
    third4 = Fraction(4, 3)
    for exps, h, c in [
        ((2, 0, 0), (2, 0, 0), third2), ((0, 2, 0), (0, 2, 0), third2),
        ((0, 0, 2), (0, 0, 2), third2), ((1, 1, 0), (1, 1, 0), third4),
        ((1, 0, 1), (1, 0, 1), third4), ((0, 1, 1), (0, 1, 1), third4),
    ]:
        expected = expected + mono(p111_d2, exps + (0, 0, 0, 0),
                                   SeriesScalar.monomial(h, c, 2))
    assert lam == expected


def test_lambda_heisenberg_direction():
    # With h2 = h3 = 0: lam * Th = sum 4^n/(2n+1)! h1^(2n) Th^(2n+1).
    p = params(1, 0, 0, 4)
    lam_th = normal_order_mul(make_lambda(p), gen("Th", p)).limit({2, 3})
    expected = AlgebraElement.zero(p)
    for n in range(3):
        expected = expected + mono(
            p, (2 * n + 1, 0, 0, 0, 0, 0, 0),
            SeriesScalar.monomial((2 * n, 0, 0),
                                  Fraction(4 ** n, factorial(2 * n + 1)), 4))
    assert lam_th == expected


def test_exp_rho(p111_d2):
    one = AlgebraElement.unit(p111_d2)
    assert make_exp_rho(0, p111_d2) == one
    rho = make_rho(p111_d2)
    expected = one + rho + normal_order_mul(rho, rho).scale(Fraction(1, 2))
    assert make_exp_rho(1, p111_d2) == expected
    p3 = params(1, 1, 1, 3)
    assert normal_order_mul(make_exp_rho(1, p3), make_exp_rho(-1, p3)) == \
        AlgebraElement.unit(p3)


# -- normal ordering ----------------------------------------------------------

def test_defining_relations_at_first_order():
    p = params(2, 1, 1, 1)
    assert commutator(gen("Q1", p), gen("P1", p)) == \
        gen("Th", p).scale(Fraction(1, 2))
    p = params(1, 1, 1, 1)
    assert commutator(gen("Q1", p), gen("Q2", p)) == gen("Ph", p)
    assert commutator(gen("P1", p), gen("Q2", p)) == AlgebraElement.zero(p)


def test_reordering_frozen_example():
    # P1^2 * Q1^2 at truncation 0 straightens with binomial weights.
    p = params(1, 1, 1, 0)
    got = normal_order_mul(gen("P1", p) ** 2, gen("Q1", p) ** 2)
    expected = (mono(p, (0, 0, 0, 2, 0, 2, 0))
                - mono(p, (1, 0, 0, 1, 0, 1, 0), 4)
                + mono(p, (2, 0, 0, 0, 0, 0, 0), 2))
    assert got == expected


def test_central_generators_commute(p111_d2):
    everything = [gen(name, p111_d2)
                  for name in ("Th", "Ph", "Ps", "Q1", "Q2", "P1", "P2")]
    for central in ("Th", "Ph", "Ps"):
        for x in everything:
            assert commutator(gen(central, p111_d2), x) == \
                AlgebraElement.zero(p111_d2)


def test_derived_series_are_central(p111_d2):
    zero = AlgebraElement.zero(p111_d2)
    for central in (make_rho(p111_d2), make_lambda(p111_d2),
                    make_exp_rho(1, p111_d2)):
        for name in ("Q1", "Q2", "P1", "P2"):
            assert commutator(central, gen(name, p111_d2)) == zero


def test_commutator_self_is_zero(p111_d2):
    x = gen("Q1", p111_d2) + gen("P2", p111_d2).scale(Fraction(2, 3))
    assert commutator(x, x) == AlgebraElement.zero(p111_d2)


@pytest.mark.parametrize("alpha,beta,gamma", PARAM_SETS)
def test_associativity_on_generators(alpha, beta, gamma):
    p = params(alpha, beta, gamma, 2)
    gens = [make_generator(i, p) for i in range(7)]
    for x in gens:
        for y in gens:
            for z in gens:
                assert normal_order_mul(normal_order_mul(x, y), z) == \
                    normal_order_mul(x, normal_order_mul(y, z))


def test_associativity_on_random_elements():
    rng = random.Random(991)
    p = params(2, Fraction(1, 2), -3, 3)
    for _ in range(8):
        x, y, z = (random_element(rng, p, max_gen_degree=3) for _ in range(3))
        assert normal_order_mul(normal_order_mul(x, y), z) == \
            normal_order_mul(x, normal_order_mul(y, z))


def test_renormal_ordering_is_identity(p111_d2):
    one = AlgebraElement.unit(p111_d2)
    basis = mono(p111_d2, (1, 0, 2, 1, 1, 2, 1))
    assert normal_order_mul(basis, one) == basis
    assert normal_order_mul(one, basis) == basis


def test_pbw_soundness(p111_d2):
    # Products of basis monomials stay inside the basis: every key a natural
    # 7-tuple, never a malformed word.
    x = mono(p111_d2, (0, 0, 0, 1, 0, 2, 1))
    y = mono(p111_d2, (0, 1, 0, 2, 1, 0, 0))
    prod = normal_order_mul(x, y)
    for key in prod.terms:
        assert len(key) == 7 and all(e >= 0 for e in key)


def test_lambda_inverse(p111_d2):
    for trunc in range(5):
        p = params(1, 1, 1, trunc)
        lam = make_lambda(p)
        lam_inv = algebra._lam_pow(-1, trunc).over(p)
        assert normal_order_mul(lam, lam_inv) == AlgebraElement.unit(p)


def test_params_mismatch():
    with pytest.raises(ParamsMismatchError):
        normal_order_mul(gen("Q1", params(1, 1, 1, 2)),
                         gen("P1", params(1, 1, 1, 3)))


def test_invalid_params():
    with pytest.raises(InvalidParamsError):
        DeformParams(Fraction(0), Fraction(1), Fraction(1), 2)
    with pytest.raises(InvalidParamsError):
        DeformParams(Fraction(1), Fraction(1), Fraction(1), -1)


def test_scalars_multiply_an_element_from_either_side():
    p = params(1, 2, 3, 2)
    q1 = gen("Q1", p)
    for c in (3, Fraction(-1, 2), SeriesScalar.hbar(1, 2)):
        assert c * q1 == q1 * c == q1.scale(c)


@pytest.mark.parametrize("other", [1.5, "x", None])
def test_a_non_scalar_factor_is_a_type_error(other):
    # 1.5 * Q1 reached normal_order_mul(1.5, Q1) and raised AttributeError.
    q1 = gen("Q1", params(1, 1, 1, 1))
    with pytest.raises(TypeError):
        other * q1
    with pytest.raises(TypeError):
        q1 * other


# -- z-basis ------------------------------------------------------------------

def test_z_basis_examples():
    p = params(1, 1, 1, 1)
    z = to_z_basis(gen("Th", p))
    assert z == {((1, 0, 0), (0, 0, 0, 0)): SeriesScalar.one(1)}
    q1q2 = normal_order_mul(gen("Q1", p), gen("Q2", p))
    assert to_z_basis(q1q2) == {
        ((0, 0, 0), (1, 1, 0, 0)): SeriesScalar.one(1)}


def test_z_basis_theta_d2_pattern(p111_d2):
    z = to_z_basis(gen("Th", p111_d2))
    assert z[((1, 0, 0), (0, 0, 0, 0))] == SeriesScalar.one(2)
    degrees = {sum(ci) for (ci, qp) in z}
    assert degrees == {1, 3}
    for (ci, qp), s in z.items():
        if sum(ci) == 3:
            assert all(sum(h) == 2 for h in s.terms)


def test_z_basis_roundtrip():
    rng = random.Random(4099)
    for trunc in (1, 2, 3):
        p = params(2, Fraction(1, 2), -3, trunc)
        for _ in range(6):
            x = random_element(rng, p, max_gen_degree=3)
            assert from_z_basis(to_z_basis(x), p) == x
        zmap = {((rng.randrange(2), rng.randrange(2), rng.randrange(2)),
                 (rng.randrange(2), 0, rng.randrange(2), 0)):
                SeriesScalar.from_rational(Fraction(rng.randint(-5, 5), 3), trunc)
                for _ in range(3)}
        zmap = {k: v for k, v in zmap.items() if v}
        assert to_z_basis(from_z_basis(zmap, p)) == zmap


def reference_z_element(x):
    """z_element by successive approximation: reading off Z-coefficients
    as if lam were 1 is exact up to terms of two more h-degrees, so
    repeating on the remainder through from_z_basis ends within
    trunc // 2 + 1 rounds."""
    z, rem = AlgebraElement.zero(x.params), x
    for _ in range(x.trunc // 2 + 1):
        inc = rem.over_denominator(
            {k: n * mi_factorial(k[:3]) * mi_factorial(k[3:7])
             for k, n in rem.nums.items()}, rem.den)
        z = z + inc
        rem = rem - from_z_basis(
            {(m[:3], m[3:]): s for m, s in inc.terms.items()}, x.params)
    assert not rem
    return z


@st.composite
def z_operands(draw):
    """An element at trunc 0-6 over a DeformParams or a Truncation, with
    central letters and h factors on its terms."""
    trunc = draw(st.integers(0, 6))
    space = draw(st.one_of(
        st.just(Truncation(trunc)),
        st.sampled_from(PARAM_SETS).map(lambda abc: params(*abc, trunc))))
    monos = st.tuples(*[st.integers(0, 3)] * 3, *[st.integers(0, 2)] * 4)
    terms = draw(st.dictionaries(
        monos, st.dictionaries(h_exponents(trunc), small_fractions(),
                               min_size=1, max_size=3), max_size=4))
    return AlgebraElement(space, {m: SeriesScalar(c, trunc)
                                  for m, c in terms.items()})


@settings(max_examples=150, deadline=None)
@given(z_operands())
def test_z_element_matches_successive_approximation(x):
    # The closed form, one multiplication by (asinh(2u)/(2u))^|I|, against
    # the iteration on from_z_basis it replaced.
    z = z_element(x)
    assert z == reference_z_element(x)
    assert z.params == x.params


@pytest.mark.parametrize("key", [
    ((1, 0), (0, 0, 0, 0)),
    ((0, 0, 0), (0, 0, 0, 0, 1)),
    ((0, -1, 0), (0, 0, 0, 0)),
    ((0, 0, 0), (0, 0, 0, -2)),
    ((0, 0, 0), (0, 0, 0, 0), ()),
    ((1, 0, 0),),
    ((Fraction(1), 0, 0), (0, 0, 0, 0)),
    (1, (0, 0, 0, 0)),
    "Th",
], ids=["short-I", "long-J", "negative-I", "negative-J", "three-parts",
        "one-part", "fraction-index", "int-part", "string"])
def test_from_z_basis_rejects_malformed_keys(key):
    # These raised TypeError from inside, or "factorial() not defined for
    # negative values"; a well-formed key before the bad one is not read.
    zmap = {((0, 0, 0), (1, 0, 0, 0)): 1, key: 1}
    with pytest.raises(ValueError, match="Z-basis key") as info:
        from_z_basis(zmap, params(1, 1, 1, 1))
    assert repr(key) in str(info.value)


# -- flatness automorphism ----------------------------------------------------

def test_phi_first_order():
    p = params(1, 1, 1, 1)
    assert phi_automorphism(gen("Q1", p)) == gen("Q1", p)


@pytest.mark.parametrize("alpha,beta,gamma", PARAM_SETS)
def test_phi_undeformed_relations(alpha, beta, gamma):
    p = params(alpha, beta, gamma, 3)
    phi = {name: phi_automorphism(gen(name, p))
           for name in ("Th", "Ph", "Ps", "Q1", "Q2", "P1", "P2")}
    assert commutator(phi["Q1"], phi["P1"]) == phi["Th"].scale(1 / p.alpha)
    assert commutator(phi["Q2"], phi["P2"]) == phi["Th"].scale(1 / p.alpha)
    assert commutator(phi["Q1"], phi["Q2"]) == \
        phi["Ph"].scale(p.beta / p.alpha ** 2)
    assert commutator(phi["P1"], phi["P2"]) == \
        phi["Ps"].scale(p.gamma / p.alpha ** 2)
    assert commutator(phi["Q1"], phi["P2"]) == AlgebraElement.zero(p)


def classical_table(p):
    # Undeformed commutators (lambda replaced by 1): the domain-side
    # structure of the flatness isomorphism.
    th, ph, ps = gen("Th", p), gen("Ph", p), gen("Ps", p)
    a, b, g = p.alpha, p.beta, p.gamma
    return {
        (Q1, P1): th.scale(1 / a), (Q2, P2): th.scale(1 / a),
        (Q1, Q2): ph.scale(b / a ** 2), (P1, P2): ps.scale(g / a ** 2),
        (Q1, P2): None, (Q2, P1): None,
    }


def test_phi_intertwines_products():
    # phi is the isomorphism from the undeformed algebra onto the deformed
    # one: phi(x *_classical y) = phi(x) * phi(y).
    p = params(2, Fraction(1, 2), -3, 3)
    table = classical_table(p)
    word_pairs = [([P1], [Q1]), ([Q2], [P2]), ([P1, P2], [Q1]),
                  ([P1, P1], [Q1, Q1]), ([Q2, P1], [Q1, P2])]
    for wx, wy in word_pairs:
        x = brute_product(list(wx), p, table)
        y = brute_product(list(wy), p, table)
        classical_xy = brute_product(list(wx) + list(wy), p, table)
        assert phi_automorphism(classical_xy) == \
            normal_order_mul(phi_automorphism(x), phi_automorphism(y))


# -- classical limit ----------------------------------------------------------

def test_classical_limit_examples(p111_d2):
    p = p111_d2
    assert classical_limit(commutator(gen("Q1", p), gen("P1", p))) == \
        gen("Th", p)
    assert classical_limit(make_lambda(p)) == AlgebraElement.unit(p)
    assert classical_limit(gen("Q1", p)) == gen("Q1", p)


def test_associativity_on_generators_at_trunc3():
    p = params(1, 1, 1, 3)
    gens = [make_generator(i, p) for i in range(7)]
    for x in gens:
        for y in gens:
            for z in gens:
                assert normal_order_mul(normal_order_mul(x, y), z) == \
                    normal_order_mul(x, normal_order_mul(y, z))
