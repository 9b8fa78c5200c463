"""The tables that contain no alpha, beta or gamma (central series,
coproducts, Z-basis tables) are built once per truncation and shared by
every parameter set; each result still lives over the caller's parameters.
The references here build everything from scratch at the caller's own
parameters, the way the engine did before the tables were shared."""

import inspect
from fractions import Fraction
from math import factorial

import pytest

from ncdeform import (AlgebraElement, DualElement, InvalidParamsError,
                      SeriesScalar, TensorElement, cocommutator_dir,
                      cocommutator_map, combine_cocommutators, coproduct,
                      delta_on_zbasis, from_z_basis, group_inverse,
                      make_exp_rho, make_generator, make_lambda, make_rho,
                      normal_order_mul, star_oracle, star_oracle_element,
                      star_oracle_grid, tensor_mul, tensor_of, to_z_basis,
                      verify_bialgebra_suite, verify_star_suite)
from ncdeform import algebra, dual, hopf
from ncdeform.algebra import CENTRAL_GENERATORS, EMPTY_MONO, Truncation
from ncdeform.cli import main
from ncdeform.multiindex import mi_norm, multiindices

from conftest import params

#: Every memo built once per truncation.  hopf._block and
#: hopf._block_product also hold the blocks of tensor_mul's operands and of
#: its reordered leg products, which depend on the parameters; the work
#: whose misses the tests below count multiplies no two tensors.
SHARED_BUILDERS = (algebra._rho, algebra._lam_pow, algebra._exp_rho,
                   hopf._letters, hopf._gen, hopf._chain, hopf._cop_table,
                   hopf._block, hopf._block_product, dual._mono_z,
                   dual._delta_z)
#: The normal-ordering memos, keyed by the parameters or the truncation.
ENGINE_MEMOS = (algebra._weights, algebra.mono_mul)


def misses(memos):
    return {f.__qualname__: f.cache_info().misses for f in memos}


# -- references at the caller's own parameters ------------------------------

def reference_rho(p):
    return AlgebraElement(p, {
        (1, 0, 0, 0, 0, 0, 0): SeriesScalar.hbar(1, p.trunc),
        (0, 1, 0, 0, 0, 0, 0): SeriesScalar.hbar(2, p.trunc),
        (0, 0, 1, 0, 0, 0, 0): SeriesScalar.hbar(3, p.trunc)})


def central_series(p, coeffs):
    """sum_n coeffs(n) rho^n by normal-ordered products over p."""
    rho = reference_rho(p)
    out = AlgebraElement.zero(p)
    power = AlgebraElement.unit(p)
    for n in range(p.trunc + 1):
        out = out + power.scale(coeffs(n))
        power = normal_order_mul(power, rho)
    return out


def reference_lambda(p):
    return central_series(p, lambda n: Fraction(2 ** n, factorial(n + 1))
                          if n % 2 == 0 else 0)


def reference_exp_rho(c, p):
    return central_series(p, lambda n: Fraction(c) ** n / factorial(n))


def reference_tensor_inverse(t):
    p = t.params
    one = TensorElement.unit(p)
    g = one - t
    acc = one
    for _ in range(p.trunc):
        acc = one + tensor_mul(g, acc)
    return acc


def reference_cop_gen(p, idx):
    gen = make_generator(idx, p)
    if idx not in CENTRAL_GENERATORS:
        return (tensor_of(gen, reference_exp_rho(1, p))
                + tensor_of(reference_exp_rho(-1, p), gen))
    one = AlgebraElement.unit(p)
    rho = reference_rho(p)
    cop_rho = tensor_of(rho, one) + tensor_of(one, rho)
    cop_lam = TensorElement.unit(p)
    power = TensorElement.unit(p)
    for n in range(1, p.trunc + 1):
        power = tensor_mul(power, cop_rho)
        if n % 2 == 0:
            cop_lam = cop_lam + power.scale(Fraction(2 ** n, factorial(n + 1)))
    lam_gen = normal_order_mul(reference_lambda(p), gen)
    num = (tensor_of(lam_gen, reference_exp_rho(2, p))
           + tensor_of(reference_exp_rho(-2, p), lam_gen))
    return tensor_mul(num, reference_tensor_inverse(cop_lam))


def reference_coproduct(x):
    """cop(x) from the generator coproducts at x's parameters, multiplied
    in PBW order."""
    p = x.params
    gens = [reference_cop_gen(p, i) for i in range(7)]
    out = TensorElement.zero(p)
    for mono, s in x.terms.items():
        t = TensorElement.unit(p)
        for idx, e in enumerate(mono):
            for _ in range(e):
                t = tensor_mul(t, gens[idx])
        out = out + t.scale(s)
    return out


def reference_star_oracle(a, b, p):
    """<a * b, Z^S X^T> over the sufficient cap, from reference coproducts
    and Z-basis expansions at p."""
    cap = mi_norm(a[0]) + mi_norm(a[1]) + mi_norm(b[0]) + mi_norm(b[1]) \
        + p.trunc
    out = {}
    for S in multiindices(3, cap):
        for T in multiindices(4, cap - sum(S)):
            ten = reference_coproduct(
                from_z_basis({(S, T): SeriesScalar.one(p.trunc)}, p))
            acc = SeriesScalar.zero(p.trunc)
            for (m1, m2, h), c in ten.terms.items():
                z1 = to_z_basis(AlgebraElement.monomial(p, m1)).get(a)
                z2 = to_z_basis(AlgebraElement.monomial(p, m2)).get(b)
                if z1 is not None and z2 is not None:
                    acc = acc + z1 * z2 * SeriesScalar.monomial(h, c, p.trunc)
            if acc.terms:
                out[(S, T)] = acc
    return DualElement(p.trunc, out)


# -- tests ------------------------------------------------------------------

def test_parameter_free_functions_take_no_parameters():
    # alpha, beta and gamma enter only through the commutators; none of
    # these reads them, so none takes a DeformParams.
    for fn in (delta_on_zbasis, star_oracle, star_oracle_grid,
               star_oracle_element, group_inverse,
               cocommutator_dir, cocommutator_map, combine_cocommutators):
        assert "DeformParams" not in str(inspect.signature(fn)), fn.__name__
    assert list(inspect.signature(group_inverse).parameters) == ["g"]
    assert list(inspect.signature(star_oracle_element).parameters) == [
        "u", "v"]
    assert list(inspect.signature(verify_star_suite).parameters) == [
        "norm_bound"]
    assert list(inspect.signature(verify_bialgebra_suite).parameters) == [
        "params"]


def test_truncation_rejects_a_negative_order():
    assert Truncation(0).trunc == 0
    with pytest.raises(InvalidParamsError, match="truncation"):
        Truncation(-1)
    with pytest.raises(InvalidParamsError, match="truncation"):
        params(1, 1, 1, -1)


def test_shared_engine_refuses_to_reorder():
    shared = Truncation(2)
    q1, p1 = make_generator("Q1", shared), make_generator("P1", shared)
    assert normal_order_mul(q1, p1) == \
        AlgebraElement.monomial(shared, (0, 0, 0, 1, 0, 1, 0))
    with pytest.raises(RuntimeError, match="commutator"):
        normal_order_mul(p1, q1)


@pytest.mark.parametrize("abc", [(1, 1, 1), (Fraction(7, 3),
                                             Fraction(-2, 9), Fraction(4, 5))])
@pytest.mark.parametrize("trunc", [0, 1, 2, 3])
def test_central_series_over_the_callers_parameters(abc, trunc):
    p = params(*abc, trunc)
    assert make_lambda(p) == reference_lambda(p)
    for c in (1, -1, 2, Fraction(-1, 2)):
        assert make_exp_rho(c, p) == reference_exp_rho(c, p)
    assert make_rho(p) == reference_rho(p)


@pytest.mark.parametrize("abc", [(2, Fraction(1, 2), -3),
                                 (Fraction(-3, 2), 0, 5)])
def test_coproduct_over_the_callers_parameters(abc):
    p = params(*abc, 2)
    for mono in [(1, 0, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0, 0),
                 (0, 0, 0, 1, 0, 1, 0), (1, 0, 0, 0, 1, 0, 1),
                 (0, 0, 1, 1, 1, 0, 1), EMPTY_MONO]:
        x = AlgebraElement.monomial(
            p, mono, SeriesScalar.monomial((0, 1, 0), Fraction(-3, 4), 2)
            + SeriesScalar.one(2))
        got = coproduct(x)
        assert got.params is p
        assert got == reference_coproduct(x), mono


def test_star_oracle_over_the_callers_parameters():
    # star_oracle_element takes no parameters; a reference built from
    # scratch at any parameter set equals it.
    p = params(Fraction(5, 7), Fraction(-1, 3), 2, 1)
    u = DualElement.monomial((1, 0, 0), (0, 0, 0, 0), 1)
    v = DualElement.monomial((0, 0, 0), (1, 0, 0, 0), 1, 2)
    want = reference_star_oracle(((1, 0, 0), (0, 0, 0, 0)),
                                 ((0, 0, 0), (1, 0, 0, 0)), p).scale(2)
    assert star_oracle_element(u, v) == want


def test_fresh_parameters_build_no_shared_table():
    mono = (1, 0, 0, 1, 0, 1, 1)
    u = DualElement.monomial((0, 1, 0), (0, 0, 0, 0), 1)
    v = DualElement.monomial((0, 0, 0), (0, 0, 1, 0), 1)

    def work(p):
        coproduct(AlgebraElement.monomial(p, mono))
        star_oracle_element(u, v)

    work(params(2, Fraction(1, 2), -3, 1))
    before = misses(SHARED_BUILDERS + ENGINE_MEMOS)
    work(params(Fraction(11, 13), Fraction(-5, 2), Fraction(3, 7), 1))
    assert misses(SHARED_BUILDERS + ENGINE_MEMOS) == before


@pytest.mark.parametrize("argv", [
    ["coproduct", "Q2*P1*Ps", "--trunc", "2"],
    ["staroracle", "x2", "x6", "--trunc", "1"],
])
def test_fresh_parameters_build_no_shared_table_through_the_cli(capsys, argv):
    assert main(argv + ["--alpha=3/8", "--beta=-7", "--gamma=1/6"]) == 0
    first = capsys.readouterr().out
    before = misses(SHARED_BUILDERS)
    assert main(argv + ["--alpha=-9/4", "--beta=5/3", "--gamma=0"]) == 0
    assert misses(SHARED_BUILDERS) == before
    # The output depends only on the operand and the truncation.
    assert capsys.readouterr().out == first
