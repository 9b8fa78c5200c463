import random
from fractions import Fraction

import pytest

from ncdeform import (AlgebraElement, DualElement, ExpressionError,
                      SeriesScalar, chi, commutator, evaluate, make_exp_rho,
                      make_generator, make_lambda, make_rho, normal_order_mul,
                      parse_expression)
from ncdeform import parser
from ncdeform.parser import evaluate_dual, evaluate_primal
from ncdeform.render import dual_to_text, element_to_text

from conftest import params, random_element


def test_commutator_expression(p111_d2):
    got = evaluate("Q1*P1 - P1*Q1", p111_d2)
    want = commutator(make_generator("Q1", p111_d2),
                      make_generator("P1", p111_d2))
    assert got == want


def test_scaled_monomial(p111_d2):
    got = evaluate("(1/2)*h1^2*Th^3", p111_d2)
    want = AlgebraElement.monomial(
        p111_d2, (3, 0, 0, 0, 0, 0, 0),
        SeriesScalar.monomial((2, 0, 0), Fraction(1, 2), 2))
    assert got == want


def test_order_is_preserved(p111_d2):
    # P1*Q1 must evaluate to the reordered product, not Q1*P1.
    got = evaluate("P1*Q1", p111_d2)
    want = normal_order_mul(make_generator("P1", p111_d2),
                            make_generator("Q1", p111_d2))
    assert got == want
    assert got != normal_order_mul(make_generator("Q1", p111_d2),
                                   make_generator("P1", p111_d2))


def test_builtins(p111_d2):
    assert evaluate("rho", p111_d2) == make_rho(p111_d2)
    assert evaluate("lambda", p111_d2) == make_lambda(p111_d2)
    assert evaluate("exp(2*rho)", p111_d2) == make_exp_rho(2, p111_d2)
    assert evaluate("exp(-rho)", p111_d2) == make_exp_rho(-1, p111_d2)
    assert evaluate("exp(1/2*rho)", p111_d2) == \
        make_exp_rho(Fraction(1, 2), p111_d2)


def test_dual_expression(p111_d2):
    got = evaluate("W[1,0,0]*Y[1,0,0,0]", p111_d2)
    assert got == DualElement.monomial((1, 0, 0), (1, 0, 0, 0), 2)
    assert evaluate("x1", p111_d2) == chi(1, 2)
    assert evaluate("x7", p111_d2) == chi(7, 2)
    assert evaluate("2*x4 - x4", p111_d2) == chi(4, 2)


@pytest.mark.parametrize("kind,text", [
    ("_DUAL", "3*W[0,1,0]*Y[1,0,0,0]"),
    ("_PRIMAL", "3*Q1*P1"),
])
def test_products_start_from_the_first_factor(monkeypatch, p111_d2, kind,
                                              text):
    # A product starts from its first factor, so no step multiplies by the
    # unit; only an empty product, x^0, is the unit.
    unit_operands = []
    unit, zero, leaf, mul, wrong = getattr(parser, kind)
    one = unit(p111_d2.trunc if kind == "_DUAL" else p111_d2)

    def counted(x, y):
        unit_operands.extend(z for z in (x, y) if z == one)
        return mul(x, y)

    monkeypatch.setattr(parser, kind, (unit, zero, leaf, counted, wrong))
    got = evaluate(text, p111_d2)
    assert unit_operands == []
    if kind == "_DUAL":
        assert got == DualElement.monomial((0, 1, 0), (1, 0, 0, 0), 2, 3)
    else:
        assert got == normal_order_mul(
            make_generator("Q1", p111_d2),
            make_generator("P1", p111_d2)).scale(3)


def test_empty_power_is_the_unit(p111_d2):
    assert evaluate("Q1^0", p111_d2) == AlgebraElement.unit(p111_d2)
    assert evaluate("W[1,0,0]^0", p111_d2) == DualElement.unit(2)
    assert evaluate("2*x1^0", p111_d2) == DualElement.unit(2).scale(2)


def test_mixed_tokens_error(p111_d2):
    with pytest.raises(ExpressionError, match="mixed"):
        parse_expression("Q1*W[1,0,0]")


def test_syntax_errors_carry_position():
    with pytest.raises(ExpressionError) as err:
        parse_expression("Q1*")
    assert err.value.position is not None
    with pytest.raises(ExpressionError):
        parse_expression("Q1 + + P1")
    with pytest.raises(ExpressionError):
        parse_expression("W[1,0]")
    with pytest.raises(ExpressionError):
        parse_expression("Th^(1/2)")
    with pytest.raises(ExpressionError):
        parse_expression("bogus")


@pytest.mark.parametrize("base", ["Q1", "x4", "h2", "3", "(P1+Th)"])
def test_exponent_bound(base):
    from ncdeform.parser import MAX_EXPONENT
    parse_expression(f"{base}^{MAX_EXPONENT}")
    with pytest.raises(ExpressionError, match="exponent") as err:
        parse_expression(f"{base}^{MAX_EXPONENT + 1}")
    assert err.value.position == len(base) + 1


@pytest.mark.parametrize("text,want", [
    ("3*h1^5", 0), ("Q1", 1), ("Q1*P1 + Th", 2), ("(Q1 + Th*P1)^3", 6),
    ("exp(2*rho)*lambda", 2), ("W[3,0,0]*x4^2 - x1", 5),
])
def test_degree_examples(text, want):
    from ncdeform.parser import degree
    assert degree(parse_expression(text)) == want


@pytest.mark.parametrize("text,position", [
    ("((Q1+P1+Q2+P2)^32)^32", 19),
    ("(Q1*Q1)^17", 8),
    ("Q1^16*Q1^16*Q1", 11),
    ("x1*(x2+x3^31)*x4", 13),
    ("Y[600,0,0,0]", 0),
    ("x1*W[0,32,0]", 2),
])
def test_generator_degree_bound(text, position):
    with pytest.raises(ExpressionError, match="degree") as err:
        parse_expression(text)
    assert err.value.position == position


@pytest.mark.parametrize("text", [
    "Q1^32", "W[1,0,0]^32", "h1^32*Q1^32", "(Q1+P1+Q2+P2)^8*Th^24",
    "(x1+x2)^16*(x3+x4)^16", "Y[16,0,16,0]", "W[0,31,0]*x7",
])
def test_generator_degree_at_bound_accepted(text):
    from ncdeform.parser import MAX_EXPONENT, degree
    assert degree(parse_expression(text)) == MAX_EXPONENT


def test_term_bound_admits_the_largest_binomial_power():
    from ncdeform.parser import MAX_TERMS
    x = evaluate("(Q1+P1)^32", params(1, 1, 1, 2))
    assert len(x.terms) == 1825 <= MAX_TERMS


@pytest.mark.parametrize("text", [
    "(Q1+P1+Q2+P2)^16", "(x1+x2+x3+x4+x5+x6+x7)^8",
    "(Q1+Q2+Th)^12*(P1+P2)^12",
    # Each term is under the bound, their sum is not.
    "(x1+x2+x3+x4+x5+x6+x7)^7+(x1+x2+x3+x4+x5+x6+x7)^6",
])
def test_term_bound(text):
    with pytest.raises(ExpressionError, match="terms"):
        evaluate(text, params(1, 1, 1, 0))


@pytest.mark.parametrize("text", [
    "(Q1+P1+Q2+P2)^6*(Q1+P1+Q2+P2)^6", "((Q1+P1+Q2+P2)^6)^2",
    "(x1+x2+x3+x4+x5+x6+x7)^4*(x1+x2+x3+x4+x5+x6+x7)^4",
    "((x1+x2+x3+x4+x5+x6+x7)^4)^2",
])
def test_pair_bound(text):
    # 259 * 259 and 210 * 210 term pairs: each operand is within the term
    # bound, and the product step is refused before it starts.
    from ncdeform.parser import MAX_PAIRS
    with pytest.raises(ExpressionError, match=f"{MAX_PAIRS} term pairs"):
        evaluate(text, params(1, 1, 1, 0))


def test_leading_minus(p111_d2):
    got = evaluate("-Th + Q1", p111_d2)
    want = make_generator("Q1", p111_d2) - make_generator("Th", p111_d2)
    assert got == want


def test_serialize_examples(p111_d2):
    half_th = make_generator("Th", p111_d2).scale(Fraction(1, 2))
    assert element_to_text(half_th) == "(1/2)*Th"
    assert element_to_text(AlgebraElement.zero(p111_d2)) == "0"
    assert element_to_text(AlgebraElement.unit(p111_d2)) == "1"


def test_primal_roundtrip_random():
    rng = random.Random(20260808)
    p = params(1, 1, 1, 2)
    for _ in range(25):
        x = random_element(rng, p, max_gen_degree=3)
        text = element_to_text(x)
        assert evaluate_primal(parse_expression(text), p) == x, text


def test_dual_roundtrip_random():
    rng = random.Random(5)
    trunc = 2
    for _ in range(25):
        u = DualElement.zero(trunc)
        for _ in range(3):
            w = tuple(rng.randrange(2) for _ in range(3))
            y = tuple(rng.randrange(2) for _ in range(4))
            h = [0, 0, 0]
            h[rng.randrange(3)] += rng.randrange(2)
            coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            u = u + DualElement.monomial(
                w, y, trunc, SeriesScalar.monomial(tuple(h), coeff, trunc))
        text = dual_to_text(u)
        if text == "0":
            continue
        assert evaluate_dual(parse_expression(text), trunc) == u, text
