"""Expression front-end shared by the CLI.

Grammar (whitespace insensitive):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?          (nat <= MAX_EXPONENT)
    atom   := rational | token | '(' expr ')'

The generator degree of the whole expression (see degree()) is at most
MAX_EXPONENT as well, no element met while it is evaluated may have more
than MAX_TERMS terms, and no product met on the way may have more than
MAX_PAIRS term pairs.

Tokens: rationals "p" or "p/q"; deformation parameters h1 h2 h3; generators
Th Ph Ps Q1 Q2 P1 P2; built-ins rho, lambda, exp(c*rho); dual functionals
W[i,j,k], Y[a,b,c,d] and the aliases x1..x7.  Product order is preserved, so
entering P1*Q1 shows the reordered result.  Primal and dual tokens may not be
mixed in one expression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraElement, DeformParams, make_generator, \
    make_lambda, make_rho, make_exp_rho, normal_order_mul
from .dual import DualElement, classical_product
from .series import SeriesScalar


#: Largest exponent accepted after '^', and largest generator degree of a
#: whole expression (see degree()); powers and products are multiplied out,
#: so both bound the work before any starts.
MAX_EXPONENT = 32

#: Largest number of terms of any element met while an expression is
#: evaluated, checked after every sum, product and power step.  The degree
#: bound does not bound it: a power of a k-term sum has about
#: C(n + k - 1, k - 1) terms.  (Q1+P1)^32 at truncation 2 reaches 1,825.
MAX_TERMS = 2048

#: Largest number of term pairs of one product, checked before every product
#: and power step and every two-operand command: two operands within the term
#: bound may still take minutes.  At 8 * MAX_TERMS a power of a sum of at
#: most 8 terms meets the term bound first; (Q1+P1+Q2+P2)^10 at truncation 0
#: reaches 4,704 pairs in one step.
MAX_PAIRS = 8 * MAX_TERMS


class ExpressionError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


# -- AST --------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Sym:
    name: str           # h1..h3, generator names, rho, lambda


@dataclass(frozen=True)
class DualSym:
    kind: str           # "W" or "Y"
    index: tuple[int, ...]


@dataclass(frozen=True)
class ExpRho:
    coeff: Fraction


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Mul:
    factors: tuple


@dataclass(frozen=True)
class Add:
    terms: tuple        # of (sign, node) pairs, sign = +1 | -1


PRIMAL_SYMBOLS = {"h1", "h2", "h3", "Th", "Ph", "Ps", "Q1", "Q2",
                  "P1", "P2", "rho", "lambda"}
_CHI_ALIASES = {f"x{i}": i for i in range(1, 8)}

_TOKEN_RE = re.compile(r"""
    (?P<number>\d+(?:/\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*^()\[\],])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ExpressionError(f"unexpected character {m.group()!r}",
                                  m.start())
        out.append((kind, m.group(), m.start()))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression", len(self.text))
        self.pos += 1
        return tok

    def _expect(self, value: str):
        tok = self._next()
        if tok[1] != value:
            raise ExpressionError(f"expected {value!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ExpressionError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self):
        terms = []
        sign = 1
        tok = self._peek()
        if tok is not None and tok[1] == "-":
            self._next()
            sign = -1
        terms.append((sign, self.term()))
        while True:
            tok = self._peek()
            if tok is None or tok[1] not in "+-":
                break
            self._next()
            terms.append((1 if tok[1] == "+" else -1, self.term()))
        return Add(tuple(terms))

    def term(self):
        factors = [self.factor()]
        total = degree(factors[0])
        while True:
            tok = self._peek()
            if tok is None or tok[1] != "*":
                break
            self._next()
            factors.append(self.factor())
            total += degree(factors[-1])
            check_degree(total, tok[2])
        return Mul(tuple(factors))

    def factor(self):
        base = self.atom()
        tok = self._peek()
        if tok is not None and tok[1] == "^":
            self._next()
            num = self._next()
            if num[0] != "number" or "/" in num[1]:
                raise ExpressionError("exponent must be a natural number", num[2])
            exponent = int(num[1])
            if exponent > MAX_EXPONENT:
                raise ExpressionError(
                    f"exponent {exponent} exceeds the bound {MAX_EXPONENT}",
                    num[2])
            check_degree(degree(base) * exponent, num[2])
            return Pow(base, exponent)
        return base

    def atom(self):
        tok = self._next()
        kind, value, pos = tok
        if kind == "number":
            return Num(_rational(tok))
        if value == "(":
            node = self.expr()
            self._expect(")")
            return node
        if kind == "name":
            if value in ("W", "Y"):
                return self._dual(value, pos)
            if value in _CHI_ALIASES:
                i = _CHI_ALIASES[value]
                if i <= 3:
                    idx = tuple(1 if k == i - 1 else 0 for k in range(3))
                    return DualSym("W", idx)
                idx = tuple(1 if k == i - 4 else 0 for k in range(4))
                return DualSym("Y", idx)
            if value == "exp":
                return self._exp_rho()
            if value in PRIMAL_SYMBOLS:
                return Sym(value)
            raise ExpressionError(f"unknown token {value!r}", pos)
        raise ExpressionError(f"unexpected {value!r}", pos)

    def _dual(self, kind: str, pos: int):
        self._expect("[")
        entries = []
        while True:
            num = self._next()
            if num[0] != "number" or "/" in num[1]:
                raise ExpressionError("dual indices must be naturals", num[2])
            entries.append(int(num[1]))
            tok = self._next()
            if tok[1] == "]":
                break
            if tok[1] != ",":
                raise ExpressionError(f"expected ',' or ']', found {tok[1]!r}",
                                      tok[2])
        want = 3 if kind == "W" else 4
        if len(entries) != want:
            raise ExpressionError(f"{kind}[...] needs {want} indices", pos)
        node = DualSym(kind, tuple(entries))
        check_degree(degree(node), pos)
        return node

    def _exp_rho(self):
        self._expect("(")
        sign = 1
        tok = self._peek()
        if tok is not None and tok[1] == "-":
            self._next()
            sign = -1
        tok = self._next()
        if tok[0] == "number":
            coeff = _rational(tok)
            self._expect("*")
            tok = self._next()
        else:
            coeff = Fraction(1)
        if tok[1] != "rho":
            raise ExpressionError("exp(...) accepts c*rho only", tok[2])
        self._expect(")")
        return ExpRho(sign * coeff)


def _rational(tok) -> Fraction:
    try:
        return Fraction(tok[1])
    except ZeroDivisionError:
        raise ExpressionError(f"zero denominator in {tok[1]!r}",
                              tok[2]) from None


def degree(node) -> int:
    """Static generator degree of an AST: a dual atom W[K] or Y[L] counts
    its index norm |K| or |L|, every other token but a rational or h1..h3
    counts 1, a product adds, a sum takes the largest term and a power
    multiplies."""
    if isinstance(node, Num):
        return 0
    if isinstance(node, Sym):
        return 0 if node.name in ("h1", "h2", "h3") else 1
    if isinstance(node, DualSym):
        return sum(node.index)
    if isinstance(node, ExpRho):
        return 1
    if isinstance(node, Pow):
        return degree(node.base) * node.exponent
    if isinstance(node, Mul):
        return sum(degree(f) for f in node.factors)
    if isinstance(node, Add):
        return max(degree(t) for _, t in node.terms)
    raise TypeError(node)


def _size(x) -> int:
    """The number of terms of x: its distinct basis keys."""
    return len(x.rows())


def _bounded(x):
    if _size(x) > MAX_TERMS:
        raise ExpressionError(
            f"expression expands to more than {MAX_TERMS} terms")
    return x


def check_pairs(x, y) -> None:
    """Raise ExpressionError if x * y has more than MAX_PAIRS term pairs."""
    nx, ny = _size(x), _size(y)
    if nx * ny > MAX_PAIRS:
        raise ExpressionError(
            f"product of {nx} by {ny} terms exceeds "
            f"the bound of {MAX_PAIRS} term pairs")


def check_degree(total: int, position: int | None = None) -> None:
    """Raise ExpressionError if a generator degree exceeds MAX_EXPONENT."""
    if total > MAX_EXPONENT:
        raise ExpressionError(
            f"generator degree {total} exceeds the bound {MAX_EXPONENT}",
            position)


def parse_expression(text: str):
    """Parse into an AST; raises ExpressionError with a position on bad input."""
    node = _Parser(text).parse()
    kinds = classify(node)
    if "primal" in kinds and "dual" in kinds:
        raise ExpressionError("mixed primal and dual tokens in one expression")
    return node


def classify(node) -> set[str]:
    """The kinds of token in an AST: a subset of {"primal", "dual"}; the
    scalars h1..h3 and rationals belong to neither."""
    if isinstance(node, Num):
        return set()
    if isinstance(node, Sym):
        return {"primal"} if node.name not in ("h1", "h2", "h3") else set()
    if isinstance(node, ExpRho):
        return {"primal"}
    if isinstance(node, DualSym):
        return {"dual"}
    if isinstance(node, Pow):
        return classify(node.base)
    if isinstance(node, Mul):
        out = set()
        for f in node.factors:
            out |= classify(f)
        return out
    if isinstance(node, Add):
        out = set()
        for _, t in node.terms:
            out |= classify(t)
        return out
    raise TypeError(node)


# -- evaluation -------------------------------------------------------------

def _primal_leaf(node, params: DeformParams):
    if isinstance(node, ExpRho):
        return make_exp_rho(node.coeff, params)
    if not isinstance(node, Sym):
        return None
    if node.name == "rho":
        return make_rho(params)
    if node.name == "lambda":
        return make_lambda(params)
    return make_generator(node.name, params)


def _dual_leaf(node, trunc: int):
    if not isinstance(node, DualSym):
        return None
    if node.kind == "W":
        return DualElement.monomial(node.index, (0, 0, 0, 0), trunc)
    return DualElement.monomial((0, 0, 0), node.index, trunc)


#: What evaluation reads for one kind of expression: the unit and zero over
#: a space, the element of a leaf token (None for a token of the other
#: kind), the product, and the error for a token of the other kind.
_PRIMAL = (AlgebraElement.unit, AlgebraElement.zero, _primal_leaf,
           normal_order_mul, "dual token in a primal context")
_DUAL = (DualElement.unit, DualElement.zero, _dual_leaf, classical_product,
         "primal token in a dual context")


def _evaluate(node, space, kind: tuple):
    """One walk for both kinds; space is a DeformParams for primal
    expressions and a truncation order for dual ones."""
    unit, zero, leaf, mul, wrong = kind
    if isinstance(node, Num):
        return unit(space).scale(node.value)
    if isinstance(node, Sym) and node.name in ("h1", "h2", "h3"):
        one = unit(space)
        return one.scale(SeriesScalar.hbar(int(node.name[1]), one.trunc))
    if isinstance(node, (Pow, Mul)):
        if isinstance(node, Pow):
            factors = iter([_evaluate(node.base, space, kind)] * node.exponent)
        else:
            factors = (_evaluate(f, space, kind) for f in node.factors)
        # A product starts from its first factor; only x^0 is the unit.
        out = next(factors, None)
        if out is None:
            return unit(space)
        for f in factors:
            check_pairs(out, f)
            out = _bounded(mul(out, f))
        return out
    if isinstance(node, Add):
        out = zero(space)
        for sign, t in node.terms:
            piece = _evaluate(t, space, kind)
            out = _bounded(out + (piece if sign > 0 else -piece))
        return out
    value = leaf(node, space)
    if value is None:
        raise ExpressionError(wrong)
    return value


def evaluate_primal(node, params: DeformParams) -> AlgebraElement:
    return _evaluate(node, params, _PRIMAL)


def evaluate_dual(node, trunc: int) -> DualElement:
    return _evaluate(node, trunc, _DUAL)


def evaluate(text: str, params: DeformParams):
    """Parse and evaluate; dual expressions yield DualElement, everything
    else an AlgebraElement."""
    node = parse_expression(text)
    if "dual" in classify(node):
        return evaluate_dual(node, params.trunc)
    return evaluate_primal(node, params)
