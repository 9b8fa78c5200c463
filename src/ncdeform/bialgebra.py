"""The classical layer: the seven-dimensional Lie algebra by structure
constants, the group law of its Lie group, cocommutators extracted from the
deformed coproduct, Lie bialgebra axiom checks, a per-candidate coboundary
verifier and the duality bridge to the dual Poisson structure.

The bridge reads the dual bracket off delta in one pass: each term
(a, b) c of delta(e_k) gives c at [chi_a, chi_b]*_k and -c at
[chi_b, chi_a]*_k.

alpha, beta and gamma enter only the structure constants and the group
law.  The cocommutators, read off the coproduct, take a truncation order
and build their generators over algebra.Truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .algebra import (GENERATOR_NAMES, P1, P2, PH, PS, Q1, Q2, TH,
                      DeformParams, Truncation, make_generator,
                      require_first_order)
from .hopf import coproduct
from .report import VerificationReport
from .series import TermMap

DIM = 7
_H0 = (0, 0, 0)
Vector = dict[int, Fraction]        # sparse coordinates over the basis


class NonPrimitiveResidueError(ValueError):
    """The extracted linear part was not a sum of generator (x) generator."""


# ---------------------------------------------------------------------------
# Lie algebra data.
# ---------------------------------------------------------------------------

@dataclass
class LieData:
    """Antisymmetric structure constants c[i][j] -> k over a named basis."""

    names: tuple[str, ...]
    constants: dict[tuple[int, int], Vector]

    @property
    def dim(self) -> int:
        return len(self.names)

    def bracket_basis(self, i: int, j: int) -> Vector:
        return self.constants.get((i, j), {})

    def bracket(self, x: Vector, y: Vector) -> Vector:
        out: Vector = {}
        for i, xi in x.items():
            for j, yj in y.items():
                for k, c in self.bracket_basis(i, j).items():
                    out[k] = out.get(k, 0) + xi * yj * c
        return {k: c for k, c in out.items() if c}

    def is_antisymmetric(self) -> bool:
        for i in range(self.dim):
            for j in range(self.dim):
                a = self.bracket_basis(i, j)
                b = self.bracket_basis(j, i)
                if {k: -v for k, v in b.items()} != a:
                    return False
        return True

    def first_jacobi_failure(self):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    acc: Vector = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = self.bracket_basis(a, b)
                        for m, w in inner.items():
                            for n, v in self.bracket_basis(m, c).items():
                                acc[n] = acc.get(n, 0) + w * v
                    acc = {n: s for n, s in acc.items() if s}
                    if acc:
                        return (i, j, k, acc)
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieData):
            return NotImplemented
        if self.dim != other.dim:
            return False
        return all(self.bracket_basis(i, j) == other.bracket_basis(i, j)
                   for i in range(self.dim) for j in range(self.dim))


def nc_lie_data(alpha, beta, gamma) -> LieData:
    """Structure constants of the centrally extended phase-space algebra:
    [Q_i, P_i] = Th/alpha, [Q1, Q2] = beta Ph/alpha^2, [P1, P2] = gamma Ps/alpha^2,
    everything else zero."""
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    if not alpha:
        raise ValueError("alpha must be nonzero")
    constants: dict[tuple[int, int], Vector] = {}

    def put(i, j, k, c):
        if c:
            constants[(i, j)] = {k: Fraction(c)}
            constants[(j, i)] = {k: -Fraction(c)}

    put(Q1, P1, TH, 1 / alpha)
    put(Q2, P2, TH, 1 / alpha)
    put(Q1, Q2, PH, beta / alpha ** 2)
    put(P1, P2, PS, gamma / alpha ** 2)
    return LieData(names=GENERATOR_NAMES, constants=constants)


# ---------------------------------------------------------------------------
# Wedge elements.
# ---------------------------------------------------------------------------

class WedgeElement(TermMap):
    """Element of Lambda^2 of the Lie algebra, with the convention
    x wedge y = x (x) y - y (x) x; a basis key is (i, j) with i < j, its
    coefficient is h-free, and terms maps each key to a Fraction.

    The constructor raises ValueError for a basis index outside 0..6."""

    __slots__ = ()

    trunc = 0

    def __init__(self, terms: Mapping[tuple[int, int], Fraction] | None = None):
        terms = terms or {}
        if not all(0 <= i < DIM and 0 <= j < DIM for i, j in terms):
            raise ValueError("wedge index must be in 0..6")
        self._store(((j, i, _H0), -c) if i > j else ((i, j, _H0), c)
                    for (i, j), c in terms.items() if i != j)

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        den = self.den
        return {k[:2]: Fraction(n, den) for k, n in self.nums.items()}

    @classmethod
    def wedge(cls, i: int, j: int, c=1) -> "WedgeElement":
        return cls({(i, j): c})

    def space(self) -> None:
        """Every wedge lives in the one Lambda^2 of the Lie algebra."""

    def to_text(self) -> str:
        from .render import wedge_to_text
        return wedge_to_text(self)

    def to_json(self) -> list:
        from .render import wedge_to_json
        return wedge_to_json(self)


def ad_wedge(x: int, w: WedgeElement, L: LieData) -> WedgeElement:
    """(ad_x (x) 1 + 1 (x) ad_x) acting on a wedge element; raises
    ValueError unless 0 <= x < L.dim.  An x that brackets nothing, as a
    central generator, gives 0 without reading w."""
    if not 0 <= x < L.dim:
        raise ValueError(f"ad index must be in 0..{L.dim - 1}")
    if not any(L.bracket_basis(x, a) for a in range(L.dim)):
        return WedgeElement()
    out: dict[tuple[int, int], Fraction] = {}
    for (a, b), c in w.terms.items():
        for k, v in L.bracket_basis(x, a).items():
            out[(k, b)] = out.get((k, b), 0) + c * v
        for k, v in L.bracket_basis(x, b).items():
            out[(a, k)] = out.get((a, k), 0) + c * v
    return WedgeElement(out)


# ---------------------------------------------------------------------------
# Group law.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    theta: Fraction
    phi: Fraction
    psi: Fraction
    q: tuple[Fraction, Fraction]
    p: tuple[Fraction, Fraction]

    @classmethod
    def make(cls, theta=0, phi=0, psi=0, q=(0, 0), p=(0, 0)) -> "GroupElement":
        return cls(Fraction(theta), Fraction(phi), Fraction(psi),
                   (Fraction(q[0]), Fraction(q[1])),
                   (Fraction(p[0]), Fraction(p[1])))

    @classmethod
    def from_text(cls, text: str) -> "GroupElement":
        try:
            parts = [Fraction(part.strip()) for part in text.split(",")]
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
        if len(parts) != 7:
            raise ValueError("group element needs 7 comma-separated rationals")
        t, f, s, q1, q2, p1, p2 = parts
        return cls.make(t, f, s, (q1, q2), (p1, p2))

    def to_text(self) -> str:
        from .render import group_to_text
        return group_to_text(self)

    def to_json(self) -> dict:
        from .render import group_to_json
        return group_to_json(self)


def _dot(a, b) -> Fraction:
    return a[0] * b[0] + a[1] * b[1]


def _wedge2(a, b) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def group_identity() -> GroupElement:
    return GroupElement.make()


def group_compose(g: GroupElement, h: GroupElement,
                  params: DeformParams) -> GroupElement:
    """(theta, phi, psi, q, p)(theta', ...) with the central corrections
    alpha/2 (<q,p'> - <p,q'>), beta/2 p^p', gamma/2 q^q'."""
    return GroupElement.make(
        g.theta + h.theta + params.alpha / 2 * (_dot(g.q, h.p) - _dot(g.p, h.q)),
        g.phi + h.phi + params.beta / 2 * _wedge2(g.p, h.p),
        g.psi + h.psi + params.gamma / 2 * _wedge2(g.q, h.q),
        (g.q[0] + h.q[0], g.q[1] + h.q[1]),
        (g.p[0] + h.p[0], g.p[1] + h.p[1]))


def group_inverse(g: GroupElement) -> GroupElement:
    """Componentwise negation; the central corrections cancel by antisymmetry."""
    return GroupElement.make(-g.theta, -g.phi, -g.psi,
                             (-g.q[0], -g.q[1]), (-g.p[0], -g.p[1]))


# ---------------------------------------------------------------------------
# Cocommutators from the deformed coproduct.
# ---------------------------------------------------------------------------

def cocommutator_dir(name, direction: int, trunc: int) -> WedgeElement:
    """First-order antisymmetric part of the coproduct in one direction, for
    the generator given by name or index, at truncation order trunc.

    Computes cop(g) - flip(cop(g)) with the other two deformation parameters
    set to zero, extracts the linear coefficient of h_direction and folds the
    surviving generator (x) generator terms into Lambda^2.  The linear
    coefficient needs truncation >= 1; a lower order raises
    InvalidParamsError.
    """
    require_first_order(trunc, "cocommutator extraction")
    if direction not in (1, 2, 3):
        raise ValueError("direction must be 1, 2 or 3")
    t = coproduct(make_generator(name, Truncation(trunc)))
    d = (t - t.flip()).limit(set((1, 2, 3)) - {direction})
    h_linear = tuple(1 if k == direction - 1 else 0 for k in range(3))

    acc: dict[tuple[int, int], Fraction] = {}
    for (m1, m2, h), c in d.terms.items():
        if h == (0, 0, 0):
            raise NonPrimitiveResidueError(
                "non-primitive residue: constant part of the flip difference")
        if h != h_linear:
            continue
        if sum(m1) != 1 or sum(m2) != 1:
            raise NonPrimitiveResidueError(
                f"non-primitive residue: {m1} (x) {m2}")
        i = m1.index(1)
        j = m2.index(1)
        acc[(i, j)] = acc.get((i, j), 0) + c
    for (i, j), c in acc.items():
        if acc.get((j, i), Fraction(0)) != -c:
            raise NonPrimitiveResidueError("non-primitive residue: "
                                           "linear part is not antisymmetric")
    return WedgeElement({(i, j): c for (i, j), c in acc.items() if i < j})


def cocommutator_map(direction: int, trunc: int) -> dict[str, WedgeElement]:
    """cocommutator_dir of every generator; truncation >= 1."""
    return {name: cocommutator_dir(name, direction, trunc)
            for name in GENERATOR_NAMES}


def combine_cocommutators(weights, trunc: int) -> dict[str, WedgeElement]:
    """Rational-weighted combination sum_i w_i * delta_i, one weight per
    direction; raises ValueError unless there are exactly 3 weights, and
    InvalidParamsError for a truncation order below 1, also when every
    weight is 0."""
    if len(weights) != 3:
        raise ValueError("combine_cocommutators needs one weight per "
                         "direction (3 weights)")
    require_first_order(trunc, "cocommutator extraction")
    return sum_cocommutators(weights, [
        cocommutator_map(i, trunc) if w else {}
        for i, w in zip((1, 2, 3), weights)])


def sum_cocommutators(weights, deltas) -> dict[str, WedgeElement]:
    """sum_i w_i * deltas[i] per generator, deltas[i] being the cocommutator
    map of direction i + 1; a direction of weight 0 is not read."""
    out: dict[str, WedgeElement] = {}
    for name in GENERATOR_NAMES:
        acc = WedgeElement()
        for w, delta in zip(weights, deltas):
            if w:
                acc = acc + delta[name].scale(w)
        out[name] = acc
    return out


def _delta_vec(delta: Mapping[str, WedgeElement], x: Vector) -> WedgeElement:
    out: dict[tuple[int, int], Fraction] = {}
    for i, c in x.items():
        for k, v in delta[GENERATOR_NAMES[i]].terms.items():
            out[k] = out.get(k, 0) + v * c
    return WedgeElement(out)


def bialgebra_axiom_check(delta: Mapping[str, WedgeElement],
                          L: LieData) -> VerificationReport:
    """1-cocycle condition on all generator pairs plus co-Jacobi of the dual
    bracket induced by delta."""
    report = VerificationReport()
    for i in range(DIM):
        for j in range(i + 1, DIM):
            name = f"[{GENERATOR_NAMES[i]},{GENERATOR_NAMES[j]}]"
            lhs = _delta_vec(delta, L.bracket_basis(i, j))
            rhs = (ad_wedge(i, delta[GENERATOR_NAMES[j]], L)
                   - ad_wedge(j, delta[GENERATOR_NAMES[i]], L))
            ok = lhs == rhs
            report.add("cocycle", name, ok,
                       None if ok else f"delta[x,y] = {lhs.to_text()} but "
                                       f"ad-side = {rhs.to_text()}")
    dual = dual_lie_data_from_delta(delta)
    failure = dual.first_jacobi_failure()
    report.add("co-jacobi", "dual bracket", failure is None,
               None if failure is None else
               f"jacobi fails on triple {failure[:3]}")
    return report


def coboundary_from_r(r: WedgeElement, L: LieData,
                      target: Mapping[str, WedgeElement] | None = None):
    """delta_r(x) = (ad_x (x) 1 + 1 (x) ad_x) r, with a report stating
    whether delta_r is co-Jacobi and whether it equals the supplied target."""
    delta = {name: ad_wedge(i, r, L)
             for i, name in enumerate(GENERATOR_NAMES)}
    report = VerificationReport()
    dual = dual_lie_data_from_delta(delta)
    failure = dual.first_jacobi_failure()
    report.add("co-jacobi", "coboundary candidate", failure is None,
               None if failure is None else
               f"jacobi fails on triple {failure[:3]}")
    if target is not None:
        mismatches = [name for name in GENERATOR_NAMES
                      if delta[name] != target[name]]
        report.add("equals-target", "coboundary candidate", not mismatches,
                   None if not mismatches else
                   f"differs on {', '.join(mismatches)}")
    return delta, report


# ---------------------------------------------------------------------------
# Duality bridge.
# ---------------------------------------------------------------------------

def dual_bracket_from_delta(delta: Mapping[str, WedgeElement],
                            xi: int, eta: int) -> Vector:
    """[chi_xi, chi_eta]* with <chi_a (x) chi_b, delta(e_k)> coefficients.

    xi, eta are 1-based functional indices aligned with the generator order;
    an index outside 1..7 raises ValueError.
    """
    if not (1 <= xi <= DIM and 1 <= eta <= DIM):
        raise ValueError("chi index must be in 1..7")
    return dual_lie_data_from_delta(delta).bracket_basis(xi - 1, eta - 1)


def dual_lie_data_from_delta(delta: Mapping[str, WedgeElement]) -> LieData:
    """The dual Lie algebra of delta, read in one pass over its wedge maps:
    each term (a, b) c of delta(e_k) gives c at [chi_a, chi_b]*_k and -c at
    [chi_b, chi_a]*_k."""
    from .dual import CHI_NAMES
    constants: dict[tuple[int, int], Vector] = {}
    for k, name in enumerate(GENERATOR_NAMES):
        for (a, b), c in delta[name].terms.items():
            constants.setdefault((a, b), {})[k] = c
            constants.setdefault((b, a), {})[k] = -c
    return LieData(names=CHI_NAMES, constants=constants)
