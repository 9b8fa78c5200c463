"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All comparisons are exact rational equalities; there are no tolerances.
"""

import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from ncdeform import (AlgebraElement, DeformParams, SeriesScalar,
                      WedgeElement, bialgebra_axiom_check, coboundary_from_r,
                      cocommutator_dir, cocommutator_map, commutator,
                      dual_lie_data_from_delta, dual_structure_constants,
                      group_compose, group_identity, group_inverse,
                      heisenberg_limit_report, make_generator, make_rho,
                      nc_lie_data, normal_order_mul, phi_automorphism,
                      verify_hopf_axioms)
from ncdeform.dual import (DualElement, star_closed, star_commutator,
                           star_oracle_grid, star_oracle_restricted)
from ncdeform.multiindex import multiindices
from ncdeform.suites import _DEEP_PROBES

PARAM_SETS = [
    (Fraction(1), Fraction(1), Fraction(1)),
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(2), Fraction(1, 2), Fraction(-3)),
]

TH, PH, PS, Q1, Q2, P1, P2 = range(7)
NAMES = ("Th", "Ph", "Ps", "Q1", "Q2", "P1", "P2")


def report_line(number, name, ok, extra=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number:02d} {name}: {tag}{suffix}")


def central_series_lambda(params):
    # sum_n 4^n/(2n+1)! rho^(2n), built directly from the sinh expansion.
    rho = make_rho(params)
    out = AlgebraElement.unit(params)
    power = AlgebraElement.unit(params)
    n = 1
    while 2 * n <= params.trunc:
        power = normal_order_mul(power, normal_order_mul(rho, rho))
        out = out + power.scale(Fraction(4 ** n, factorial(2 * n + 1)))
        n += 1
    return out


def test_criterion_01_defining_relations():
    """Commutators of all generator pairs match the stated right-hand sides
    at truncation 4."""
    ok = True
    for alpha, beta, gamma in PARAM_SETS:
        p = DeformParams(alpha, beta, gamma, 4)
        lam = central_series_lambda(p)
        gens = [make_generator(i, p) for i in range(7)]
        rhs = {
            (Q1, P1): normal_order_mul(lam, gens[TH]).scale(1 / alpha),
            (Q2, P2): normal_order_mul(lam, gens[TH]).scale(1 / alpha),
            (Q1, Q2): normal_order_mul(lam, gens[PH]).scale(beta / alpha ** 2),
            (P1, P2): normal_order_mul(lam, gens[PS]).scale(gamma / alpha ** 2),
        }
        for i in range(7):
            for j in range(7):
                got = commutator(gens[i], gens[j])
                want = rhs.get((i, j), AlgebraElement.zero(p))
                if (j, i) in rhs:
                    want = -rhs[(j, i)]
                if got != want:
                    ok = False
    report_line(1, "defining relations at truncation 4", ok)
    assert ok


def test_criterion_02_hopf_axioms():
    """Coassociativity, counit, antipode and coproduct homomorphism checks on
    all monomials of generator degree <= 3 at truncation 3, for three
    parameter sets."""
    ok = True
    detail = []
    for alpha, beta, gamma in PARAM_SETS:
        p = DeformParams(alpha, beta, gamma, 3)
        report = verify_hopf_axioms(3, p)
        detail.append(f"({alpha},{beta},{gamma}): "
                      f"{len(report.checks)} checks")
        if not report.passed:
            ok = False
    report_line(2, "Hopf axioms, degree <= 3 at truncation 3", ok,
                "; ".join(detail))
    assert ok


def test_criterion_03_flatness():
    """The lambda-rescaled generators satisfy the undeformed relations at
    truncation 4."""
    ok = True
    for alpha, beta, gamma in PARAM_SETS:
        p = DeformParams(alpha, beta, gamma, 4)
        phi = {name: phi_automorphism(make_generator(name, p))
               for name in NAMES}
        zero = AlgebraElement.zero(p)
        checks = [
            (commutator(phi["Q1"], phi["P1"]), phi["Th"].scale(1 / alpha)),
            (commutator(phi["Q2"], phi["P2"]), phi["Th"].scale(1 / alpha)),
            (commutator(phi["Q1"], phi["P2"]), zero),
            (commutator(phi["Q2"], phi["P1"]), zero),
            (commutator(phi["Q1"], phi["Q2"]),
             phi["Ph"].scale(beta / alpha ** 2)),
            (commutator(phi["P1"], phi["P2"]),
             phi["Ps"].scale(gamma / alpha ** 2)),
        ]
        if any(got != want for got, want in checks):
            ok = False
    report_line(3, "flatness via the rescaling automorphism at truncation 4",
                ok)
    assert ok


def test_criterion_04_heisenberg_limit():
    """One-parameter limit: engine commutators equal the independent sinh
    expansion to degree 5 and the coproducts take the displayed form."""
    report = heisenberg_limit_report(5)
    ok = report.passed
    report_line(4, "one-parameter limit at degree 5", ok,
                f"{len(report.checks)} checks")
    assert ok, report.to_text()


def _dual_monomials(norm, trunc):
    return [DualElement.monomial(w, y, trunc)
            for w in multiindices(3, norm)
            for y in multiindices(4, norm - sum(w))]


def test_criterion_05_star_vs_oracle():
    """Closed star formula equals the coproduct-pairing oracle modulo
    h-degree 2 on all dual monomial pairs of index norm <= 2; the deeper
    comparison is reported as a diagnostic, not gated."""
    monos = _dual_monomials(2, 1)
    oracle = star_oracle_grid(2, 1)
    mismatches = 0
    for u, v in product(monos, repeat=2):
        ku, kv = next(iter(u.terms)), next(iter(v.terms))
        want = oracle.get((ku, kv), DualElement.zero(1))
        if star_closed(u, v) != want:
            mismatches += 1
    ok = mismatches == 0
    report_line(5, "star product vs pairing oracle (mod h^2)", ok,
                f"{len(monos) ** 2} pairs")

    for label, a, b in _DEEP_PROBES:
        got = star_closed(DualElement.monomial(a[0], a[1], 3),
                          DualElement.monomial(b[0], b[1], 3))
        want = star_oracle_restricted(a, b, 3)
        status = "agrees" if got == want else \
            f"differs by {(got - want).to_text()}"
        print(f"ACCEPTANCE 05 diagnostic (not gated) {label}: {status}")
    assert ok


def test_criterion_06_classical_commutativity():
    """Constant term of every star commutator vanishes on the full grid."""
    monos = _dual_monomials(2, 2)
    bad = 0
    for u, v in product(monos, repeat=2):
        if star_commutator(u, v).hdegree_truncated(1).terms:
            bad += 1
    ok = bad == 0
    report_line(6, "classical commutativity of the star product", ok,
                f"{len(monos) ** 2} pairs")
    assert ok


def test_criterion_07_poisson_chi_relations():
    """Per-direction brackets reproduce the displayed chi relations with the
    constants pinned to 2, and Jacobi holds on all 35 triples."""
    ok = True
    for direction in (1, 2, 3):
        data = dual_structure_constants(direction)
        d = direction - 1

        def want(i, j):
            out = {}
            if i <= 2 and j <= 2:
                if j == d:
                    out[i] = Fraction(4)
                if i == d:
                    out[j] = out.get(j, Fraction(0)) - 4
            elif i >= 3 and j <= 2 and j == d:
                out[i] = Fraction(2)
            elif i <= 2 and j >= 3 and i == d:
                out[j] = Fraction(-2)
            return {k: v for k, v in out.items() if v}

        for i in range(7):
            for j in range(7):
                if data.bracket_basis(i, j) != want(i, j):
                    ok = False
        if not (data.is_antisymmetric()
                and data.first_jacobi_failure() is None):
            ok = False
    report_line(7, "chi relations and Jacobi per direction", ok,
                "(a,b,c) = (2,2,2)")
    assert ok


def test_criterion_08_cocommutator_extraction():
    """Extracted cocommutators reproduce the displayed values and the full
    pattern, and satisfy cocycle + co-Jacobi."""
    trunc = 2
    ok = cocommutator_dir("Th", 1, trunc) == WedgeElement()
    ok &= cocommutator_dir("Th", 2, trunc) == WedgeElement.wedge(TH, PH, 4)
    ok &= cocommutator_dir("Th", 3, trunc) == WedgeElement.wedge(TH, PS, 4)
    for direction in (1, 2, 3):
        for idx, name in enumerate(NAMES):
            weight = 4 if idx <= 2 else 2
            if cocommutator_dir(name, direction, trunc) != \
                    WedgeElement.wedge(idx, direction - 1, weight):
                ok = False
    L = nc_lie_data(1, 1, 1)
    for direction in (1, 2, 3):
        if not bialgebra_axiom_check(cocommutator_map(direction, trunc),
                                     L).passed:
            ok = False
    report_line(8, "cocommutator extraction and bialgebra axioms", ok)
    assert ok


def test_criterion_09_duality_closure():
    """Dual Lie algebra constants from the star product equal those induced
    by the cocommutator through the pairing, per direction."""
    ok = True
    for direction in (1, 2, 3):
        from_star = dual_structure_constants(direction)
        from_delta = dual_lie_data_from_delta(cocommutator_map(direction, 2))
        if from_star != from_delta:
            ok = False
    report_line(9, "duality closure star vs cocommutator", ok)
    assert ok


def test_criterion_10_coboundary_obstruction():
    """For 100 random candidates r, the coboundary cocommutator kills the
    central generators, so no candidate reaches the extracted target."""
    L = nc_lie_data(1, 1, 1)
    target = cocommutator_map(2, 2)
    rng = random.Random(20260808)
    ok = True
    for _ in range(100):
        r = WedgeElement({(i, j): Fraction(rng.randint(-9, 9),
                                           rng.randint(1, 9))
                          for i in range(7) for j in range(i + 1, 7)})
        delta_r, report = coboundary_from_r(r, L, target)
        if any(delta_r[name] for name in ("Th", "Ph", "Ps")):
            ok = False
        equals = [c for c in report.checks if c.name == "equals-target"]
        if not equals or equals[0].passed:
            ok = False
    report_line(10, "coboundary obstruction on 100 random candidates", ok)
    assert ok


def test_criterion_11_group_law():
    """Associativity, identity and inverse on 100 random rational tuples for
    three parameter sets."""
    rng = random.Random(811)

    def rand_group():
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(7)]
        from ncdeform import GroupElement
        return GroupElement.make(vals[0], vals[1], vals[2],
                                 (vals[3], vals[4]), (vals[5], vals[6]))

    ok = True
    ident = group_identity()
    for alpha, beta, gamma in PARAM_SETS:
        p = DeformParams(alpha, beta, gamma, 1)
        for _ in range(100):
            g, h, f = rand_group(), rand_group(), rand_group()
            if group_compose(group_compose(g, h, p), f, p) != \
                    group_compose(g, group_compose(h, f, p), p):
                ok = False
            if group_compose(g, ident, p) != g or \
                    group_compose(ident, g, p) != g:
                ok = False
            if group_compose(g, group_inverse(g), p) != ident:
                ok = False
    report_line(11, "group law on 100 random tuples x 3 parameter sets", ok)
    assert ok
