import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdeform import (AlgebraElement, GroupElement, InvalidParamsError,
                      LieData, WedgeElement, ad_wedge, bialgebra_axiom_check,
                      classical_limit, coboundary_from_r, cocommutator_dir,
                      cocommutator_map, combine_cocommutators, commutator,
                      dual_bracket_from_delta, dual_lie_data_from_delta,
                      dual_structure_constants, group_compose, group_identity,
                      group_inverse, make_generator, nc_lie_data,
                      verify_bialgebra_suite)
from ncdeform import bialgebra

from conftest import PARAM_SETS, params, small_fractions

TH, PH, PS, Q1, Q2, P1, P2 = range(7)
NAMES = ("Th", "Ph", "Ps", "Q1", "Q2", "P1", "P2")


# -- group law -----------------------------------------------------------------

def test_group_identity_law():
    p = params(1, 1, 1, 1)
    g = GroupElement.make(1, Fraction(1, 2), -2, (3, -1), (0, Fraction(2, 7)))
    e = group_identity()
    assert group_compose(g, e, p) == g
    assert group_compose(e, g, p) == g


def test_group_compose_example():
    p = params(2, 0, 0, 1)
    g = GroupElement.make(0, 0, 0, (1, 0), (0, 0))
    h = GroupElement.make(0, 0, 0, (0, 0), (1, 0))
    assert group_compose(g, h, p) == GroupElement.make(1, 0, 0, (1, 0), (1, 0))


group_elements = st.tuples(*(small_fractions() for _ in range(7))).map(
    lambda t: GroupElement.make(t[0], t[1], t[2], (t[3], t[4]), (t[5], t[6])))


@settings(max_examples=60, deadline=None)
@given(group_elements, group_elements, group_elements)
def test_group_associativity(g, h, f):
    for alpha, beta, gamma in PARAM_SETS:
        p = params(alpha, beta, gamma, 1)
        assert group_compose(group_compose(g, h, p), f, p) == \
            group_compose(g, group_compose(h, f, p), p)


@settings(max_examples=60, deadline=None)
@given(group_elements)
def test_group_inverse(g):
    for alpha, beta, gamma in PARAM_SETS:
        p = params(alpha, beta, gamma, 1)
        assert group_compose(g, group_inverse(g), p) == group_identity()
        assert group_inverse(group_inverse(g)) == g


def test_group_text_roundtrip():
    g = GroupElement.from_text("1/2,-3,0,2,5/7,-1,4")
    assert GroupElement.from_text(g.to_text()) == g
    with pytest.raises(ValueError):
        GroupElement.from_text("1,2,3")


# -- Lie data -------------------------------------------------------------------

@pytest.mark.parametrize("alpha,beta,gamma", PARAM_SETS)
def test_lie_data_axioms(alpha, beta, gamma):
    L = nc_lie_data(alpha, beta, gamma)
    assert L.is_antisymmetric()
    assert L.first_jacobi_failure() is None


def test_lie_bracket_examples():
    L = nc_lie_data(2, 1, 1)
    e = [{i: Fraction(1)} for i in range(7)]
    assert L.bracket(e[Q1], e[P1]) == {TH: Fraction(1, 2)}
    assert L.bracket(e[TH], e[P2]) == {}
    # Jacobi on (Q1, Q2, P1) by hand.
    acc = {}
    for x, y, z in ((e[Q1], e[Q2], e[P1]), (e[Q2], e[P1], e[Q1]),
                    (e[P1], e[Q1], e[Q2])):
        outer = L.bracket(L.bracket(x, y), z)
        for k, v in outer.items():
            acc[k] = acc.get(k, Fraction(0)) + v
    assert not {k: v for k, v in acc.items() if v}


@pytest.mark.parametrize("alpha,beta,gamma", PARAM_SETS)
def test_classical_limit_recovers_structure_constants(alpha, beta, gamma):
    p = params(alpha, beta, gamma, 2)
    L = nc_lie_data(alpha, beta, gamma)
    gens = [make_generator(i, p) for i in range(7)]
    for i in range(7):
        for j in range(7):
            got = classical_limit(commutator(gens[i], gens[j]))
            want = AlgebraElement.zero(p)
            for k, c in L.bracket_basis(i, j).items():
                want = want + gens[k].scale(c)
            assert got == want


# -- cocommutators ----------------------------------------------------------------

def test_cocommutator_displayed_values():
    assert cocommutator_dir("Th", 1, 2) == WedgeElement()
    assert cocommutator_dir("Th", 2, 2) == WedgeElement.wedge(TH, PH, 4)
    assert cocommutator_dir("Th", 3, 2) == WedgeElement.wedge(TH, PS, 4)
    assert cocommutator_dir("Q1", 1, 2) == WedgeElement.wedge(Q1, TH, 2)


def test_cocommutator_pattern_all_generators():
    # delta_i(x) = (4 if x central else 2) x wedge e_i, vanishing when x = e_i;
    # by name and by index, at truncation 2 and 3.
    for trunc in (2, 3):
        for direction in (1, 2, 3):
            for idx, name in enumerate(NAMES):
                weight = 4 if idx <= 2 else 2
                want = WedgeElement.wedge(idx, direction - 1, weight)
                assert cocommutator_dir(name, direction, trunc) == want, \
                    (direction, name)
                assert cocommutator_dir(idx, direction, trunc) == want


def test_wedge_normalization():
    assert WedgeElement.wedge(P1, Q1, 3) == WedgeElement.wedge(Q1, P1, -3)
    assert WedgeElement.wedge(Q1, Q1, 5) == WedgeElement()
    w = WedgeElement.wedge(TH, PH, 1) + WedgeElement.wedge(PH, TH, 1)
    assert w == WedgeElement()


# -- bialgebra axioms -------------------------------------------------------------

@pytest.mark.parametrize("direction", [1, 2, 3])
def test_bialgebra_axioms_per_direction(direction):
    L = nc_lie_data(1, 1, 1)
    report = bialgebra_axiom_check(cocommutator_map(direction, 2), L)
    assert report.passed, report.to_text()


def test_bialgebra_axioms_weighted_combination():
    L = nc_lie_data(2, Fraction(1, 2), -3)
    delta = combine_cocommutators((Fraction(1, 3), Fraction(-2), Fraction(5)), 2)
    report = bialgebra_axiom_check(delta, L)
    assert report.passed, report.to_text()


def test_bialgebra_suite_extracts_each_cocommutator_once(monkeypatch):
    calls = []
    extract = bialgebra.cocommutator_dir

    def counted(name, direction, trunc):
        calls.append((name, direction, trunc))
        return extract(name, direction, trunc)

    monkeypatch.setattr(bialgebra, "cocommutator_dir", counted)
    assert verify_bialgebra_suite(params(2, Fraction(1, 2), -3, 2)).passed
    assert len(calls) == len(set(calls)) == 21


def test_trivial_cocommutator_passes():
    L = nc_lie_data(1, 1, 1)
    delta = {name: WedgeElement() for name in NAMES}
    assert bialgebra_axiom_check(delta, L).passed


def test_corrupted_cocommutator_fails_cocycle():
    L = nc_lie_data(1, 1, 1)
    delta = cocommutator_map(2, 2)
    delta["Th"] = WedgeElement.wedge(TH, Q1, 1)
    report = bialgebra_axiom_check(delta, L)
    assert not report.passed
    assert any(c.name == "cocycle" and not c.passed for c in report.checks)


# -- coboundary candidates ---------------------------------------------------------

def test_coboundary_central_always_vanishes():
    L = nc_lie_data(1, 1, 1)
    rng = random.Random(7)
    for _ in range(25):
        r = WedgeElement({(i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                          for i in range(7) for j in range(i + 1, 7)})
        delta_r, _ = coboundary_from_r(r, L)
        assert delta_r["Th"] == WedgeElement()
        assert delta_r["Ph"] == WedgeElement()
        assert delta_r["Ps"] == WedgeElement()


def _looped_ad_wedge(x, w, L):
    """Reference: ad_x on each leg of every term of w, central x too."""
    out = {}
    for (a, b), c in w.terms.items():
        for k, v in L.bracket_basis(x, a).items():
            out[(k, b)] = out.get((k, b), 0) + c * v
        for k, v in L.bracket_basis(x, b).items():
            out[(a, k)] = out.get((a, k), 0) + c * v
    return WedgeElement(out)


@pytest.mark.parametrize("L", [nc_lie_data(1, 1, 1),
                               nc_lie_data(2, Fraction(1, 2), -3)],
                         ids=["111", "2-half-neg3"])
def test_ad_wedge_matches_the_double_loop(L):
    # Th, Ph and Ps bracket nothing, so ad_wedge returns 0 for them
    # without walking the wedge.
    rng = random.Random(17)
    for _ in range(10):
        r = WedgeElement({(i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                          for i in range(7) for j in range(i + 1, 7)})
        for x in range(7):
            assert ad_wedge(x, r, L) == _looped_ad_wedge(x, r, L), x
    assert all(ad_wedge(x, r, L) == WedgeElement() for x in (TH, PH, PS))


def test_coboundary_example():
    L = nc_lie_data(1, 1, 1)
    r = WedgeElement.wedge(Q1, P1)
    delta_r, report = coboundary_from_r(r, L)
    assert delta_r["Q1"] == WedgeElement.wedge(Q1, TH)
    # This candidate is not co-Jacobi (e.g. the dual triple chi1, chi2, chi6
    # picks up chi5); the verifier must say so rather than pass it.
    cojacobi = [c for c in report.checks if c.name == "co-jacobi"]
    assert cojacobi and not cojacobi[0].passed


def test_coboundary_trivial_candidate_passes():
    L = nc_lie_data(1, 1, 1)
    delta_r, report = coboundary_from_r(WedgeElement.wedge(TH, PH), L)
    assert all(delta_r[name] == WedgeElement() for name in NAMES)
    assert report.passed


def test_coboundary_never_equals_extracted_target():
    L = nc_lie_data(1, 1, 1)
    target = cocommutator_map(2, 2)
    rng = random.Random(11)
    for _ in range(25):
        r = WedgeElement({(i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                          for i in range(7) for j in range(i + 1, 7)})
        _, report = coboundary_from_r(r, L, target)
        equals = [c for c in report.checks if c.name == "equals-target"]
        assert equals and not equals[0].passed


# -- duality bridge -----------------------------------------------------------------

def test_dual_bracket_examples():
    delta2 = cocommutator_map(2, 2)
    assert dual_bracket_from_delta(delta2, 1, 2) == {0: Fraction(4)}
    assert dual_bracket_from_delta(delta2, 4, 5) == {}
    for xi in range(1, 8):
        assert dual_bracket_from_delta(delta2, xi, xi) == {}
    for xi, eta in ((0, 1), (8, 1), (-6, 2), (2, 0), (1, 8)):
        with pytest.raises(ValueError, match="chi index must be in 1..7"):
            dual_bracket_from_delta(delta2, xi, eta)


def _scanned_bracket(delta, a, b):
    """Reference: [chi_a, chi_b]* read entry by entry, the (a, b) wedge
    coefficient of every delta(e_k) taken as a series constant."""
    key, sign = ((a, b), 1) if a < b else ((b, a), -1)
    out = {}
    for k, name in enumerate(NAMES):
        coeff = delta[name].coefficient(key).constant()
        if coeff:
            out[k] = sign * coeff
    return out


def _coboundaries(L, seed):
    rng = random.Random(seed)
    for _ in range(10):
        r = WedgeElement({(i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                          for i in range(7) for j in range(i + 1, 7)})
        yield {name: ad_wedge(i, r, L) for i, name in enumerate(NAMES)}


@pytest.mark.parametrize("deltas", [
    lambda: [cocommutator_map(1, 2)],
    lambda: [cocommutator_map(2, 2)],
    lambda: [cocommutator_map(3, 2)],
    lambda: [combine_cocommutators((1, 2, -3), 2)],
    lambda: _coboundaries(nc_lie_data(1, 1, 1), 5),
    lambda: _coboundaries(nc_lie_data(2, Fraction(1, 2), -3), 6),
], ids=["delta1", "delta2", "delta3", "combined", "coboundary-111",
        "coboundary-2-half-neg3"])
def test_dual_lie_data_matches_entry_scan(deltas):
    for delta in deltas():
        table = dual_lie_data_from_delta(delta)
        for a in range(7):
            for b in range(7):
                want = _scanned_bracket(delta, a, b)
                got = table.bracket_basis(a, b)
                # Same entries, generators in the same ascending order.
                assert list(got.items()) == list(want.items())
                assert dual_bracket_from_delta(delta, a + 1, b + 1) == got
                assert dual_bracket_from_delta(delta, b + 1, a + 1) == \
                    {k: -v for k, v in got.items()}


@pytest.mark.parametrize("direction", [1, 2, 3])
def test_duality_closure(direction):
    from_delta = dual_lie_data_from_delta(cocommutator_map(direction, 2))
    from_star = dual_structure_constants(direction)
    assert from_delta == from_star


def test_cocommutator_requires_positive_truncation():
    with pytest.raises(InvalidParamsError, match="truncation >= 1"):
        cocommutator_dir("Th", 2, 0)


@pytest.mark.parametrize("trunc", [-1, 0])
@pytest.mark.parametrize("call", [
    lambda t: dual_structure_constants(1, t),
    lambda t: cocommutator_dir("Q1", 1, t),
    lambda t: cocommutator_map(1, t),
    lambda t: combine_cocommutators((1, 0, 0), t),
    lambda t: combine_cocommutators((0, 0, 0), t),
], ids=["dual_structure_constants", "cocommutator_dir", "cocommutator_map",
        "combine_cocommutators", "combine_cocommutators-zero"])
def test_first_order_functions_refuse_truncation_below_1(call, trunc):
    # Each reads an h_i coefficient, which truncation 0 discards.  At -1
    # they named the bound >= 0, and combine_cocommutators((0, 0, 0), 0)
    # returned seven zero wedges.
    with pytest.raises(InvalidParamsError, match="truncation >= 1"):
        call(trunc)


@pytest.mark.parametrize("call", [
    lambda: cocommutator_dir("Th", 2, -1),
    lambda: cocommutator_map(1, -1),
    lambda: combine_cocommutators((1, 2, -3), -1),
    lambda: combine_cocommutators((0, 0, 0), -1),
], ids=["cocommutator_dir", "cocommutator_map", "combine_cocommutators",
        "combine_cocommutators-zero"])
def test_cocommutators_reject_negative_truncation(call):
    # Before the check, zero weights gave zero cocommutators for any order.
    with pytest.raises(InvalidParamsError, match="truncation"):
        call()


@pytest.mark.parametrize("weights", [(1, 2), (1, 2, -3, 7)])
def test_combine_cocommutators_needs_one_weight_per_direction(weights):
    with pytest.raises(ValueError, match="one weight per direction"):
        combine_cocommutators(weights, 2)


def test_wedge_and_ad_refuse_indices_outside_the_algebra():
    L = nc_lie_data(1, 1, 1)
    for i, j in ((9, 0), (0, 7), (-1, 3), (7, 7)):
        with pytest.raises(ValueError, match="wedge index must be in 0..6"):
            WedgeElement.wedge(i, j)
    for x in (12, 7, -1):
        with pytest.raises(ValueError, match="ad index must be in 0..6"):
            ad_wedge(x, WedgeElement.wedge(Q1, P1), L)
