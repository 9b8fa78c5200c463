"""Grid verification suites behind the CLI `verify` subcommands.

The star suite gates the closed product against the engine-backed oracle
modulo h-degree 2 (where agreement is provable); the deeper comparison at
h-degree >= 2 is emitted as a diagnostic and never gates: where a term takes
n of a factor's W letters into h^n, the closed formula has the power c^n of
a base c and the pairing has P_n(c), with P_0 = 1, P_1 = c and P_{n+2} =
(c^2 - 4n^2) P_n.  These agree for n <= 2, so the two first differ at
h-degree 3, on functionals of W-norm >= 3.  The dual side reads no
alpha, beta or gamma, so the star suite takes only its norm bound: it runs
at truncation 1, its diagnostic at truncation 3.  Its associativity cube
checks every triple of the grid without building a product per triple: for
each middle monomial it sums both sides' integer numerators in one block
per side with dual.star_sums, the kernel under star_closed, and compares
the blocks on their packed one-int keys, never decoded
(first_associativity_failure).  The bialgebra suite reads
the parameters for the Lie data and the group law, and only the truncation
order for the cocommutators.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import lcm

from .algebra import (GENERATOR_NAMES, AlgebraElement, DeformParams,
                      InvalidParamsError, classical_limit, commutator,
                      make_generator)
from .bialgebra import (GroupElement, LieData, WedgeElement,
                        bialgebra_axiom_check, coboundary_from_r,
                        cocommutator_map, dual_lie_data_from_delta,
                        group_compose, group_identity, group_inverse,
                        nc_lie_data, sum_cocommutators)
from .dual import (DualElement, classical_product, dual_structure_constants,
                   h_coefficient, star_closed, star_commutator, star_oracle,
                   star_layout, star_oracle_grid, star_rows, star_sums,
                   top_exponent)
from .hopf import heisenberg_limit_report, verify_hopf_axioms
from .multiindex import multiindices
from .report import VerificationReport, clip_note

RANDOM_SEED = 8211


def _dual_monomials(norm_bound: int, trunc: int):
    out = []
    for w in multiindices(3, norm_bound):
        for y in multiindices(4, norm_bound - sum(w)):
            out.append(DualElement.monomial(w, y, trunc))
    return out


_DEEP_PROBES = (
    ("W[3,0,0] * x1", ((3, 0, 0), (0, 0, 0, 0)), ((1, 0, 0), (0, 0, 0, 0))),
    ("W[0,3,0] * x2", ((0, 3, 0), (0, 0, 0, 0)), ((0, 1, 0), (0, 0, 0, 0))),
    ("W[1,1,1] * x3", ((1, 1, 1), (0, 0, 0, 0)), ((0, 0, 1), (0, 0, 0, 0))),
    ("W[3,0,0] * x4", ((3, 0, 0), (0, 0, 0, 0)), ((0, 0, 0), (1, 0, 0, 0))),
    ("W[2,0,0]*Y[1,0,0,0] * x1", ((2, 0, 0), (1, 0, 0, 0)),
     ((1, 0, 0), (0, 0, 0, 0))),
    ("W[2,0,0] * W[2,0,0]", ((2, 0, 0), (0, 0, 0, 0)),
     ((2, 0, 0), (0, 0, 0, 0))),
)


def verify_star_suite(norm_bound: int = 2) -> VerificationReport:
    """Unit law, classical commutativity, oracle gate (mod h^2), associativity
    and the Poisson layer on the full monomial grid of the given norm."""
    if norm_bound < 0:
        raise InvalidParamsError(f"norm bound must be >= 0, got {norm_bound}")
    report = VerificationReport()
    trunc, deep_trunc = 1, 3
    monos = _dual_monomials(norm_bound, trunc)

    # Every pair product once; the checks below read it in pair order.
    n = len(monos)
    table = [[star_closed(u, v) for v in monos] for u in monos]
    pairs = list(product(range(n), repeat=2))

    # monos[0] is the unit, so the unit law reads row and column 0.
    bad = next((u for i, u in enumerate(monos)
                if table[0][i] != u or table[i][0] != u), None)
    report.add("star-unit-law", f"{len(monos)} monomials, norm <= {norm_bound}",
               bad is None, None if bad is None else bad.to_text())

    first = next(((i, j) for i, j in pairs
                  if (table[i][j] - table[j][i]).hdegree_truncated(1)),
                 None)
    report.add("star-classical-commutativity",
               f"{n ** 2} pairs", first is None,
               None if first is None else
               f"{monos[first[0]].to_text()} , {monos[first[1]].to_text()}")

    first = next(((i, j) for i, j in pairs
                  if table[i][j].hdegree_truncated(1)
                  != classical_product(monos[i], monos[j])), None)
    report.add("star-constant-term",
               f"classical divided-power product on {n ** 2} pairs",
               first is None,
               None if first is None else
               f"{monos[first[0]].to_text()} , {monos[first[1]].to_text()}")

    oracle = star_oracle_grid(norm_bound, trunc)
    keys = [next(iter(u.nums))[:-1] for u in monos]
    first = None
    checked = 0
    for i, j in pairs:
        got = table[i][j]
        want = oracle.get((keys[i], keys[j]), DualElement.zero(trunc))
        checked += 1
        if got != want:
            first = (monos[i], monos[j], got - want)
            break
    report.add("star-oracle-gate",
               f"{checked} pairs at truncation {trunc} (mod h^2)",
               first is None,
               None if first is None else
               f"{first[0].to_text()} , {first[1].to_text()} -> "
               f"{first[2].to_text()}")

    first = first_associativity_failure(monos, table, trunc)
    report.add("star-associativity",
               f"{n ** 3} triples (mod h^2)", first is None,
               None if first is None else
               ", ".join(monos[i].to_text() for i in first))

    _poisson_checks(report, trunc)

    for label, a, b in _DEEP_PROBES:
        got = star_closed(DualElement.monomial(a[0], a[1], deep_trunc),
                          DualElement.monomial(b[0], b[1], deep_trunc))
        want = star_oracle(a, b, deep_trunc)
        ok = got == want
        report.add("star-depth2-diagnostic",
                   f"{label} at truncation {deep_trunc}", ok,
                   None if ok else
                   f"closed - oracle = {clip_note((got - want).to_text())}",
                   diagnostic=True)
    return report


def _nonzero(block: dict) -> dict:
    """The block with zero sums dropped, and then empty products."""
    return {key: nonzero for key, sums in block.items()
            if (nonzero := {k: n for k, n in sums.items() if n})}


def first_associativity_failure(monos: list, table: list,
                                trunc: int) -> tuple | None:
    """The first (i, j, k), in lexicographic order, with
    table[i][j] * monos[k] != monos[i] * table[j][k] under star_closed,
    table[i][j] being monos[i] * monos[j] for dual elements monos of order
    trunc; None if there is none.

    For each middle index j, both sides are summed by dual.star_sums into
    a block keyed (i, k): the left with one call per i, table[i][j]
    against every monomial tagged by k, the right with one call per k,
    every monomial tagged by i against table[j][k].  Every operand is
    brought to one common denominator D, so both blocks hold numerators
    over D^2, and they are equal when their nonzero sums are.  Both
    blocks are kept on packed keys and compared as they are, never
    decoded, so every row is packed in one layout: dual.star_layout for
    the largest exponent of a monomial plus the largest of a table entry.
    Its fields hold every key either side forms, as each side multiplies
    a monomial by an entry, in one order or the other, and equal keys are
    equal ints in one layout.
    The monomials' rows are read once; a table entry's rows are read for
    each of its two blocks, so that one j-block is held at a time.  Once a
    block differs, a later j can come first only with a smaller i, so the
    later blocks are built over those i alone.
    """
    n = len(monos)
    entries = [x for line in table for x in line]
    D = lcm(*(u.den for u in monos), *(x.den for x in entries))
    layout = star_layout(trunc, max(map(top_exponent, monos), default=0)
                         + max(map(top_exponent, entries), default=0))
    mono_rows = [star_rows(u, layout, i, D // u.den)
                 for i, u in enumerate(monos)]
    every_mono = [row for rows in mono_rows for row in rows]
    first = None
    for j in range(n):
        upto = n if first is None else first[0]
        left: dict = {}
        right: dict = {}
        for i in range(upto):
            x = table[i][j]
            star_sums(star_rows(x, layout, i, D // x.den), every_mono, trunc,
                      layout, left)
        umonos = [row for rows in mono_rows[:upto] for row in rows]
        for k in range(n):
            x = table[j][k]
            star_sums(umonos, star_rows(x, layout, k, D // x.den), trunc,
                      layout, right)
        if left != right:
            # Equal dicts are equal blocks; unequal ones may differ only
            # in zero sums.
            left, right = _nonzero(left), _nonzero(right)
            first = min(((i, j, k) for i, k in left.keys() | right.keys()
                         if left.get((i, k)) != right.get((i, k))),
                        default=first)
    return first


def _poisson_checks(report: VerificationReport, trunc: int) -> None:
    # The displayed relations with the per-direction normalization (a,b,c)=2.
    def expect(i, j, direction):
        out: dict[int, Fraction] = {}
        if i <= 3 and j <= 3:
            if j == direction:
                out[i - 1] = Fraction(4)
            if i == direction:
                out[j - 1] = out.get(j - 1, Fraction(0)) - 4
        elif i >= 4 and j <= 3:
            if j == direction:
                out[i - 1] = Fraction(2)
        elif i <= 3 and j >= 4:
            if i == direction:
                out[j - 1] = Fraction(-2)
        return {k: v for k, v in out.items() if v}

    datas = [dual_structure_constants(direction, trunc)
             for direction in (1, 2, 3)]
    for direction, data in enumerate(datas, 1):
        first = None
        for i in range(1, 8):
            for j in range(1, 8):
                if data.bracket_basis(i - 1, j - 1) != expect(i, j, direction):
                    first = (i, j)
                    break
            if first:
                break
        report.add("poisson-chi-relations", f"direction {direction}",
                   first is None,
                   None if first is None else f"chi{first[0]}, chi{first[1]}")
        report.add("poisson-antisymmetry", f"direction {direction}",
                   data.is_antisymmetric())
        failure = data.first_jacobi_failure()
        report.add("poisson-jacobi", f"direction {direction}, 35 triples",
                   failure is None,
                   None if failure is None else f"triple {failure[:3]}")

    # Jacobi for a rational-weighted combination of the three directions.
    weights = (Fraction(1), Fraction(2), Fraction(-3))
    combined: dict[tuple[int, int], dict[int, Fraction]] = {}
    for data, w in zip(datas, weights):
        for key, vec in data.constants.items():
            acc = combined.setdefault(key, {})
            for k, c in vec.items():
                acc[k] = acc.get(k, 0) + w * c
    combo = LieData(names=tuple(f"chi{i}" for i in range(1, 8)),
                    constants={key: {k: c for k, c in vec.items() if c}
                               for key, vec in combined.items()
                               if any(vec.values())})
    failure = combo.first_jacobi_failure()
    report.add("poisson-jacobi", f"weights {tuple(map(str, weights))}",
               failure is None,
               None if failure is None else f"triple {failure[:3]}")

    # Leibniz rule against the constant-term product on a small grid: each
    # star commutator [u, v] and [u, v w] once, read per direction.
    small = _dual_monomials(1, trunc)
    n = len(small)
    triples = list(product(range(n), repeat=3))
    comm = [[star_commutator(u, v) for v in small] for u in small]
    comm_vw = [star_commutator(small[i], classical_product(small[j], small[k]))
               for i, j, k in triples]
    first = None
    for direction in (1, 2, 3):
        bracket = [[h_coefficient(c, direction) for c in line]
                   for line in comm]
        for (i, j, k), c in zip(triples, comm_vw):
            lhs = h_coefficient(c, direction)
            rhs = (classical_product(bracket[i][j], small[k])
                   + classical_product(small[j], bracket[i][k]))
            if lhs != rhs:
                first = (direction, small[i], small[j], small[k])
                break
        if first:
            break
    report.add("poisson-leibniz", f"{len(small) ** 3} triples per direction",
               first is None,
               None if first is None else
               f"dir {first[0]}: {first[1].to_text()}, {first[2].to_text()}, "
               f"{first[3].to_text()}")


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def verify_bialgebra_suite(params: DeformParams) -> VerificationReport:
    """Lie data, classical consistency, cocommutator extraction, bialgebra
    axioms, duality closure, the coboundary obstruction and the group law."""
    report = VerificationReport()
    rng = random.Random(RANDOM_SEED)
    n_random = 100
    L = nc_lie_data(params.alpha, params.beta, params.gamma)

    report.add("lie-antisymmetry", "structure constants", L.is_antisymmetric())
    failure = L.first_jacobi_failure()
    report.add("lie-jacobi", "35 triples", failure is None,
               None if failure is None else f"triple {failure[:3]}")

    gens = [make_generator(i, params) for i in range(7)]
    first = None
    for i in range(7):
        for j in range(7):
            got = classical_limit(commutator(gens[i], gens[j]))
            want = AlgebraElement.zero(params)
            for k, c in L.bracket_basis(i, j).items():
                want = want + gens[k].scale(c)
            if got != want:
                first = (i, j)
                break
        if first:
            break
    report.add("classical-consistency",
               "structure constants recovered from the engine", first is None,
               None if first is None else
               f"[{GENERATOR_NAMES[first[0]]},{GENERATOR_NAMES[first[1]]}]")

    # Extracted cocommutators against the displayed pattern:
    # delta_i(x) = (4 if x central else 2) * x wedge e_i.
    ex_trunc = max(params.trunc, 2)
    deltas = {}
    first = None
    for direction in (1, 2, 3):
        deltas[direction] = cocommutator_map(direction, ex_trunc)
        for idx, name in enumerate(GENERATOR_NAMES):
            weight = 4 if idx <= 2 else 2
            want = WedgeElement.wedge(idx, direction - 1, weight)
            if deltas[direction][name] != want and first is None:
                first = (direction, name)
    report.add("cocommutator-values", "all generators, all directions",
               first is None,
               None if first is None else f"direction {first[0]}, {first[1]}")

    for direction in (1, 2, 3):
        sub = bialgebra_axiom_check(deltas[direction], L)
        report.add(f"bialgebra-axioms", f"direction {direction}", sub.passed,
                   None if sub.passed else sub.failures()[0].counterexample)
    combo = sum_cocommutators((Fraction(1), Fraction(2), Fraction(-3)),
                              (deltas[1], deltas[2], deltas[3]))
    sub = bialgebra_axiom_check(combo, L)
    report.add("bialgebra-axioms", "weighted combination (1,2,-3)", sub.passed,
               None if sub.passed else sub.failures()[0].counterexample)

    first = None
    for direction in (1, 2, 3):
        from_delta = dual_lie_data_from_delta(deltas[direction])
        from_star = dual_structure_constants(direction)
        if from_delta != from_star:
            first = direction
            break
    report.add("duality-closure",
               "star-product constants match the cocommutator pairing",
               first is None,
               None if first is None else f"direction {first}")

    target = deltas[2]
    central = GENERATOR_NAMES[:3]
    first = None
    for k in range(n_random):
        r = WedgeElement({(i, j): _random_fraction(rng)
                          for i in range(7) for j in range(i + 1, 7)})
        delta_r, sub = coboundary_from_r(r, L, target)
        central_ok = all(not delta_r[name] for name in central)
        equals_target = all(c.passed for c in sub.checks
                            if c.name == "equals-target")
        if not central_ok or equals_target:
            first = (k, r)
            break
    report.add("coboundary-obstruction",
               f"{n_random} random candidates: central cocommutators vanish, "
               "target unreachable", first is None,
               None if first is None else f"candidate {first[0]}")

    first = None
    ident = group_identity()
    for k in range(n_random):
        g, h, f = (random_group_element(rng) for _ in range(3))
        left = group_compose(group_compose(g, h, params), f, params)
        right = group_compose(g, group_compose(h, f, params), params)
        if left != right:
            first = f"associativity #{k}"
            break
        if group_compose(g, ident, params) != g \
                or group_compose(ident, g, params) != g:
            first = f"identity #{k}"
            break
        if group_compose(g, group_inverse(g), params) != ident:
            first = f"inverse #{k}"
            break
    report.add("group-law", f"{n_random} random tuples", first is None, first)
    return report


def random_group_element(rng: random.Random):
    return GroupElement.make(
        _random_fraction(rng), _random_fraction(rng), _random_fraction(rng),
        (_random_fraction(rng), _random_fraction(rng)),
        (_random_fraction(rng), _random_fraction(rng)))


def verify_all(params: DeformParams, maxdeg: int = 2,
               heisenberg_degree: int = 3) -> VerificationReport:
    report = VerificationReport()
    report.extend(verify_hopf_axioms(maxdeg, params))
    report.extend(verify_star_suite(min(maxdeg, 2)))
    report.extend(verify_bialgebra_suite(params))
    report.extend(heisenberg_limit_report(heisenberg_degree))
    return report
