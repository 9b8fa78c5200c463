"""Command-line front-end.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 expression
or usage error, 3 invalid parameters.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .algebra import (DeformParams, InvalidParamsError, commutator,
                      normal_order_mul, phi_automorphism, to_z_basis)
from .bialgebra import GroupElement, group_compose, group_inverse
from .dual import (oracle_targets, poisson_bracket_dir, star_closed,
                   star_oracle_element)
from .hopf import antipode, coproduct, counit, heisenberg_limit_report, \
    verify_hopf_axioms
from .parser import (ExpressionError, check_degree, check_pairs, classify,
                     degree, evaluate_dual, evaluate_primal, parse_expression)
from .render import (dual_to_json, dual_to_text, element_to_json,
                     element_to_text, group_to_json, group_to_text,
                     tensor_to_json, tensor_to_text, zmap_to_json,
                     zmap_to_text)
from .report import VerificationReport
from .series import SeriesScalar, parse_rational
from .suites import verify_all, verify_bialgebra_suite, verify_star_suite

#: The config-file keys, with their values when neither a config file nor
#: a flag sets them.  Any other key exits 3.
DEFAULTS = {"alpha": "1", "beta": "1", "gamma": "1",
            "trunc": "2", "format": "text"}

#: Largest truncation order: `--trunc`, and `--deg` of `verify heisenberg`
#: and `verify all`.  Every table grows steeply with it.
MAX_TRUNC = 6

#: Largest `verify --maxdeg`: the generator degree of the Hopf grid that the
#: acceptance suite proves.  The grids grow as C(N + 7, 7) monomials (and
#: the star cube as their cube), so the bound is checked before any work.
MAX_VERIFY_DEGREE = 3

#: The largest `--maxdeg` of `verify hopf` and `verify all` at each
#: truncation order 0..5; a higher order is refused.  The Hopf grid's cost
#: grows steeply with both (`--maxdeg 0 --trunc 6` took 27.5 s and 824 MB),
#: so the bound is checked before any work.  The costliest grid admitted
#: at each order, `verify hopf` timed cold (whole process, three runs) on
#: a 2-vCPU host with Python 3.11: `--maxdeg 3` at 0 0.1-0.2 s, at 1
#: 0.2 s, at 2 0.2-0.3 s, at 3 0.4 s and at 4 1.1-1.3 s (55 MB);
#: `--maxdeg 2` at 5 1.4-1.5 s (68 MB).  `--maxdeg 3` at 5 took 2.8-2.9 s
#: and 103 MB; it stays refused, as admitting a larger grid is a decision
#: of its own.  The shared host's speed drifts by up to a half within an
#: hour.  `verify all` adds about 1 s to each (`--trunc` 3 and 4).
HOPF_GRID_DEGREES = (3, 3, 3, 3, 3, 2)

#: The largest `verify star --maxdeg`: the norm-3 grid took 7.1-7.6 s and
#: 76 MB of peak memory in process on a 2-vCPU host with Python 3.11, 6.0-
#: 6.4 s of it in the associativity cube; it stays refused, as admitting a
#: larger grid is a decision of its own.  `verify all` runs the star grid at
#: min(maxdeg, 2).
MAX_STAR_DEGREE = 2

#: Most work one `staroracle` may do at truncation 1, counted before any
#: table is built (dual.oracle_targets): the targets Z^S X^T of each term
#: pair's support, each weighed by |S| + 1, times the classical splits of
#: their X part.  One unit costs about four times as much per order of
#: truncation, so the bound is weighed by it (oracle_target_bound).  The
#: costliest products admitted at each order, timed cold (whole process,
#: of which starting Python and importing ncdeform is 0.15-0.17 s) on a
#: 2-vCPU host with Python 3.11: `Y[32,0,0,0] * Y[22,5,5,0]` at 0 (1980 of
#: 2048) 0.13-0.20 s, `W[1,0,0]*Y[31,0,0,0] * Y[32,0,0,0]` at 1 (448)
#: 0.19-0.30 s, `Y[7,0,0,0] * Y[0,15,0,0]` at 2 (128) 0.14-0.24 s and
#: `W[1,0,0] * Y[17,0,0,0]` (126) 0.14-0.21 s, `Y[31,0,0,0] * 1` at 3 (32)
#: 0.22-0.34 s, `x1 * 1` at 4 (7) 0.13-0.19 s, `1 * x4` at 5 (2) 0.13-0.20
#: s; at 6 the bound is 0.  An operand's index norm counts toward the
#: degree bound (parser.degree), so `Y[44,0,0,0] * Y[0,44,0,0]` at 0 is
#: refused before it is counted.  The weight |S| + 1 stays, though a Z
#: letter adds only one link to a chain whose Q/P links the targets of one
#: T share: weighed 1 per target, `W[11,0,0] * W[0,0,10]` at 0 (2024
#: units, 33,902 weighed) and `W[6,0,0] * W[0,0,6]` at 1 (455, 4550
#: weighed) would be admitted, and they take 1.3-1.8 s and 0.41-0.48 s in
#: process.
MAX_ORACLE_TARGETS = 512


def oracle_target_bound(trunc: int) -> int:
    """Most work one `staroracle` may do at a truncation order, in the units
    of dual.oracle_targets: MAX_ORACLE_TARGETS * 4**(1 - trunc), 2048 at 0
    and 32 at 3."""
    return MAX_ORACLE_TARGETS * 4 // 4 ** trunc


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser.  Parsing does not change it, so it is built
    once per process instead of once per call of main()."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alpha", help="deformation parameter alpha (rational, nonzero)")
    common.add_argument("--beta", help="deformation parameter beta (rational)")
    common.add_argument("--gamma", help="deformation parameter gamma (rational)")
    common.add_argument("--trunc", type=int, help="series truncation order")
    common.add_argument("--format", choices=("text", "json"), dest="fmt")
    common.add_argument("--config", help="flat key=value configuration file")
    common.add_argument("--out", help="write output to this file instead of stdout")

    top = argparse.ArgumentParser(
        prog="ncdeform",
        description="Exact engine for the three-parameter deformed "
                    "enveloping algebra, its Hopf structure, the dual star "
                    "product and the induced Lie bialgebra.")
    sub = top.add_subparsers(dest="command", required=True)

    for name, (kind, arity, *_) in _commands(None).items():
        p = sub.add_parser(name, parents=[common])
        p.add_argument("exprs", nargs=arity,
                       metavar="EXPR" if kind == "primal" else "DUAL_EXPR")
    sub.choices["poisson"].add_argument("--dir", type=int, choices=(1, 2, 3),
                                        required=True)

    p = sub.add_parser("group", parents=[common])
    p.add_argument("action", choices=("compose", "inverse"))
    p.add_argument("elements", nargs="+", metavar="G")

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("what", choices=("hopf", "star", "bialgebra",
                                    "heisenberg", "all"))
    p.add_argument("--maxdeg", type=int, default=2,
                   help="generator-degree / index-norm bound for the grids, "
                        f"at most {MAX_VERIFY_DEGREE}")
    p.add_argument("--deg", type=int, default=3,
                   help="h-degree (truncation) for the one-parameter limit "
                        f"report, at most {MAX_TRUNC}")
    return top


def _load_config(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidParamsError(f"bad config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in DEFAULTS:
                raise InvalidParamsError(f"unknown config key {key!r}")
            out[key] = value
    return out


def _settings(args) -> tuple[DeformParams, str]:
    values = dict(DEFAULTS)
    if args.config:
        values.update(_load_config(args.config))
    for key, attr in (("alpha", "alpha"), ("beta", "beta"),
                      ("gamma", "gamma"), ("format", "fmt")):
        flag = getattr(args, attr, None)
        if flag is not None:
            values[key] = flag
    if getattr(args, "trunc", None) is not None:
        values["trunc"] = str(args.trunc)
    trunc = int(values["trunc"])
    if trunc > MAX_TRUNC:
        raise InvalidParamsError(
            f"truncation {trunc} exceeds the bound {MAX_TRUNC}")
    params = DeformParams(parse_rational(values["alpha"]),
                          parse_rational(values["beta"]),
                          parse_rational(values["gamma"]), trunc)
    if values["format"] not in ("text", "json"):
        raise InvalidParamsError(f"unknown format {values['format']!r}")
    return params, values["format"]


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _operand(text: str, kind: str, params: DeformParams) -> tuple:
    """Parse text and evaluate it as a "primal" or a "dual" expression:
    (AST, value)."""
    node = parse_expression(text)
    other = "dual" if kind == "primal" else "primal"
    if other in classify(node):
        raise ExpressionError(f"this command expects a {kind} expression")
    if kind == "primal":
        return node, evaluate_primal(node, params)
    return node, evaluate_dual(node, params.trunc)


def _commands(args) -> dict:
    """One row per command that maps its operands to one value: operand
    kind, number of operands, operation, and the value's (text, JSON)
    renderers.  args is read only when an operation runs.  Built per call,
    so that it reads this module's names as bound at that time."""
    element = (element_to_text, element_to_json)
    dual = (dual_to_text, dual_to_json)
    return {
        "mul": ("primal", 2, normal_order_mul, element),
        "comm": ("primal", 2, commutator, element),
        "coproduct": ("primal", 1, coproduct, (tensor_to_text, tensor_to_json)),
        "counit": ("primal", 1, counit,
                   (SeriesScalar.to_text, SeriesScalar.to_json)),
        "antipode": ("primal", 1, antipode, element),
        "phi": ("primal", 1, phi_automorphism, element),
        "zbasis": ("primal", 1, to_z_basis, (zmap_to_text, zmap_to_json)),
        "star": ("dual", 2, star_closed, dual),
        "staroracle": ("dual", 2, _star_oracle, dual),
        "poisson": ("dual", 2,
                    lambda u, v: poisson_bracket_dir(u, v, args.dir), dual),
    }


def _star_oracle(u, v):
    targets, bound = oracle_targets(u, v), oracle_target_bound(u.trunc)
    if targets > bound:
        raise ExpressionError(
            f"the pairing oracle would build {targets} target splits, more "
            f"than the bound of {bound} at truncation {u.trunc}")
    return star_oracle_element(u, v)


def _dispatch(args) -> int:
    params, fmt = _settings(args)
    for flag in ("maxdeg", "deg"):  # before any operand is parsed
        bound = getattr(args, flag, None)
        if bound is not None and bound < 0:
            raise InvalidParamsError(f"--{flag} must be >= 0, got {bound}")
    status = 0
    if args.command == "group":
        elements = [GroupElement.from_text(g) for g in args.elements]
        if args.action == "compose":
            if len(elements) != 2:
                raise ExpressionError("group compose expects two elements")
            out = group_compose(elements[0], elements[1], params)
        else:
            if len(elements) != 1:
                raise ExpressionError("group inverse expects one element")
            out = group_inverse(elements[0])
        render = (group_to_text, group_to_json)
    elif args.command == "verify":
        if args.maxdeg > MAX_VERIFY_DEGREE:
            raise InvalidParamsError(
                f"--maxdeg {args.maxdeg} exceeds the bound {MAX_VERIFY_DEGREE}")
        if args.what == "star" and args.maxdeg > MAX_STAR_DEGREE:
            raise InvalidParamsError(f"--maxdeg {args.maxdeg} exceeds the "
                                     f"bound {MAX_STAR_DEGREE} of verify star")
        if args.what in ("hopf", "all"):
            trunc = params.trunc
            if trunc >= len(HOPF_GRID_DEGREES):
                raise InvalidParamsError(
                    f"truncation {trunc} exceeds the bound "
                    f"{len(HOPF_GRID_DEGREES) - 1} of verify {args.what}")
            if args.maxdeg > HOPF_GRID_DEGREES[trunc]:
                raise InvalidParamsError(
                    f"--maxdeg {args.maxdeg} exceeds the bound "
                    f"{HOPF_GRID_DEGREES[trunc]} of verify {args.what} at "
                    f"truncation {trunc}")
        if args.deg > MAX_TRUNC:
            # --deg is the truncation order of the one-parameter limit report.
            raise InvalidParamsError(
                f"--deg {args.deg} exceeds the bound {MAX_TRUNC}")
        out = {"hopf": lambda: verify_hopf_axioms(args.maxdeg, params),
               "star": lambda: verify_star_suite(args.maxdeg),
               "bialgebra": lambda: verify_bialgebra_suite(params),
               "heisenberg": lambda: heisenberg_limit_report(args.deg),
               "all": lambda: verify_all(params, args.maxdeg, args.deg),
               }[args.what]()
        render = (VerificationReport.to_text, VerificationReport.to_json)
        status = 0 if out.passed else 1
    else:
        kind, arity, operation, render = _commands(args)[args.command]
        nodes, operands = zip(*(_operand(text, kind, params)
                                for text in args.exprs))
        if arity == 2:
            check_pairs(*operands)
            if kind == "primal":
                # One pair contracts a word of both operands' degree.
                check_degree(sum(map(degree, nodes)))
        out = operation(*operands)
    to_text, to_json = render
    _emit(args, json.dumps(to_json(out)) if fmt == "json" else to_text(out))
    return status


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except ExpressionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidParamsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
