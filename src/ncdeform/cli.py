"""Command-line front-end.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 expression
or usage error, 3 invalid parameters.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .algebra import (AlgebraElement, DeformParams, InvalidParamsError,
                      commutator, normal_order_mul, phi_automorphism,
                      to_z_basis)
from .bialgebra import GroupElement, group_compose, group_inverse
from .dual import DualElement, poisson_bracket_dir, star_closed, \
    star_oracle_element
from .hopf import antipode, coproduct, counit, heisenberg_limit_report, \
    verify_hopf_axioms
from .parser import ExpressionError, is_dual_expression, parse_expression
from .render import (dual_to_json, dual_to_text, element_to_json,
                     element_to_text, group_to_json, group_to_text,
                     tensor_to_json, tensor_to_text, zmap_to_json,
                     zmap_to_text)
from .series import parse_rational
from .suites import verify_all, verify_bialgebra_suite, verify_star_suite

DEFAULTS = {"alpha": "1", "beta": "1", "gamma": "1",
            "trunc": "2", "format": "text", "cap": "6"}

#: Largest `verify --maxdeg`: the generator degree of the Hopf grid that the
#: acceptance suite proves.  The grids grow as C(N + 7, 7) monomials (and
#: the star cube as their cube), so the bound is checked before any work.
MAX_VERIFY_DEGREE = 3


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

    for name, nargs in (("mul", 2), ("comm", 2), ("coproduct", 1),
                        ("counit", 1), ("antipode", 1), ("phi", 1),
                        ("zbasis", 1)):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("exprs", nargs=nargs, metavar="EXPR")

    p = sub.add_parser("star", parents=[common])
    p.add_argument("exprs", nargs=2, metavar="DUAL_EXPR")
    p = sub.add_parser("staroracle", parents=[common])
    p.add_argument("exprs", nargs=2, metavar="DUAL_EXPR")
    p.add_argument("--cap", type=int, default=None,
                   help="enumeration cap |S|+|T| for the pairing oracle; "
                        "at least |a|+|b|+trunc for every term pair")
    p = sub.add_parser("poisson", parents=[common])
    p.add_argument("exprs", nargs=2, metavar="DUAL_EXPR")
    p.add_argument("--dir", type=int, choices=(1, 2, 3), required=True)

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
                        "report, at most the configured cap")
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
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _settings(args) -> tuple[DeformParams, str, int]:
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
    cap = int(values["cap"])
    if trunc > cap:
        raise InvalidParamsError(
            f"truncation {trunc} exceeds the configured cap {cap}")
    params = DeformParams(parse_rational(values["alpha"]),
                          parse_rational(values["beta"]),
                          parse_rational(values["gamma"]), trunc)
    if values["format"] not in ("text", "json"):
        raise InvalidParamsError(f"unknown format {values['format']!r}")
    return params, values["format"], cap


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _render(value, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(value[1])
    return value[0]


def _eval_primal(text: str, params: DeformParams) -> AlgebraElement:
    node = parse_expression(text)
    if is_dual_expression(node):
        raise ExpressionError("this command expects a primal expression")
    from .parser import evaluate_primal
    return evaluate_primal(node, params)


def _eval_dual(text: str, params: DeformParams) -> DualElement:
    node = parse_expression(text)
    from .parser import classify, evaluate_dual
    if "primal" in classify(node):
        raise ExpressionError("this command expects a dual expression")
    return evaluate_dual(node, params.trunc)


def _dispatch(args) -> int:
    params, fmt, trunc_cap = _settings(args)

    if args.command == "mul":
        x = _eval_primal(args.exprs[0], params)
        y = _eval_primal(args.exprs[1], params)
        out = normal_order_mul(x, y)
        _emit(args, _render((element_to_text(out), element_to_json(out)), fmt))
        return 0
    if args.command == "comm":
        x = _eval_primal(args.exprs[0], params)
        y = _eval_primal(args.exprs[1], params)
        out = commutator(x, y)
        _emit(args, _render((element_to_text(out), element_to_json(out)), fmt))
        return 0
    if args.command == "coproduct":
        out = coproduct(_eval_primal(args.exprs[0], params))
        _emit(args, _render((tensor_to_text(out), tensor_to_json(out)), fmt))
        return 0
    if args.command == "counit":
        out = counit(_eval_primal(args.exprs[0], params))
        _emit(args, _render((out.to_text(), out.to_json()), fmt))
        return 0
    if args.command == "antipode":
        out = antipode(_eval_primal(args.exprs[0], params))
        _emit(args, _render((element_to_text(out), element_to_json(out)), fmt))
        return 0
    if args.command == "phi":
        out = phi_automorphism(_eval_primal(args.exprs[0], params))
        _emit(args, _render((element_to_text(out), element_to_json(out)), fmt))
        return 0
    if args.command == "zbasis":
        out = to_z_basis(_eval_primal(args.exprs[0], params))
        _emit(args, _render((zmap_to_text(out), zmap_to_json(out)), fmt))
        return 0
    if args.command == "star":
        u = _eval_dual(args.exprs[0], params)
        v = _eval_dual(args.exprs[1], params)
        out = star_closed(u, v)
        _emit(args, _render((dual_to_text(out), dual_to_json(out)), fmt))
        return 0
    if args.command == "staroracle":
        if args.cap is not None and args.cap < 0:
            raise InvalidParamsError(f"--cap must be >= 0, got {args.cap}")
        u = _eval_dual(args.exprs[0], params)
        v = _eval_dual(args.exprs[1], params)
        out = star_oracle_element(u, v, params, args.cap)
        _emit(args, _render((dual_to_text(out), dual_to_json(out)), fmt))
        return 0
    if args.command == "poisson":
        u = _eval_dual(args.exprs[0], params)
        v = _eval_dual(args.exprs[1], params)
        out = poisson_bracket_dir(u, v, args.dir)
        _emit(args, _render((dual_to_text(out), dual_to_json(out)), fmt))
        return 0
    if args.command == "group":
        elements = [GroupElement.from_text(g) for g in args.elements]
        if args.action == "compose":
            if len(elements) != 2:
                raise ExpressionError("group compose expects two elements")
            out = group_compose(elements[0], elements[1], params)
        else:
            if len(elements) != 1:
                raise ExpressionError("group inverse expects one element")
            out = group_inverse(elements[0], params)
        _emit(args, _render((group_to_text(out), group_to_json(out)), fmt))
        return 0
    if args.command == "verify":
        for flag, bound in (("--maxdeg", args.maxdeg), ("--deg", args.deg)):
            if bound < 0:
                raise InvalidParamsError(f"{flag} must be >= 0, got {bound}")
        if args.maxdeg > MAX_VERIFY_DEGREE:
            raise InvalidParamsError(
                f"--maxdeg {args.maxdeg} exceeds the bound {MAX_VERIFY_DEGREE}")
        if args.deg > trunc_cap:
            # --deg is the truncation order of the one-parameter limit report.
            raise InvalidParamsError(
                f"--deg {args.deg} exceeds the configured cap {trunc_cap}")
        if args.what == "hopf":
            report = verify_hopf_axioms(args.maxdeg, params)
        elif args.what == "star":
            report = verify_star_suite(args.maxdeg)
        elif args.what == "bialgebra":
            report = verify_bialgebra_suite(params)
        elif args.what == "heisenberg":
            report = heisenberg_limit_report(args.deg)
        else:
            report = verify_all(params, args.maxdeg, args.deg)
        _emit(args, _render((report.to_text(), report.to_json()), fmt))
        return 0 if report.passed else 1
    raise AssertionError(f"unhandled command {args.command}")


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
