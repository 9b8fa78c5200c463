import contextlib
import hashlib
import io
import json
import shlex
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdeform import DualElement, cli
from ncdeform.dual import oracle_targets
from ncdeform.cli import (MAX_ORACLE_TARGETS, MAX_TRUNC, MAX_VERIFY_DEGREE,
                          build_parser, main, oracle_target_bound)
from ncdeform.parser import MAX_EXPONENT, MAX_PAIRS, MAX_TERMS
from ncdeform.report import VerificationReport

DATA = Path(__file__).resolve().parent / "data"
README = Path(__file__).resolve().parent.parent / "README.md"
BENCH = Path(__file__).resolve().parent.parent / "bench"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_comm_example(capsys):
    code, out, _ = run(capsys, "comm", "Q1", "P1", "--alpha", "1",
                       "--trunc", "1")
    assert code == 0
    assert out == "Th\n"


def test_mul_shows_reordering(capsys):
    code, out, _ = run(capsys, "mul", "P1", "Q1", "--alpha", "1",
                       "--trunc", "0")
    assert code == 0
    assert out == "Q1*P1 - Th\n"


def test_alpha_zero_exit_code(capsys):
    code, _, err = run(capsys, "mul", "Q1", "P1", "--alpha", "0",
                       "--trunc", "1")
    assert code == 3
    assert "alpha" in err


def test_trunc_cap_exit_code(capsys):
    code, _, err = run(capsys, "mul", "Q1", "P1", "--trunc", "9")
    assert code == 3
    assert "exceeds the bound" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "comm", "Q1*", "P1", "--trunc", "1")
    assert code == 2
    assert "error" in err


def test_mixed_tokens_exit_code(capsys):
    code, _, err = run(capsys, "mul", "Q1*W[1,0,0]", "P1", "--trunc", "1")
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_counit_antipode_phi(capsys):
    assert run(capsys, "counit", "lambda", "--trunc", "2")[1] == "1\n"
    assert run(capsys, "antipode", "Q1", "--trunc", "1")[1] == "-Q1\n"
    assert run(capsys, "phi", "Q1", "--trunc", "1")[1] == "Q1\n"


def test_zbasis(capsys):
    code, out, _ = run(capsys, "zbasis", "Q1*Q2", "--trunc", "1")
    assert code == 0
    assert out == "X[1,1,0,0]\n"


def test_star_and_poisson(capsys):
    code, out, _ = run(capsys, "star", "x4", "x1", "--trunc", "2")
    assert code == 0
    assert out == "h1*Y[1,0,0,0] + W[1,0,0]*Y[1,0,0,0]\n"
    code, out, _ = run(capsys, "poisson", "x1", "x2", "--dir", "2",
                       "--trunc", "1")
    assert code == 0
    assert out == "4*W[1,0,0]\n"


def test_poisson_refuses_truncation_0(capsys):
    # Truncation 0 discards the h_i coefficient that is the bracket, so
    # x1 x4 read a wrong 0 where --trunc 1 gives -2*Y[1,0,0,0].
    code, out, err = run(capsys, "poisson", "x1", "x4", "--dir", "1",
                         "--trunc", "0")
    assert (code, out) == (3, "")
    assert "truncation >= 1" in err


def test_staroracle_matches_star(capsys):
    for trunc in ("1", "3"):
        _, star_out, _ = run(capsys, "star", "x4", "x1", "--trunc", trunc)
        start = time.perf_counter()
        code, oracle_out, _ = run(capsys, "staroracle", "x4", "x1",
                                  "--trunc", trunc)
        assert time.perf_counter() - start < 1, trunc
        assert (code, oracle_out) == (0, star_out), trunc


def test_staroracle_has_no_cap_option(capsys):
    # The oracle walks each term pair's support, so no enumeration cap is
    # left to set.
    code, out, err = run(capsys, "staroracle", "x4", "x1", "--trunc", "1",
                         "--cap", "3")
    assert (code, out) == (2, "")
    assert "--cap" in err


def test_group_commands(capsys):
    code, out, _ = run(capsys, "group", "compose", "0,0,0,1,0,0,0",
                       "0,0,0,0,0,1,0", "--alpha", "2")
    assert code == 0
    assert out == "1,0,0,1,0,1,0\n"
    code, out, _ = run(capsys, "group", "inverse", "1,0,0,1,0,1,0")
    assert code == 0
    assert out == "-1,0,0,-1,0,-1,0\n"


def test_json_format(capsys):
    code, out, _ = run(capsys, "comm", "Q1", "P1", "--alpha", "2",
                       "--trunc", "0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"terms": [{"exp": [1, 0, 0, 0, 0, 0, 0],
                               "coeff": [{"h": [0, 0, 0], "c": "1/2"}]}]}


def test_deterministic_output(capsys):
    first = run(capsys, "coproduct", "Q1*P1", "--trunc", "2")
    second = run(capsys, "coproduct", "Q1*P1", "--trunc", "2")
    assert first == second


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code, out, _ = run(capsys, "comm", "Q1", "P1", "--trunc", "1",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "Th\n"


@pytest.mark.parametrize("line", ["cap=60", "trunk=1"])
def test_config_rejects_an_unknown_key(tmp_path, capsys, line):
    # The truncation bound is MAX_TRUNC, not a config key: an old cap=
    # line, like a misspelt key, exits 3 instead of being ignored.
    cfg = tmp_path / "engine.cfg"
    cfg.write_text(f"alpha=2\n{line}\n")
    code, out, err = run(capsys, "coproduct", "Q1", "--trunc", "1",
                         "--config", str(cfg))
    assert (code, out) == (3, "")
    assert repr(line.split("=")[0]) in err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("alpha=2\ntrunc=1\n")
    code, out, _ = run(capsys, "comm", "Q1", "P1", "--config", str(cfg))
    assert code == 0
    assert out == "(1/2)*Th\n"
    code, out, _ = run(capsys, "comm", "Q1", "P1", "--config", str(cfg),
                       "--alpha", "1")
    assert out == "Th\n"


def test_verify_heisenberg(capsys):
    code, out, _ = run(capsys, "verify", "heisenberg", "--deg", "3")
    assert code == 0
    assert "ALL PASS" in out


def test_verify_hopf_small(capsys):
    code, out, _ = run(capsys, "verify", "hopf", "--maxdeg", "1",
                       "--trunc", "1")
    assert code == 0
    assert "ALL PASS" in out


def test_verify_bialgebra(capsys):
    code, out, _ = run(capsys, "verify", "bialgebra", "--trunc", "2")
    assert code == 0
    assert "ALL PASS" in out


def test_verify_all(capsys):
    # The whole report, byte for byte, including the four h^3 differences
    # of the non-gating closed-vs-oracle diagnostic.
    code, out, _ = run(capsys, "verify", "all", "--trunc", "2",
                       "--maxdeg", "2")
    assert code == 0
    assert out == (DATA / "verify_all.txt").read_text()


def test_verify_hopf_grid_of_the_benchmark(capsys):
    # The input of the benchmark's hopf_grid workload, whose report the
    # benchmark checks only by its count of 408 checks: text and JSON are
    # pinned byte for byte by their sha256.
    digests = []
    for fmt in ([], ["--format", "json"]):
        code, out, _ = run(capsys, "verify", "hopf", "--maxdeg", "3",
                           "--trunc", "3", "--alpha", "2", "--beta", "1/2",
                           "--gamma=-3", *fmt)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert digests == [
        "7d625e5dedfa5771af80f23f049d664c37cd700b78dfe1f1ccb3bef8c9035517",
        "80badd7093f8ccf595335391971146adc399848e14697f7c36abd9381a23f4a3"]


def readme_commands() -> list[list[str]]:
    """argv of every command in the README's "Command line" block."""
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```\n", 2)[1]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.strip()]


def test_readme_commands(capsys):
    # Stdout and exit code of each README command, as text and as JSON,
    # byte for byte.
    transcript = []
    for argv in readme_commands():
        for fmt in ([], ["--format", "json"]):
            code, out, _ = run(capsys, *argv, *fmt)
            transcript.append(f"$ ncdeform {shlex.join(argv + fmt)}\n"
                              f"{out}[exit {code}]\n")
    assert len(transcript) == 30
    assert "".join(transcript) == (DATA / "readme_commands.txt").read_text()


def test_query_mix_digest_of_seed_0(monkeypatch):
    # The benchmark's query_mix stream of seed 0, run in this process and
    # digested as bench/workload.py does, must give its recorded digest:
    # a wrong output of any query fails here, in the tier-1 suite, and not
    # first in a benchmark run.  bench/ is only read.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import queries
    recorded = json.loads((BENCH / "expected.json").read_text())["query_mix"]
    digest = hashlib.sha256()
    codes = []
    for argv in queries.generate(0):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        codes.append(rc)
        digest.update("\x1f".join(argv).encode())
        digest.update(f"\x1e{rc}\x1e{out.getvalue()}\x1d".encode())
    assert codes == [0] * recorded["queries"]
    assert digest.hexdigest() == recorded["digests"]["0"]


def test_verify_star_json_report(capsys):
    code, out, _ = run(capsys, "verify", "star", "--maxdeg", "1",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    names = {c["name"] for c in report["checks"]}
    assert "star-oracle-gate" in names
    diags = [c for c in report["checks"] if c.get("diagnostic")]
    assert diags, "deep diagnostic entries should be present"


@pytest.mark.parametrize("target", ["hopf", "star", "all"])
@pytest.mark.parametrize("flag", ["--maxdeg", "--deg"])
def test_verify_rejects_negative_bounds(capsys, target, flag):
    code, out, err = run(capsys, "verify", target, flag, "-1")
    assert code == 3
    assert out == ""
    assert flag in err


def test_staroracle_target_bound_exits_in_time(capsys):
    # The work is counted before any table is built.  The last two ran for
    # 1.8 s and over 200 s, the last one on a single target: the count
    # weighs the classical splits of each target's X part too.
    square = "(x1+x2+x3+x4+x5+x6+x7)^2"
    for argv in ((square, square, "--trunc", "1"),
                 ("W[11,0,0]", "W[0,0,10]", "--trunc", "0"),
                 ("W[21,0,0]", "1", "--trunc", "0"),
                 ("Y[16,0,0,0]", "Y[0,16,0,0]", "--trunc", "3"),
                 ("Y[16,16,0,0]", "Y[0,0,16,16]", "--trunc", "3")):
        start = time.perf_counter()
        code, out, err = run(capsys, "staroracle", *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (2, ""), argv
        assert "target splits" in err
        assert f"bound of {oracle_target_bound(int(argv[-1]))} " in err
    # Four pairs of 14 or 25 weighed target splits each stay within the
    # bound.
    code, out, _ = run(capsys, "staroracle", "x1+x2", "x3-x4", "--trunc", "1")
    assert code == 0 and out


def test_staroracle_counts_a_dual_atom_by_its_index_norm(capsys):
    # Y[n,0,0,0] is x4^n/n!, of degree n.  Counted as one letter, the first
    # three died with RecursionError and the last ran for 1.3 s.
    for argv in (("Y[600,0,0,0]", "1", "--trunc", "0"),
                 ("Y[2047,0,0,0]", "1", "--trunc", "0"),
                 ("Y[511,0,0,0]", "1", "--trunc", "1"),
                 ("Y[127,0,0,0]", "1", "--trunc", "2")):
        start = time.perf_counter()
        code, out, err = run(capsys, "staroracle", *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (2, ""), argv
        assert "generator degree" in err
    code, out, _ = run(capsys, "staroracle", "Y[32,0,0,0]", "Y[0,32,0,0]",
                       "--trunc", "0")
    assert code == 0 and out


@pytest.mark.parametrize("argv", [
    ("x1", "x4", "--trunc", "5"),
    ("W[1,1,0]", "W[0,1,1]*Y[1,0,0,0]", "--trunc", "4"),
])
def test_staroracle_bound_weighs_the_truncation(capsys, argv):
    # 7 * 2 = 14 and 140 * 2 = 280 weighed target splits (|S| <= 1 and
    # |S| <= 4): within the bound of 512 at truncation 1, but one unit of
    # work costs about four times as much per order, and these ran for
    # 1.3 s and 7.2 s.
    work = {"x1": 14, "W[1,1,0]": 280}[argv[0]]
    start = time.perf_counter()
    code, out, err = run(capsys, "staroracle", *argv)
    assert time.perf_counter() - start < 1, argv
    assert (code, out) == (2, ""), argv
    bound = oracle_target_bound(int(argv[-1]))
    assert f"{work} target splits" in err and f"bound of {bound} " in err
    assert work <= MAX_ORACLE_TARGETS


def test_staroracle_bound_weighs_the_z_letters():
    # A target Z^S X^T weighs |S| + 1: W[11,0,0] * W[0,0,10] has the
    # 2,024 targets of |S| <= 21, which ran for 3.4 s; Y[44,0,0,0] *
    # Y[0,44,0,0] has one target of 2,025 splits, which runs in 0.2 s.
    def work(a, b):
        return oracle_targets(DualElement.monomial(*a, 0),
                              DualElement.monomial(*b, 0))

    assert work(((11, 0, 0), (0,) * 4), ((0, 0, 10), (0,) * 4)) == 33902
    assert work(((0,) * 3, (44, 0, 0, 0)), ((0,) * 3, (0, 44, 0, 0))) == 2025
    assert oracle_target_bound(0) == 2048
    # Every x_i x_j, which query streams send at truncation 1, is admitted.
    units = [((1, 0, 0), (0,) * 4), ((0, 1, 0), (0,) * 4),
             ((0, 0, 1), (0,) * 4)] + [((0,) * 3, y) for y in (
                 (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    assert max(oracle_targets(DualElement.monomial(*a, 1),
                              DualElement.monomial(*b, 1))
               for a in units for b in units) == 25 <= oracle_target_bound(1)


def test_staroracle_bound_per_truncation(capsys):
    assert [oracle_target_bound(t) for t in range(MAX_TRUNC + 1)] == [
        2048, 512, 128, 32, 8, 2, 0]
    assert oracle_target_bound(1) == MAX_ORACLE_TARGETS
    # More work than MAX_ORACLE_TARGETS is admitted at truncation 0:
    # 7 * 3 * 3 * 3 * 3 = 567 weighed target splits here (|S| <= 1).
    argv = ("x1*x4*x5*x6*x7", "x4*x5*x6*x7")
    code, out, _ = run(capsys, "staroracle", *argv, "--trunc", "0")
    assert code == 0 and out
    code, out, err = run(capsys, "staroracle", *argv, "--trunc", "1")
    assert (code, out) == (2, "") and "567 target splits" in err
    code, out, _ = run(capsys, "staroracle", "1", "x4", "--trunc", "5")
    assert (code, out) == (0, "Y[1,0,0,0]\n")
    code, out, err = run(capsys, "staroracle", "1", "1", "--trunc", "6")
    assert (code, out) == (2, "") and "bound of 0 " in err


def test_huge_exponent_exits_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "mul", "Q1^99999999", "Q1", "--trunc", "0")
    assert code == 2
    assert out == ""
    assert "exponent" in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("target", ["hopf", "star", "all"])
def test_verify_rejects_maxdeg_above_bound(capsys, target):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", target, "--maxdeg",
                         str(MAX_VERIFY_DEGREE + 1))
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert "--maxdeg" in err


@pytest.mark.parametrize("argv", [
    ["hopf", "--maxdeg", "0", "--trunc", "6"],
    ["all", "--trunc", "6"],
    ["hopf", "--maxdeg", "3", "--trunc", "5"],
    ["star", "--maxdeg", "3"],
], ids=" ".join)
def test_verify_grids_bounded_by_their_cost(capsys, argv):
    # Each of these ran for 27-61 s; the bound is checked before any work.
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert "exceeds the bound" in err


@pytest.mark.parametrize("argv", [
    ["hopf", "--maxdeg", "2", "--trunc", "5"],
    ["hopf", "--maxdeg", "3", "--trunc", "4"],
    # `verify all` runs the star grid at min(maxdeg, 2).
    ["all", "--maxdeg", "3"],
], ids=" ".join)
def test_verify_grid_bounds_admit_the_largest_grids(capsys, monkeypatch,
                                                    argv):
    ran = []

    def stub(*args):
        ran.append(args)
        return VerificationReport()

    monkeypatch.setattr(cli, "verify_hopf_axioms", stub)
    monkeypatch.setattr(cli, "verify_all", stub)
    code, _, err = run(capsys, "verify", *argv)
    assert ran and code != 3, err


@pytest.mark.parametrize("command,expr", [
    ("mul", "((Q1+P1+Q2+P2)^32)^32"),
    ("mul", "Q1^16*(Q1*P1)^9"),
    ("star", "((x1+x4)^32)^32"),
])
def test_expression_degree_bound_exits_at_once(capsys, command, expr):
    other = "Q1" if command == "mul" else "x1"
    start = time.perf_counter()
    code, out, err = run(capsys, command, expr, other, "--trunc", "0")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "degree" in err and "position" in err


def test_expression_degree_at_bound_accepted(capsys):
    code, out, _ = run(capsys, "mul", f"Q1^{MAX_EXPONENT}", "1",
                       "--trunc", "0")
    assert (code, out) == (0, f"Q1^{MAX_EXPONENT}\n")
    code, out, _ = run(capsys, "star", f"W[1,0,0]^{MAX_EXPONENT}", "1",
                       "--trunc", "1")
    assert (code, out) == (0, f"W[{MAX_EXPONENT},0,0]\n")


@pytest.mark.parametrize("target", ["heisenberg", "all"])
def test_verify_deg_obeys_truncation_cap(capsys, target):
    code, out, err = run(capsys, "verify", target, "--deg", "9")
    assert code == 3
    assert out == ""
    assert "exceeds the bound" in err


def test_parser_is_built_once_and_survives_a_usage_error(capsys):
    good = ["mul", "P1", "Q1", "--trunc", "1", "--alpha=2"]
    build_parser.cache_clear()
    alone = run(capsys, *good)
    assert run(capsys, "mul", "P1", "--bogus")[0] == 2
    assert run(capsys, *good) == alone
    assert build_parser() is build_parser()
    assert build_parser.cache_info().misses == 1


@pytest.mark.parametrize("command,expr,other", [
    ("mul", "(Q1+P1+Q2+P2)^32", "Q1"),
    ("star", "(x1+x2+x3+x4+x5+x6+x7)^32", "1"),
])
def test_expression_term_bound_exits_in_time(capsys, command, expr, other):
    start = time.perf_counter()
    code, out, err = run(capsys, command, expr, other, "--trunc", "0")
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out == ""
    assert f"more than {MAX_TERMS} terms" in err


@pytest.mark.parametrize("command,expr,other,trunc", [
    ("mul", "(Q1+P1+Q2+P2)^10", "(Q1+P1+Q2+P2)^3", "0"),
    ("mul", "(Q1+P1)^32", "(Q1+P1)^32", "0"),
    ("star", "(x1+x2+x3+x4+x5+x6+x7)^4", "(x1+x2+x3+x4+x5+x6+x7)^4", "2"),
])
def test_operand_pair_bound_exits_in_time(capsys, command, expr, other,
                                          trunc):
    # Each operand is within the term bound; on a 2-vCPU machine their
    # product took 8.6 s, over 20 s and 4.0 s before the pair count was
    # checked.  (Q1+P1)^32 at truncation 2 stays accepted: see
    # test_parser.test_term_bound_admits_the_largest_binomial_power.
    start = time.perf_counter()
    code, out, err = run(capsys, command, expr, other, "--trunc", trunc)
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out == ""
    assert f"{MAX_PAIRS} term pairs" in err


@pytest.mark.parametrize("command", ["mul", "comm"])
def test_product_degree_bound_exits_in_time(capsys, command):
    # Within the term and pair bounds (7,300 pairs), but every pair
    # straightens a word of degree up to 64: 6.1 s on a 2-vCPU machine
    # before the degree of the two operands was checked.
    start = time.perf_counter()
    code, out, err = run(capsys, command, f"(Q1+P1)^{MAX_EXPONENT}",
                         "Q1^32+P1^32+Q2^32+P2^32", "--trunc", "2")
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out == ""
    assert f"generator degree 64 exceeds the bound {MAX_EXPONENT}" in err


@pytest.mark.parametrize("argv", [
    ("mul", "1/0", "P1"),
    ("coproduct", "exp(1/0*rho)"),
    ("mul", "Q1", "P1", "--alpha=1/0"),
    ("group", "compose", "1/0,0,0,0,0,0,0", "0,0,0,0,0,0,0"),
])
def test_zero_denominator_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "zero denominator" in err


# -- fuzzing: random argv drawn from the command grammar -----------------------

_PRIMAL = ("Q1", "P1", "Q2", "P2", "Th", "Ps", "rho", "lambda", "exp(-rho)",
           "h2", "3/4", "2")
_DUAL = ("x1", "x4", "x7", "W[1,0,0]", "Y[0,1,0,0]", "h1", "1/2")
_GARBAGE = ("", "Q1*", "((Q1)", "W[1,2]", "Q1^40", "x9", "Q1*W[1,0,0]",
            "-Q1", "1/0", "Q1^2^2", "@", "exp(2*Q1)", "Y[0,0,0,0]^99")
_BAD_RATIONALS = ("0", "1/0", "abc", "", "2/-3", "0/5", "1.5")


def _expression(tokens):
    valid = st.lists(st.sampled_from(tokens), min_size=1, max_size=2).flatmap(
        lambda factors: st.sampled_from(("*", "+", "-")).map(
            lambda op: op.join(factors)))
    return st.one_of(valid, valid, st.sampled_from(_GARBAGE))


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from((
        "mul", "comm", "coproduct", "counit", "antipode", "phi", "zbasis",
        "star", "staroracle", "poisson", "group", "verify", "frobnicate")))
    argv = [command]
    if command in ("mul", "comm"):
        argv += [draw(_expression(_PRIMAL)), draw(_expression(_PRIMAL))]
    elif command in ("coproduct", "counit", "antipode", "phi", "zbasis"):
        argv.append(draw(_expression(_PRIMAL)))
    elif command in ("star", "staroracle", "poisson"):
        argv += [draw(_expression(_DUAL)), draw(_expression(_DUAL))]
    elif command == "group":
        element = st.sampled_from(("0,0,0,1,0,0,0", "1/2,0,0,0,0,1,-1",
                                   "1,2,3", "a,0,0,0,0,0,0",
                                   "1/0,0,0,0,0,0,0"))
        argv += [draw(st.sampled_from(("compose", "inverse", "undo")))]
        argv += draw(st.lists(element, min_size=0, max_size=3))
    elif command == "verify":
        argv.append(draw(st.sampled_from(("hopf", "bialgebra", "heisenberg",
                                          "star", "all", "nothing"))))
        # Valid grid degrees run the full grids, which take seconds; the
        # smallest one and the rejected ones keep each draw short.
        argv.append(f"--maxdeg={draw(st.sampled_from((-1, 0, 4, 99)))}")
        argv.append(f"--deg={draw(st.sampled_from((-1, 1, 7)))}")
    if command == "poisson":
        argv.append(f"--dir={draw(st.integers(0, 4))}")
    rational = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    for flag in ("alpha", "beta", "gamma"):
        value = draw(st.one_of(rational.map(str), rational.map(str),
                               st.sampled_from(_BAD_RATIONALS)))
        argv.append(f"--{flag}={value}")
    # The oracle and the grids are slow above truncation 1.
    top = 1 if command in ("staroracle", "verify") else 3
    trunc = st.integers(0, top)
    trunc = st.one_of(trunc, trunc, st.sampled_from((-1, 7, 99)))
    argv.append(f"--trunc={draw(trunc)}")
    argv.append(f"--format={draw(st.sampled_from(('text', 'json', 'xml')))}")
    return argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cli_argv())
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    parser = build_parser()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 10, argv
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    assert build_parser() is parser
