import json
import time
from pathlib import Path

import pytest

from ncdeform.cli import MAX_VERIFY_DEGREE, main
from ncdeform.parser import MAX_EXPONENT

DATA = Path(__file__).resolve().parent / "data"


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
    assert "cap" in err


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


def test_staroracle_matches_star(capsys):
    _, star_out, _ = run(capsys, "star", "x4", "x1", "--trunc", "1")
    _, oracle_out, _ = run(capsys, "staroracle", "x4", "x1", "--trunc", "1")
    assert star_out == oracle_out
    _, capped, _ = run(capsys, "staroracle", "x4", "x1", "--trunc", "1",
                       "--cap", "3")
    assert capped == star_out


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


def test_staroracle_rejects_negative_cap(capsys):
    code, out, err = run(capsys, "staroracle", "x1", "x1", "--cap", "-2")
    assert code == 3
    assert out == ""
    assert "--cap" in err


@pytest.mark.parametrize("argv", [
    ("x4", "x1", "--trunc", "1", "--cap", "0"),
    ("x4", "x1", "--trunc", "1", "--cap", "2"),
    ("x4*x5", "x1+x2", "--trunc", "1", "--cap", "3"),
])
def test_staroracle_rejects_cap_below_sufficient_bound(capsys, argv):
    code, out, err = run(capsys, "staroracle", *argv)
    assert code == 3
    assert out == ""
    assert "cap" in err


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
    assert "cap" in err
