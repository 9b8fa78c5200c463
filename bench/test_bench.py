"""Tests of the benchmark itself: its gates, its generator and its tracer.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import signal
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workload  # noqa: E402

from ncdeform import DeformParams, cli, verify_hopf_axioms  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXPECTED = json.loads(workload.EXPECTED_PATH.read_text())


def _gated(report) -> list[bool]:
    return [c.passed for c in report.checks if not c.diagnostic]


@pytest.fixture(scope="module")
def small_grid():
    return _gated(verify_hopf_axioms(1, DeformParams(Fraction(2),
                                                     Fraction(1, 2),
                                                     Fraction(-3), 1)))


def _cli_text(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


# -- gates --------------------------------------------------------------------

def test_grid_gate_passes_at_recorded_count(small_grid):
    assert all(small_grid)
    assert workload.grid_gate(small_grid, len(small_grid)) == (
        len(small_grid), 0)


@pytest.mark.parametrize("delta", [-1, 1])
def test_corrupted_check_count_fails(small_grid, delta):
    attempted, failed = workload.grid_gate(small_grid,
                                           len(small_grid) + delta)
    assert failed / attempted > 0


def test_empty_grid_fails():
    assert workload.grid_gate([], 408) == (408, 408)
    assert workload.grid_gate([], 0) == (1, 1)
    # A negative degree bound empties the monomial grid; the generator-pair
    # checks that remain do not reach the recorded count.
    empty = _gated(verify_hopf_axioms(-1, DeformParams(Fraction(1),
                                                       Fraction(1),
                                                       Fraction(1), 1)))
    assert workload.grid_gate(empty, EXPECTED["hopf_grid"]["checks"])[1] > 0
    assert workload.verify_all_gate(0, "ALL PASS (0 checks)\n", 0) == (1, 1)


def test_verify_all_gate_reads_the_verdict():
    rc, text = _cli_text(["verify", "hopf", "--maxdeg", "1", "--trunc", "1"])
    n = int(text.rstrip().rsplit("(", 1)[1].split()[0])
    assert workload.verify_all_gate(rc, text, n) == (n, 0)
    assert workload.verify_all_gate(rc, text, n + 1)[1] > 0
    assert workload.verify_all_gate(1, text, n)[1] > 0
    failing = text.replace("PASS counit", "FAIL counit", 1)
    failing = failing.replace(f"ALL PASS ({n} checks)",
                              f"FAILURES: 1/{n} checks")
    assert workload.verify_all_gate(1, failing, n)[1] > 0


def test_corrupted_digest_fails(monkeypatch):
    stream = queries.generate(5)[:30]
    monkeypatch.setattr(workload.queries, "generate", lambda seed: stream)
    recorded = {"query_mix": {"queries": len(stream), "digests": {}}}
    first = workload.body_query_mix(5, recorded)
    assert first["failed"] == 0
    recorded["query_mix"]["digests"]["5"] = first["digest"]
    assert workload.body_query_mix(5, recorded)["failed"] == 0
    recorded["query_mix"]["digests"]["5"] = "0" * 64
    corrupted = workload.body_query_mix(5, recorded)
    assert corrupted["failed"] == corrupted["attempted"] == len(stream)
    recorded["query_mix"]["queries"] = len(stream) + 1
    recorded["query_mix"]["digests"].clear()
    assert workload.body_query_mix(5, recorded)["failed"] > 0


# -- query generator ----------------------------------------------------------

def test_stream_is_seeded_and_sized():
    stream = queries.generate(3)
    assert stream == queries.generate(3)
    assert stream != queries.generate(4)
    assert len(stream) == EXPECTED["query_mix"]["queries"]
    # At least ten samples lie beyond p99.
    assert len(stream) // 100 >= 10
    assert {argv[0] for argv in stream} == set(queries.COMMANDS)


def test_stream_respects_its_bounds():
    for argv in queries.generate(11):
        flags = dict(a[2:].split("=", 1) for a in argv if a.startswith("--"))
        assert all(not a.startswith("-") or "=" in a for a in argv[1:])
        assert Fraction(flags["alpha"]) != 0
        trunc = int(flags["trunc"])
        operands = [a for a in argv[1:] if not a.startswith("--")]
        if argv[0] == "staroracle":
            assert trunc == 1
            assert all(op in {f"x{i}" for i in range(1, 8)}
                       for op in operands)
        elif argv[0] not in ("star", "poisson"):
            for op in operands:
                degree = sum(f in queries.GENERATORS for f in op.split("*"))
                assert 1 <= degree <= queries.max_degree(argv[0], trunc)


# -- host-speed scaling -------------------------------------------------------

def _pacer(samples):
    """A Pacer with given (start, kernel seconds) samples."""
    p = pace.Pacer()
    p.starts = [t for t, _ in samples]
    p.ends = [t + d for t, d in samples]
    return p


def test_scaled_time_follows_the_kernel():
    ref = pace.REF_KERNEL_S
    steady = _pacer([(0.0, ref), (1.0, ref), (2.0, ref)])
    assert steady.scaled(0.0, 2.0 + ref) == pytest.approx(2.0 - 2 * ref)
    assert steady.scaled(0.5, 0.75) == pytest.approx(0.25)
    # Kernel runs inside the interval are not program time.
    assert steady.scaled(0.9, 1.2) == pytest.approx(0.3 - ref)
    # A host at half speed doubles both the kernel and the program time.
    slow = _pacer([(0.0, 2 * ref), (1.0, 2 * ref), (2.0, 2 * ref)])
    assert slow.scaled(0.5, 1.5) == pytest.approx((1.0 - 2 * ref) / 2)
    # Each stretch uses the kernel runs on its two sides.
    mixed = _pacer([(0.0, ref), (1.0, 3 * ref)])
    assert mixed.scaled(0.5, 0.6) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        mixed.scaled(0.5, 5.0)


def test_pacer_samples_while_the_program_runs():
    p = pace.Pacer()
    p.start()
    start = pace.clock()
    while pace.clock() - start < 3 * pace.INTERVAL_S:
        sum(range(1000))
    end = pace.clock()
    p.stop()
    assert len(p.starts) >= 3
    assert 0 < p.scaled(start, end)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


# -- metrics and tracing ------------------------------------------------------

@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed(monkeypatch, tmp_path, capsys, trace):
    layers = {name: 1 for name in tracer.metric_names()}

    def child(args, deadline):
        if args[0] == "setup":
            return {"setup_s": 0.1, "raw_setup_s": 0.1}
        unit = {"wall_s": 2.0, "raw_wall_s": 2.0,
                "latencies_ms": [1.0, 2.0, 3.0],
                "peak_rss_mb": 100.0, "attempted": 3, "failed": 0}
        return {**unit, "layers": layers} if "--trace" in args else unit

    monkeypatch.setattr(run, "_child", child)
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = run.run("query_mix", 1, 1, trace)
    printed = capsys.readouterr().out.splitlines()
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert any(line.split()[0] == m["name"] and line.split()[-1]
                   == m["unit"] for line in printed), m["name"]
    assert "ops 3 count" in printed
    assert result["attempted"] == 3 * (2 if trace else 1)
    assert "fail_ratio 0.0 ratio" in printed
    assert result["correct"] and result["failed"] == 0


def test_traced_counts_must_repeat(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    layers = {"hopf.tensor_mul.calls": 3, "hopf.tensor_mul.self_s": 0.5}
    assert run._counts_repeat("hopf_grid", 1, layers)
    # Self time may differ between runs; work counts may not.
    assert run._counts_repeat("hopf_grid", 1, {**layers,
                                               "hopf.tensor_mul.self_s": 0.7})
    assert not run._counts_repeat("hopf_grid", 1, {**layers,
                                                   "hopf.tensor_mul.calls": 4})
    assert "hopf.tensor_mul.calls" in capsys.readouterr().err
    assert run._counts_repeat("hopf_grid", 2, {**layers,
                                               "hopf.tensor_mul.calls": 4})


_TRACE_SNIPPET = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
t = Tracer("test")
t.install()
from ncdeform import cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["verify", "hopf", "--maxdeg", "1", "--trunc", "1"],
                 ["verify", "bialgebra", "--trunc", "1"],
                 ["zbasis", "Q1*Th", "--trunc", "2"],
                 ["staroracle", "x1", "x4", "--trunc", "1"],
                 ["poisson", "x1", "x2", "--dir=2", "--trunc", "1"]):
        assert cli.main(argv) == 0
t.uninstall()
t.write(sys.argv[2])
print(json.dumps(t.metrics()))
"""


def _traced(tmp_path, name):
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    spans = tmp_path / f"{name}.tsv.gz"
    proc = subprocess.run([sys.executable, "-c", _TRACE_SNIPPET, str(HERE),
                           str(spans)], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(proc.stdout), spans


def test_traced_runs_repeat_and_report_every_layer(tmp_path):
    first, spans = _traced(tmp_path, "a")
    second, _ = _traced(tmp_path, "b")
    counts = [k for k in first if not k.endswith(".self_s")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert list(first) == tracer.metric_names()
    assert first["hopf.tensor_mul.pairs"] > 0
    assert first["dual.delta_on_zbasis.calls"] > 0
    assert first["cli.main.calls"] == 5
    assert all(first[k] >= 0 for k in first if k.endswith(".self_s"))

    with gzip.open(spans, "rt") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        rows = [line.rstrip("\n").split("\t") for line in fh]
    assert header == ["run_id", "span", "parent", "layer", "start_ns",
                      "end_ns"]
    per_layer = Counter(r[3] for r in rows)
    for key, value in first.items():
        if key.endswith(".calls"):
            assert per_layer[key[:-len(".calls")]] == value
    assert {r[0] for r in rows} == {"test"}
    for span, parent in ((int(r[1]), int(r[2])) for r in rows):
        assert parent < span


def test_tracer_replaces_and_restores_every_binding():
    import ncdeform.hopf
    from ncdeform.series import SeriesScalar
    modules = {n: m for n, m in sys.modules.items()
               if n == "ncdeform" or n.startswith("ncdeform.")}
    before = {(n, k): v for n, m in modules.items()
              for k, v in vars(m).items()}
    mul = SeriesScalar.__mul__
    t = tracer.Tracer("restore")
    t.install()
    try:
        wrapped = {v.__wrapped__ for m in modules.values()
                   for v in vars(m).values() if hasattr(v, "__wrapped__")}
        assert ncdeform.hopf.normal_order_mul.__wrapped__ in wrapped
        assert SeriesScalar.__rmul__.__wrapped__ is mul
        # No module keeps an unwrapped reference to a traced function.
        for m in modules.values():
            assert not wrapped & {v for v in vars(m).values()
                                  if callable(v)}
    finally:
        t.uninstall()
    assert SeriesScalar.__mul__ is SeriesScalar.__rmul__ is mul
    assert {(n, k): v for n, m in modules.items()
            for k, v in vars(m).items()} == before
