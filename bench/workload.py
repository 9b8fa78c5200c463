"""One measured process of the ncdeform benchmark.

    python3 bench/workload.py setup WORKLOAD --seed N
    python3 bench/workload.py body  WORKLOAD --seed N [--trace SPANS.tsv.gz]

``setup`` imports ncdeform in this fresh process and makes the first public
call that builds the workload's per-parameter tables; it prints the time
taken.  ``body`` runs the workload once, checks every output against
``expected.json`` and prints its timings, memory and verdict.  Times are
scaled to the reference host speed of ``pace.py``: the body runs under a
``pace.Pacer``, and set-up is scaled by kernel runs made just before and
after it.  With ``--trace`` the layers are wrapped by ``tracer.Tracer`` and
the spans are written to the given file; self times are scaled as well.
Either way the last line of output is one JSON object.  ncdeform must be
importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import queries  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"

#: The acceptance suite's most general parameter set: every commutator is
#: nonzero and alpha != 1.
HOPF_GRID = {"maxdeg": 3, "alpha": Fraction(2), "beta": Fraction(1, 2),
             "gamma": Fraction(-3), "trunc": 3}
#: The CLI defaults that ``verify all`` runs at.
VERIFY_ALL = {"alpha": Fraction(1), "beta": Fraction(1), "gamma": Fraction(1),
              "trunc": 2}
#: query_mix builds its set-up tables at the stream's largest truncation, so
#: that the set-up cost does not depend on the seed's first draw.
QUERY_SETUP_TRUNC = max(queries.TRUNCS)


def setup_params(workload: str, seed: int) -> dict:
    """The parameter set whose tables the workload builds first."""
    if workload == "hopf_grid":
        return {k: HOPF_GRID[k] for k in ("alpha", "beta", "gamma", "trunc")}
    if workload == "verify_all":
        return dict(VERIFY_ALL)
    argv = queries.generate(seed)[0]
    flags = dict(a[2:].split("=", 1) for a in argv if a.startswith("--"))
    params = {k: Fraction(flags[k]) for k in ("alpha", "beta", "gamma")}
    params["trunc"] = QUERY_SETUP_TRUNC
    return params


#: Kernel runs on each side of the set-up.
SETUP_KERNEL_RUNS = 5


def run_setup(workload: str, seed: int) -> dict:
    values = setup_params(workload, seed)
    before = pace.kernel_seconds(SETUP_KERNEL_RUNS)
    start = pace.clock()
    import ncdeform
    if workload != "hopf_grid":
        import ncdeform.cli  # noqa: F401
    params = ncdeform.DeformParams(**values)
    ncdeform.make_lambda(params)
    ncdeform.coproduct(ncdeform.make_generator("Q1", params))
    raw = pace.clock() - start
    after = pace.kernel_seconds(SETUP_KERNEL_RUNS)
    return {"setup_s": raw * pace.REF_KERNEL_S / ((before + after) / 2),
            "raw_setup_s": raw}


# ---------------------------------------------------------------------------
# Correctness gates.  Each returns the number of failed operations out of
# ``attempted``; a missing check or a wrong count counts as failed.
# ---------------------------------------------------------------------------

def grid_gate(passed: list[bool], expected: int) -> tuple[int, int]:
    """Gated check results against the recorded check count.  A grid that
    checks nothing fails, whatever count was recorded."""
    attempted = max(expected, 1)
    failed = passed.count(False) + abs(expected - len(passed))
    if not passed or expected < 1:
        failed = attempted
    return attempted, min(failed, attempted)


def verify_all_gate(rc: int, text: str, expected: int) -> tuple[int, int]:
    """``verify all`` must exit 0 and end in ``ALL PASS (N checks)`` with
    N the recorded count."""
    lines = text.rstrip("\n").splitlines()
    passed = [not line.startswith("FAIL ") for line in lines
              if line.startswith(("PASS ", "FAIL "))]
    attempted, failed = grid_gate(passed, expected)
    if rc != 0 or not lines or lines[-1] != f"ALL PASS ({expected} checks)":
        failed = max(failed, 1)
    return attempted, failed


def query_gate(rcs: list[int], digest: str, expected_queries: int,
               expected_digest: str | None) -> tuple[int, int]:
    """Each query must exit 0.  Where a digest is recorded for the seed, a
    different digest fails every query, since any output may be wrong."""
    attempted = max(expected_queries, 1)
    failed = sum(1 for rc in rcs if rc != 0) + abs(expected_queries - len(rcs))
    if not rcs or (expected_digest is not None and digest != expected_digest):
        failed = attempted
    return attempted, min(failed, attempted)


# ---------------------------------------------------------------------------
# Workload bodies.  Each is called through module attributes, so a tracer
# installed beforehand sees every call.  Each returns its verdict and the
# ``pace.clock`` readings of its timed body ("span") and of each query
# ("queries"); a grid's verdict is its one query.
# ---------------------------------------------------------------------------

def body_hopf_grid(seed: int, expected: dict) -> dict:
    import ncdeform.hopf

    params = ncdeform.DeformParams(**setup_params("hopf_grid", seed))
    start = pace.clock()
    report = ncdeform.hopf.verify_hopf_axioms(HOPF_GRID["maxdeg"], params)
    span = (start, pace.clock())
    passed = [c.passed for c in report.checks if not c.diagnostic]
    attempted, failed = grid_gate(passed, expected["hopf_grid"]["checks"])
    return {"span": span, "queries": [span], "attempted": attempted,
            "failed": failed}


def body_verify_all(seed: int, expected: dict) -> dict:
    import ncdeform.cli

    out = io.StringIO()
    start = pace.clock()
    with contextlib.redirect_stdout(out):
        rc = ncdeform.cli.main(["verify", "all"])
    span = (start, pace.clock())
    attempted, failed = verify_all_gate(rc, out.getvalue(),
                                        expected["verify_all"]["checks"])
    return {"span": span, "queries": [span], "attempted": attempted,
            "failed": failed}


def body_query_mix(seed: int, expected: dict) -> dict:
    import ncdeform.cli

    stream = queries.generate(seed)
    digest = hashlib.sha256()
    spans, rcs = [], []
    clock = pace.clock
    start = clock()
    for argv in stream:
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = ncdeform.cli.main(argv)
        spans.append((t0, clock()))
        rcs.append(rc)
        digest.update("\x1f".join(argv).encode())
        digest.update(f"\x1e{rc}\x1e{out.getvalue()}\x1d".encode())
    span = (start, clock())
    recorded = expected["query_mix"]
    attempted, failed = query_gate(rcs, digest.hexdigest(), recorded["queries"],
                                   recorded["digests"].get(str(seed)))
    return {"span": span, "queries": spans, "attempted": attempted,
            "failed": failed, "digest": digest.hexdigest()}


BODIES = {"hopf_grid": body_hopf_grid, "verify_all": body_verify_all,
          "query_mix": body_query_mix}
WORKLOADS = tuple(BODIES)


def run_body(workload: str, seed: int, trace_path: str | None) -> dict:
    import ncdeform.cli  # noqa: F401  (imports stay outside the timing)

    expected = json.loads(EXPECTED_PATH.read_text())
    tracer = None
    if trace_path:
        from tracer import Tracer
        tracer = Tracer(f"{workload}-{seed}-{os.getpid()}")
        tracer.install()
    pacer = pace.Pacer()
    pacer.start()
    try:
        result = BODIES[workload](seed, expected)
    finally:
        pacer.stop()
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    span, spans = result.pop("span"), result.pop("queries")
    result["raw_wall_s"] = span[1] - span[0]
    result["wall_s"] = pacer.scaled(*span)
    result["latencies_ms"] = [pacer.scaled(a, b) * 1e3 for a, b in spans]
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics(
            lambda start, end: pacer.scaled(start / 1e9, end / 1e9))
        tracer.write(trace_path)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("phase", choices=("setup", "body"))
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", metavar="SPANS", default=None)
    args = ap.parse_args(argv)
    if args.phase == "setup":
        result = run_setup(args.workload, args.seed)
    else:
        result = run_body(args.workload, args.seed, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
