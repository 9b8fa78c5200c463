"""ncdeform benchmark: one workload, one seed, every metric on one line.

    python3 bench/run.py --workload {hopf_grid,verify_all,query_mix} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the engine is imported from ``src/``
in fresh child processes (``bench/workload.py``), one client, one thread,
each request sent after the previous answer (closed loop).

Workloads (why each was chosen is in ``BENCHMARK.json``):

* ``hopf_grid``: ``verify_hopf_axioms(3, DeformParams(2, 1/2, -3, trunc=3))``,
  408 gated checks.  The seed does not change this input.
* ``verify_all``: ``ncdeform verify all`` in-process at the CLI defaults,
  194 gated checks.  The seed does not change this input.
* ``query_mix``: a seeded stream of one-off CLI queries (``queries.py``).

With ``--trace 0`` the run measures set-up ``SETUP_REPEATS`` times, each in
a fresh process, then runs whole workload bodies, each in a fresh process so
that caches start cold, until ``--seconds`` have been measured (one body
suffices for every workload at the usual 10 s).  Every time is scaled to the
reference host speed of ``pace.py``, which takes out the drift of the
shared host's CPU speed; the unscaled medians are printed above the result
line as ``raw_wall_s`` and ``raw_setup_s``.  It reports:

* ``wall_s``: the median timed body; for the grids the time to a verdict.
* ``setup_s``: the median time to import ncdeform and make the first public
  call that builds the workload's per-parameter tables (``make_lambda`` and
  ``coproduct(Q1)``).
* ``peak_rss_mb``: the median ``ru_maxrss`` of the bodies' processes.
* ``query_p50_ms``, ``query_p99_ms``: per-query latency over all bodies.
  A grid's verdict is its one query, so there both follow the wall time.
  The query stream is long enough that at least ten queries lie beyond
  p99.

With ``--trace 1`` the run makes one untraced and one traced body run and
reports the per-layer metrics of ``tracer.py`` plus ``trace.overhead_s``,
the traced minus the untraced wall time.  Spans are written to
``bench/out/``.  The work counts of a seed are recorded there as well, and a
later traced run of the same seed and the same ``src/`` must reproduce them
exactly.

Every output is checked (``workload.py``).  ``ops`` (gated checks, or
queries) and ``fail_ratio`` are printed above the result line; the
operations attempted and failed over all bodies of the run go into
``attempted`` and ``failed``.  ``correct`` is true only when nothing
failed.  The last line of output is the JSON result.

``baseline.json`` holds the figures measured when the benchmark was added;
``test_bench.py`` tests the benchmark itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workload import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
#: Every run ends within this many seconds, or fails without a result.
DEADLINE_S = 170
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"]
         for m in _DECLARED["end_to_end"] + _DECLARED["per_layer"]}


class BenchError(RuntimeError):
    pass


def _child(args: list[str], deadline: float) -> dict:
    """Run workload.py in a fresh process and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # A fixed hash seed makes set iteration, and so the work order, repeat.
    env["PYTHONHASHSEED"] = "0"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline reached")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "workload.py"),
                               *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload.py {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload.py {' '.join(args)} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples, never beyond."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(units: list[dict], setups: list[dict]) -> dict[str, float]:
    latencies = [ms for unit in units for ms in unit["latencies_ms"]]
    return {
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
        "query_p50_ms": statistics.median(latencies),
        "query_p99_ms": _quantile(latencies, 99),
    }


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return metrics


def _source_digest() -> str:
    """Short digest of the engine's source files."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _counts_repeat(workload: str, seed: int, layers: dict) -> bool:
    """Compare the exact work counts with an earlier traced run of this
    seed and source, recording them on the first run."""
    counts = {k: v for k, v in layers.items() if not k.endswith(".self_s")}
    path = OUT / f"counts-{workload}-{seed}-{_source_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            diff = sorted(k for k in counts if counts[k] != earlier.get(k))
            print(f"work counts differ from an earlier run: {diff}",
                  file=sys.stderr)
            return False
        return True
    path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    return True


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    common = [workload, "--seed", str(seed)]
    if trace:
        plain = _child(["body", *common], deadline)
        spans = OUT / f"spans-{workload}-{seed}.tsv.gz"
        traced = _child(["body", *common, "--trace", str(spans)], deadline)
        units = [plain, traced]
        metrics = per_layer(plain, traced)
        repeat = _counts_repeat(workload, seed, traced["layers"])
    else:
        setups = [_child(["setup", *common], deadline)
                  for _ in range(SETUP_REPEATS)]
        units, measured = [], 0.0
        while not units or measured < seconds:
            unit = _child(["body", *common], deadline)
            units.append(unit)
            measured += unit["raw_wall_s"]
            if time.monotonic() + unit["raw_wall_s"] * 1.5 > deadline:
                break
        metrics = end_to_end(units, setups)
        for raw in ("raw_wall_s", "raw_setup_s"):
            values = [u[raw] for u in units + setups if raw in u]
            print(f"{raw} {statistics.median(values)} s")
        repeat = True
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    digests = sorted({u["digest"] for u in units if "digest" in u})
    for digest in digests:
        print(f"digest {workload} seed {seed}: {digest}")
    if len(digests) > 1:
        failed = max(failed, 1)
    print(f"bodies {len(units)} count")
    print(f"ops {units[0]['attempted']} count")
    print(f"fail_ratio {failed / attempted} ratio")
    for name, value in metrics.items():
        print(f"{name} {value} {UNITS[name]}")
    return {"correct": failed == 0 and repeat, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": UNITS[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ncdeform" / "__init__.py").is_file():
        print(f"error: no ncdeform source under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
