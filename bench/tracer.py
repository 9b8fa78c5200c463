"""Outside-in layer tracer for ncdeform.

The tracer wraps public functions of the ncdeform modules from the
benchmark's side; no file of the package is edited.  A module that imported
a function by name holds its own reference (``normal_order_mul`` is bound in
the package, ``algebra``, ``hopf``, ``parser`` and ``cli``), so every such
binding in every loaded ``ncdeform`` module is replaced.

Each call of a wrapped function is one span: layer name, start, end and the
span that was open when it began.  Spans stay in memory and are written when
the run ends.  A layer's self time is the time of its spans minus the time
of their child spans; the work counts are computed from each call's
arguments and result.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array


def _pairs(args, result) -> int:
    """Term pairs a bilinear product visits: len(a.terms) * len(b.terms).
    A plain number as the second factor counts as one term."""
    a, b = args[0], args[1]
    return len(a.terms) * len(getattr(b, "terms", (None,)))


def _out_terms(args, result) -> int:
    return len(result.terms)


def _public_functions(module) -> list[str]:
    return [name for name, value in vars(module).items()
            if not name.startswith("_") and callable(value)
            and getattr(value, "__module__", None) == module.__name__
            and not isinstance(value, type)]


# (layer, module, attributes, work counters, reported metrics).
# "Class.method" attributes wrap a method.  A layer that wraps several
# functions reports their sum: "render" is every public function of
# ncdeform.render, and "parser.evaluate" covers evaluate and the
# evaluate_primal/evaluate_dual entry points the CLI calls.
LAYERS = (
    ("series.mul", "series", ("SeriesScalar.__mul__",), {"pairs": _pairs},
     ("calls", "pairs", "self_s")),
    ("algebra.normal_order_mul", "algebra", ("normal_order_mul",), {},
     ("calls", "self_s")),
    ("algebra.to_z_basis", "algebra", ("to_z_basis",), {},
     ("calls", "self_s")),
    ("algebra.from_z_basis", "algebra", ("from_z_basis",), {},
     ("calls", "self_s")),
    ("hopf.tensor_mul", "hopf", ("tensor_mul",),
     {"pairs": _pairs, "out_terms": _out_terms},
     ("calls", "self_s", "pairs", "out_terms")),
    ("hopf.coproduct", "hopf", ("coproduct",), {}, ("calls", "self_s")),
    ("hopf.antipode", "hopf", ("antipode",), {}, ("calls", "self_s")),
    ("hopf.mu_antipode_leg", "hopf", ("mu_antipode_leg",), {},
     ("calls", "self_s")),
    ("hopf.apply_coproduct_leg", "hopf", ("apply_coproduct_leg",), {},
     ("calls", "self_s")),
    ("hopf.verify_hopf_axioms", "hopf", ("verify_hopf_axioms",), {},
     ("self_s",)),
    ("dual.star_closed", "dual", ("star_closed",), {"pairs": _pairs},
     ("calls", "self_s", "pairs")),
    ("dual.delta_on_zbasis", "dual", ("delta_on_zbasis",), {},
     ("calls", "self_s")),
    ("dual.star_oracle_grid", "dual", ("star_oracle_grid",), {},
     ("self_s",)),
    ("dual.star_oracle_restricted", "dual", ("star_oracle_restricted",), {},
     ("self_s",)),
    ("dual.star_oracle_element", "dual", ("star_oracle_element",), {},
     ("calls", "self_s")),
    ("dual.poisson_bracket_dir", "dual", ("poisson_bracket_dir",), {},
     ("calls", "self_s")),
    ("bialgebra.cocommutator_dir", "bialgebra", ("cocommutator_dir",), {},
     ("calls", "self_s")),
    ("suites.verify_star_suite", "suites", ("verify_star_suite",), {},
     ("self_s",)),
    ("suites.verify_bialgebra_suite", "suites", ("verify_bialgebra_suite",),
     {}, ("self_s",)),
    ("parser.parse_expression", "parser", ("parse_expression",), {},
     ("calls", "self_s")),
    ("parser.evaluate", "parser",
     ("evaluate", "evaluate_primal", "evaluate_dual"), {}, ("self_s",)),
    ("render", "render", None, {}, ("self_s",)),
    ("cli.main", "cli", ("main",), {}, ("calls", "self_s")),
)

def metric_names() -> list[str]:
    """Every per-layer metric the tracer reports, in report order."""
    return [f"{layer}.{metric}" for layer, *_, metrics in LAYERS
            for metric in metrics]


class Tracer:
    """Span recorder; install() wraps the layers, uninstall() restores them."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.layers = [layer for layer, *_ in LAYERS]
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts = [dict.fromkeys(counters, 0)
                       for _, _, _, counters, _ in LAYERS]
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer_id: int, fn, counters: dict):
        span_layer, span_parent = self.span_layer, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, counts = self._stack, self.counts[layer_id]
        counters = tuple(counters.items())
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(span_layer)
            span_layer.append(layer_id)
            span_parent.append(stack[-1])
            span_start.append(0)
            span_end.append(0)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_start[span] = start
                span_end[span] = end
            for metric, count in counters:
                counts[metric] += count(args, result)
            return result

        return traced

    def _rebind(self, fn, wrapper) -> None:
        """Replace every binding of fn in loaded ncdeform modules and in
        their classes' namespaces."""
        for name, module in list(sys.modules.items()):
            if name != "ncdeform" and not name.startswith("ncdeform."):
                continue
            namespaces = [module] + [v for v in vars(module).values()
                                     if isinstance(v, type)
                                     and v.__module__ == name]
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._undo.append((ns, attr, value))
                        setattr(ns, attr, wrapper)

    def install(self) -> None:
        import ncdeform.cli  # noqa: F401  (loads every ncdeform module)

        for layer_id, (layer, mod_name, attrs, counters, _) in enumerate(
                LAYERS):
            module = sys.modules[f"ncdeform.{mod_name}"]
            for attr in attrs or _public_functions(module):
                owner = module
                for part in attr.split(".")[:-1]:
                    owner = getattr(owner, part)
                fn = vars(owner).get(attr.split(".")[-1])
                if fn is None:
                    raise RuntimeError(f"layer {layer}: ncdeform.{mod_name}."
                                       f"{attr} not found")
                self._rebind(fn, self._wrap(layer_id, fn, counters))

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._undo):
            setattr(ns, attr, value)
        self._undo.clear()

    def metrics(self, seconds=None) -> dict[str, float]:
        """Per-layer calls, self time and work counts from the spans.
        ``seconds(start_ns, end_ns)`` is the time a span counts for; by
        default its clock time."""
        if seconds is None:
            def seconds(start: int, end: int) -> float:
                return (end - start) / 1e9
        n = len(self.layers)
        calls = [0] * n
        self_s = [0.0] * n
        layer_of, parent_of = self.span_layer, self.span_parent
        for span, (start, end) in enumerate(zip(self.span_start,
                                                self.span_end)):
            layer = layer_of[span]
            calls[layer] += 1
            took = seconds(start, end)
            self_s[layer] += took
            parent = parent_of[span]
            if parent >= 0:
                self_s[layer_of[parent]] -= took
        out: dict[str, float] = {}
        for i, (layer, *_, metrics) in enumerate(LAYERS):
            values = {"calls": calls[i], "self_s": self_s[i],
                      **self.counts[i]}
            for metric in metrics:
                out[f"{layer}.{metric}"] = values[metric]
        return out

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        layers = self.layers
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("run_id\tspan\tparent\tlayer\tstart_ns\tend_ns\n")
            for span, (layer, parent, start, end) in enumerate(zip(
                    self.span_layer, self.span_parent, self.span_start,
                    self.span_end)):
                fh.write(f"{self.run_id}\t{span}\t{parent}\t{layers[layer]}"
                         f"\t{start}\t{end}\n")
