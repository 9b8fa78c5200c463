"""Module boundaries of the package: no module imports a private name
(one starting with an underscore) from a sibling module, or reads one as an
attribute of a sibling module it imported.  No function takes a parameter
that it never reads.  The coefficient storage of a term map and its
vector-space operations are written once, in series.TermMap.  And the
CLI's options and config keys are listed, so that a knob added or left
behind shows up as a diff here."""

import argparse
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ncdeform"


def private_uses(source: str, filename: str = "<source>") -> list[str]:
    """Private names of sibling modules that the source imports or reads.

    Catches `from .series import _raw` and `series._raw` after
    `from . import series`, `from ncdeform import series` or
    `import ncdeform.series as series`.
    """
    tree = ast.parse(source, filename)
    found = []
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            relative = node.level > 0
            if relative or node.module == "ncdeform":
                if node.module is None or node.module == "ncdeform":
                    siblings |= {a.asname or a.name for a in node.names}
                if relative:
                    found += [f"{filename}:{node.lineno} {a.name}"
                              for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            siblings |= {a.asname for a in node.names
                         if a.asname and a.name.startswith("ncdeform.")}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append(f"{filename}:{node.lineno} "
                         f"{node.value.id}.{node.attr}")
    return found


def test_no_relative_import_of_private_names():
    # Also fails on a sibling's private name read as a module attribute.
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += private_uses(path.read_text(), path.name)
    assert list(SRC.glob("*.py")), f"no modules found under {SRC}"
    assert not found, ("private names used across modules: "
                       + ", ".join(found))


def test_private_uses_catches_each_form():
    source = (
        "from .series import _raw, SeriesScalar\n"
        "from . import series\n"
        "from ncdeform import dual as d\n"
        "import ncdeform.hopf as hopf\n"
        "def f():\n"
        "    return series._raw({}, 0), d._star_monos, hopf._hopf, "
        "series.__name__, series.SeriesScalar, other._x\n")
    assert sorted(private_uses(source)) == [
        "<source>:1 _raw", "<source>:6 d._star_monos",
        "<source>:6 hopf._hopf", "<source>:6 series._raw"]


def unread_parameters(source: str, filename: str = "<source>") -> list[str]:
    """Parameters of functions and lambdas in the source that their body
    never reads; self and cls are exempt."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        found += [f"{filename}:{node.lineno} {name}({arg})" for arg in names
                  if arg not in ("self", "cls") and arg not in read]
    return found


def test_every_parameter_is_read():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += unread_parameters(path.read_text(), path.name)
    assert not found, "parameters never read: " + ", ".join(found)


def test_unread_parameters_catches_each_form():
    source = (
        "def f(a, b, *args, c=1, **kw):\n"
        "    return a + kw['x']\n"
        "class K:\n"
        "    def m(self, x):\n"
        "        return self\n"
        "    @classmethod\n"
        "    def k(cls, y):\n"
        "        def inner(z):\n"
        "            return y + z\n"
        "        return inner\n"
        "g = lambda u, v: u\n")
    assert sorted(unread_parameters(source)) == [
        "<source>:1 f(args)", "<source>:1 f(b)", "<source>:1 f(c)",
        "<source>:11 <lambda>(v)", "<source>:4 m(x)"]


#: The operations that series.TermMap holds the only copy of, the
#: coefficient storage and its conversions among them.
TERM_MAP_METHODS = {"__add__", "__neg__", "__sub__", "__bool__", "__eq__",
                    "__hash__", "__repr__", "check", "scale", "limit",
                    "hdegree_truncated", "coefficient", "coefficients",
                    "rows", "over_denominator", "_store", "_store_series",
                    "canonical"}
#: Classes that define one of them for a reason of their own: DeformParams
#: caches its hash, LieData compares structure constants whatever its basis
#: names, and a series also equals a rational, as its constant series.
OWN_METHODS = {("DeformParams", "__hash__"), ("LieData", "__eq__"),
               ("SeriesScalar", "__eq__")}


def term_map_overrides(source: str, filename: str = "<source>") -> list[str]:
    """Classes other than TermMap that define one of TERM_MAP_METHODS not
    listed for them in OWN_METHODS, and classes with a terms or nums slot
    (coefficient storage) that do not subclass TermMap."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.ClassDef) or node.name == "TermMap":
            continue
        names = set()
        slots = ()
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                targets = {t.id for t in stmt.targets
                           if isinstance(t, ast.Name)}
                names |= targets
                if "__slots__" in targets:
                    slots = ast.literal_eval(stmt.value)
        found += [f"{filename}:{node.lineno} {node.name}.{name}"
                  for name in sorted(names & TERM_MAP_METHODS)
                  if (node.name, name) not in OWN_METHODS]
        bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
        if {"terms", "nums"} & set(slots) and "TermMap" not in bases:
            found.append(f"{filename}:{node.lineno} {node.name} is no TermMap")
    return found


def test_term_map_operations_live_in_one_place():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += term_map_overrides(path.read_text(), path.name)
    assert not found, "term-map operations outside TermMap: " + ", ".join(found)


def test_term_map_overrides_catches_each_form():
    source = (
        "class A(TermMap):\n"
        "    __slots__ = ('terms',)\n"
        "    def __add__(self, other):\n"
        "        return self\n"
        "    def scale(self, factor):\n"
        "        return self\n"
        "class B:\n"
        "    __slots__ = ('params', 'terms')\n"
        "    __repr__ = str\n"
        "class C:\n"
        "    __slots__ = ('nums', 'den')\n"
        "    def over_denominator(self, nums, den):\n"
        "        return nums, den\n"
        "class TermMap:\n"
        "    def check(self, other):\n"
        "        return other\n"
        "class LieData:\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "class SeriesScalar(TermMap):\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "    def limit(self, zeroed):\n"
        "        return self\n")
    assert term_map_overrides(source) == [
        "<source>:1 A.__add__", "<source>:1 A.scale", "<source>:7 B.__repr__",
        "<source>:7 B is no TermMap", "<source>:10 C.over_denominator",
        "<source>:10 C is no TermMap", "<source>:20 SeriesScalar.limit"]


def test_series_mul_stays_in_the_class_body():
    # The bench tracer (bench/tracer.py) wraps SeriesScalar.__mul__ and
    # __rmul__ by looking them up in the class namespace; an inherited
    # __mul__ would not be found there.
    from ncdeform.series import SeriesScalar
    assert "__mul__" in vars(SeriesScalar)
    assert SeriesScalar.__rmul__ is SeriesScalar.__mul__


def test_bench_tracer_finds_every_layer(monkeypatch):
    # The benchmark's tracer (bench/tracer.py) raises when a layer it
    # wraps is gone, so a renamed function fails here, in the tier-1
    # suite, and not first in a benchmark run.  bench/ is only read.
    import ncdeform.algebra
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(SRC.parent.parent / "bench"))
    from tracer import Tracer
    tracer = Tracer("t")
    try:
        tracer.install()
        assert tracer._undo, "the tracer wrapped no binding"
    finally:
        tracer.uninstall()
    assert not hasattr(ncdeform.algebra.normal_order_mul, "__wrapped__")


def cli_surface() -> tuple[dict[str, list[str]], list[str]]:
    """Every subcommand's options, read off the parser, and the keys the
    config file accepts."""
    from ncdeform.cli import DEFAULTS, build_parser
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    options = {name: sorted(opt for action in parser._actions
                            for opt in action.option_strings)
               for name, parser in sub.choices.items()}
    return options, sorted(DEFAULTS)


def test_cli_option_surface():
    common = ["--alpha", "--beta", "--config", "--format", "--gamma",
              "--help", "--out", "--trunc", "-h"]
    options, config_keys = cli_surface()
    assert options == {
        **{name: common for name in (
            "mul", "comm", "coproduct", "counit", "antipode", "phi",
            "zbasis", "star", "staroracle", "group")},
        "poisson": sorted(common + ["--dir"]),
        "verify": sorted(common + ["--deg", "--maxdeg"]),
    }
    assert config_keys == ["alpha", "beta", "format", "gamma", "trunc"]
