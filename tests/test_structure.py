"""Module boundaries of the package: no module imports a private name
(one starting with an underscore) from a sibling module, or reads one as an
attribute of a sibling module it imported."""

import ast
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
