"""Module boundaries of the package: no module imports a private name
(one starting with an underscore) from a sibling module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ncdeform"


def test_no_relative_import_of_private_names():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}:{node.lineno} {alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert list(SRC.glob("*.py")), f"no modules found under {SRC}"
    assert not found, ("private names imported across modules: "
                       + ", ".join(found))
