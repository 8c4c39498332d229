"""Layering of the package: which private names cross module boundaries."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coupled_mzi"

ALLOWED_PRIVATE_IMPORTS = {
    ("scattering", "params", "_plain"),
}
"""``(importer, module, name)`` of every private name one package module
imports from another."""


def private_imports() -> set[tuple[str, str, str]]:
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level == 0 and not node.module.startswith("coupled_mzi."):
                continue
            module = node.module.rpartition(".")[2]
            found |= {(path.stem, module, alias.name) for alias in node.names
                      if alias.name.startswith("_") and not alias.name.startswith("__")}
    return found


def test_private_imports_are_the_allowed_ones():
    assert private_imports() == ALLOWED_PRIVATE_IMPORTS
