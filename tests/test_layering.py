"""Layering of the package: which private names cross module boundaries, the
independence of the tests' closed-form oracle, and a README line for every
export."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coupled_mzi"

ALLOWED_PRIVATE_IMPORTS = {
    ("cli", "params", "_index"),
    ("conditioning", "params", "_coupling_term"),
    ("conditioning", "params", "_plain"),
    ("interaction", "params", "_require_finite"),
    ("measurement", "params", "_all"),
    ("measurement", "params", "_plain"),
    ("scattering", "params", "_all"),
    ("scattering", "params", "_plain"),
    ("scattering", "params", "_require_finite"),
    ("stochastic", "params", "_index"),
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


def test_reference_imports_nothing_from_the_package():
    """The closed forms in ``tests/reference.py`` stay an independent oracle."""
    tree = ast.parse((Path(__file__).resolve().parent / "reference.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name.partition(".")[0] in ("coupled_mzi", "conftest") for name in imported), imported


def test_every_export_is_named_in_the_readme():
    """Each name that ``coupled_mzi/__init__.py`` imports appears in README
    code, a fenced block or an inline span."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exports = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
               for alias in node.names}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    fence = re.compile(r"^```.*?^```", re.S | re.M)
    code = fence.findall(readme) + re.findall(r"`([^`\n]+)`", fence.sub("", readme))
    missing = sorted(exports - set(re.findall(r"\w+", " ".join(code))))
    assert not missing, missing
