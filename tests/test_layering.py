"""Layering of the package: which private names cross module boundaries, the
independence of the tests' closed-form oracle, a README line for every
export, and every package name that the benchmark in ``bench/`` reads."""

import ast
import importlib
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
    assert not any(name.partition(".")[0] in ("coupled_mzi", "conftest", "helpers") for name in imported), imported


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


def bench_package_names() -> set[tuple[str, str, str]]:
    """``(bench file, package module, name)`` of every ``coupled_mzi`` name
    that a file under ``bench/`` imports, or reads as an attribute of a name
    it binds to a package module (``cli.run_scan``), in any scope."""
    found = set()
    for path in sorted((ROOT / "bench").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = path.relative_to(ROOT).as_posix()
        modules = {}  # local name -> the package module bound to it
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {alias.asname or PACKAGE.name: alias.name if alias.asname else PACKAGE.name
                            for alias in node.names if alias.name.partition(".")[0] == PACKAGE.name}
            elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and (node.module or "").partition(".")[0] == PACKAGE.name:
                for alias in node.names:
                    found.add((where, node.module, alias.name))
                    if node.module == PACKAGE.name and (PACKAGE / f"{alias.name}.py").is_file():
                        modules[alias.asname or alias.name] = f"{PACKAGE.name}.{alias.name}"
        found |= {(where, modules[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules}
    return found


def _importable(module: str, name: str) -> bool:
    """Whether ``from module import name`` finds ``name``, a submodule or an attribute."""
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return hasattr(importlib.import_module(module), name)
    return True


def test_every_package_name_the_bench_reads_exists():
    """The bench suite is outside ``testpaths``, so a deletion that breaks
    ``bench/`` is caught here too."""
    names = bench_package_names()
    assert ("bench/tests/test_bench.py", "coupled_mzi.cli", "main") in names
    missing = sorted(entry for entry in names if not _importable(*entry[1:]))
    assert not missing, missing
