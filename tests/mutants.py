"""Mutation run over the core: one mutant per arithmetic or comparison site.

    python tests/mutants.py [--modules stochastic conditioning] [--rev HEAD]

A site is a binary ``+``/``-`` (swapped), ``*``/``/`` (swapped), ``**``
(made ``*``), or a comparison ``<``/``<=``, ``>``/``>=`` or ``==``/``!=``
(flipped to its partner), inside a function or method of the eight modules
of the package that hold code: the core ``scattering``, ``measurement``,
``conditioning``, ``stochastic`` and ``params``, then ``interaction``,
``config`` and ``cli``.  Sites are taken module by module in that order, then
in source order; ``--modules`` picks a subset.  Each mutant changes one
operator in the source text of the tree that ``git archive REV`` gives (a
commit, or a tree such as ``git write-tree`` makes of the index), in one of
``COPIES`` copies run side by side, and runs ``python -m pytest -x -q tests``
there; it survives when the suite passes.
A run that fails, errors or exceeds ``TIMEOUT`` seconds is a kill only once
it is confirmed: the first failing test of the run (the first ``FAILED`` or
``ERROR`` line of its summary) is run again alone on the same mutant, or the
whole suite where the run named none, and must fail again.  A kill that does
not repeat is unconfirmed: a failure that was not the mutant's, such as one
from the load of the copies running side by side.  The script prints each
survivor and each unconfirmed kill with its source line, then the counts of
sites, confirmed kills, unconfirmed kills and survivors and the wall time.
It uses the standard library only and is not a test module, so pytest does
not collect it.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import queue
import subprocess
import sys
import tarfile
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIES = min(os.cpu_count() or 1, 4)  # one suite run per CPU, at most 4 at once to bound memory
TIMEOUT = 300.0  # seconds; the whole suite takes under a minute
MODULES = ("scattering", "measurement", "conditioning", "stochastic", "params", "interaction", "config", "cli")
SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
         ast.Pow: ("**", "*"), ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
         ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}


def _offset(lines: list[str], line: int, col: int) -> int:
    """The character offset of a 1-based line and a 0-based column, which the
    AST counts in UTF-8 bytes."""
    return sum(len(text) for text in lines[:line - 1]) + len(lines[line - 1].encode()[:col].decode())


def _operator_at(source: str, lines: list[str], left: ast.AST, right: ast.AST, symbol: str) -> int:
    """The offset of ``symbol`` between two operands: only brackets, blanks,
    line continuations and comments lie there besides the operator."""
    start = _offset(lines, left.end_lineno, left.end_col_offset)
    end = _offset(lines, right.lineno, right.col_offset)
    code = "".join(line.split("#")[0].ljust(len(line)) for line in source[start:end].splitlines(keepends=True))
    code = "".join(ch if ch in "<>=!+-*/" else " " for ch in code)
    if code.strip() != symbol:
        raise ValueError(f"no lone {symbol!r} between operands at line {left.end_lineno}: {code.strip()!r}")
    return start + code.index(symbol)


def sites(module: str, source: str) -> list[tuple[int, int, str, str]]:
    """``(line, offset, operator, replacement)`` of every site of one module, in source order."""
    lines = source.splitlines(keepends=True)
    found = []
    functions = [node for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    seen = set()
    for function in functions:
        for node in ast.walk(function):
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
                pairs = [(node.left, node.right, node.op)]
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                pairs = [(a, b, op) for a, b, op in zip(operands, operands[1:], node.ops) if type(op) in SWAPS]
            else:
                continue
            for left, right, op in pairs:
                symbol, replacement = SWAPS[type(op)]
                offset = _operator_at(source, lines, left, right, symbol)
                found.append((source.count("\n", 0, offset) + 1, offset, symbol, replacement))
    return sorted(set(found), key=lambda site: site[1])


def _archive(rev: str, into: Path) -> None:
    data = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")


def _run(copy: Path, target: str = "tests") -> tuple[bool, str | None]:
    """Whether ``target`` (the suite, or one test id) passes in ``copy``, and
    the id of its first failing test, or None where the run named none."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", target],
                              cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, None
    failed = (line.split(" ", 1)[1].split(" - ", 1)[0] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR ")))
    return done.returncode == 0, next(failed, None)


def _outcome(copy: Path) -> tuple[str, str | None]:
    """``survived``, ``killed`` or ``unconfirmed`` for the mutant in ``copy``,
    and the failing test that decided it."""
    passed, failing = _run(copy)
    if passed:
        return "survived", None
    repeated, _ = _run(copy, failing or "tests")
    return ("unconfirmed" if repeated else "killed"), failing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--modules", nargs="+", choices=MODULES, default=list(MODULES))
    parser.add_argument("--rev", default="HEAD")
    args = parser.parse_args(argv)
    modules = [m for m in MODULES if m in args.modules]
    began = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copies = [Path(scratch) / f"copy{i}" for i in range(COPIES)]
        for copy in copies:
            _archive(args.rev, copy)
        plan = []
        for module in modules:
            source = (copies[0] / "src" / "coupled_mzi" / f"{module}.py").read_text(encoding="utf-8")
            plan += [(module, source, *site) for site in sites(module, source)]
        work, outcomes, lock = queue.Queue(), {"killed": 0, "unconfirmed": 0, "survived": 0}, threading.Lock()
        for item in plan:
            work.put(item)

        def worker(copy: Path):
            while True:
                try:
                    module, source, line, offset, symbol, replacement = work.get_nowait()
                except queue.Empty:
                    return
                path = copy / "src" / "coupled_mzi" / f"{module}.py"
                path.write_text(source[:offset] + replacement + source[offset + len(symbol):], encoding="utf-8")
                try:
                    outcome, failing = _outcome(copy)
                finally:
                    path.write_text(source, encoding="utf-8")
                with lock:
                    outcomes[outcome] += 1
                    if outcome != "killed":
                        text = source.splitlines()[line - 1].strip()
                        after = f" (failed first: {failing or 'the suite'})" if outcome == "unconfirmed" else ""
                        print(f"{outcome} {module}.py:{line} {symbol} -> {replacement}: {text}{after}", flush=True)

        threads = [threading.Thread(target=worker, args=(copy,)) for copy in copies]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.monotonic() - began
    print(f"modules {' '.join(modules)}: {len(plan)} sites, {outcomes['killed']} confirmed kills, "
          f"{outcomes['unconfirmed']} unconfirmed kills, {outcomes['survived']} survived, "
          f"{wall:.0f} s wall with {COPIES} copies")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
