#!/usr/bin/env python3
"""Which statements of ``src/cubicjordan`` no CLI run and no test reaches.

Runs the CLI runs of ``RUNS`` and then the Tier-1 suite (``pytest.main``)
in this one process under the standard library's ``trace`` module, and
prints the counted statements that only the tests reach, then those that
neither reaches, then the counts; the last line is ``unreached: N``.  A statement is every AST
statement but ``def``, ``class``, imports, ``global`` and docstrings; the
package's ``__init__.py`` and the ``if __name__ == "__main__":`` block
are left out, because a subprocess run is not traced.  A statement is
reached when one of its own lines runs: its whole extent for a simple
statement, the lines before its body for a compound one.

Usage:
    PYTHONPATH=src python scripts/reach.py

The traced Tier-1 run takes about two minutes on one core.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cubicjordan"

NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
               ast.ImportFrom, ast.Global, ast.Nonlocal)

STANDARD = {**dict.fromkeys(["x11", "x12", "x13", "x21", "x22", "x23", "p111", "p112",
                             "p121", "p122", "p211", "p212", "p221", "p222"], 1),
            "u1": 2, "u2": 2, "u3": 2}

COMMANDS = ("verify-axioms", "classify", "fiber", "chart", "radicals", "specialize", "prop76",
            "weights", "hilbert")
DEFECTS = {"tampered-sharp": "verify-axioms", "skip-chart-substitution": "chart",
           "perturbed-dictionary": "specialize"}

# (argv, files written into the run's directory first); "{dir}" is that directory
RUNS = [
    (["all", "--seed", "7", "--json", "{dir}/report.json"], {}),
    (["all", "--seed", "0", "--samples", "300"], {}),
    *(([command, "--seed", "7"], {}) for command in COMMANDS),
    *(([command, "--defect", defect], {})
      for defect, own in DEFECTS.items() for command in (own, "all")),
    (["classify", "--hypermatrix", "{dir}/cube.txt"], {"cube.txt": "1 0 0 0 0 1 1 0"}),
    (["classify", "--hypermatrix", "{dir}/cube.txt"], {"cube.txt": "0 1 1 0 1 0 0 -1/2"}),
    (["hilbert", "--sections", "12"], {}),
    (["hilbert", "--sections", "13"], {}),
    (["weights", "--json", "{dir}/report.json"], {}),
    (["weights", "--weights", "{dir}/w.json"], {"w.json": json.dumps(STANDARD)}),
    (["hilbert", "--weights", "{dir}/w.json"], {"w.json": json.dumps(STANDARD)}),
    (["weights", "--weights", "{dir}/w.json"], {"w.json": json.dumps({**STANDARD, "u1": 5})}),
]


def _is_main_block(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def statements(source: str) -> list[range]:
    """The counted statements of a module in line order, each as the lines
    whose execution reaches it (its first line first)."""
    tree = ast.parse(source)
    skipped = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            skipped.add(body[0])
    skipped |= {n for top in tree.body if _is_main_block(top) for n in ast.walk(top)}
    counted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and not isinstance(node, NOT_COUNTED) \
                and node not in skipped:
            body = getattr(node, "body", None)
            last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
            counted.append(range(node.lineno, last + 1))
    return sorted(counted, key=lambda lines: lines.start)


def _cli_runs() -> list[int]:
    from cubicjordan import cli
    codes = []
    for argv, files in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                Path(tmp, name).write_text(text)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.run([a.replace("{dir}", tmp) for a in argv]))
    return codes


def _traced(func, *args) -> tuple[object, set[tuple[str, int]]]:
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    result = tracer.runfunc(func, *args)
    return result, set(tracer.results().counts)


def main() -> None:
    import pytest
    codes, by_cli = _traced(_cli_runs)
    print("exit codes of the CLI runs:", " ".join(map(str, codes)))
    status, by_tests = _traced(pytest.main, ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    print("pytest exit status:", status)
    unreached, tests_only, total = [], [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        key = str(path)
        for lines in statements(path.read_text()):
            total += 1
            if not any((key, n) in by_cli for n in lines):
                hit = any((key, n) in by_tests for n in lines)
                (tests_only if hit else unreached).append(f"{path.name}:{lines.start}")
    print("reached only by tests:", " ".join(tests_only))
    print("reached by neither:", " ".join(unreached))
    print(f"statements: {total}")
    print(f"tests only: {len(tests_only)}")
    print(f"unreached: {len(unreached)}")


if __name__ == "__main__":
    main()
