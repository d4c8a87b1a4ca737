"""Line coverage of ``src/dpmedreg`` under the test suite, with the standard
library only.

    python tools/line_coverage.py [pytest arguments]

Run it from the repository root.  It runs pytest in this process with a
``sys.settrace``/``threading.settrace`` hook that records the lines executed
in the package's source files, then prints each source line that never ran
as ``path:line: text``, skipping ``def``/``class`` headers and docstrings,
and exits with pytest's exit code.  Code that runs in child processes (the
CLI tests that start ``python -m dpmedreg``) is not traced, so a line that
only those reach is listed.  Tracing makes the suite about twice as slow.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dpmedreg"


def code_lines(code) -> set[int]:
    """Lines that carry bytecode in ``code`` and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def skipped_lines(tree: ast.Module) -> set[int]:
    """The lines of every def/class header (decorators to the colon) and of
    every docstring."""
    skipped = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if not isinstance(node, ast.Module):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            skipped.update(range(first, body[0].lineno))
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            if isinstance(body[0].value.value, str):
                skipped.update(range(body[0].lineno, body[0].end_lineno + 1))
    return skipped


def main(argv: list[str]) -> int:
    import pytest

    executed: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + "/"

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = executed.setdefault(frame.f_code.co_filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        missed = code_lines(compile(source, str(path), "exec"))
        missed -= skipped_lines(ast.parse(source))
        missed -= executed.get(str(path), set())
        text = source.splitlines()
        for line in sorted(missed):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
