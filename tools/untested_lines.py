#!/usr/bin/env python3
"""List the statements of ``src/periodetect`` that no Tier-1 test executes.

Run from the repository root (extra arguments go to pytest):

    python tools/untested_lines.py [pytest args]

It needs only the standard library and pytest.  A ``sys.settrace`` hook,
limited to frames whose code lives in ``src/periodetect``, records the lines
that run while pytest runs the suite in this process.  A statement counts as
executed when one of its own lines ran: for a compound statement (``if``,
``for``, ``def``, ...) the lines before its body, for any other its whole
extent; lines that compile to no code (``try:``, ``else:``, docstrings) are
not counted.  Each statement that never ran is printed as ``path:line: text``.

Code run only in other threads or processes is not seen: a statement that only
a pool worker or a ``python -m periodetect`` child reaches is listed.  The trace
makes the suite about twice as slow as a plain run.  The exit status is
pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "periodetect"


def code_lines(code) -> set[int]:
    """The lines of ``code`` and of every code object nested in it that hold bytecode."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(source: str, path: str):
    """Yield ``(first line, own lines)`` for each statement of a module whose own lines hold code."""
    with_code = code_lines(compile(source, path, "exec"))
    for node in ast.walk(ast.parse(source, path)):
        if not isinstance(node, ast.stmt):
            continue
        bodies = [getattr(node, name, []) for name in ("body", "orelse", "finalbody", "handlers")]
        children = [child.lineno for body in bodies for child in body]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.decorator_list:
            first = node.decorator_list[0].lineno
        else:
            first = node.lineno
        last = min(children) - 1 if children else node.end_lineno
        own = set(range(first, max(first, last) + 1)) & with_code
        if own:
            yield first, own


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    os.chdir(ROOT)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        executed = ran.get(str(path), set())
        for first, own in sorted(statements(source, str(path))):
            if not own & executed:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {text[first - 1].strip()}")
    print(f"{missed} statements of {PACKAGE.relative_to(ROOT)} never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
