"""Print every statement of src/aaatrig/ that a pytest run never executes.

    python3 tools/uncovered_lines.py [pytest args]

Runs pytest in this process with the given arguments (none runs the whole
suite from the current directory) under ``sys.settrace``, recording the
lines executed in src/aaatrig/ only, and then prints ``path:line`` for each
statement none of whose lines ran, sorted, whatever the tests' outcome.
pytest's own report goes to stderr so that stdout carries the list alone;
the exit status is pytest's.

Docstrings, ``def`` and ``class`` lines and imports are left out; every
other statement is listed unless it ran.  A compound statement counts as
run when a line of its header did.

Only this process is traced.  Tests that run ``python -m aaatrig`` in a
subprocess reach no traced line, so the code only they reach shows as
unexecuted: all of ``__main__.py``, and in ``cli.py`` the raise for a
``--period`` that makes a finite point overflow and the script-mode
``sys.exit(main())``.  Nothing beyond pytest is needed.
"""

from __future__ import annotations

import ast
import contextlib
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aaatrig"

# Left out, as docstrings are: they run with the body that holds them.
LEFT_OUT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(path: Path):
    """(first line, own lines) of each statement of the file not left out; a
    compound statement's own lines are those of its header."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, LEFT_OUT):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring
        inner = [c.lineno for c in ast.iter_child_nodes(node)
                 if isinstance(c, (ast.stmt, ast.excepthandler))]
        last = min(inner) - 1 if inner else node.end_lineno
        yield node.lineno, range(node.lineno, max(last, node.lineno) + 1)


def traced_run(args) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit status and the lines run in each file of the package."""
    hits: dict[Path, set[int]] = {}
    by_name: dict[str, set[int] | None] = {}  # co_filename -> its hits, None outside

    def local(frame, event, arg):
        if event == "line":
            by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            path = Path(name).resolve()
            by_name[name] = hits.setdefault(path, set()) if path.parent == PACKAGE else None
        return local if by_name[name] is not None else None

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(list(args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main() -> int:
    status, hits = traced_run(sys.argv[1:])
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(path, set())
        missed = sorted({first for first, own in statements(path) if ran.isdisjoint(own)})
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}")
    return status


if __name__ == "__main__":
    sys.exit(main())
