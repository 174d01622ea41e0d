"""List the package statements that the test suite never runs.

    python tools/lines.py [pytest arguments]

Runs the tests (``tests``, or the pytest arguments given) in this process
under ``sys.settrace``, tracing only the frames of ``src/cptlaws``, then
prints every statement of ``src/cptlaws/*.py`` that no line event reached,
sorted by file and line, and the count.  A statement ran when a line event
fired on any of its lines; a compound statement's lines include its body.
Docstrings and ``def`` and ``class`` statements are not counted.  Code that
runs in a subprocess the tests start is not traced.  The script reads the
package from the ``src`` directory beside it, puts that directory first on
the ``PYTHONPATH`` of those subprocesses, and exits with pytest's status.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cptlaws"


def statements(path: Path) -> list[tuple[int, int]]:
    """(first line, last line) of each counted statement of the module at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    skipped = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted((node.lineno, node.end_lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and not isinstance(node, skipped)
                  and id(node) not in docstrings)


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = ran.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    # The tests' subprocesses read the package from the same place.
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    os.chdir(ROOT)
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total, missed = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        for first, last in statements(path):
            total += 1
            if not any(line in lines for line in range(first, last + 1)):
                missed.append(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print()
    print("\n".join(missed))
    print(f"{len(missed)} of {total} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
