"""Reach probe (the ``make reach`` target): which functions never run.

Runs every ``perf.workloads.WORKLOADS`` entry in-process for a few
measured ops (one set-up each), then every ``examples/*.py`` script, with
a ``sys.setprofile`` hook on every thread that records each code object
called.  Prints, per ``src/repro`` module, the functions and methods that
never ran, then the totals.  It is stdlib-only, prints and gates nothing:
a function listed here is a candidate for a judged workload or for
deletion, not a failure.

Run it from the repository root::

    PYTHONPATH=src python -m tools.reach
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import threading
from pathlib import Path
from typing import Callable, Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
EXAMPLES = REPO_ROOT / "examples"
#: measured ops per workload (one set-up each)
OPS = 40


def functions(path: Path) -> "Iterator[tuple[int, str, int]]":
    """``(first line, qualified name, body lines)`` of every ``def`` in
    ``path``; the first line is the first decorator's, as in
    ``co_firstlineno``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def walk(node: ast.AST, prefix: str) -> "Iterator[tuple[int, str, int]]":
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                body = (child.end_lineno or child.lineno) - child.body[0].lineno + 1
                yield first, prefix + child.name, body
                yield from walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def never_run(
    paths: "list[Path]", run: "Callable[[], None]"
) -> "dict[Path, list[tuple[int, str, int]]]":
    """Call ``run`` under the profile hook; returns, per file of
    ``paths``, the functions (as :func:`functions` lists them) that no
    thread entered."""
    called: "set[tuple[str, int]]" = set()

    def hook(frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    entered = {(str(Path(name).resolve()), line) for name, line in called}
    return {
        path: [
            entry
            for entry in functions(path)
            if (str(path.resolve()), entry[0]) not in entered
        ]
        for path in paths
    }


def run_everything() -> None:
    """Every perf workload for :data:`OPS` ops, then every example."""
    from perf import run
    from perf.workloads import WORKLOADS

    with contextlib.redirect_stdout(io.StringIO()):
        for name in WORKLOADS:
            run.run_workload(name, ops=OPS, setups=1)
        for script in sorted(EXAMPLES.glob("*.py")):
            runpy.run_path(str(script), run_name="__main__")


def main() -> int:
    """Print the never-run functions per module and the totals."""
    paths = sorted(SRC.rglob("*.py"))
    missed = never_run(paths, run_everything)
    total = sum(1 for path in paths for _ in functions(path))
    total_lines = sum(body for path in paths for _, _, body in functions(path))
    missed_count = missed_lines = 0
    for path, entries in missed.items():
        if not entries:
            continue
        print(f"{path.relative_to(REPO_ROOT).as_posix()}:")
        for line, name, body in entries:
            print(f"  {line:5d}  {name}  ({body} lines)")
        missed_count += len(entries)
        missed_lines += sum(body for _, _, body in entries)
    print(
        f"reach: {missed_count} of {total} functions in src/repro never ran "
        f"({missed_lines} of {total_lines} function-body lines)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
