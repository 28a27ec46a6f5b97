"""Documentation health check (the ``make docs-check`` target).

Three gates:

1. **Docstring coverage** — every public module under ``src/repro`` (and
   every public class/function defined at module top level) must carry a
   docstring.  Names prefixed with ``_`` are exempt.
2. **README executability** — every ``python`` code block in README.md
   must actually run.  Blocks are executed in one shared namespace, in
   order, from the repository root (matching the instructions readers
   follow).
3. **Examples are run** — every ``examples/*.py`` script is named in the
   Makefile's ``examples`` target (which CI runs), so no example can rot
   unrun.
4. **Make targets exist** — every ``make <target>`` that README.md,
   ``docs/*.md`` or the CI workflow names is a target of the Makefile, so
   a renamed or deleted target cannot leave stale instructions behind.

Exits non-zero with a report of every violation.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
README = REPO_ROOT / "README.md"
MAKEFILE = REPO_ROOT / "Makefile"
EXAMPLES = REPO_ROOT / "examples"
CI_WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"

#: ``make <target>`` in inline code, or leading a code-block or ``run:`` line
_MAKE_USE_RE = re.compile(
    r"`make ([\w-]+)|^[ \t]*(?:-[ \t]*)?(?:run:[ \t]*)?make ([\w-]+)", re.MULTILINE
)
_MAKE_TARGET_RE = re.compile(r"^([\w-]+):(?!=)", re.MULTILINE)

_CODE_BLOCK_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def check_docstrings() -> list[str]:
    """Modules / top-level defs under src/repro lacking docstrings."""
    problems = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        relative = path.relative_to(REPO_ROOT)
        if any(part.startswith("_") and part != "__init__.py" for part in relative.parts):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if ast.get_docstring(tree) is None:
            problems.append(f"{relative}: missing module docstring")
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            if ast.get_docstring(node) is None:
                problems.append(
                    f"{relative}:{node.lineno}: public "
                    f"{'class' if isinstance(node, ast.ClassDef) else 'function'} "
                    f"{node.name!r} missing docstring"
                )
    return problems


def readme_blocks(readme: Path = README) -> list[str]:
    """The source of each ``python`` code block in ``readme``, in order."""
    return _CODE_BLOCK_RE.findall(readme.read_text(encoding="utf-8"))


def check_readme_blocks() -> list[str]:
    """Run README's python blocks; return failures."""
    problems = []
    if not README.exists():
        return ["README.md not found"]
    blocks = readme_blocks()
    if not blocks:
        return ["README.md has no ```python blocks to verify"]
    namespace: dict = {"__name__": "__readme__"}
    sys.path.insert(0, str(SRC_ROOT))
    for index, block in enumerate(blocks, start=1):
        try:
            exec(compile(block, f"README.md#block{index}", "exec"), namespace)
        except Exception as error:  # noqa: BLE001 - report and keep checking
            problems.append(f"README.md python block {index} failed: {error!r}")
    return problems


def check_examples_run() -> list[str]:
    """``examples/*.py`` scripts the Makefile's ``examples`` target skips."""
    match = re.search(
        r"^examples:[^\n]*\n((?:\t[^\n]*\n)*)",
        MAKEFILE.read_text(encoding="utf-8"),
        re.MULTILINE,
    )
    recipe = match.group(1) if match else ""
    run = set(re.findall(r"examples/(\w+\.py)", recipe))
    return [
        f"examples/{path.name} is not run by the Makefile's examples target"
        for path in sorted(EXAMPLES.glob("*.py"))
        if path.name not in run
    ]


def check_make_targets(
    makefile: Path = MAKEFILE, documents: "list[Path] | None" = None
) -> list[str]:
    """``make <target>`` uses in the docs and CI that the Makefile lacks."""
    if documents is None:
        documents = [README, *sorted((REPO_ROOT / "docs").glob("*.md")), CI_WORKFLOW]
    targets = set(_MAKE_TARGET_RE.findall(makefile.read_text(encoding="utf-8")))
    problems = []
    for document in documents:
        text = document.read_text(encoding="utf-8")
        for match in _MAKE_USE_RE.finditer(text):
            target = match.group(1) or match.group(2)
            if target not in targets:
                line = text.count("\n", 0, match.start()) + 1
                problems.append(
                    f"{document.name}:{line}: names `make {target}`, "
                    "which the Makefile does not define"
                )
    return problems


def main() -> int:
    problems = check_docstrings() + check_examples_run() + check_make_targets()
    readme_problems = check_readme_blocks()
    for problem in problems + readme_problems:
        print(f"docs-check: {problem}")
    if problems or readme_problems:
        print(f"docs-check: FAILED ({len(problems) + len(readme_problems)} problems)")
        return 1
    print(
        "docs-check: OK (docstrings complete, README blocks run, examples run, "
        "make targets exist)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
