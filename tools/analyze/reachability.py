"""RL501 — public definitions that nothing references.

A public top-level ``def``, ``class`` or assignment in ``src/repro``
(outside ``__init__.py``), and a public method or property of a class at
any depth, must be referenced from somewhere outside its own body.
Dunder and ``_private`` names are exempt; a property's setter and
deleter are one definition with its getter.  The reference set is built
from the whole program — every file under
:data:`~tools.analyze.config.REFERENCE_ROOTS` plus README's python
blocks — never from the files being linted alone, so ``--changed`` does
not report a definition whose caller's file is unchanged.  Tests do not
count: code that only its own tests call is dead code.

What counts as a reference to ``name``:

* an identifier ``name`` or an attribute ``x.name``;
* the same inside a string annotation (``"ReduceFn | None"``), which is
  parsed as an expression;
* a string constant equal to ``name`` — how ``getattr``/``setattr``
  patching names a function.

What does not: imports (re-exporting is not using), ``__all__`` entries,
docstrings and comments.  References are names, not resolved bindings,
so a name used by any class keeps every method of that name alive.  A
deliberate keeper (a golden-pinned alternative, a test double, a
recovery path) says why with ``# lint: disable=RL501 (reason)`` on its
``def``/``class`` line.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from tools.analyze.base import Finding, ModuleInfo
from tools.analyze.config import REFERENCE_ROOTS, in_scope
from tools.docs_check import readme_blocks

_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _assigned_names(node: ast.stmt) -> "list[str]":
    """Names bound by an (annotated/augmented) assignment statement."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return []
    return [
        leaf.id
        for target in targets
        for leaf in ast.walk(target)
        if isinstance(leaf, ast.Name)
    ]


def references(tree: ast.AST) -> "Iterator[tuple[str, int]]":
    """Every ``(name, line)`` reference in ``tree``, by the rules above."""
    ignored: "set[int]" = set()
    annotation_strings: "set[int]" = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOC_OWNERS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                ignored.add(id(first.value))
        if isinstance(node, ast.stmt) and "__all__" in _assigned_names(node):
            value = getattr(node, "value", None)
            if value is not None:
                ignored.update(id(leaf) for leaf in ast.walk(value))
        annotation = None
        if isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        if annotation is not None:
            annotation_strings.update(
                id(leaf)
                for leaf in ast.walk(annotation)
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in ignored
        ):
            if id(node) in annotation_strings:
                try:
                    parsed = ast.parse(node.value.strip(), mode="eval")
                except SyntaxError:
                    continue
                for name, _ in references(parsed):
                    yield name, node.lineno
            elif node.value.isidentifier():
                yield node.value, node.lineno


def _corpus_sources(repo_root: Path) -> "Iterator[tuple[str, str]]":
    """``(relpath, source)`` of every file the reference set is built from."""
    for root in REFERENCE_ROOTS:
        for path in sorted((repo_root / root).rglob("*.py")):
            yield path.relative_to(repo_root).as_posix(), path.read_text(encoding="utf-8")
    for index, block in enumerate(readme_blocks(repo_root / "README.md"), start=1):
        yield f"README.md#block{index}", block


def build_index(repo_root: Path) -> "dict[str, set[str]]":
    """The whole-program reference index: name -> referencing files."""
    index: "dict[str, set[str]]" = {}
    for relpath, source in _corpus_sources(repo_root):
        for name, _ in references(ast.parse(source, filename=relpath)):
            index.setdefault(name, set()).add(relpath)
    return index


def _span(node: ast.stmt) -> "tuple[int, int]":
    """First and last line of ``node``, decorators included."""
    decorators = getattr(node, "decorator_list", [])
    first = min([node.lineno] + [d.lineno for d in decorators])
    return first, node.end_lineno or node.lineno


def _definitions(tree: ast.Module) -> "Iterator[tuple[str, int, int, int]]":
    """``(name, line, first_line, last_line)`` of each public top-level
    definition and of each public method or property of a class at any
    depth; the span covers decorators and the whole body (for a property,
    its setter and deleter too)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = _assigned_names(node)
        else:
            continue
        first, last = _span(node)
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, first, last
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        # name -> (line, first, last); a property's setter/deleter (or any
        # redefinition) widens the first definition's span
        methods: "dict[str, tuple[int, int, int]]" = {}
        for node in cls.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            first, last = _span(node)
            line, known_first, _ = methods.get(node.name, (node.lineno, first, last))
            methods[node.name] = (line, min(first, known_first), last)
        for name, (line, first, last) in methods.items():
            yield name, line, first, last


def check(info: ModuleInfo, index: "dict[str, set[str]]") -> "list[Finding]":
    """RL501 findings for one module against the whole-program ``index``
    (references from ``info`` itself are taken from its own tree, so the
    check is exact for files outside the indexed trees too)."""
    if not in_scope(info, "reachable"):
        return []
    own: "dict[str, list[int]]" = {}
    for name, line in references(info.tree):
        own.setdefault(name, []).append(line)
    findings = []
    for name, line, first, last in _definitions(info.tree):
        if index.get(name, set()) - {info.relpath}:
            continue
        if any(not first <= used <= last for used in own.get(name, ())):
            continue
        findings.append(
            Finding(
                "RL501",
                info.relpath,
                line,
                0,
                f"public definition {name!r} is referenced nowhere outside "
                "its own body in src/repro, perf/, benchmarks/, examples/ "
                "or README; delete it",
            )
        )
    return findings
