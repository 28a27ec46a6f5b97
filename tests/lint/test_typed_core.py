"""Tier-1 enforcement of the typed core without a mypy dependency.

``make lint`` runs mypy against the strict allowlist in ``mypy.ini`` when
mypy is installed (CI always installs it; ``tools/run_mypy.py`` skips
gracefully elsewhere).  These tests keep the floor up in environments
without mypy: every typed-core module must have a complete annotation
surface (no bare defs) and every annotation must actually *resolve* —
``typing.get_type_hints`` imports and evaluates each one, so a renamed
class or a typo in a forward reference fails here, not in CI only.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import sys
import typing
from pathlib import Path

import pytest

#: keep in sync with the per-module strict blocks in mypy.ini
TYPED_CORE = [
    "repro.common.types",
    "repro.cluster.executor",
    "repro.cluster.metrics",
    "repro.store.cell",
    "repro.store.memtable",
    "repro.store.region",
    "repro.store.scanner",
    "repro.core.hrjn",
    "repro.query.spec",
    "repro.query.results",
    "repro.serving.plan_cache",
    "repro.maintenance.worker",
    "repro.mapreduce.runtime",
]

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _module_path(name: str) -> Path:
    return REPO_ROOT / "src" / Path(*name.split(".")).with_suffix(".py")


@pytest.mark.parametrize("name", TYPED_CORE)
def test_every_def_is_fully_annotated(name: str) -> None:
    tree = ast.parse(_module_path(name).read_text())
    bare: "list[str]" = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.returns is None:
            bare.append(f"{node.name}:{node.lineno} (return)")
        for arg in (
            list(node.args.posonlyargs)
            + list(node.args.args)
            + list(node.args.kwonlyargs)
            + [a for a in (node.args.vararg, node.args.kwarg) if a]
        ):
            if arg.annotation is None and arg.arg not in ("self", "cls"):
                bare.append(f"{node.name}:{node.lineno} ({arg.arg})")
    assert not bare, f"unannotated defs in {name}: {bare}"


@pytest.mark.parametrize("name", TYPED_CORE)
def test_every_annotation_resolves(name: str) -> None:
    module = importlib.import_module(name)
    typing.get_type_hints(module)
    for _, member in inspect.getmembers(module):
        if inspect.isfunction(member) and member.__module__ == name:
            typing.get_type_hints(member)
        elif inspect.isclass(member) and member.__module__ == name:
            typing.get_type_hints(member)
            for _, method in inspect.getmembers(member, inspect.isfunction):
                if method.__module__ == name:
                    typing.get_type_hints(method)


def test_mypy_allowlist_matches_typed_core() -> None:
    """mypy.ini's strict blocks and TYPED_CORE must not drift apart."""
    config = (REPO_ROOT / "mypy.ini").read_text()
    sections = {
        line.strip()[len("[mypy-"):-1]
        for line in config.splitlines()
        if line.strip().startswith("[mypy-")
    }
    assert sections == set(TYPED_CORE)


def test_run_mypy_is_gated() -> None:
    """The lint pipeline must not hard-require mypy at runtime."""
    import subprocess

    env = {name: value for name, value in os.environ.items() if name != "CI"}
    completed = subprocess.run(
        [sys.executable, "-m", "tools.run_mypy"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=False,
        env=env,
    )
    try:
        import mypy  # noqa: F401
    except ImportError:
        assert completed.returncode == 0
        assert "skipping" in completed.stdout


@pytest.mark.parametrize("ci, expected", [("true", 1), ("", 0)])
def test_run_mypy_fails_under_ci_without_mypy(
    monkeypatch: pytest.MonkeyPatch, ci: str, expected: int
) -> None:
    """Under CI a missing mypy is an error, not a skip."""
    from tools import run_mypy

    monkeypatch.setitem(sys.modules, "mypy", None)  # makes `import mypy` fail
    monkeypatch.setenv("CI", ci)
    assert run_mypy.main([]) == expected
