"""Gated mypy runner for `make lint`.

The container images this repo targets do not all ship mypy, and the
build may not install packages, so the type check is *gated*: when mypy
is importable it runs against ``mypy.ini`` (the strict-allowlist config)
and its exit code is propagated; when it is absent the step is skipped
with exit code 0 and a loud message.  Under CI (the ``CI`` environment
variable set and non-empty) a missing mypy is an error instead: CI's
lint job installs mypy, so a skip there would hide a broken install.

Usage: ``python -m tools.run_mypy`` from the repository root.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def main(argv: "list[str] | None" = None) -> int:
    try:
        import mypy  # noqa: F401
    except ImportError:
        if os.environ.get("CI"):
            print("run_mypy: CI is set but mypy is not installed", file=sys.stderr)
            return 1
        print(
            "run_mypy: mypy is not installed in this environment -- "
            "skipping the typed-core check (CI's lint job enforces it)"
        )
        return 0
    command = [
        sys.executable,
        "-m",
        "mypy",
        "--config-file",
        str(REPO_ROOT / "mypy.ini"),
    ] + list(argv or [])
    completed = subprocess.run(command, cwd=REPO_ROOT, check=False)
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
