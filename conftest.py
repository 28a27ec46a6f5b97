"""The one regeneration switch of every committed exact artefact.

``pytest --regenerate`` (``make regen``) makes
:func:`tests.committed.assert_matches_committed` rewrite the committed
``golden_*.json`` / ``BENCH_*.json`` files instead of comparing against
them.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--regenerate",
        action="store_true",
        help="rewrite every committed golden_*.json / BENCH_*.json from "
        "this run instead of comparing against it",
    )


@pytest.fixture()
def regenerate(request) -> bool:
    """Whether this run rewrites committed artefacts (``--regenerate``)."""
    return request.config.getoption("regenerate")
