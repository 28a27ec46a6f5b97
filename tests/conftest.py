"""Shared fixtures.

``shared_setup`` is session-scoped: the TPC-H data, platform, and all four
index kinds are built once and reused by read-only algorithm tests (index
builds are the expensive part).  Tests that mutate data or indices build
their own platform via ``fresh_setup``.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.bench.harness import ExperimentSetup, build_setup
from repro.cluster.costmodel import EC2_PROFILE
from repro.platform import Platform
from repro.query.engine import RankJoinEngine
from repro.tpch.generator import generate
from repro.tpch.loader import load_tpch
from repro.tpch.queries import q1, q2

# Property tests: on CI (GitHub sets ``CI``) draw the same examples every
# run and never time an example, so the blocking ``test`` job cannot fail
# on a slow runner or on an example nobody can draw again; locally keep
# drawing fresh examples and print the ``@reproduce_failure`` handle of
# any that fails.  Loaded before the test modules are imported, so their
# ``@settings(max_examples=...)`` inherit the rest from the profile.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("dev", print_blob=True)
settings.load_profile("ci" if os.environ.get("CI") else "dev")

#: small but non-trivial: ~40 parts / ~300 orders / ~1200 lineitems
TEST_SCALE = 0.2
TEST_SEED = 42


def _make_setup() -> ExperimentSetup:
    return build_setup(EC2_PROFILE, micro_scale=TEST_SCALE, seed=TEST_SEED)


@pytest.fixture(autouse=True)
def lock_order_guard(request):
    """Runtime half of repro-lint's lock discipline (see RL1xx).

    Under the ``stress``/``chaos`` markers every lock created inside
    ``src/repro`` is traced, and the test fails if the run's lock
    acquisition-order graph has a cycle (a latent deadlock), even when
    the interleaving that would actually deadlock never fired.  The
    sanctioned hierarchy is documented in ``docs/ARCHITECTURE.md``.
    """
    if (
        request.node.get_closest_marker("stress") is None
        and request.node.get_closest_marker("chaos") is None
    ):
        yield
        return
    from repro.common.locktrace import LockTracer

    tracer = LockTracer().install()
    try:
        yield
    finally:
        tracer.uninstall()
    cycle = tracer.find_cycle()
    assert cycle is None, tracer.explain(cycle)


@pytest.fixture(scope="session")
def shared_setup() -> ExperimentSetup:
    """Loaded platform + engine shared by read-only tests."""
    setup = _make_setup()
    for name in ("ijlmr", "isl", "bfhm", "drjn"):
        setup.engine.algorithm(name).prepare(q1(1))
        setup.engine.algorithm(name).prepare(q2(1))
    return setup


@pytest.fixture()
def fresh_setup() -> ExperimentSetup:
    """Per-test platform for tests that mutate data or indices."""
    return _make_setup()


@pytest.fixture()
def empty_platform() -> Platform:
    """A bare platform with no data loaded."""
    return Platform(EC2_PROFILE)


@pytest.fixture()
def tiny_engine() -> RankJoinEngine:
    """A very small loaded engine (fast even for MR baselines)."""
    platform = Platform(EC2_PROFILE)
    load_tpch(platform.store, generate(micro_scale=0.05, seed=7))
    return RankJoinEngine(platform)
