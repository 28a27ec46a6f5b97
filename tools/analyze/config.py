"""Repo-specific configuration of repro-lint: scopes, allowlists, registry.

Extending an allowlist is a reviewed change to this file — the point is
that every exemption is explicit, named, and greppable, instead of a norm
carried in reviewers' heads.
"""

from __future__ import annotations

from tools.analyze.base import GuardDecl, ModuleInfo

#: directories (repo-relative prefixes) whose code computes or influences
#: the paper's fig7/8 **simulated** metrics.  Set-iteration-order hazards
#: are outlawed here (RL203); the wall-clock and randomness rules
#: (RL201/RL202) apply to *all* of src/repro because nondeterminism
#: anywhere can leak into logs, caches, and test expectations.
SIMULATED_PREFIXES = (
    "src/repro/core/",
    "src/repro/store/",
    "src/repro/mapreduce/",
    "src/repro/query/",
    "src/repro/sketches/",
    "src/repro/cluster/",
    "src/repro/baselines/",
    "src/repro/relational/",
    "src/repro/common/",
)

#: directories whose code executes queries or maintenance under the cost
#: meter: raw (unmetered) store access here must be explicitly justified
#: with an inline ``# lint: disable=RL301 (reason)`` (RL301), and metric
#: fields may only move through collector APIs (RL302).
METERED_PREFIXES = (
    "src/repro/core/",
    "src/repro/baselines/",
    "src/repro/relational/",
    "src/repro/mapreduce/",
    "src/repro/query/",
    "src/repro/maintenance/",
    "src/repro/serving/",
    "src/repro/tpch/",
)

#: modules allowed to touch MetricsCollector fields directly: the
#: collector itself.
METRIC_API_MODULES = ("src/repro/cluster/metrics.py",)

#: the trees (repo-relative) whose code can reference a src/repro
#: definition (RL501); README's python blocks are added to them.  Tests
#: are left out on purpose: code only its own tests call is dead code.
REFERENCE_ROOTS = ("src/repro", "perf", "benchmarks", "examples")

#: the explicit wall-clock allowlist: file -> callable names permitted.
#: The serving layer measures *real* latency percentiles — wall-clock is
#: its job — but only through these two clocks; everything else in the
#: file (and everywhere else) stays simulated.
WALLCLOCK_ALLOWLIST: "dict[str, frozenset[str]]" = {
    "src/repro/serving/server.py": frozenset({"perf_counter", "monotonic"}),
}

#: in-code guarded-attribute registry: ``"<repo-relative path>:<Class>"``
#: -> attribute -> declaration.  Equivalent to `# guarded-by:` comments;
#: used where a class's guard policy is easier to state in one place.
#: ``writes`` mode means reads are lock-free by design (copy-on-write /
#: rebind-snapshot structures) and only mutations must hold the lock.
GUARDED_REGISTRY: "dict[str, dict[str, GuardDecl]]" = {
    # schema changes write the family set under _lock; the region list and
    # start keys are bound once in __init__, so routing reads take no lock
    "src/repro/store/table.py:StoreTable": {
        "families": GuardDecl("_lock", writes_only=True),
        "regions": GuardDecl("_lock", writes_only=True),
        "_start_keys": GuardDecl("_lock", writes_only=True),
    },
    # every structural transition rebinds the cell list under _lock; open
    # iterators keep reading their captured snapshot
    "src/repro/store/memtable.py:MemTable": {
        "_cells": GuardDecl("_lock", writes_only=True),
        "_by_row": GuardDecl("_lock", writes_only=True),
        "_sorted": GuardDecl("_lock", writes_only=True),
        "byte_size": GuardDecl("_lock", writes_only=True),
    },
}

#: method names that structurally mutate a container attribute (used by
#: the lock checker to catch `self._cells.append(...)` style writes)
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "clear",
        "pop",
        "popitem",
        "remove",
        "discard",
        "setdefault",
        "move_to_end",
        "sort",
        "reverse",
        "appendleft",
        "popleft",
    }
)

#: StoreTable/Region accessors that read data without charging the meter
UNMETERED_ACCESSORS = frozenset({"all_rows", "read_row", "raw_cell_count"})

#: MetricsCollector fields that may only move through collector APIs
METRIC_FIELDS = frozenset(
    {"sim_time_s", "network_bytes", "kv_reads", "disk_bytes_read"}
)

#: receiver names that identify a metrics collector in RL302 (static
#: approximation: collectors travel as `metrics`, `collector`, or an
#: attribute chain ending `.metrics`)
METRIC_RECEIVER_NAMES = frozenset({"metrics", "collector"})

#: function names whose body IS cleanup — RL403 does not require their
#: internal drop/forget calls to sit inside yet another finally
CLEANUP_FUNCTION_PREFIXES = ("cleanup", "_cleanup", "forget", "drop", "close", "teardown")

#: calls that discharge a temp-resource obligation (RL403 scope)
CLEANUP_CALLS = frozenset({"drop_family", "drop_table", "forget"})


def in_scope(info: ModuleInfo, scope: str) -> bool:
    """Whether a module belongs to ``scope`` (``src`` / ``simulated`` /
    ``metered`` / ``reachable``), either by location or by a forced
    fixture pragma.  ``reachable`` (RL501) is ``src`` minus the
    ``__init__.py`` re-export modules."""
    if scope in info.forced_scopes:
        return True
    rel = info.relpath
    if scope == "src":
        return rel.startswith("src/repro/")
    if scope == "simulated":
        return rel.startswith(SIMULATED_PREFIXES)
    if scope == "metered":
        return rel.startswith(METERED_PREFIXES)
    if scope == "reachable":
        return rel.startswith("src/repro/") and not rel.endswith("/__init__.py")
    raise ValueError(f"unknown scope {scope!r}")
