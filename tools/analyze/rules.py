"""The repro-lint rule catalog.

Rule IDs are **stable**: tests, inline ``# lint: disable=`` pragmas, and CI
annotations all key on them, so an ID is never renumbered or reused once
released.  New rules take the next free number in their family:

* ``RL0xx`` — pragma / annotation hygiene (the lint of the lint),
* ``RL1xx`` — lock discipline (guarded shared state),
* ``RL2xx`` — determinism of simulated-cost paths,
* ``RL3xx`` — cost-metering integrity (the fig7/8 bit-identity guarantee),
* ``RL4xx`` — exception safety of paired resources (locks, temp families),
* ``RL5xx`` — dead code (public definitions nothing in the program uses).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    """One stable lint rule: its ID, a short name, and what it protects."""

    rule_id: str
    name: str
    summary: str


_CATALOG: "tuple[Rule, ...]" = (
    Rule(
        "RL001",
        "pragma-needs-reason",
        "a `# lint: disable=<rule>` pragma must carry a parenthesized "
        "reason string explaining why the finding is a false positive",
    ),
    Rule(
        "RL002",
        "pragma-unknown-rule",
        "a `# lint: disable=` pragma names a rule ID that is not in the "
        "catalog (typo, or a rule that was never released)",
    ),
    Rule(
        "RL101",
        "unguarded-read",
        "an attribute declared `# guarded-by: <lock>` is read outside a "
        "`with self.<lock>` block (torn reads under concurrent mutation)",
    ),
    Rule(
        "RL102",
        "unguarded-write",
        "an attribute declared `# guarded-by: <lock>` is written or "
        "structurally mutated outside a `with self.<lock>` block",
    ),
    Rule(
        "RL201",
        "wall-clock",
        "wall-clock time (time.time/perf_counter/monotonic/sleep, "
        "datetime.now) inside the simulated-cost layers; simulated costs "
        "must be pure functions of store state and the query",
    ),
    Rule(
        "RL202",
        "nondeterministic-random",
        "unseeded randomness (module-level random.*, zero-arg "
        "random.Random(), os.urandom, uuid1/uuid4, secrets) in code whose "
        "outputs must be reproducible run-to-run",
    ),
    Rule(
        "RL203",
        "set-iteration-order",
        "direct iteration over a set expression; set order varies with "
        "insertion history and hashing, so iterate sorted(...) instead",
    ),
    Rule(
        "RL301",
        "unmetered-store-access",
        "raw store access (all_rows/read_row/raw_cell_count, iterating "
        ".regions) bypassing the metered HTable/Scan wrappers inside a "
        "metered execution path",
    ),
    Rule(
        "RL302",
        "metric-mutation",
        "direct mutation of a MetricsCollector field (sim_time_s, "
        "network_bytes, kv_reads, disk_bytes_read, counters[...]) outside "
        "the collector's own API",
    ),
    Rule(
        "RL401",
        "bare-acquire",
        "a bare .acquire*() call not immediately followed by `try:` with "
        "the matching .release*() in its `finally` — use `with` or "
        "try/finally so an exception cannot leak the lock",
    ),
    Rule(
        "RL402",
        "release-outside-finally",
        "a .release*() call outside any `finally` block — an exception "
        "between acquire and release would leak the lock",
    ),
    Rule(
        "RL403",
        "leaky-cleanup",
        "a cleanup call (drop_family/drop_table/forget) outside a "
        "`finally` block and outside a dedicated cleanup helper — temp "
        "index families must be released even when execution raises",
    ),
    Rule(
        "RL501",
        "unreferenced-definition",
        "a public top-level def, class or assignment, or a public method "
        "or property, in src/repro that "
        "nothing in src/repro, perf/, benchmarks/, examples/ or README's "
        "python blocks references outside its own body (imports, "
        "__all__ entries, docstrings and comments do not count)",
    ),
)

RULES: "dict[str, Rule]" = {rule.rule_id: rule for rule in _CATALOG}


def is_known(rule_id: str) -> bool:
    """Whether ``rule_id`` is in the released catalog."""
    return rule_id in RULES
