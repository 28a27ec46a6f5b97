"""repro-lint: the repo's invariant-enforcing static-analysis suite.

Five AST-based checker families guard the invariants the test suite can
only probabilistically exercise:

* **lock discipline** (RL1xx) — attributes declared ``# guarded-by:`` may
  only be touched under their lock;
* **determinism** (RL2xx) — no wall-clock, unseeded randomness, or
  set-iteration-order dependence in simulated-cost paths;
* **metering** (RL3xx) — no raw store access or out-of-API metric
  mutation in metered paths (the fig7/8 bit-identity guarantee);
* **exception safety** (RL4xx) — locks and temp index families release
  via ``with``/``try-finally``;
* **dead code** (RL5xx) — every public top-level definition in
  ``src/repro`` is referenced by the program, not only by its tests.

Run ``python -m tools.analyze`` from the repository root (or ``make
lint``, which also runs mypy on the strict allowlist and the docs check).
"""

from tools.analyze.base import Finding, GuardDecl, ModuleInfo, load_module
from tools.analyze.rules import RULES, Rule
from tools.analyze.runner import analyze_module, analyze_paths, main

__all__ = [
    "Finding",
    "GuardDecl",
    "ModuleInfo",
    "RULES",
    "Rule",
    "analyze_module",
    "analyze_paths",
    "load_module",
    "main",
]
