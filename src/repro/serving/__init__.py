"""Query serving: plan cache, admission control, one serving thread.

The serving layer turns the single-caller :class:`~repro.query.engine.RankJoinEngine`
into a multi-client deployment: :class:`QueryServer` admits queries from
many client threads, shares one plan cache and statistics catalog across
them, and runs every admitted query in FIFO order on one executor thread
so its simulated cost stays bit-identical to solo execution (see
:mod:`repro.serving.server`).
"""

from repro.serving.plan_cache import CachedPlan, PlanCache
from repro.serving.server import QueryServer, ServedQuery

__all__ = [
    "CachedPlan",
    "PlanCache",
    "QueryServer",
    "ServedQuery",
]
