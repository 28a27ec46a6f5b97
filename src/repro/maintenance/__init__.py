"""Online index maintenance (§6): synchronous interception and the
asynchronous, crash-recoverable WAL-drain pipeline."""

from repro.maintenance.consistency import RetryPolicy, with_retries
from repro.maintenance.faults import (
    CrashInjector,
    DrainPoint,
    FaultPlan,
    SlowDrainInjector,
    StoreFaultInjector,
)
from repro.maintenance.interceptor import MaintainedRelation
from repro.maintenance.worker import (
    ASYNC_RETRY_POLICY,
    MaintenancePipeline,
    TableStaleness,
)

__all__ = [
    "ASYNC_RETRY_POLICY",
    "CrashInjector",
    "DrainPoint",
    "FaultPlan",
    "MaintainedRelation",
    "MaintenancePipeline",
    "RetryPolicy",
    "SlowDrainInjector",
    "StoreFaultInjector",
    "TableStaleness",
    "with_retries",
]
