"""Server-side filters.

The paper's DRJN adaptation "augmented HBase with custom server-side filters
to allow for efficient filtering of tuples" (§7.1): the region server still
reads every cell (so dollar cost is unchanged) but only matching rows cross
the network (so bandwidth drops).  Filters here implement exactly that
contract: they are evaluated inside the region scan, after version
resolution, on whole rows.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.common.serialization import decode_float
from repro.store.cell import RowResult


class Filter(ABC):
    """Predicate over a resolved row, evaluated at the region server."""

    @abstractmethod
    def matches(self, row: RowResult) -> bool:
        """True iff the row should be returned to the client."""


class ScoreBandFilter(Filter):
    """Keep rows whose float-encoded score column is in ``[low, high)``
    (``high=None``: no upper bound).

    This is the DRJN pull-phase filter: "fetch and join all tuples whose
    score is above the lower score boundaries of the last fetched buckets"
    (§7.1).  The upper bound lets incremental pull bands skip tuples
    already pulled in earlier rounds (the scan itself still reads
    everything — that cost is inherent to DRJN's design).  Cells other than
    the score column ride along untouched.
    """

    def __init__(
        self, family: str, qualifier: str, low: float, high: "float | None" = None
    ) -> None:
        self.family = family
        self.qualifier = qualifier
        self.low = low
        self.high = high

    def matches(self, row: RowResult) -> bool:
        raw = row.value(self.family, self.qualifier)
        if raw is None:
            return False
        score = decode_float(raw)
        if score < self.low:
            return False
        return self.high is None or score < self.high
