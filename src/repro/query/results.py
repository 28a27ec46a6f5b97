"""Rank-join execution results with their measured costs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.metrics import MetricsSnapshot
from repro.common.types import JoinTuple


@dataclass
class RankJoinResult:
    """What an algorithm returns, at any arity: the tuples plus the bill.

    ``metrics`` is the *delta* snapshot covering only this query's
    execution (index build costs are reported separately, as in Fig. 9).
    """

    algorithm: str
    k: int
    tuples: list[JoinTuple]
    metrics: MetricsSnapshot
    details: dict[str, float] = field(default_factory=dict)

    def scores(self) -> list[float]:
        return [t.score for t in self.tuples]

    def recall_against(self, truth: "list[JoinTuple]") -> float:
        """Score-multiset recall against a ground-truth top-k list.

        Rank joins may break ties arbitrarily, so recall compares the
        multiset of scores (what the paper's 100%-recall claim is about),
        not row identities."""
        want = sorted((t.score for t in truth), reverse=True)
        if not want:
            return 1.0
        got = sorted((t.score for t in self.tuples), reverse=True)
        matched = i = j = 0
        while i < len(want) and j < len(got):
            if abs(want[i] - got[j]) <= 1e-9:
                matched += 1
                i += 1
                j += 1
            elif got[j] > want[i]:
                j += 1
            else:
                i += 1
        return matched / len(want)
