"""Core value types."""

from repro.common.types import JoinTuple, top_k


def make(score: float, *keys: str) -> JoinTuple:
    keys = keys or ("l", "r")
    return JoinTuple(keys, "v", score, tuple(score / len(keys) for _ in keys))


class TestJoinTuple:
    def test_sort_key_orders_by_score_desc(self):
        results = [make(0.2), make(0.9), make(0.5)]
        ordered = sorted(results, key=JoinTuple.sort_key)
        assert [t.score for t in ordered] == [0.9, 0.5, 0.2]

    def test_ties_broken_deterministically(self):
        a = make(0.5, "l1", "r1")
        b = make(0.5, "l0", "r9")
        assert sorted([a, b], key=JoinTuple.sort_key) == [b, a]

    def test_arity_three_ties_ordered_by_keys(self):
        a = make(0.5, "a", "c", "a")
        b = make(0.5, "a", "b", "z")
        c = make(0.5, "0", "z", "z")
        d = make(0.7, "z", "z", "z")
        assert top_k([a, b, c, d], 4) == [d, c, b, a]

    def test_top_k_cuts_in_order(self):
        results = [make(s) for s in (0.1, 0.7, 0.4, 0.9)]
        top = top_k(results, 2)
        assert [t.score for t in top] == [0.9, 0.7]

    def test_top_k_with_fewer_results(self):
        assert len(top_k([make(0.3)], 5)) == 1
