"""Server-side filters."""

from repro.common.serialization import encode_float
from repro.store.cell import Cell, RowResult
from repro.store.filters import ScoreBandFilter


def row(key="r", cells=None):
    return RowResult(key, cells if cells is not None else
                     [Cell(key, "d", "q", b"v", 1)])


class TestScoreThreshold:
    """``high=None``: the open-ended pull filter."""

    def _scored(self, value: float):
        return row(cells=[Cell("r", "d", "score", encode_float(value), 1)])

    def test_threshold_inclusive(self):
        f = ScoreBandFilter("d", "score", 0.5)
        assert f.matches(self._scored(0.5))
        assert f.matches(self._scored(0.9))
        assert not f.matches(self._scored(0.49))

    def test_missing_score_rejects(self):
        assert not ScoreBandFilter("d", "score", 0.5).matches(row())


class TestScoreBand:
    """A closed band: DRJN's incremental pull rounds."""

    def _scored(self, value: float):
        return row(cells=[Cell("r", "d", "score", encode_float(value), 1)])

    def test_band_is_half_open(self):
        f = ScoreBandFilter("d", "score", 0.3, 0.6)
        assert f.matches(self._scored(0.3))
        assert f.matches(self._scored(0.59))
        assert not f.matches(self._scored(0.6))
        assert not f.matches(self._scored(0.29))

    def test_other_cells_ride_along(self):
        cells = [Cell("r", "d", "jv", b"x", 1),
                 Cell("r", "d", "score", encode_float(0.4), 1)]
        shipped = RowResult("r", list(cells))
        assert ScoreBandFilter("d", "score", 0.3, 0.6).matches(shipped)
        assert shipped.cells == cells
