"""Cells, version resolution, and row grouping."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.costmodel import EC2_PROFILE
from repro.cluster.simulation import SimCluster
from repro.store.cell import Cell, RowResult, iter_rows, iter_visible
from repro.store.region import Region
from tests.resolver_reference import resolve_versions


def cell(row="r", family="d", qualifier="q", value=b"v", ts=1, delete=False):
    return Cell(row, family, qualifier, value, ts, delete)


class TestOrdering:
    def test_newest_version_first(self):
        old, new = cell(ts=1), cell(ts=2)
        assert sorted([old, new], key=Cell.sort_key) == [new, old]

    def test_row_then_family_then_qualifier(self):
        cells = [cell(row="b"), cell(row="a", family="e"), cell(row="a", family="d")]
        ordered = sorted(cells, key=Cell.sort_key)
        assert [(c.row, c.family) for c in ordered] == [
            ("a", "d"), ("a", "e"), ("b", "d"),
        ]

    def test_serialized_size(self):
        c = cell(row="rr", family="f", qualifier="qq", value=b"12345")
        assert c.serialized_size() == 2 + 1 + 2 + 5 + 9


class TestVersionResolution:
    def test_latest_version_wins(self):
        resolved = resolve_versions([cell(ts=1, value=b"old"), cell(ts=5, value=b"new")])
        assert len(resolved) == 1
        assert resolved[0].value == b"new"

    def test_tombstone_masks_older_versions(self):
        resolved = resolve_versions([
            cell(ts=1, value=b"old"),
            cell(ts=2, delete=True),
        ])
        assert resolved == []

    def test_tombstone_does_not_mask_newer_write(self):
        resolved = resolve_versions([
            cell(ts=2, delete=True),
            cell(ts=3, value=b"resurrected"),
        ])
        assert len(resolved) == 1
        assert resolved[0].value == b"resurrected"

    def test_tombstone_masks_equal_timestamp(self):
        resolved = resolve_versions([
            cell(ts=2, value=b"same-instant"),
            cell(ts=2, delete=True),
        ])
        assert resolved == []

    def test_columns_independent(self):
        resolved = resolve_versions([
            cell(qualifier="a", ts=1),
            cell(qualifier="b", ts=2, delete=True),
            cell(qualifier="b", ts=1),
        ])
        assert [c.qualifier for c in resolved] == ["a"]

    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=20),
                              st.booleans()), max_size=20))
    def test_single_column_resolution_matches_model(self, mutations):
        cells = [
            cell(ts=ts, value=str(ts).encode(), delete=is_delete)
            for ts, is_delete in mutations
        ]
        resolved = resolve_versions(cells)
        # reference model: latest put strictly newer than every delete >= it
        deletes = [ts for ts, d in mutations if d]
        horizon = max(deletes, default=-1)
        live = [ts for ts, d in mutations if not d and ts > horizon]
        if live:
            assert len(resolved) == 1
            assert resolved[0].timestamp == max(live)
        else:
            assert resolved == []


class TestRowResult:
    def test_value_lookup(self):
        row = RowResult("r", [cell(qualifier="x", value=b"1")])
        assert row.value("d", "x") == b"1"
        assert row.value("d", "missing") is None

    def test_family_cells_and_families(self):
        row = RowResult("r", [cell(family="a"), cell(family="b")])
        assert len(row.family_cells("a")) == 1
        assert row.families() == {"a", "b"}

    def test_group_rows(self):
        cells = sorted(
            [cell(row="r1"), cell(row="r2", qualifier="a"),
             cell(row="r2", qualifier="b")],
            key=Cell.sort_key,
        )
        grouped = list(iter_rows(cells))
        assert [r.row for r in grouped] == ["r1", "r2"]
        assert len(grouped[1]) == 2


# -- the streaming resolver against the eager reference ---------------------

ROWS = ("r1", "r2", "r3")
FAMILIES = ("a", "b", "c")
QUALIFIERS = ("x", "y")


@st.composite
def raw_cells(draw):
    """Raw cells over a few columns, 1-5 versions each.  Timestamps come
    from a range narrower than the version count and values from two
    choices, so timestamp ties, put/tombstone ties and exact duplicates
    (what a reader sees while a flush publishes) all occur; the list comes
    back in a drawn order."""
    columns = draw(st.lists(
        st.tuples(st.sampled_from(ROWS), st.sampled_from(FAMILIES),
                  st.sampled_from(QUALIFIERS)),
        unique=True, max_size=8,
    ))
    version = st.tuples(st.sampled_from((b"old", b"new")),
                        st.integers(min_value=1, max_value=4), st.booleans())
    cells = [
        Cell(*column, *fields)
        for column in columns
        for fields in draw(st.lists(version, min_size=1, max_size=5))
    ]
    cells += draw(st.lists(st.sampled_from(cells), max_size=3)) if cells else []
    return draw(st.permutations(cells))


family_filters = st.none() | st.sets(st.sampled_from(FAMILIES))


class TestStreamingResolver:
    @settings(max_examples=300)
    @given(raw_cells(), family_filters)
    def test_iter_visible_matches_resolve_versions(self, cells, families):
        expected = [
            c for c in resolve_versions(cells)
            if families is None or c.family in families
        ]
        ordered = sorted(cells, key=Cell.sort_key)
        assert list(iter_visible(ordered, families)) == expected

    @settings(max_examples=300)
    @given(raw_cells(), family_filters)
    def test_fused_resolver_matches_resolve_versions(self, cells, families):
        """The fused resolver's rows are the reference's visible cells,
        grouped by row, with no empty row."""
        expected = [
            RowResult(row, [
                c for c in resolve_versions(cells)
                if c.row == row and (families is None or c.family in families)
            ])
            for row in ROWS
        ]
        ordered = sorted(cells, key=Cell.sort_key)
        assert list(iter_rows(ordered, families)) == [
            row for row in expected if not row.empty
        ]

    @settings(max_examples=200)
    @given(raw_cells(), family_filters, st.sets(st.integers(0, 25)))
    def test_region_scan_matches_point_reads(self, cells, families, flush_after):
        # compaction_trigger=3: the drawn flush points also exercise minor
        # compactions, and scans merge memtable + up to two segments
        region = Region(None, None, SimCluster(EC2_PROFILE).workers[0],
                        compaction_trigger=3)
        for index, c in enumerate(cells):
            region.apply_batch([c])
            if index in flush_after:
                region.flush()
        reads = [region.read_row(row, families) for row in ROWS]
        assert list(region.scan_rows(families=families)) == [
            row for row in reads if not row.empty
        ]
