"""The MapReduce engine: phases, combiners, locality, accounting."""

import gc
import weakref
from pathlib import Path

import pytest

from repro.cluster.costmodel import EC2_PROFILE, ec2_profile_with_nodes
from repro.errors import JobConfigurationError
from repro.mapreduce.job import (
    CollectOutput,
    HDFSInput,
    HDFSOutput,
    Job,
    TableInput,
    TableOutput,
    UnionTableInput,
)
from repro.mapreduce.runtime import _Split
from repro.platform import Platform
from repro.query.engine import RankJoinEngine
from repro.store.client import Delete, Put
from repro.tpch.generator import generate
from repro.tpch.loader import load_tpch
from repro.tpch.queries import q1
from tests.committed import assert_matches_committed


@pytest.fixture()
def platform():
    platform = Platform(EC2_PROFILE)
    htable = platform.store.create_table("words", {"d"}, split_keys=["m"])
    docs = {
        "doc1": "the quick brown fox",
        "doc2": "the lazy dog",
        "zdoc3": "the quick dog",
    }
    for key, text in docs.items():
        htable.put(Put(key).add("d", "text", text.encode()))
    htable.flush()
    return platform


def wordcount_job(output=None) -> Job:
    def map_fn(_key, row, task):
        for word in row.value("d", "text").decode().split():
            task.emit(word, 1)
            task.bump("words_mapped")

    def reduce_fn(word, counts, task):
        task.emit(word, sum(counts))

    return Job(
        name="wordcount",
        input_source=TableInput.of("words", {"d"}),
        map_fn=map_fn,
        reduce_fn=reduce_fn,
        num_reducers=3,
        output=output or CollectOutput(),
    )


class TestWordCount:
    def test_correct_counts(self, platform):
        result = platform.runner.run(wordcount_job())
        counts = dict(result.collected)
        assert counts == {"the": 3, "quick": 2, "brown": 1, "fox": 1,
                          "lazy": 1, "dog": 2}

    def test_counters(self, platform):
        result = platform.runner.run(wordcount_job())
        assert result.counters["words_mapped"] == 10

    def test_task_counts(self, platform):
        result = platform.runner.run(wordcount_job())
        assert result.map_tasks >= 1  # one per non-empty region
        assert result.reduce_tasks >= 1

    def test_combiner_reduces_shuffle(self, platform):
        plain = platform.runner.run(wordcount_job())

        def combiner(word, counts, task):
            task.emit(word, sum(counts))

        job = wordcount_job()
        job.combiner_fn = combiner
        combined = platform.runner.run(job)
        assert dict(combined.collected) == dict(plain.collected)
        assert combined.shuffle_bytes <= plain.shuffle_bytes


class TestJobValidation:
    def test_zero_reducers_rejected(self, platform):
        with pytest.raises(JobConfigurationError):
            Job("bad", TableInput.of("words"), lambda *a: None, num_reducers=0)

    def test_combiner_without_reducer_rejected(self, platform):
        with pytest.raises(JobConfigurationError):
            Job("bad", TableInput.of("words"), lambda *a: None,
                combiner_fn=lambda *a: None)


class TestMapOnly:
    def test_map_only_table_output(self, platform):
        def map_fn(key, row, task):
            put = Put(key.upper())
            put.add("d", "copy", row.value("d", "text"))
            task.emit(put.row, put)

        platform.store.create_table("copies", {"d"})
        job = Job("copy", TableInput.of("words"), map_fn,
                  output=TableOutput("copies"))
        platform.runner.run(job)
        copies = list(platform.store.backing("copies").all_rows())
        assert len(copies) == 3
        assert copies[0].row == "DOC1"

    def test_map_finish_hook_and_state(self, platform):
        def map_fn(_key, _row, task):
            task.state["rows"] = task.state.get("rows", 0) + 1

        def map_finish(task):
            task.emit("rows_in_split", task.state["rows"])

        job = Job("finisher", TableInput.of("words"), map_fn,
                  map_finish_fn=map_finish)
        result = platform.runner.run(job)
        assert sum(v for _, v in result.collected) == 3


class TestInputs:
    def test_hdfs_input(self, platform):
        platform.hdfs.write_file("nums", [[i] for i in range(10)])

        def map_fn(_index, record, task):
            task.emit("sum", record[0])

        def reduce_fn(_key, values, task):
            task.emit("total", sum(values))

        job = Job("sum", HDFSInput("nums"), map_fn, reduce_fn, num_reducers=1)
        result = platform.runner.run(job)
        assert result.collected == [("total", 45)]

    def test_union_input_tags_sources(self, platform):
        other = platform.store.create_table("words2", {"d"})
        other.put(Put("x").add("d", "text", b"hello"))
        other.flush()

        def map_fn(_key, tagged, task):
            table_name, _row = tagged
            task.emit(table_name, 1)

        def reduce_fn(table_name, ones, task):
            task.emit(table_name, sum(ones))

        job = Job("tagcount", UnionTableInput.of("words", "words2"),
                  map_fn, reduce_fn, num_reducers=1)
        counts = dict(platform.runner.run(job).collected)
        assert counts == {"words": 3, "words2": 1}


class TestAccounting:
    def test_job_startup_dominates_empty_job(self, platform):
        before = platform.metrics.snapshot()
        platform.runner.run(wordcount_job())
        delta = platform.metrics.snapshot() - before
        assert delta.sim_time_s >= platform.cost_model.mr_job_startup_s

    def test_table_scan_charges_kv_reads(self, platform):
        before = platform.metrics.snapshot()
        platform.runner.run(wordcount_job())
        delta = platform.metrics.snapshot() - before
        assert delta.kv_reads == 3  # one cell per doc

    def test_hdfs_input_charges_no_kv_reads(self, platform):
        platform.hdfs.write_file("f", [[1], [2]])
        platform.metrics.reset()
        job = Job("noop", HDFSInput("f"), lambda *a: None)
        platform.runner.run(job)
        assert platform.metrics.kv_reads == 0

    def test_hdfs_output_written(self, platform):
        job = wordcount_job(output=HDFSOutput("out"))
        platform.runner.run(job)
        words = {record[0] for record in platform.hdfs.read_file("out")}
        assert "the" in words

    def test_reducer_memory_tracked(self, platform):
        platform.runner.run(wordcount_job())
        assert platform.metrics.counters.get("reducer_peak_bytes", 0) > 0


# -- byte accounting, pinned ----------------------------------------------------
#
# Every byte a wave charges (shuffle, reducer footprint, sink writes) and
# the simulated time that follows from it, for a fixed job matrix.  The
# golden was captured on the last commit that sized a record at every
# stage it passed through, and must survive any change to *where* a
# record is sized.  Regenerate with ``make regen`` (only for an
# intentional cost change).

GOLDEN_MR_BYTES = Path(__file__).parent / "golden_mr_bytes.json"

_DOCS = {
    "doc0": "the quick brown fox",
    "doc1": "the lazy dog naps",
    "doc2": "a café for the naïve fox",
    "doc3": "the quick dog",
    "doc4": "größe matters, the fox said",
    "doc5": "dog dog dog",
    "doc6": "nothing the same twice",
    "doc7": "the end",
}


def _bytes_platform(workers: int) -> Platform:
    platform = Platform(ec2_profile_with_nodes(workers))
    platform.hdfs.block_bytes = 128  # outputs span several blocks
    htable = platform.store.create_table(
        "docs", {"d"}, split_keys=["doc2", "doc4", "doc6"]
    )
    for key, text in _DOCS.items():
        htable.put(Put(key).add("d", "text", text.encode()))
    htable.flush()
    platform.store.create_table("copies", {"d"})
    platform.metrics.reset()
    return platform


def _stats_map(key, row, task):
    """Pairs of mixed shape: str / non-ASCII keys; int, float, bytes,
    None, tuple, list and dict inside the values."""
    for position, word in enumerate(row.value("d", "text").decode().split()):
        task.emit(word, (1, len(word) / 4, key.encode(), [position, None]))


def _stats_combine(word, values, task):
    task.emit(word, (sum(v[0] for v in values), sum(v[1] for v in values),
                     b"".join(v[2] for v in values), [p for v in values for p in v[3]]))


def _stats_reduce(word, values, task):
    task.emit(word, {"n": sum(v[0] for v in values),
                     "docs": sorted({v[2] for v in values})})


def _copy_map(key, row, task):
    task.emit(key, Put(key.upper()).add("d", "copy", row.value("d", "text")))


def _bytes_jobs() -> "dict[str, Job]":
    source = TableInput.of("docs", {"d"})

    def reduce_job(name, **kwargs):
        return Job(name, source, _stats_map, _stats_reduce, num_reducers=3, **kwargs)

    return {
        "reduce_collect": reduce_job("plain"),
        "reduce_combiner_collect": reduce_job("combined", combiner_fn=_stats_combine),
        "reduce_hdfs": reduce_job("to-hdfs", output=HDFSOutput("reduced")),
        "map_hdfs": Job("m-hdfs", source, _stats_map, output=HDFSOutput("mapped")),
        "map_table": Job("m-table", source, _copy_map, output=TableOutput("copies")),
        "map_table_skip_wal": Job(
            "m-table-nowal", source, _copy_map,
            output=TableOutput("copies", skip_wal=True),
        ),
        "map_collect": Job("m-collect", source, _stats_map),
    }


def _hdfs_paths(job: Job) -> "list[str]":
    """The HDFS files ``job`` leaves behind (its output file, if any)."""
    return [job.output.path] if isinstance(job.output, HDFSOutput) else []


def _observe_bytes() -> "dict[str, dict]":
    observed = {}
    for workers in (1, 4):
        for label, job in _bytes_jobs().items():
            platform = _bytes_platform(workers)  # fresh: cells are independent
            result = platform.runner.run(job)
            observed[f"{workers}w/{label}"] = {
                "map_tasks": result.map_tasks,
                "reduce_tasks": result.reduce_tasks,
                "collected": len(result.collected),
                "shuffle_bytes": result.shuffle_bytes,
                "reducer_peak_bytes": platform.metrics.counters.get(
                    "reducer_peak_bytes", 0
                ),
                "network_bytes": platform.metrics.network_bytes,
                "sim_time_s": result.sim_time_s,
                "hdfs_file_sizes": {
                    path: sum(block.byte_size for block in platform.hdfs.blocks(path))
                    for path in _hdfs_paths(job)
                },
            }
    return observed


def test_wave_bytes_match_the_golden(regenerate):
    observed = _observe_bytes()
    # the matrix must exercise both sides of the local/remote split
    assert observed["1w/reduce_collect"]["shuffle_bytes"] == 0
    assert observed["4w/reduce_collect"]["shuffle_bytes"] > 0

    assert_matches_committed(GOLDEN_MR_BYTES, observed, regenerate=regenerate)


def test_a_record_is_sized_once_per_stage(monkeypatch):
    """Work count for one reduce job into HDFS: the shuffle sizes each map
    output pair once, the reducers size a key at most once (only to take
    its repeats back out), the sink sizes each output record once."""
    from repro.mapreduce import hdfs, runtime

    sizeof = runtime.sizeof
    calls = []

    def counting_sizeof(value):
        calls.append(value)
        return sizeof(value)

    monkeypatch.setattr(runtime, "sizeof", counting_sizeof)
    monkeypatch.setattr(hdfs, "sizeof", counting_sizeof)

    platform = _bytes_platform(4)
    platform.runner.run(_bytes_jobs()["reduce_hdfs"])

    map_pairs = sum(len(text.split()) for text in _DOCS.values())
    reduce_keys = {word for text in _DOCS.values() for word in text.split()}
    sink_records = len(list(platform.hdfs.read_file("reduced")))
    assert sink_records == len(reduce_keys)
    assert map_pairs <= len(calls) <= map_pairs + len(reduce_keys) + sink_records


# -- the split cache ---------------------------------------------------------
#
# A table job whose input keeps its splits reuses each region's split (its
# rows and their sizes) until the region next changes.  After every kind
# of change a rerun must be the run of a platform that never cached a
# split over the same data: the same rows, and the same bill.


def _cache_platform(workers: int = 4) -> Platform:
    """Three regions of a two-family table: a flushed tombstone, and some
    cells still in the memtables."""
    platform = Platform(ec2_profile_with_nodes(workers))
    htable = platform.store.create_table("kv", {"a", "b"}, split_keys=["k3", "k6"])
    htable.put_batch([
        Put(f"k{i}", timestamp=i + 1)
        .add("a", "x", f"a{i}".encode())
        .add("b", "y", f"b{i}".encode())
        for i in range(9)
    ])
    htable.delete(Delete("k8", "b", "y", timestamp=15))
    htable.flush()
    htable.put_batch([
        Put("k1", timestamp=20).add("a", "x", b"newer"),
        Put("k7", timestamp=21).add("b", "z", b"more"),
    ])
    return platform


def _dump_map(key, row, task):
    task.emit(key, [(c.family, c.qualifier, c.value, c.timestamp) for c in row])


def _dump_job(keep_splits: bool = True) -> Job:
    return Job("dump", TableInput.of("kv", keep_splits=keep_splits), _dump_map)


def _put_batch(platform):
    platform.store.table("kv").put_batch([
        Put("k2", timestamp=30).add("b", "y", b"changed"),
        Put("k5", timestamp=31).add("a", "w", b"added"),
    ])


def _delete(platform):
    platform.store.table("kv").delete(Delete("k4", timestamp=40))


def _flush(platform):
    platform.store.table("kv").flush()


def _compact(platform):
    for region in platform.store.backing("kv").regions:
        region.compact(major=True)


def _drop_family(platform):
    platform.store.backing("kv").drop_family("b")


def _dump(platform, keep_splits: bool = True):
    platform.metrics.reset()
    collected = platform.runner.run(_dump_job(keep_splits)).collected
    return collected, platform.metrics.snapshot()


def _cached_splits(platform):
    """Each region's kept split, or ``None`` where it keeps none."""
    kept = []
    for region in platform.store.backing("kv").regions:
        splits = [v for v in region._derived.values() if isinstance(v, _Split)]
        assert len(splits) <= 1
        kept.append(splits[0] if splits else None)
    return kept


@pytest.mark.parametrize(
    "change", [_put_batch, _delete, _flush, _compact, _drop_family],
    ids=lambda change: change.__name__.strip("_"),
)
def test_a_cached_split_never_outlives_a_change(change):
    cached = _cache_platform()
    first = _dump(cached)
    held = _cached_splits(cached)
    assert None not in held
    change(cached)
    assert not all(
        any(split is other for other in _cached_splits(cached)) for split in held
    ), "the change left every region's split in place"

    fresh = _cache_platform()
    change(fresh)
    expected = _dump(fresh)
    assert _dump(cached) == expected
    assert _dump(cached) == expected  # and the rebuilt split is reused
    # a flush or a compaction moves cells, the others change what is read
    assert (first == expected) == (change in (_flush, _compact))


def test_a_write_rebuilds_only_its_regions_split():
    platform = _cache_platform()

    def splits():
        _dump(platform)
        return _cached_splits(platform)

    before = splits()
    assert None not in before
    # an unchanged region hands out the split it kept
    assert all(a is b for a, b in zip(splits(), before))
    platform.store.table("kv").put(Put("k0", timestamp=50).add("a", "x", b"v"))
    after = splits()
    assert after[0] is not None
    assert [a is b for a, b in zip(after, before)] == [False, True, True]


def test_a_job_that_keeps_no_splits_leaves_none_behind():
    """An index build's scan runs once: it neither keeps its splits nor
    reads the ones a query kept, and bills what a keeping job bills."""
    platform = _cache_platform()
    one_shot = _dump(platform, keep_splits=False)
    assert _cached_splits(platform) == [None, None, None]
    assert _dump(platform) == one_shot
    kept = _cached_splits(platform)
    assert _dump(platform, keep_splits=False) == one_shot
    assert all(a is b for a, b in zip(_cached_splits(platform), kept))


@pytest.mark.parametrize("release", [
    lambda platform: platform.store.table("kv").put(
        Put("k0", timestamp=50).add("a", "x", b"v")
    ),
    lambda platform: platform.store.drop_table("kv"),
], ids=["write", "drop_table"])
def test_a_cached_split_is_freed_by_the_next_change(release):
    """A stale split is not kept until the next job asks for it: the
    write that ends its region's contents, or the drop of its table,
    frees it."""
    platform = _cache_platform()
    _dump(platform)
    held = weakref.ref(_cached_splits(platform)[0])
    release(platform)
    gc.collect()
    assert held() is None


@pytest.mark.parametrize("algorithm", ["ijlmr", "drjn", "pig", "hive"])
def test_a_rerun_over_cached_splits_repeats_the_first(algorithm):
    """No map function changes a cached record: the second run of a query
    returns the first run's tuples, and bills what it billed."""
    platform = Platform(EC2_PROFILE)
    load_tpch(platform.store, generate(micro_scale=0.05, seed=7))
    engine = RankJoinEngine(platform)
    engine.algorithm(algorithm).prepare(q1(5))
    runs = []
    for _ in range(2):
        platform.metrics.reset()
        result = engine.execute(q1(5), algorithm=algorithm)
        runs.append((result.tuples, result.metrics, platform.metrics.snapshot()))
    assert runs[0] == runs[1]
