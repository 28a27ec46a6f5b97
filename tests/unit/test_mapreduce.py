"""The MapReduce engine: phases, combiners, locality, accounting."""

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
from repro.platform import Platform
from repro.store.client import Put
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
