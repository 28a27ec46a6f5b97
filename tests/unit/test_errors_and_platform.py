"""Error hierarchy and the Platform facade."""

import pytest

from repro import errors
from repro.cluster.costmodel import LC_PROFILE
from repro.platform import Platform


class TestErrorHierarchy:
    @pytest.mark.parametrize("subclass", [
        errors.StoreError, errors.MapReduceError, errors.QueryError,
        errors.IndexError_, errors.SketchError,
    ])
    def test_all_roots_derive_from_repro_error(self, subclass):
        assert issubclass(subclass, errors.ReproError)

    def test_specific_errors_carry_context(self):
        error = errors.TableNotFoundError("missing")
        assert error.table_name == "missing"
        assert "missing" in str(error)

        error = errors.ColumnFamilyNotFoundError("t", "cf")
        assert (error.table_name, error.family) == ("t", "cf")

        error = errors.ParseError("bad token", position=17)
        assert error.position == 17
        assert "17" in str(error)

        error = errors.IndexNotBuiltError("bfhm:x")
        assert error.index_name == "bfhm:x"

    def test_catch_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.CounterUnderflowError("x")


class TestIndexNotBuilt:
    """Reading the meta row of a relation whose index was never built is
    a typed error, not a decode failure on missing cells — even when the
    index table exists because another relation's index was built."""

    @pytest.fixture(scope="class")
    def platform(self):
        from repro.tpch.generator import generate
        from repro.tpch.loader import load_tpch

        platform = Platform(LC_PROFILE)
        load_tpch(platform.store, generate(micro_scale=0.05, seed=7))
        return platform

    def test_bfhm_meta_of_unbuilt_relation(self, platform):
        from repro.core.bfhm.algorithm import BFHMRankJoin
        from repro.tpch.queries import q1, q2

        algorithm = BFHMRankJoin(platform)
        algorithm.prepare(q1(1))  # builds part's and lineitem's indexes
        unbuilt = q2(1).left.signature  # orders: never built
        with pytest.raises(errors.IndexNotBuiltError) as raised:
            algorithm.builder.read_meta(platform, unbuilt)
        assert raised.value.index_name.startswith(f"BFHM:{unbuilt}")

    def test_drjn_meta_of_unbuilt_relation(self, platform):
        from repro.baselines.drjn import DRJNRankJoin
        from repro.tpch.queries import q1, q2

        algorithm = DRJNRankJoin(platform)
        algorithm.prepare(q1(1))
        unbuilt = q2(1).left.signature
        with pytest.raises(errors.IndexNotBuiltError) as raised:
            algorithm._read_meta(unbuilt)
        assert raised.value.index_name == f"DRJN:{unbuilt}"


class TestPlatform:
    def test_wiring(self):
        platform = Platform(LC_PROFILE)
        assert platform.cost_model is LC_PROFILE
        assert platform.store.ctx is platform.ctx
        assert platform.hdfs.ctx is platform.ctx
        assert platform.runner.store is platform.store
        assert len(platform.ctx.cluster.workers) == LC_PROFILE.worker_nodes

    def test_reset_metrics_keeps_data(self):
        platform = Platform(LC_PROFILE)
        htable = platform.store.create_table("t", {"d"})
        from repro.store.client import Get, Put

        htable.put(Put("r").add("d", "c", b"v"))
        platform.metrics.reset()
        assert platform.metrics.network_bytes == 0
        assert htable.get(Get("r")).value("d", "c") == b"v"

    def test_default_profile_is_ec2(self):
        from repro.cluster.costmodel import EC2_PROFILE

        assert Platform().cost_model is EC2_PROFILE
