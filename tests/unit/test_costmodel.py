"""Cost model, metrics, and the simulation context."""

import pytest

from repro.cluster.costmodel import EC2_PROFILE, LC_PROFILE, ec2_profile_with_nodes
from repro.cluster.metrics import MetricsCollector
from repro.cluster.simulation import SimCluster, SimContext


class TestCostModel:
    def test_profiles_are_distinct_environments(self):
        assert EC2_PROFILE.rpc_latency_s > LC_PROFILE.rpc_latency_s
        assert EC2_PROFILE.worker_nodes != LC_PROFILE.worker_nodes
        assert LC_PROFILE.network_bandwidth_bps > EC2_PROFILE.network_bandwidth_bps

    def test_time_formulas_scale_linearly(self):
        assert EC2_PROFILE.network_time(2000) == pytest.approx(
            2 * EC2_PROFILE.network_time(1000)
        )
        assert EC2_PROFILE.disk_seq_time(0) == 0.0
        assert EC2_PROFILE.cpu_time(0) == 0.0

    def test_data_scale_dilates_time_not_counters(self):
        import dataclasses

        base = dataclasses.replace(EC2_PROFILE, data_scale=1.0)
        dilated = dataclasses.replace(EC2_PROFILE, data_scale=100.0)
        assert dilated.network_time(1000) == pytest.approx(
            100 * base.network_time(1000)
        )

    def test_dollars_follow_dynamodb_pricing(self):
        # $0.01 per 50 read units (§7.1 footnote)
        assert EC2_PROFILE.dollars(50) == pytest.approx(0.01)

    def test_resized_ec2_profile(self):
        resized = ec2_profile_with_nodes(2)
        assert resized.worker_nodes == 2
        assert resized.data_scale == EC2_PROFILE.data_scale
        assert resized.rpc_latency_s == EC2_PROFILE.rpc_latency_s


class TestMetricsCollector:
    def test_accumulation_and_snapshot(self):
        metrics = MetricsCollector()
        metrics.advance_time(1.5)
        metrics.add_network(100)
        metrics.add_kv_reads(50)
        snapshot = metrics.snapshot()
        assert snapshot.sim_time_s == 1.5
        assert snapshot.network_bytes == 100
        assert snapshot.kv_reads == 50
        assert snapshot.dollars == pytest.approx(0.01)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector().advance_time(-1)

    def test_snapshot_difference(self):
        metrics = MetricsCollector()
        metrics.add_network(10)
        before = metrics.snapshot()
        metrics.add_network(90)
        metrics.advance_time(2.0)
        delta = metrics.snapshot() - before
        assert delta.network_bytes == 90
        assert delta.sim_time_s == 2.0

    def test_named_counters_and_peaks(self):
        metrics = MetricsCollector()
        metrics.bump("rounds")
        metrics.bump("rounds", 2)
        metrics.record_peak("peak", 10)
        metrics.record_peak("peak", 5)
        assert metrics.counters["rounds"] == 3
        assert metrics.counters["peak"] == 10

    def test_reset(self):
        metrics = MetricsCollector()
        metrics.add_network(5)
        metrics.reset()
        assert metrics.snapshot().network_bytes == 0


class TestSimContext:
    def test_timestamps_monotonic(self):
        ctx = SimContext.with_profile(EC2_PROFILE)
        stamps = [ctx.next_timestamp() for _ in range(100)]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 100

    def test_cluster_topology(self):
        cluster = SimCluster(EC2_PROFILE)
        assert len(cluster.workers) == EC2_PROFILE.worker_nodes
        assert cluster.master.is_master

    def test_round_robin_placement(self):
        cluster = SimCluster(EC2_PROFILE)
        first_cycle = [cluster.next_worker().node_id
                       for _ in range(len(cluster.workers))]
        assert sorted(first_cycle) == [n.node_id for n in cluster.workers]

    def test_charge_rpc(self):
        ctx = SimContext.with_profile(EC2_PROFILE)
        ctx.charge_rpc(100, 900)
        assert ctx.metrics.network_bytes == 1000
        assert ctx.metrics.sim_time_s >= EC2_PROFILE.rpc_latency_s

    def test_charge_server_read(self):
        ctx = SimContext.with_profile(EC2_PROFILE)
        ctx.charge_server_read(1000, 10, sequential=False)
        assert ctx.metrics.kv_reads == 10
        assert ctx.metrics.disk_bytes_read == 1000
        assert ctx.metrics.sim_time_s >= EC2_PROFILE.disk_random_read_s
