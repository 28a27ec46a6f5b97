"""ClusterTopology / RegionBalancer: node->server assignment invariants."""

import pytest

from repro.cluster.costmodel import EC2_PROFILE
from repro.cluster.simulation import SimCluster
from repro.cluster.topology import ClusterTopology, LocalityBalancer, RegionBalancer
from repro.platform import Platform
from repro.store.client import Put
from repro.store.region import Region


@pytest.fixture()
def cluster():
    return SimCluster(EC2_PROFILE)


class TestConstruction:
    def test_default_is_single_server(self, cluster):
        topology = ClusterTopology(cluster)
        assert topology.num_servers == 1
        assert not topology.parallel

    def test_multi_server_is_parallel(self, cluster):
        topology = ClusterTopology(cluster, num_servers=4)
        assert topology.num_servers == 4
        assert topology.parallel

    def test_zero_servers_rejected(self, cluster):
        with pytest.raises(ValueError):
            ClusterTopology(cluster, num_servers=0)

    def test_clamped_to_worker_count(self, cluster):
        topology = ClusterTopology(cluster, num_servers=999)
        assert topology.num_servers == len(cluster.workers)

    def test_every_server_owns_a_node(self, cluster):
        topology = ClusterTopology(cluster, num_servers=3)
        for server in topology.servers:
            assert server.node_ids

    def test_round_robin_stripes_workers(self, cluster):
        topology = ClusterTopology(cluster, num_servers=3)
        for index, worker in enumerate(cluster.workers):
            assert topology.server_for(Region(None, None, worker)) == index % 3

    def test_master_routes_to_server_zero(self, cluster):
        topology = ClusterTopology(cluster, num_servers=4)
        assert topology.server_for(Region(None, None, cluster.master)) == 0

    def test_bad_balancer_rejected(self, cluster):
        class Broken(RegionBalancer):
            def server_for_worker(self, worker_index, num_servers):
                return num_servers + 5

        with pytest.raises(ValueError):
            ClusterTopology(cluster, num_servers=2, balancer=Broken())


class TestRegionRouting:
    def _regions(self, num_servers):
        platform = Platform(EC2_PROFILE, num_servers=num_servers)
        htable = platform.store.create_table(
            "t", {"d"}, split_keys=[f"r{i}" for i in range(1, 8)]
        )
        for i in range(8):
            put = Put(f"r{i}")
            put.add("d", "q", b"v")
            htable.put(put)
        return platform.ctx.topology, platform.store.backing("t").regions

    def test_regions_span_all_servers(self):
        topology, regions = self._regions(num_servers=4)
        assert topology.spread(list(regions)) == 4

    def test_assignments_preserve_key_order_within_groups(self):
        topology, regions = self._regions(num_servers=4)
        groups = topology.assignments(list(regions))
        ordered = [id(region) for region in regions]
        for group in groups.values():
            indices = [ordered.index(id(region)) for region in group]
            assert indices == sorted(indices)

    def test_assignments_cover_every_region_once(self):
        topology, regions = self._regions(num_servers=3)
        groups = topology.assignments(list(regions))
        grouped = [id(r) for group in groups.values() for r in group]
        assert sorted(grouped) == sorted(id(r) for r in regions)

    def test_single_server_groups_to_one(self):
        topology, regions = self._regions(num_servers=1)
        assert topology.spread(list(regions)) == 1


class TestLocalityBalancer:
    def test_assigns_contiguous_blocks(self):
        assert LocalityBalancer().assign(8, 4) == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_uneven_split_keeps_blocks_contiguous(self):
        assigned = LocalityBalancer().assign(5, 2)
        assert assigned == sorted(assigned)
        assert set(assigned) == {0, 1}

    def test_every_server_owns_a_node(self):
        cluster = SimCluster(EC2_PROFILE)
        topology = ClusterTopology(cluster, num_servers=3, balancer=LocalityBalancer())
        for server in topology.servers:
            assert server.node_ids

    def test_adjacent_regions_share_servers(self):
        """Round-robin region placement + block worker assignment means a
        run of consecutive regions spans far fewer servers than striping."""
        platform = Platform(
            EC2_PROFILE, num_servers=4, balancer=LocalityBalancer()
        )
        htable = platform.store.create_table(
            "t", {"d"}, split_keys=[f"r{i}" for i in range(1, 8)]
        )
        htable.put(Put("r0").add("d", "q", b"v"))
        regions = list(platform.store.backing("t").regions)
        striped = Platform(EC2_PROFILE, num_servers=4)
        # first two regions (one narrow fetch round's worth of key range)
        assert platform.ctx.topology.spread(regions[:2]) == 1
        assert striped.ctx.topology.spread(regions[:2]) == 2

    def test_colocated_bfhm_bucket_fetches_beat_round_robin(self):
        """The satellite claim, on the simulated clock: the BFHM query's
        bucket blob + reverse-mapping fetch rounds — batched multi-gets
        over *adjacent* key ranges — price lower when adjacent regions
        are co-located than under round-robin striping.  Pinned on the
        deterministic fetch-heavy regime (k=50: many buckets drained per
        query); the workload matches the identity-grid setup exactly.
        """
        from repro.bench.harness import build_setup
        from repro.tpch.queries import q1

        def bfhm_time(balancer):
            setup = build_setup(
                EC2_PROFILE, micro_scale=0.2, seed=42,
                num_servers=4, balancer=balancer,
            )
            setup.engine.algorithm("bfhm").prepare(q1(1))
            result = setup.engine.execute(q1(50), algorithm="bfhm")
            return result.metrics.sim_time_s

        assert bfhm_time(LocalityBalancer()) < bfhm_time(None)
