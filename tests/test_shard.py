"""Unit and integration tests for the repro.shard subsystem.

Partitioner invariants, the community-DAG generator, parallel shard
builds and their aggregated report, persistence round-trips, the
``shard.route.*`` / ``shard.build.*`` observability counters, serving a
sharded index through the HTTP service, and the ``repro shard`` CLI.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.cli import main
from repro.core.condensed import CondensedIndex
from repro.errors import GraphError, IndexBuildError, NotADAGError, QueryError
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import community_dag, cyclic_communities, random_dag
from repro.graphs.topo import is_dag
from repro.obs.metrics import global_registry
from repro.obs.tracer import TRACER, disable_tracing, enable_tracing
from repro.persistence import load_index, save_index
from repro.service.engine import ReachabilityService
from repro.service.server import serve
from repro.shard import Partition, ShardBuildReport, ShardedIndex, partition_dag
from repro.traversal.online import bfs_reachable
from repro.workloads.updates import EdgeOp


@pytest.fixture(autouse=True)
def _tracer_off():
    disable_tracing()
    TRACER.clear()
    yield
    disable_tracing()
    TRACER.clear()


# -- partitioner ------------------------------------------------------------
class TestPartitioner:
    def test_every_vertex_assigned_and_shards_nonempty(self):
        graph = random_dag(40, 90, seed=501)
        partition = partition_dag(graph, 4)
        assert isinstance(partition, Partition)
        assert partition.num_shards == 4
        assert len(partition.shard_of) == 40
        assert all(0 <= s < 4 for s in partition.shard_of)
        assert all(size >= 1 for size in partition.shard_sizes)
        assert sum(partition.shard_sizes) == 40

    def test_cut_edges_are_exactly_the_crossing_edges(self):
        graph = random_dag(30, 70, seed=502)
        partition = partition_dag(graph, 3)
        shard = partition.shard_of
        expected = sorted(
            (u, v) for u, v in graph.edges() if shard[u] != shard[v]
        )
        assert list(partition.cut_edges) == expected
        assert partition.num_edges == graph.num_edges
        boundary = set(partition.boundary_vertices)
        assert boundary == {v for edge in expected for v in edge}

    def test_k1_is_trivial(self):
        graph = random_dag(20, 40, seed=503)
        partition = partition_dag(graph, 1)
        assert partition.num_shards == 1
        assert partition.cut_edges == ()
        assert partition.cut_fraction() == 0.0

    def test_k_clamped_to_vertices(self):
        partition = partition_dag(DiGraph(3, [(0, 1), (1, 2)]), 10)
        assert partition.num_shards == 3

    def test_refinement_never_increases_the_cut(self):
        graph = community_dag(6, 10, seed=504, inter_edge_prob=0.03)
        unrefined = partition_dag(graph, 6, refine_passes=0)
        refined = partition_dag(graph, 6, refine_passes=3)
        assert len(refined.cut_edges) <= len(unrefined.cut_edges)

    def test_community_banding_recovers_low_cut(self):
        # Community-major ids are a topo order, so banding a 6x10 graph
        # into 6 shards should cut (nearly) only the sparse inter edges.
        graph = community_dag(6, 10, seed=505, inter_edge_prob=0.02)
        partition = partition_dag(graph, 6)
        assert partition.cut_fraction() < 0.3

    def test_rejects_cyclic_and_bad_arguments(self):
        cyclic = DiGraph(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(NotADAGError):
            partition_dag(cyclic, 2)
        dag = DiGraph(3, [(0, 1)])
        with pytest.raises(GraphError):
            partition_dag(dag, 0)
        with pytest.raises(GraphError):
            partition_dag(dag, 2, refine_passes=-1)

    def test_as_dict_is_json_serialisable(self):
        partition = partition_dag(random_dag(15, 30, seed=506), 3)
        payload = json.dumps(partition.as_dict())
        assert "cut_fraction" in payload


# -- community_dag generator ------------------------------------------------
class TestCommunityDag:
    def test_is_a_dag_with_block_structure(self):
        graph = community_dag(4, 12, seed=510)
        assert graph.num_vertices == 48
        assert is_dag(graph)
        for u, v in graph.edges():
            assert u < v  # ids are a topological order by construction

    def test_inter_probability_dial(self):
        sparse = community_dag(4, 10, seed=511, inter_edge_prob=0.01)
        dense = community_dag(4, 10, seed=511, inter_edge_prob=0.2)

        def inter_edges(graph):
            return sum(
                1 for u, v in graph.edges() if u // 10 != v // 10
            )

        assert inter_edges(sparse) < inter_edges(dense)

    def test_zero_inter_prob_disconnects_communities(self):
        graph = community_dag(3, 8, seed=512, inter_edge_prob=0.0)
        assert all(u // 8 == v // 8 for u, v in graph.edges())

    def test_validates_arguments(self):
        with pytest.raises(GraphError):
            community_dag(0, 5, seed=1)
        with pytest.raises(GraphError):
            community_dag(2, 0, seed=1)
        with pytest.raises(GraphError):
            community_dag(2, 5, seed=1, intra_edge_prob=1.5)
        with pytest.raises(GraphError):
            community_dag(2, 5, seed=1, inter_edge_prob=-0.1)


# -- parallel builds and the aggregated report ------------------------------
class TestParallelBuild:
    @pytest.mark.parametrize("executor", ("serial", "process"))
    def test_executors_agree(self, executor):
        graph = community_dag(4, 10, seed=520, inter_edge_prob=0.05)
        index = ShardedIndex.build(
            graph, family="TC", num_shards=4, executor=executor
        )
        pairs = [(s, t) for s in range(0, 40, 3) for t in range(0, 40, 2)]
        assert index.query_batch(pairs) == [
            bfs_reachable(graph, s, t) for s, t in pairs
        ]
        report = index.shard_build_report
        assert isinstance(report, ShardBuildReport)
        assert report.executor == executor
        assert report.num_shards == 4

    def test_report_aggregates_per_shard_build_reports(self):
        graph = community_dag(3, 10, seed=521, inter_edge_prob=0.05)
        index = ShardedIndex.build(graph, family="GRAIL", num_shards=3)
        report = index.shard_build_report
        assert len(report.shard_reports) == 3
        for shard_report in report.shard_reports:
            assert shard_report is not None
            assert shard_report.index == "GRAIL"
            assert shard_report.total_seconds >= 0
        assert report.boundary_report is not None
        assert sum(report.shard_sizes) == 30
        assert all(size >= 1 for size in report.shard_sizes)
        assert report.cut_edges == len(index.partition.cut_edges)
        json.dumps(report.as_dict())
        assert "shard builds" in report.render_text()

    def test_standard_build_report_has_shard_phases(self):
        graph = random_dag(20, 40, seed=522)
        index = ShardedIndex.build(graph, num_shards=2)
        phases = {phase.name for phase in index.build_report.phases}
        assert {"partition", "shard-extract", "shard-builds", "boundary-graph"} \
            <= phases

    def test_invalid_arguments(self):
        graph = random_dag(10, 15, seed=523)
        with pytest.raises(IndexBuildError):
            ShardedIndex.build(graph, executor="fibers")
        with pytest.raises(IndexBuildError):
            ShardedIndex.build(graph, family="Sharded")

    def test_out_of_range_queries_raise(self):
        index = ShardedIndex.build(random_dag(10, 15, seed=524), num_shards=2)
        with pytest.raises(QueryError):
            index.query(0, 10)
        with pytest.raises(QueryError):
            index.query_batch([(0, 1), (-1, 2)])


# -- persistence ------------------------------------------------------------
class TestPersistence:
    def test_round_trip_preserves_answers(self, tmp_path):
        graph = community_dag(4, 10, seed=530, inter_edge_prob=0.06)
        index = ShardedIndex.build(graph, family="PLL", num_shards=4)
        pairs = [(s, t) for s in range(0, 40, 2) for t in range(0, 40, 3)]
        before = index.query_batch(pairs)  # also warms the border caches
        path = tmp_path / "sharded.idx"
        save_index(index, path)
        loaded = load_index(path)
        assert isinstance(loaded, ShardedIndex)
        assert loaded.query_batch(pairs) == before
        assert loaded.partition.shard_of == index.partition.shard_of
        assert loaded.family == "PLL"
        assert loaded.boundary_index is not None
        assert loaded.size_in_entries() == index.size_in_entries()

    def test_caches_dropped_on_save(self, tmp_path):
        graph = community_dag(2, 8, seed=531, inter_edge_prob=0.1)
        index = ShardedIndex.build(graph, num_shards=2)
        for s in range(16):
            index.query(s, (s + 5) % 16)
        path = tmp_path / "sharded.idx"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded._out_cache == {}
        assert loaded._pair_cache == {}

    def test_condensed_sharded_round_trip(self, tmp_path):
        cyclic = cyclic_communities(3, 5, 8, seed=532)
        index = CondensedIndex.build(
            cyclic, inner=ShardedIndex, num_shards=2, family="GRAIL"
        )
        path = tmp_path / "condensed-sharded.idx"
        save_index(index, path)
        loaded = load_index(path)
        n = cyclic.num_vertices
        for s in range(0, n, 2):
            for t in range(n):
                assert loaded.query(s, t) == bfs_reachable(cyclic, s, t)


# -- observability ----------------------------------------------------------
def _shard_route_counters() -> dict[str, int]:
    return dict(global_registry().as_dict().get("shard", {}).get("route", {}))


class TestObservability:
    def test_route_counters_gated_on_tracing(self):
        graph = community_dag(2, 8, seed=540, inter_edge_prob=0.1)
        index = ShardedIndex.build(graph, num_shards=2)
        before = _shard_route_counters()
        index.query(2, 2)
        assert _shard_route_counters() == before  # tracer off: no counters
        shard_of = index.partition.shard_of
        intra_pair = next(
            (u, v)
            for u, v in graph.edges()
            if shard_of[u] == shard_of[v]  # a direct edge: intra YES for sure
        )
        enable_tracing()
        index.query(*intra_pair)  # same shard, shard-local index decides
        index.query(0, 15)  # cross shard
        index.query(0, 15)  # memoised border pair
        index.query(3, 3)  # trivial
        after = _shard_route_counters()
        assert after.get("intra_shard", 0) >= before.get("intra_shard", 0) + 1
        assert after.get("cross_shard", 0) >= before.get("cross_shard", 0) + 1
        assert after.get("boundary_cache", 0) >= before.get("boundary_cache", 0) + 1
        assert after.get("trivial", 0) >= before.get("trivial", 0) + 1
        spans = [s for s in TRACER.finished() if s.name == "shard.query"]
        assert spans and all("route" in s.attributes for s in spans)

    def test_batch_routes_attributed(self):
        graph = community_dag(2, 8, seed=541, inter_edge_prob=0.1)
        index = ShardedIndex.build(graph, num_shards=2)
        enable_tracing()
        before = _shard_route_counters()
        pairs = [(s, t) for s in range(16) for t in range(16)]
        index.query_batch(pairs)
        after = _shard_route_counters()
        attributed = sum(after.values()) - sum(before.values())
        assert attributed == len(pairs)

    def test_build_counters(self):
        before = global_registry().as_dict().get("shard", {}).get("build", {})
        graph = random_dag(20, 40, seed=542)
        ShardedIndex.build(graph, num_shards=4)
        after = global_registry().as_dict()["shard"]["build"]
        assert after.get("builds", 0) == before.get("builds", 0) + 1
        assert after.get("shards", 0) == before.get("shards", 0) + 4


# -- service + HTTP integration ---------------------------------------------
class TestService:
    def test_service_serves_sharded_index(self):
        graph = community_dag(2, 8, seed=550, inter_edge_prob=0.1)
        service = ReachabilityService(
            graph, index="Sharded", index_params={"num_shards": 2}
        )
        snap = service.acquire()
        assert isinstance(snap.plain, ShardedIndex)
        assert snap.plain.partition.num_shards == 2
        for s in range(0, 16, 3):
            for t in range(16):
                assert service.reach(s, t) == bfs_reachable(graph, s, t)

    def test_updates_rebuild_the_sharded_index(self):
        graph = community_dag(2, 6, seed=551, inter_edge_prob=0.1)
        service = ReachabilityService(
            graph, index="Sharded", index_params={"num_shards": 2}, cache_capacity=None
        )
        assert service.reach(0, 11) == bfs_reachable(graph, 0, 11)
        epoch = service.apply_updates([EdgeOp("insert", 0, 11)])
        assert epoch == 1
        assert service.reach(0, 11) is True
        assert isinstance(service.acquire().plain, ShardedIndex)

    def test_cyclic_update_wraps_in_condensation(self):
        graph = community_dag(2, 5, seed=552, inter_edge_prob=0.2)
        service = ReachabilityService(
            graph, index="Sharded", index_params={"num_shards": 2}
        )
        forward = next(
            (u, v) for u, v in graph.edges() if u // 5 != v // 5
        )
        service.apply_updates([EdgeOp("insert", forward[1], forward[0])])
        snap = service.acquire()
        assert isinstance(snap.plain, CondensedIndex)
        updated = snap.graph
        for s in range(0, 10, 2):
            for t in range(10):
                assert service.reach(s, t) == bfs_reachable(updated, s, t)

    def test_http_end_to_end(self):
        graph = community_dag(2, 6, seed=553, inter_edge_prob=0.15)
        service = ReachabilityService(
            graph, index="Sharded", index_params={"num_shards": 2, "family": "GRAIL"}
        )
        server = serve(service, port=0)
        server.start_background()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            with urllib.request.urlopen(f"{base}/reach?source=0&target=11", timeout=5) as r:
                payload = json.loads(r.read())
            assert payload["reachable"] == bfs_reachable(graph, 0, 11)
            with urllib.request.urlopen(f"{base}/explain?source=1&target=2", timeout=5) as r:
                explanation = json.loads(r.read())
            assert explanation["index"] == "Sharded"
            assert explanation["route"] in {
                "intra_shard", "cross_shard", "boundary_cache", "trivial", "cache",
            }
        finally:
            server.shutdown()
            server.server_close()


# -- CLI --------------------------------------------------------------------
@pytest.fixture
def edge_list(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("a b\nb c\nc d\nd e\ne f\n")
    return str(path)


class TestCli:
    def test_shard_stats(self, edge_list, capsys):
        assert main(["shard", "stats", edge_list, "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "cut_edges" in out
        assert "shard_sizes" in out

    def test_shard_stats_cyclic_condenses(self, tmp_path, capsys):
        path = tmp_path / "cyclic.txt"
        path.write_text("a b\nb a\nb c\n")
        assert main(["shard", "stats", str(path), "--shards", "2"]) == 0
        assert "condensation" in capsys.readouterr().out

    def test_shard_build_and_query(self, edge_list, tmp_path, capsys):
        saved = str(tmp_path / "saved.idx")
        assert main(
            ["shard", "build", edge_list, "--shards", "2", "--save", saved]
        ) == 0
        out = capsys.readouterr().out
        assert "shard builds" in out
        assert "saved to" in out
        assert main(["shard", "query", edge_list, "a", "f", "--load", saved]) == 0
        assert "true" in capsys.readouterr().out
        assert main(["shard", "query", edge_list, "f", "a", "--load", saved]) == 1

    def test_shard_query_explain(self, edge_list, capsys):
        code = main(
            ["shard", "query", edge_list, "a", "f", "--shards", "2", "--explain"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "route:" in out

    def test_serve_index_param_parsing(self):
        from repro.cli import _parse_index_params

        params = _parse_index_params(["num_shards=4", "family=GRAIL"])
        assert params == {"num_shards": 4, "family": "GRAIL"}
        with pytest.raises(ValueError):
            _parse_index_params(["nonsense"])
