"""Explain-vs-query agreement and route attribution across the stack."""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.core.condensed import CondensedIndex
from repro.core.registry import all_plain_indexes
from repro.gdbms import GraphStore
from repro.gdbms.planner import IndexPlanner
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import cyclic_communities, random_dag
from repro.graphs.topo import is_dag
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.tracer import TRACER, disable_tracing, enable_tracing
from repro.service.engine import ReachabilityService
from repro.service.server import serve
from repro.traversal.online import bfs_reachable

PLAIN = all_plain_indexes()
FAST = sorted(set(PLAIN) - {"2-Hop", "Dual labeling", "Path-hop"})

SHARD_ROUTES = {"intra_shard", "cross_shard", "boundary_cache"}
ROUTES = {
    "trivial",
    "label_probe",
    "certain",
    "guided_traversal",
    "same_scc",
} | SHARD_ROUTES


@pytest.fixture(autouse=True)
def _tracer_off():
    disable_tracing()
    TRACER.clear()
    yield
    disable_tracing()
    TRACER.clear()


def _build(name: str, graph: DiGraph):
    cls = PLAIN[name]
    if cls.metadata.input_kind == "DAG" and not is_dag(graph):
        return CondensedIndex.build(graph, inner=cls)
    return cls.build(graph)


@pytest.mark.parametrize("name", FAST)
def test_explain_agrees_with_query(name):
    """Every family: explain() answer, route and query() agree everywhere."""
    for graph in (
        random_dag(30, 70, seed=301),
        cyclic_communities(3, 4, 8, seed=302),
    ):
        index = _build(name, graph)
        n = graph.num_vertices
        for s in range(0, n, 3):
            for t in range(0, n, 2):
                explanation = index.explain(s, t)
                assert explanation.answer == index.query(s, t) == bfs_reachable(
                    graph, s, t
                ), (name, s, t)
                assert explanation.route in ROUTES, (name, explanation.route)
                assert explanation.index
                assert explanation.details
                json.dumps(explanation.as_dict())


@pytest.mark.parametrize("name", FAST)
def test_explain_route_matches_metadata(name):
    """The reported route is consistent with the family's taxonomy row."""
    graph = random_dag(30, 70, seed=303)
    index = _build(name, graph)
    complete = PLAIN[name].metadata.complete
    seen = set()
    n = graph.num_vertices
    for s in range(0, n, 3):
        for t in range(0, n, 2):
            seen.add(index.explain(s, t).route)
    assert "trivial" in seen  # the s == t diagonal
    if name == "Sharded":
        # The partitioned composition attributes its own route set.
        assert seen - {"trivial"} <= SHARD_ROUTES
        assert "intra_shard" in seen
    elif complete:
        assert "label_probe" in seen
        assert not seen & {"certain", "guided_traversal"}
    else:
        assert "certain" in seen
        assert "label_probe" not in seen


def test_condensed_same_scc_route(cyclic_graph):
    index = CondensedIndex.build(cyclic_graph, inner=PLAIN["Tree cover"])
    explanation = index.explain(0, 2)  # both inside the {0,1,2} SCC
    assert explanation.answer is True
    assert explanation.route == "same_scc"
    assert index.query(0, 2) is True


def test_trivial_route():
    index = PLAIN["PLL"].build(DiGraph(3, [(0, 1)]))
    explanation = index.explain(2, 2)
    assert explanation.answer is True
    assert explanation.route == "trivial"
    assert explanation.probe is None


def _route_counters() -> dict[str, int]:
    nested = global_registry().as_dict().get("index", {}).get("route", {})
    return {route: count for route, count in nested.items()}


def test_route_counters_gated_on_tracing(small_dag):
    index = PLAIN["PLL"].build(small_dag)
    before = _route_counters()
    index.query(0, 5)
    assert _route_counters() == before  # disabled tracer: query() pays nothing
    enable_tracing()
    index.query(0, 5)
    index.query(1, 1)
    after = _route_counters()
    assert after.get("label_probe", 0) == before.get("label_probe", 0) + 1
    assert after.get("trivial", 0) == before.get("trivial", 0) + 1
    spans = [s for s in TRACER.finished() if s.name == "index.query"]
    assert [s.attributes["route"] for s in spans] == ["label_probe", "trivial"]


def test_condensed_query_traces_as_the_wrapper(cyclic_graph):
    """One ``index.query`` span per wrapped query: the caller's vertex ids,
    the wrapper's name and the deciding route — ``same_scc`` included."""
    index = CondensedIndex.build(cyclic_graph, inner=PLAIN["GRAIL"])
    n = cyclic_graph.num_vertices
    cross = next(
        (s, t)
        for s in range(n)
        for t in range(n)
        if index.explain(s, t).route != "same_scc"
    )
    enable_tracing()
    for pair in ((0, 2), cross):  # (0, 2) sits inside the {0,1,2} SCC
        TRACER.clear()
        before = _route_counters()
        expected = index.explain(*pair)
        answer = index.query(*pair)
        spans = [s for s in TRACER.finished() if s.name == "index.query"]
        assert [s.attributes for s in spans] == [
            {
                "index": "GRAIL+SCC",
                "source": pair[0],
                "target": pair[1],
                "route": expected.route,
                "answer": answer,
            }
        ]
        assert not spans[0].children
        after = _route_counters()
        assert sum(after.values()) == sum(before.values()) + 1
        assert after[expected.route] == before.get(expected.route, 0) + 1


def test_batch_routes_attributed(small_dag):
    enable_tracing()
    index = PLAIN["GRAIL"].build(small_dag)  # partial: sweeps its MAYBEs
    before = _route_counters()
    pairs = [(s, t) for s in range(8) for t in range(8) if s != t]
    answers = index.query_batch(pairs)
    assert answers == [bfs_reachable(small_dag, s, t) for s, t in pairs]
    after = _route_counters()
    resolved = sum(after.values()) - sum(before.values())
    assert resolved == len(pairs)
    sweeps = [s for s in TRACER.finished() if s.name == "index.kernel_sweep"]
    assert sweeps  # GRAIL leaves MAYBEs for the shared bit-parallel sweep
    swept = sum(s.attributes["pairs"] for s in sweeps)
    assert after.get("kernel_sweep", 0) == before.get("kernel_sweep", 0) + swept


def test_explain_works_without_tracing(small_dag):
    """explain() is an explicit request — no tracer needed, no counters."""
    index = PLAIN["GRAIL"].build(small_dag)
    before = _route_counters()
    explanation = index.explain(0, 6)
    assert explanation.answer is True
    assert _route_counters() == before


# -- planner ---------------------------------------------------------------
def test_planner_routes_into_registry():
    store = GraphStore()
    for name in ("a", "b", "c"):
        store.add_node(name)
    store.add_edge("a", "x", "b")
    store.add_edge("b", "y", "c")
    registry = MetricsRegistry()
    planner = IndexPlanner(store, metrics=registry)
    a, c = store.node_id("a"), store.node_id("c")
    assert planner.reaches(a, c)
    assert planner.constrained_reaches(a, c, "(x|y)*")
    assert planner.constrained_reaches(a, c, "(x·y)*")
    snapshot = registry.as_dict()["gdbms"]
    assert snapshot["route"]["plain_index"] == 1
    assert snapshot["route"]["alternation_index"] == 1
    assert snapshot["route"]["concatenation_index"] == 1
    assert snapshot["rebuilds"]["DLCR"] == 1
    assert snapshot["rebuilds"]["RLC"] == 1
    stats = planner.statistics
    assert stats.plain_index == 1  # the registry mirrors PlannerStatistics
    assert stats.rebuilds == {"DLCR": 1, "RLC": 1}


# -- service surfacing -----------------------------------------------------
@pytest.fixture
def http_service():
    graph = DiGraph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    service = ReachabilityService(graph, index="PLL")
    server = serve(service, port=0)
    server.start_background()
    port = server.server_address[1]
    yield f"http://127.0.0.1:{port}"
    server.shutdown()
    server.server_close()


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=5) as response:
        return json.loads(response.read())


def test_http_explain(http_service):
    payload = _get(f"{http_service}/explain?source=0&target=3")
    assert payload["answer"] is True
    assert payload["route"] in ROUTES
    assert payload["index"] == "PLL"
    payload = _get(f"{http_service}/explain?source=3&target=0")
    assert payload["answer"] is False


def test_http_explain_reports_cache_hits(http_service):
    _get(f"{http_service}/reach?source=0&target=3")  # populate the cache
    payload = _get(f"{http_service}/explain?source=0&target=3")
    assert payload["route"] == "cache"
    assert payload["answer"] is True


def test_http_debug_trace(http_service):
    enable_tracing()
    _get(f"{http_service}/reach?source=0&target=2")
    payload = _get(f"{http_service}/debug/trace")
    assert payload["tracer"]["enabled"] is True
    names = [span["name"] for span in payload["spans"]]
    assert "service.query" in names
    query_span = next(
        s for s in payload["spans"] if s["name"] == "service.query"
    )
    assert query_span["attributes"]["route"]
    limited = _get(f"{http_service}/debug/trace?limit=1")
    assert len(limited["spans"]) == 1


def test_http_metrics_exposes_route_counters(http_service):
    enable_tracing()
    _get(f"{http_service}/reach?source=0&target=3")
    _get(f"{http_service}/reach?source=1&target=1")
    with urllib.request.urlopen(f"{http_service}/metrics", timeout=5) as response:
        text = response.read().decode()
    route_lines = [l for l in text.splitlines() if l.startswith("index_route_")]
    assert route_lines  # the service /metrics merges the global registry
    payload = _get(f"{http_service}/metrics?format=json")
    assert "index" in payload
