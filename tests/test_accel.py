"""The numpy acceleration layer: differential equivalence and fallbacks.

Every accelerated path must produce bit-identical answers to the
authoritative pure-Python kernels — these tests force each backend in
turn over a matrix of graph shapes and compare.  Without numpy the
numpy-specific tests skip and the selection tests assert the layer
stays silently disabled.
"""

from __future__ import annotations

import random

import pytest

from repro import accel
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import gnp_digraph, layered_dag, random_dag
from repro.kernels import batch_reachable, csr_of, reach_masks, reverse_reach_masks
from repro.plain.pruned import build_pruned_labels, degree_order

needs_numpy = pytest.mark.skipif(
    not accel.available() or accel.kill_switch_engaged(),
    reason="numpy not installed or REPRO_ACCEL kill switch engaged",
)


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    accel.set_backend("auto")


def _chain(n: int) -> DiGraph:
    graph = DiGraph(n)
    for v in range(n - 1):
        graph.add_edge(v, v + 1)
    return graph


def _self_loop() -> DiGraph:
    graph = DiGraph(3)
    graph.add_edge(0, 1)
    graph.add_edge(1, 1)
    graph.add_edge(1, 2)
    return graph


def _graph_matrix() -> dict[str, DiGraph]:
    """≥4 shapes: dense DAG, cyclic, deep chain, layered, sparse, empty."""
    return {
        "dag": random_dag(80, 320, seed=11),
        "cyclic": gnp_digraph(60, 0.06, seed=12),
        "chain": _chain(100),
        "layered": layered_dag(5, 16, 3, seed=13),
        "sparse": random_dag(120, 60, seed=14),
        "self_loop": _self_loop(),
        "empty": DiGraph(6),
    }


def _sources(graph: DiGraph, count: int, seed: int) -> list[int]:
    n = graph.num_vertices
    if n == 0:
        return []
    rng = random.Random(seed)
    return [rng.randrange(n) for _ in range(count)]


def _pairs(graph: DiGraph, count: int, seed: int) -> list[tuple[int, int]]:
    n = graph.num_vertices
    if n == 0:
        return []
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


# -- differential matrix ---------------------------------------------------
@needs_numpy
@pytest.mark.parametrize("shape", sorted(_graph_matrix()))
class TestKernelDifferential:
    """python vs numpy over every surviving numpy kernel, bit for bit.

    ``reach_masks``/``reverse_reach_masks`` no longer dispatch to numpy
    (the conversion back to big ints lost everywhere), but the packed
    sweep survives underneath ``batch_reachable``; it is compared row
    by row against the authoritative Python masks.
    """

    @staticmethod
    def _packed_rows(graph, sources, forward):
        from repro.accel.arrays import arrays_of
        from repro.accel.bitset import packed_reach_masks

        packed = packed_reach_masks(arrays_of(csr_of(graph)), sources, forward)
        return [int.from_bytes(row.tobytes(), "little") for row in packed]

    def test_reach_masks(self, shape):
        graph = _graph_matrix()[shape]
        sources = _sources(graph, 70, seed=21)  # > one uint64 word
        expected = reach_masks(csr_of(graph), sources)
        assert self._packed_rows(graph, sources, forward=True) == expected

    def test_reverse_reach_masks(self, shape):
        graph = _graph_matrix()[shape]
        targets = _sources(graph, 70, seed=22)
        expected = reverse_reach_masks(csr_of(graph), targets)
        assert self._packed_rows(graph, targets, forward=False) == expected

    def test_batch_reachable(self, shape):
        graph = _graph_matrix()[shape]
        csr = csr_of(graph)
        pairs = _pairs(graph, 150, seed=23)
        accel.set_backend("python")
        expected = batch_reachable(csr, pairs, word_bits=16)
        accel.set_backend("numpy")
        assert batch_reachable(csr, pairs, word_bits=16) == expected


@needs_numpy
def test_masks_match_on_large_auto_threshold_graph():
    """`auto` routes big graphs to numpy; answers still match python."""
    graph = random_dag(800, 2400, seed=31)
    csr = csr_of(graph)
    pairs = _pairs(graph, 300, seed=32)
    assert accel.use_for_graph(csr.num_vertices)
    auto_answers = batch_reachable(csr, pairs)
    accel.set_backend("python")
    assert batch_reachable(csr, pairs) == auto_answers


# -- label probe -----------------------------------------------------------
class TestLabelDifferential:
    """The batched 2-hop probe is one Python loop (its numpy twin lost at
    every batch shape and was retired); it must still equal the scalar
    §3.2 rule pair for pair."""

    @pytest.mark.parametrize("shape", ["dag", "cyclic", "chain", "sparse"])
    def test_covered_many(self, shape):
        graph = _graph_matrix()[shape]
        labels = build_pruned_labels(graph, degree_order(graph))
        pairs = _pairs(graph, 200, seed=41)
        assert labels.covered_many(pairs) == [labels.covered(s, t) for s, t in pairs]


# -- CSR arrays ------------------------------------------------------------
@needs_numpy
class TestSharedArrays:
    def test_level_schedule_none_on_cycle(self):
        from repro.accel.arrays import CSRArrays

        graph = DiGraph(3)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        graph.add_edge(2, 0)
        arrays = CSRArrays.from_csr(csr_of(graph))
        assert arrays.schedule(forward=True) is None
        assert arrays.schedule(forward=False) is None


# -- backend selection and reporting ---------------------------------------
class TestBackendSelection:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            accel.set_backend("cuda")

    def test_python_backend_always_allowed(self):
        accel.set_backend("python")
        assert not accel.enabled()
        assert accel.backend_name() == "python"
        assert not accel.use_for_graph(10**9)

    def test_kill_switch_disables_layer(self, monkeypatch):
        monkeypatch.setenv("REPRO_ACCEL", "0")
        assert accel.kill_switch_engaged()
        assert not accel.enabled()
        assert accel.backend_name() == "python"
        graph = random_dag(40, 100, seed=71)
        csr = csr_of(graph)
        sources = _sources(graph, 20, seed=72)
        masks = reach_masks(csr, sources)
        monkeypatch.delenv("REPRO_ACCEL")
        assert reach_masks(csr, sources) == masks

    def test_kill_switch_values(self, monkeypatch):
        for value in ("0", "false", "off", "no", "FALSE"):
            monkeypatch.setenv("REPRO_ACCEL", value)
            assert accel.kill_switch_engaged()
        for value in ("1", "true", "", "yes"):
            monkeypatch.setenv("REPRO_ACCEL", value)
            assert not accel.kill_switch_engaged()

    def test_numpy_backend_requires_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_ACCEL", raising=False)
        if accel.available():
            accel.set_backend("numpy")
            assert accel.backend_name() == "numpy"
            assert accel.use_for_graph(1)  # forcing bypasses thresholds
        else:
            with pytest.raises(ValueError):
                accel.set_backend("numpy")

    def test_auto_respects_thresholds(self, monkeypatch):
        monkeypatch.delenv("REPRO_ACCEL", raising=False)
        accel.set_backend("auto")
        if not accel.available():
            assert not accel.use_for_graph(accel.MIN_VERTICES)
            return
        assert not accel.use_for_graph(accel.MIN_VERTICES - 1)
        assert accel.use_for_graph(accel.MIN_VERTICES)

    def test_describe_shape(self):
        status = accel.describe()
        assert status["backend"] in ("python", "numpy")
        assert status["selection"] == "auto"
        assert isinstance(status["available"], bool)


class TestBackendStamps:
    def test_size_report_carries_backend(self):
        from repro.plain.pll import PLLIndex

        index = PLLIndex.build(random_dag(30, 80, seed=81))
        report = index.size_report()
        assert report.backend == accel.backend_name()
        assert report.as_dict()["backend"] == report.backend

    def test_build_report_carries_backend(self):
        from repro.plain.pll import PLLIndex

        index = PLLIndex.build(random_dag(30, 80, seed=82))
        assert index.build_report.backend == accel.backend_name()
        assert index.build_report.as_dict()["backend"] in ("python", "numpy")

    def test_forced_python_stamps_python(self):
        from repro.plain.pll import PLLIndex

        accel.set_backend("python")
        index = PLLIndex.build(random_dag(30, 80, seed=83))
        assert index.size_report().backend == "python"
        assert index.build_report.backend == "python"
