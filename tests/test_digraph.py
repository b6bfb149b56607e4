"""Unit tests for the plain directed-graph substrate."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import EdgeError, VertexError
from repro.graphs.digraph import DiGraph


class TestConstruction:
    def test_empty_graph(self):
        graph = DiGraph(0)
        assert graph.num_vertices == 0
        assert graph.num_edges == 0
        assert list(graph.edges()) == []

    def test_vertices_range(self):
        graph = DiGraph(5)
        assert list(graph.vertices()) == [0, 1, 2, 3, 4]
        assert len(graph) == 5

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(VertexError):
            DiGraph(-1)

    def test_edges_at_construction(self):
        graph = DiGraph(3, [(0, 1), (1, 2)])
        assert graph.num_edges == 2
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)


class TestMutation:
    def test_add_edge_updates_both_directions(self):
        graph = DiGraph(3)
        graph.add_edge(0, 2)
        assert graph.out_neighbors(0) == [2]
        assert graph.in_neighbors(2) == [0]
        assert graph.out_degree(0) == 1
        assert graph.in_degree(2) == 1
        assert graph.degree(2) == 1

    def test_duplicate_edge_rejected(self):
        graph = DiGraph(2, [(0, 1)])
        with pytest.raises(EdgeError):
            graph.add_edge(0, 1)

    def test_add_edge_if_absent(self):
        graph = DiGraph(2)
        assert graph.add_edge_if_absent(0, 1) is True
        assert graph.add_edge_if_absent(0, 1) is False
        assert graph.num_edges == 1

    def test_remove_edge(self):
        graph = DiGraph(2, [(0, 1)])
        graph.remove_edge(0, 1)
        assert graph.num_edges == 0
        assert not graph.has_edge(0, 1)

    def test_remove_missing_edge_rejected(self):
        graph = DiGraph(2)
        with pytest.raises(EdgeError):
            graph.remove_edge(0, 1)

    def test_out_of_range_vertex_rejected(self):
        graph = DiGraph(2)
        with pytest.raises(VertexError):
            graph.add_edge(0, 5)
        with pytest.raises(VertexError):
            graph.out_neighbors(-1)

    def test_add_vertex(self):
        graph = DiGraph(1)
        new = graph.add_vertex()
        assert new == 1
        graph.add_edge(0, 1)
        assert graph.has_edge(0, 1)

    def test_self_loop_allowed(self):
        graph = DiGraph(1)
        graph.add_edge(0, 0)
        assert graph.has_edge(0, 0)


class TestDerived:
    def test_reversed_flips_every_edge(self, small_dag):
        rev = small_dag.reversed()
        assert rev.num_edges == small_dag.num_edges
        for u, v in small_dag.edges():
            assert rev.has_edge(v, u)

    def test_copy_is_independent(self, small_dag):
        clone = small_dag.copy()
        clone.add_edge(5, 7)
        assert not small_dag.has_edge(5, 7)
        assert clone.num_edges == small_dag.num_edges + 1

    @pytest.mark.parametrize("clone_of", [DiGraph.copy, copy.deepcopy])
    def test_copy_contract(self, clone_of):
        """Equal graph, identical row order, no CSR cache; rows are shared
        until one side writes them, and a write never crosses over."""
        from repro.kernels import csr_of

        def rows(g):
            return g._out + g._in + g._out_sets

        # Insertion order differs from sorted order in both _out and _in rows,
        # and a delete leaves a row that re-inserting edges would reorder.
        graph = DiGraph(5, [(3, 4), (0, 4), (0, 2), (0, 1), (2, 4), (1, 4)])
        graph.remove_edge(0, 4)
        graph.add_edge(0, 4)
        csr_of(graph)
        clone = clone_of(graph)
        assert clone == graph and clone.num_edges == graph.num_edges
        assert clone._out == graph._out == [[2, 1, 4], [4], [4], [4], []]
        assert clone._in == graph._in and clone._in[4] == [3, 2, 1, 0]
        assert clone._csr_cache is None and graph._csr_cache is not None
        assert clone._out is not graph._out and clone._in is not graph._in
        assert clone._out_sets is not graph._out_sets
        assert all(mine is theirs for mine, theirs in zip(rows(clone), rows(graph)))
        # A write on either side makes exactly the rows it touches private.
        before = rows(graph)
        clone.remove_edge(0, 2)  # clone writes _out[0], _out_sets[0], _in[2]
        graph.add_edge(4, 0)  # the source writes _out[4], _out_sets[4], _in[0]
        assert graph.has_edge(0, 2) and not clone.has_edge(4, 0)
        assert (clone.num_edges, graph.num_edges) == (5, 7)
        assert graph._out == [[2, 1, 4], [4], [4], [4], [0]]
        assert clone._out == [[1, 4], [4], [4], [4], []]
        assert graph._in[0] == [4] and clone._in[0] == []
        assert graph._in[2] == [0] and clone._in[2] == []
        private = {0, 4, 5 + 0, 5 + 2, 10 + 0, 10 + 4}
        for i, (mine, theirs) in enumerate(zip(rows(clone), rows(graph))):
            assert (mine is not theirs) == (i in private)
        # Rows the source never wrote are still the ones the build made.
        assert all(
            row is old for i, (row, old) in enumerate(zip(rows(graph), before))
            if i not in {4, 5 + 0, 10 + 4}
        )
        owned_row = clone._out[0]
        clone.add_edge(0, 2)  # a second write to an owned row copies nothing
        assert clone._out[0] is owned_row == [1, 4, 2] and graph._out[0] == [2, 1, 4]
        assert csr_of(clone) is not csr_of(graph)

        # Three deep (a -> b -> c): mutating the middle leaves both ends
        # intact, and a vertex added to a clone never shows in its source.
        a = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
        b = clone_of(a)
        b.add_edge(0, 2)  # b owns row 0 now ...
        c = clone_of(b)  # ... and shares it again with c
        b.add_edge(0, 3)
        b.remove_edge(1, 2)
        fresh = b.add_vertex()
        b.add_edge(fresh, 0)
        b.add_edge(3, fresh)
        assert sorted(a.edges()) == [(0, 1), (1, 2), (2, 3)]
        assert sorted(c.edges()) == [(0, 1), (0, 2), (1, 2), (2, 3)]
        assert sorted(b.edges()) == [(0, 1), (0, 2), (0, 3), (2, 3), (3, 4), (4, 0)]
        assert (a.num_vertices, b.num_vertices, c.num_vertices) == (4, 5, 4)
        assert a._in == [[], [0], [1], [2]] and c._in == [[], [0], [1, 0], [2]]
        assert b._in == [[4], [0], [0], [2, 0], [3]]
        for g in (a, b, c):
            assert [set(row) for row in g._out] == g._out_sets

    def test_deepcopy_keeps_one_graph_per_object_graph(self):
        """An index and its wrapper still share *one* graph after deepcopy."""
        from repro.core.condensed import CondensedIndex
        from repro.plain.dagger import DaggerIndex

        cyclic = DiGraph(4, [(0, 1), (1, 0), (1, 2), (2, 3)])
        wrapper = CondensedIndex.build(cyclic, inner=DaggerIndex)
        assert wrapper.inner.graph is wrapper.condensation.dag
        clone = copy.deepcopy(wrapper)
        assert clone.inner.graph is clone.condensation.dag
        assert clone.inner.graph is not wrapper.inner.graph
        assert clone.graph is not cyclic and clone.graph == cyclic

    def test_equality(self):
        a = DiGraph(2, [(0, 1)])
        b = DiGraph(2, [(0, 1)])
        assert a == b
        b.add_edge(1, 0)
        assert a != b

    def test_contains_protocol(self, small_dag):
        assert (0, 1) in small_dag
        assert (1, 0) not in small_dag
        assert "nonsense" not in small_dag
        assert (0, 99) not in small_dag

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(DiGraph(1))

    def test_repr(self, small_dag):
        assert "DiGraph" in repr(small_dag)


@given(
    st.integers(min_value=1, max_value=12),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
)
def test_edge_count_matches_edge_iteration(n, pairs):
    """num_edges always equals the number of iterated edges."""
    graph = DiGraph(n)
    for u, v in pairs:
        if u < n and v < n:
            graph.add_edge_if_absent(u, v)
    assert graph.num_edges == sum(1 for _ in graph.edges())
    # reversal preserves the count and is an involution
    assert graph.reversed().reversed() == graph
