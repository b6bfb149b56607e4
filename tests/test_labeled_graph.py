"""Unit tests for the edge-labeled graph substrate."""

from __future__ import annotations

import copy

import pytest

from repro.errors import EdgeError, VertexError
from repro.graphs.labeled import LabeledDiGraph


class TestLabels:
    def test_labels_interned_in_first_seen_order(self):
        graph = LabeledDiGraph(3, [(0, 1, "x"), (1, 2, "y"), (0, 2, "x")])
        assert graph.labels() == ["x", "y"]
        assert graph.label_id("x") == 0
        assert graph.label_id("y") == 1
        assert graph.label_name(1) == "y"
        assert graph.num_labels == 2

    def test_unknown_label_raises(self):
        graph = LabeledDiGraph(1)
        with pytest.raises(KeyError):
            graph.label_id("missing")

    def test_mask_round_trip(self):
        graph = LabeledDiGraph(2, [(0, 1, "a"), (1, 0, "b")])
        mask = graph.label_set_mask(["a", "b"])
        assert mask == 0b11
        assert graph.mask_to_labels(mask) == {"a", "b"}
        assert graph.mask_to_labels(0) == set()

    def test_intern_label_is_idempotent(self):
        graph = LabeledDiGraph(1)
        first = graph.intern_label("z")
        assert graph.intern_label("z") == first


class TestEdges:
    def test_parallel_edges_different_labels_allowed(self):
        graph = LabeledDiGraph(2)
        graph.add_edge(0, 1, "a")
        graph.add_edge(0, 1, "b")
        assert graph.num_edges == 2
        assert graph.has_edge(0, 1, "a")
        assert graph.has_edge(0, 1, "b")

    def test_duplicate_labeled_edge_rejected(self):
        graph = LabeledDiGraph(2, [(0, 1, "a")])
        with pytest.raises(EdgeError):
            graph.add_edge(0, 1, "a")

    def test_remove_edge(self):
        graph = LabeledDiGraph(2, [(0, 1, "a")])
        graph.remove_edge(0, 1, "a")
        assert graph.num_edges == 0
        with pytest.raises(EdgeError):
            graph.remove_edge(0, 1, "a")

    def test_out_in_edges_symmetry(self):
        graph = LabeledDiGraph(3, [(0, 1, "a"), (2, 1, "b")])
        assert graph.out_edges(0) == [(1, 0)]
        label_ids = {label_id for _u, label_id in graph.in_edges(1)}
        assert label_ids == {0, 1}
        assert graph.in_degree(1) == 2
        assert graph.degree(1) == 2

    def test_vertex_bounds_checked(self):
        graph = LabeledDiGraph(1)
        with pytest.raises(VertexError):
            graph.add_edge(0, 7, "a")
        with pytest.raises(VertexError):
            LabeledDiGraph(-2)


class TestDerived:
    def test_to_plain_collapses_parallel_edges(self):
        graph = LabeledDiGraph(2, [(0, 1, "a"), (0, 1, "b")])
        plain = graph.to_plain()
        assert plain.num_edges == 1
        assert plain.has_edge(0, 1)

    def test_reversed_preserves_labels(self, labeled_graph):
        rev = labeled_graph.reversed()
        assert rev.num_edges == labeled_graph.num_edges
        for u, v, label in labeled_graph.edges():
            assert rev.has_edge(v, u, label)

    def test_copy_is_independent(self, labeled_graph):
        clone = labeled_graph.copy()
        assert clone.num_edges == labeled_graph.num_edges
        assert clone.labels() == labeled_graph.labels()

    @pytest.mark.parametrize("clone_of", [LabeledDiGraph.copy, copy.deepcopy])
    def test_copy_contract(self, clone_of):
        """Same rows in the same order, same label ids; rows are shared
        until one side writes them, and a write never crosses over."""
        graph = LabeledDiGraph(4, [(2, 3, "y"), (0, 3, "x"), (0, 1, "y"), (1, 3, "z")])
        graph.remove_edge(1, 3, "z")  # "z" keeps its id with no edge left
        clone = clone_of(graph)
        assert clone._out == graph._out and clone._in == graph._in
        assert clone._in[3] == [(2, 0), (0, 1)]
        assert clone.labels() == ["y", "x", "z"]
        assert clone._label_ids == graph._label_ids
        assert clone._edge_set == graph._edge_set
        assert clone.num_edges == graph.num_edges == 3
        assert clone._out is not graph._out and clone._in is not graph._in
        assert clone._edge_set is not graph._edge_set
        assert clone._label_ids is not graph._label_ids
        assert clone._label_names is not graph._label_names
        assert all(
            mine is theirs
            for mine, theirs in zip(clone._out + clone._in, graph._out + graph._in)
        )
        clone.add_edge(3, 0, "new")  # clone writes _out[3], _in[0]
        graph.remove_edge(0, 1, "y")  # the source writes _out[0], _in[1]
        assert not graph.has_edge(3, 0, "new") and graph.num_labels == 3
        assert clone.has_edge(0, 1, "y") and clone.label_id("new") == 3
        assert (clone.num_edges, graph.num_edges) == (4, 2)
        assert graph._out == [[(3, 1)], [], [(3, 0)], []]
        assert clone._out == [[(3, 1), (1, 0)], [], [(3, 0)], [(0, 3)]]
        assert graph._in[0] == [] and clone._in[0] == [(3, 3)]
        assert graph._in[1] == [] and clone._in[1] == [(0, 0)]
        private = {0, 3, 4 + 0, 4 + 1}
        for i, (mine, theirs) in enumerate(
            zip(clone._out + clone._in, graph._out + graph._in)
        ):
            assert (mine is not theirs) == (i in private)

        # Three deep (a -> b -> c): mutating the middle leaves both ends
        # intact, and a vertex added to a clone never shows in its source.
        a = LabeledDiGraph(3, [(0, 1, "x"), (1, 2, "y")])
        b = clone_of(a)
        b.add_edge(0, 2, "x")  # b owns row 0 now ...
        c = clone_of(b)  # ... and shares it again with c
        b.add_edge(0, 1, "y")
        b.remove_edge(1, 2, "y")
        fresh = b.add_vertex()
        b.add_edge(fresh, 0, "z")
        assert sorted(a.edges()) == [(0, 1, "x"), (1, 2, "y")]
        assert sorted(c.edges()) == [(0, 1, "x"), (0, 2, "x"), (1, 2, "y")]
        assert sorted(b.edges()) == [
            (0, 1, "x"), (0, 1, "y"), (0, 2, "x"), (3, 0, "z"),
        ]
        assert (a.num_vertices, b.num_vertices, c.num_vertices) == (3, 4, 3)
        assert a._in == [[], [(0, 0)], [(1, 1)]]
        assert c._in == [[], [(0, 0)], [(1, 1), (0, 0)]]
        assert b._in == [[(3, 2)], [(0, 0), (0, 1)], [(0, 0)], []]
        assert (a.num_labels, b.num_labels, c.num_labels) == (2, 3, 2)

    def test_deepcopy_keeps_one_graph_per_object_graph(self, labeled_graph):
        holder = {"index": [labeled_graph], "wrapper": (labeled_graph, "meta")}
        clone = copy.deepcopy(holder)
        assert clone["index"][0] is clone["wrapper"][0]
        assert clone["index"][0] is not labeled_graph

    def test_repr(self, labeled_graph):
        assert "LabeledDiGraph" in repr(labeled_graph)

    def test_add_vertex(self):
        graph = LabeledDiGraph(1)
        assert graph.add_vertex() == 1
        graph.add_edge(0, 1, "a")
        assert graph.has_edge(0, 1, "a")
