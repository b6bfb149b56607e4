"""Model-based (hypothesis state machine) testing of dynamic indexes.

Hypothesis drives arbitrary interleavings of inserts, deletes and
queries against a dynamic index, with plain BFS over the live graph as
the model.  This is the strongest correctness net over the §3.2
maintenance algorithms: the canonical-labels repair bug (see
``repro.plain.pruned.covered_below``) is exactly the class of defect
these machines are built to catch.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.registry import plain_index
from repro.errors import EdgeError, UnsupportedOperationError
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import gnp_digraph, random_dag
from repro.graphs.labeled import LabeledDiGraph
from repro.traversal.online import bfs_reachable

N = 14


class _DynamicIndexMachine(RuleBasedStateMachine):
    """Shared machine body; subclasses pick the index under test."""

    index_name: str = "TOL"
    requires_dag: bool = True

    def __init__(self) -> None:
        super().__init__()
        graph = random_dag(N, 20, seed=9)
        self.index = plain_index(self.index_name).build(graph)
        self.graph = self.index.graph

    @rule(u=st.integers(0, N - 1), v=st.integers(0, N - 1))
    def insert(self, u: int, v: int) -> None:
        if u == v or self.graph.has_edge(u, v):
            return
        if self.requires_dag and bfs_reachable(self.graph, v, u):
            return
        self.index.insert_edge(u, v)

    @precondition(lambda self: self.graph.num_edges > 0)
    @rule(pick=st.integers(0, 10_000))
    def delete(self, pick: int) -> None:
        edges = list(self.graph.edges())
        u, v = edges[pick % len(edges)]
        self.index.delete_edge(u, v)

    @rule(s=st.integers(0, N - 1), t=st.integers(0, N - 1))
    def query(self, s: int, t: int) -> None:
        assert self.index.query(s, t) == bfs_reachable(self.graph, s, t)

    @rule()
    def audit_all_pairs(self) -> None:
        for s in range(N):
            for t in range(N):
                assert self.index.query(s, t) == bfs_reachable(self.graph, s, t)


def _machine_for(name: str, dag: bool) -> type:
    return type(
        f"Machine_{name}",
        (_DynamicIndexMachine,),
        {"index_name": name, "requires_dag": dag},
    )


_SETTINGS = settings(max_examples=12, stateful_step_count=25, deadline=None)

TestTOLMachine = _machine_for("TOL", dag=True).TestCase
TestTOLMachine.settings = _SETTINGS

TestU2HopMachine = _machine_for("U2-hop", dag=True).TestCase
TestU2HopMachine.settings = _SETTINGS

TestHOPIMachine = _machine_for("Ralf et al.", dag=False).TestCase
TestHOPIMachine.settings = _SETTINGS

TestPathTreeMachine = _machine_for("Path-tree", dag=True).TestCase
TestPathTreeMachine.settings = _SETTINGS

TestIPMachine = _machine_for("IP", dag=True).TestCase
TestIPMachine.settings = _SETTINGS

TestDAGGERMachine = _machine_for("DAGGER", dag=True).TestCase
TestDAGGERMachine.settings = _SETTINGS


class _TCMachine(RuleBasedStateMachine):
    """TC over a *cyclic* start graph: dynamic within the SCC partition of
    its build, so a partition-changing op is refused — and must leave the
    index answering for the unchanged graph — while the graph may grow."""

    def __init__(self) -> None:
        super().__init__()
        self.index = plain_index("TC").build(gnp_digraph(N, 0.08, seed=9))
        self.graph = self.index.graph

    def _attempt(self, op, u: int, v: int) -> None:
        edges = sorted(self.graph.edges())
        try:
            op(u, v)
        except UnsupportedOperationError:
            assert sorted(self.graph.edges()) == edges

    @rule(u=st.integers(0, 10_000), v=st.integers(0, 10_000))
    def insert(self, u: int, v: int) -> None:
        n = self.graph.num_vertices
        if not self.graph.has_edge(u % n, v % n):
            self._attempt(self.index.insert_edge, u % n, v % n)

    @precondition(lambda self: self.graph.num_edges > 0)
    @rule(pick=st.integers(0, 10_000))
    def delete(self, pick: int) -> None:
        edges = list(self.graph.edges())
        self._attempt(self.index.delete_edge, *edges[pick % len(edges)])

    @precondition(lambda self: self.graph.num_vertices < N + 4)
    @rule()
    def add_vertex(self) -> None:
        assert self.index.add_vertex() == self.graph.num_vertices - 1

    @rule()
    def audit_all_pairs(self) -> None:
        n = self.graph.num_vertices
        for s in range(n):
            reach = {t for t in range(n) if bfs_reachable(self.graph, s, t)}
            assert self.index.reachable_from(s) == reach
            for t in range(n):
                assert self.index.query(s, t) == (t in reach)


TestTCMachine = _TCMachine.TestCase
TestTCMachine.settings = _SETTINGS


class _DLCRMachine(RuleBasedStateMachine):
    """Labeled dynamic index against constrained-BFS ground truth."""

    def __init__(self) -> None:
        super().__init__()
        from repro.graphs.generators import random_labeled_digraph

        graph = random_labeled_digraph(10, 18, ["a", "b"], seed=10)
        from repro.core.registry import labeled_index

        self.index = labeled_index("DLCR").build(graph)
        self.graph = self.index.graph

    @rule(
        u=st.integers(0, 9),
        v=st.integers(0, 9),
        label=st.sampled_from(["a", "b"]),
    )
    def insert(self, u: int, v: int, label: str) -> None:
        if u == v or self.graph.has_edge(u, v, label):
            return
        self.index.insert_edge(u, v, label)

    @precondition(lambda self: self.graph.num_edges > 0)
    @rule(pick=st.integers(0, 10_000))
    def delete(self, pick: int) -> None:
        edges = list(self.graph.edges())
        u, v, label = edges[pick % len(edges)]
        self.index.delete_edge(u, v, label)

    @rule(
        s=st.integers(0, 9),
        t=st.integers(0, 9),
        constraint=st.sampled_from(["(a)*", "(b)+", "(a|b)*", "(a|b)+"]),
    )
    def query(self, s: int, t: int, constraint: str) -> None:
        from repro.traversal.rpq import rpq_reachable

        expected = rpq_reachable(self.graph, s, t, constraint)
        assert self.index.query(s, t, constraint) == expected


TestDLCRMachine = _DLCRMachine.TestCase
TestDLCRMachine.settings = settings(
    max_examples=10, stateful_step_count=20, deadline=None
)


@dataclass
class _Member:
    """One graph of the forest beside its plain-Python model."""

    graph: DiGraph | LabeledDiGraph
    n: int
    edges: list[tuple]  # live edges, insertion order
    labels: list[str]  # first-seen order (labeled graphs only)

    def twin(self, graph) -> "_Member":
        return _Member(graph, self.n, list(self.edges), list(self.labels))


class _CowForestMachine(RuleBasedStateMachine):
    """Copy-on-write rows: a forest of graphs derived from one another by
    ``copy()``/``copy.deepcopy``, every member beside its own model.

    The model is plain Python — a vertex count, the live edges in
    insertion order and (labeled) the labels in first-seen order — never
    a graph object, so a row that two members wrongly share cannot hide
    in the oracle as well.  Row order is part of the contract: a row is
    the surviving edges of its vertex in insertion order.
    """

    graph_cls: type = DiGraph
    MAX_MEMBERS = 6
    MAX_VERTICES = 9
    LABELS = ("a", "b", "c")

    def __init__(self) -> None:
        super().__init__()
        self.labeled = self.graph_cls is LabeledDiGraph
        seed = [(0, 1), (1, 2), (0, 2), (3, 1)]
        if self.labeled:
            seed = [(u, v, self.LABELS[i % 2]) for i, (u, v) in enumerate(seed)]
        self.members = [_Member(self.graph_cls(5, seed), 5, list(seed), ["a", "b"])]

    def _member(self, pick: int) -> _Member:
        return self.members[pick % len(self.members)]

    def _edge(self, member: _Member, u: int, v: int, label: str) -> tuple:
        pair = (u % member.n, v % member.n)
        return (*pair, label) if self.labeled else pair

    @precondition(lambda self: len(self.members) < self.MAX_MEMBERS)
    @rule(pick=st.integers(0, 100), deep=st.booleans())
    def clone(self, pick: int, deep: bool) -> None:
        member = self._member(pick)
        graph = member.graph
        self.members.append(member.twin(copy.deepcopy(graph) if deep else graph.copy()))

    @precondition(lambda self: len(self.members) > 1)
    @rule(pick=st.integers(0, 100))
    def drop(self, pick: int) -> None:
        del self.members[pick % len(self.members)]

    @rule(
        pick=st.integers(0, 100),
        u=st.integers(0, 100),
        v=st.integers(0, 100),
        label=st.sampled_from(LABELS),
    )
    def add_edge(self, pick: int, u: int, v: int, label: str) -> None:
        member = self._member(pick)
        edge = self._edge(member, u, v, label)
        if edge in member.edges:
            with pytest.raises(EdgeError):
                member.graph.add_edge(*edge)
            return
        member.graph.add_edge(*edge)
        member.edges.append(edge)
        if self.labeled and label not in member.labels:
            member.labels.append(label)

    @precondition(lambda self: not self.labeled)
    @rule(pick=st.integers(0, 100), u=st.integers(0, 100), v=st.integers(0, 100))
    def add_edge_if_absent(self, pick: int, u: int, v: int) -> None:
        member = self._member(pick)
        edge = self._edge(member, u, v, "")
        absent = edge not in member.edges
        assert member.graph.add_edge_if_absent(*edge) == absent
        if absent:
            member.edges.append(edge)

    @rule(
        pick=st.integers(0, 100),
        u=st.integers(0, 100),
        v=st.integers(0, 100),
        label=st.sampled_from(LABELS),
        existing=st.booleans(),
    )
    def remove_edge(
        self, pick: int, u: int, v: int, label: str, existing: bool
    ) -> None:
        member = self._member(pick)
        if existing and member.edges:
            edge = member.edges[u % len(member.edges)]
        else:
            edge = self._edge(member, u, v, label)
        if edge not in member.edges:
            with pytest.raises(EdgeError):
                member.graph.remove_edge(*edge)
            return
        member.graph.remove_edge(*edge)
        member.edges.remove(edge)

    @rule(pick=st.integers(0, 100))
    def add_vertex(self, pick: int) -> None:
        member = self._member(pick)
        if member.n < self.MAX_VERTICES:
            assert member.graph.add_vertex() == member.n
            member.n += 1

    @invariant()
    def every_member_matches_its_own_model(self) -> None:
        for member in self.members:
            graph, n, edges = member.graph, member.n, member.edges
            assert graph.num_vertices == n and graph.num_edges == len(edges)
            assert sorted(graph.edges()) == sorted(edges)
            if self.labeled:
                assert graph.labels() == member.labels
                lid = member.labels.index
                # rows hold (neighbor, label_id) pairs
                out = [(u, (v, lid(label))) for u, v, label in edges]
                inn = [(v, (u, lid(label))) for u, v, label in edges]
                assert graph._edge_set == {(u, v, lid(label)) for u, v, label in edges}
            else:
                out = list(edges)
                inn = [(v, u) for u, v in edges]
                assert graph._out_sets == [set(row) for row in graph._out]
            assert graph._out == [[x for at, x in out if at == u] for u in range(n)]
            assert graph._in == [[x for at, x in inn if at == v] for v in range(n)]


def _cow_machine_for(graph_cls: type) -> type:
    name = f"CowForest_{graph_cls.__name__}"
    return type(name, (_CowForestMachine,), {"graph_cls": graph_cls})


_COW_SETTINGS = settings(
    max_examples=60,
    stateful_step_count=30,
    deadline=None,
    derandomize=True,
    database=None,
)

TestCowDiGraphMachine = _cow_machine_for(DiGraph).TestCase
TestCowDiGraphMachine.settings = _COW_SETTINGS

TestCowLabeledDiGraphMachine = _cow_machine_for(LabeledDiGraph).TestCase
TestCowLabeledDiGraphMachine.settings = _COW_SETTINGS


@pytest.mark.parametrize("graph_cls", [DiGraph, LabeledDiGraph])
def test_cow_machine_fails_when_a_mutator_forgets_to_own(graph_cls, monkeypatch):
    """The safety net has teeth: with ``_own`` a no-op, a write lands in a
    row some other member still shares, and the machine must notice."""
    monkeypatch.setattr(graph_cls, "_own", lambda self, u, v: None)
    one_failure = settings(_COW_SETTINGS, report_multiple_bugs=False)
    with pytest.raises(AssertionError):
        run_state_machine_as_test(_cow_machine_for(graph_cls), settings=one_failure)
