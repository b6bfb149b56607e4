"""Model-based (hypothesis state machine) testing of dynamic indexes.

Hypothesis drives arbitrary interleavings of inserts, deletes and
queries against a dynamic index, with plain BFS over the live graph as
the model.  This is the strongest correctness net over the §3.2
maintenance algorithms: the canonical-labels repair bug (see
``repro.plain.pruned.covered_below``) is exactly the class of defect
these machines are built to catch.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.core.registry import plain_index
from repro.errors import UnsupportedOperationError
from repro.graphs.generators import gnp_digraph, random_dag
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
