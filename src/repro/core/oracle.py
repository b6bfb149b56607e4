"""High-level facades over the index registry.

:class:`PlainReachabilityOracle` and :class:`PathReachabilityOracle` are
the "just answer my query" entry points a GDBMS would embed (§5's
integration discussion): they pick an index by name, transparently wrap
DAG-only techniques with SCC condensation when the input is cyclic, and —
for path queries — dispatch on the constraint class (alternation → LCR
index, concatenation → RLC index, anything else → automaton-guided
traversal, the only strategy that covers full RPQs today).
"""

from __future__ import annotations

from repro.core.base import LabelConstrainedIndex, ReachabilityIndex
from repro.core.condensed import build_plain
from repro.core.registry import labeled_index
from repro.errors import UnsupportedConstraintError
from repro.graphs.digraph import DiGraph
from repro.graphs.labeled import LabeledDiGraph
from repro.traversal.regex import (
    RegexNode,
    alternation_label_set,
    concatenation_sequence,
    parse_constraint,
)
from repro.traversal.rpq import rpq_reachable

__all__ = ["PlainReachabilityOracle", "PathReachabilityOracle"]


class PlainReachabilityOracle:
    """Answer plain reachability queries with a chosen index.

    Parameters
    ----------
    graph:
        The (possibly cyclic) input graph.
    index_name:
        A Table 1 index name (default ``"PLL"``).  DAG-only indexes are
        wrapped with SCC condensation automatically on cyclic input.
    params:
        Extra build parameters forwarded to the index (``k=…``, ``seed=…``).
    """

    def __init__(self, graph: DiGraph, index_name: str = "PLL", **params: object) -> None:
        self._index: ReachabilityIndex = build_plain(index_name, graph, **params)

    @property
    def index(self) -> ReachabilityIndex:
        """The underlying (possibly condensation-wrapped) index."""
        return self._index

    def reachable(self, source: int, target: int) -> bool:
        """Whether ``target`` is reachable from ``source``."""
        return self._index.query(source, target)

    def size_in_entries(self) -> int:
        """The index's size in entries."""
        return self._index.size_in_entries()


class PathReachabilityOracle:
    """Answer path-constrained reachability queries, dispatching on α.

    Alternation constraints go to an LCR index (default ``"P2H+"``),
    concatenation constraints to the RLC index, and any other regular
    expression to automaton-guided traversal — mirroring §5's observation
    that no single index today covers the full RPQ fragment.
    """

    def __init__(
        self,
        graph: LabeledDiGraph,
        alternation_index: str = "P2H+",
        concatenation_index: str = "RLC",
        **params: object,
    ) -> None:
        self._graph = graph
        self._alternation: LabelConstrainedIndex = labeled_index(
            alternation_index
        ).build(graph, **params)
        self._concatenation: LabelConstrainedIndex = labeled_index(
            concatenation_index
        ).build(graph)

    @property
    def alternation_index(self) -> LabelConstrainedIndex:
        """The index serving ``(l1 ∪ l2 ∪ …)*`` constraints."""
        return self._alternation

    @property
    def concatenation_index(self) -> LabelConstrainedIndex:
        """The index serving ``(l1 · l2 · …)*`` constraints."""
        return self._concatenation

    def reachable(self, source: int, target: int, constraint: str | RegexNode) -> bool:
        """Whether a constrained ``source``-``target`` path exists."""
        node = parse_constraint(constraint)
        if alternation_label_set(node) is not None:
            return self._alternation.query(source, target, node)
        if concatenation_sequence(node) is not None:
            try:
                return self._concatenation.query(source, target, node)
            except UnsupportedConstraintError:
                pass  # period beyond the index bound: fall back to traversal
        return rpq_reachable(self._graph, source, target, node)
