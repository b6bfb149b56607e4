"""A compact directed graph over dense integer vertex ids.

:class:`DiGraph` is the substrate every plain reachability index in this
library is built on.  Vertices are the integers ``0..n-1``; adjacency is
stored as forward and reverse lists so both out-neighbour and in-neighbour
iteration are O(degree).

The class intentionally stays small: no attributes, no views, no payloads.
Edge-labeled graphs live in :mod:`repro.graphs.labeled`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import EdgeError, VertexError

__all__ = ["DiGraph"]


class DiGraph:
    """A directed graph with vertices ``0..n-1`` and unlabeled edges.

    Parameters
    ----------
    num_vertices:
        Number of vertices.  Vertex ids are ``range(num_vertices)``.
    edges:
        Optional iterable of ``(u, v)`` pairs to insert at construction.

    Notes
    -----
    Parallel edges are rejected; self-loops are allowed (they are harmless
    for reachability and some generators produce them before condensation).
    """

    __slots__ = (
        "_out",
        "_in",
        "_out_sets",
        "_num_edges",
        "_version",
        "_csr_cache",
        "_owned",
    )

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if num_vertices < 0:
            raise VertexError(f"num_vertices must be >= 0, got {num_vertices}")
        self._out: list[list[int]] = [[] for _ in range(num_vertices)]
        self._in: list[list[int]] = [[] for _ in range(num_vertices)]
        self._out_sets: list[set[int]] = [set() for _ in range(num_vertices)]
        self._num_edges = 0
        self._version = 0  # bumped on every mutation; keys the CSR snapshot cache
        self._csr_cache: object | None = None  # managed by repro.kernels.csr_of
        # Copy-on-write bookkeeping: ``None`` = built here, every row is
        # private; after a ``copy()`` the rows this graph has made private
        # since (``u`` for ``_out[u]``/``_out_sets[u]``, ``~v`` for
        # ``_in[v]``) — every other row is shared and must not be written.
        self._owned: set[int] | None = None
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the graph."""
        return len(self._out)

    @property
    def num_edges(self) -> int:
        """Number of edges in the graph."""
        return self._num_edges

    def vertices(self) -> range:
        """All vertex ids, as a range."""
        return range(len(self._out))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all edges as ``(u, v)`` pairs."""
        for u, targets in enumerate(self._out):
            for v in targets:
                yield (u, v)

    def out_neighbors(self, v: int) -> list[int]:
        """Vertices ``w`` with an edge ``v -> w`` (do not mutate).

        A row reference is not stable across a mutation of the same
        graph: the first write to a row shared with a copy replaces it.
        """
        self._check_vertex(v)
        return self._out[v]

    def in_neighbors(self, v: int) -> list[int]:
        """Vertices ``u`` with an edge ``u -> v`` (do not mutate).

        A row reference is not stable across a mutation of the same
        graph: the first write to a row shared with a copy replaces it.
        """
        self._check_vertex(v)
        return self._in[v]

    def out_degree(self, v: int) -> int:
        """Number of outgoing edges of ``v``."""
        self._check_vertex(v)
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        """Number of incoming edges of ``v``."""
        self._check_vertex(v)
        return len(self._in[v])

    def degree(self, v: int) -> int:
        """Total degree (in + out) of ``v``."""
        return self.in_degree(v) + self.out_degree(v)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``u -> v`` exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._out_sets[u]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(self) -> int:
        """Append a fresh vertex and return its id."""
        self._out.append([])
        self._in.append([])
        self._out_sets.append(set())
        self._version += 1
        vertex = len(self._out) - 1
        if self._owned is not None:
            self._owned.update((vertex, ~vertex))
        return vertex

    def add_edge(self, u: int, v: int) -> None:
        """Insert the edge ``u -> v``; raises :class:`EdgeError` if present."""
        self._check_vertex(u)
        self._check_vertex(v)
        if v in self._out_sets[u]:
            raise EdgeError(f"edge ({u}, {v}) already exists")
        if self._owned is not None:
            self._own(u, v)
        self._out[u].append(v)
        self._in[v].append(u)
        self._out_sets[u].add(v)
        self._num_edges += 1
        self._version += 1

    def add_edge_if_absent(self, u: int, v: int) -> bool:
        """Insert ``u -> v`` unless present; return True if inserted."""
        self._check_vertex(u)
        self._check_vertex(v)
        if v in self._out_sets[u]:
            return False
        if self._owned is not None:
            self._own(u, v)
        self._out[u].append(v)
        self._in[v].append(u)
        self._out_sets[u].add(v)
        self._num_edges += 1
        self._version += 1
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the edge ``u -> v``; raises :class:`EdgeError` if absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._out_sets[u]:
            raise EdgeError(f"edge ({u}, {v}) does not exist")
        if self._owned is not None:
            self._own(u, v)
        self._out[u].remove(v)
        self._in[v].remove(u)
        self._out_sets[u].discard(v)
        self._num_edges -= 1
        self._version += 1

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reversed(self) -> "DiGraph":
        """A new graph with every edge direction flipped."""
        rev = DiGraph(self.num_vertices)
        for u, v in self.edges():
            rev.add_edge(v, u)
        return rev

    def copy(self) -> "DiGraph":
        """An independent copy of this graph, row order preserved.

        Copy-on-write at row granularity: only the three outer row
        tables are copied, every row is shared with the clone, and from
        here on *both* graphs copy a row the first time they write it
        (:meth:`_own`), so neither ever sees the other's mutations.  The
        CSR cache is not carried over (the clone starts at version 0,
        as after unpickling).
        """
        clone = DiGraph.__new__(DiGraph)
        clone._out = list(self._out)
        clone._in = list(self._in)
        clone._out_sets = list(self._out_sets)
        clone._num_edges = self._num_edges
        clone._version = 0
        clone._csr_cache = None
        clone._owned = set()
        self._owned = set()
        return clone

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_vertices

    def __contains__(self, edge: object) -> bool:
        if not (isinstance(edge, tuple) and len(edge) == 2):
            return False
        u, v = edge
        if not (isinstance(u, int) and isinstance(v, int)):
            return False
        if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
            return False
        return v in self._out_sets[u]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and self._out_sets == other._out_sets
        )

    def __hash__(self) -> int:  # graphs are mutable
        raise TypeError("DiGraph is unhashable")

    def __deepcopy__(self, memo: dict[int, object]) -> "DiGraph":
        """``copy.deepcopy`` is :meth:`copy`: vertex ids are atomic, so
        walking each one through the memo buys nothing.  Registering the
        clone keeps an index and its wrapper on *one* graph."""
        clone = memo[id(self)] = self.copy()
        return clone

    def __getstate__(self) -> dict[str, object]:
        """Pickle state: adjacency only, never the CSR cache or row
        ownership — pickling writes every row out, so a loaded graph
        owns them all.  (Pickle a graph and a ``copy()`` of it in
        separate payloads: inside one, the pickler's memo would keep
        their common rows common.)"""
        return {
            "_out": self._out,
            "_in": self._in,
            "_out_sets": self._out_sets,
            "_num_edges": self._num_edges,
        }

    def __setstate__(self, state: object) -> None:
        # Graphs saved before the CSR-cache slots existed pickle as the
        # default ``(None, slots)`` tuple; both forms must keep loading.
        if isinstance(state, tuple):
            state = state[1] or {}
        assert isinstance(state, dict)
        self._out = state["_out"]
        self._in = state["_in"]
        self._out_sets = state["_out_sets"]
        self._num_edges = state["_num_edges"]
        self._version = 0
        self._csr_cache = None
        self._owned = None

    def __repr__(self) -> str:
        return f"DiGraph(|V|={self.num_vertices}, |E|={self.num_edges})"

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < len(self._out)):
            raise VertexError(f"vertex {v} out of range [0, {len(self._out)})")

    def _own(self, u: int, v: int) -> None:
        """Make ``u``'s out rows and ``v``'s in row private before a write.

        Every in-place row mutation of a graph that has taken part in a
        :meth:`copy` runs this first; a row is copied at most once per
        graph between two copies.
        """
        owned = self._owned
        if u not in owned:
            owned.add(u)
            self._out[u] = self._out[u].copy()
            self._out_sets[u] = self._out_sets[u].copy()
        if ~v not in owned:
            owned.add(~v)
            self._in[v] = self._in[v].copy()
