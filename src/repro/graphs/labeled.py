"""Edge-labeled directed graphs for path-constrained reachability.

:class:`LabeledDiGraph` extends the plain adjacency representation with one
label per edge.  Labels are arbitrary hashable names (strings in practice)
interned to dense small integers, so that a *set* of labels can be stored as
an int bitmask — the representation every SPLS-based index in
:mod:`repro.labeled` relies on.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

from repro.errors import EdgeError, VertexError
from repro.graphs.digraph import DiGraph

__all__ = ["LabeledDiGraph"]

Label = Hashable


class LabeledDiGraph:
    """A directed graph where every edge carries exactly one label.

    Parameters
    ----------
    num_vertices:
        Number of vertices; ids are ``0..num_vertices-1``.
    edges:
        Optional iterable of ``(u, v, label)`` triples.

    Notes
    -----
    Parallel edges with *different* labels are allowed (an RDF graph can
    relate the same pair of entities in several ways); a duplicate
    ``(u, v, label)`` triple is rejected.
    """

    __slots__ = (
        "_out",
        "_in",
        "_edge_set",
        "_label_ids",
        "_label_names",
        "_num_edges",
        "_owned",
    )

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple[int, int, Label]] = (),
    ) -> None:
        if num_vertices < 0:
            raise VertexError(f"num_vertices must be >= 0, got {num_vertices}")
        # adjacency holds (neighbor, label_id) pairs
        self._out: list[list[tuple[int, int]]] = [[] for _ in range(num_vertices)]
        self._in: list[list[tuple[int, int]]] = [[] for _ in range(num_vertices)]
        self._edge_set: set[tuple[int, int, int]] = set()
        self._label_ids: dict[Label, int] = {}
        self._label_names: list[Label] = []
        self._num_edges = 0
        # Copy-on-write bookkeeping, as in :class:`DiGraph`: ``None`` =
        # every row is private; else the rows made private since the last
        # ``copy()`` (``u`` for ``_out[u]``, ``~v`` for ``_in[v]``).
        self._owned: set[int] | None = None
        for u, v, label in edges:
            self.add_edge(u, v, label)

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------
    @property
    def num_labels(self) -> int:
        """Number of distinct labels seen so far."""
        return len(self._label_names)

    def label_id(self, label: Label) -> int:
        """The dense integer id of ``label``; raises KeyError if unknown."""
        return self._label_ids[label]

    def label_name(self, label_id: int) -> Label:
        """The original label for a dense id."""
        return self._label_names[label_id]

    def labels(self) -> list[Label]:
        """All distinct labels, ordered by id."""
        return list(self._label_names)

    def intern_label(self, label: Label) -> int:
        """Return the id for ``label``, assigning a fresh one if new."""
        label_id = self._label_ids.get(label)
        if label_id is None:
            label_id = len(self._label_names)
            self._label_ids[label] = label_id
            self._label_names.append(label)
        return label_id

    def label_set_mask(self, labels: Iterable[Label]) -> int:
        """Bitmask over label ids for a collection of label names."""
        mask = 0
        for label in labels:
            mask |= 1 << self.label_id(label)
        return mask

    def mask_to_labels(self, mask: int) -> set[Label]:
        """The set of label names encoded by a bitmask."""
        return {
            self._label_names[i]
            for i in range(len(self._label_names))
            if mask >> i & 1
        }

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the graph."""
        return len(self._out)

    @property
    def num_edges(self) -> int:
        """Number of labeled edges in the graph."""
        return self._num_edges

    def vertices(self) -> range:
        """All vertex ids, as a range."""
        return range(len(self._out))

    def edges(self) -> Iterator[tuple[int, int, Label]]:
        """Iterate over edges as ``(u, v, label_name)`` triples."""
        for u, pairs in enumerate(self._out):
            for v, label_id in pairs:
                yield (u, v, self._label_names[label_id])

    def out_edges(self, v: int) -> list[tuple[int, int]]:
        """Outgoing ``(neighbor, label_id)`` pairs of ``v`` (do not mutate).

        A row reference is not stable across a mutation of the same
        graph: the first write to a row shared with a copy replaces it.
        """
        self._check_vertex(v)
        return self._out[v]

    def in_edges(self, v: int) -> list[tuple[int, int]]:
        """Incoming ``(neighbor, label_id)`` pairs of ``v`` (do not mutate).

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

    def has_edge(self, u: int, v: int, label: Label) -> bool:
        """Whether the labeled edge ``u -(label)-> v`` exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        label_id = self._label_ids.get(label)
        if label_id is None:
            return False
        return (u, v, label_id) in self._edge_set

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(self) -> int:
        """Append a fresh vertex and return its id."""
        self._out.append([])
        self._in.append([])
        vertex = len(self._out) - 1
        if self._owned is not None:
            self._owned.update((vertex, ~vertex))
        return vertex

    def add_edge(self, u: int, v: int, label: Label) -> None:
        """Insert ``u -(label)-> v``; raises :class:`EdgeError` if present."""
        self._check_vertex(u)
        self._check_vertex(v)
        label_id = self.intern_label(label)
        key = (u, v, label_id)
        if key in self._edge_set:
            raise EdgeError(f"edge ({u}, {v}, {label!r}) already exists")
        if self._owned is not None:
            self._own(u, v)
        self._out[u].append((v, label_id))
        self._in[v].append((u, label_id))
        self._edge_set.add(key)
        self._num_edges += 1

    def remove_edge(self, u: int, v: int, label: Label) -> None:
        """Delete ``u -(label)-> v``; raises :class:`EdgeError` if absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        label_id = self._label_ids.get(label)
        key = (u, v, label_id) if label_id is not None else None
        if key is None or key not in self._edge_set:
            raise EdgeError(f"edge ({u}, {v}, {label!r}) does not exist")
        if self._owned is not None:
            self._own(u, v)
        self._out[u].remove((v, label_id))
        self._in[v].remove((u, label_id))
        self._edge_set.discard(key)
        self._num_edges -= 1

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def to_plain(self) -> DiGraph:
        """Forget labels: a :class:`DiGraph` with one edge per connected pair."""
        plain = DiGraph(self.num_vertices)
        for u, v, _label in self.edges():
            plain.add_edge_if_absent(u, v)
        return plain

    def reversed(self) -> "LabeledDiGraph":
        """A new graph with every edge flipped, labels preserved."""
        rev = LabeledDiGraph(self.num_vertices)
        for u, v, label in self.edges():
            rev.add_edge(v, u, label)
        return rev

    def copy(self) -> "LabeledDiGraph":
        """An independent copy of this graph (label ids and row order
        preserved).

        Copy-on-write at row granularity, as :meth:`DiGraph.copy`: the
        two outer row tables are copied and every row is shared until
        either graph first writes it (:meth:`_own`).  The flat edge-key
        set and the label tables are copied whole (one C-level call
        each; their elements are immutable).
        """
        clone = LabeledDiGraph.__new__(LabeledDiGraph)
        clone._out = list(self._out)
        clone._in = list(self._in)
        clone._edge_set = self._edge_set.copy()
        clone._label_ids = self._label_ids.copy()
        clone._label_names = self._label_names[:]
        clone._num_edges = self._num_edges
        clone._owned = set()
        self._owned = set()
        return clone

    def __deepcopy__(self, memo: dict[int, object]) -> "LabeledDiGraph":
        """``copy.deepcopy`` is :meth:`copy`, registered in ``memo`` so an
        index and its wrapper keep sharing *one* graph."""
        clone = memo[id(self)] = self.copy()
        return clone

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_vertices

    def __getstate__(self) -> dict[str, object]:
        """Pickle state: adjacency, edge keys and label tables, never row
        ownership — pickling writes every row out, so a loaded graph
        owns them all (one payload per graph, as for :class:`DiGraph`)."""
        return {
            "_out": self._out,
            "_in": self._in,
            "_edge_set": self._edge_set,
            "_label_ids": self._label_ids,
            "_label_names": self._label_names,
            "_num_edges": self._num_edges,
        }

    def __setstate__(self, state: object) -> None:
        # Graphs saved before this class had an explicit state pickle as
        # the default ``(None, slots)`` tuple; both forms must keep loading.
        if isinstance(state, tuple):
            state = state[1] or {}
        assert isinstance(state, dict)
        self._out = state["_out"]
        self._in = state["_in"]
        self._edge_set = state["_edge_set"]
        self._label_ids = state["_label_ids"]
        self._label_names = state["_label_names"]
        self._num_edges = state["_num_edges"]
        self._owned = None

    def __repr__(self) -> str:
        return (
            f"LabeledDiGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"|L|={self.num_labels})"
        )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < len(self._out)):
            raise VertexError(f"vertex {v} out of range [0, {len(self._out)})")

    def _own(self, u: int, v: int) -> None:
        """Make ``u``'s out row and ``v``'s in row private before a write
        (the one place a shared row is replaced; see :meth:`copy`)."""
        owned = self._owned
        if u not in owned:
            owned.add(u)
            self._out[u] = self._out[u].copy()
        if ~v not in owned:
            owned.add(~v)
            self._in[v] = self._in[v].copy()
