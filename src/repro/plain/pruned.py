"""The pruned 2-hop labeling engine shared by the TOL family (§3.2).

The survey observes that TFL, DL and PLL are all *instantiations of TOL*:
one engine that takes a strict total order ``o`` on vertices and, for each
vertex ``v`` in order, runs a forward and a backward BFS.  A visited vertex
``u`` receives ``v`` in ``L_in(u)`` (forward) or ``L_out(u)`` (backward)
unless the pair ``(v, u)`` is already covered by previously assigned labels
— in which case the search is pruned at ``u``.  Pruning at any vertex
ranked before ``v`` is a special case of coverage, which is how the paper
phrases the termination rule.

The engine works on general graphs (cycles are handled by the BFS visited
sets), so PLL/DL can run directly on cyclic input while TOL/TFL keep their
DAG-input classification.

2-hop query rule (§3.2): ``Qr(s, t)`` iff ``s = t``, ``s ∈ L_in(t)``,
``t ∈ L_out(s)``, or ``L_out(s) ∩ L_in(t) ≠ ∅``.
"""

from __future__ import annotations

from collections import deque

from repro.core.base import ReachabilityIndex, TriState
from repro.graphs.digraph import DiGraph

__all__ = [
    "TwoHopLabels",
    "TwoHopProbeIndex",
    "build_pruned_labels",
    "degree_order",
    "labels_cover",
]


class TwoHopLabels:
    """Per-vertex ``L_in`` / ``L_out`` hop sets with the 2-hop query rule.

    The inverted hub maps behind set enumeration are cached per label
    *version*, so any code that mutates ``l_in``/``l_out`` in place
    must call :meth:`bump_version` (the engine's mutators here and in
    :mod:`repro.plain.parallel` already do).
    """

    __slots__ = ("l_in", "l_out", "_version", "_inverted")

    def __init__(self, num_vertices: int) -> None:
        self.l_in: list[set[int]] = [set() for _ in range(num_vertices)]
        self.l_out: list[set[int]] = [set() for _ in range(num_vertices)]
        self._version = 0
        self._inverted: tuple[int, tuple[dict, dict]] | None = None

    def bump_version(self) -> None:
        """Invalidate the inverted-hub cache after an in-place mutation."""
        self._version += 1

    def copy(self) -> "TwoHopLabels":
        """Independent label sets (one ``set.copy()`` per vertex and
        side); the inverted-hub cache is not carried over."""
        clone = TwoHopLabels.__new__(TwoHopLabels)
        clone.l_in = list(map(set.copy, self.l_in))
        clone.l_out = list(map(set.copy, self.l_out))
        clone._version = 0
        clone._inverted = None
        return clone

    def __deepcopy__(self, memo: dict[int, object]) -> "TwoHopLabels":
        """``copy.deepcopy`` is :meth:`copy`: hop ids are atomic."""
        clone = memo[id(self)] = self.copy()
        return clone

    def __getstate__(self) -> dict[str, object]:
        """Persistable state: the sets only, never the derived caches."""
        return {"l_in": self.l_in, "l_out": self.l_out}

    def __setstate__(self, state: object) -> None:
        # Labels pickled before the cache slots existed arrive as the
        # default ``(None, slots)`` tuple; both forms must keep loading.
        if isinstance(state, tuple):
            state = state[1] or {}
        assert isinstance(state, dict)
        self.l_in = state["l_in"]
        self.l_out = state["l_out"]
        self._version = 0
        self._inverted = None

    def covered(self, source: int, target: int) -> bool:
        """The §3.2 query rule over the current labels."""
        if source == target:
            return True
        l_out = self.l_out[source]
        l_in = self.l_in[target]
        if source in l_in or target in l_out:
            return True
        return not l_out.isdisjoint(l_in)

    def covered_many(self, pairs) -> list[bool]:
        """The query rule over a batch of pairs, label arrays bound once."""
        l_in_all = self.l_in
        l_out_all = self.l_out
        answers: list[bool] = []
        append = answers.append
        for source, target in pairs:
            if source == target:
                append(True)
                continue
            l_out = l_out_all[source]
            l_in = l_in_all[target]
            append(
                source in l_in or target in l_out or not l_out.isdisjoint(l_in)
            )
        return answers

    def _hub_inverted(self) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
        """Inverted hub maps, built lazily and cached per label version.

        ``in_of[h]`` lists the vertices carrying ``h`` in their ``L_in``
        (the vertices ``h`` reaches); ``out_of[h]`` the vertices carrying
        ``h`` in ``L_out`` (the vertices reaching ``h``).  These are what
        turn the pairwise §3.2 query rule into set *enumeration*.
        """
        cached = self._inverted
        if cached is not None and cached[0] == self._version:
            return cached[1]
        in_of: dict[int, list[int]] = {}
        out_of: dict[int, list[int]] = {}
        for v, hops in enumerate(self.l_in):
            for h in hops:
                in_of.setdefault(h, []).append(v)
        for v, hops in enumerate(self.l_out):
            for h in hops:
                out_of.setdefault(h, []).append(v)
        self._inverted = (self._version, (in_of, out_of))
        return in_of, out_of

    def enumerate_from(self, source: int) -> set[int]:
        """All targets the §3.2 rule covers from ``source``.

        The rule ``Qr(s, t)`` iff ``s = t``, ``s ∈ L_in(t)``,
        ``t ∈ L_out(s)``, or ``L_out(s) ∩ L_in(t) ≠ ∅`` inverts to
        ``{s} ∪ L_out(s) ∪ ⋃_{h ∈ L_out(s) ∪ {s}} in_of[h]`` — a pure
        label join, exact whenever the labels are complete.
        """
        in_of, _out_of = self._hub_inverted()
        hops = self.l_out[source]
        result = set(hops)
        result.add(source)
        result.update(in_of.get(source, ()))
        for h in hops:
            members = in_of.get(h)
            if members is not None:
                result.update(members)
        return result

    def enumerate_to(self, target: int) -> set[int]:
        """All sources the §3.2 rule covers into ``target`` (the mirror)."""
        _in_of, out_of = self._hub_inverted()
        hops = self.l_in[target]
        result = set(hops)
        result.add(target)
        result.update(out_of.get(target, ()))
        for h in hops:
            members = out_of.get(h)
            if members is not None:
                result.update(members)
        return result

    def size_in_entries(self) -> int:
        """Σ |L_out(v)| + |L_in(v)| — the paper's 2-hop size metric."""
        return sum(len(s) for s in self.l_in) + sum(len(s) for s in self.l_out)

    def remove_hop(self, hop: int) -> None:
        """Strip every label entry referring to ``hop`` (used by maintenance)."""
        self.bump_version()
        for entries in self.l_in:
            entries.discard(hop)
        for entries in self.l_out:
            entries.discard(hop)


class TwoHopProbeIndex(ReachabilityIndex):
    """What every complete 2-hop family shares: the §3.2 probe.

    PLL/DL, the TOL family, greedy 2-Hop, HL and batched PLL differ in
    how they build (and maintain) ``labels``; the probe, its batched
    form and the size metric are this one copy.
    """

    def __init__(self, graph: DiGraph, labels: TwoHopLabels) -> None:
        super().__init__(graph)
        self._labels = labels

    @property
    def labels(self) -> TwoHopLabels:
        """The underlying 2-hop label sets."""
        return self._labels

    def _lookup(self, source: int, target: int) -> TriState:
        if self._labels.covered(source, target):
            return TriState.YES
        return TriState.NO

    def _lookup_batch(self, pairs) -> list[TriState]:
        """Batched 2-hop merges via :meth:`TwoHopLabels.covered_many`."""
        yes, no = TriState.YES, TriState.NO
        return [yes if c else no for c in self._labels.covered_many(pairs)]

    def size_in_entries(self) -> int:
        return self._labels.size_in_entries()


def labels_cover(labels: TwoHopLabels, source: int, target: int) -> bool:
    """Convenience wrapper over :meth:`TwoHopLabels.covered`."""
    return labels.covered(source, target)


def enumerate_covered(
    labels: TwoHopLabels, vertex: int, forward: bool
) -> tuple[frozenset[int], str, tuple[str, ...]]:
    """The shared ``_enumerate_fast`` body of every complete 2-hop family.

    Exact only when ``labels`` are complete (the query rule alone decides
    every pair), which holds for PLL/DL/TOL/TFL/2-Hop and friends.
    """
    if forward:
        members = labels.enumerate_from(vertex)
        hubs = len(labels.l_out[vertex]) + 1
    else:
        members = labels.enumerate_to(vertex)
        hubs = len(labels.l_in[vertex]) + 1
    return (
        frozenset(members),
        "enum_label_join",
        (
            f"label-join enumeration: {hubs} hubs joined through the "
            f"inverted hub index to {len(members)} vertices",
        ),
    )


def covered_below(
    labels: TwoHopLabels,
    rank: dict[int, int],
    source: int,
    target: int,
    limit: int,
) -> bool:
    """The query rule restricted to hops ranked before ``limit``.

    Pruning a labeling pass is only safe against *lower-ranked* coverage:
    that is what makes the labels canonical (hop ``h`` labels exactly the
    pairs whose min-rank path vertex is ``h``), and canonical labels are
    what keeps the §3.2 maintenance correct across interleaved updates —
    higher-ranked coverage can vanish in a later deletion without the
    pruned hop ever being scheduled for repair.
    """
    if source == target:
        return True
    l_out = labels.l_out[source]
    l_in = labels.l_in[target]
    if source in l_in and rank[source] < limit:
        return True
    if target in l_out and rank[target] < limit:
        return True
    if len(l_out) > len(l_in):
        smaller, larger = l_in, l_out
    else:
        smaller, larger = l_out, l_in
    for hop in smaller:
        if hop in larger and rank[hop] < limit:
            return True
    return False


def degree_order(graph: DiGraph) -> list[int]:
    """Vertices by decreasing total degree (ties by id) — the DL/PLL order."""
    return sorted(
        graph.vertices(), key=lambda v: (-(graph.in_degree(v) + graph.out_degree(v)), v)
    )


def resume_forward(
    graph: DiGraph,
    labels: TwoHopLabels,
    rank: dict[int, int],
    hop: int,
    start: int,
) -> None:
    """(Re)run the pruned forward BFS of ``hop`` from ``start``.

    Adds ``hop`` to ``L_in`` of every reached vertex whose pair is not
    covered by a *lower-ranked* hop (see :func:`covered_below`).
    ``start == hop`` performs the full labeling pass; other starts resume
    the search across a newly inserted edge (dynamic maintenance).
    """
    labels.bump_version()
    limit = rank[hop]
    queue: deque[int] = deque()
    visited = {start}
    if start == hop:
        queue.append(start)
    else:
        if covered_below(labels, rank, hop, start, limit):
            return
        labels.l_in[start].add(hop)
        queue.append(start)
    while queue:
        v = queue.popleft()
        for w in graph.out_neighbors(v):
            if w in visited or w == hop:
                continue
            visited.add(w)
            if covered_below(labels, rank, hop, w, limit):
                continue  # prune: pair covered by an earlier-ranked hop
            labels.l_in[w].add(hop)
            queue.append(w)


def resume_backward(
    graph: DiGraph,
    labels: TwoHopLabels,
    rank: dict[int, int],
    hop: int,
    start: int,
) -> None:
    """(Re)run the pruned backward BFS of ``hop`` from ``start``."""
    labels.bump_version()
    limit = rank[hop]
    queue: deque[int] = deque()
    visited = {start}
    if start == hop:
        queue.append(start)
    else:
        if covered_below(labels, rank, start, hop, limit):
            return
        labels.l_out[start].add(hop)
        queue.append(start)
    while queue:
        v = queue.popleft()
        for w in graph.in_neighbors(v):
            if w in visited or w == hop:
                continue
            visited.add(w)
            if covered_below(labels, rank, w, hop, limit):
                continue
            labels.l_out[w].add(hop)
            queue.append(w)


def build_pruned_labels(graph: DiGraph, order: list[int]) -> TwoHopLabels:
    """Run the TOL engine over ``order`` and return complete 2-hop labels.

    During a fresh build only lower-ranked hops have labels, so the
    rank-restricted pruning coincides with the plain coverage rule.
    """
    labels = TwoHopLabels(graph.num_vertices)
    rank = {v: i for i, v in enumerate(order)}
    for hop in order:
        resume_forward(graph, labels, rank, hop, hop)
        resume_backward(graph, labels, rank, hop, hop)
    return labels
