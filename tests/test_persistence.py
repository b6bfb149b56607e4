"""Tests for index save/load."""

from __future__ import annotations

import pickle

import pytest

from repro.core.condensed import CondensedIndex
from repro.core.registry import labeled_index, plain_index
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import (
    cyclic_communities,
    random_dag,
    random_labeled_digraph,
)
from repro.graphs.labeled import LabeledDiGraph
from repro.persistence import (
    PersistenceError,
    load_index,
    peek_index_info,
    save_index,
    write_checksummed_blob,
)
from repro.traversal.online import bfs_reachable


@pytest.mark.parametrize("name", ["PLL", "GRAIL", "BFL", "TC", "Path-tree"])
def test_plain_round_trip(tmp_path, name):
    graph = random_dag(25, 60, seed=41)
    index = plain_index(name).build(graph)
    path = tmp_path / "index.repro"
    save_index(index, path)
    loaded = load_index(path)
    assert type(loaded) is type(index)
    for s in range(graph.num_vertices):
        for t in range(graph.num_vertices):
            assert loaded.query(s, t) == bfs_reachable(graph, s, t)


@pytest.mark.parametrize("name", ["P2H+", "RLC", "GTC"])
def test_labeled_round_trip(tmp_path, name):
    graph = random_labeled_digraph(15, 35, ["a", "b"], seed=42)
    index = labeled_index(name).build(graph)
    path = tmp_path / "index.repro"
    save_index(index, path)
    loaded = load_index(path)
    constraint = "(a | b)*" if name != "RLC" else "(a . b)*"
    from repro.traversal.rpq import rpq_reachable

    for s in range(graph.num_vertices):
        for t in range(graph.num_vertices):
            expected = rpq_reachable(graph, s, t, constraint)
            assert loaded.query(s, t, constraint) == expected


def test_condensed_round_trip(tmp_path):
    graph = cyclic_communities(4, 4, 8, seed=43)
    index = CondensedIndex.build(graph, inner=plain_index("GRAIL"))
    path = tmp_path / "wrapped.repro"
    save_index(index, path)
    loaded = load_index(path)
    for s in range(graph.num_vertices):
        for t in range(graph.num_vertices):
            assert loaded.query(s, t) == bfs_reachable(graph, s, t)


def test_peek_reads_class_without_unpickling(tmp_path):
    graph = random_dag(10, 20, seed=44)
    index = plain_index("Feline").build(graph)
    path = tmp_path / "feline.repro"
    save_index(index, path)
    info = peek_index_info(path)
    assert info["class_name"] == "FelineIndex"
    assert info["version"] == 2


def test_dynamic_index_usable_after_load(tmp_path):
    graph = random_dag(20, 40, seed=45)
    index = plain_index("TOL").build(graph)
    path = tmp_path / "tol.repro"
    save_index(index, path)
    loaded = load_index(path)
    g = loaded.graph
    # find a DAG-preserving missing edge and insert through the loaded index
    for u in range(g.num_vertices):
        for v in range(g.num_vertices):
            if u != v and not g.has_edge(u, v) and not bfs_reachable(g, v, u):
                loaded.insert_edge(u, v)
                assert loaded.query(u, v)
                return
    pytest.fail("no insertable edge found")


class _PicklesLike:
    """Pickles to what a slotted ``cls`` without ``__getstate__`` wrote:
    a blank ``cls.__new__(cls)`` plus the default ``(None, {slot: value})``
    state (the pickler refuses ``copyreg.__newobj__`` on a stand-in)."""

    def __init__(self, cls: type, slots: dict[str, object]) -> None:
        self.cls, self.slots = cls, slots

    def __reduce__(self):
        return (_blank, (self.cls,), (None, self.slots))


def _blank(cls: type) -> object:
    return cls.__new__(cls)


_GRAPH_CASES = {
    "DiGraph": (
        DiGraph,
        {
            "_out": [[2, 1], [2], []],
            "_in": [[], [0], [0, 1]],
            "_out_sets": [{1, 2}, {2}, set()],
            "_num_edges": 3,
        },
        [(0, 1), (0, 2), (1, 2)],
        (2, 0),
    ),
    "LabeledDiGraph": (
        LabeledDiGraph,
        {
            "_out": [[(2, 0), (1, 1)], [(2, 0)], []],
            "_in": [[], [(0, 1)], [(0, 0), (1, 0)]],
            "_edge_set": {(0, 2, 0), (0, 1, 1), (1, 2, 0)},
            "_label_ids": {"x": 0, "y": 1},
            "_label_names": ["x", "y"],
            "_num_edges": 3,
        },
        [(0, 1, "y"), (0, 2, "x"), (1, 2, "x")],
        (2, 0, "z"),
    ),
}


@pytest.mark.parametrize("case", _GRAPH_CASES)
class TestGraphPickles:
    """Row ownership is never pickled: whatever form the state takes, a
    loaded graph owns every row and shares none with anything live."""

    def test_legacy_slot_state_loads_mutates_and_round_trips(self, case):
        cls, slots, edges, extra = _GRAPH_CASES[case]
        loaded = pickle.loads(pickle.dumps(_PicklesLike(cls, slots)))
        assert type(loaded) is cls and loaded._owned is None
        assert sorted(loaded.edges()) == edges and loaded.num_edges == 3
        loaded.add_edge(*extra)
        loaded.remove_edge(*edges[0])
        fresh = loaded.add_vertex()
        loaded.add_edge(fresh, *extra[1:])
        expected = sorted(edges[1:] + [extra, (fresh, *extra[1:])])
        assert sorted(loaded.edges()) == expected
        state = loaded.__getstate__()
        assert isinstance(state, dict) and "_owned" not in state
        again = pickle.loads(pickle.dumps(loaded))
        assert again._owned is None and again.num_vertices == 4
        assert sorted(again.edges()) == expected
        assert again._out == loaded._out and again._in == loaded._in
        again.remove_edge(*extra)
        assert loaded.has_edge(*extra) and not again.has_edge(*extra)

    def test_pickled_while_sharing_rows_unpickles_independent(self, case):
        cls, _slots, edges, extra = _GRAPH_CASES[case]
        source = cls(3, edges)
        sibling = source.copy()
        assert sibling._owned == set() and sibling._out[0] is source._out[0]
        loaded = pickle.loads(pickle.dumps(sibling))
        assert loaded._owned is None
        live = {id(row) for g in (source, sibling) for row in g._out + g._in}
        assert not live & {id(row) for row in loaded._out + loaded._in}
        loaded.add_edge(*extra)
        loaded.remove_edge(*edges[0])
        sibling.remove_edge(*edges[1])
        assert sorted(source.edges()) == edges
        assert sorted(sibling.edges()) == [edges[0], edges[2]]
        assert sorted(loaded.edges()) == sorted(edges[1:] + [extra])


class TestErrorPaths:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.repro"
        path.write_bytes(b"not an index file at all")
        with pytest.raises(PersistenceError, match="magic"):
            load_index(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "future.repro"
        path.write_bytes(b"REPRO-INDEX" + (99).to_bytes(2, "big") + b"\x00\x00")
        with pytest.raises(PersistenceError, match="version"):
            load_index(path)

    def test_save_rejects_non_index(self, tmp_path):
        with pytest.raises(PersistenceError):
            save_index("not an index", tmp_path / "x.repro")

    def test_truncated_file_is_typed_error(self, tmp_path):
        graph = random_dag(10, 20, seed=48)
        index = plain_index("PLL").build(graph)
        path = tmp_path / "trunc.repro"
        save_index(index, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(PersistenceError):
            load_index(path)

    def test_flipped_byte_fails_checksum_with_digests(self, tmp_path):
        graph = random_dag(10, 20, seed=49)
        index = plain_index("PLL").build(graph)
        path = tmp_path / "flip.repro"
        save_index(index, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # damage the pickle payload
        path.write_bytes(bytes(data))
        with pytest.raises(PersistenceError, match="checksum mismatch") as info:
            load_index(path)
        assert "sha256" in str(info.value)
        assert str(path) in str(info.value)

    def test_legacy_v1_file_is_rejected_with_its_version(self, tmp_path):
        import pickle

        graph = random_dag(10, 20, seed=50)
        index = plain_index("PLL").build(graph)
        name = type(index).__name__.encode()
        path = tmp_path / "legacy.repro"
        with open(path, "wb") as sink:  # the pre-checksum v1 layout
            sink.write(b"REPRO-INDEX")
            sink.write((1).to_bytes(2, "big"))
            sink.write(len(name).to_bytes(2, "big"))
            sink.write(name)
            sink.write(pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL))
        with pytest.raises(PersistenceError, match="version 1"):
            load_index(path)
        with pytest.raises(PersistenceError, match="version 1"):
            peek_index_info(path)

    def test_no_temp_file_left_behind(self, tmp_path):
        graph = random_dag(10, 20, seed=51)
        index = plain_index("PLL").build(graph)
        save_index(index, tmp_path / "clean.repro")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.repro"]

    def test_load_rejects_non_index_payload(self, tmp_path):
        import pickle

        path = tmp_path / "list.repro"
        name = b"list"
        write_checksummed_blob(  # a well-formed v2 container around a non-index
            path,
            b"REPRO-INDEX"
            + (2).to_bytes(2, "big")
            + len(name).to_bytes(2, "big")
            + name
            + pickle.dumps([1, 2, 3]),
        )
        with pytest.raises(PersistenceError, match="not an index"):
            load_index(path)


class TestSerializedSize:
    def test_bytes_positive_and_payload_smaller(self):
        from repro.persistence import serialized_size_bytes

        graph = random_dag(40, 100, seed=46)
        index = plain_index("PLL").build(graph)
        total = serialized_size_bytes(index)
        payload = serialized_size_bytes(index, include_graph=False)
        assert total > 0
        assert 0 <= payload < total

    def test_bigger_index_more_bytes(self):
        from repro.persistence import serialized_size_bytes

        graph = random_dag(60, 150, seed=47)
        small = plain_index("GRAIL").build(graph, k=1)
        large = plain_index("GRAIL").build(graph, k=8)
        assert serialized_size_bytes(large) > serialized_size_bytes(small)
