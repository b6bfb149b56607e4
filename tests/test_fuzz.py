"""Property-based fuzzing of the unified index contract.

Hypothesis drives random graphs through every fast index and checks the
full exactness contract against BFS — the widest net in the suite.  The
last two tests hold the HTTP handler's header read to the stdlib parser.
"""

from __future__ import annotations

import http.client
import io
import json
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.condensed import CondensedIndex
from repro.core.registry import all_plain_indexes
from repro.graphs.digraph import DiGraph
from repro.traversal.online import bfs_reachable

PLAIN = all_plain_indexes()
# cheap enough for fuzzing; the expensive ones have dedicated suites
FUZZ_NAMES = sorted(
    set(PLAIN)
    - {"2-Hop", "Dual labeling", "Path-hop", "3-Hop", "HL", "Ralf et al."}
)


def _random_graph(data, max_vertices=14) -> DiGraph:
    n = data.draw(st.integers(2, max_vertices))
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n,
        )
    )
    graph = DiGraph(n)
    for u, v in edges:
        if u != v:
            graph.add_edge_if_absent(u, v)
    return graph


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_every_index_is_exact_on_random_graphs(data):
    graph = _random_graph(data)
    name = data.draw(st.sampled_from(FUZZ_NAMES))
    cls = PLAIN[name]
    from repro.graphs.topo import is_dag

    if cls.metadata.input_kind == "DAG" and not is_dag(graph):
        index = CondensedIndex.build(graph, inner=cls)
    else:
        index = cls.build(graph)
    for s in range(graph.num_vertices):
        for t in range(graph.num_vertices):
            assert index.query(s, t) == bfs_reachable(graph, s, t), (name, s, t)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_labeled_indexes_exact_on_random_graphs(data):
    from repro.core.registry import all_labeled_indexes
    from repro.graphs.labeled import LabeledDiGraph
    from repro.traversal.rpq import rpq_reachable

    n = data.draw(st.integers(2, 10))
    labels = ["a", "b"]
    edges = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from(labels),
            ),
            max_size=2 * n,
        )
    )
    graph = LabeledDiGraph(n)
    for label in labels:
        graph.intern_label(label)
    for u, v, label in edges:
        if u != v and not graph.has_edge(u, v, label):
            graph.add_edge(u, v, label)
    name = data.draw(
        st.sampled_from(sorted(all_labeled_indexes()))
    )
    cls = all_labeled_indexes()[name]
    index = cls.build(graph)
    constraint = (
        data.draw(st.sampled_from(["(a)*", "(b)+", "(a|b)*", "(a|b)+"]))
        if cls.metadata.constraint == "Alternation"
        else data.draw(st.sampled_from(["(a)*", "(b)+", "(a.b)*", "(b.a)+"]))
    )
    for s in range(n):
        for t in range(n):
            expected = rpq_reachable(graph, s, t, constraint)
            assert index.query(s, t, constraint) == expected, (name, constraint, s, t)


# -- the HTTP handler's lean header read ------------------------------------
# ``_Handler.parse_request`` replaces ``email.parser`` with a loop; these pin
# it to the stdlib on every block both accept, and to a clean refusal on
# every block it rejects.

_TOKEN = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.!#$%&'*+^`|~",
    min_size=1,
    max_size=12,
)
#: Field values: visible latin-1 with inner spaces/tabs, no edge whitespace
#: (the stdlib keeps trailing blanks, the handler trims them, RFC 9110 §5.5
#: says they are not part of the value).
_VALUE = st.text(
    alphabet=st.characters(
        min_codepoint=0x20, max_codepoint=0xFF, blacklist_characters="\x7f\x85\xa0"
    )
    | st.just("\t"),
    max_size=30,
).map(lambda value: value.strip(" \t"))
#: (name, blanks after the colon, value).  Names stay under 13 characters,
#: so none is ``Content-Length`` or ``Transfer-Encoding``: what those may say
#: is the second test's business.
_FIELDS = st.lists(
    st.tuples(_TOKEN, st.sampled_from(["", " ", "  ", "\t"]), _VALUE),
    max_size=12,
)


def _handle(request: bytes):
    """Run one request through a socketless handler; returns it and its reply."""
    from repro.service.admission import AdmissionController
    from repro.service.server import _Handler

    handler = _Handler.__new__(_Handler)
    handler.server = SimpleNamespace(
        quiet=True, admission=AdmissionController(), _head_stamp=(0, "")
    )
    handler.client_address = ("fuzz", 0)
    handler.rfile = io.BytesIO(request)
    handler.wfile = io.BytesIO()
    handler.close_connection = False
    return handler, handler.wfile


@settings(max_examples=150, deadline=None)
@given(_FIELDS, st.sampled_from(["\r\n", "\n"]))
def test_lean_header_read_agrees_with_the_stdlib(fields, eol):
    block = "".join(f"{name}:{pad}{value}{eol}" for name, pad, value in fields) + eol
    raw = block.encode("iso-8859-1")
    handler, _reply = _handle(raw)
    handler.raw_requestline = b"GET /fuzz HTTP/1.1\r\n"
    assert handler.parse_request() is True
    reference = http.client.parse_headers(io.BytesIO(raw))
    for name, _pad, _value in fields:
        for spelling in (name, name.lower(), name.upper()):
            assert handler.headers.get(spelling.lower()) == reference.get(spelling)
    assert len(handler.headers) == len({key.lower() for key in reference.keys()})
    assert handler.headers.get("absent") is reference.get("absent") is None


@settings(max_examples=150, deadline=None)
@given(
    _FIELDS,
    st.sampled_from(
        [
            "no colon on this line",
            " obs-fold: continuation",
            "\tobs-fold: continuation",
            "Name : space before the colon",
            "Na me: space inside the name",
            ": no name",
            "Content-Length: 1\r\nContent-Length: 2",
            "Content-Length: -1",
            "Content-Length: 1e3",
            "Content-Length: \xb2",
            "Content-Length: " + "9" * 5000,
            "Transfer-Encoding: chunked",
            "X: " + "a" * 65536,
            "\r\n".join(f"X-{i}: y" for i in range(101)),
        ]
    ),
    st.integers(0, 12),
)
def test_malformed_header_block_is_refused_cleanly(fields, bad, position):
    lines = [f"{name}: {value}" for name, _pad, value in fields]
    lines.insert(min(position, len(lines)), bad)
    request = "GET /healthz HTTP/1.1\r\n" + "\r\n".join(lines) + "\r\n\r\n"
    handler, reply = _handle(request.encode("iso-8859-1"))
    handler.handle_one_request()  # must not raise
    head, _, body = reply.getvalue().partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    assert 400 <= status < 500, head
    assert b"\r\nContent-Type: application/json; charset=utf-8\r\n" in head
    assert b"\r\nConnection: close" in head
    assert isinstance(json.loads(body)["error"], str)
    assert handler.close_connection is True
