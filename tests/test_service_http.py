"""End-to-end tests for the JSON-over-HTTP service front door."""

from __future__ import annotations

import http.client
import io
import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler

import pytest

from repro.graphs.generators import random_dag, random_labeled_digraph
from repro.obs.metrics import global_registry
from repro.service import ReachabilityService
from repro.service.server import serve
from repro.traversal.online import bfs_reachable
from repro.traversal.rpq import rpq_reachable


@pytest.fixture
def labeled_server():
    graph = random_labeled_digraph(15, 40, ["a", "b"], seed=701)
    service = ReachabilityService(graph)
    server = serve(service, port=0)  # port 0: let the OS pick a free one
    server.start_background()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", graph, service
    server.shutdown()
    server.server_close()


def _get(url: str) -> tuple[int, dict]:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(url: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


class TestRoutes:
    def test_healthz_is_pure_liveness(self, labeled_server):
        base, _graph, _service = labeled_server
        status, body = _get(f"{base}/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0
        # Liveness carries no readiness detail — that moved to /readyz.
        assert "epoch" not in body

    def test_readyz_reports_serving_state(self, labeled_server):
        base, _graph, service = labeled_server
        status, body = _get(f"{base}/readyz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["epoch"] == 0
        assert body["in_flight"] == 0
        assert body["index"] == service.index_name
        assert body["mode"] == "labeled"
        assert body["uptime_s"] >= 0

    def test_reach_matches_oracle(self, labeled_server):
        base, graph, _service = labeled_server
        plain = graph.to_plain()
        for source, target in [(0, 5), (3, 9), (14, 2)]:
            status, body = _get(f"{base}/reach?source={source}&target={target}")
            assert status == 200
            assert body["reachable"] == bfs_reachable(plain, source, target)
            assert body["epoch"] == 0
            assert body["route"] in ("cache", "plain_index")

    def test_lreach_matches_oracle(self, labeled_server):
        base, graph, _service = labeled_server
        constraint = "(a | b)*"
        status, body = _get(
            f"{base}/lreach?source=0&target=7&constraint=(a%20|%20b)*"
        )
        assert status == 200
        assert body["reachable"] == rpq_reachable(graph, 0, 7, constraint)
        assert body["route"] == "labeled_index"

    def test_update_bumps_epoch_and_changes_answers(self, labeled_server):
        base, graph, service = labeled_server
        # Find a missing edge and insert it over HTTP.
        n = graph.num_vertices
        missing = next(
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and not graph.has_edge(u, v, "a")
        )
        status, body = _post(
            f"{base}/update",
            {
                "ops": [
                    {
                        "kind": "insert",
                        "source": missing[0],
                        "target": missing[1],
                        "label": "a",
                    }
                ]
            },
        )
        assert status == 200
        assert body == {"epoch": 1, "applied": 1}
        status, reach = _get(
            f"{base}/reach?source={missing[0]}&target={missing[1]}"
        )
        assert status == 200
        assert reach["reachable"] is True
        assert reach["epoch"] == 1
        assert service.epoch == 1

    def test_metrics_text_and_json(self, labeled_server):
        base, _graph, _service = labeled_server
        _get(f"{base}/reach?source=0&target=1")
        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as response:
            text = response.read().decode()
        assert "service_epoch 0" in text
        assert "cache_hits" in text
        status, body = _get(f"{base}/metrics?format=json")
        assert status == 200
        assert body["service"]["epoch"] == 0
        assert "cache" in body

    def test_metrics_openmetrics(self, labeled_server):
        base, _graph, _service = labeled_server
        _get(f"{base}/reach?source=0&target=1")
        with urllib.request.urlopen(
            f"{base}/metrics?format=openmetrics", timeout=10
        ) as response:
            assert response.headers["Content-Type"].startswith(
                "application/openmetrics-text"
            )
            text = response.read().decode()
        from repro.slo import validate_openmetrics

        stats = validate_openmetrics(text)
        assert stats["families"] > 0 and stats["samples"] > 0
        assert "repro_service_epoch" in text
        assert 'repro_service_queries_total{' in text
        assert text.endswith("# EOF\n")

    def test_slo_endpoint_without_tracker(self, labeled_server):
        base, _graph, service = labeled_server
        _get(f"{base}/reach?source=0&target=1")
        status, body = _get(f"{base}/slo")
        assert status == 200
        assert body["epoch"] == 0
        assert body["index"] == service.index_name
        assert body["draining"] is False
        assert body["slo"] is None  # no tracker attached to this server
        assert body["audit"] is None
        assert body["queries_total"] >= 1

    def test_readyz_503_while_draining(self):
        service = ReachabilityService(random_dag(10, 20, seed=703))
        server = serve(service, port=0)
        server.start_background()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            server.admission.start_draining()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{base}/readyz")
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read())["status"] == "draining"
            # Liveness must stay green while draining: a restart probe
            # that killed the process here would defeat graceful shutdown.
            status, body = _get(f"{base}/healthz")
            assert status == 200
            assert body["status"] == "ok"
        finally:
            server.shutdown()
            server.server_close()


class TestBatchRoute:
    PAIRS = [[0, 5], [3, 9], [9, 3], [2, 2], [0, 5]]

    def test_uncached_then_cached_reconcile_with_metrics(self, labeled_server):
        base, graph, _service = labeled_server
        plain = graph.to_plain()
        expected = [bfs_reachable(plain, s, t) for s, t in self.PAIRS]

        status, cold = _post(f"{base}/reach/batch", {"pairs": self.PAIRS})
        assert status == 200
        assert cold["count"] == len(self.PAIRS)
        assert cold["epoch"] == 0
        assert [r["reachable"] for r in cold["results"]] == expected
        assert all(r["route"] == "plain_index" for r in cold["results"])

        status, warm = _post(f"{base}/reach/batch", {"pairs": self.PAIRS})
        assert [r["reachable"] for r in warm["results"]] == expected
        assert all(r["route"] == "cache" for r in warm["results"])

        _status, metrics = _get(f"{base}/metrics?format=json")
        batch = metrics["service"]["batch"]
        assert batch["requests"] == 2
        assert batch["pairs"] == 2 * len(self.PAIRS)
        assert batch["cache_hits"] == len(self.PAIRS)
        assert batch["computed"] == len({tuple(p) for p in self.PAIRS})

    def test_empty_batch(self, labeled_server):
        base, _graph, _service = labeled_server
        status, body = _post(f"{base}/reach/batch", {"pairs": []})
        assert status == 200
        assert body == {"epoch": 0, "count": 0, "results": []}

    def test_malformed_pairs_400(self, labeled_server):
        base, _graph, _service = labeled_server
        for payload in ({}, {"pairs": [[1]]}, {"pairs": [["a", "b"]]}, {"pairs": 3}):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"{base}/reach/batch", payload)
            assert excinfo.value.code == 400

    def test_out_of_range_pair_400(self, labeled_server):
        base, _graph, _service = labeled_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{base}/reach/batch", {"pairs": [[0, 999]]})
        assert excinfo.value.code == 400


class TestErrorHandling:
    def test_unknown_path_404(self, labeled_server):
        base, _graph, _service = labeled_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{base}/nope")
        assert excinfo.value.code == 404

    def test_missing_params_400(self, labeled_server):
        base, _graph, _service = labeled_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{base}/reach?source=0")
        assert excinfo.value.code == 400
        assert "target" in json.loads(excinfo.value.read())["error"]

    def test_out_of_range_vertex_400(self, labeled_server):
        base, _graph, _service = labeled_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{base}/reach?source=0&target=999")
        assert excinfo.value.code == 400

    def test_bad_update_body_400(self, labeled_server):
        base, _graph, _service = labeled_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{base}/update", {"ops": [{"kind": "explode"}]})
        assert excinfo.value.code == 400

    def test_lreach_on_plain_service_400(self):
        service = ReachabilityService(random_dag(10, 20, seed=702))
        server = serve(service, port=0)
        server.start_background()
        host, port = server.server_address[:2]
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"http://{host}:{port}/lreach?source=0&target=1&constraint=(a)*")
            assert excinfo.value.code == 400
        finally:
            server.shutdown()
            server.server_close()


# -- the connection lifecycle ---------------------------------------------
# Raw sockets and ``http.client`` from here on: ``urllib`` sends
# ``Connection: close`` with every request, so it never sees keep-alive.

JSON_TYPE = "application/json; charset=utf-8"


def _accepted() -> int:
    """Connections accepted so far, process-wide (read it as a delta)."""
    return global_registry().counter("service.http.connections").value


@pytest.fixture
def keepalive():
    """A plain PLL service behind a small admission gate, plus one client."""
    graph = random_dag(40, 120, seed=704)
    server = serve(
        ReachabilityService(graph, index="PLL"),
        port=0,
        max_concurrent=2,
        queue_depth=0,
        queue_timeout_s=0.0,
    )
    server.start_background()
    client = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
    yield server, graph, client
    client.close()
    server.shutdown()
    server.server_close()


def _exchange(client, method, path, body=None, headers=None):
    client.request(method, path, body=body, headers=headers or {})
    response = client.getresponse()
    return response.status, response.headers, response.read()


def _hold_every_slot(admission) -> list:
    """Claim both slots — once the handler of the response just read has
    let go of its own (it releases after the write the client saw)."""
    deadline = time.monotonic() + 5.0
    while admission.in_flight and time.monotonic() < deadline:
        time.sleep(0.001)
    return [admission.admit(), admission.admit()]


def _raw(server) -> tuple[socket.socket, io.BufferedReader]:
    sock = socket.create_connection(server.server_address[:2], timeout=10)
    return sock, sock.makefile("rb")


def _read_response(stream) -> tuple[bytes, bytes]:
    """One response off a raw stream, framed by its ``Content-Length``."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        line = stream.readline()
        assert line, f"connection closed inside a response head: {head!r}"
        head += line
    length = int(re.search(rb"(?i)\r\ncontent-length: (\d+)\r\n", head)[1])
    return head, stream.read(length)


class TestKeepAlive:
    def test_200_reads_are_one_accept(self, keepalive):
        server, graph, client = keepalive
        before = _accepted()
        for i in range(200):
            source, target = i % 40, (7 * i + 3) % 40
            status, headers, body = _exchange(
                client, "GET", f"/reach?source={source}&target={target}"
            )
            assert status == 200 and headers["Connection"] is None
            assert json.loads(body)["reachable"] == bfs_reachable(graph, source, target)
        status, _headers, body = _exchange(client, "GET", "/readyz")
        assert json.loads(body)["open_connections"] == 1
        assert _accepted() - before == 1

    def test_connection_tracking_under_churn(self, keepalive, fast_thread_switching):
        """Eight clients connecting and hanging up at once: every accept is
        counted and the open set ends empty (a lost update leaves a ghost
        that ``/readyz`` reports and ``drain()`` would try to wake)."""
        server, _graph, _client = keepalive
        before = _accepted()

        def churn() -> None:
            for _ in range(20):
                sock, stream = _raw(server)
                with sock, stream:
                    sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                    assert _read_response(stream)[0].startswith(b"HTTP/1.1 200 ")

        threads = [threading.Thread(target=churn, daemon=True) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert _accepted() - before == 160
        deadline = time.monotonic() + 5.0
        while server._connections and time.monotonic() < deadline:
            time.sleep(0.01)  # handler threads notice the hang-ups
        assert not server._connections

    def test_pipelined_requests_are_answered_in_order(self, keepalive):
        server, graph, _client = keepalive
        sock, stream = _raw(server)
        with sock, stream:
            sock.sendall(
                b"GET /reach?source=0&target=5 HTTP/1.1\r\nHost: x\r\n\r\n"
                b"GET /reach?source=5&target=0 HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            answers = [json.loads(_read_response(stream)[1]) for _ in range(2)]
        assert [a["reachable"] for a in answers] == [
            bfs_reachable(graph, 0, 5),
            bfs_reachable(graph, 5, 0),
        ]

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /reach?source=0&target=5 HTTP/1.0\r\n\r\n",
            b"GET /reach?source=0&target=5 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            b"GET /reach?source=0&target=5\r\n\r\n",  # HTTP/0.9 simple request
        ],
    )
    def test_non_persistent_clients_get_one_response(self, keepalive, request_bytes):
        server, _graph, _client = keepalive
        sock, stream = _raw(server)
        with sock, stream:
            sock.sendall(request_bytes)
            head, body = _read_response(stream)
            assert head.startswith(b"HTTP/1.1 200 OK\r\n")
            assert b"\r\nConnection: close\r\n" in head
            assert "reachable" in json.loads(body)
            assert stream.read() == b""  # and then the server hangs up

    def test_http10_keep_alive_is_honoured(self, keepalive):
        server, _graph, _client = keepalive
        sock, stream = _raw(server)
        request = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        with sock, stream:
            for _ in range(2):
                sock.sendall(request)
                head, _body = _read_response(stream)
                assert b"Connection: close" not in head

    def test_idle_connection_is_closed_at_the_timeout(self, keepalive, monkeypatch):
        server, _graph, _client = keepalive
        monkeypatch.setattr(server.RequestHandlerClass, "timeout", 0.2)
        sock, stream = _raw(server)
        with sock, stream:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            _read_response(stream)
            started = time.monotonic()
            assert stream.read() == b""
            assert 0.1 < time.monotonic() - started < 5.0

    def test_stalled_body_is_a_408_and_frees_its_slot(self, keepalive, monkeypatch):
        server, _graph, _client = keepalive
        monkeypatch.setattr(server.RequestHandlerClass, "timeout", 0.2)
        sock, stream = _raw(server)
        with sock, stream:
            sock.sendall(
                b"POST /reach/batch HTTP/1.1\r\nHost: x\r\nContent-Length: 50\r\n\r\n{"
            )
            head, body = _read_response(stream)
            assert head.startswith(b"HTTP/1.1 408 ")
            assert b"\r\nConnection: close\r\n" in head
            assert "error" in json.loads(body)
            assert stream.read() == b""
        assert server.admission.in_flight == 0


class TestExactFraming:
    """A response sent with the request body unread must end the connection;
    otherwise the body's bytes are parsed as the next request line."""

    PAIRS = b'{"pairs": [[0, 5]]}'

    def _then_a_correct_read(self, client, graph):
        status, _headers, body = _exchange(client, "GET", "/reach?source=0&target=5")
        assert status == 200
        assert json.loads(body)["reachable"] == bfs_reachable(graph, 0, 5)

    def test_shed_post_then_get_on_one_client(self, keepalive):
        server, graph, client = keepalive
        self._then_a_correct_read(client, graph)  # the connection is open
        held = _hold_every_slot(server.admission)
        try:
            status, headers, body = _exchange(
                client, "POST", "/reach/batch", body=self.PAIRS
            )
        finally:
            for slot in held:
                slot.release()
        assert status == 503 and headers["Content-Type"] == JSON_TYPE
        assert int(headers["Retry-After"]) >= 1
        assert headers["Connection"] == "close"
        assert json.loads(body)["retry_after_s"] > 0
        self._then_a_correct_read(client, graph)

    @pytest.mark.parametrize(
        "path, headers, status",
        [
            ("/nope", {}, 404),
            ("/reach/batch", {"Content-Length": "-1"}, 400),
            ("/reach/batch", {"Content-Length": "abc"}, 400),
            ("/reach/batch", {"Content-Length": "19, 19"}, 400),
            ("/reach/batch", {"Transfer-Encoding": "chunked"}, 411),
        ],
    )
    def test_unread_body_closes_the_connection(self, keepalive, path, headers, status):
        server, graph, client = keepalive
        started = time.monotonic()
        got, response_headers, body = _exchange(
            client, "POST", path, body=self.PAIRS, headers=headers
        )
        assert got == status and response_headers["Content-Type"] == JSON_TYPE
        assert response_headers["Connection"] == "close"
        assert "error" in json.loads(body)
        assert time.monotonic() - started < 2.0  # answered, not waited out
        assert server.admission.in_flight == 0
        self._then_a_correct_read(client, graph)

    def test_get_with_a_body_closes_the_connection(self, keepalive):
        server, graph, client = keepalive
        status, headers, _body = _exchange(
            client, "GET", "/reach?source=0&target=5", body=b"surprise"
        )
        assert status == 200 and headers["Connection"] == "close"
        self._then_a_correct_read(client, graph)

    def test_a_body_that_was_read_keeps_the_connection(self, keepalive):
        server, graph, client = keepalive
        before = _accepted()
        for body in (b"{not json", b'{"pairs": 3}', self.PAIRS):
            status, headers, _body = _exchange(client, "POST", "/reach/batch", body=body)
            assert status == (200 if body is self.PAIRS else 400)
            assert headers["Connection"] is None
        self._then_a_correct_read(client, graph)
        assert _accepted() - before == 1

    def test_expect_100_continue(self, keepalive):
        server, _graph, _client = keepalive
        sock, stream = _raw(server)
        with sock, stream:
            sock.sendall(
                b"POST /reach/batch HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(self.PAIRS)
            )
            assert stream.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert stream.readline() == b"\r\n"
            sock.sendall(self.PAIRS)
            head, body = _read_response(stream)
            assert head.startswith(b"HTTP/1.1 200 OK\r\n")
            assert json.loads(body)["count"] == 1


class TestProtocolErrorsAreJSON:
    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"PUT /reach HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}", 501),
            (b"complete garbage\x00 with words and more\r\n\r\n", 400),
            (b"GET / HTTP/1.x\r\n\r\n", 400),
            (b"GET / HTTP/2.0\r\n\r\n", 505),
            (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n", 414),
            (b"GET / HTTP/1.1\r\nX: " + b"a" * 70000 + b"\r\n\r\n", 431),
            (b"GET / HTTP/1.1\r\n" + b"X: y\r\n" * 120 + b"\r\n", 431),
            (b"GET / HTTP/1.1\r\nno colon here\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nHost: x\r\n folded: y\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nHost : x\r\n\r\n", 400),
            (
                b"POST /reach/batch HTTP/1.1\r\nContent-Length: 2\r\n"
                b"Content-Length: 3\r\n\r\n{}",
                400,
            ),
        ],
    )
    def test_refusal_is_json_and_closes(self, keepalive, request_bytes, status):
        server, _graph, _client = keepalive
        sock, stream = _raw(server)
        with sock, stream:
            sock.sendall(request_bytes)
            head, body = _read_response(stream)
            assert head.startswith(b"HTTP/1.1 %d " % status)
            assert b"\r\nContent-Type: application/json; charset=utf-8\r\n" in head
            assert b"\r\nConnection: close\r\n" in head
            assert isinstance(json.loads(body)["error"], str)
            sock.shutdown(socket.SHUT_WR)
            assert stream.read() == b""

    def test_duplicate_headers_that_agree_are_fine(self, keepalive):
        server, _graph, _client = keepalive
        sock, stream = _raw(server)
        with sock, stream:
            sock.sendall(
                b"POST /reach/batch HTTP/1.1\r\ncontent-length: 13\r\n"
                b'CONTENT-LENGTH:13\r\n\r\n{"pairs": []}'
            )
            head, body = _read_response(stream)
            assert head.startswith(b"HTTP/1.1 200 OK\r\n")
            assert json.loads(body)["count"] == 0


class TestDrainWithOpenConnections:
    def _server(self):
        graph = random_dag(30, 90, seed=705)
        server = serve(ReachabilityService(graph, index="PLL"), port=0)
        server.start_background()
        return server

    def test_idle_connection_does_not_hold_the_drain(self):
        server = self._server()
        sock, stream = _raw(server)
        with sock, stream:
            sock.sendall(b"GET /reach?source=0&target=5 HTTP/1.1\r\nHost: x\r\n\r\n")
            head, _body = _read_response(stream)
            assert b"Connection: close" not in head
            started = time.monotonic()
            assert server.drain(timeout_s=5.0) is True
            assert time.monotonic() - started < 2.0
            assert stream.read() == b""  # the survivor was hung up on

    def test_request_racing_the_drain_is_refused_and_closed(self):
        server = self._server()
        client = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
        try:
            assert _exchange(client, "GET", "/reach?source=0&target=5")[0] == 200
            server.admission.start_draining()
            status, headers, body = _exchange(client, "GET", "/reach?source=0&target=5")
            assert status == 503 and headers["Connection"] == "close"
            assert int(headers["Retry-After"]) >= 1
            assert "draining" in json.loads(body)["error"]
            # Ungated routes still answer, but no longer keep the connection.
            status, headers, _body = _exchange(client, "GET", "/healthz")
            assert status == 200 and headers["Connection"] == "close"
        finally:
            client.close()
            assert server.drain(timeout_s=5.0) is True


class _StdlibRendering(BaseHTTPRequestHandler):
    """``send_response``/``send_header``/``end_headers`` as the handler
    used them before it built its own head: the reference for byte identity."""

    protocol_version = "HTTP/1.1"
    request_version = "HTTP/1.1"
    requestline = ""

    def __init__(self) -> None:  # no socket: only the header buffer is used
        self.wfile = io.BytesIO()

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass

    def render(self, status, body, content_type, extra_headers=()) -> bytes:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        return self.wfile.getvalue()


class TestResponseBytes:
    def _same_but_for_the_date(self, head: bytes, body: bytes, expected: bytes):
        date = re.search(rb"\r\nDate: ([^\r]+)\r\n", head)[1]
        expected = re.sub(rb"(?<=\r\nDate: )[^\r]+", date, expected, count=1)
        assert head + body == expected

    def test_head_and_body_match_the_stdlib_rendering(self, keepalive):
        server, _graph, _client = keepalive
        sock, stream = _raw(server)
        with sock, stream:

            def get(path: str) -> tuple[bytes, bytes]:
                sock.sendall(b"GET %s HTTP/1.1\r\nHost: x\r\n\r\n" % path.encode())
                return _read_response(stream)

            head, body = get("/reach?source=0&target=5")
            payload = json.loads(body)
            assert list(payload) == ["reachable", "status", "epoch", "route", "shared"]
            assert body == json.dumps(payload).encode() + b"\n"
            self._same_but_for_the_date(
                head, body, _StdlibRendering().render(200, body, JSON_TYPE)
            )

            head, body = get("/reach?source=0")
            assert body == b'{"error": "missing parameter \'target\'"}\n'
            self._same_but_for_the_date(
                head, body, _StdlibRendering().render(400, body, JSON_TYPE)
            )

            held = _hold_every_slot(server.admission)
            try:
                head, body = get("/reach?source=0&target=5")
            finally:
                for slot in held:
                    slot.release()
            assert body == json.dumps(json.loads(body)).encode() + b"\n"
            self._same_but_for_the_date(
                head,
                body,
                _StdlibRendering().render(
                    503, body, JSON_TYPE, [("Retry-After", "1")]
                ),
            )

            head, body = get("/metrics")
            assert b"service_epoch 0\n" in body
            self._same_but_for_the_date(
                head,
                body,
                _StdlibRendering().render(200, body, "text/plain; charset=utf-8"),
            )

    def test_cached_head_is_never_torn(self, keepalive, fast_thread_switching):
        """Threads asking for different seconds: each must get the
        ``Date`` of the second it asked for.  A cache kept as two fields
        (second, then text) pairs one thread's second with the other's
        text and fails this."""
        server, _graph, _client = keepalive
        handler_class = server.RequestHandlerClass
        seconds = [1_700_000_000 + i for i in range(4)]
        expected = {}
        for second in seconds:
            reference = _StdlibRendering()
            expected[second] = (
                f"Server: {reference.version_string()}\r\n"
                f"Date: {reference.date_time_string(second)}\r\n"
            )
        torn: list[tuple[int, str]] = []

        def ask(offset: int) -> None:
            handler = handler_class.__new__(handler_class)
            handler.server = server
            for i in range(20_000):
                second = seconds[(i + offset) % len(seconds)]
                got = handler._server_date(second)
                if got != expected[second]:
                    torn.append((second, got))
                    return

        threads = [
            threading.Thread(target=ask, args=(k,), daemon=True) for k in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not torn
