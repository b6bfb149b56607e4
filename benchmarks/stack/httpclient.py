"""A minimal HTTP client and the closed- and open-loop load generators.

Raw sockets, pre-built request bytes and no parsing inside the timed region:
on this stack ``http.client`` costs as much as the service call being
measured.  A connection is kept open whenever the server allows it (an
HTTP/1.1 response without ``Connection: close``) and re-opened when the
server closes it, so the same client prices HTTP/1.0 today and keep-alive
the day the server speaks it; ``connects`` says which one was measured.

The generator is one process with at most two threads, one connection each.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass
from time import perf_counter, sleep

HOST = "127.0.0.1"


def get_request(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: {HOST}\r\n\r\n".encode()


def post_request(path: str, body: bytes) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {HOST}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


@dataclass
class Response:
    """One completed exchange; ``status`` 0 means a transport failure."""

    status: int
    body: bytes
    #: Seconds from the start of the exchange — in an open loop, from the
    #: *intended* send time — to the last response byte.
    latency: float
    #: Open loop only: how long after its intended time the request was sent.
    late: float = 0.0
    size: int = 0
    #: Clock reading when the last response byte arrived.
    done: float = 0.0


class Connection:
    """One client connection, reused while the server keeps it open."""

    def __init__(self, port: int, timeout: float = 10.0) -> None:
        self._port = port
        self._timeout = timeout
        self._sock: socket.socket | None = None
        self.connects = 0

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((HOST, self._port), timeout=self._timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.connects += 1
        self._sock = sock
        return sock

    def exchange(self, request: bytes) -> tuple[int, bytes, int]:
        """Send one request; returns (status, body, bytes received)."""
        reused = self._sock is not None
        try:
            return self._exchange(self._sock or self._connect(), request)
        except OSError:
            self.close()
            if not reused:
                return 0, b"", 0
        # A kept-alive connection the server had already closed: retry once
        # on a fresh one (the request never reached a handler).
        try:
            return self._exchange(self._connect(), request)
        except OSError:
            self.close()
            return 0, b"", 0

    def _exchange(self, sock: socket.socket, request: bytes) -> tuple[int, bytes, int]:
        sock.sendall(request)
        data = bytearray()
        while (head_end := data.find(b"\r\n\r\n")) < 0:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("closed before the response headers")
            data += chunk
        head = bytes(data[:head_end]).decode("latin-1")
        status_line, _, header_text = head.partition("\r\n")
        version, _, rest = status_line.partition(" ")
        status = int(rest[:3])
        length = 0
        keep = version == "HTTP/1.1"
        for line in header_text.split("\r\n"):
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection":
                keep = value.strip().lower() == "keep-alive"
        need = head_end + 4 + length
        while len(data) < need:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("closed before the response body")
            data += chunk
        if not keep:
            self.close()
        return status, bytes(data[head_end + 4 : need]), len(data)


def closed_loop(port: int, requests: list[bytes], connections: int) -> tuple[list[Response], int]:
    """Each connection sends its next request when the previous one completes.

    Request ``i`` goes to connection ``i % connections``.  Returns the
    responses in request order and the number of connects.
    """
    responses: list[Response | None] = [None] * len(requests)
    conns = [Connection(port) for _ in range(connections)]
    barrier = threading.Barrier(connections + 1)

    def worker(slot: int) -> None:
        conn = conns[slot]
        barrier.wait()
        for i in range(slot, len(requests), connections):
            start = perf_counter()
            status, body, size = conn.exchange(requests[i])
            done = perf_counter()
            responses[i] = Response(status, body, done - start, size=size, done=done)
        conn.close()

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(connections)]
    for thread in threads:
        thread.start()
    barrier.wait()
    for thread in threads:
        thread.join()
    return responses, sum(c.connects for c in conns)  # type: ignore[return-value]


def open_loop(port: int, requests: list[bytes], rate: float, connections: int = 2) -> tuple[list[Response], int]:
    """Send request ``i`` at ``i / rate`` seconds, whether or not earlier
    ones have completed; latency runs from that intended time, so a stall
    is charged to every request it delays.  Returns (responses, connects).
    """
    responses: list[Response | None] = [None] * len(requests)
    conns = [Connection(port) for _ in range(connections)]
    barrier = threading.Barrier(connections + 1)
    origin = [0.0]

    def worker(slot: int) -> None:
        conn = conns[slot]
        barrier.wait()
        for i in range(slot, len(requests), connections):
            due = origin[0] + i / rate
            wait = due - perf_counter()
            if wait > 0:
                sleep(wait)
            sent = perf_counter()
            status, body, size = conn.exchange(requests[i])
            responses[i] = Response(
                status, body, perf_counter() - due, late=sent - due, size=size
            )
        conn.close()

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(connections)]
    for thread in threads:
        thread.start()
    origin[0] = perf_counter() + 0.002
    barrier.wait()
    for thread in threads:
        thread.join()
    return responses, sum(c.connects for c in conns)  # type: ignore[return-value]
