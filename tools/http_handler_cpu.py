#!/usr/bin/env python3
"""Handler CPU per ``GET /reach``: the HTTP layer with the network taken out.

One handler object serves requests written into a ``socketpair`` from the
same thread, so there is no connect, accept, thread spawn, wake-up or
loopback in the number — only what ``handle_one_request`` executes: read
and parse the request, admission, the route, ``reach_ex``, render and
write the response.  ``reach_ex`` alone is timed beside it over the same
pairs, so the difference is what the HTTP layer adds in CPU.

Uses only what every checkout has (``ServiceHTTPServer`` and its
``RequestHandlerClass``), so the same file prices a parent commit::

    PYTHONPATH=/path/to/checkout/src python tools/http_handler_cpu.py

Graph and family are the stack ledger's ``probe_uniform`` (3k-vertex DAG,
PLL, uniform pairs far beyond the result cache).  Prints one line per run
and a final JSON line; the ledger (``benchmarks/stack/run.py``) remains
the judge of any end-to-end claim.
"""

from __future__ import annotations

import argparse
import json
import random
import socket
import statistics
import sys
from time import perf_counter

from repro.graphs.generators import random_dag
from repro.service import ReachabilityService
from repro.service.server import ServiceHTTPServer

VERTICES, EDGES, DATASET_SEED = 3000, 10500, 20230045


def _handler(server: ServiceHTTPServer, sock: socket.socket):
    """A set-up handler bound to ``sock`` that has not started its loop."""
    cls = server.RequestHandlerClass
    handler = cls.__new__(cls)
    handler.request = sock
    handler.client_address = ("socketpair", 0)
    handler.server = server
    handler.disable_nagle_algorithm = False  # TCP_NODELAY is not an AF_UNIX option
    handler.setup()
    return handler


def run(requests: int, seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    pairs = [
        (rng.randrange(VERTICES), rng.randrange(VERTICES)) for _ in range(requests)
    ]
    service = ReachabilityService(
        random_dag(VERTICES, EDGES, seed=DATASET_SEED), index="PLL"
    )
    server = ServiceHTTPServer(("127.0.0.1", 0), service)
    ours, theirs = socket.socketpair()
    try:
        handler = _handler(server, theirs)
        handler_us = []
        for source, target in pairs:
            ours.sendall(
                f"GET /reach?source={source}&target={target} HTTP/1.1\r\n"
                "Host: 127.0.0.1\r\n\r\n".encode()
            )
            start = perf_counter()
            handler.handle_one_request()
            handler_us.append((perf_counter() - start) * 1e6)
            head, _, body = ours.recv(65536).partition(b"\r\n\r\n")
            if b" 200 " not in head.split(b"\r\n", 1)[0] or not body.endswith(b"\n"):
                raise SystemExit(f"bad response: {head!r} {body!r}")
        handler.finish()
        reach_us = []
        for source, target in pairs:
            start = perf_counter()
            service.reach_ex(target, source)  # reversed: not the cached pairs
            reach_us.append((perf_counter() - start) * 1e6)
    finally:
        ours.close()
        theirs.close()
        server.server_close()
    return {
        "handler_us": statistics.median(handler_us),
        "reach_ex_us": statistics.median(reach_us),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--requests", type=int, default=20000)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    runs = [run(args.requests, args.seed + i) for i in range(args.runs)]
    for result in runs:
        print(
            f"handler {result['handler_us']:.1f} us/request "
            f"(reach_ex {result['reach_ex_us']:.1f})",
            file=sys.stderr,
        )
    print(json.dumps({"requests": args.requests, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
