"""The benchmark's own server launcher (one child process per set-up).

``repro serve <edgelist>`` cannot stand in: an edge-list round trip
renumbers vertices by first appearance and drops isolated ones, so the
generator's ids would ask different questions.  This child rebuilds the
workload's graph itself, serves it on an ephemeral port with constructor
defaults, prints the port, and runs until it is terminated — in its own
process, so generator and server never share a GIL.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    from repro.service import ReachabilityService
    from repro.service.server import ServiceHTTPServer

    import scenarios

    scenario = scenarios.SCENARIOS[args.workload]
    if args.smoke:
        scenario = scenarios.smoke(scenario)
    graph, _tuples, _names = scenarios.dataset(scenario)
    service = ReachabilityService(graph, index=scenario.family)
    server = ServiceHTTPServer(("127.0.0.1", 0), service)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
