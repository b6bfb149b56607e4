"""The harness's loopback probe peer (a child process of its own).

A thread-per-connection TCP echo on an ephemeral port: accept, spawn a
thread, read one line, write it back, close — the transport mechanics of
``ThreadingHTTPServer`` under HTTP/1.0 with none of the program under test
in it.  A round trip to it is what the box charges, right now, for two
processes talking over loopback; ``calib.Loopback`` uses it to tell when the
box cannot run two processes side by side.
"""

from __future__ import annotations

import socketserver
import sys


class _Echo(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        self.wfile.write(self.rfile.readline())


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


def main() -> int:
    with _Server(("127.0.0.1", 0), _Echo) as server:
        print(server.server_address[1], flush=True)
        server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
