"""Set-up and tear-down of the system under test.

One *stack* is what a deployment of this repo runs: a
``ReachabilityService`` and an ``AuthzStore`` over the same relation graph,
a write-ahead log under whichever of the two takes the writes, and the HTTP
server — here in a child process of its own.  Everything is built through
public constructors with their defaults, apart from the index family and
``WriteAheadLog(fsync="batch")``, which the workloads state.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

from repro.authz import AuthzStore
from repro.service import ReachabilityService
from repro.wal import WriteAheadLog

import httpclient
from scenarios import NAMESPACE, STORE_FAMILY, Inputs, Scenario

HERE = Path(__file__).resolve().parent
CHILD_START_TIMEOUT_S = 60.0


class ServerChild:
    """The HTTP server process, serving the same dataset as the parent."""

    def __init__(self, scenario: Scenario, is_smoke: bool) -> None:
        command = [sys.executable, str(HERE / "serve_child.py"), "--workload", scenario.name]
        if is_smoke:
            command.append("--smoke")
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        self.port = 0

    def wait_ready(self) -> None:
        """Block until the child answers ``/healthz``."""
        line = self.process.stdout.readline()
        if not line.strip().isdigit():
            raise RuntimeError(f"server child did not report a port (got {line!r})")
        self.port = int(line)
        probe = httpclient.Connection(self.port)
        deadline = perf_counter() + CHILD_START_TIMEOUT_S
        while perf_counter() < deadline:
            status, _body, _size = probe.exchange(httpclient.get_request("/healthz"))
            if status == 200:
                probe.close()
                return
            sleep(0.01)
        raise RuntimeError("server child never answered /healthz")

    def peak_rss_mb(self) -> float:
        """The child's high-water resident set, from ``/proc``."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line for the server child")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Stack:
    """Service + store + WAL in this process, server in a child."""

    def __init__(self, scenario: Scenario, inputs: Inputs, workdir: Path, is_smoke: bool) -> None:
        self.scenario = scenario
        # Child first: it rebuilds graph and index on the second core while
        # this process builds its own.
        self.child = ServerChild(scenario, is_smoke)
        try:
            self.wal_dir = workdir / "wal"
            self.wal = WriteAheadLog(self.wal_dir, fsync="batch")
            self.wal.recover()
            self.service = ReachabilityService(inputs.graph, index=scenario.family)
            self.store = AuthzStore(STORE_FAMILY)
            if scenario.writer == "service":
                self.service.attach_wal(self.wal)
            else:
                # Before the initial load, so the log alone can rebuild the store.
                self.store.attach_wal(self.wal)
            self.zookie = self.store.write(NAMESPACE, writes=inputs.tuples)
            self.child.wait_ready()
        except BaseException:
            self.child.stop()
            raise

    def close(self) -> None:
        self.child.stop()
        self.wal.close()
