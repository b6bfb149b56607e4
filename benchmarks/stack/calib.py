"""Speed calibration and the sample book every pass writes into.

The sandbox's speed wanders: one fixed pure-Python loop took 55–153 ms
within a single 40 s run, and raw HTTP medians followed it.  So every pass
is bracketed by a fixed calibration loop (the *spin*), its time-like
statistics are scaled to a reference spin, and a pass whose two spins
disagree is dropped.  The reported value of a metric is the median over
rounds of the per-pass statistic; quartiles, sample counts and the
un-normalised median ride along.
"""

from __future__ import annotations

import json
import random
import socket
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

#: The spin this box does on a quiet moment, in ms.  A constant, not a
#: measurement: normalised numbers from two runs are comparable only because
#: both are scaled to the same reference.
REF_SPIN_MS = 11.0
#: Two spins around one pass may differ by this share of their mean before
#: the pass is discarded as "the box changed speed mid-pass".  Two spins with
#: *nothing* between them differ by more than 15% one time in twenty here,
#: so a tighter rule discards on the spin's own noise.
SPIN_TOLERANCE = 0.30


class Spin:
    """The calibration loop: fixed work shaped like the code under test.

    Method calls, list indexing, a two-pointer merge of sorted label lists
    and a dict probe over ~1 MB of fixed data (its own constant seed, never
    ``--seed``).  The arithmetic loop the sizing runs used
    (``x += i * i``) sees the box's clock but not its memory system: over
    twelve back-to-back runs it left a 1.5 µs PLL probe with an
    inter-quartile spread of 8.5% of the median, this loop 4.8% (raw: 12%).
    """

    VERTICES = 4_000
    PROBES = 8_000

    def __init__(self) -> None:
        rng = random.Random(20230045)
        n = self.VERTICES
        self._labels = [sorted(rng.sample(range(n), rng.randint(3, 12))) for _ in range(n)]
        self._table = {(i, (i * 7919) % n): i for i in range(n)}
        self._pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(self.PROBES)]

    def _probe(self, s: int, t: int) -> bool:
        a, b = self._labels[s], self._labels[t]
        i = j = 0
        while i < len(a) and j < len(b):
            x, y = a[i], b[j]
            if x == y:
                return True
            if x < y:
                i += 1
            else:
                j += 1
        return self._table.get((s, t)) is not None

    def __call__(self) -> float:
        """Run the loop once; returns its duration in ms."""
        probe = self._probe
        start = perf_counter()
        for s, t in self._pairs:
            probe(s, t)
        return (perf_counter() - start) * 1e3


#: A loopback round trip on a quiet moment, in µs (150 sampled: 200-470).
REF_LOOPBACK_US = 300.0
#: Beyond this many reference round trips the box is not running two
#: processes side by side (two CPU hogs on this 2-core box: 7x), and an HTTP
#: pass would measure the hypervisor, not the server.
LOOPBACK_STALL_FACTOR = 3.0
#: Seconds all the runs in one checkout may spend waiting such stalls out,
#: together, and one run alone.  Twice in three hours here ``GET /reach`` ran
#: 3x slow for 3-6 minutes while in-process numbers did not move; ridden out,
#: that costs about its own length, once.  The cap keeps a box that is
#: *always* this slow from stalling the pipeline: it pays the budget once and
#: is then measured as it is.
LOOPBACK_WAIT_BUDGET_S = 480.0
LOOPBACK_WAIT_PER_RUN_S = 120.0


class Loopback:
    """Round trips to the harness's own echo child, and the waiting rule."""

    def __init__(self, here: Path, budget_file: Path) -> None:
        self._child = subprocess.Popen(
            [sys.executable, str(here / "echo_child.py")], stdout=subprocess.PIPE, text=True
        )
        self._port = int(self._child.stdout.readline())
        self._budget_file = budget_file
        self.samples: list[float] = []
        self.waited_s = 0.0

    def close(self) -> None:
        self._child.terminate()
        self._child.wait()
        self._child.stdout.close()

    def round_trip_us(self) -> float:
        """Median of nine connect-send-receive-close exchanges."""
        times = []
        for _ in range(9):
            start = perf_counter()
            with socket.create_connection(("127.0.0.1", self._port), timeout=10) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(b"ping\n")
                sock.recv(16)
            times.append(perf_counter() - start)
        median = statistics.median(times) * 1e6
        self.samples.append(median)
        return median

    def wait_until_quiet(self) -> None:
        """Before an HTTP pass: sleep while the loopback is stalled, within
        this run's allowance and what is left of the checkout's budget."""
        while self.round_trip_us() > LOOPBACK_STALL_FACTOR * REF_LOOPBACK_US:
            try:
                spent = json.loads(self._budget_file.read_text())["waited_s"]
            except (OSError, ValueError, KeyError):
                spent = 0.0
            if spent >= LOOPBACK_WAIT_BUDGET_S or self.waited_s >= LOOPBACK_WAIT_PER_RUN_S:
                return
            sleep(1.0)
            self.waited_s += 1.0
            self._budget_file.write_text(json.dumps({"waited_s": spent + 1.0}))


# How a statistic responds to box speed: a time scales with the spin, a rate
# scales inversely, a count / ratio / size does not scale.
TIME, RATE, PLAIN = "time", "rate", "plain"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); degenerate for fewer than two values."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[rank]


class SampleBook:
    """Per-pass statistics, keyed by metric name, with their speed scale."""

    def __init__(self) -> None:
        self._samples: dict[str, list[tuple[float, float, bool]]] = {}
        self._kinds: dict[str, str] = {}
        self.spins: list[float] = []
        self.discarded_passes = 0
        self._spin = Spin()

    def measure(self, run_pass) -> None:
        """Run one pass between two spins and book what it returns.

        ``run_pass()`` returns ``{name: (kind, raw_value)}``.  A pass whose
        spins disagree is booked as not-ok: it is kept out of the medians
        (unless a metric has no ok sample at all) but never re-run, so the
        sequence of operations — and every counter — is the same on every
        run of the same seed.
        """
        before = self._spin()
        stats = run_pass()
        after = self._spin()
        self.spins += [before, after]
        mean = (before + after) / 2
        ok = abs(before - after) <= SPIN_TOLERANCE * mean
        if not ok:
            self.discarded_passes += 1
        for name, (kind, raw) in stats.items():
            self.add(name, kind, raw, scale=REF_SPIN_MS / mean, ok=ok)

    def add(self, name: str, kind: str, raw: float, scale: float = 1.0, ok: bool = True) -> None:
        self._kinds[name] = kind
        self._samples.setdefault(name, []).append((float(raw), scale, ok))

    def summaries(self) -> dict[str, dict[str, float]]:
        return {name: self.summary(name) for name in self._samples}

    def summary(self, name: str) -> dict[str, float]:
        """Median over passes of the normalised statistic, with its spread."""
        samples = self._samples[name]
        kept = [s for s in samples if s[2]] or samples
        kind = self._kinds[name]
        if kind == TIME:
            normalised = [raw * scale for raw, scale, _ in kept]
        elif kind == RATE:
            normalised = [raw / scale for raw, scale, _ in kept]
        else:
            normalised = [raw for raw, _, _ in kept]
        q1, median, q3 = quartiles(normalised)
        return {
            "value": median,
            "q1": q1,
            "q3": q3,
            "n": len(kept),
            "raw": statistics.median(raw for raw, _, _ in kept),
        }

    def calibration(self) -> dict[str, float]:
        q1, median, q3 = quartiles(self.spins)
        return {
            "calib.spin_ms": median,
            "calib.spin_iqr_frac": (q3 - q1) / median,
            "calib.discarded_passes": float(self.discarded_passes),
        }
