"""CLAIM-S10-WAL — durability must not price out the write path.

A/B cost of the write-ahead log on :meth:`ReachabilityService.apply_updates`:
the same seeded update stream is applied through four arms — no WAL at
all, and a WAL attached under each fsync policy (``off``, ``batch``,
``always``).  Arms are interleaved per round and each round is judged
against its own no-WAL baseline, so slow machine drift hits every arm of
a round equally.  The portable contract is the ``batch`` policy (the
serving default): the time it *adds* to one ``apply_updates`` batch
(median over rounds) must stay under ``BATCH_ADDED_MAX_US``.  The
contract is absolute because the log's cost is — one framed append per
batch and one fsync per eight — while a percentage would be of whatever
the index family's copy-and-patch happens to cost; the ratio is reported
ungated.  ``always`` is reported but not gated — raw
fsync latency is a property of the disk, not of this code.

Run standalone (``python benchmarks/bench_wal.py [--tiny]``) or under
pytest (``pytest benchmarks/bench_wal.py -s``).  Emits
``BENCH_wal.json`` whose headline carries a ``{"value": ..., "max": ...}``
entry so ``tools/bench_compare.py`` enforces the ceiling.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

from repro.bench.jsonout import add_json_argument, emit
from repro.bench.tables import render_table
from repro.graphs.generators import random_dag
from repro.service import ReachabilityService
from repro.wal import WriteAheadLog
from repro.workloads.updates import update_stream

FULL = {"vertices": 1_500, "edges": 4_500, "ops": 400, "batch": 4, "rounds": 5}
# TINY is the CI-sized run.  The gated number is a difference of two round
# times spread over the round's batches, so what TINY must keep is a round
# long enough (30 batches, ~35 ms) that timer and scheduler noise stay well
# under the ceiling; the graph size does not enter the contract.
TINY = {"vertices": 1_000, "edges": 3_000, "ops": 180, "batch": 6, "rounds": 5}

# The absolute budget the earlier "10% of a no-WAL batch" ceiling granted on
# TINY when a batch cost 7.4 ms (135 batches/s); 100-200 us measured on the
# development container, the headroom is for slower CI disks.
BATCH_ADDED_MAX_US = 750.0

# Arm name -> fsync policy (None = no WAL attached at all).
ARMS: list[tuple[str, str | None]] = [
    ("baseline", None),
    ("off", "off"),
    ("batch", "batch"),
    ("always", "always"),
]


def _batches(graph, config: dict[str, int], seed: int) -> list[list]:
    """One seeded op stream, pre-split into apply_updates batches.

    ``keep_acyclic`` keeps every insert legal on the DAG-input DAGGER
    index, so the write path stays on the cheap patch branch and the
    measured difference is the log, not rebuild noise.
    """
    ops = update_stream(
        graph,
        num_ops=config["ops"],
        seed=seed,
        delete_fraction=0.3,
        keep_acyclic=True,
    )
    size = config["batch"]
    return [ops[i : i + size] for i in range(0, len(ops), size)]


def _run_arm(graph, batches: list[list], fsync: str | None) -> float:
    """Apply the full batch stream through one arm; returns wall seconds.

    Each run gets a fresh service over a fresh graph copy (epochs and
    edge state advance as batches apply) and, when a WAL is requested, a
    fresh log directory — recovery replay is not part of this claim.
    """
    service = ReachabilityService(
        graph.copy(), index="DAGGER", patch_audit_pairs=0
    )
    if fsync is None:
        start = time.perf_counter()
        for batch in batches:
            service.apply_updates(batch)
        return time.perf_counter() - start
    with tempfile.TemporaryDirectory(prefix="bench-wal-") as wal_dir:
        wal = WriteAheadLog(wal_dir, fsync=fsync)
        wal.recover()
        service.attach_wal(wal)
        try:
            start = time.perf_counter()
            for batch in batches:
                service.apply_updates(batch)
            return time.perf_counter() - start
        finally:
            service.attach_wal(None)
            wal.close()


def wal_rows(config: dict[str, int], seed: int = 47) -> dict[str, object]:
    """Interleaved A/B/C/D over the same stream; median per-round ratios."""
    graph = random_dag(config["vertices"], config["edges"], seed=seed)
    batches = _batches(graph, config, seed=seed + 1)

    # One untimed warmup pass per arm (page cache, allocator, imports).
    for _, fsync in ARMS:
        _run_arm(graph, batches[: max(1, len(batches) // 4)], fsync)

    seconds: dict[str, list[float]] = {name: [] for name, _ in ARMS}
    ratios: dict[str, list[float]] = {name: [] for name, _ in ARMS[1:]}
    added: dict[str, list[float]] = {name: [] for name, _ in ARMS[1:]}
    for _ in range(config["rounds"]):
        round_s = {}
        for name, fsync in ARMS:
            round_s[name] = _run_arm(graph, batches, fsync)
            seconds[name].append(round_s[name])
        for name, _ in ARMS[1:]:
            ratios[name].append(round_s[name] / round_s["baseline"])
            added[name].append(
                (round_s[name] - round_s["baseline"]) / len(batches) * 1e6
            )

    def median(values: list[float]) -> float:
        return sorted(values)[len(values) // 2]

    overhead_pct = {
        name: (median(ratios[name]) - 1.0) * 100.0 for name in ratios
    }
    added_us_per_batch = {name: median(added[name]) for name in added}
    throughput = {
        name: len(batches) / min(seconds[name]) for name, _ in ARMS
    }
    return {
        "graph": graph,
        "rounds": config["rounds"],
        "batches_per_round": len(batches),
        "ops_per_batch": config["batch"],
        "throughput_batches_per_s": throughput,
        "overhead_pct": overhead_pct,
        "added_us_per_batch": added_us_per_batch,
        "round_ratios": {
            name: [round(r, 4) for r in values]
            for name, values in ratios.items()
        },
    }


def render(rows: dict[str, object]) -> str:
    graph = rows["graph"]
    throughput = rows["throughput_batches_per_s"]
    overhead = rows["overhead_pct"]
    added = rows["added_us_per_batch"]
    table = [("no WAL (baseline)", f"{throughput['baseline']:,.0f}", "—", "—")]
    for name, _ in ARMS[1:]:
        table.append(
            (
                f"WAL fsync={name}",
                f"{throughput[name]:,.0f}",
                f"{added[name]:+,.0f}",
                f"{overhead[name]:+.2f}%",
            )
        )
    return render_table(
        [
            "arm",
            "batches/s (best round)",
            "added us/batch (median)",
            "overhead (median ratio)",
        ],
        table,
        title=(
            f"CLAIM-S10-WAL: |V|={graph.num_vertices:,} "
            f"|E|={graph.num_edges:,} DAG (DAGGER), "
            f"{rows['batches_per_round']:,} batches x "
            f"{rows['ops_per_batch']} ops x {rows['rounds']} rounds"
        ),
    )


def headline(rows: dict[str, object]) -> dict[str, object]:
    overhead = rows["overhead_pct"]
    throughput = rows["throughput_batches_per_s"]
    return {
        "wal_batch_added_us": {
            "value": round(float(rows["added_us_per_batch"]["batch"]), 1),
            "max": BATCH_ADDED_MAX_US,
        },
        # The ratios, fsync=off/always and raw throughput depend on the
        # index family's patch cost, the disk and the machine, so the keys
        # deliberately carry no judged suffix: bench_compare reports them
        # without gating.  The portable contract is the ``batch`` ceiling
        # above.
        "overhead_fsync_batch": round(float(overhead["batch"]), 3),
        "overhead_fsync_off": round(float(overhead["off"]), 3),
        "overhead_fsync_always": round(float(overhead["always"]), 3),
        "throughput_baseline": float(throughput["baseline"]),
        "throughput_fsync_batch": float(throughput["batch"]),
    }


def test_wal_write_overhead(benchmark, report):
    rows = benchmark.pedantic(lambda: wal_rows(TINY), rounds=1, iterations=1)
    report(render(rows))
    assert rows["added_us_per_batch"]["batch"] <= BATCH_ADDED_MAX_US, (
        f"WAL fsync=batch adds {rows['added_us_per_batch']['batch']:.0f} us "
        f"per batch > {BATCH_ADDED_MAX_US:.0f} us"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny", action="store_true", help="CI-sized run (smaller graph and log)"
    )
    add_json_argument(parser, "wal")
    args = parser.parse_args(argv)
    config = TINY if args.tiny else FULL

    rows = wal_rows(config)
    print(render(rows))

    head = headline(rows)
    results = {
        "headline": head,
        "wal": {key: value for key, value in rows.items() if key != "graph"},
        "config": dict(config),
    }
    path = emit("wal", results, args.json)
    print(f"\nwrote {path}")

    if rows["added_us_per_batch"]["batch"] > BATCH_ADDED_MAX_US:
        print(
            f"FAIL: WAL fsync=batch adds "
            f"{rows['added_us_per_batch']['batch']:.0f} us per batch "
            f"> {BATCH_ADDED_MAX_US:.0f} us",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
