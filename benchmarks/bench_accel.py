"""CLAIM-PERF-ACCEL — packed numpy kernels break the pure-Python ceiling.

Every numpy twin that ships has a row here showing it beats its Python
twin on the condition that dispatches to it (DESIGN.md §4); the halves
of the acceleration-layer claim, measured on uniform random DAGs:

* **Batch sweep race** — ``batch_reachable`` over the same CSR snapshot
  with the backend pinned to ``python`` (authoritative big-int kernels)
  and to ``numpy`` (packed ``uint64`` level-synchronous sweep).  The
  steady-state numpy sweep (level schedule already built, the state a
  long-lived service reaches after one batch) must be **≥3× faster** at
  10⁵ vertices and stay ahead at 10⁶.
* **Closure-row decode race** — TC's ``_bits_of`` over sampled rows of
  a materialised closure, byte-table walk (``python``) vs
  ``unpacked_indices`` (one ``np.unpackbits``); numpy must be no slower.

Run as a benchmark (``pytest benchmarks/bench_accel.py -s``) or
standalone (``python benchmarks/bench_accel.py [--tiny] [--json PATH]``);
both emit the measurements as ``BENCH_accel.json``.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import time

from repro import accel
from repro.bench.jsonout import add_json_argument, emit
from repro.bench.tables import format_seconds, render_table
from repro.graphs.generators import random_dag
from repro.kernels import batch_reachable, csr_of, descendant_bitsets
from repro.plain.transitive_closure import _bits_of

#: (vertices, edges) scales for the batch sweep race.
SWEEP_SCALES = ((100_000, 400_000), (1_000_000, 2_000_000))
BATCH_PAIRS = 2_000
DISTINCT_SOURCES = 256
WARM_ROUNDS = 3
MIN_SWEEP_SPEEDUP = 3.0

#: (vertices, edges) of the closure whose rows the decode race samples.
DECODE_SCALE = (20_000, 70_000)
DECODE_ROWS = 256


def _timed(thunk):
    start = time.perf_counter()
    value = thunk()
    return value, time.perf_counter() - start


def _measure_sweep(
    vertices: int, edges: int, batch_pairs: int, distinct_sources: int, seed: int
) -> dict:
    """One scale of the batch sweep race, backend pinned per leg."""
    graph = random_dag(vertices, edges, seed=seed)
    csr = csr_of(graph)
    rng = random.Random(seed + 1)
    sources = [rng.randrange(vertices) for _ in range(distinct_sources)]
    pairs = [
        (rng.choice(sources), rng.randrange(vertices)) for _ in range(batch_pairs)
    ]
    try:
        accel.set_backend("numpy")
        expected, numpy_cold = _timed(lambda: batch_reachable(csr, pairs))
        warm_runs = []
        for _ in range(WARM_ROUNDS):
            answers, elapsed = _timed(lambda: batch_reachable(csr, pairs))
            assert answers == expected
            warm_runs.append(elapsed)
        numpy_warm = statistics.median(warm_runs)
        accel.set_backend("python")
        python_answers, python_s = _timed(lambda: batch_reachable(csr, pairs))
        assert python_answers == expected  # differential check rides along
    finally:
        accel.set_backend("auto")
    return {
        "vertices": vertices,
        "edges": edges,
        "batch_pairs": batch_pairs,
        "distinct_sources": distinct_sources,
        "python_seconds": python_s,
        "numpy_cold_seconds": numpy_cold,
        "numpy_warm_seconds": numpy_warm,
        "speedup_cold": python_s / numpy_cold,
        "speedup_warm": python_s / numpy_warm,
    }


def _measure_decode(vertices: int, edges: int, rows: int, seed: int) -> dict:
    """The closure-row decode race: ``_bits_of`` with the backend pinned."""
    closure = descendant_bitsets(csr_of(random_dag(vertices, edges, seed=seed)))
    sample = random.Random(seed + 3).sample(closure, min(rows, vertices))
    try:
        accel.set_backend("python")
        expected, python_s = _timed(lambda: [_bits_of(row) for row in sample])
        accel.set_backend("numpy")
        decoded, numpy_s = _timed(lambda: [_bits_of(row) for row in sample])
        assert decoded == expected  # differential check rides along
    finally:
        accel.set_backend("auto")
    return {
        "vertices": vertices,
        "rows": len(sample),
        "members": sum(len(row) for row in expected),
        "python_seconds": python_s,
        "numpy_seconds": numpy_s,
        "speedup": python_s / numpy_s,
    }


def measure(
    sweep_scales: tuple[tuple[int, int], ...] = SWEEP_SCALES,
    batch_pairs: int = BATCH_PAIRS,
    distinct_sources: int = DISTINCT_SOURCES,
    seed: int = 0,
) -> dict:
    """Both measurements as one JSON-serialisable dict."""
    sweeps = [
        _measure_sweep(vertices, edges, batch_pairs, distinct_sources, seed)
        for vertices, edges in sweep_scales
    ]
    decode = _measure_decode(*DECODE_SCALE, DECODE_ROWS, seed)
    return {
        "accel": accel.describe(),
        "cpu_count": os.cpu_count(),
        "sweeps": sweeps,
        "decode": decode,
    }


def _render(results: dict) -> str:
    rows = []
    for sweep in results["sweeps"]:
        rows.append(
            (
                f"sweep |V|={sweep['vertices']:,}",
                format_seconds(sweep["python_seconds"]),
                format_seconds(sweep["numpy_warm_seconds"]),
                f"{sweep['speedup_warm']:.1f}x",
            )
        )
    decode = results["decode"]
    rows.append(
        (
            f"closure-row decode |V|={decode['vertices']:,}",
            format_seconds(decode["python_seconds"]),
            format_seconds(decode["numpy_seconds"]),
            f"{decode['speedup']:.1f}x",
        )
    )
    return render_table(
        ["configuration", "python", "numpy", "speedup"],
        rows,
        title=(
            f"CLAIM-PERF-ACCEL: backend={results['accel']['backend']}, "
            f"{results['cpu_count']} cores"
        ),
    )


def _assert_claims(results: dict) -> None:
    for sweep in results["sweeps"]:
        assert sweep["speedup_warm"] >= MIN_SWEEP_SPEEDUP, (
            f"numpy sweep at |V|={sweep['vertices']:,} is only "
            f"{sweep['speedup_warm']:.2f}x the python sweep, below the "
            f"claimed {MIN_SWEEP_SPEEDUP:.0f}x"
        )
    decode = results["decode"]
    assert decode["speedup"] >= 1.0, (
        f"unpacked_indices at |V|={decode['vertices']:,} is "
        f"{decode['speedup']:.2f}x the byte-table decode: the twin loses"
    )


def test_accel_speedups(benchmark, report):
    if not accel.available():  # pragma: no cover - numpy baked into CI
        import pytest

        pytest.skip("numpy not installed")
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(_render(results))
    emit("accel", results)
    _assert_claims(results)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="smoke-test parameters (small graphs, no speedup assertions)",
    )
    parser.add_argument("--seed", type=int, default=0)
    add_json_argument(parser, "accel")
    args = parser.parse_args(argv)
    if not accel.available():
        print("numpy not installed; nothing to accelerate")
        return 1
    if args.tiny:
        results = measure(
            sweep_scales=((2_000, 8_000),),
            batch_pairs=200,
            distinct_sources=64,
            seed=args.seed,
        )
    else:
        results = measure(seed=args.seed)
    print(_render(results))
    print(f"wrote {emit('accel', results, args.json)}")
    if not args.tiny:
        _assert_claims(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
