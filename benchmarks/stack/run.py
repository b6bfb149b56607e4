"""The stack ledger: one seeded harness that prices every layer.

    python benchmarks/stack/run.py --seed S [--workload W] [--seconds N]
                                   [--rounds R] [--trace] [--smoke] [--selfcheck]

With ``--workload`` this process *is* the worker: it generates the inputs
from the seed, sets the stack up, measures for ``--seconds``, checks every
answer, and prints one JSON object as its last line —
``{"correct", "attempted", "failed", "metrics"}`` — holding every end-to-end
metric (``--trace 0``) or every per-layer metric (``--trace 1``).  Without
``--workload`` it runs each workload in a fresh worker process of its own.
See ``README.md`` beside this file for what the numbers mean.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.stderr.write(
        f"stack ledger: no system under test at {ROOT / 'src' / 'repro'} — "
        "run from a checkout of the repository\n"
    )
    sys.exit(2)

from repro import accel  # noqa: E402

import ledger  # noqa: E402
import passes  # noqa: E402
import scenarios  # noqa: E402
from calib import PLAIN, REF_SPIN_MS, TIME, Loopback, SampleBook  # noqa: E402
from stack import Stack  # noqa: E402

MIN_ROUNDS = 2
READ_CHAIN = ("plain.lookup", "core.query", "service.reach_ex", "server.get_reach")
WRITE_CHAINS = {
    "service": ("plain.patch", "service.write_nowal", "service.write_wal"),
    "authz": ("authz.compile", "authz.write_nowal", "authz.write_wal"),
}


def environment() -> dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "backend": accel.backend_name(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "ref_spin_ms": REF_SPIN_MS,
    }


# ---------------------------------------------------------------------------
# The worker: one workload, one mode
# ---------------------------------------------------------------------------


def worker(args: argparse.Namespace) -> int:
    scenario = scenarios.SCENARIOS[args.workload]
    if args.smoke:
        scenario = scenarios.smoke(scenario)
    traced = bool(args.trace)
    workdir = OUT / "tmp" / f"{scenario.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _measure(args, scenario, traced, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, scenario: scenarios.Scenario, traced: bool, workdir: Path) -> int:
    inputs = scenarios.make_inputs(scenario, args.seed)
    book = SampleBook()
    OUT.mkdir(exist_ok=True)
    loopback = Loopback(HERE, OUT / "loopback-waits.json")

    # Set-up, several times; the last stack is the one measured.
    stacks: list[Stack] = []

    def set_up() -> dict:
        if stacks:
            stacks.pop().close()
        start = perf_counter()
        stacks.append(
            Stack(scenario, inputs, workdir / f"setup-{len(book.spins)}", args.smoke)
        )
        return {"setup_s": (TIME, perf_counter() - start)}

    for _ in range(scenario.setups):
        book.measure(set_up)
    stack = stacks[0]
    try:
        run = passes.Run(scenario, inputs, stack, book, loopback, workdir, traced)
        # Everything alive now — 20k request objects, oracles, streams — is
        # the harness's.  Park it where the collector never looks, so a
        # full collection during a timed build or deepcopy scans the
        # program's garbage and not the benchmark's inputs.
        gc.collect()
        gc.freeze()
        if traced:
            passes.probe_layers(run)
        round_passes = passes.TRACED_PASSES if traced else passes.END_TO_END_PASSES
        max_rounds = min(args.rounds or scenarios.MAX_ROUNDS, scenarios.MAX_ROUNDS)
        window_start = perf_counter()
        rounds = 0
        round_s = 0.0
        first_rounds: dict[str, float] = {}
        before = passes.counters(run)
        while rounds < max_rounds:
            elapsed = perf_counter() - window_start
            if rounds >= MIN_ROUNDS and elapsed + round_s > args.seconds:
                break
            round_start = perf_counter()
            waited = loopback.waited_s
            for one_pass in round_passes:
                if one_pass in passes.HTTP_PASSES and not args.smoke:  # smoke workers overlap
                    loopback.wait_until_quiet()
                book.measure(lambda: one_pass(run))
            waited = loopback.waited_s - waited
            window_start += waited  # waiting is not measuring
            round_s = perf_counter() - round_start - waited
            rounds += 1
            if rounds == MIN_ROUNDS:
                after = passes.counters(run)
                first_rounds = {k: after[k] - before[k] for k in after}
        window_s = perf_counter() - window_start
        if traced:
            passes.ladder(run)
        durable = passes.durability(run)
        book.add("peak_rss_mb", PLAIN, passes.peak_rss_mb(run))
    finally:
        stack.close()
        loopback.close()

    summaries = book.summaries()
    values = {name: s["value"] for name, s in summaries.items()}
    if traced:
        values.update(_derived(run, values, first_rounds, durable, book))
        run.spans.write(OUT / f"trace-{scenario.name}.jsonl")
    values["fail_frac"] = run.failed / run.attempted
    table = ledger.PER_LAYER if traced else ledger.END_TO_END
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, *_ in table
    }
    detail = {
        "workload": scenario.name,
        "seed": args.seed,
        "mode": "trace" if traced else "end_to_end",
        "rounds": rounds,
        "window_s": window_s,
        "environment": environment(),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "samples": summaries,
        "first_rounds_counters": first_rounds,
    }
    suffix = "trace" if traced else "e2e"
    (OUT / f"{scenario.name}-{suffix}.json").write_text(json.dumps(detail, indent=1) + "\n")

    _print_table(scenario, detail, summaries)
    correct = run.failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


def _derived(run: passes.Run, v: dict, first: dict, durable: dict, book: SampleBook) -> dict:
    """Per-layer metrics that are differences, ratios or counter deltas."""
    scenario = run.scenario
    # Span and one-shot times are raw clock readings; scale them by the
    # run's median spin so they sit on the same axis as the pass medians.
    scale = REF_SPIN_MS / book.calibration()["calib.spin_ms"]
    out: dict[str, float] = dict(book.calibration())
    out["calib.loopback_us"] = statistics.median(run.loopback.samples or [0.0])
    out["calib.loopback_wait_s"] = run.loopback.waited_s
    out["service.reach_self_us"] = v["service.read_mean_us"] - v["probe_us"]
    out["service.over_probe_x"] = v["service.read_mean_us"] / v["probe_us"]
    out["server.http_self_us"] = v["server.closed_p50_us"] - v["svc_read_p50_us"]
    out["server.over_service_x"] = v["server.closed_p50_us"] / v["svc_read_p50_us"]
    out["server.batch_json_us"] = v["http_batch_pair_us"] - v["svc_batch_pair_us"]
    out["trace.spans"] = float(len(run.spans))

    reads = run.spans.self_times(READ_CHAIN)
    for key, span in zip(("lookup", "guided", "service", "http"), READ_CHAIN):
        out[f"trace.self_us.{key}"] = reads[span] * 1e6 * scale
    out["trace.outermost_us"] = reads["outermost"] * 1e6 * scale
    out["trace.self_sum_frac"] = sum(reads[s] for s in READ_CHAIN) / reads["outermost"]

    chain = WRITE_CHAINS[scenario.writer]
    if run.private_index is None and scenario.writer == "service":
        chain = chain[1:]  # static family: no index-maintenance boundary
    writes = run.spans.self_times(chain)
    if writes:
        inner, nowal, wal = ([0.0] + [writes[s] for s in chain])[-3:]
        out["trace.write_self_ms.index"] = inner * 1e3 * scale
        out["trace.write_self_ms.writer"] = nowal * 1e3 * scale
        out["trace.write_self_ms.wal"] = wal * 1e3 * scale
        if scenario.writer == "service":
            out["plain.patch_ms"] = inner * 1e3 * scale
        out["service.write_nowal_ms"] = (inner + nowal) * 1e3 * scale
        out["wal.over_nowal_x"] = writes["outermost"] / (inner + nowal)

    reads_seen = first["hits"] + first["misses"]
    flights = first["led"] + first["coalesced"]
    ops = sum(len(b) for b in run.inputs.write_batches[: first["wal_records"]])
    out["service.patches"] = first["patches"]
    out["service.rebuilds"] = first["rebuilds"]
    out["service.patch_audit_failed"] = first["audit_failed"]
    out["service.invalidated_entries"] = first["invalidated"]
    out["service.cache_hit_frac"] = first["hits"] / reads_seen if reads_seen else 0.0
    out["service.coalesced_frac"] = first["coalesced"] / flights if flights else 0.0
    out["wal.fsyncs"] = first["fsyncs"]
    out["wal.bytes_per_op"] = first["wal_bytes"] / ops if ops else 0.0
    for name, seconds in durable.items():
        out[name] = seconds * scale
    return out


def _print_table(scenario, detail: dict, summaries: dict) -> None:
    env = detail["environment"]
    print(
        f"== {scenario.name} [{detail['mode']}] seed={detail['seed']} "
        f"rounds={detail['rounds']} window={detail['window_s']:.1f}s  "
        f"backend={env['backend']} python={env['python']} nproc={env['nproc']} "
        f"git={str(env['git_sha'])[:12]}"
    )
    print(f"   {'metric':<30}{'value':>14} {'unit':<6}{'q1':>12}{'q3':>12}{'n':>4}{'raw':>14}")
    for name, metric in detail["metrics"].items():
        s = summaries.get(name)
        spread = f"{s['q1']:>12.4g}{s['q3']:>12.4g}{s['n']:>4}{s['raw']:>14.6g}" if s else ""
        print(f"   {name:<30}{metric['value']:>14.6g} {metric['unit']:<6}{spread}")
    print(
        f"   fail_frac = {detail['failed']}/{detail['attempted']} "
        f"= {detail['failed'] / detail['attempted']:.6f}"
    )
    if detail["mode"] == "trace":
        print(f"   spans -> {OUT / ('trace-' + scenario.name + '.jsonl')}")


# ---------------------------------------------------------------------------
# The front end: every workload, each in a fresh worker process
# ---------------------------------------------------------------------------


def _spawn(args: argparse.Namespace, workload: str, trace: int) -> subprocess.Popen:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.rounds:
        command += ["--rounds", str(args.rounds)]
    if args.smoke:
        command.append("--smoke")
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True)


def _collect(worker: subprocess.Popen, quiet: bool = False) -> dict:
    """Wait for a worker; print its table; return its result line."""
    stdout, _ = worker.communicate()
    lines = stdout.strip().splitlines()
    if not quiet:
        print("\n".join(lines[:-1]))
    if worker.returncode not in (0, 1) or not lines:
        raise SystemExit(f"worker {' '.join(worker.args[2:])} exited {worker.returncode}")
    return json.loads(lines[-1])


def run_all(args: argparse.Namespace) -> int:
    workloads = {}
    attempted = failed = 0
    for name in scenarios.SCENARIOS:
        if args.smoke and args.trace:
            # A wiring check, not a measurement: let the two workers overlap.
            both = [_spawn(args, name, 0), _spawn(args, name, 1)]
            entry = dict(zip(("end_to_end", "per_layer"), map(_collect, both)))
        else:
            entry = {"end_to_end": _collect(_spawn(args, name, 0))}
            if args.trace:
                entry["per_layer"] = _collect(_spawn(args, name, 1))
        if args.trace:
            _print_trace_overhead(name)
        for result in entry.values():
            attempted += result["attempted"]
            failed += result["failed"]
        workloads[name] = {mode: result["metrics"] for mode, result in entry.items()}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "workloads": workloads}
        )
    )
    return 0 if failed == 0 else 1


def _print_trace_overhead(workload: str) -> None:
    """End-to-end medians of the traced run beside the untraced run's."""
    plain = json.loads((OUT / f"{workload}-e2e.json").read_text())["samples"]
    traced = json.loads((OUT / f"{workload}-trace.json").read_text())["samples"]
    print(f"   tracing overhead on {workload} (traced run vs untraced run, same seed):")
    for name, unit, *_ in ledger.END_TO_END:
        if name in plain and name in traced and name != "setup_s":
            a, b = plain[name]["value"], traced[name]["value"]
            print(f"     {name:<24}{a:>12.5g} -> {b:>12.5g} {unit:<5} ({(b - a) / a:+.1%})")


def selfcheck(args: argparse.Namespace) -> int:
    """Every workload twice on one seed: end-to-end metrics must agree
    within their bounds, exact counts must agree exactly.

    One pair of runs on this box disagrees by more than 25% on some one of
    the 56 workload-metric cells about every other time, so a metric out
    of bounds is arbitrated by a third run: it fails only if that run
    agrees with neither of the first two.  (``--smoke`` checks the exact
    counts only; two-round timings are not measurements.)
    """
    problems = []
    for name in scenarios.SCENARIOS:
        plain = [_collect(_spawn(args, name, 0), quiet=True) for _ in range(2)]
        traced = [_collect(_spawn(args, name, 1), quiet=True) for _ in range(2)]

        def gap(metric: str, i: int, j: int) -> float:
            a, b = (plain[k]["metrics"][metric]["value"] for k in (i, j))
            return abs(a - b) / a

        bounds = {} if args.smoke else {m: bound for m, _u, _b, bound in ledger.END_TO_END}
        pairs = [(0, 1)]
        if any(gap(metric, 0, 1) > bound for metric, bound in bounds.items()):
            plain.append(_collect(_spawn(args, name, 0), quiet=True))
            pairs += [(0, 2), (1, 2)]
        for metric, bound in bounds.items():
            gaps = [gap(metric, i, j) for i, j in pairs]
            verdict = "ok" if gaps[0] <= bound else "ok (third run)" if min(gaps) <= bound else "FAIL"
            values = "".join(f"{result['metrics'][metric]['value']:>12.5g}" for result in plain)
            print(f"{name:<16}{metric:<28}{values}  {gaps[0]:6.1%} / {bound:.0%} {verdict}")
            if verdict == "FAIL":
                problems.append(f"{name}/{metric}: {min(gaps):.1%} > {bound:.0%}")
        for metric in ledger.EXACT_COUNTS:
            a, b = (result["metrics"][metric]["value"] for result in traced)
            verdict = "ok" if a == b else "FAIL"
            print(f"{name:<16}{metric:<28}{a:>12.6g}{b:>12.6g}  exact {verdict}")
            if a != b:
                problems.append(f"{name}/{metric}: {a!r} != {b!r}")
        for result in plain + traced:
            if not result["correct"]:
                problems.append(f"{name}: {result['failed']} failed operations")
    for problem in problems:
        print("selfcheck:", problem)
    print("selfcheck:", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=sorted(scenarios.SCENARIOS))
    parser.add_argument("--seconds", type=float, default=ledger.RUN_SECONDS,
                        help="length of the measurement window")
    parser.add_argument("--rounds", type=int, default=0,
                        help=f"stop after this many rounds (at most {scenarios.MAX_ROUNDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs, 2 rounds: a wiring check, not a measurement")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload twice and compare")
    args = parser.parse_args()
    if args.smoke:
        args.rounds = MIN_ROUNDS
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None:
        return run_all(args)
    return worker(args)


if __name__ == "__main__":
    sys.exit(main())
