"""Wiring check for the stack ledger (not part of tier-1: ``testpaths = tests``).

    PYTHONPATH=src python -m pytest benchmarks/stack/test_smoke.py -q

Runs ``run.py --smoke --trace`` once and asserts that every workload and
every metric ``BENCHMARK.json`` names comes back with its unit, that nothing
failed its oracle check, and that the manifest is the one ``ledger.py`` writes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_smoke_reports_every_metric_of_every_workload():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "--seed", "3"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["workloads"]) == sorted(w["name"] for w in manifest["workloads"])
    for workload, modes in result["workloads"].items():
        for mode in ("end_to_end", "per_layer"):
            for spec in manifest[mode]:
                metric = modes[mode].get(spec["name"])
                assert metric is not None, f"{workload}: {spec['name']} missing"
                assert metric["unit"] == spec["unit"], f"{workload}: {spec['name']} unit"
                assert isinstance(metric["value"], float)
        assert modes["per_layer"]["fail_frac"]["value"] == 0.0
        for spec in manifest["end_to_end"]:
            assert modes["end_to_end"][spec["name"]]["value"] > 0.0, spec["name"]
        assert (HERE / "out" / f"trace-{workload}.jsonl").stat().st_size > 0


def test_manifest_is_what_the_ledger_writes():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import ledger
    finally:
        del sys.path[:2]
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == ledger.manifest()
