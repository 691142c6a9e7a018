#!/usr/bin/env python3
"""Quick self-test of the repo benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at self-test size (small graphs,
two seconds), untraced and traced, through perfbench/run.py. Asserts that
each run prints every metric BENCHMARK.json names with its unit, that no
batch failed, that every oracle check ran and passed, that the end-to-end
metrics are nonzero, and that the traced run's spans cover at least 90%
of the traced batches' timed wall time. Exits non-zero on the first
failure.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload, trace, result, spec):
    where = f"{workload} trace={trace}"
    metrics = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    for m in metrics:
        assert m["name"] in got, f"{where}: {m['name']} missing"
        assert got[m["name"]]["unit"] == m["unit"], f"{where}: {m['name']} unit"
    assert len(got) == len(metrics), f"{where}: unexpected metrics"
    assert result["correct"] is True, f"{where}: an oracle check failed"
    assert result["attempted"] >= 1, f"{where}: nothing attempted"
    assert result["failed"] == 0, f"{where}: {result['failed']} failed"
    if trace:
        assert got["oracle.checks"]["value"] >= 1, f"{where}: no oracle check"
        coverage = got["trace.coverage"]["value"]
        assert coverage >= 0.9, f"{where}: spans cover {coverage:.3f}"
    else:
        for m in metrics:
            assert got[m["name"]]["value"] > 0, f"{where}: {m['name']} is 0"


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check(w["name"], trace, run(w["name"], trace), spec)
            print(f"ok  {w['name']} trace={trace}", flush=True)
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, subprocess.SubprocessError) as e:
        print(f"perfbench self-test FAILED: {e}", file=sys.stderr)
        sys.exit(1)
