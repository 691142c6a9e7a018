#!/usr/bin/env python3
"""The repo benchmark: builds the workload driver from source, runs one
workload in a scratch directory of its own, and prints the result.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Workloads and metrics are listed in
BENCHMARK.json; what each one means is in perfbench/README.md.

The workload driver is built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Each run gets .bench_scratch/<run>/,
which is deleted when the run ends, also when it fails or is killed. The
traced run (--trace 1) writes its spans to .bench_out/ as a Chrome trace
that tools/trace_summary.py reads.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. A run whose metrics do not match BENCHMARK.json, or whose
build fails, exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run stops and counts as failed when free disk drops below this; a
# run's scratch directory peaks at about 0.5 GB.
DISK_FLOOR_BYTES = 1 << 30
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def configured_source(build_dir):
    """The source directory a CMake build tree was configured for."""
    try:
        with open(build_dir / "CMakeCache.txt") as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return Path(line.split("=", 1)[1].strip()).resolve()
    except OSError:
        pass
    return None


def build():
    if not (ROOT / "src" / "engine" / "engine.h").is_file():
        raise RuntimeError(f"program sources not found under {ROOT / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    # A build tree configured for another copy of the sources (a moved or
    # copied checkout) cannot be reused: CMake refuses it.
    if configured_source(build_dir) != HERE:
        shutil.rmtree(build_dir, ignore_errors=True)
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(2, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def remove_stale_scratch(parent):
    """Deletes scratch directories of runs whose process is gone."""
    if not parent.is_dir():
        return
    for d in parent.iterdir():
        pid = d.name.rsplit("-", 1)[-1]
        alive = False
        if pid.isdigit():
            try:
                os.kill(int(pid), 0)
                alive = True
            except OSError:
                pass
        if not alive:
            shutil.rmtree(d, ignore_errors=True)


def check_metrics(result, expected):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    got = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    if set(got) != set(want):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: "
                           f"missing {sorted(set(want) - set(got))}, "
                           f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        if got[name].get("unit") != unit:
            raise RuntimeError(f"{name}: unit {got[name].get('unit')!r}, "
                               f"expected {unit!r}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size: small graphs")
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise RuntimeError(f"unknown workload {args.workload!r}")
    binary = build()

    try:
        free = shutil.disk_usage(ROOT).free
    except OSError:
        free = None  # the file system does not say
    if free is not None and free < DISK_FLOOR_BYTES:
        raise RuntimeError(f"only {free >> 20} MiB of disk free")

    scratch_parent = ROOT / ".bench_scratch"
    remove_stale_scratch(scratch_parent)
    scratch = scratch_parent / (f"{args.workload}-{args.seed}-"
                                f"{os.urandom(4).hex()}-{os.getpid()}")
    scratch.mkdir(parents=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(out_dir / f"trace-{args.workload}-seed{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    # The program reads these; the benchmark fixes its own settings.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ITG_")}

    proc = None
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload driver exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("workload driver printed no result")
    result = json.loads(lines[-1])
    check_metrics(result, spec["per_layer" if args.trace else "end_to_end"])
    print(json.dumps(result))
    return 0


def on_signal(signum, _frame):
    # Turn SIGTERM/SIGHUP into an exception so the scratch directory is
    # removed and the workload driver is stopped on the way out.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGHUP, on_signal)
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        sys.exit(1)
