#!/usr/bin/env python3
"""Runs one workload of the Finesse end-to-end benchmark.

    python3 perfbench/run.py --workload bls_verify_hot --seed 1 --seconds 15 --trace 0

From the root of a checkout it builds the measured program from source
(cargo, offline, into $CARGO_TARGET_DIR, default .bench_build), then
runs it as separate processes:

1. `gen` derives every input from the seed and writes it to a file;
   the input digest is printed.
2. `setup` times a cold set-up, SETUP_SAMPLES - 1 times.
3. `run` sets up once more, cold, and measures: with --trace 0 the
   end-to-end metrics, with --trace 1 the per-layer table.

The last line printed is the JSON result. `setup_s` is the median of the
SETUP_SAMPLES cold set-ups (the measured process's included).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("bls_verify_hot", "bls_verify_cold", "kzg_prove_verify", "codesign_sweep")
SETUP_SAMPLES = 3
# A run must end within 180 s; the first build in a checkout within 900 s.
RUN_BUDGET_S = 175
BUILD_BUDGET_S = 850

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def step(cmd, deadline):
    """Runs one process to completion; returns (other lines, last-line JSON)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail(f"out of time before {' '.join(map(str, cmd[1:3]))}")
    try:
        proc = subprocess.run(
            [str(c) for c in cmd],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}: {' '.join(map(str, cmd))}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"no output: {' '.join(map(str, cmd))}")
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {lines[-1]!r}")


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_BUDGET_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        fail("build failed")
    return target_dir / "release" / "finesse-perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(target_dir)
    deadline = time.monotonic() + RUN_BUDGET_S
    work = target_dir / "perfbench-runs" / f"{args.workload}-seed{args.seed}"
    common = ["--workload", args.workload, "--dir", work]

    _, gen = step([binary, "gen", *common, "--seed", args.seed, "--seconds", args.seconds], deadline)
    print(f"workload {args.workload} seed {args.seed}: input_digest {gen['input_digest']} ({gen['ops']} ops)")

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(step([binary, "setup", *common], deadline)[1]["setup_s"])

    lines, result = step([binary, "run", *common, "--trace", args.trace], deadline)
    for line in lines:
        print(line)
    if not args.trace:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup["value"] = statistics.median(setups)
        print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
