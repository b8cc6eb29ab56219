#!/usr/bin/env python3
"""Benchmark entry point: run one workload (or all three) in fresh processes.

    python3 perfbench/run.py --workload serve --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 3          # every workload, one after another

Run from the root of a source checkout; the package is imported from
``src/``. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.

Set-up time is measured from just before a worker process starts until its
first timed operation. An untraced run starts ``SETUP_RUNS - 1`` extra
workers that only set up and exit, and reports the median of all set-ups.
BLAS and OpenMP pools are limited to the CPUs this process may run on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-xsmall", "train-base", "serve")
SETUP_RUNS = 2
# beyond --seconds: both set-ups, the checks, and the fixed work (train, the
# request loop, three rounds) where it outlasts --seconds; about 15 s in all
# on the reference machine
DEADLINE_MARGIN_S = 135.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _worker_env() -> dict:
    env = dict(os.environ)
    cpus = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = env.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cpus):
            env[var] = str(cpus)
    return env


def _run_worker(args, extra: list[str], deadline: float) -> list[str]:
    """Start a worker and wait for it; returns its stdout lines."""
    t0 = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--t0", repr(t0), *extra]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=_worker_env(),
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"{args.workload}: worker did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload}: worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit(f"{args.workload}: worker printed no result")
    return lines


def run_workload(args) -> dict:
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            lines = _run_worker(args, ["--setup-only"], deadline)
            setups.append(json.loads(lines[-1])["setup_s"])
    lines = _run_worker(args, [], deadline)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, each in its own processes)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hashmixer" / "__init__.py").is_file():
        print(f"error: no hashmixer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is not None:
        print(json.dumps(run_workload(args)))
        return 0
    for workload in WORKLOADS:
        args.workload = workload
        print(json.dumps({"workload": workload, **run_workload(args)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
