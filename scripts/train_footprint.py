#!/usr/bin/env python3
"""Time, page faults and peak memory of one ``train()`` call per benchmark workload.

    python3 scripts/train_footprint.py                    # each workload once, seed 7
    python3 scripts/train_footprint.py --workload train-base --runs 3 --seed 31

Every call runs in a fresh Python process. That process first runs the set-up of
``perfbench/worker.py`` for its workload and seed, so the call sees the benchmark's
inputs, geometry and training schedule; then it times one ``train()`` call through the
worker's ``train_once`` and prints one JSON line:

- ``wall_s``, ``user_s``, ``system_s`` and ``minor_faults``: the call's own share;
- ``maxrss_setup_mb`` and ``maxrss_mb``: the process's ``ru_maxrss`` before and after it;
- ``train_examples_per_s``: examples times epochs over ``wall_s``.

The package is imported from the ``src/`` beside ``perfbench/``, as the benchmark
imports it, and BLAS and OpenMP thread pools are limited as ``perfbench/run.py`` limits
them. With ``--runs N`` the workloads take turns, one call each, N times over.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402  (perfbench's launcher: its workload names and worker environment)


def one_call(workload: str, seed: int) -> dict:
    """Set up ``workload`` as the benchmark worker does, then time one ``train()`` call."""
    import worker  # imports the package from the src/ beside perfbench/

    with tempfile.TemporaryDirectory() as tmp:
        if workload == "serve":
            ctx = worker.setup_serve(seed, Path(tmp))
        else:
            ctx = worker.setup_train(workload, seed, Path(tmp))
        spec = worker.TRAIN.get(workload, worker.SERVE)
        before = resource.getrusage(resource.RUSAGE_SELF)
        wall, _ = worker.train_once(worker.Ops(None), ctx, spec)
        after = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "workload": workload, "seed": seed,
        "wall_s": round(wall, 3),
        "user_s": round(after.ru_utime - before.ru_utime, 3),
        "system_s": round(after.ru_stime - before.ru_stime, 3),
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "maxrss_setup_mb": round(before.ru_maxrss / 1024.0, 1),
        "maxrss_mb": round(after.ru_maxrss / 1024.0, 1),
        "train_examples_per_s": round(len(ctx.train_examples) * spec["epochs"] / wall, 1),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=run.WORKLOADS, action="append",
                        help="a workload to measure; repeatable (default: all three)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--runs", type=int, default=1, help="calls per workload")
    parser.add_argument("--one-call", choices=run.WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one_call:
        print(json.dumps(one_call(args.one_call, args.seed)), flush=True)
        return 0
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    for _ in range(args.runs):
        for workload in args.workload or run.WORKLOADS:
            subprocess.run([sys.executable, __file__, "--one-call", workload,
                            "--seed", str(args.seed)], env=run._worker_env(), check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
