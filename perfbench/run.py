#!/usr/bin/env python3
"""uwbvo benchmark: one workload per process, timed end to end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-batch --seed 0 --seconds 50 --trace 0

``--seed`` picks the workload's program seeds (``seed * K`` up to
``seed * K + K - 1`` for the workload's K); the program only sees the logs
and streams generated from them. The run generates one log set per program
seed (set-up), then runs whole rounds over all of them until ``--seconds``
of measuring would be exceeded (at least one round), generates every log
set once more (timed, into a directory of its own), then checks the last
round's outputs. ``eval_s`` is the mean round time: the host's speed drifts
over tens of seconds, and a mean over the whole measured time follows that
drift less than a median of a few rounds. The last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
each call into the package's layers is wrapped and the metrics are the
per-layer ones (spans also go to ``perfbench/traces/``). See README.md.
"""
from __future__ import annotations

import os

# one worker thread: pin numpy's BLAS pools before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# the keys of workloads.WORKLOADS, which cannot be imported before uwbvo is
WORKLOAD_NAMES = ("paper-batch", "long-dwell", "live-reboot")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package() -> float:
    """Import uwbvo from this checkout's ``src``; returns the import time."""
    if not (SRC / "uwbvo" / "__init__.py").is_file():
        raise SystemExit(f"error: no uwbvo package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import uwbvo

    import_s = time.perf_counter() - t0
    if Path(uwbvo.__file__).resolve().parent != SRC / "uwbvo":
        raise SystemExit(f"error: imported uwbvo from {uwbvo.__file__}, not {SRC}")
    return import_s


def time_setup(workload, seeds: list[int]) -> list[float]:
    times = []
    for seed in seeds:
        gc.collect()
        t0 = time.perf_counter()
        workload.setup_unit(seed)
        times.append(time.perf_counter() - t0)
    return times


def measure(args: argparse.Namespace, import_s: float, run_dir: Path) -> dict:
    # imported only now: they import numpy and uwbvo, whose import is timed
    from checks import CheckFailed
    from tracing import PER_LAYER_UNITS, Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    k = cls.seeds_per_run
    seeds = [args.seed * k + j for j in range(k)]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        workload = cls(run_dir, seeds)
        setup_times = time_setup(workload, seeds)

        round_times: list[float] = []
        attempted = failed = 0
        while True:
            if tracer:
                tracer.phase = "between"
            workload.before_round()
            gc.collect()
            if tracer:
                tracer.phase = "eval"
            t0 = time.perf_counter()
            a, f = workload.round()
            round_times.append(time.perf_counter() - t0)
            attempted, failed = attempted + a, failed + f
            if tracer:
                tracer.phase = "between"
            workload.after_round()
            spent = sum(round_times)
            if spent + spent / len(round_times) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # set up again at the other end of the run, into a directory of its
        # own: setup_s is the median over both passes, so that it samples the
        # host's drifting speed twice
        if tracer:
            tracer.phase = "setup"
        setup_times += time_setup(cls(run_dir / "again", seeds), seeds)
    finally:
        if tracer:
            tracer.restore()

    correct = True
    try:
        workload.check()
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
    stop_mm, rmse_mm = workload.accuracy()

    setup_s = import_s + statistics.median(setup_times)
    eval_s = statistics.fmean(round_times)
    print(
        f"{args.workload} seed {args.seed}: program seeds {seeds}; set-up "
        f"{[round(t, 3) for t in setup_times]} s + import {import_s:.3f} s; "
        f"{len(round_times)} rounds {[round(t, 3) for t in round_times]} s; "
        f"peak RSS {peak_rss_mb:.1f} MB; traced={args.trace}",
        file=sys.stderr,
    )
    if tracer:
        tracer.dump(HERE / "traces" / f"{args.workload}-s{args.seed}.json")
        values = tracer.layer_metrics(setup_units=len(setup_times), rounds=len(round_times))
        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "eval_s": {"value": eval_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "stop_error_mm": {"value": stop_mm, "unit": "mm"},
            "track_rmse_mm": {"value": rmse_mm, "unit": "mm"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_s = import_package()
    run_dir = HERE / "runs" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        result = measure(args, import_s, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
