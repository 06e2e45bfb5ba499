"""Command-line front end: simulate, run, compare, calibrate.

Outputs are deterministic byte-for-byte for a fixed invocation: no
wall-clock timestamps are written, floats use fixed formats, and rows are
sorted. Exit codes: 0 success, 1 usage error, 2 experiment failure (failed
cells are recorded and the batch continues).

Typical flow::

    uwbvo simulate --scenario worst-case --seeds 10 --out runs/wc
    uwbvo run --logs runs/wc --method all --jobs 4
    uwbvo compare runs/wc
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .baselines import BaselineKind, filter_inputs, run_method
from .clustering import ClusterParams
from .config import ConfigError, load_config, resolve_scenario, save_config
from .core import (
    FlightPlan,
    LogFormatError,
    Stream,
    StreamPair,
    csv_blocks,
    csv_header,
    read_log,
    write_blocks,
    write_log,
)
from .ekf import FilterError
from .metrics import (
    COMPARE_HEADER,
    REPORT_HEADER,
    CoverageError,
    RunReport,
    compare,
    compare_rows,
    render_table,
    report_row,
    stop_accuracy,
)
from .pipeline import MODE_NAMES, VO_SELECTED, PipelineParams, StopDetectionFailure
from .simulate import ScenarioConfig, build_truth, sample_times, simulate_pair, synth_uwb

USAGE_ERROR = 1
EXPERIMENT_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _int_at_least(low: int):
    """An argparse ``type`` for integers of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _add_param_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta-mm", type=float, help="mutual-error threshold")
    p.add_argument("--gamma-mm", type=float, help="stop-region activation radius")
    p.add_argument("--alpha-mm", type=float, help="max intracluster distance")
    p.add_argument("--k1", type=int, help="cluster-suspicion neighbor count")
    p.add_argument("--k2", type=int, help="cluster-termination neighbor count")


def _apply_overrides(params: PipelineParams, plan: FlightPlan, args) -> PipelineParams:
    """The parameters with the command-line overrides applied.

    A bad value, or a gamma whose stop regions overlap on ``plan``, is a
    usage error.
    """
    cl = params.cluster
    try:
        cl = ClusterParams(
            alpha_mm=args.alpha_mm if args.alpha_mm is not None else cl.alpha_mm,
            k1=args.k1 if args.k1 is not None else cl.k1,
            k2=args.k2 if args.k2 is not None else cl.k2,
            gamma_mm=args.gamma_mm if args.gamma_mm is not None else cl.gamma_mm,
        )
        beta = args.beta_mm if args.beta_mm is not None else params.beta_mm
        params = replace(params, beta_mm=beta, cluster=cl)
    except ValueError as exc:
        raise ConfigError(f"bad parameter override: {exc}") from None
    try:
        plan.check_region_radius(cl.gamma_mm)
    except ValueError as exc:
        raise ConfigError(f"gamma_mm: {exc}") from None
    return params


def _seed_list(args) -> list[int]:
    if args.seed:
        return sorted(set(args.seed))
    return list(range(args.seeds))


def _stream_path(out: Path, seed: int) -> Path:
    return out / f"streams_{seed:04d}.csv"


def _truth_path(out: Path, seed: int) -> Path:
    return out / f"truth_{seed:04d}.csv"


def _meta_path(out: Path, seed: int) -> Path:
    return out / f"meta_{seed:04d}.json"


def _truth_csv_bytes(truth, rate_hz: float) -> bytes:
    """The truth CSV as bytes; it depends only on the plan, so one serves every seed."""
    ts = sample_times(rate_hz, truth.duration_ms)
    xy = np.round(truth.sample(ts), 1)
    stop_idx = np.full(len(ts), -1, dtype=np.int64)
    for w in truth.stop_windows:
        inside = (ts >= w.t0_ms) & (ts <= w.t1_ms)
        stop_idx[inside] = w.stop_index
    header = csv_header(("t_ms", "x_mm", "y_mm", "stop_index"))
    blocks = csv_blocks("%d,%.1f,%.1f,%d\r\n", ts, *xy.T, stop_idx)
    return b"".join([header, *blocks])


def cmd_simulate(args) -> int:
    scenario, params = resolve_scenario(args.scenario)
    params = _apply_overrides(params, scenario.plan, args)
    seeds = _seed_list(args)
    if not seeds:
        print("error: no seeds selected", file=sys.stderr)
        return USAGE_ERROR
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_config(scenario, params, out / "scenario.ini")
    truth = build_truth(scenario.plan)
    truth_csv = _truth_csv_bytes(truth, scenario.vo.rate_hz)
    for seed in seeds:
        pair, uwb_trace, vo_trace = simulate_pair(scenario, seed)
        write_log(pair, _stream_path(out, seed))
        _truth_path(out, seed).write_bytes(truth_csv)
        meta = {
            "schema_version": 1,
            "scenario": scenario.name,
            "seed": seed,
            "duration_ms": truth.duration_ms,
            "uwb_sigma_mm": scenario.uwb.sigma_mm,
            "vo_sigma_mm": scenario.vo.sigma_mm,
            "faulted_segments": [
                {"segment": f.segment_index, "scale": round(f.scale, 6)}
                for f in vo_trace.faults
            ],
            "rays": [
                {
                    "window": r.window_ordinal,
                    "stop_index": r.stop_index,
                    "t_onset_ms": r.t_onset_ms,
                    "direction_rad": round(r.direction_rad, 6),
                }
                for r in uwb_trace.rays
            ],
        }
        with open(_meta_path(out, seed), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"seed {seed:4d}: {len(pair.uwb)} uwb / {len(pair.vo)} vo samples, "
              f"{len(vo_trace.faults)} faulted segments, {len(uwb_trace.rays)} rays")
    print(f"wrote {len(seeds)} log sets to {out}")
    return 0


def _parse_methods(values: list[str]) -> list[BaselineKind]:
    """The methods named, each once, in the order first named."""
    if not values or "all" in values:
        return list(BaselineKind)
    out = []
    for v in values:
        try:
            kind = BaselineKind(v)
        except ValueError:
            valid = ", ".join(k.value for k in BaselineKind)
            raise ConfigError(f"unknown method {v!r} (choose from: {valid}, all)")
        if kind not in out:
            out.append(kind)
    return out


TRACK_HEADER = ("t_ms", "x_mm", "y_mm", "mode")
ERRORS_HEADER = ("t_ms", "error_mm")
STOPS_HEADER = (
    "stop_index",
    "decision_t_ms",
    "planned_x_mm",
    "planned_y_mm",
    "est_x_mm",
    "est_y_mm",
    "support",
    "consumed",
    "complete",
    "corrected",
    "restart",
)
FAILURES_HEADER = ("method", "seed", "error")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_rows(path: Path, header, row_format: str, *columns, words=()) -> None:
    """Write one ``row_format`` line per row of the columns, a block at a time."""
    write_blocks(path, header, csv_blocks(row_format, *columns, words=words))


def _score_and_write(
    method_value: str, seed: int, samples: Stream, track, truth, tracks_dir: Path
) -> RunReport:
    """Score one method's output and write its track, error and stop files."""
    report = RunReport.build(
        method_value, seed, track if track is not None else samples, truth
    )
    name = f"{method_value}_{seed:04d}.csv"
    # a fused track names each sample's mode; every other track is all VO
    if track is not None:
        mode_field, mode_codes = "%s", (track.kalman,)
    else:
        mode_field, mode_codes = VO_SELECTED, ()
    _write_rows(
        tracks_dir / f"track_{name}",
        TRACK_HEADER,
        f"%d,%.1f,%.1f,{mode_field}\r\n",
        samples.t_ms,
        *samples.xy.T,
        *mode_codes,
        words=MODE_NAMES,
    )
    # plot data: the error-vs-time curve, decimated to a plottable size; the
    # truth is sampled only at the rows kept
    stride = max(1, len(samples) // 2000)
    t_ms, xy = samples.t_ms[::stride], samples.xy[::stride]
    err = np.hypot(*(xy - truth.sample(t_ms)).T)
    _write_rows(tracks_dir / f"errors_{name}", ERRORS_HEADER, "%d,%.1f\r\n", t_ms, err)
    if track is not None:
        _write_csv(
            tracks_dir / f"stops_{name}",
            STOPS_HEADER,
            (
                [
                    e.stop_index,
                    e.t_ms,
                    f"{e.planned.x:.1f}",
                    f"{e.planned.y:.1f}",
                    f"{e.estimate.pos.x:.1f}",
                    f"{e.estimate.pos.y:.1f}",
                    e.estimate.support,
                    e.estimate.samples_consumed,
                    int(e.estimate.complete),
                    int(e.restart),  # the corrected column: a correction is a restart
                    int(e.restart),
                ]
                for e in track.stop_events
            ),
        )
    return report


# seeds filtered in one lockstep: a batch pays the lockstep's fixed cost
# per step once, and holds the logs and filtered streams of all its seeds
_SEEDS_PER_LOCKSTEP = 4


def _run_seeds(
    logs_dir: Path,
    plan: FlightPlan,
    params: PipelineParams,
    methods: list[BaselineKind],
    seeds: list[int],
) -> tuple[list[RunReport], list[tuple[str, int, str]]]:
    """Every selected method on a batch of seeds, each seed's log read once.

    A seed's methods share its read pair: the streams' arrays are
    read-only, so no method can change what the next one reads. The inputs
    of the filtered methods of every seed are filtered first, in one
    lockstep; then the seeds run one by one. Each method's files are
    written as soon as it finishes; only its report, or its failure text,
    is returned. A malformed or unreadable log fails every method of its
    seed; a method that fails (stop detection, filter divergence, or a
    track that misses a dwell window) leaves the other methods and seeds
    running, and an earlier run's files of a failed cell are deleted.
    """
    pairs: dict[int, StreamPair] = {}
    failures: list[tuple[str, int, str]] = []
    for seed in seeds:
        try:
            pairs[seed] = read_log(_stream_path(logs_dir, seed))
        except (LogFormatError, OSError) as exc:
            failures += [(kind.value, seed, str(exc)) for kind in methods]
    truth = build_truth(plan)
    tracks_dir = logs_dir / "tracks"
    reports: list[RunReport] = []
    filtered = filter_inputs(methods, list(pairs.values()), plan, params)
    for (seed, pair), seed_filtered in zip(pairs.items(), filtered):
        for kind in methods:
            try:
                samples, track = run_method(kind, pair, plan, params, seed_filtered)
                reports.append(
                    _score_and_write(kind.value, seed, samples, track, truth, tracks_dir)
                )
            except (StopDetectionFailure, FilterError, CoverageError) as exc:
                failures.append((kind.value, seed, str(exc)))
    for method_value, seed, _ in failures:
        for prefix in ("track", "errors", "stops"):
            (tracks_dir / f"{prefix}_{method_value}_{seed:04d}.csv").unlink(missing_ok=True)
    return reports, failures


def cmd_run(args) -> int:
    logs_dir = Path(args.logs)
    scenario_path = logs_dir / "scenario.ini"
    if not scenario_path.exists():
        print(f"error: no scenario.ini in {logs_dir}", file=sys.stderr)
        return USAGE_ERROR
    scenario, params = load_config(scenario_path)
    params = _apply_overrides(params, scenario.plan, args)
    methods = _parse_methods(args.method)
    seeds = _seed_list(args)
    if not seeds:
        print("error: no seeds selected", file=sys.stderr)
        return USAGE_ERROR
    missing = [s for s in seeds if not _stream_path(logs_dir, s).exists()]
    if missing:
        print(f"error: no logs for seeds {missing} in {logs_dir}", file=sys.stderr)
        return USAGE_ERROR

    (logs_dir / "tracks").mkdir(exist_ok=True)
    # a batch per worker while that keeps every worker busy
    size = min(_SEEDS_PER_LOCKSTEP, math.ceil(len(seeds) / args.jobs))
    batches = [seeds[i : i + size] for i in range(0, len(seeds), size)]
    task = partial(_run_seeds, logs_dir, scenario.plan, params, methods)
    # a pool starts all its workers at the first submit: no more than batches
    workers = min(args.jobs, len(batches))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_batch = list(pool.map(task, batches))
    else:
        per_batch = map(task, batches)
    reports: list[RunReport] = []
    failures: list[tuple[str, int, str]] = []
    for batch_reports, batch_failures in per_batch:
        reports += batch_reports
        failures += batch_failures
    reports.sort(key=lambda r: (r.method, r.seed))
    failures.sort()

    _write_csv(logs_dir / "reports.csv", REPORT_HEADER, map(report_row, reports))
    failures_path = logs_dir / "failures.csv"
    if failures:
        _write_csv(failures_path, FAILURES_HEADER, failures)
        for method_value, seed, text in failures:
            print(f"FAILED {method_value} seed {seed}: {text}", file=sys.stderr)
    else:
        failures_path.unlink(missing_ok=True)  # an earlier run's failures are stale
    print(f"wrote {len(reports)} reports to {logs_dir / 'reports.csv'}"
          + (f" ({len(failures)} failures)" if failures else ""))
    return EXPERIMENT_ERROR if failures else 0


def read_reports(path: Path) -> list[RunReport]:
    """The rows of a ``reports.csv``; a missing column or a bad row is a ConfigError,
    as is a row whose ``corrections`` differ from its ``restarts`` (each correction restarts),
    a non-finite metric, or a second row of one method and seed."""
    reports = []
    seen = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in REPORT_HEADER if c not in (reader.fieldnames or ())]
        if missing:
            raise ConfigError(f"{path}: missing column(s) {', '.join(missing)}")
        for row in reader:
            try:
                restarts = int(row["restarts"])
                if int(row["corrections"]) != restarts:
                    raise ValueError(f"{row['corrections']} corrections but {restarts} restarts")
                metrics = {c: float(row[c]) for c in ("avg_stop_mm", "std_stop_mm", "rmse_mm")}
                for column, value in metrics.items():
                    if not math.isfinite(value):
                        raise ValueError(f"non-finite {column} {row[column]!r}")
                key = (row["method"], int(row["seed"]))
                if key in seen:
                    raise ValueError(f"a second row for {key[0]} seed {key[1]}")
                seen.add(key)
                reports.append(RunReport(method=key[0], seed=key[1], restarts=restarts, **metrics))
            except (TypeError, ValueError) as exc:  # a short row reads as None
                raise ConfigError(f"{path}: line {reader.line_num}: {exc}") from None
    return reports


def cmd_compare(args) -> int:
    logs_dir = Path(args.dir)
    reports_path = logs_dir / "reports.csv"
    if not reports_path.exists():
        print(f"error: no reports.csv in {logs_dir}", file=sys.stderr)
        return USAGE_ERROR
    reports = read_reports(reports_path)
    if not reports:
        print(f"error: {reports_path} holds no report rows", file=sys.stderr)
        return USAGE_ERROR
    summaries = compare(reports)
    table = render_table(summaries)
    print(table)
    _write_csv(logs_dir / "compare.csv", COMPARE_HEADER, compare_rows(summaries))
    return 0


def raw_stop_accuracy(scenario: ScenarioConfig, sigma_mm: float, seeds: int) -> float:
    """Mean raw-UWB stop accuracy across seeds at a given noise level."""
    probe = replace(scenario, uwb=replace(scenario.uwb, sigma_mm=sigma_mm))
    truth = build_truth(probe.plan)
    values = []
    for seed in range(seeds):
        uwb = synth_uwb(truth, probe.uwb, seed).samples  # simulate_pair's UWB, without the VO
        values.append(stop_accuracy(uwb, truth).avg_mm)
    return float(np.mean(values))


def cmd_calibrate(args) -> int:
    if not (math.isfinite(args.target_mm) and args.target_mm > 0):
        print("error: --target-mm must be finite and positive", file=sys.stderr)
        return USAGE_ERROR
    if not (math.isfinite(args.tol_mm) and args.tol_mm >= 0):
        print("error: --tol-mm must be finite and nonnegative", file=sys.stderr)
        return USAGE_ERROR
    scenario, params = resolve_scenario(args.scenario)
    target = args.target_mm
    # a single noisy sample at the dwell midpoint has mean error
    # sigma * sqrt(pi/2); start there and refine by proportional scaling
    sigma = target / math.sqrt(math.pi / 2.0)
    measured = float("nan")
    for round_no in range(args.rounds):
        measured = raw_stop_accuracy(scenario, sigma, args.seeds)
        print(
            f"round {round_no + 1}: sigma_uwb {sigma:8.2f} mm -> "
            f"raw stop accuracy {measured:8.2f} mm (target {target})"
        )
        if abs(measured - target) <= args.tol_mm:
            break
        sigma *= target / measured
    scenario = replace(scenario, uwb=replace(scenario.uwb, sigma_mm=round(sigma, 2)))
    print(f"calibrated sigma_uwb = {scenario.uwb.sigma_mm} mm")
    if args.write_config:
        save_config(scenario, params, args.write_config)
        print(f"wrote {args.write_config}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="uwbvo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate stream-pair + truth logs")
    p_sim.add_argument("--scenario", default="default",
                       help="preset name or config file path")
    p_sim.add_argument("--seeds", type=_int_at_least(0), default=1, help="use seeds 0..N-1")
    p_sim.add_argument("--seed", type=_int_at_least(0), action="append", default=[],
                       help="explicit seed (repeatable; overrides --seeds)")
    p_sim.add_argument("--out", required=True, help="output directory")
    _add_param_overrides(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_run = sub.add_parser("run", help="evaluate methods over existing logs")
    p_run.add_argument("--logs", required=True, help="directory from simulate")
    p_run.add_argument("--method", action="append", default=[],
                       help="method name or 'all' (repeatable)")
    p_run.add_argument("--seeds", type=_int_at_least(0), default=1)
    p_run.add_argument("--seed", type=_int_at_least(0), action="append", default=[])
    p_run.add_argument("--jobs", type=_int_at_least(1), default=1,
                       help="worker processes, each running batches of up to "
                            f"{_SEEDS_PER_LOCKSTEP} seeds")
    _add_param_overrides(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="tabulate reports in a directory")
    p_cmp.add_argument("dir", help="directory holding reports.csv")
    p_cmp.set_defaults(func=cmd_compare)

    p_cal = sub.add_parser(
        "calibrate", help="pick sigma_uwb to hit a raw stop-accuracy target"
    )
    p_cal.add_argument("--scenario", default="default")
    p_cal.add_argument("--target-mm", type=float, default=131.9)
    p_cal.add_argument("--tol-mm", type=float, default=3.0)
    p_cal.add_argument("--seeds", type=_int_at_least(1), default=5)
    p_cal.add_argument("--rounds", type=_int_at_least(1), default=3)
    p_cal.add_argument("--write-config", help="write the calibrated scenario here")
    p_cal.set_defaults(func=cmd_calibrate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXPERIMENT_ERROR


if __name__ == "__main__":
    sys.exit(main())
