"""Accuracy metrics: per-stop positioning error and whole-trajectory RMSE.

Stop accuracy reads the track sample nearest to the midpoint of each dwell
window and measures its distance to the planned stop. When a stop is
visited twice (closed loops revisit the first stop), the last visit counts.
Reported spread is the population standard deviation: the stop set is
exhaustive, not sampled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .core import CoverageError, Position2D, Stream, nearest_indices
from .pipeline import FusedTrack
from .simulate import StopWindow


class TruthLike(Protocol):
    stop_windows: tuple[StopWindow, ...]

    def sample(self, ts_ms: np.ndarray) -> np.ndarray: ...
    def pose_at(self, t_ms: float) -> Position2D: ...


@dataclass(frozen=True)
class StopAccuracy:
    avg_mm: float
    std_mm: float


def _nearest_samples(ts: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per target, ``argmin(|ts - target|)`` over sorted ``ts``: the nearest
    sample, the earlier of two equidistant ones, and the first of a run of
    equal timestamps."""
    return np.searchsorted(ts, ts[nearest_indices(ts, targets)])


def stop_accuracy(track: Stream, truth: TruthLike) -> StopAccuracy:
    """Average and population-std of per-stop positioning error."""
    ts, xy = track.t_ms.astype(np.float64), track.xy
    if len(ts) == 0:
        raise CoverageError("empty track")
    last_window: dict[int, StopWindow] = {}
    for w in truth.stop_windows:
        last_window[w.stop_index] = w
    windows = [last_window[idx] for idx in sorted(last_window)]
    nearest = _nearest_samples(ts, np.array([w.midpoint_ms for w in windows])).tolist()
    errors: list[float] = []
    for w, j in zip(windows, nearest):
        if not (w.t0_ms <= ts[j] <= w.t1_ms):
            raise CoverageError(f"track does not cover stop {w.stop_index + 1} dwell window")
        planned = truth.pose_at(w.midpoint_ms)
        errors.append(math.hypot(xy[j, 0] - planned.x, xy[j, 1] - planned.y))
    values = np.array(errors)
    return StopAccuracy(avg_mm=float(values.mean()), std_mm=float(values.std()))


def trajectory_rmse(track: Stream, truth: TruthLike) -> float:
    """RMS Euclidean error of every track sample against the true pose."""
    if len(track) == 0:
        raise CoverageError("empty track")
    true_xy = truth.sample(track.t_ms)
    d = track.xy - true_xy
    # the one addition per row that np.sum(d ** 2, axis=1) makes, without its row reduction
    err_sq = d[:, 0] ** 2 + d[:, 1] ** 2
    return float(np.sqrt(err_sq.mean()))


@dataclass(frozen=True)
class RunReport:
    """One (method, seed) evaluation row."""

    method: str
    seed: int
    avg_stop_mm: float
    std_stop_mm: float
    rmse_mm: float
    restarts: int

    @staticmethod
    def build(method: str, seed: int, track: Stream | FusedTrack, truth: TruthLike) -> "RunReport":
        """Score a method's output stream, or a fused track and its restarts."""
        restarts = 0
        if isinstance(track, FusedTrack):
            track, restarts = track.samples, len(track.restarts)
        acc = stop_accuracy(track, truth)
        return RunReport(
            method=method,
            seed=seed,
            avg_stop_mm=acc.avg_mm,
            std_stop_mm=acc.std_mm,
            rmse_mm=trajectory_rmse(track, truth),
            restarts=restarts,
        )


REPORT_HEADER = (
    "method",
    "seed",
    "avg_stop_mm",
    "std_stop_mm",
    "rmse_mm",
    "restarts",
    "corrections",
)


def report_row(report: RunReport) -> list[str]:
    return [
        report.method,
        str(report.seed),
        f"{report.avg_stop_mm:.3f}",
        f"{report.std_stop_mm:.3f}",
        f"{report.rmse_mm:.3f}",
        str(report.restarts),
        str(report.restarts),  # corrections: every correction requests a restart
    ]


@dataclass(frozen=True)
class MethodSummary:
    method: str
    seeds: int
    avg_stop_mm: float
    avg_stop_ci_mm: float
    std_stop_mm: float
    rmse_mm: float
    rmse_ci_mm: float
    restarts_mean: float


def _ci95(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(1.96 * values.std(ddof=1) / math.sqrt(len(values)))


def compare(reports: Sequence[RunReport]) -> list[MethodSummary]:
    """Aggregate per-method means with 95% normal-approximation CIs."""
    if not reports:
        raise ValueError("no reports to compare")
    methods: dict[str, list[RunReport]] = {}
    for r in reports:
        methods.setdefault(r.method, []).append(r)
    out = []
    for method in sorted(methods):
        rows = methods[method]
        avg = np.array([r.avg_stop_mm for r in rows])
        std = np.array([r.std_stop_mm for r in rows])
        rmse = np.array([r.rmse_mm for r in rows])
        out.append(
            MethodSummary(
                method=method,
                seeds=len(rows),
                avg_stop_mm=float(avg.mean()),
                avg_stop_ci_mm=_ci95(avg),
                std_stop_mm=float(std.mean()),
                rmse_mm=float(rmse.mean()),
                rmse_ci_mm=_ci95(rmse),
                restarts_mean=float(np.mean([r.restarts for r in rows])),
            )
        )
    return out


COMPARE_HEADER = (
    "method",
    "seeds",
    "avg_stop_mm",
    "avg_stop_ci_mm",
    "std_stop_mm",
    "rmse_mm",
    "rmse_ci_mm",
    "restarts_mean",
    "corrections_mean",
)


def compare_rows(summaries: Sequence[MethodSummary]) -> list[list[str]]:
    return [
        [
            s.method,
            str(s.seeds),
            f"{s.avg_stop_mm:.3f}",
            f"{s.avg_stop_ci_mm:.3f}",
            f"{s.std_stop_mm:.3f}",
            f"{s.rmse_mm:.3f}",
            f"{s.rmse_ci_mm:.3f}",
            f"{s.restarts_mean:.2f}",
            f"{s.restarts_mean:.2f}",  # corrections_mean
        ]
        for s in summaries
    ]


def render_table(summaries: Sequence[MethodSummary]) -> str:
    """Aligned text table of the comparison."""
    rows = [list(COMPARE_HEADER)] + compare_rows(summaries)
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
