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

from .core import Position2D, Sample
from .pipeline import FusedTrack
from .simulate import StopWindow


class CoverageError(ValueError):
    """The track lacks the samples a metric reads: a dwell window, or any at all."""


class TruthLike(Protocol):
    stop_windows: tuple[StopWindow, ...]

    def sample(self, ts_ms: np.ndarray) -> np.ndarray: ...
    def pose_at(self, t_ms: float) -> Position2D: ...


@dataclass(frozen=True)
class TruthTable:
    """Ground truth reloaded from a sampled CSV table.

    Poses are interpolated linearly between table rows; stop windows are
    recovered from runs of the ``stop_index`` column.
    """

    ts_ms: np.ndarray
    xy: np.ndarray
    stop_windows: tuple[StopWindow, ...]

    @staticmethod
    def from_rows(
        ts_ms: np.ndarray, xy: np.ndarray, stop_idx: np.ndarray
    ) -> "TruthTable":
        windows: list[StopWindow] = []
        start = None
        for i in range(len(ts_ms)):
            inside = stop_idx[i] >= 0
            if inside and start is None:
                start = i
            boundary = (not inside) or i == len(ts_ms) - 1
            if start is not None and boundary:
                end = i if inside else i - 1
                windows.append(
                    StopWindow(int(stop_idx[start]), float(ts_ms[start]), float(ts_ms[end]))
                )
                start = None
        return TruthTable(ts_ms, xy, tuple(windows))

    def sample(self, ts_ms: np.ndarray) -> np.ndarray:
        t = np.asarray(ts_ms, dtype=np.float64)
        x = np.interp(t, self.ts_ms, self.xy[:, 0])
        y = np.interp(t, self.ts_ms, self.xy[:, 1])
        return np.stack([x, y], axis=1)

    def pose_at(self, t_ms: float) -> Position2D:
        xy = self.sample(np.array([t_ms]))[0]
        return Position2D(float(xy[0]), float(xy[1]))


def _track_arrays(track) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(track, FusedTrack):
        samples: Sequence[Sample] = track.samples
    else:
        samples = track
    ts = np.fromiter((s.t_ms for s in samples), dtype=np.float64, count=len(samples))
    xy = np.empty((len(samples), 2))
    for i, s in enumerate(samples):
        xy[i, 0] = s.pos.x
        xy[i, 1] = s.pos.y
    return ts, xy


@dataclass(frozen=True)
class StopAccuracy:
    avg_mm: float
    std_mm: float
    per_stop: tuple[tuple[int, float], ...]  # (stop_index, error_mm)


def stop_accuracy(track, truth: TruthLike) -> StopAccuracy:
    """Average and population-std of per-stop positioning error."""
    ts, xy = _track_arrays(track)
    if len(ts) == 0:
        raise CoverageError("empty track")
    last_window: dict[int, StopWindow] = {}
    for w in truth.stop_windows:
        last_window[w.stop_index] = w
    errors: list[tuple[int, float]] = []
    for idx in sorted(last_window):
        w = last_window[idx]
        mid = w.midpoint_ms
        j = int(np.argmin(np.abs(ts - mid)))
        if not (w.t0_ms <= ts[j] <= w.t1_ms):
            raise CoverageError(f"track does not cover stop {idx + 1} dwell window")
        planned = truth.pose_at(mid)
        err = math.hypot(xy[j, 0] - planned.x, xy[j, 1] - planned.y)
        errors.append((idx, err))
    values = np.array([e for _, e in errors])
    return StopAccuracy(
        avg_mm=float(values.mean()),
        std_mm=float(values.std()),
        per_stop=tuple(errors),
    )


def trajectory_rmse(track, truth: TruthLike, segments_only: bool = False) -> float:
    """RMS Euclidean error of every track sample against the true pose.

    ``segments_only`` drops samples inside dwell windows, leaving only the
    flight legs.
    """
    ts, xy = _track_arrays(track)
    if len(ts) == 0:
        raise CoverageError("empty track")
    if segments_only:
        keep = np.ones(len(ts), dtype=bool)
        for w in truth.stop_windows:
            keep &= ~((ts >= w.t0_ms) & (ts <= w.t1_ms))
        if not np.any(keep):
            raise CoverageError("no samples outside dwell windows")
        ts, xy = ts[keep], xy[keep]
    true_xy = truth.sample(ts)
    err_sq = np.sum((xy - true_xy) ** 2, axis=1)
    return float(np.sqrt(err_sq.mean()))


@dataclass(frozen=True)
class RunReport:
    """One (method, seed) evaluation row."""

    method: str
    seed: int
    per_stop_error: tuple[float, ...]
    avg_stop_mm: float
    std_stop_mm: float
    rmse_mm: float
    restarts: int
    corrections: int

    @staticmethod
    def build(
        method: str,
        seed: int,
        track,
        truth: TruthLike,
        segments_only: bool = False,
    ) -> "RunReport":
        acc = stop_accuracy(track, truth)
        rmse = trajectory_rmse(track, truth, segments_only=segments_only)
        restarts = len(track.restarts) if isinstance(track, FusedTrack) else 0
        corrections = track.corrections if isinstance(track, FusedTrack) else 0
        return RunReport(
            method=method,
            seed=seed,
            per_stop_error=tuple(err for _, err in acc.per_stop),
            avg_stop_mm=acc.avg_mm,
            std_stop_mm=acc.std_mm,
            rmse_mm=rmse,
            restarts=restarts,
            corrections=corrections,
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
        str(report.corrections),
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
    corrections_mean: float


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
                corrections_mean=float(np.mean([r.corrections for r in rows])),
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
            f"{s.corrections_mean:.2f}",
        ]
        for s in summaries
    ]


def render_table(summaries: Sequence[MethodSummary]) -> str:
    """Aligned text table of the comparison."""
    rows = [list(COMPARE_HEADER)] + compare_rows(summaries)
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
