"""Self-corrective fusion of a VO stream with filtered UWB data.

Control flow per matched sample pair: the UWB stream is filtered
independently (restarting at each stop arrival); the VO stream is shifted by
the cumulative correction vector ``w``. When the two estimates agree within
``beta`` the corrected VO is trusted and emitted. When they diverge, the VO
is suspected of having lost its references: the output follows the filtered
UWB, and within the activation radius of the expected stop the stream
clusterer estimates the stopping point. If the estimate disagrees with the
closest corrected-VO vertex by at least ``beta``, their difference is added
to ``w`` (once, applying to everything after) and a sensor reboot is
requested.

Stop visits are scheduled from the flight plan: flight plans are known in
advance in this setting, so arrival and departure times need no feedback
from the estimates themselves. The initial dwell at the first stop seeds
the filter and is not a correction opportunity; every later arrival is.

Replay runs (recorded logs) record reboot requests but cannot re-anchor the
sensor; live runs against a :class:`~uwbvo.simulate.VoSensor` do both.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .clustering import ClusterParams, StopClusterer, StopEstimate, region_gate
from .core import (
    VO,
    FlightPlan,
    Position2D,
    Sample,
    StreamPair,
    euclidean,
)
from .ekf import CtraParams, run_filter
from .simulate import StopWindow, VoSensor, build_truth

VO_SELECTED = "vo"
KALMAN_SELECTED = "kalman"


class StopDetectionFailure(RuntimeError):
    """A needed stopping point could not be clustered."""

    def __init__(self, stop_index: int, support: int) -> None:
        super().__init__(
            f"stop detection failed at stop {stop_index + 1}: "
            f"cluster support {support} below threshold"
        )
        self.stop_index = stop_index
        self.support = support


@dataclass(frozen=True)
class PipelineParams:
    beta_mm: float = 30.0
    cluster: ClusterParams = field(default_factory=ClusterParams)
    ekf: CtraParams = field(default_factory=CtraParams)

    def __post_init__(self) -> None:
        if self.beta_mm <= 0:
            raise ValueError("beta_mm must be positive")


def corrected_vo(x_o: Position2D, w: Position2D) -> Position2D:
    """Apply the cumulative correction vector to a raw VO output."""
    return x_o + w


def mode_select(y_o: Position2D, y_u: Position2D, beta_mm: float) -> str:
    """Distrust the VO once the mutual error reaches ``beta`` (inclusive)."""
    return KALMAN_SELECTED if euclidean(y_o, y_u) >= beta_mm else VO_SELECTED


def update_correction(
    s_prime: Position2D, y_oi: Position2D, w: Position2D, beta_mm: float
) -> tuple[Position2D, bool]:
    """Fold a stop-estimate discrepancy into ``w`` if it reaches ``beta``.

    ``y_oi`` must be the corrected-VO vertex closest to the estimate over
    the current segment. Returns the new vector and whether a sensor
    restart is due.
    """
    if euclidean(s_prime, y_oi) >= beta_mm:
        return w + (s_prime - y_oi), True
    return w, False


@dataclass(frozen=True)
class StopDecision:
    """Outcome of one stop visit's clustering decision."""

    stop_index: int
    t_ms: int
    planned: Position2D
    estimate: StopEstimate
    closest_vo: Position2D
    distance_mm: float
    corrected: bool
    restart: bool


@dataclass
class FusedTrack:
    """Final fused output plus every event the run produced."""

    samples: list[Sample]
    modes: list[str]
    stop_events: list[StopDecision]
    restarts: list[tuple[int, int]]  # (t_ms, stop_index)
    w_history: list[tuple[int, float, float]]  # (t_ms, wx, wy) after changes
    discarded_detectors: int = 0

    @property
    def corrections(self) -> int:
        return sum(1 for e in self.stop_events if e.corrected)


class _VoWindow:
    """Corrected VO vertices since the previous stop visit."""

    def __init__(self) -> None:
        self.ts: list[int] = []
        self.xy: list[tuple[float, float]] = []

    def add(self, t_ms: int, pos: Position2D) -> None:
        self.ts.append(t_ms)
        self.xy.append((pos.x, pos.y))

    def clear(self) -> None:
        self.ts.clear()
        self.xy.clear()

    def closest_to(self, target: Position2D) -> Position2D | None:
        if not self.xy:
            return None
        arr = np.asarray(self.xy)
        d2 = (arr[:, 0] - target.x) ** 2 + (arr[:, 1] - target.y) ** 2
        j = int(np.argmin(d2))
        return Position2D(*self.xy[j])


def run_pipeline(
    pair: StreamPair, plan: FlightPlan, params: PipelineParams
) -> FusedTrack:
    """Replay-mode run over a recorded stream pair.

    Reboot requests are recorded but cannot reach the recorded sensor, so
    the correction vector stays cumulative across the run.
    """
    return _run(pair.uwb, iter(pair.vo), None, plan, params)


def run_pipeline_live(
    uwb_samples: Sequence[Sample],
    vo_sensor: VoSensor,
    plan: FlightPlan,
    params: PipelineParams,
) -> FusedTrack:
    """Live-mode run: correction restarts re-anchor the VO sensor.

    The sensor restarts at the corrected stop estimate, so its output needs
    no further correction: the vector re-zeroes at each reboot.
    """
    return _run(uwb_samples, iter(vo_sensor), vo_sensor.reboot, plan, params)


def _run(
    uwb_samples: Sequence[Sample],
    vo_iter: Iterator[Sample],
    reboot: Callable[[Position2D], None] | None,
    plan: FlightPlan,
    params: PipelineParams,
) -> FusedTrack:
    gamma = params.cluster.gamma_mm
    beta = params.beta_mm
    plan.check_region_radius(gamma)
    truth = build_truth(plan)
    visits: Sequence[StopWindow] = truth.stop_windows[1:]
    restart_times = [w.t0_ms for w in visits]

    filtered = run_filter(uwb_samples, params.ekf, restart_times_ms=restart_times)
    uwb_ts = [s.t_ms for s in uwb_samples]
    uwb_ts_arr = np.asarray(uwb_ts, dtype=np.int64)

    track = FusedTrack([], [], [], [], [(0, 0.0, 0.0)])
    w = Position2D(0.0, 0.0)
    mode = VO_SELECTED
    y_u_hold: Sample | None = None
    window = _VoWindow()

    def aligned_filtered(t: int) -> Position2D:
        # y_u at the tick nearest the emission time (ties to the earlier)
        i = int(np.searchsorted(uwb_ts_arr, t))
        if i == 0:
            return filtered[0].pos
        if i == len(uwb_ts_arr):
            return filtered[-1].pos
        if t - uwb_ts_arr[i - 1] <= uwb_ts_arr[i] - t:
            return filtered[i - 1].pos
        return filtered[i].pos

    visit_ptr = 0
    detector: StopClusterer | None = None
    decided = False

    prev_vo = None
    next_vo = next(vo_iter, None)
    if next_vo is None:
        raise ValueError("empty stream: vo")

    def nearest_vo(t: int) -> Sample:
        if prev_vo is None:
            return next_vo
        if next_vo is None:
            return prev_vo
        return prev_vo if t - prev_vo.t_ms <= next_vo.t_ms - t else next_vo

    def decide(est: StopEstimate, t_ms: int, stop_idx: int) -> None:
        nonlocal w, mode, decided
        y_oi = window.closest_to(est.pos)
        if y_oi is None:
            y_oi = corrected_vo(nearest_vo(t_ms).pos, w)
        dist = euclidean(est.pos, y_oi)
        new_w, restart = update_correction(est.pos, y_oi, w, beta)
        if restart:
            if reboot is None:
                w = new_w
            else:
                # the sensor restarts at the corrected estimate: its
                # subsequent output is already in the corrected frame
                reboot(est.pos)
                w = Position2D(0.0, 0.0)
            track.w_history.append((t_ms, w.x, w.y))
            track.restarts.append((t_ms, stop_idx))
        track.stop_events.append(
            StopDecision(
                stop_index=stop_idx,
                t_ms=t_ms,
                planned=plan.stops[stop_idx],
                estimate=est,
                closest_vo=y_oi,
                distance_mm=dist,
                corrected=restart,
                restart=restart,
            )
        )
        decided = True

    def close_visit(stop_idx: int) -> None:
        nonlocal detector, decided
        if detector is not None and not decided:
            est = detector.finish()
            if est.support >= params.cluster.k1:
                decide(est, track.samples[-1].t_ms if track.samples else 0, stop_idx)
            elif mode == KALMAN_SELECTED:
                raise StopDetectionFailure(stop_idx, est.support)
            else:
                track.discarded_detectors += 1
        detector = None
        decided = False
        window.clear()

    def process_tick(k: int) -> None:
        nonlocal mode, y_u_hold, visit_ptr, detector
        t = uwb_ts[k]
        while visit_ptr < len(visits) and t > visits[visit_ptr].t1_ms:
            close_visit(visits[visit_ptr].stop_index)
            visit_ptr += 1
        y_u_hold = filtered[k]
        vo_s = nearest_vo(t)
        y_o = corrected_vo(vo_s.pos, w)
        in_visit = (
            visit_ptr < len(visits)
            and visits[visit_ptr].t0_ms <= t <= visits[visit_ptr].t1_ms
        )
        if decided and in_visit:
            # this stop already reconciled the sensors; while still
            # dwelling here, renewed divergence can only be a UWB artifact
            mode = VO_SELECTED
        else:
            mode = mode_select(y_o, y_u_hold.pos, beta)
        if not in_visit or decided:
            return
        visit = visits[visit_ptr]
        stop = plan.stops[visit.stop_index]
        gated = region_gate(y_u_hold.pos, stop, gamma)
        if detector is None and mode == KALMAN_SELECTED and gated:
            detector = StopClusterer(params.cluster, stop_index=visit.stop_index)
        if detector is not None and gated:
            est = detector.push(y_u_hold.pos)
            if est is not None:
                decide(est, t, visit.stop_index)
                # re-evaluate trust with the fresh correction in place
                mode = mode_select(corrected_vo(vo_s.pos, w), y_u_hold.pos, beta)

    k = 0
    n_uwb = len(uwb_ts)
    while next_vo is not None or k < n_uwb:
        if k < n_uwb and (next_vo is None or uwb_ts[k] <= next_vo.t_ms):
            process_tick(k)
            k += 1
            continue
        yo = corrected_vo(next_vo.pos, w)
        window.add(next_vo.t_ms, yo)
        if mode == KALMAN_SELECTED and y_u_hold is not None:
            out_pos = aligned_filtered(next_vo.t_ms)
        else:
            out_pos = yo
        track.samples.append(Sample(next_vo.t_ms, out_pos, VO))
        track.modes.append(mode)
        prev_vo = next_vo
        next_vo = next(vo_iter, None)

    while visit_ptr < len(visits):
        close_visit(visits[visit_ptr].stop_index)
        visit_ptr += 1
    return track
