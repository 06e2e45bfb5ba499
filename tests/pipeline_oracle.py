"""Per-sample reference for the self-corrective fusion loop the pipeline tests compare against.

``_run`` is the fusion loop from before it was driven by UWB ticks, copied
as it was but for one rule added since: a VO sample more than
``MAX_UWB_AGE_MS`` after the last UWB tick trusts the corrected VO. It
merges the two streams sample by sample, processes each UWB tick as it
comes (UWB first on a tie) and emits each VO sample with the mode and
correction vector then in force. In live mode it pulls every VO
sample through ``VoSensor.__next__``, and its detectors are the per-sample
clusterers of ``cluster_oracle``. ``uwbvo.pipeline`` loops over the stop
visits, with the UWB ticks, the VO samples and each visit's detector input
as columns, and must match it exactly: samples, modes, stop decisions,
restarts, correction vectors and sensor reboots. ``mode_select`` is the
trust rule on ``Position2D`` values, which the pipeline applies to columns
of coordinate differences.
"""
from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from cluster_oracle import StopClusterer, region_gate
from uwbvo.clustering import StopEstimate
from uwbvo.core import VO, FlightPlan, Position2D, Stream, StreamPair, euclidean
from uwbvo.ekf import checked, run_filter
from uwbvo.pipeline import (
    KALMAN_SELECTED,
    MAX_UWB_AGE_MS,
    VO_SELECTED,
    FusedTrack,
    PipelineParams,
    StopDecision,
    StopDetectionFailure,
    corrected_vo,
    update_correction,
)
from uwbvo.simulate import StopWindow, VoSensor, build_truth


def mode_select(y_o: Position2D, y_u: Position2D, beta_mm: float) -> str:
    """Distrust the VO once the mutual error reaches ``beta`` (inclusive)."""
    return KALMAN_SELECTED if euclidean(y_o, y_u) >= beta_mm else VO_SELECTED


def _closest(window: list[tuple[float, float]], target: Position2D) -> Position2D | None:
    """The vertex of ``window`` closest to ``target``; None for an empty window."""
    if not window:
        return None
    arr = np.asarray(window)
    d2 = (arr[:, 0] - target.x) ** 2 + (arr[:, 1] - target.y) ** 2
    return Position2D(*window[int(np.argmin(d2))])


def run_pipeline(
    pair: StreamPair, plan: FlightPlan, params: PipelineParams
) -> FusedTrack:
    """Replay-mode run over a recorded stream pair.

    Reboot requests are recorded but cannot reach the recorded sensor, so
    the correction vector stays cumulative across the run.
    """
    vo = pair.vo
    return _run(pair.uwb, zip(vo.t_ms.tolist(), *vo.xy.T.tolist()), None, plan, params)


def run_pipeline_live(
    uwb: Stream,
    vo_sensor: VoSensor,
    plan: FlightPlan,
    params: PipelineParams,
) -> FusedTrack:
    """Live-mode run: correction restarts re-anchor the VO sensor.

    The sensor restarts at the corrected stop estimate, so its output needs
    no further correction: the vector re-zeroes at each reboot.
    """
    vo_rows = ((s.t_ms, s.pos.x, s.pos.y) for s in vo_sensor)
    return _run(uwb, vo_rows, vo_sensor.reboot, plan, params)


def _run(
    uwb: Stream,
    vo_rows: Iterable[tuple[int, float, float]],
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

    filtered = checked(run_filter([uwb], params.ekf, restart_times_ms=restart_times)[0])
    uwb_ts, uwb_ts_arr = uwb.t_ms.tolist(), uwb.t_ms
    fx, fy = filtered.xy.T.tolist()

    # the output columns; track.samples is built from them at the end
    out_t: list[int] = []
    out_xy: list[tuple[float, float]] = []
    modes: list[bool] = []  # KALMAN mode?
    track = FusedTrack(Stream((), (), VO), np.zeros(0, bool), [], [(0, 0.0, 0.0)])
    w = Position2D(0.0, 0.0)
    mode = VO_SELECTED
    y_u_hold: Position2D | None = None
    t_hold = 0  # the time of the tick y_u_hold is from
    window: list[tuple[float, float]] = []  # corrected VO since the previous visit

    def aligned_filtered(t: int) -> int:
        # index of the y_u tick nearest the emission time (ties to the earlier)
        i = int(np.searchsorted(uwb_ts_arr, t))
        if i == 0:
            return 0
        if i == len(uwb_ts_arr):
            return i - 1
        if t - uwb_ts_arr[i - 1] <= uwb_ts_arr[i] - t:
            return i - 1
        return i

    visit_ptr = 0
    detector: StopClusterer | None = None
    decided = False

    vo_iter = iter(vo_rows)
    prev_vo = None
    next_vo = next(vo_iter, None)
    if next_vo is None:
        raise ValueError("empty stream: vo")

    def nearest_vo(t: int) -> Position2D:
        if prev_vo is None:
            row = next_vo
        elif next_vo is None:
            row = prev_vo
        else:
            row = prev_vo if t - prev_vo[0] <= next_vo[0] - t else next_vo
        return Position2D(row[1], row[2])

    def decide(est: StopEstimate, t_ms: int, stop_idx: int) -> None:
        nonlocal w, mode, decided
        y_oi = _closest(window, est.pos)
        if y_oi is None:
            y_oi = corrected_vo(nearest_vo(t_ms), w)
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
        track.stop_events.append(
            StopDecision(
                stop_index=stop_idx,
                t_ms=t_ms,
                planned=plan.stops[stop_idx],
                estimate=est,
                closest_vo=y_oi,
                distance_mm=dist,
                restart=restart,
            )
        )
        decided = True

    def close_visit(stop_idx: int) -> None:
        nonlocal detector, decided
        if detector is not None and not decided:
            est = detector.finish()
            if est.support >= params.cluster.k1:
                decide(est, out_t[-1] if out_t else 0, stop_idx)
            elif mode == KALMAN_SELECTED:
                raise StopDetectionFailure(stop_idx, est.support)
            else:
                track.discarded_detectors += 1
        detector = None
        decided = False
        window.clear()

    def process_tick(k: int) -> None:
        nonlocal mode, y_u_hold, t_hold, visit_ptr, detector
        t = uwb_ts[k]
        while visit_ptr < len(visits) and t > visits[visit_ptr].t1_ms:
            close_visit(visits[visit_ptr].stop_index)
            visit_ptr += 1
        y_u_hold, t_hold = Position2D(fx[k], fy[k]), t
        vo_pos = nearest_vo(t)
        y_o = corrected_vo(vo_pos, w)
        in_visit = (
            visit_ptr < len(visits)
            and visits[visit_ptr].t0_ms <= t <= visits[visit_ptr].t1_ms
        )
        if decided and in_visit:
            # this stop already reconciled the sensors; while still
            # dwelling here, renewed divergence can only be a UWB artifact
            mode = VO_SELECTED
        else:
            mode = mode_select(y_o, y_u_hold, beta)
        if not in_visit or decided:
            return
        visit = visits[visit_ptr]
        stop = plan.stops[visit.stop_index]
        gated = region_gate(y_u_hold, stop, gamma)
        if detector is None and mode == KALMAN_SELECTED and gated:
            detector = StopClusterer(params.cluster)
        if detector is not None and gated:
            est = detector.push(y_u_hold)
            if est is not None:
                decide(est, t, visit.stop_index)
                # re-evaluate trust with the fresh correction in place
                mode = mode_select(corrected_vo(vo_pos, w), y_u_hold, beta)

    k = 0
    n_uwb = len(uwb_ts)
    while next_vo is not None or k < n_uwb:
        if k < n_uwb and (next_vo is None or uwb_ts[k] <= next_vo[0]):
            process_tick(k)
            k += 1
            continue
        # corrected_vo on the raw columns: the same sums, no Position2D per row
        t, x, y = next_vo
        out = (x + w.x, y + w.y)
        window.append(out)
        # a KALMAN mode trusts the filtered UWB while its last tick is fresh
        kalman = mode == KALMAN_SELECTED and t - t_hold <= MAX_UWB_AGE_MS
        if kalman:
            i = aligned_filtered(t)
            out = (fx[i], fy[i])
        out_t.append(t)
        out_xy.append(out)
        modes.append(kalman)
        prev_vo = next_vo
        next_vo = next(vo_iter, None)

    while visit_ptr < len(visits):
        close_visit(visits[visit_ptr].stop_index)
        visit_ptr += 1
    track.samples = Stream(out_t, out_xy, VO)
    track.kalman = np.array(modes, dtype=bool)
    return track
