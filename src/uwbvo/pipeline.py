"""Self-corrective fusion of a VO stream with filtered UWB data.

Control flow per UWB tick: the UWB stream is filtered independently
(restarting at each stop arrival) and compared with the nearest VO sample,
shifted by the cumulative correction vector ``w``. When the two estimates
agree within ``beta`` the corrected VO is trusted and emitted. When they
diverge, the VO is suspected of having lost its references: the output
follows the filtered UWB, and within the activation radius of the expected
stop the stream clusterer estimates the stopping point. If the estimate
disagrees with the closest corrected-VO vertex by at least ``beta``, their
difference is added to ``w`` (once, applying to everything after) and a
sensor reboot is requested.

A replay run takes the filtered UWB from its caller, which filters it once
for this method and the pozyx-ctra baseline (see :mod:`uwbvo.baselines`);
a live run filters its own.

Stop visits are scheduled from the flight plan: flight plans are known in
advance in this setting, so arrival and departure times need no feedback
from the estimates themselves. The initial dwell at the first stop seeds
the filter and is not a correction opportunity; every later arrival is.

Trust and ``w`` change only at UWB ticks, so the loop visits the ticks
alone and emits every VO sample afterwards as columns, each with the mode
and ``w`` in force at its time. Replay runs (recorded logs) record reboot
requests but cannot re-anchor the sensor; live runs against a
:class:`~uwbvo.simulate.VoSensor` do both: the loop reads the sensor's own
position array, has the sensor fill it as far as each tick needs, and
reboots it from a sample index on, which rewrites the array from there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .clustering import ClusterParams, StopClusterer, StopEstimate, region_gate
from .core import VO, FlightPlan, Position2D, Stream, StreamPair, euclidean, nearest_indices
from .ekf import CtraParams, checked, run_filter
from .simulate import StopWindow, VoSensor, build_truth

VO_SELECTED = "vo"
KALMAN_SELECTED = "kalman"
# indexed by "KALMAN mode?": the two constants, shared by every FusedTrack.modes entry
_MODE_NAMES = np.array([VO_SELECTED, KALMAN_SELECTED], dtype=object)


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
        if not (math.isfinite(self.beta_mm) and self.beta_mm > 0):
            raise ValueError("beta_mm must be finite and positive")


def stop_visits(plan: FlightPlan) -> Sequence[StopWindow]:
    """Every stop visit after the initial dwell, in flight order.

    Each is a correction opportunity, and its arrival (``t0_ms``) restarts
    every CTRA filter, the baselines' included; the initial dwell seeds them.
    """
    return build_truth(plan).stop_windows[1:]


def corrected_vo(x_o: Position2D, w: Position2D) -> Position2D:
    """Apply the cumulative correction vector to a raw VO output."""
    return x_o + w


def _mode(dx: float, dy: float, beta_mm: float) -> str:
    """Distrust the VO once the mutual error ``|y_o - y_u|`` reaches ``beta``
    (inclusive), given the coordinate differences ``y_o - y_u``."""
    return KALMAN_SELECTED if math.hypot(dx, dy) >= beta_mm else VO_SELECTED


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

    samples: Stream
    modes: list[str]
    stop_events: list[StopDecision]
    restarts: list[tuple[int, int]]  # (t_ms, stop_index)
    w_history: list[tuple[int, float, float]]  # (t_ms, wx, wy) after changes
    discarded_detectors: int = 0

    @property
    def corrections(self) -> int:
        return sum(1 for e in self.stop_events if e.corrected)


def run_pipeline(
    pair: StreamPair, plan: FlightPlan, params: PipelineParams, filtered_uwb: Stream
) -> FusedTrack:
    """Replay-mode run over a recorded stream pair.

    ``filtered_uwb`` is ``pair.uwb`` through :func:`~uwbvo.ekf.run_filter`
    with ``params.ekf`` and the :func:`stop_visits` restarts: the track of
    the pozyx-ctra baseline, which filters it for both methods. Reboot
    requests are recorded but cannot reach the recorded sensor, so the
    correction vector stays cumulative across the run.
    """
    return _run(filtered_uwb, pair.vo.t_ms, pair.vo.xy, None, plan, params)


def run_pipeline_live(
    uwb: Stream,
    vo_sensor: VoSensor,
    plan: FlightPlan,
    params: PipelineParams,
) -> FusedTrack:
    """Live-mode run: correction restarts re-anchor the VO sensor.

    The sensor restarts at the corrected stop estimate, so its output needs
    no further correction: the vector re-zeroes at each reboot. The UWB
    stream is filtered here, with the :func:`stop_visits` restarts.
    """
    restarts = [w.t0_ms for w in stop_visits(plan)]
    filtered = checked(run_filter([uwb], params.ekf, restart_times_ms=restarts)[0])
    return _run(filtered, vo_sensor.ts, vo_sensor.xy, vo_sensor, plan, params)


def _run(
    filtered: Stream,
    vo_t: np.ndarray,
    vo_xy: np.ndarray,
    sensor: VoSensor | None,
    plan: FlightPlan,
    params: PipelineParams,
) -> FusedTrack:
    """The fusion loop, over the ticks of the filtered UWB; the VO samples
    are emitted as columns.

    Each VO sample is emitted after every UWB tick at or before its time
    (UWB first on a tie), with the mode and ``w`` in force after the last of
    those ticks. At tick ``k`` the first ``j = searchsorted(vo_t, t_k)`` VO
    samples have been emitted, sample ``j`` is the next one, and a live
    sensor reboots from sample ``j + 1`` on. A live ``sensor`` fills
    ``vo_xy``, its own array, as far as each tick needs.
    """
    gamma = params.cluster.gamma_mm
    beta = params.beta_mm
    plan.check_region_radius(gamma)
    visits = stop_visits(plan)

    n_vo = len(vo_t)
    if not n_vo:
        raise ValueError("empty stream: vo")
    uwb_t = filtered.t_ms
    uwb_ts = uwb_t.tolist()
    fx, fy = filtered.xy.T.tolist()
    # j at each tick, and at the end of the run (k == len(uwb_ts))
    emitted = np.searchsorted(vo_t, uwb_t).tolist() + [n_vo]
    near = nearest_indices(vo_t, uwb_t).tolist()  # nearest VO sample at each tick
    # w in force after tick k is row k + 1; row 0 holds before the first tick
    w_after = np.zeros((len(uwb_ts) + 1, 2))
    kalman_after = [False]  # the same for "mode is KALMAN"

    track = FusedTrack(Stream((), (), VO), [], [], [], [(0, 0.0, 0.0)])
    w = Position2D(0.0, 0.0)
    mode = VO_SELECTED
    window_start = 0  # the corrected VO since the previous visit starts here
    visit_ptr = 0
    detector: StopClusterer | None = None
    decided = False
    k = 0  # the tick being processed; len(uwb_ts) once the ticks are done

    def decide(est: StopEstimate, t_ms: int, stop_idx: int, fallback: int) -> None:
        """Decide one stop. ``fallback`` is the VO sample nearest ``t_ms``: the
        vertex compared with when no VO sample was emitted since the previous visit."""
        nonlocal w, decided
        j = emitted[k]
        if window_start < j:
            # the corrected VO since the previous visit: w changes only at a
            # decision, at most once per visit, so all of it was emitted under this w
            window = vo_xy[window_start:j] + (w.x, w.y)
            d2 = (window[:, 0] - est.pos.x) ** 2 + (window[:, 1] - est.pos.y) ** 2
            y_oi = Position2D(*window[int(np.argmin(d2))].tolist())
        else:
            y_oi = corrected_vo(Position2D(*vo_xy[fallback].tolist()), w)
        dist = euclidean(est.pos, y_oi)
        new_w, restart = update_correction(est.pos, y_oi, w, beta)
        if restart:
            if sensor is None:
                w = new_w
            else:
                # the sensor restarts at the corrected estimate: its
                # subsequent output is already in the corrected frame
                sensor.reboot(est.pos, at=min(j + 1, n_vo))
                w = Position2D(0.0, 0.0)
            w_after[k + 1 :] = w.x, w.y
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
        nonlocal detector, decided, window_start
        j = emitted[k]
        if detector is not None and not decided:
            est = detector.finish()
            if est.support >= params.cluster.k1:
                # at the last emitted VO sample, or at 0 before the first
                decide(est, int(vo_t[j - 1]) if j else 0, stop_idx, max(j - 1, 0))
            elif mode == KALMAN_SELECTED:
                raise StopDetectionFailure(stop_idx, est.support)
            else:
                track.discarded_detectors += 1
        detector = None
        decided = False
        window_start = j

    for k, t in enumerate(uwb_ts):
        if sensor is not None:
            sensor.fill(min(emitted[k] + 1, n_vo))
        while visit_ptr < len(visits) and t > visits[visit_ptr].t1_ms:
            close_visit(visits[visit_ptr].stop_index)
            visit_ptr += 1
        ux, uy = fx[k], fy[k]
        vx, vy = vo_xy[near[k]].tolist()
        in_visit = (
            visit_ptr < len(visits)
            and visits[visit_ptr].t0_ms <= t <= visits[visit_ptr].t1_ms
        )
        if decided and in_visit:
            # this stop already reconciled the sensors; while still
            # dwelling here, renewed divergence can only be a UWB artifact
            mode = VO_SELECTED
        else:
            # the mode of corrected_vo(vo, w) against y_u, without Position2D values
            mode = _mode(vx + w.x - ux, vy + w.y - uy, beta)
        if in_visit and not decided:
            visit = visits[visit_ptr]
            stop = plan.stops[visit.stop_index]
            y_u = Position2D(ux, uy)
            gated = region_gate(y_u, stop, gamma)
            if detector is None and mode == KALMAN_SELECTED and gated:
                detector = StopClusterer(params.cluster, stop_index=visit.stop_index)
            if detector is not None and gated:
                est = detector.push(y_u)
                if est is not None:
                    decide(est, t, visit.stop_index, near[k])
                    # re-evaluate trust with the fresh correction in place
                    mode = _mode(vx + w.x - ux, vy + w.y - uy, beta)
        kalman_after.append(mode == KALMAN_SELECTED)

    k = len(uwb_ts)
    if sensor is not None:
        sensor.fill(n_vo)
    while visit_ptr < len(visits):
        close_visit(visits[visit_ptr].stop_index)
        visit_ptr += 1

    # each VO sample takes the mode and w in force after its governing tick
    gov = np.searchsorted(uwb_t, vo_t, side="right")
    out_xy = vo_xy + w_after[gov]
    in_kalman = np.array(kalman_after)[gov]
    out_xy[in_kalman] = filtered.xy[nearest_indices(uwb_t, vo_t[in_kalman])]
    track.samples = Stream(vo_t, out_xy, VO)
    track.modes = _MODE_NAMES[in_kalman.view(np.uint8)].tolist()
    return track
