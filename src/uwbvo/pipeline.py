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

Trust is re-chosen only at UWB ticks, and ``w`` and the VO frame change
only at a stop decision, at most once per visit. So the loop visits the
~16 stop visits, not the ticks: between two decisions the mode, the region
gate and the detector's input are columns over the ticks, one
:meth:`~uwbvo.clustering.StopClusterer.push` counts a visit's gated ticks
in blocks, and every VO sample is emitted afterwards as columns, each with
the mode and ``w`` in force at its time. Replay runs (recorded logs)
record reboot requests but cannot re-anchor the sensor; live runs against
a :class:`~uwbvo.simulate.VoSensor` do both: the loop reads the sensor's
own position array, has the sensor fill it as far as each visit's close
needs, and reboots it from a sample index on, which rewrites the array
from there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .clustering import ClusterParams, StopClusterer, StopEstimate
from .core import (
    VO,
    CoverageError,
    FlightPlan,
    Position2D,
    Stream,
    StreamPair,
    euclidean,
    nearest_indices,
)
from .ekf import CtraParams, checked, run_filter
from .simulate import StopWindow, VoSensor, build_truth

VO_SELECTED = "vo"
KALMAN_SELECTED = "kalman"
# indexed by "KALMAN mode?": the mode names a track's flags stand for
MODE_NAMES = (VO_SELECTED, KALMAN_SELECTED)
# the shortest age bound of the UWB evidence a VO sample may take (see
# uwb_age_bound_ms): a sample whose governing tick is older than the bound
# trusts the corrected VO, whatever that tick's mode. About four periods of
# the presets' 27 Hz unit, whose gaps are 37-38 ms
MAX_UWB_AGE_MS = 150


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


def uwb_age_bound_ms(uwb_t: np.ndarray) -> float:
    """The age bound of a filtered UWB stream with tick times ``uwb_t``:
    four of its median tick gaps, at least :data:`MAX_UWB_AGE_MS` (that
    constant alone under two ticks)."""
    if len(uwb_t) < 2:
        return MAX_UWB_AGE_MS
    return max(MAX_UWB_AGE_MS, 4 * float(np.median(np.diff(uwb_t))))


def _norms(d: np.ndarray, bound: float) -> np.ndarray:
    """The row norms of an ``(m, 2)`` array, as ``math.hypot`` gives them
    wherever they decide a comparison with ``bound``.

    ``np.hypot`` can differ from ``math.hypot`` in the last ulp, so the rows
    within a few ulps of ``bound`` are computed again with ``math.hypot``.
    """
    r = np.hypot(d[:, 0], d[:, 1])
    for i in np.flatnonzero(np.abs(r - bound) <= 8 * np.spacing(bound)).tolist():
        r[i] = math.hypot(*d[i].tolist())
    return r


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
    restart: bool  # the estimate was folded into w, and a sensor restart requested


@dataclass
class FusedTrack:
    """Final fused output plus every event the run produced."""

    samples: Stream
    kalman: np.ndarray  # bool per sample: the KALMAN mode selected it
    stop_events: list[StopDecision]
    w_history: list[tuple[int, float, float]]  # (t_ms, wx, wy) after changes
    discarded_detectors: int = 0

    @property
    def restarts(self) -> list[tuple[int, int]]:
        """``(t_ms, stop_index)`` of every decision that restarted the sensor."""
        return [(e.t_ms, e.stop_index) for e in self.stop_events if e.restart]


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
    """The fusion loop, over the stop visits; the UWB ticks and the VO
    samples are columns.

    A visit's ticks run from the first tick after the previous visit closed
    to the last tick at or before its own end, and the visit closes at the
    tick after that, or at the end of the run. Until a decision, ``w`` and
    the VO frame are fixed, so the mode at each of those ticks, the region
    gate and the detector's start (the first in-visit tick that is KALMAN
    and gated) are columns, and the detector counts every gated tick from
    its start on in one ``push``. After a decision, the visit's remaining
    ticks trust the VO.

    Each VO sample is emitted after every UWB tick at or before its time
    (UWB first on a tie), with the mode and ``w`` in force after the last of
    those ticks, its governing tick; a sample whose governing tick is more
    than :func:`uwb_age_bound_ms` older trusts the corrected VO. A filtered
    UWB stream with no tick in any stop visit raises
    :class:`~uwbvo.core.CoverageError`. At tick ``k`` the first
    ``j = searchsorted(vo_t, t_k)`` VO samples have been emitted, sample
    ``j`` is the next one, and a live sensor reboots from sample ``j + 1``
    on. A live ``sensor`` fills ``vo_xy``, its own array, as far as each
    visit's close needs; a reboot rewrites it from there.
    """
    gamma = params.cluster.gamma_mm
    beta = params.beta_mm
    plan.check_region_radius(gamma)
    visits = stop_visits(plan)

    n_vo = len(vo_t)
    if not n_vo:
        raise ValueError("empty stream: vo")
    uwb_t = filtered.t_ms
    u = filtered.xy
    n_uwb = len(uwb_t)
    # j at each tick, and at the end of the run (k == n_uwb)
    emitted = np.append(np.searchsorted(vo_t, uwb_t), n_vo)
    near = nearest_indices(vo_t, uwb_t)  # nearest VO sample at each tick
    # each visit's first tick, and the tick it closes at
    starts = np.searchsorted(uwb_t, [v.t0_ms for v in visits]).tolist()
    closes = np.searchsorted(uwb_t, [v.t1_ms for v in visits], side="right").tolist()
    if starts == closes:
        raise CoverageError("the filtered UWB reaches no stop visit")
    # w in force after tick k is row k + 1; row 0 holds before the first tick
    w_after = np.zeros((n_uwb + 1, 2))
    kalman_after = np.zeros(n_uwb + 1, dtype=bool)  # the same for "mode is KALMAN"

    track = FusedTrack(Stream((), (), VO), np.zeros(0, bool), [], [(0, 0.0, 0.0)])
    w = Position2D(0.0, 0.0)
    window_start = 0  # the corrected VO since the previous visit starts here

    def kalman(lo: int, hi: int) -> np.ndarray:
        """The mode at ticks ``[lo, hi)`` under the current ``w``: the mutual
        error ``|vo + w - y_u|`` reaches ``beta`` (inclusive)."""
        return _norms(vo_xy[near[lo:hi]] + (w.x, w.y) - u[lo:hi], beta) >= beta

    def decide(est: StopEstimate, k: int, t_ms: int, stop_idx: int, fallback: int) -> None:
        """Decide one stop at tick ``k``. ``fallback`` is the VO sample nearest
        ``t_ms``: the vertex compared with when no VO sample was emitted since
        the previous visit."""
        nonlocal w
        j = int(emitted[k])
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

    cursor = 0  # the first tick not yet processed, at most the next visit's start
    for visit, start, close in zip(visits, starts, closes):
        if sensor is not None:
            sensor.fill(min(int(emitted[close]) + 1, n_vo))
        mode = kalman(cursor, close)
        stop = plan.stops[visit.stop_index]
        gated = _norms(u[start:close] - (stop.x, stop.y), gamma) <= gamma
        began = np.flatnonzero(mode[start - cursor :] & gated)
        detector = est = None
        if began.size:
            rows = start + began[0] + np.flatnonzero(gated[began[0] :])
            detector = StopClusterer(params.cluster)
            est = detector.push(u[rows])
        if est is not None:
            k = int(rows[est.samples_consumed - 1])
            decide(est, k, int(uwb_t[k]), visit.stop_index, int(near[k]))
            # re-evaluate trust with the fresh correction in place; while
            # still dwelling here, renewed divergence can only be a UWB
            # artifact, since this stop already reconciled the sensors
            mode[k - cursor] = kalman(k, k + 1)[0]
            mode[k - cursor + 1 :] = False
        kalman_after[cursor + 1 : close + 1] = mode
        cursor = close

        # close the visit, at tick close
        j = int(emitted[close])
        if detector is not None and est is None:
            est = detector.finish()
            if est.support >= params.cluster.k1:
                # at the last emitted VO sample, or at 0 before the first
                decide(est, close, int(vo_t[j - 1]) if j else 0, visit.stop_index, max(j - 1, 0))
            elif kalman_after[close]:  # the mode of the visit's last tick
                raise StopDetectionFailure(visit.stop_index, est.support)
            else:
                track.discarded_detectors += 1
        window_start = j

    if sensor is not None:
        sensor.fill(n_vo)
    kalman_after[cursor + 1 :] = kalman(cursor, n_uwb)

    # each VO sample takes the mode and w in force after its governing tick:
    # sample i follows the ticks k with emitted[k] <= i
    gov = np.cumsum(np.bincount(emitted[:n_uwb], minlength=n_vo)[:n_vo])
    out_xy = vo_xy + w_after.take(gov, axis=0)
    in_kalman = kalman_after[gov]
    # a KALMAN sample has a governing tick (row 0 is VO); past the age bound
    # that tick is stale, and the sample trusts the corrected VO
    age = vo_t[in_kalman] - uwb_t[gov[in_kalman] - 1]
    in_kalman[in_kalman] = age <= uwb_age_bound_ms(uwb_t)
    out_xy[in_kalman] = filtered.xy[nearest_indices(uwb_t, vo_t[in_kalman])]
    track.samples = Stream(vo_t, out_xy, VO)
    track.kalman = in_kalman
    return track
