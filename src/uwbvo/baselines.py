"""Comparison methods: raw streams, filtered UWB, and two Kalman fusions.

All CTRA variants share one filter implementation, one noise configuration,
and one restart policy (the self-corrective pipeline's: restart at every
stop arrival after the initial dwell), so the comparison isolates how the
streams are combined rather than how each filter is tuned.
"""
from __future__ import annotations

import enum

import numpy as np

from .core import UWB, FlightPlan, Stream, StreamPair, nearest_indices
from .ekf import run_filter
from .pipeline import FusedTrack, PipelineParams, run_pipeline, stop_visits


class BaselineKind(enum.Enum):
    RAW_UWB = "raw-uwb"
    RAW_VO = "raw-vo"
    POZYX_CTRA = "pozyx-ctra"
    AVG_FUSION = "avg-fusion"
    DIRECT_FUSION = "direct-fusion"
    SELF_CORRECTIVE = "self-corrective"


def averaged_stream(pair: StreamPair) -> Stream:
    """Per-sample mean at UWB rate, with the VO sample nearest in time (earlier on a tie)."""
    j = nearest_indices(pair.vo.t_ms, pair.uwb.t_ms)
    return Stream(pair.uwb.t_ms, 0.5 * (pair.uwb.xy + pair.vo.xy[j]), UWB)


def merge_streams(pair: StreamPair) -> Stream:
    """Interleave both streams by timestamp, UWB first on ties; tagged UWB like the average."""
    t_ms = np.concatenate((pair.uwb.t_ms, pair.vo.t_ms))
    order = np.argsort(t_ms, kind="stable")  # UWB rows come first in t_ms
    return Stream(t_ms[order], np.concatenate((pair.uwb.xy, pair.vo.xy))[order], UWB)


# the stream each CTRA baseline filters: the UWB alone, the per-sample
# average at UWB rate, or both merged and stepped by actual arrival gaps
_FILTER_INPUT = {
    BaselineKind.POZYX_CTRA: lambda pair: pair.uwb,
    BaselineKind.AVG_FUSION: averaged_stream,
    BaselineKind.DIRECT_FUSION: merge_streams,
}


def run_method(
    kind: BaselineKind,
    pair: StreamPair,
    plan: FlightPlan,
    params: PipelineParams,
) -> tuple[Stream, FusedTrack | None]:
    """Produce the method's output track; the fused track where one exists."""
    if kind is BaselineKind.RAW_UWB:
        return pair.uwb, None
    if kind is BaselineKind.RAW_VO:
        return pair.vo, None
    if kind is BaselineKind.SELF_CORRECTIVE:
        track = run_pipeline(pair, plan, params)
        return track.samples, track
    restarts = [w.t0_ms for w in stop_visits(plan)]
    return run_filter(_FILTER_INPUT[kind](pair), params.ekf, restart_times_ms=restarts), None
