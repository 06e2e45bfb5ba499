"""Comparison methods: raw streams, filtered UWB, and two Kalman fusions.

All CTRA variants share one filter implementation, one noise configuration,
and one restart policy (restart at every stop arrival of the plan), so the
comparison isolates how the streams are combined rather than how each
filter is tuned.
"""
from __future__ import annotations

import enum

import numpy as np

from .core import UWB, FlightPlan, Stream, StreamPair, nearest_indices
from .ekf import CtraParams, run_filter
from .pipeline import FusedTrack, PipelineParams, run_pipeline
from .simulate import build_truth


class BaselineKind(enum.Enum):
    RAW_UWB = "raw-uwb"
    RAW_VO = "raw-vo"
    POZYX_CTRA = "pozyx-ctra"
    AVG_FUSION = "avg-fusion"
    DIRECT_FUSION = "direct-fusion"
    SELF_CORRECTIVE = "self-corrective"


def stop_arrival_times(plan: FlightPlan) -> list[float]:
    """Arrival times of every stop visit after the initial dwell."""
    return [w.t0_ms for w in build_truth(plan).stop_windows[1:]]


def pozyx_only(stream: Stream, plan: FlightPlan, params: CtraParams) -> Stream:
    """CTRA filter over the UWB stream alone."""
    return run_filter(stream, params, restart_times_ms=stop_arrival_times(plan))


def averaged_stream(pair: StreamPair) -> Stream:
    """Per-sample mean at UWB rate, with the VO sample nearest in time (earlier on a tie)."""
    j = nearest_indices(pair.vo.t_ms, pair.uwb.t_ms)
    return Stream(pair.uwb.t_ms, 0.5 * (pair.uwb.xy + pair.vo.xy[j]), UWB)


def avg_fusion(pair: StreamPair, plan: FlightPlan, params: CtraParams) -> Stream:
    """Filter the per-sample average of the two streams, at UWB rate."""
    return run_filter(
        averaged_stream(pair), params, restart_times_ms=stop_arrival_times(plan)
    )


def merge_streams(pair: StreamPair) -> Stream:
    """Interleave both streams by timestamp, UWB first on ties; tagged UWB like the average."""
    t_ms = np.concatenate((pair.uwb.t_ms, pair.vo.t_ms))
    order = np.argsort(t_ms, kind="stable")  # UWB rows come first in t_ms
    return Stream(t_ms[order], np.concatenate((pair.uwb.xy, pair.vo.xy))[order], UWB)


def direct_fusion(pair: StreamPair, plan: FlightPlan, params: CtraParams) -> Stream:
    """One filter over the merged stream, stepped by actual arrival gaps."""
    return run_filter(
        merge_streams(pair), params, restart_times_ms=stop_arrival_times(plan)
    )


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
    if kind is BaselineKind.POZYX_CTRA:
        return pozyx_only(pair.uwb, plan, params.ekf), None
    if kind is BaselineKind.AVG_FUSION:
        return avg_fusion(pair, plan, params.ekf), None
    if kind is BaselineKind.DIRECT_FUSION:
        return direct_fusion(pair, plan, params.ekf), None
    if kind is BaselineKind.SELF_CORRECTIVE:
        track = run_pipeline(pair, plan, params)
        return track.samples, track
    raise ValueError(f"unknown method {kind!r}")
