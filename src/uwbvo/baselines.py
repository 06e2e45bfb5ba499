"""Comparison methods: raw streams, filtered UWB, and two Kalman fusions.

All CTRA variants share one filter implementation, one noise configuration,
and one restart policy (the self-corrective pipeline's: restart at every
stop arrival after the initial dwell), so the comparison isolates how the
streams are combined rather than how each filter is tuned.

The filtering is done once per batch of seeds: :func:`filter_inputs`
builds the inputs the selected methods read (the UWB, the per-sample
average, the merged stream) for every seed of the batch and filters them
all in one ``run_filter`` lockstep, since every seed of a plan shares one
restart schedule. :func:`run_method` then picks its method's result.
pozyx-ctra's filtered UWB is also the one the self-corrective pipeline
fuses with the VO, so that stream is filtered once for both.
"""
from __future__ import annotations

import enum
from typing import Iterable, Sequence

import numpy as np

from .core import UWB, FlightPlan, Stream, StreamPair, nearest_indices
from .ekf import FilterError, checked, run_filter
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
    xy = 0.5 * (pair.uwb.xy + pair.vo.xy[j])
    xy.flags.writeable = False  # handed over to the stream
    return Stream(pair.uwb.t_ms, xy, UWB)


def merge_streams(pair: StreamPair) -> Stream:
    """Interleave both streams by timestamp, UWB first on ties; tagged UWB like the average."""
    t_ms = np.concatenate((pair.uwb.t_ms, pair.vo.t_ms))
    order = np.argsort(t_ms, kind="stable")  # UWB rows come first in t_ms
    t_ms, xy = t_ms[order], np.concatenate((pair.uwb.xy, pair.vo.xy))[order]
    t_ms.flags.writeable = xy.flags.writeable = False  # handed over to the stream
    return Stream(t_ms, xy, UWB)


# the stream each CTRA baseline filters: the UWB alone, the per-sample
# average at UWB rate, or both merged and stepped by actual arrival gaps
_FILTER_INPUT = {
    BaselineKind.POZYX_CTRA: lambda pair: pair.uwb,
    BaselineKind.AVG_FUSION: averaged_stream,
    BaselineKind.DIRECT_FUSION: merge_streams,
}
# self-corrective fuses the VO with pozyx-ctra's filtered UWB
_SHARES_INPUT = {BaselineKind.SELF_CORRECTIVE: BaselineKind.POZYX_CTRA}

Filtered = dict[BaselineKind, Stream | FilterError]


def filter_inputs(
    methods: Iterable[BaselineKind],
    pairs: Sequence[StreamPair],
    plan: FlightPlan,
    params: PipelineParams,
) -> list[Filtered]:
    """Every CTRA input the methods read, for every pair, filtered in one lockstep.

    One dict per pair, keyed by the baseline that filters the input, as
    :func:`run_method` reads it. Only the inputs the methods need are
    built, all with the pipeline's restart schedule, which depends on the
    plan alone; a failed input holds its :class:`FilterError`, and fails no
    other input, of its pair or of another.
    """
    needed = {_SHARES_INPUT.get(m, m) for m in methods}
    kinds = [k for k in _FILTER_INPUT if k in needed]
    restarts = [w.t0_ms for w in stop_visits(plan)]
    streams = [_FILTER_INPUT[k](pair) for pair in pairs for k in kinds]
    results = run_filter(streams, params.ekf, restart_times_ms=restarts)
    n = len(kinds)  # zip stops after a pair's n results
    return [dict(zip(kinds, results[i * n :])) for i in range(len(pairs))]


def run_method(
    kind: BaselineKind,
    pair: StreamPair,
    plan: FlightPlan,
    params: PipelineParams,
    filtered: Filtered,
) -> tuple[Stream, FusedTrack | None]:
    """Produce the method's output track; the fused track where one exists.

    ``filtered`` is :func:`filter_inputs` of these methods; a failed input
    raises its :class:`FilterError` for every method that reads it.
    """
    if kind is BaselineKind.RAW_UWB:
        return pair.uwb, None
    if kind is BaselineKind.RAW_VO:
        return pair.vo, None
    stream = checked(filtered[_SHARES_INPUT.get(kind, kind)])
    if kind is BaselineKind.SELF_CORRECTIVE:
        track = run_pipeline(pair, plan, params, stream)
        return track.samples, track
    return stream, None
