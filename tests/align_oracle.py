"""Per-sample reference for pairing each UWB sample with the nearest VO one.

``align_streams`` is the pairing from before streams became columnar,
copied as it was: one ``searchsorted`` per UWB sample, the earlier sample
on a tie. ``uwbvo.core.nearest_indices`` pairs all samples in one call and
must choose the same VO sample for each.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from uwbvo.core import Position2D, StreamPair


class AlignedSample(NamedTuple):
    t_ms: int
    uwb: Position2D
    vo: Position2D


def nearest_index(ts: np.ndarray, t: float) -> int:
    """Index of the timestamp nearest to ``t``; ties resolve to the earlier one."""
    i = int(np.searchsorted(ts, t))
    if i == 0:
        return 0
    if i == len(ts):
        return len(ts) - 1
    # tie -> earlier sample
    return i - 1 if t - ts[i - 1] <= ts[i] - t else i


def align_streams(pair: StreamPair) -> list[AlignedSample]:
    """Match each UWB sample with the nearest-in-time VO sample.

    The UWB stream is the slower one in all supported scenarios, so the
    output has one tuple per UWB sample.
    """
    vo_ts = np.array([s.t_ms for s in pair.vo], dtype=np.int64)
    out = []
    for s in pair.uwb:
        j = nearest_index(vo_ts, s.t_ms)
        out.append(AlignedSample(s.t_ms, s.pos, pair.vo[j].pos))
    return out
