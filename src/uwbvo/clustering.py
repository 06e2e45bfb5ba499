"""Density-based stream clustering for stopping-point estimation.

Filtered UWB samples form a dense cloud while the platform dwells at a
stopping point; anchor dropouts add low-density outlier rays. The detector
counts, per seen position, how many other seen positions fall within the
intracluster distance ``alpha``. A position whose count reaches ``k1`` marks
a suspected cluster; once any count reaches ``k2`` the instance terminates
and the highest-count position is the stop estimate. The ``k1``/``k2`` split
forms a hysteresis band that keeps sparse outliers from terminating the
instance on their own.

Counts are exact: they equal a from-scratch recount over the consumed prefix
after every sample, which is what the test-suite oracles check. They are
counted a block of samples at a time, in closed form, with no loop over the
samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Position2D

# samples counted per block: a block's (samples x distinct values) matrices
# stay at a few MB even over a dwell of thousands of samples
_BLOCK = 64


@dataclass(frozen=True)
class ClusterParams:
    """Stream-clustering thresholds.

    alpha_mm: maximum intracluster distance (closed ball).
    k1: neighbor count at or above which a cluster is suspected.
    k2: neighbor count at or above which the instance terminates.
    gamma_mm: activation radius around the expected stopping point.
    """

    alpha_mm: float = 10.0
    k1: int = 100
    k2: int = 500
    gamma_mm: float = 100.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha_mm) and self.alpha_mm > 0):
            raise ValueError("alpha_mm must be finite and positive")
        if not (0 < self.k1 < self.k2):
            raise ValueError("need 0 < k1 < k2")
        if not (math.isfinite(self.gamma_mm) and self.gamma_mm > self.alpha_mm):
            raise ValueError("gamma_mm must be finite and exceed alpha_mm")


@dataclass(frozen=True)
class StopEstimate:
    """Result of one detector instance."""

    pos: Position2D
    support: int
    samples_consumed: int
    complete: bool


class StopClusterer:
    """Neighbor counting over one stop's sample stream, a block at a time.

    Positions are deduplicated by exact value. A sample adds one count to
    every distinct value seen before it within ``alpha`` (its own value
    excepted) and as many to its own value; a re-arrival of a seen value
    adds one more to its own. Over a block of samples those increments form
    a (samples x distinct values) matrix, and its cumulative sum down the
    samples gives every count after every sample: the terminating sample is
    the first whose maximum count reaches ``k2``. (A count that reaches
    ``k2`` has passed ``k1`` < ``k2``, so the suspected-cluster flag never
    delays termination.) Blocks are at most ``_BLOCK`` samples, and counting
    stops at the first block that terminates.
    """

    def __init__(self, params: ClusterParams) -> None:
        self.params = params
        # the distinct values, in order of first arrival, and their counts
        self._points = np.empty((0, 2), dtype=np.float64)
        self._counts = np.zeros(0, dtype=np.int64)
        self._slots: dict[tuple[float, float], int] = {}
        self._consumed = 0
        self.result: StopEstimate | None = None

    def push(self, xy: np.ndarray) -> StopEstimate | None:
        """Consume an ``(m, 2)`` array of positions in arrival order, up to and
        including the one that terminates the instance; returns the estimate
        once terminated, else None."""
        if self.result is None:
            xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
            for lo in range(0, len(xy), _BLOCK):
                if self._count_block(xy[lo : lo + _BLOCK]):
                    break
        return self.result

    def _count_block(self, xy: np.ndarray) -> bool:
        """Count one block of samples; True iff one of them terminated."""
        m = len(xy)
        n_old = len(self._counts)
        slots = self._slots
        slot = np.array(
            [slots.setdefault(key, len(slots)) for key in map(tuple, xy.tolist())],
            dtype=np.intp,
        )
        n = len(slots)
        # a new value arrives first where the running maximum slot reaches it
        first_new = np.searchsorted(np.maximum.accumulate(slot), np.arange(n_old, n))
        points = np.concatenate([self._points, xy[first_new]])
        # near[i, d]: value d was seen before sample i and lies within alpha
        # of it, by squared distances; d is the sample's own value only on a
        # re-arrival. The squares and their sum are taken in place, in dx and
        # dy: the block makes no other (m x n) float matrix
        dx = np.subtract.outer(xy[:, 0], points[:, 0])
        dy = np.subtract.outer(xy[:, 1], points[:, 1])
        dx *= dx
        dy *= dy
        dx += dy
        near = dx <= self.params.alpha_mm * self.params.alpha_mm
        near[:, n_old:] &= first_new < np.arange(m)[:, None]
        # the increments are near, except that the sample's own value gains
        # the row's count of True: one per pair with another value, plus one
        # on a re-arrival
        own_extra = np.add.reduce(near, axis=1, dtype=np.int64) - near[np.arange(m), slot]
        old = np.zeros(n, dtype=np.int64)
        old[:n_old] = self._counts

        def counts_after(i: int) -> np.ndarray:
            """Every count after sample ``i`` of the block."""
            counts = np.add.reduce(near[: i + 1], axis=0, dtype=np.int64)
            counts += old
            counts += np.bincount(slot[: i + 1], own_extra[: i + 1], minlength=n).astype(np.int64)
            return counts

        last = m - 1
        counts = counts_after(last)
        ended = counts.max() >= self.params.k2
        if ended:
            # counts never fall: only the values that end the block at k2 or
            # more can reach it first; the sample where one does terminates
            cols = np.flatnonzero(counts >= self.params.k2)
            steps = near[:, cols].astype(np.int64)
            steps += (slot[:, None] == cols) * own_extra[:, None]
            np.cumsum(steps, axis=0, out=steps)
            steps += old[cols]
            last = int(np.flatnonzero(steps.max(axis=1) >= self.params.k2)[0])
            counts = counts_after(last)
        # a value first seen after the terminating sample counts 0 there,
        # below the terminating value's count of at least k2, so it never wins
        self._points = points
        self._counts = counts
        self._consumed += last + 1
        if ended:
            self.result = self._estimate(complete=True)
        return ended

    def _estimate(self, complete: bool) -> StopEstimate:
        counts = self._counts
        # the highest count, at or above k1 whenever any count is; ties go
        # to the earliest-seen position (the values are insertion-ordered)
        winner = int(np.argmax(counts))
        pos = Position2D(float(self._points[winner, 0]), float(self._points[winner, 1]))
        return StopEstimate(
            pos=pos,
            support=int(counts[winner]),
            samples_consumed=self._consumed,
            complete=complete,
        )

    def finish(self) -> StopEstimate:
        """Best-so-far estimate for a stream that ended before termination."""
        if self.result is None:
            if not len(self._counts):
                raise ValueError("no samples consumed")
            self.result = self._estimate(complete=False)
        return self.result
