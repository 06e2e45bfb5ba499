"""The per-sample stop clusterer, as the block counter in ``uwbvo.clustering`` replaced it.

``StopClusterer.push`` consumes one ``Position2D`` at a time and keeps every
counter up to date after each sample, with the ``k1`` candidate flag that
gates termination; ``region_gate`` is the activation test on one sample.
``tests/pipeline_oracle.py`` runs its detectors on them, and
``tests/test_clustering.py`` checks the block counter's estimates against
them, so the oracles share no counting code with the package.
"""
from __future__ import annotations

import numpy as np

from uwbvo.clustering import ClusterParams, StopEstimate
from uwbvo.core import Position2D, euclidean


def region_gate(sample: Position2D, expected: Position2D, gamma_mm: float) -> bool:
    """True iff the sample lies within the closed gamma-ball of the stop."""
    return euclidean(sample, expected) <= gamma_mm


class StopClusterer:
    """Online neighbor counting over one stop's sample stream.

    Positions are deduplicated by exact value; re-arrivals of a seen value
    bump its counter by one, and every within-``alpha`` pair of distinct
    values bumps both counters. Linear scan per sample: instances stay small
    (a few hundred points), so no spatial index is warranted.
    """

    def __init__(self, params: ClusterParams) -> None:
        self.params = params
        self._points = np.empty((256, 2), dtype=np.float64)
        self._counts = np.zeros(256, dtype=np.int64)
        self._slots: dict[tuple[float, float], int] = {}
        self._n = 0
        self._consumed = 0
        self.candidate = False
        self.result: StopEstimate | None = None

    def _grow(self) -> None:
        cap = self._points.shape[0] * 2
        pts = np.empty((cap, 2), dtype=np.float64)
        pts[: self._n] = self._points[: self._n]
        counts = np.zeros(cap, dtype=np.int64)
        counts[: self._n] = self._counts[: self._n]
        self._points, self._counts = pts, counts

    def push(self, pos: Position2D) -> StopEstimate | None:
        """Consume one sample; returns the estimate once terminated."""
        if self.result is not None:
            return self.result
        self._consumed += 1
        key = (pos.x, pos.y)
        n = self._n
        slot = self._slots.get(key)
        if slot is None:
            if n == self._points.shape[0]:
                self._grow()
            slot = n
            self._slots[key] = slot
            self._points[slot, 0] = pos.x
            self._points[slot, 1] = pos.y
            self._counts[slot] = 0
            self._n = n + 1
            revisit = False
        else:
            revisit = True

        alpha_sq = self.params.alpha_mm * self.params.alpha_mm
        if n:
            diff = self._points[:n] - (pos.x, pos.y)
            within = (diff[:, 0] ** 2 + diff[:, 1] ** 2) <= alpha_sq
            if revisit:
                within[slot] = False
            hits = int(np.count_nonzero(within))
            self._counts[:n][within] += 1
            self._counts[slot] += hits + (1 if revisit else 0)

        counts = self._counts[: self._n]
        if not self.candidate and counts.max(initial=0) >= self.params.k1:
            self.candidate = True
        if self.candidate and counts.max(initial=0) >= self.params.k2:
            self.result = self._estimate(complete=True)
            return self.result
        return None

    def _estimate(self, complete: bool) -> StopEstimate:
        counts = self._counts[: self._n]
        eligible = np.flatnonzero(counts >= self.params.k1)
        if eligible.size:
            # argmax among suspected-cluster members; ties go to the
            # earliest-seen position (flatnonzero is insertion-ordered)
            winner = int(eligible[np.argmax(counts[eligible])])
        else:
            winner = int(np.argmax(counts)) if self._n else 0
        pos = Position2D(float(self._points[winner, 0]), float(self._points[winner, 1]))
        return StopEstimate(
            pos=pos,
            support=int(counts[winner]) if self._n else 0,
            samples_consumed=self._consumed,
            complete=complete,
        )

    def finish(self) -> StopEstimate:
        """Best-so-far estimate for a stream that ended before termination."""
        if self.result is None:
            if self._n == 0:
                raise ValueError("no samples consumed")
            self.result = self._estimate(complete=False)
        return self.result

