"""Per-sample reference for the VO sensor the simulator tests compare against.

``LoopVoSensor`` is the live sensor one sample at a time: each ``next``
applies the segment events up to the sample's time, evaluates the sensor
formula for that one sample, snaps both coordinates to the 0.1 mm log
resolution and returns a ``(t_ms, Position2D)`` pair; a reboot acts at the
read position. ``VoSensor`` computes the same samples in blocks between
segment events and reboots, and must match it bit for bit.
``tests/pipeline_oracle.py`` drives it in live mode.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from uwbvo.core import MM_DECIMALS, Position2D
from uwbvo.simulate import GroundTruth, VoModel, _child_rngs, _segment_scales, sample_times


def quantize_mm(value: float) -> float:
    """Snap a coordinate to the 0.1 mm log resolution."""
    return float(np.round(value, MM_DECIMALS))


class LoopVoSensor:
    """Live VO stream with a reboot hook, evaluated sample by sample."""

    def __init__(self, truth: GroundTruth, model: VoModel, seed: int) -> None:
        _, _, rng_noise, rng_fault = _child_rngs(seed)
        self.truth = truth
        self.model = model
        self.ts = sample_times(model.rate_hz, truth.duration_ms)
        self._noise = rng_noise.normal(0.0, model.sigma_mm, size=(len(self.ts), 2))
        self._scales = _segment_scales(truth, model.underestimate, rng_fault)
        self._true_xy = truth.sample(self.ts)
        self._idx = 0
        self._seg_ptr = 0
        self._ref_pos = self._true_xy[0].copy()
        self._ref_bias = np.zeros(2)
        self._active_scale = 1.0
        self._in_segment = False
        self.reboots: list[int] = []

    def _advance_segments(self, t: float) -> None:
        segs = self.truth.segments
        while self._seg_ptr < len(segs) and t >= segs[self._seg_ptr].t1_ms:
            seg = segs[self._seg_ptr]
            end = np.array([seg.end.x, seg.end.y])
            if self._in_segment:
                scale, base = self._active_scale, self._ref_pos
            else:  # segment skipped entirely (very low sample rate)
                scale = float(self._scales[self._seg_ptr])
                base = np.array([seg.start.x, seg.start.y])
            self._ref_bias = self._ref_bias + (scale - 1.0) * (end - base)
            # a dwell follows: hold the accumulated bias, scale no longer acts
            self._ref_pos = end
            self._active_scale = 1.0
            self._in_segment = False
            self._seg_ptr += 1
        if self._seg_ptr < len(segs) and t >= segs[self._seg_ptr].t0_ms:
            if not self._in_segment:
                seg = segs[self._seg_ptr]
                self._ref_pos = np.array([seg.start.x, seg.start.y])
                self._active_scale = float(self._scales[self._seg_ptr])
                self._in_segment = True

    def __iter__(self) -> Iterator[tuple[int, Position2D]]:
        return self

    def __next__(self) -> tuple[int, Position2D]:
        if self._idx >= len(self.ts):
            raise StopIteration
        i = self._idx
        t = float(self.ts[i])
        true_pos = self._true_xy[i]
        self._advance_segments(t)
        bias = self._ref_bias + (self._active_scale - 1.0) * (true_pos - self._ref_pos)
        xy = true_pos + bias + self._noise[i]
        self._idx = i + 1
        return int(self.ts[i]), Position2D(quantize_mm(float(xy[0])), quantize_mm(float(xy[1])))

    def reboot(self, anchor: Position2D) -> None:
        """Re-anchor at ``anchor`` from the read position on; the active scale fault is cleared."""
        t_now = float(self.ts[min(self._idx, len(self.ts) - 1)])
        true_now = self.truth.sample(np.array([t_now]))[0]
        self._ref_pos = true_now
        self._ref_bias = np.array([anchor.x, anchor.y]) - true_now
        self._active_scale = 1.0
        self.reboots.append(int(t_now))
