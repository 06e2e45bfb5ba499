"""Deterministic, seedable flight simulator and sensor fault models.

Ground truth follows the flight plan exactly: a dwell at each stop and a
straight segment with a trapezoidal speed profile in between (triangular if
the segment is too short to reach cruise speed). Heading changes happen
while dwelling.

Sensor streams are synthesized from the truth:

* UWB: the positioning unit's position output, not its anchor ranges:
  truth at its sample rate plus isotropic white Gaussian noise; with some
  probability per stop window, a burst of samples late in the dwell is
  displaced along a random direction with growing magnitude, imitating the
  asymmetric outlier rays seen when an anchor drops out.
* Visual odometer: truth plus small Gaussian noise, but affected segments
  report scaled-down displacements (direction preserved); the resulting
  offset persists and accumulates across segments until a reboot re-anchors
  the sensor. One model produces every VO sample: :class:`VoSensor`
  evaluates ``true + (ref_bias + (scale - 1) * (true - ref_pos)) + noise``
  in vectorised blocks, each running from a segment event or reboot to the
  next, into one full-length array; :func:`synth_vo` is that sensor filled
  to its end without reboots.

Everything is a pure function of (config, seed); a config holds no seed.
One seed is split into independent child generators for UWB noise, UWB
rays, VO noise, and VO faults, in that order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

import numpy as np

from .core import MM_DECIMALS, UWB, VO, FlightPlan, Position2D, Sample, Stream, StreamPair


@dataclass(frozen=True)
class StopWindow:
    stop_index: int
    t0_ms: float
    t1_ms: float

    @property
    def midpoint_ms(self) -> float:
        return 0.5 * (self.t0_ms + self.t1_ms)


@dataclass(frozen=True)
class SegmentInfo:
    t0_ms: float
    t1_ms: float
    start: Position2D
    end: Position2D


class _Phase(NamedTuple):
    t0_ms: float
    origin: tuple[float, float]
    direction: tuple[float, float]
    s0: float
    v0: float
    acc: float


@dataclass(frozen=True)
class GroundTruth:
    """Exact pose timeline for one flight."""

    stop_windows: tuple[StopWindow, ...]
    segments: tuple[SegmentInfo, ...]
    duration_ms: float
    _t0s: np.ndarray
    _origins: np.ndarray
    _dirs: np.ndarray
    _profile: np.ndarray  # columns: s0, v0, acc

    def _phase_index(self, ts: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._t0s, ts, side="right") - 1
        return np.clip(idx, 0, len(self._t0s) - 1)

    def sample(self, ts_ms: np.ndarray) -> np.ndarray:
        """Vectorized pose lookup; times clamp to the flight duration."""
        ts = np.clip(np.asarray(ts_ms, dtype=np.float64), 0.0, self.duration_ms)
        idx = self._phase_index(ts)
        # take gathers the same rows as fancy indexing, several times faster
        tau = (ts - self._t0s.take(idx)) / 1000.0
        prof = self._profile
        s = (
            prof[:, 0].take(idx)
            + prof[:, 1].take(idx) * tau
            + 0.5 * prof[:, 2].take(idx) * tau * tau
        )
        return self._origins.take(idx, axis=0) + self._dirs.take(idx, axis=0) * s[:, None]

    def pose_at(self, t_ms: float) -> Position2D:
        xy = self.sample(np.array([t_ms]))[0]
        return Position2D(float(xy[0]), float(xy[1]))


def _segment_phases(length: float, cruise: float, accel: float) -> list[tuple[float, float, float, float]]:
    """(duration_s, s0, v0, acc) pieces of one straight segment."""
    d_ramp = cruise * cruise / (2.0 * accel)
    if 2.0 * d_ramp >= length:
        peak = math.sqrt(accel * length)
        t_ramp = peak / accel
        return [
            (t_ramp, 0.0, 0.0, accel),
            (t_ramp, length / 2.0, peak, -accel),
        ]
    t_ramp = cruise / accel
    t_cruise = (length - 2.0 * d_ramp) / cruise
    return [
        (t_ramp, 0.0, 0.0, accel),
        (t_cruise, d_ramp, cruise, 0.0),
        (t_ramp, length - d_ramp, cruise, -accel),
    ]


def build_truth(plan: FlightPlan) -> GroundTruth:
    """Lay the plan out on a timeline of dwell and flight phases; a leg too
    fast to advance the time is refused, so stop windows never touch."""
    phases: list[_Phase] = []
    windows: list[StopWindow] = []
    segments: list[SegmentInfo] = []
    legs = plan.legs()
    t = 0.0

    def heading_dir(i: int) -> tuple[float, float]:
        a, b = legs[min(i, len(legs) - 1)]
        d = math.hypot(b.x - a.x, b.y - a.y)
        return ((b.x - a.x) / d, (b.y - a.y) / d)

    stop_order = [i % len(plan.stops) for i in range(len(legs) + 1)]
    for visit, stop_idx in enumerate(stop_order):
        stop = plan.stops[stop_idx]
        windows.append(StopWindow(stop_idx, t, t + plan.dwell_ms))
        phases.append(
            _Phase(t, (stop.x, stop.y), heading_dir(visit), 0.0, 0.0, 0.0)
        )
        t += plan.dwell_ms
        if visit == len(legs):
            break
        a, b = legs[visit]
        length = math.hypot(b.x - a.x, b.y - a.y)
        direction = ((b.x - a.x) / length, (b.y - a.y) / length)
        t_seg_start = t
        for dur_s, s0, v0, acc in _segment_phases(
            length, plan.cruise_mm_s, plan.accel_mm_s2
        ):
            phases.append(_Phase(t, (a.x, a.y), direction, s0, v0, acc))
            t += dur_s * 1000.0
        if t == t_seg_start:
            raise ValueError(f"the leg from stop {stop_idx + 1} takes no time at t = {t} ms")
        segments.append(SegmentInfo(t0_ms=t_seg_start, t1_ms=t, start=a, end=b))

    return GroundTruth(
        stop_windows=tuple(windows),
        segments=tuple(segments),
        duration_ms=t,
        _t0s=np.array([p.t0_ms for p in phases]),
        _origins=np.array([p.origin for p in phases]),
        _dirs=np.array([p.direction for p in phases]),
        _profile=np.array([(p.s0, p.v0, p.acc) for p in phases]),
    )


# ---------------------------------------------------------------------------
# sensor models


@dataclass(frozen=True)
class RaySpec:
    """Outlier-ray fault of the UWB unit (anchor dropout pattern)."""

    prob_per_stop: float = 0.4
    length_mm: float = 900.0
    count: int = 54

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob_per_stop <= 1.0:
            raise ValueError("prob_per_stop must be within [0, 1]")
        if not (math.isfinite(self.length_mm) and self.length_mm >= 0) or self.count < 0:
            raise ValueError("ray length must be finite and nonnegative, and count nonnegative")


# Timestamps are whole milliseconds: a period under 1 ms would repeat one.
MAX_RATE_HZ = 1000.0


def _check_rate_and_sigma(sensor: str, rate_hz: float, sigma_mm: float) -> None:
    if not (
        math.isfinite(rate_hz)
        and 0 < rate_hz <= MAX_RATE_HZ
        and math.isfinite(sigma_mm)
        and sigma_mm >= 0
    ):
        raise ValueError(
            f"bad {sensor} model parameters: need a finite rate > 0 of at most "
            f"{MAX_RATE_HZ:g} Hz (timestamps have 1 ms resolution) and sigma >= 0"
        )


@dataclass(frozen=True)
class UwbModel:
    rate_hz: float = 27.0
    sigma_mm: float = 100.0
    ray: RaySpec = field(default_factory=RaySpec)

    def __post_init__(self) -> None:
        _check_rate_and_sigma("UWB", self.rate_hz, self.sigma_mm)


@dataclass(frozen=True)
class ScaleFaultSpec:
    """Displacement-underestimation fault of the visual odometer.

    ``forced_segments`` pins the fault to specific segment indices (used by
    the worst-case preset); other segments then fault with
    ``prob_per_segment`` independently.
    """

    prob_per_segment: float = 0.4
    scale_range: tuple[float, float] = (0.70, 0.88)
    forced_segments: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob_per_segment <= 1.0:
            raise ValueError("prob_per_segment must be within [0, 1]")
        lo, hi = self.scale_range
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError("scale_range must satisfy 0 < lo <= hi <= 1")


@dataclass(frozen=True)
class VoModel:
    rate_hz: float = 200.0
    sigma_mm: float = 1.5
    underestimate: ScaleFaultSpec = field(default_factory=ScaleFaultSpec)

    def __post_init__(self) -> None:
        _check_rate_and_sigma("VO", self.rate_hz, self.sigma_mm)


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    plan: FlightPlan
    uwb: UwbModel = field(default_factory=UwbModel)
    vo: VoModel = field(default_factory=VoModel)

    def __post_init__(self) -> None:
        legs = len(self.plan.legs())
        outside = [i for i in self.vo.underestimate.forced_segments if not 0 <= i < legs]
        if outside:
            raise ValueError(f"forced fault segments {outside} outside the plan's {legs} legs")


class RayEvent(NamedTuple):
    window_ordinal: int
    stop_index: int
    t_onset_ms: int
    direction_rad: float


class FaultEvent(NamedTuple):
    segment_index: int
    scale: float


class UwbTrace(NamedTuple):
    samples: Stream
    rays: list[RayEvent]


class VoTrace(NamedTuple):
    samples: Stream
    faults: list[FaultEvent]


def _child_rngs(seed: int) -> tuple[np.random.Generator, ...]:
    children = np.random.SeedSequence(seed).spawn(4)
    return tuple(np.random.default_rng(c) for c in children)


def sample_times(rate_hz: float, duration_ms: float) -> np.ndarray:
    period = 1000.0 / rate_hz
    n = int(duration_ms // period) + 1
    return np.round(np.arange(n) * period).astype(np.int64)


def synth_uwb(truth: GroundTruth, model: UwbModel, seed: int) -> UwbTrace:
    """Noisy UWB positions plus optional late-dwell outlier rays."""
    rng_noise, rng_ray, _, _ = _child_rngs(seed)
    ts = sample_times(model.rate_hz, truth.duration_ms)
    xy = truth.sample(ts) + rng_noise.normal(0.0, model.sigma_mm, size=(len(ts), 2))

    events: list[RayEvent] = []
    spec = model.ray
    for ordinal, window in enumerate(truth.stop_windows):
        # draw per-window randomness unconditionally so that one window's
        # trigger never shifts another window's pattern; rays sit late in
        # the dwell, after the platform has settled at the stop
        trigger = rng_ray.uniform() < spec.prob_per_stop
        theta = rng_ray.uniform(0.0, 2.0 * math.pi)
        onset_frac = rng_ray.uniform(0.55, 0.80)
        if not trigger or spec.count == 0 or spec.length_mm == 0.0:
            continue
        t_onset = window.t0_ms + onset_frac * (window.t1_ms - window.t0_ms)
        start = int(np.searchsorted(ts, t_onset))
        stop = min(start + spec.count, int(np.searchsorted(ts, window.t1_ms)))
        if stop <= start:
            continue
        k = np.arange(1, stop - start + 1, dtype=np.float64)
        magnitude = spec.length_mm * (k / spec.count) ** 2
        xy[start:stop, 0] += magnitude * math.cos(theta)
        xy[start:stop, 1] += magnitude * math.sin(theta)
        events.append(RayEvent(ordinal, window.stop_index, int(ts[start]), theta))

    return UwbTrace(Stream(ts, np.round(xy, MM_DECIMALS), UWB), events)


def _segment_scales(
    truth: GroundTruth, spec: ScaleFaultSpec, rng: np.random.Generator
) -> np.ndarray:
    scales = np.ones(len(truth.segments))
    for index in range(len(truth.segments)):
        # unconditional draws keep segment patterns independent of each other
        u = rng.uniform()
        s = rng.uniform(spec.scale_range[0], spec.scale_range[1])
        faulted = index in spec.forced_segments or u < spec.prob_per_segment
        if faulted:
            scales[index] = s
    return scales


def _first_at_or_after(ts: np.ndarray, t: float) -> int:
    """The index of the first of the int64 timestamps ``ts`` at or past ``t``.

    The key is ``ceil(t)``, an integer, which selects the same index as
    ``t``: a float key would cast all of ``ts`` to float64 on every call.
    """
    if t == math.inf:
        return len(ts)
    return int(np.searchsorted(ts, math.ceil(t)))


def synth_vo(truth: GroundTruth, model: VoModel, seed: int) -> VoTrace:
    """VO positions with per-segment scale faults and accumulating offset.

    The stream is a :class:`VoSensor` filled to its end without reboots.
    """
    sensor = VoSensor(truth, model, seed)
    sensor.fill(len(sensor.ts))
    faults = [FaultEvent(i, float(s)) for i, s in enumerate(sensor._scales) if s != 1.0]
    return VoTrace(Stream(sensor.ts, sensor.xy, VO), faults)


class VoSensor:
    """Live VO stream with a reboot hook; the one VO sensor model.

    The sensor's frame (reference position, offset accumulated there, active
    scale) changes only at segment starts and ends and at reboots. Between
    two such events every sample is
    ``true + (ref_bias + (scale - 1) * (true - ref_pos)) + noise`` at 0.1 mm,
    so ``fill`` generates the samples up to the next event as one vectorised
    block, into the full-length ``xy`` whose first ``count`` rows are
    generated. ``next`` hands the samples out one at a time, filling as it
    goes; the package reads the sensor by ``fill`` and ``xy`` only, and the
    iterator stays for perfbench until ROADMAP item 3 moves it off.
    ``reboot`` re-anchors the origin at the given position and cancels the
    active segment's scale fault (later segments keep their own fault
    draws); the samples from the reboot on are generated again. Without
    reboots the sensor emits exactly :func:`synth_vo`'s stream.
    """

    def __init__(self, truth: GroundTruth, model: VoModel, seed: int) -> None:
        _, _, rng_noise, rng_fault = _child_rngs(seed)
        self.truth = truth
        self.ts = sample_times(model.rate_hz, truth.duration_ms)
        self._noise = rng_noise.normal(0.0, model.sigma_mm, size=(len(self.ts), 2))
        self._scales = _segment_scales(truth, model.underestimate, rng_fault)
        self._seg_ptr = 0
        self._ref_pos = truth.sample(self.ts[:1])[0]
        self._ref_bias = np.zeros(2)
        self._active_scale = 1.0
        self._in_segment = False
        self.xy = np.empty((len(self.ts), 2))
        self.count = 0  # rows [0, count) of xy are generated
        self._idx = 0  # the read position of next
        self.reboots: list[int] = []

    def _advance_segments(self, t: float) -> float:
        """Apply the segment events up to ``t``; return the next event's time."""
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
        if self._seg_ptr == len(segs):
            return math.inf
        seg = segs[self._seg_ptr]
        if not self._in_segment:
            if t < seg.t0_ms:
                return seg.t0_ms
            self._ref_pos = np.array([seg.start.x, seg.start.y])
            self._active_scale = float(self._scales[self._seg_ptr])
            self._in_segment = True
        return seg.t1_ms

    def fill(self, stop: int) -> None:
        """Generate whole blocks until ``count`` reaches ``stop`` (at most the stream's length)."""
        while self.count < stop:
            i = self.count
            j = _first_at_or_after(self.ts, self._advance_segments(float(self.ts[i])))
            # the truth is sampled per block: a sensor holds two stream-length arrays, not three
            true_xy = self.truth.sample(self.ts[i:j])
            bias = self._ref_bias + (self._active_scale - 1.0) * (true_xy - self._ref_pos)
            self.xy[i:j] = np.round(true_xy + bias + self._noise[i:j], MM_DECIMALS)
            self.count = j

    def __iter__(self) -> Iterator[Sample]:
        return self

    def __next__(self) -> Sample:
        i = self._idx
        if i == len(self.ts):
            raise StopIteration
        self.fill(i + 1)
        self._idx = i + 1
        x, y = self.xy[i].tolist()
        return Sample(int(self.ts[i]), Position2D(x, y), VO)

    def reboot(self, anchor: Position2D, at: int) -> None:
        """Re-anchor at ``anchor`` from sample ``at`` on; the active scale fault is cleared.

        ``at`` is required: any index from 0 to the stream's length. The
        samples before it keep the old frame, generated now if they were
        not yet; the ones from it on are generated again, and a read
        position past it moves back to it.
        """
        n = len(self.ts)
        if not 0 <= at <= n:
            raise ValueError(f"reboot at sample {at} outside the stream [0, {n}]")
        self.fill(at)
        # the segment state the old frame reached at sample at - 1, by the
        # walk fill uses; the frame it leaves is replaced below
        self._seg_ptr, self._in_segment = 0, False
        self._advance_segments(float(self.ts[at - 1]) if at else -math.inf)
        t_now = float(self.ts[min(at, n - 1)])
        true_now = self.truth.sample(np.array([t_now]))[0]
        self._ref_pos = true_now
        self._ref_bias = np.array([anchor.x, anchor.y]) - true_now
        self._active_scale = 1.0
        self.count = at
        self._idx = min(self._idx, at)
        self.reboots.append(int(t_now))


def simulate_pair(scenario: ScenarioConfig, seed: int) -> tuple[StreamPair, UwbTrace, VoTrace]:
    """Generate one run's stream pair plus fault metadata."""
    truth = build_truth(scenario.plan)
    uwb = synth_uwb(truth, scenario.uwb, seed)
    vo = synth_vo(truth, scenario.vo, seed)
    return StreamPair(uwb.samples, vo.samples), uwb, vo


# ---------------------------------------------------------------------------
# scenario presets

# Counterclockwise loop: the vertices of an octagon inscribed in a 3 m
# square plus the midpoint of every octagon edge, starting at
# (1000, 0). Stop 6 is (3000, 1500).
_LOOP_STOPS = (
    (1000.0, 0.0),
    (1500.0, 0.0),
    (2000.0, 0.0),
    (2500.0, 500.0),
    (3000.0, 1000.0),
    (3000.0, 1500.0),
    (3000.0, 2000.0),
    (2500.0, 2500.0),
    (2000.0, 3000.0),
    (1500.0, 3000.0),
    (1000.0, 3000.0),
    (500.0, 2500.0),
    (0.0, 2000.0),
    (0.0, 1500.0),
    (0.0, 1000.0),
    (500.0, 500.0),
)

# Segments are numbered by their departure stop (0-based); 4..15 are the
# legs arriving at stop 6 (3000, 1500) and onward, around to the loop
# closure.
WORST_CASE_SEGMENTS = tuple(range(4, 16))


def default_plan() -> FlightPlan:
    return FlightPlan(
        stops=tuple(Position2D(x, y) for x, y in _LOOP_STOPS),
        dwell_ms=20000.0,
        cruise_mm_s=500.0,
        accel_mm_s2=1000.0,
        closed=True,
    )


def default_scenario() -> ScenarioConfig:
    """Desk-scale replica of the 16-stop counterclockwise loop."""
    return ScenarioConfig(
        name="default",
        plan=default_plan(),
        uwb=UwbModel(),
        vo=VoModel(),
    )


def _forced_fault_scenario(name: str, forced_segments: tuple[int, ...]) -> ScenarioConfig:
    """The default scenario whose VO faults on exactly ``forced_segments``."""
    base = default_scenario()
    fault = ScaleFaultSpec(
        prob_per_segment=0.0, scale_range=(0.70, 0.88), forced_segments=forced_segments
    )
    return replace(base, name=name, vo=replace(base.vo, underestimate=fault))


def worst_case_scenario() -> ScenarioConfig:
    """Severe VO reference loss from the sixth stop onward, every run."""
    return _forced_fault_scenario("worst-case", WORST_CASE_SEGMENTS)


def best_case_scenario() -> ScenarioConfig:
    """VO working correctly: no underestimation faults at all."""
    return _forced_fault_scenario("best-case", ())


SCENARIO_PRESETS = {
    "default": default_scenario,
    "worst-case": worst_case_scenario,
    "best-case": best_case_scenario,
}
