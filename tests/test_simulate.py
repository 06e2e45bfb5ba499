import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adopted, positions, record_streams
from vo_oracle import LoopVoSensor
from uwbvo.core import VO, FlightPlan, Position2D, Stream, euclidean
from uwbvo import simulate
from uwbvo.simulate import (
    SCENARIO_PRESETS,
    GroundTruth,
    RaySpec,
    ScaleFaultSpec,
    ScenarioConfig,
    UwbModel,
    VoModel,
    VoSensor,
    _first_at_or_after,
    build_truth,
    best_case_scenario,
    default_scenario,
    sample_times,
    simulate_pair,
    synth_uwb,
    synth_vo,
    worst_case_scenario,
)
from dataclasses import FrozenInstanceError, replace


def state_at(truth: GroundTruth, t_ms: float) -> tuple[Position2D, float, float]:
    """Pose plus speed (mm/s) and heading (rad) at ``t_ms``, from the truth's phases."""
    t = min(max(t_ms, 0.0), truth.duration_ms)
    idx = 0  # the last phase that starts at or before t
    while idx + 1 < len(truth._t0s) and truth._t0s[idx + 1] <= t:
        idx += 1
    tau = (t - truth._t0s[idx]) / 1000.0
    s0, v0, acc = truth._profile[idx]
    speed = v0 + acc * tau
    pos = truth._origins[idx] + truth._dirs[idx] * (s0 + v0 * tau + 0.5 * acc * tau * tau)
    heading = math.atan2(truth._dirs[idx][1], truth._dirs[idx][0])
    return Position2D(float(pos[0]), float(pos[1])), float(speed), heading


def two_stop_plan(length=1000.0, dwell=5000.0):
    return FlightPlan(
        stops=(Position2D(0.0, 0.0), Position2D(length, 0.0)),
        dwell_ms=dwell,
        cruise_mm_s=500.0,
        accel_mm_s2=1000.0,
        closed=False,
    )


class TestGroundTruth:
    def test_pose_equals_stop_inside_every_window(self):
        plan = default_scenario().plan
        truth = build_truth(plan)
        for w in truth.stop_windows:
            stop = plan.stops[w.stop_index]
            for t in np.linspace(w.t0_ms, w.t1_ms, 7):
                assert euclidean(truth.pose_at(t), stop) == 0.0

    def test_segment_midpoint_symmetry(self):
        truth = build_truth(two_stop_plan())
        seg = truth.segments[0]
        t_mid = 0.5 * (seg.t0_ms + seg.t1_ms)
        pose = truth.pose_at(t_mid)
        assert pose.x == pytest.approx(500.0, abs=1e-9)
        assert pose.y == 0.0

    def test_path_length_matches_speed_profile_integral(self):
        plan = default_scenario().plan
        truth = build_truth(plan)
        ts = np.linspace(0.0, truth.duration_ms, 400_001)
        xy = truth.sample(ts)
        crawled = np.sum(np.hypot(*np.diff(xy, axis=0).T))
        expected = sum(euclidean(seg.start, seg.end) for seg in truth.segments)
        assert crawled == pytest.approx(expected, rel=1e-6)

    def test_speed_profile_continuous_and_capped(self):
        # a 300 mm leg fits both 125 mm ramps (cruise^2 / 2 accel), so even that
        # short a leg reaches cruise speed and holds it (trapezoidal), never past it
        for length in (5000.0, 300.0):
            truth = build_truth(two_stop_plan(length=length))
            ts = np.linspace(0.0, truth.duration_ms, 20_001)
            speeds = np.array([state_at(truth, float(t))[1] for t in ts])
            assert speeds.max() == pytest.approx(500.0, abs=1e-9)
            assert np.all(np.abs(np.diff(speeds)) < 5.0)  # no jumps at phase edges

    @pytest.mark.parametrize("length", [100.0, 1000.0], ids=["triangular", "trapezoidal"])
    def test_a_leg_follows_its_speed_profile_in_closed_form(self, length):
        # from rest to rest at 1000 mm/s^2, cruising at 500 mm/s if the leg
        # is long enough to reach it (the ramps cover 500^2 / 1000 mm in all)
        accel, cruise = 1000.0, 500.0
        truth = build_truth(two_stop_plan(length=length))
        seg = truth.segments[0]
        peak = min(cruise, math.sqrt(accel * length))
        t_up = peak / accel
        t_down = t_up + (length - peak * peak / accel) / peak  # the ramp down starts
        end = t_down + t_up
        assert (seg.t1_ms - seg.t0_ms) / 1000.0 == pytest.approx(end, rel=1e-12)
        for tau in np.linspace(0.0, end, 101):
            if tau <= t_up:
                s, v = 0.5 * accel * tau * tau, accel * tau
            elif tau <= t_down:
                s, v = 0.5 * accel * t_up * t_up + peak * (tau - t_up), peak
            else:
                s, v = length - 0.5 * accel * (end - tau) ** 2, accel * (end - tau)
            t_ms = seg.t0_ms + 1000.0 * tau
            pose = truth.pose_at(t_ms)
            assert (pose.x, pose.y) == (pytest.approx(s, abs=1e-9), 0.0)
            assert state_at(truth, t_ms)[1] == pytest.approx(v, abs=1e-9)

    def test_a_leg_that_takes_no_time_is_refused(self):
        # at 1e18 mm/s a 1000 mm leg lasts 1e-12 ms, lost when added to 20 s:
        # stop windows would touch, and a tick on the shared edge would
        # belong to two visits
        plan = FlightPlan((Position2D(0.0, 0.0), Position2D(1000.0, 0.0)), 20000.0,
                          cruise_mm_s=1e18, accel_mm_s2=1e40, closed=False)
        with pytest.raises(ValueError, match="leg from stop 1 takes no time at t = 20000.0 ms"):
            build_truth(plan)
        # at 1e15 mm/s the leg still advances the time
        windows = build_truth(replace(plan, cruise_mm_s=1e15)).stop_windows
        assert windows[0].t1_ms < windows[1].t0_ms

    def test_short_segment_triangular_profile(self):
        # 100 mm at accel 1000 never reaches cruise: peak = sqrt(a L)
        truth = build_truth(two_stop_plan(length=100.0))
        seg = truth.segments[0]
        peak = max(state_at(truth, t)[1] for t in np.linspace(seg.t0_ms, seg.t1_ms, 2001))
        assert peak == pytest.approx(math.sqrt(1000.0 * 100.0), rel=1e-3)

    @pytest.mark.parametrize(
        "plan",
        [two_stop_plan(), two_stop_plan(dwell=0.5), default_scenario().plan],
        ids=["two-stop", "half-ms-dwell", "loop"],
    )
    def test_sample_equals_the_phase_walk_at_and_past_the_ends(self, plan):
        # before the flight, at its start, at every phase start and one ulp
        # either side, at its end and past it: sample clamps the time into
        # [0, duration_ms], so every time falls in a phase; after a 0.5 ms
        # dwell the drone has left the first stop at t = 1 ms
        truth = build_truth(plan)
        end = truth.duration_ms
        starts = truth._t0s.tolist()
        ts = [-math.inf, -1e12, -50.0, -1e-300, -0.0, 0.0, *starts, end, end + 1e-9,
              end + 99.0, 1e12, math.inf]
        ts += [math.nextafter(t, side) for t in starts + [end] for side in (-math.inf, math.inf)]
        poses = [state_at(truth, t)[0] for t in ts]
        expected = np.array([(pose.x, pose.y) for pose in poses])
        assert truth.sample(np.array(ts)).tobytes() == expected.tobytes()
        assert [truth.pose_at(t) for t in ts] == poses
        assert truth.pose_at(-math.inf) == plan.stops[0]
        assert truth.pose_at(math.inf) == plan.stops[0 if plan.closed else -1]

    def test_times_clamp_to_flight(self):
        plan = two_stop_plan()
        truth = build_truth(plan)
        assert truth.pose_at(-50.0) == plan.stops[0]
        assert truth.pose_at(truth.duration_ms + 99.0) == plan.stops[1]

    def test_truth_and_models_are_immutable_values(self):
        # one truth serves the sensors, the fusion loop and the scoring of a
        # run, and one scenario every seed: all are frozen, and all but the
        # truth (which holds arrays) hashable
        scenario = default_scenario()
        truth = build_truth(scenario.plan)
        values = ((truth.stop_windows[0], "t0_ms"), (truth.segments[0], "start"),
                  (scenario.uwb.ray, "count"), (scenario.uwb, "rate_hz"),
                  (scenario.vo.underestimate, "scale_range"), (scenario.vo, "sigma_mm"),
                  (scenario, "name"), (truth, "duration_ms"))
        for value, name in values:
            if value is not truth:
                hash(value)
            with pytest.raises(FrozenInstanceError):
                setattr(value, name, getattr(value, name))


class TestSynthUwb:
    def test_noiseless_matches_truth(self):
        truth = build_truth(two_stop_plan())
        model = UwbModel(sigma_mm=0.0, ray=RaySpec(prob_per_stop=0.0))
        trace = synth_uwb(truth, model, seed=0)
        ts = trace.samples.t_ms.astype(float)
        assert np.allclose(positions(trace.samples), truth.sample(ts), atol=0.051)

    def test_noise_std_calibration(self):
        # 10k+ samples: empirical per-axis std within 5% of sigma
        plan = two_stop_plan(dwell=120_000.0)
        truth = build_truth(plan)
        model = UwbModel(rate_hz=50.0, sigma_mm=50.0, ray=RaySpec(prob_per_stop=0.0))
        trace = synth_uwb(truth, model, seed=1)
        assert len(trace.samples) > 10_000
        ts = trace.samples.t_ms.astype(float)
        residual = positions(trace.samples) - truth.sample(ts)
        assert np.allclose(residual.std(axis=0), 50.0, rtol=0.05)

    def test_rays_sit_late_in_dwell_and_point_one_way(self):
        plan = default_scenario().plan
        truth = build_truth(plan)
        model = UwbModel(sigma_mm=0.0, ray=RaySpec(prob_per_stop=1.0, length_mm=600, count=30))
        trace = synth_uwb(truth, model, seed=2)
        assert len(trace.rays) == len(truth.stop_windows)
        ts = trace.samples.t_ms.astype(float)
        xy = positions(trace.samples)
        for event in trace.rays:
            window = truth.stop_windows[event.window_ordinal]
            frac = (event.t_onset_ms - window.t0_ms) / (window.t1_ms - window.t0_ms)
            assert 0.5 <= frac <= 0.85
            stop = plan.stops[event.stop_index]
            sel = (ts >= event.t_onset_ms) & (ts <= window.t1_ms)
            offsets = xy[sel] - (stop.x, stop.y)
            dists = np.hypot(offsets[:, 0], offsets[:, 1])
            displaced = offsets[dists > 20.0]
            angles = np.arctan2(displaced[:, 1], displaced[:, 0])
            spread = np.ptp(np.unwrap(np.sort(angles)))
            assert spread < 0.01  # collinear: a ray, not a blob
            assert dists.max() == pytest.approx(600.0, rel=1e-3)


    def test_a_ray_with_no_sample_left_in_its_dwell_is_not_recorded(self):
        # one UWB sample every 10 s: some rays start after the last sample
        # of their dwell, so they displace nothing and are no event; every
        # recorded ray starts at a sample inside its dwell
        truth = build_truth(two_stop_plan(length=2000.0, dwell=20_000.0))
        ray = RaySpec(prob_per_stop=1.0, length_mm=600, count=30)
        missed = 0
        for seed in range(8):
            trace = synth_uwb(truth, UwbModel(rate_hz=0.1, sigma_mm=0.0, ray=ray), seed)
            for event in trace.rays:
                window = truth.stop_windows[event.window_ordinal]
                assert window.t0_ms <= event.t_onset_ms < window.t1_ms
            missed += len(truth.stop_windows) - len(trace.rays)
        assert missed > 0

    def test_a_ray_that_displaces_nothing_is_not_recorded(self):
        # a ray of no length, or of no samples, displaces nothing: no event
        truth = build_truth(two_stop_plan())
        clean = synth_uwb(truth, UwbModel(ray=RaySpec(prob_per_stop=0.0)), 3).samples
        for ray in (RaySpec(prob_per_stop=1.0, length_mm=0.0), RaySpec(prob_per_stop=1.0, count=0)):
            trace = synth_uwb(truth, UwbModel(ray=ray), 3)
            assert trace.rays == [] and trace.samples == clean
        short = synth_uwb(truth, UwbModel(ray=RaySpec(prob_per_stop=1.0, length_mm=1.0)), 3)
        assert len(short.rays) == len(truth.stop_windows)

    def test_a_draw_of_zero_never_fires_at_probability_zero(self, monkeypatch):
        # a probability of 0 is never: not even a uniform draw of exactly
        # 0.0 fires a ray or a scale fault
        class ZeroDraws:
            def uniform(self, low=0.0, high=1.0):
                return low

        real = simulate._child_rngs
        monkeypatch.setattr(
            simulate, "_child_rngs", lambda seed: (real(seed)[0], ZeroDraws(), None, None)
        )
        truth = build_truth(two_stop_plan())
        model = UwbModel(sigma_mm=0.0, ray=RaySpec(prob_per_stop=0.0))
        assert synth_uwb(truth, model, seed=0).rays == []
        spec = ScaleFaultSpec(prob_per_segment=0.0, scale_range=(0.7, 0.9))
        assert simulate._segment_scales(truth, spec, ZeroDraws()).tolist() == [1.0]

    @pytest.mark.parametrize(
        "model, rate_hz",
        [
            pytest.param(UwbModel, 0.0, id="UwbModel"),
            pytest.param(VoModel, 0.0, id="VoModel"),
            pytest.param(UwbModel, 1000.5, id="UwbModel-1000.5Hz"),
            pytest.param(VoModel, 1000.5, id="VoModel-1000.5Hz"),
        ],
    )
    def test_a_zero_rate_is_refused(self, model, rate_hz):
        # timestamps are whole milliseconds: above 1 kHz sample_times would
        # repeat one, so 1000.5 Hz is refused and 1000 Hz accepted
        with pytest.raises(ValueError, match=r"finite rate > 0 of at most 1000 Hz \(timestamps have 1 ms"):
            model(rate_hz=rate_hz)
        assert model(rate_hz=1000.0).rate_hz == 1000.0
        assert np.diff(sample_times(1000.0, 5000.0)).min() == 1

    def test_fault_specs_at_their_edges_are_accepted(self):
        # probabilities are within [0, 1], a ray count nonnegative, and
        # scales within (0, 1]
        assert RaySpec(prob_per_stop=1.0, count=0).count == 0
        assert RaySpec(length_mm=0.0).length_mm == 0.0
        assert ScaleFaultSpec(prob_per_segment=1.0).prob_per_segment == 1.0
        assert ScaleFaultSpec(scale_range=(0.7, 1.0)).scale_range == (0.7, 1.0)
        with pytest.raises(ValueError, match="0 < lo <= hi <= 1"):
            ScaleFaultSpec(scale_range=(0.0, 0.5))

    def test_fault_specs_past_their_edges_are_refused(self):
        above, below = math.nextafter(1.0, 2.0), math.nextafter(0.0, -1.0)
        for p in (above, below):
            with pytest.raises(ValueError, match=r"prob_per_stop must be within \[0, 1\]"):
                RaySpec(prob_per_stop=p)
            with pytest.raises(ValueError, match=r"prob_per_segment must be within \[0, 1\]"):
                ScaleFaultSpec(prob_per_segment=p)
        with pytest.raises(ValueError, match="0 < lo <= hi <= 1"):
            ScaleFaultSpec(scale_range=(0.7, above))
        for bad in ({"length_mm": below}, {"length_mm": math.inf}, {"count": -1}):
            with pytest.raises(ValueError, match="ray length must be finite and nonnegative"):
                RaySpec(**bad)


class TestSynthVo:
    def test_noiseless_no_faults_exact(self):
        truth = build_truth(two_stop_plan())
        model = VoModel(sigma_mm=0.0, underestimate=ScaleFaultSpec(0.0, (0.7, 0.9), ()))
        trace = synth_vo(truth, model, seed=0)
        assert trace.faults == []
        ts = trace.samples.t_ms.astype(float)
        assert np.allclose(positions(trace.samples), truth.sample(ts), atol=0.051)

    def test_single_segment_scale_fault_offsets_tail(self):
        truth = build_truth(two_stop_plan(length=1000.0))
        model = VoModel(
            sigma_mm=0.0,
            underestimate=ScaleFaultSpec(0.0, (0.7, 0.7), forced_segments=(0,)),
        )
        trace = synth_vo(truth, model, seed=0)
        assert [f.segment_index for f in trace.faults] == [0]
        assert trace.faults[0].scale == pytest.approx(0.7)
        ts = trace.samples.t_ms.astype(float)
        offset = positions(trace.samples) - truth.sample(ts)
        seg = truth.segments[0]
        after = ts > seg.t1_ms
        # 30% of the 1000 mm displacement is lost, and the offset persists
        assert np.allclose(offset[after, 0], -300.0, atol=0.06)
        assert np.allclose(offset[after, 1], 0.0, atol=0.06)
        before = ts < seg.t0_ms
        assert np.allclose(offset[before], 0.0, atol=0.06)

    def test_fault_fraction_matches_binomial(self):
        # per-segment probability p: P(run has any fault) = 1 - (1-p)^n
        plan = FlightPlan(
            stops=tuple(Position2D(500.0 * i, 0.0) for i in range(5)),
            dwell_ms=1000.0,
            cruise_mm_s=500.0,
            accel_mm_s2=1000.0,
            closed=False,
        )
        truth = build_truth(plan)
        n_seg = len(truth.segments)
        model = VoModel(underestimate=ScaleFaultSpec(0.4, (0.7, 0.9), ()))
        hits = sum(
            bool(synth_vo(truth, model, seed=s).faults) for s in range(400)
        )
        expected = 1.0 - 0.6**n_seg
        assert hits / 400 == pytest.approx(expected, abs=0.06)

    def test_cumulative_offsets_piecewise_constant_at_dwells(self):
        scenario = worst_case_scenario()
        truth = build_truth(scenario.plan)
        model = replace(scenario.vo, sigma_mm=0.0)
        trace = synth_vo(truth, model, seed=5)
        ts = trace.samples.t_ms.astype(float)
        offset = positions(trace.samples) - truth.sample(ts)
        for w in truth.stop_windows:
            sel = (ts >= w.t0_ms) & (ts <= w.t1_ms)
            assert np.ptp(offset[sel, 0]) <= 0.11  # quantization only
            assert np.ptp(offset[sel, 1]) <= 0.11


class TestDeterminismAndSensor:
    def test_identical_seed_identical_streams(self):
        scenario = worst_case_scenario()
        a = simulate_pair(scenario, 7)
        b = simulate_pair(scenario, 7)
        assert a[0] == b[0]
        assert simulate_pair(scenario, 8)[0] != a[0]

    def test_live_sensor_equals_batch_without_reboots(self):
        scenario = worst_case_scenario()
        truth = build_truth(scenario.plan)
        batch = synth_vo(truth, scenario.vo, seed=3).samples
        live = [(s.t_ms, [s.pos.x, s.pos.y], s.source) for s in VoSensor(truth, scenario.vo, seed=3)]
        assert live == [(t, xy, VO) for t, xy in zip(batch.t_ms.tolist(), batch.xy.tolist())]

    def test_reboot_reanchors_and_clears_active_fault(self):
        plan = two_stop_plan(length=1000.0)
        truth = build_truth(plan)
        model = VoModel(
            sigma_mm=0.0,
            underestimate=ScaleFaultSpec(0.0, (0.7, 0.7), forced_segments=(0,)),
        )
        sensor = VoSensor(truth, model, seed=0)
        seg = truth.segments[0]
        t_mid_seg = 0.5 * (seg.t0_ms + seg.t1_ms)
        for read, s in enumerate(sensor, start=1):
            if s.t_ms >= t_mid_seg:
                break
        anchor = Position2D(123.0, 456.0)
        sensor.reboot(anchor, at=read)  # from the next sample on
        first = next(sensor)
        true_at_reboot = truth.pose_at(sensor.reboots[-1])
        true_now = truth.pose_at(first.t_ms)
        expected_x = anchor.x + (true_now.x - true_at_reboot.x)
        # re-anchored at the supplied position, fault no longer applies
        assert first.pos.x == pytest.approx(expected_x, abs=0.06)
        assert first.pos.y == pytest.approx(anchor.y, abs=0.06)
        tail = [s for s in sensor]
        final_true = plan.stops[1]
        final_expected_x = anchor.x + (final_true.x - true_at_reboot.x)
        assert tail[-1].pos.x == pytest.approx(final_expected_x, abs=0.06)


def short_dwell_loop() -> FlightPlan:
    """The preset loop with 2 s dwells: every event kind, ~12k VO samples."""
    return replace(default_scenario().plan, dwell_ms=2000.0)


def drive(sensor, reboot_at):
    """Every sample as a ``(t_ms, Position2D)`` pair, read one at a time,
    rebooting before sample k once per occurrence of k.

    ``k == len(sensor.ts)`` reboots after the last sample. Each reboot gets
    its own anchor. A ``VoSensor`` is told k; the oracle reboots at its read
    position, which is k.
    """
    block = isinstance(sensor, VoSensor)
    out = []
    for k in range(len(sensor.ts) + 1):
        for _ in range(reboot_at.count(k)):
            r = len(sensor.reboots)
            anchor = Position2D(100.0 + 37.5 * r, 200.0 - 12.25 * r)
            if block:
                sensor.reboot(anchor, k)
            else:
                sensor.reboot(anchor)
        s = next(sensor, None)
        out.append((s.t_ms, s.pos) if block and s is not None else s)
    return out


def reboot_points(truth, rate_hz, seed):
    """The sample indices to reboot before: the stream's ends, one past the last
    sample, a dwell, a faulted segment, a back-to-back pair and 12 random ones."""
    ts = sample_times(rate_hz, truth.duration_ms)
    n = len(ts)

    def inside(spans):
        return np.flatnonzero(np.any([(ts >= a) & (ts < b) for a, b in spans], axis=0))

    in_dwell = inside([(w.t0_ms, w.t1_ms) for w in truth.stop_windows])
    # segments 4-15 are faulted in the worst case
    in_fault = inside([(s.t0_ms, s.t1_ms) for s in truth.segments[4:]])
    empty = [s for s in truth.segments if len(inside([(s.t0_ms, s.t1_ms)])) == 0]
    rng = np.random.default_rng(seed)
    twice = int(rng.integers(1, n - 1))
    reboot_at = [
        0,
        n - 1,
        n,  # after the last sample
        int(in_dwell[len(in_dwell) // 2]),
        int(in_fault[len(in_fault) // 3]),
        twice,
        twice,  # back to back
        twice + 1,
        *rng.integers(0, n, size=12).tolist(),
    ]
    return reboot_at, empty


def drive_blocks(sensor, reboot_at, ahead):
    """The positions ``drive`` yields, read from ``xy``: before each reboot
    at sample k the sensor fills ``ahead(k)`` samples, which may run past k."""
    for k in sorted(reboot_at):
        sensor.fill(ahead(k))
        r = len(sensor.reboots)
        sensor.reboot(Position2D(100.0 + 37.5 * r, 200.0 - 12.25 * r), at=k)
    sensor.fill(len(sensor.ts))
    return [Position2D(x, y) for x, y in sensor.xy.tolist()]


class TestHandOver:
    def test_synthesized_streams_adopt_their_fresh_arrays(self, monkeypatch):
        truth = build_truth(two_stop_plan())
        made = record_streams(monkeypatch, simulate)
        uwb, vo = synth_uwb(truth, UwbModel(), 0).samples, synth_vo(truth, VoModel(), 0).samples
        assert [stream for _, _, stream in made] == [uwb, vo]
        assert all(adopted(*call) for call in made)

    def test_sensor_timestamps_are_read_only_and_its_streams_share_them(self):
        truth = build_truth(two_stop_plan())
        sensor = VoSensor(truth, VoModel(), 0)
        assert not sensor.ts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sensor.ts[0] = 1
        assert np.shares_memory(Stream(sensor.ts, np.zeros((len(sensor.ts), 2)), VO).t_ms, sensor.ts)


class TestSensorOracle:
    """The block sensor against the per-sample oracle, sample for sample."""

    @pytest.mark.parametrize("rate_hz", [200.0, 0.5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_reboots_equal_oracle(self, rate_hz, seed):
        truth = build_truth(short_dwell_loop())
        model = replace(worst_case_scenario().vo, rate_hz=rate_hz)
        reboot_at, empty = reboot_points(truth, rate_hz, seed)
        # at 0.5 Hz some segments hold no sample: the "skipped entirely" branch
        assert (len(empty) > 0) == (rate_hz < 1.0)
        block = VoSensor(truth, model, seed)
        loop = LoopVoSensor(truth, model, seed)
        assert drive(block, reboot_at) == drive(loop, reboot_at)
        assert block.reboots == loop.reboots
        assert len(block.reboots) == len(reboot_at)

    @pytest.mark.parametrize("rate_hz", [200.0, 0.5])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_block_reads_with_reboots_back_equal_oracle(self, rate_hz, seed):
        truth = build_truth(short_dwell_loop())
        model = replace(worst_case_scenario().vo, rate_hz=rate_hz)
        reboot_at, _ = reboot_points(truth, rate_hz, seed)
        loop = LoopVoSensor(truth, model, seed)
        expected = [pos for _, pos in drive(loop, reboot_at)[:-1]]
        n = len(loop.ts)
        # fill the block holding k (k may start the next block), or the whole stream
        for ahead in (lambda k: min(k + 1, n), lambda k: n):
            block = VoSensor(truth, model, seed)
            assert drive_blocks(block, reboot_at, ahead) == expected
            assert block.reboots == loop.reboots

    def test_reboot_at_a_sample_ignores_what_was_filled_first(self):
        """A reboot at sample k gives the oracle's stream however far the
        sensor had filled: none, up to k, the block starting at k, or the
        whole stream. Here k is the first sample of the first faulted
        segment, so it starts a block, and the reboot must keep that
        segment's fault, which only starts at sample k."""
        scenario = worst_case_scenario()
        truth = build_truth(scenario.plan)
        ts = sample_times(scenario.vo.rate_hz, truth.duration_ms)
        n = len(ts)
        k = int(np.searchsorted(ts, truth.segments[4].t0_ms))
        expected = [pos for _, pos in drive(LoopVoSensor(truth, scenario.vo, 0), [k])[:-1]]
        for filled in (0, k, k + 1, n):
            sensor = VoSensor(truth, scenario.vo, seed=0)
            sensor.fill(filled)
            sensor.reboot(Position2D(100.0, 200.0), at=k)
            assert sensor.count == k
            sensor.fill(n)
            assert [Position2D(x, y) for x, y in sensor.xy.tolist()] == expected, filled

    def test_a_reboot_before_the_first_leg_keeps_its_fault(self):
        # the reboot replays the segment events from the stream's start, so
        # a reboot at sample 0 or in the first dwell leaves leg 0 to come,
        # and leg 0's fault acts on it
        truth = build_truth(short_dwell_loop())
        fault = ScaleFaultSpec(0.0, (0.70, 0.88), forced_segments=(0,))
        model = replace(worst_case_scenario().vo, underestimate=fault)
        ts = sample_times(model.rate_hz, truth.duration_ms)
        in_dwell = int(np.searchsorted(ts, truth.segments[0].t0_ms)) // 2
        for at in (0, in_dwell):
            loop = LoopVoSensor(truth, model, 0)
            assert drive(VoSensor(truth, model, 0), [at]) == drive(loop, [at])
            assert loop.reboots

    def test_reboot_outside_the_stream_is_refused(self):
        scenario = worst_case_scenario()
        sensor = VoSensor(build_truth(scenario.plan), scenario.vo, seed=0)
        n = len(sensor.ts)
        for at in (-1, n + 1):
            with pytest.raises(ValueError, match="outside the stream"):
                sensor.reboot(Position2D(0.0, 0.0), at=at)
        assert sensor.reboots == [] and sensor.count == 0

    @pytest.mark.parametrize(
        "preset, seed", [("default", 0), ("worst-case", 1), ("best-case", 2)]
    )
    def test_synth_vo_equals_oracle_drain(self, preset, seed):
        scenario = SCENARIO_PRESETS[preset]()
        truth = build_truth(scenario.plan)
        batch = synth_vo(truth, scenario.vo, seed).samples
        drained = [(t, [pos.x, pos.y]) for t, pos in LoopVoSensor(truth, scenario.vo, seed)]
        assert list(zip(batch.t_ms.tolist(), batch.xy.tolist())) == drained


_WORST_TRUTH = build_truth(worst_case_scenario().plan)
_GRIDS = {rate: sample_times(rate, _WORST_TRUTH.duration_ms) for rate in (200.0, 0.5)}


def event_times(ts: np.ndarray):
    """Event times around a timestamp grid: integers (the samples' own
    among them), the floats one ulp either side of them, the truth's
    segment times, any time up to twice the grid's span, and ``inf``."""
    last = int(ts[-1])
    ints = st.one_of(st.integers(-3, last + 3000), st.sampled_from(ts.tolist()))
    events = [t for seg in _WORST_TRUTH.segments for t in (seg.t0_ms, seg.t1_ms)]
    return st.one_of(
        ints.map(float),
        st.tuples(ints, st.sampled_from([-math.inf, math.inf])).map(
            lambda p: math.nextafter(float(p[0]), p[1])
        ),
        st.sampled_from(events),
        st.floats(-10.0, 2.0 * last, allow_nan=False),
        st.just(math.inf),
    )


_EVENT_TIMES = {rate: event_times(ts) for rate, ts in _GRIDS.items()}


class TestBlockEnd:
    """``fill`` ends a block at the first sample at or past the next event."""

    @pytest.mark.parametrize("rate_hz", [200.0, 0.5])
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_integer_key_finds_the_float_key_index(self, rate_hz, data):
        ts = _GRIDS[rate_hz]
        t = data.draw(_EVENT_TIMES[rate_hz])
        assert _first_at_or_after(ts, t) == int(np.searchsorted(ts, t))

    @pytest.mark.parametrize("rate_hz", [200.0, 0.5])
    def test_block_end_at_the_grid_edges(self, rate_hz):
        ts = _GRIDS[rate_hz]
        n, last = len(ts), float(ts[-1])
        assert _first_at_or_after(ts, math.inf) == n
        assert _first_at_or_after(ts, math.nextafter(last, math.inf)) == n
        assert _first_at_or_after(ts, last) == n - 1
        assert _first_at_or_after(ts, math.nextafter(last, -math.inf)) == n - 1
        assert _first_at_or_after(ts, -0.0) == 0
        assert _first_at_or_after(ts, math.nextafter(0.0, math.inf)) == 1

    def test_whole_stream_fill_allocates_less_than_its_timestamps(self):
        # a float key cast all of ts to float64 per block: the fill then
        # peaked at 718 KB against ts's 588 KB, and at 400 KB without it
        scenario = worst_case_scenario()
        sensor = VoSensor(_WORST_TRUTH, scenario.vo, seed=0)
        tracemalloc.start()
        try:
            sensor.fill(len(sensor.ts))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sensor.count == len(sensor.ts)
        assert peak < sensor.ts.nbytes


class TestScenarios:
    def test_default_scenario_shape(self):
        scenario = default_scenario()
        stops = scenario.plan.stops
        assert len(stops) == 16
        assert stops[0] == Position2D(1000.0, 0.0)
        assert stops[5] == Position2D(3000.0, 1500.0)  # sixth stop
        named = {
            (2000.0, 0.0),
            (3000.0, 1000.0),
            (3000.0, 2000.0),
            (0.0, 2000.0),
            (0.0, 1000.0),
        }
        assert named <= {(p.x, p.y) for p in stops}
        assert scenario.plan.closed  # the loop returns to the first stop
        assert scenario.plan.min_stop_separation() == 500.0
        truth = build_truth(scenario.plan)
        assert truth.stop_windows[-1].stop_index == 0

    def test_worst_case_faults_every_seed_from_sixth_stop(self):
        scenario = worst_case_scenario()
        truth = build_truth(scenario.plan)
        for seed in range(5):
            faults = synth_vo(truth, scenario.vo, seed).faults
            segs = {f.segment_index for f in faults}
            assert segs == set(range(4, 16))
        arriving = {scenario.plan.stops.index(truth.segments[i].end) for i in range(4, 16)}
        assert 5 in arriving  # the sixth stop is where trouble starts

    def test_best_case_has_no_faults(self):
        scenario = best_case_scenario()
        truth = build_truth(scenario.plan)
        assert synth_vo(truth, scenario.vo, 0).faults == []

    def test_sample_times_end_at_or_before_the_duration(self):
        # sample k is taken at k * period; the last one is the last k with
        # k * period <= duration in exact arithmetic, also where the duration
        # is m * period rounded below its exact value, and sample m is not taken
        rounded_below = 0
        for rate in (3.0, 27.0, 200.0):
            period = 1000.0 / rate
            for m in range(1, 400):
                duration = m * period
                n = math.floor(Fraction(duration) / Fraction(period)) + 1
                assert len(sample_times(rate, duration)) == n
                rounded_below += n == m
        assert rounded_below > 0

    @pytest.mark.parametrize("sensor", ["uwb", "vo"])
    def test_a_stream_of_max_samples_is_accepted_and_one_more_refused(self, sensor):
        # at 1 kHz sample k is taken at k ms, so a flight of d ms gives
        # floor(d) + 1 samples; no stream is simulated
        bound = simulate.MAX_SAMPLES
        plan = FlightPlan((Position2D(0.0, 0.0), Position2D(1000.0, 0.0)), 1000.0, 500.0, 1000.0,
                          closed=False)
        leg_ms = build_truth(plan).duration_ms - 2000.0

        def scenario(duration_ms):
            flight = replace(plan, dwell_ms=(duration_ms - leg_ms) / 2.0)
            assert math.floor(build_truth(flight).duration_ms) == math.floor(duration_ms)
            model = UwbModel(rate_hz=1000.0) if sensor == "uwb" else VoModel(rate_hz=1000.0)
            return ScenarioConfig("at-the-bound", flight, **{sensor: model})

        scenario(bound - 0.5)
        with pytest.raises(
            ValueError,
            match=rf"gives {bound + 1} {sensor.upper()} samples, more than the {bound} ",
        ):
            scenario(bound + 0.5)

    def test_sample_times_grid(self):
        ts = sample_times(200.0, 100.0)
        assert list(ts) == [0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 100]
        ts27 = sample_times(27.0, 150.0)
        assert list(ts27) == [0, 37, 74, 111, 148]
