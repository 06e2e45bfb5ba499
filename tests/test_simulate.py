import math

import numpy as np
import pytest

from conftest import positions
from vo_oracle import LoopVoSensor
from uwbvo.core import FlightPlan, Position2D, euclidean
from uwbvo.simulate import (
    SCENARIO_PRESETS,
    GroundTruth,
    RaySpec,
    ScaleFaultSpec,
    UwbModel,
    VoModel,
    VoSensor,
    build_truth,
    best_case_scenario,
    default_scenario,
    sample_times,
    simulate_pair,
    synth_uwb,
    synth_vo,
    worst_case_scenario,
)
from dataclasses import replace


def state_at(truth: GroundTruth, t_ms: float) -> tuple[Position2D, float, float]:
    """Pose plus speed (mm/s) and heading (rad) at ``t_ms``, from the truth's phases."""
    t = min(max(t_ms, 0.0), truth.duration_ms)
    idx = int(truth._phase_index(np.array([t]))[0])
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
        truth = build_truth(default_scenario().plan)
        for w in truth.stop_windows:
            stop = truth.plan.stops[w.stop_index]
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
        expected = sum(seg.length_mm for seg in truth.segments)
        assert crawled == pytest.approx(expected, rel=1e-6)

    def test_speed_profile_continuous_and_capped(self):
        truth = build_truth(two_stop_plan(length=5000.0))
        ts = np.linspace(0.0, truth.duration_ms, 20_001)
        speeds = np.array([state_at(truth, float(t))[1] for t in ts])
        assert speeds.max() <= 500.0 + 1e-9
        assert np.all(np.abs(np.diff(speeds)) < 5.0)  # no jumps at phase edges

    def test_short_segment_triangular_profile(self):
        # 100 mm at accel 1000 never reaches cruise: peak = sqrt(a L)
        truth = build_truth(two_stop_plan(length=100.0))
        seg = truth.segments[0]
        peak = max(state_at(truth, t)[1] for t in np.linspace(seg.t0_ms, seg.t1_ms, 2001))
        assert peak == pytest.approx(math.sqrt(1000.0 * 100.0), rel=1e-3)

    def test_times_clamp_to_flight(self):
        truth = build_truth(two_stop_plan())
        assert truth.pose_at(-50.0) == truth.plan.stops[0]
        assert truth.pose_at(truth.duration_ms + 99.0) == truth.plan.stops[1]


class TestSynthUwb:
    def test_noiseless_matches_truth(self):
        truth = build_truth(two_stop_plan())
        model = UwbModel(sigma_mm=0.0, ray=RaySpec(prob_per_stop=0.0))
        trace = synth_uwb(truth, model, seed=0)
        ts = np.array([s.t_ms for s in trace.samples], dtype=float)
        assert np.allclose(positions(trace.samples), truth.sample(ts), atol=0.051)

    def test_noise_std_calibration(self):
        # 10k+ samples: empirical per-axis std within 5% of sigma
        plan = two_stop_plan(dwell=120_000.0)
        truth = build_truth(plan)
        model = UwbModel(rate_hz=50.0, sigma_mm=50.0, ray=RaySpec(prob_per_stop=0.0))
        trace = synth_uwb(truth, model, seed=1)
        assert len(trace.samples) > 10_000
        ts = np.array([s.t_ms for s in trace.samples], dtype=float)
        residual = positions(trace.samples) - truth.sample(ts)
        assert np.allclose(residual.std(axis=0), 50.0, rtol=0.05)

    def test_rays_sit_late_in_dwell_and_point_one_way(self):
        truth = build_truth(default_scenario().plan)
        model = UwbModel(sigma_mm=0.0, ray=RaySpec(prob_per_stop=1.0, length_mm=600, count=30))
        trace = synth_uwb(truth, model, seed=2)
        assert len(trace.rays) == len(truth.stop_windows)
        ts = np.array([s.t_ms for s in trace.samples], dtype=float)
        xy = positions(trace.samples)
        for event in trace.rays:
            window = truth.stop_windows[event.window_ordinal]
            frac = (event.t_onset_ms - window.t0_ms) / (window.t1_ms - window.t0_ms)
            assert 0.5 <= frac <= 0.85
            stop = truth.plan.stops[event.stop_index]
            sel = (ts >= event.t_onset_ms) & (ts <= window.t1_ms)
            offsets = xy[sel] - (stop.x, stop.y)
            dists = np.hypot(offsets[:, 0], offsets[:, 1])
            displaced = offsets[dists > 20.0]
            angles = np.arctan2(displaced[:, 1], displaced[:, 0])
            spread = np.ptp(np.unwrap(np.sort(angles)))
            assert spread < 0.01  # collinear: a ray, not a blob
            assert dists.max() == pytest.approx(600.0, rel=1e-3)


class TestSynthVo:
    def test_noiseless_no_faults_exact(self):
        truth = build_truth(two_stop_plan())
        model = VoModel(sigma_mm=0.0, underestimate=ScaleFaultSpec(0.0, (0.7, 0.9), ()))
        trace = synth_vo(truth, model, seed=0)
        assert trace.faults == []
        ts = np.array([s.t_ms for s in trace.samples], dtype=float)
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
        ts = np.array([s.t_ms for s in trace.samples], dtype=float)
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
        ts = np.array([s.t_ms for s in trace.samples], dtype=float)
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
        live = list(VoSensor(truth, scenario.vo, seed=3))
        assert live == list(batch)

    def test_reboot_reanchors_and_clears_active_fault(self):
        truth = build_truth(two_stop_plan(length=1000.0))
        model = VoModel(
            sigma_mm=0.0,
            underestimate=ScaleFaultSpec(0.0, (0.7, 0.7), forced_segments=(0,)),
        )
        sensor = VoSensor(truth, model, seed=0)
        seg = truth.segments[0]
        t_mid_seg = 0.5 * (seg.t0_ms + seg.t1_ms)
        for s in sensor:
            if s.t_ms >= t_mid_seg:
                break
        anchor = Position2D(123.0, 456.0)
        sensor.reboot(anchor)
        first = next(sensor)
        true_at_reboot = truth.pose_at(sensor.reboots[-1])
        true_now = truth.pose_at(first.t_ms)
        expected_x = anchor.x + (true_now.x - true_at_reboot.x)
        # re-anchored at the supplied position, fault no longer applies
        assert first.pos.x == pytest.approx(expected_x, abs=0.06)
        assert first.pos.y == pytest.approx(anchor.y, abs=0.06)
        tail = [s for s in sensor]
        final_true = truth.plan.stops[1]
        final_expected_x = anchor.x + (final_true.x - true_at_reboot.x)
        assert tail[-1].pos.x == pytest.approx(final_expected_x, abs=0.06)


def short_dwell_loop() -> FlightPlan:
    """The preset loop with 2 s dwells: every event kind, ~12k VO samples."""
    return replace(default_scenario().plan, dwell_ms=2000.0)


def drive(sensor, reboot_at):
    """Every sample, rebooting before sample k once per occurrence of k.

    ``k == len(sensor.ts)`` reboots after the last sample. Each reboot gets
    its own anchor.
    """
    out = []
    for k in range(len(sensor.ts) + 1):
        for _ in range(reboot_at.count(k)):
            r = len(sensor.reboots)
            sensor.reboot(Position2D(100.0 + 37.5 * r, 200.0 - 12.25 * r))
        out.append(next(sensor, None))
    return out


def reboot_points(truth, rate_hz, seed):
    """Sample indices to reboot before: the stream's ends, one past the last
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
        expected = [s.pos for s in drive(loop, reboot_at)[:-1]]
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
        expected = [s.pos for s in drive(LoopVoSensor(truth, scenario.vo, 0), [k])[:-1]]
        for filled in (0, k, k + 1, n):
            sensor = VoSensor(truth, scenario.vo, seed=0)
            sensor.fill(filled)
            sensor.reboot(Position2D(100.0, 200.0), at=k)
            assert sensor.count == k
            sensor.fill(n)
            assert [Position2D(x, y) for x, y in sensor.xy.tolist()] == expected, filled

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
        assert list(batch) == list(LoopVoSensor(truth, scenario.vo, seed))


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
        assert {(a.x, a.y) for a in scenario.anchors} == {
            (3000.0, 0.0),
            (3000.0, 3000.0),
            (0.0, 3000.0),
            (0.0, 0.0),
        }
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
        arriving = {truth.segments[i].to_stop for i in range(4, 16)}
        assert 5 in arriving  # the sixth stop is where trouble starts

    def test_best_case_has_no_faults(self):
        scenario = best_case_scenario()
        truth = build_truth(scenario.plan)
        assert synth_vo(truth, scenario.vo, 0).faults == []

    def test_sample_times_grid(self):
        ts = sample_times(200.0, 100.0)
        assert list(ts) == [0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 100]
        ts27 = sample_times(27.0, 150.0)
        assert list(ts27) == [0, 37, 74, 111, 148]
