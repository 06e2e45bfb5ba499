import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pipeline_oracle as oracle
from conftest import filtered_uwb, replay_pipeline, stop_error
from pipeline_oracle import mode_select
from test_fusion_loop import both_modes
from uwbvo.clustering import ClusterParams
from uwbvo.config import default_pipeline_params
from uwbvo.core import FlightPlan, Position2D, euclidean, nearest_indices
from uwbvo.metrics import stop_accuracy
from uwbvo.pipeline import (
    KALMAN_SELECTED,
    VO_SELECTED,
    PipelineParams,
    StopDetectionFailure,
    corrected_vo,
    run_pipeline_live,
    stop_visits,
    update_correction,
)
from uwbvo.simulate import (
    SCENARIO_PRESETS,
    RaySpec,
    ScaleFaultSpec,
    ScenarioConfig,
    UwbModel,
    VoModel,
    VoSensor,
    build_truth,
    sample_times,
    simulate_pair,
    synth_uwb,
)


def test_corrected_vo_algebra():
    x = Position2D(940.0, 10.0)
    assert corrected_vo(x, Position2D(0.0, 0.0)) == x
    assert corrected_vo(Position2D(940.0, 0.0), Position2D(60.0, 0.0)) == Position2D(1000.0, 0.0)
    w = Position2D(13.0, -4.5)
    back = corrected_vo(corrected_vo(x, w), Position2D(-w.x, -w.y))
    assert euclidean(back, x) < 1e-12


def test_mode_select_boundary():
    y_u = Position2D(0.0, 0.0)
    assert mode_select(Position2D(0.0, 0.0), y_u, 30.0) == VO_SELECTED
    assert mode_select(Position2D(30.0, 0.0), y_u, 30.0) == KALMAN_SELECTED  # >= beta
    assert mode_select(Position2D(29.9, 0.0), y_u, 30.0) == VO_SELECTED
    # 20-25 hypotenuse is ~32.0, above a 30 mm threshold
    assert mode_select(Position2D(0.0, 0.0), Position2D(20.0, 25.0), 30.0) == KALMAN_SELECTED


def ulp_ties(d, rounds):
    """``math.hypot`` of the rows of ``d`` where ``np.hypot`` rounds the
    other way by ``rounds`` (``np.less`` or ``np.greater``), in tick order."""
    exact = np.array([math.hypot(x, y) for x, y in d.tolist()])
    return exact[rounds(np.hypot(d[:, 0], d[:, 1]), exact)]


def test_beta_on_a_tick_where_np_hypot_rounds_below():
    # no stop is corrected on this seed, so w stays 0 and the mode at each
    # tick compares |vo[near] - y_u| with beta
    scenario, seed = SCENARIO_PRESETS["best-case"](), 3
    params = default_pipeline_params()
    pair, _, _ = simulate_pair(scenario, seed)
    uwb = filtered_uwb(pair, scenario.plan, params)
    d = pair.vo.xy[nearest_indices(pair.vo.t_ms, uwb.t_ms)] - uwb.xy
    ties = ulp_ties(d, np.less)
    beta = float(ties[np.argmin(np.abs(ties - 30.0))])
    params = replace(params, beta_mm=beta)
    replay, _, _ = both_modes(scenario, seed, params)
    assert not replay.restarts
    # the tie decides a mode: one ulp higher, that tick trusts the VO, as it
    # would if np.hypot decided it
    above = replace(params, beta_mm=math.nextafter(beta, math.inf))
    above_kalman = oracle.run_pipeline(pair, scenario.plan, above).kalman
    assert not np.array_equal(above_kalman, replay.kalman)


def test_gamma_on_a_tick_where_np_hypot_rounds_above():
    # no dwell reaches this k2: every gated tick from a detector's start to
    # its visit's close is counted, and the count shows in samples_consumed
    scenario, seed = SCENARIO_PRESETS["worst-case"](), 0
    base = default_pipeline_params()
    params = replace(base, cluster=replace(base.cluster, k2=100_000))
    pair, _, _ = simulate_pair(scenario, seed)
    uwb = filtered_uwb(pair, scenario.plan, params)
    ties = []
    for v in stop_visits(scenario.plan):
        stop = scenario.plan.stops[v.stop_index]
        in_visit = (uwb.t_ms >= v.t0_ms) & (uwb.t_ms <= v.t1_ms)
        ties.extend(ulp_ties(uwb.xy[in_visit] - (stop.x, stop.y), np.greater))
    ties = np.array(ties)
    gamma = float(ties[np.argmin(np.abs(ties - 100.0))])
    params = replace(params, cluster=replace(params.cluster, gamma_mm=gamma))
    replay, _, _ = both_modes(scenario, seed, params)
    # the tie decides a gate: one ulp lower, that tick is not counted, as it
    # would not be if np.hypot decided it
    below = replace(params, cluster=replace(params.cluster, gamma_mm=math.nextafter(gamma, 0.0)))
    assert oracle.run_pipeline(pair, scenario.plan, below).stop_events != replay.stop_events


def test_update_correction_rule():
    w0 = Position2D(0.0, 0.0)
    w1, restart = update_correction(Position2D(1000.0, 0.0), Position2D(940.0, 0.0), w0, 30.0)
    assert restart and w1 == Position2D(60.0, 0.0)
    w2, restart = update_correction(Position2D(1000.0, 0.0), Position2D(990.0, 0.0), w1, 30.0)
    assert not restart and w2 == w1
    w3, restart = update_correction(Position2D(500.0, 540.0), Position2D(500.0, 500.0), w2, 30.0)
    assert restart and w3 == Position2D(60.0, 40.0)  # corrections accumulate


def test_a_correction_of_exactly_beta_is_folded_into_w():
    # README: a stop estimate that disagrees with the closest corrected-VO
    # vertex by at least beta is added to w, and a restart is requested
    # a 30-40-50 triangle: the distance is exactly 50.0
    s_prime, y_oi, w = Position2D(130.0, 40.0), Position2D(100.0, 0.0), Position2D(5.0, -2.0)
    assert update_correction(s_prime, y_oi, w, 50.0) == (Position2D(35.0, 38.0), True)
    assert update_correction(s_prime, y_oi, w, math.nextafter(50.0, 51.0)) == (w, False)


def test_beta_defaults_to_the_readmes():
    # "mutual-error threshold beta = 30 mm"
    assert PipelineParams().beta_mm == 30.0


def test_parameters_and_decisions_are_immutable_values():
    # one parameter set serves every method and worker of a run, and a
    # decision is a record: all are frozen, hashable values
    scenario = scenario_two_stop(seg_scale=0.7)
    pair, _, _ = simulate_pair(scenario, 1)
    track = replay_pipeline(pair, scenario.plan, small_params())
    est = track.stop_events[0].estimate
    for value, name in ((ClusterParams(), "k1"), (PipelineParams(), "beta_mm"),
                        (est, "support"), (track.stop_events[0], "restart")):
        hash(value)
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, getattr(value, name))


def test_beta_must_be_positive():
    with pytest.raises(ValueError, match="beta_mm must be finite and positive"):
        PipelineParams(beta_mm=0.0)
    assert PipelineParams(beta_mm=5e-324).beta_mm == 5e-324


def test_finish_decides_at_a_support_of_exactly_k1():
    # README: k1 neighbours flag a suspected cluster. With k2 out of reach
    # no detector terminates, so each visit is decided from finish() when
    # its support reaches k1
    scenario, seed = SCENARIO_PRESETS["worst-case"](), 0
    base = default_pipeline_params()
    pair, _, _ = simulate_pair(scenario, seed)

    def events(k1):
        params = replace(base, cluster=replace(base.cluster, k1=k1, k2=100_000))
        return replay_pipeline(pair, scenario.plan, params).stop_events

    every = events(1)
    assert not any(e.estimate.complete for e in every)
    k1 = min(e.estimate.support for e in every)
    # every support reaches k1, the least of them exactly, so every visit
    # is decided as before
    assert events(k1) == every
    # one more, and the visit of the least support is not decided
    try:
        assert events(k1 + 1) != every
    except StopDetectionFailure as exc:
        assert exc.support == k1


def scenario_two_stop(
    seg_scale=None, sigma_uwb=10.0, sigma_vo=0.0, length=1000.0
) -> ScenarioConfig:
    plan = FlightPlan(
        stops=(Position2D(0.0, 0.0), Position2D(length, 0.0)),
        dwell_ms=15000.0,
        cruise_mm_s=500.0,
        accel_mm_s2=1000.0,
        closed=False,
    )
    forced = (0,) if seg_scale is not None else ()
    scale = seg_scale if seg_scale is not None else 0.7
    return ScenarioConfig(
        name="test",
        plan=plan,
        uwb=UwbModel(sigma_mm=sigma_uwb, ray=RaySpec(prob_per_stop=0.0)),
        vo=VoModel(
            sigma_mm=sigma_vo,
            underestimate=ScaleFaultSpec(0.0, (scale, scale), forced_segments=forced),
        ),
    )


def small_params(beta=30.0):
    return PipelineParams(
        beta_mm=beta,
        cluster=ClusterParams(alpha_mm=10.0, k1=40, k2=120, gamma_mm=100.0),
    )


def test_noiseless_streams_pass_vo_through():
    # exact streams: never a correction, and the output IS the VO stream
    # wherever the VO is trusted; the filtered-UWB side lags the flight
    # legs, so brief distrust transients there are tolerated
    scenario = scenario_two_stop(sigma_uwb=0.0)
    pair, _, _ = simulate_pair(scenario, 0)
    track = replay_pipeline(pair, scenario.plan, small_params())
    assert track.restarts == []
    assert track.w_history == [(0, 0.0, 0.0)]
    assert len(track.samples) == len(pair.vo)
    assert track.samples.t_ms.tolist() == pair.vo.t_ms.tolist()
    vo_mode = ~track.kalman
    assert track.samples.xy[vo_mode].tolist() == pair.vo.xy[vo_mode].tolist()
    # dwell cores are always VO-trusted on exact streams
    truth = build_truth(scenario.plan)
    t = track.samples.t_ms
    for w in truth.stop_windows:
        assert vo_mode[(w.t0_ms + 3000.0 <= t) & (t <= w.t1_ms)].all()


def test_correction_algebra_on_injected_fault():
    # 0.7-scale fault on a 1000 mm leg: 300 mm of displacement goes missing
    scenario = scenario_two_stop(seg_scale=0.7)
    truth = build_truth(scenario.plan)
    pair, _, _ = simulate_pair(scenario, 1)
    uncorrected = stop_accuracy(pair.vo, truth)
    assert uncorrected.avg_mm >= 140.0  # 300 mm miss at the far stop

    track = replay_pipeline(pair, scenario.plan, small_params())
    assert len(track.restarts) == 1
    event = track.stop_events[0]
    assert event.restart and event.stop_index == 1
    assert euclidean(event.estimate.pos, scenario.plan.stops[1]) <= 10.0
    assert stop_error(track.samples, truth, 1) <= 20.0
    assert stop_error(pair.vo, truth, 1) >= 280.0


def test_post_correction_state_matches_estimate():
    scenario = scenario_two_stop(seg_scale=0.7)
    pair, _, _ = simulate_pair(scenario, 2)
    track = replay_pipeline(pair, scenario.plan, small_params())
    event = track.stop_events[0]
    w = Position2D(*track.w_history[-1][1:])
    realigned = corrected_vo(
        Position2D(event.closest_vo.x - track.w_history[0][1], event.closest_vo.y),
        w,
    )
    # w + y_oi == s' by construction of the update
    assert euclidean(realigned, event.estimate.pos) < 1e-9


def test_w_changes_only_at_corrections():
    scenario = scenario_two_stop(seg_scale=0.7)
    pair, _, _ = simulate_pair(scenario, 3)
    track = replay_pipeline(pair, scenario.plan, small_params())
    assert len(track.w_history) == 1 + len(track.restarts)
    ts = [t for t, _, _ in track.w_history]
    assert ts == sorted(ts)


def test_correction_applied_once_not_compounded():
    # the output jump at a correction instant stays within the measured
    # sensor discrepancy (plus one sample of ordinary motion)
    scenario = scenario_two_stop(seg_scale=0.7)
    pair, _, _ = simulate_pair(scenario, 9)
    track = replay_pipeline(pair, scenario.plan, small_params())
    event = track.stop_events[0]
    assert event.restart
    k = int(np.searchsorted(track.samples.t_ms, event.t_ms))
    jump = math.hypot(*(track.samples.xy[k + 1] - track.samples.xy[k]))
    assert jump <= event.distance_mm + 5.0


def test_restart_timestamps_strictly_increase_and_monotone_beta():
    scenario = scenario_two_stop(seg_scale=0.7)
    pair, _, _ = simulate_pair(scenario, 4)
    r3 = replay_pipeline(pair, scenario.plan, small_params(beta=30.0)).restarts
    r6 = replay_pipeline(pair, scenario.plan, small_params(beta=60.0)).restarts
    assert len(r3) >= len(r6)
    ts = [t for t, _ in r3]
    assert ts == sorted(set(ts))


def test_below_threshold_discrepancy_not_corrected():
    # 20 mm of missing displacement stays below a 30 mm threshold
    scenario = scenario_two_stop(seg_scale=0.98)
    pair, _, _ = simulate_pair(scenario, 5)
    track = replay_pipeline(pair, scenario.plan, small_params())
    assert track.restarts == []


def test_stop_detection_failure_aborts_with_stop_index():
    scenario = scenario_two_stop(seg_scale=0.7)
    pair, _, _ = simulate_pair(scenario, 6)
    params = PipelineParams(
        beta_mm=30.0,
        cluster=ClusterParams(alpha_mm=10.0, k1=9000, k2=9500, gamma_mm=100.0),
    )
    with pytest.raises(StopDetectionFailure, match="stop 2"):
        replay_pipeline(pair, scenario.plan, params)


def test_gamma_overlap_rejected():
    plan = FlightPlan(
        stops=(Position2D(0.0, 0.0), Position2D(150.0, 0.0)),
        dwell_ms=1000.0,
        cruise_mm_s=500.0,
        accel_mm_s2=1000.0,
        closed=False,
    )
    scenario = ScenarioConfig(
        "t", plan, UwbModel(ray=RaySpec(prob_per_stop=0.0)), VoModel()
    )
    pair = simulate_pair(scenario, 0)[0]
    with pytest.raises(ValueError, match="mm apart"):
        replay_pipeline(pair, plan, small_params())


def test_live_mode_reboot_reanchors_next_segment():
    plan = FlightPlan(
        stops=(Position2D(0.0, 0.0), Position2D(1000.0, 0.0), Position2D(1000.0, 1000.0)),
        dwell_ms=15000.0,
        cruise_mm_s=500.0,
        accel_mm_s2=1000.0,
        closed=False,
    )
    scenario = ScenarioConfig(
        name="live",
        plan=plan,
        uwb=UwbModel(sigma_mm=20.0, ray=RaySpec(prob_per_stop=0.0)),
        vo=VoModel(
            sigma_mm=0.0,
            underestimate=ScaleFaultSpec(0.0, (0.7, 0.7), forced_segments=(0,)),
        ),
    )
    truth = build_truth(plan)
    uwb = synth_uwb(truth, scenario.uwb, seed=7).samples
    sensor = VoSensor(truth, scenario.vo, seed=7)
    track = run_pipeline_live(uwb, sensor, plan, small_params())
    assert len(track.restarts) == 1
    assert sensor.reboots  # the pipeline drove the sensor reboot
    # after the live reboot the second leg flies clean off the re-anchor
    assert stop_error(track.samples, truth, 2) <= 20.0

    # replay of the same fault cannot re-anchor: second leg inherits only
    # the w-correction, so it still lands close, but the sensor keeps its bias
    pair, _, _ = simulate_pair(scenario, 7)
    replay = replay_pipeline(pair, plan, small_params())
    assert len(replay.restarts) >= 1


def test_output_covers_every_vo_timestamp_in_kalman_mode_too():
    scenario = scenario_two_stop(seg_scale=0.7, sigma_uwb=40.0)
    pair, _, _ = simulate_pair(scenario, 8)
    track = replay_pipeline(pair, scenario.plan, small_params())
    assert track.samples.t_ms.tolist() == pair.vo.t_ms.tolist()
    assert track.kalman.any()


def assert_visit_ticks_in_order(plan: FlightPlan, uwb_t: np.ndarray) -> None:
    """The fusion loop's visit bounds over ``uwb_t``: each visit's first tick
    comes at or after the tick the previous visit closes at, and it closes
    at or after its first tick, so ``_run`` needs no clamp to its cursor."""
    visits = stop_visits(plan)
    assert all(a.t1_ms < b.t0_ms for a, b in zip(visits, visits[1:]))
    starts = np.searchsorted(uwb_t, [v.t0_ms for v in visits])
    closes = np.searchsorted(uwb_t, [v.t1_ms for v in visits], side="right")
    assert (starts[1:] >= closes[:-1]).all() and (closes >= starts).all()


@pytest.mark.parametrize("preset", sorted(SCENARIO_PRESETS))
def test_visit_ticks_in_order_on_presets(preset):
    scenario = SCENARIO_PRESETS[preset]()
    uwb = simulate_pair(scenario, 0)[0].uwb
    assert_visit_ticks_in_order(scenario.plan, uwb.t_ms)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=2, max_size=6),
    st.floats(1.0, 60_000.0),
    st.floats(10.0, 5_000.0),
    st.floats(10.0, 10_000.0),
    st.booleans(),
    st.floats(0.5, 200.0),
)
def test_visit_ticks_in_order_on_drawn_plans(cells, dwell_ms, cruise, accel, closed, rate_hz):
    # stops on a 100 mm grid; a plan must pass the default gamma's check
    stops = tuple(Position2D(100.0 * x, 100.0 * y) for x, y in cells)
    assume(len(set(stops)) == len(stops))
    plan = FlightPlan(stops, dwell_ms, cruise, accel, closed)
    gamma = ClusterParams().gamma_mm
    assume(plan.min_stop_separation() > 2 * gamma)
    plan.check_region_radius(gamma)
    assert_visit_ticks_in_order(plan, sample_times(rate_hz, build_truth(plan).duration_ms))
