"""The tick-driven fusion loop against the per-sample oracle, in replay and live.

``pipeline_oracle`` merges the two streams sample by sample and, live, drives
the per-sample ``vo_oracle.LoopVoSensor``; ``uwbvo.pipeline`` loops over the
UWB ticks only and reads a ``VoSensor`` in blocks. Both must produce the same
track, modes, stop decisions, restarts, correction vectors and sensor
reboots.
"""
from dataclasses import replace

import numpy as np
import pytest

import pipeline_oracle as oracle
from conftest import adopted, filtered_uwb, record_streams, replay_pipeline, rows
from uwbvo.config import default_pipeline_params
from uwbvo.core import CoverageError, Position2D, Stream, nearest_indices
from uwbvo import pipeline
from uwbvo.pipeline import MAX_UWB_AGE_MS, run_pipeline_live, uwb_age_bound_ms
from uwbvo.simulate import SCENARIO_PRESETS, VoSensor, build_truth, simulate_pair
from vo_oracle import LoopVoSensor


def assert_same_track(track, expected):
    assert track.samples == expected.samples
    assert np.array_equal(track.kalman, expected.kalman)
    assert track.stop_events == expected.stop_events
    # the same Python types too, not only equal values
    assert repr(track.stop_events) == repr(expected.stop_events)
    assert repr(track.restarts) == repr(expected.restarts)
    assert repr(track.w_history) == repr(expected.w_history)
    assert track.discarded_detectors == expected.discarded_detectors


def both_modes(scenario, seed, params, uwb_keep=slice(None)):
    """(replay track, live track, live sensor), each checked against the oracle.

    ``uwb_keep`` (a slice or an index array) selects the UWB samples kept.
    """
    pair, _, _ = simulate_pair(scenario, seed)
    uwb = rows(pair.uwb, uwb_keep)
    replay_pair = replace(pair, uwb=uwb)
    replay = replay_pipeline(replay_pair, scenario.plan, params)
    assert_same_track(replay, oracle.run_pipeline(replay_pair, scenario.plan, params))

    truth = build_truth(scenario.plan)
    sensor = VoSensor(truth, scenario.vo, seed)
    oracle_sensor = LoopVoSensor(truth, scenario.vo, seed)
    live = run_pipeline_live(uwb, sensor, scenario.plan, params)
    assert_same_track(live, oracle.run_pipeline_live(uwb, oracle_sensor, scenario.plan, params))
    assert sensor.reboots == oracle_sensor.reboots
    return replay, live, sensor


@pytest.mark.parametrize(
    "preset, seed", [("worst-case", 0), ("worst-case", 3), ("default", 0), ("default", 2)]
)
def test_presets_equal_oracle(preset, seed):
    replay, live, sensor = both_modes(
        SCENARIO_PRESETS[preset](), seed, default_pipeline_params()
    )
    if preset == "worst-case":
        assert replay.restarts and live.restarts and sensor.reboots


def test_tracks_adopt_their_positions_and_the_vo_timestamps(monkeypatch):
    scenario = SCENARIO_PRESETS["worst-case"]()
    params = default_pipeline_params()
    pair, _, _ = simulate_pair(scenario, 0)
    made = record_streams(monkeypatch, pipeline)
    replay = replay_pipeline(pair, scenario.plan, params)
    sensor = VoSensor(build_truth(scenario.plan), scenario.vo, 0)
    live = run_pipeline_live(pair.uwb, sensor, scenario.plan, params)
    # each run builds an empty stream first, then its track's
    tracks = [call for call in made if len(call[2])]
    assert [stream for _, _, stream in tracks] == [replay.samples, live.samples]
    assert all(adopted(*call) for call in tracks)
    assert np.shares_memory(replay.samples.t_ms, pair.vo.t_ms)
    assert np.shares_memory(live.samples.t_ms, sensor.ts)


def test_small_beta_forces_corrections_and_equals_oracle():
    # the VO has no fault in the best case: at the 30 mm default no stop is
    # corrected on this seed, at 5 mm the sensor noise alone forces some
    params = replace(default_pipeline_params(), beta_mm=5.0)
    replay, live, sensor = both_modes(SCENARIO_PRESETS["best-case"](), 0, params)
    assert replay.restarts and live.restarts and sensor.reboots


def test_a_restart_after_a_vo_tick_keeps_the_old_w_until_its_tick():
    # default preset, seed 2, beta 10 mm: stop 5 is corrected at a tick whose
    # previous tick trusted the VO, so the VO samples between the two ticks
    # are emitted with the w in force before the correction
    params = replace(default_pipeline_params(), beta_mm=10.0)
    replay, live, _ = both_modes(SCENARIO_PRESETS["default"](), 2, params)
    uwb_t = simulate_pair(SCENARIO_PRESETS["default"](), 2)[0].uwb.t_ms
    t = replay.samples.t_ms
    vo_before = []
    for e in replay.stop_events:
        k = int(np.searchsorted(uwb_t, e.t_ms))
        rows = slice(np.searchsorted(t, uwb_t[k - 1]), np.searchsorted(t, e.t_ms))
        if e.restart and e.estimate.complete and not replay.kalman[rows].any():
            vo_before.append(e.stop_index)
    assert vo_before == [5] and live.restarts


def test_discarded_detectors_equal_oracle():
    # best-case, seed 1, beta 60 mm: two detectors gather less support than
    # k1 and are discarded, their visits closing in VO mode
    params = replace(default_pipeline_params(), beta_mm=60.0)
    replay, live, _ = both_modes(SCENARIO_PRESETS["best-case"](), 1, params)
    assert replay.discarded_detectors == live.discarded_detectors == 2


def replay_equals_oracle(pair, plan, params):
    """``run_pipeline`` over ``pair``, checked against the oracle's replay."""
    track = replay_pipeline(pair, plan, params)
    assert_same_track(track, oracle.run_pipeline(pair, plan, params))
    return track


def test_vo_starting_after_the_first_visit_equals_oracle():
    # no VO sample before the first visit closes, and no k2 reached: the
    # first visit is decided at its close with no VO sample emitted, at
    # t = 0, against the first VO sample
    scenario = SCENARIO_PRESETS["worst-case"]()
    base = default_pipeline_params()
    params = replace(base, cluster=replace(base.cluster, k2=100_000))
    pair = simulate_pair(scenario, 0)[0]
    first = build_truth(scenario.plan).stop_windows[1]
    late = pair.vo.t_ms > first.t1_ms + 1000
    vo = rows(pair.vo, late)
    track = replay_equals_oracle(replace(pair, vo=vo), scenario.plan, params)
    assert (track.stop_events[0].stop_index, track.stop_events[0].t_ms) == (1, 0)
    assert track.stop_events[0].restart


def test_streams_past_the_plan_end_equal_oracle():
    # a recording that goes on for 3 s after the plan's last dwell: those
    # UWB ticks follow every visit, and their mode still decides the track
    scenario = SCENARIO_PRESETS["worst-case"]()
    pair = simulate_pair(scenario, 0)[0]
    end = build_truth(scenario.plan).duration_ms
    extra_u = np.arange(int(pair.uwb.t_ms[-1]) + 37, int(end) + 3000, 37)
    extra_v = np.arange(int(pair.vo.t_ms[-1]) + 5, int(end) + 3000, 5)
    # the UWB 200 mm off the VO: the samples after the plan are KALMAN
    uwb = Stream(np.r_[pair.uwb.t_ms, extra_u],
                 np.r_[pair.uwb.xy, np.tile(pair.vo.xy[-1] + (200.0, 0.0), (len(extra_u), 1))],
                 pair.uwb.source)
    vo = Stream(np.r_[pair.vo.t_ms, extra_v],
                np.r_[pair.vo.xy, np.tile(pair.vo.xy[-1], (len(extra_v), 1))], pair.vo.source)
    track = replay_equals_oracle(replace(pair, uwb=uwb, vo=vo), scenario.plan, default_pipeline_params())
    assert track.kalman[-len(extra_v) // 2 :].all()


def test_first_visit_compares_with_every_vo_sample_from_the_first():
    # a VO that flies away from stop 1 from its first sample on, that
    # sample nudged 20 mm toward the stop: the corrected-VO vertex closest
    # to stop 1's estimate is sample 0
    scenario = SCENARIO_PRESETS["worst-case"]()
    pair = simulate_pair(scenario, 0)[0]
    start = np.array([scenario.plan.stops[0].x, scenario.plan.stops[0].y])
    xy = 2 * start - pair.vo.xy
    xy[0] = start + (20.0, 0.0)
    vo = Stream(pair.vo.t_ms, xy, pair.vo.source)
    track = replay_equals_oracle(replace(pair, vo=vo), scenario.plan, default_pipeline_params())
    first = track.stop_events[0]
    assert first.stop_index == 1 and first.closest_vo == Position2D(*xy[0].tolist())


def test_live_decisions_before_a_cut_ignore_the_uwb_after_it():
    # run_pipeline_live filters the whole UWB stream before its first
    # decision, which equals an online run only while the filter and its
    # differencing windows look backward: cut the UWB inside a flight leg,
    # and every decision before the cut, with the track up to the last of
    # them, must be what the full stream gives
    scenario, seed = SCENARIO_PRESETS["worst-case"](), 0
    params = default_pipeline_params()
    uwb = simulate_pair(scenario, seed)[0].uwb
    truth = build_truth(scenario.plan)
    leg = truth.segments[8]
    cut = 0.5 * (leg.t0_ms + leg.t1_ms)
    n = int(np.searchsorted(uwb.t_ms, cut))
    runs = []
    for head in (uwb, rows(uwb, slice(n))):
        sensor = VoSensor(truth, scenario.vo, seed)
        runs.append((run_pipeline_live(head, sensor, scenario.plan, params), sensor))
    (full, full_sensor), (part, part_sensor) = runs
    before = [e for e in full.stop_events if e.t_ms < cut]
    assert 3 <= len(before) < len(full.stop_events)
    assert repr(part.stop_events) == repr(before)
    assert part.restarts and part.restarts == [r for r in full.restarts if r[0] < cut]
    assert part_sensor.reboots == full_sensor.reboots[: len(part.restarts)]
    upto = full.samples.t_ms <= before[-1].t_ms
    assert np.array_equal(part.samples.t_ms, full.samples.t_ms)
    assert np.array_equal(part.samples.xy[upto], full.samples.xy[upto])
    assert np.array_equal(part.kalman[upto], full.kalman[upto])


def empty_window_decisions(track, uwb_t, vo_t, plan):
    """(stop index, decided at close) for each decision taken with no VO
    sample emitted since the previous visit closed: those compare the
    estimate with the VO sample nearest the decision instead."""
    visits = build_truth(plan).stop_windows[1:]
    order = {v.stop_index: i for i, v in enumerate(visits)}
    assert len(order) == len(visits)  # each stop is visited once
    # a visit closes at the first tick after it, or at the end of the run
    close_ticks = np.searchsorted(uwb_t, [v.t1_ms for v in visits], side="right")
    emitted_at_close = [
        int(np.searchsorted(vo_t, uwb_t[c])) if c < len(uwb_t) else len(vo_t)
        for c in close_ticks
    ]
    found = []
    for e in track.stop_events:
        i = order[e.stop_index]
        at_close = not e.estimate.complete  # else a push at the tick e.t_ms
        emitted = emitted_at_close[i] if at_close else int(np.searchsorted(vo_t, e.t_ms))
        if emitted == (emitted_at_close[i - 1] if i else 0):
            found.append((e.stop_index, at_close))
    return found


@pytest.mark.parametrize("k2", [150, 100_000])
def test_sparse_vo_empty_windows_equal_oracle(k2):
    # one VO sample every 25 s: some decisions find no VO sample since the
    # previous visit closed. At k2 = 150 they are pushes within a dwell; no
    # dwell reaches k2 = 100000, so every visit is decided when it closes,
    # the last one after the last VO sample
    scenario = SCENARIO_PRESETS["worst-case"]()
    scenario = replace(scenario, vo=replace(scenario.vo, rate_hz=0.04))
    base = default_pipeline_params()
    params = replace(base, cluster=replace(base.cluster, k2=k2))
    replay, live, sensor = both_modes(scenario, 0, params)
    uwb_t = simulate_pair(scenario, 0)[0].uwb.t_ms
    at_close = k2 == 100_000
    for track in (replay, live):
        found = empty_window_decisions(track, uwb_t, sensor.ts, scenario.plan)
        assert any(closed == at_close for _, closed in found)
    if at_close:
        last_vo = int(sensor.ts[-1])
        assert uwb_t[-1] > last_vo
        assert live.restarts[-1][0] == last_vo and sensor.reboots[-1] == last_vo


def test_vo_before_the_first_uwb_tick_equals_oracle():
    replay, live, sensor = both_modes(
        SCENARIO_PRESETS["worst-case"](), 2, default_pipeline_params(), uwb_keep=slice(40, None)
    )
    first_tick = simulate_pair(SCENARIO_PRESETS["worst-case"](), 2)[0].uwb.t_ms[40]
    head = int(np.searchsorted(sensor.ts, first_tick))
    assert head > 200
    for track in (replay, live):
        assert track.kalman[:head].tolist() == [False] * head


def stale_rows(track, uwb_t):
    """The KALMAN rows of ``track`` whose fix is from a tick more than
    ``MAX_UWB_AGE_MS`` from the row's time."""
    kalman_t = track.samples.t_ms[track.kalman]
    return kalman_t[np.abs(uwb_t[nearest_indices(uwb_t, kalman_t)] - kalman_t) > MAX_UWB_AGE_MS]


def test_uwb_gap_across_a_leg_and_a_dwell_trusts_the_vo_past_the_bound():
    # no UWB from the middle of leg 8 to the middle of leg 9: the gap holds
    # the end of one leg, the whole dwell at stop 9 and the start of the
    # next leg. The last tick before it is KALMAN and falls on the VO's 5 ms
    # grid, so one VO sample lies exactly at the bound
    scenario, seed = SCENARIO_PRESETS["worst-case"](), 0
    params = default_pipeline_params()
    pair = simulate_pair(scenario, seed)[0]
    uwb, legs = pair.uwb, build_truth(scenario.plan).segments
    lo, hi = (np.searchsorted(uwb.t_ms, 0.5 * (s.t0_ms + s.t1_ms)) for s in legs[8:10])
    keep = np.r_[:lo, hi : len(uwb)]
    replay, live, _ = both_modes(scenario, seed, params, uwb_keep=keep)
    last, after = int(uwb.t_ms[lo - 1]), int(uwb.t_ms[hi])
    assert (last, after) == (194370, 215926) and after - last > 100 * MAX_UWB_AGE_MS
    gapped = replace(pair, uwb=rows(uwb, keep))
    filtered = filtered_uwb(gapped, scenario.plan, params)
    for track in (replay, live):
        t, kalman = track.samples.t_ms, track.kalman
        assert stale_rows(track, filtered.t_ms).size == 0
        # the fix of the tick before the gap up to the bound, inclusive;
        # the VO after it, until the first tick after the gap
        i = int(np.searchsorted(t, last))
        edge = int(np.searchsorted(t, last + MAX_UWB_AGE_MS))
        assert kalman[i] and kalman[edge] and t[edge] == last + MAX_UWB_AGE_MS
        assert (track.samples.xy[i:edge + 1] == filtered.xy[lo - 1]).all()
        gap = slice(edge + 1, int(np.searchsorted(t, after)))
        assert not kalman[gap].any() and gap.stop - gap.start > 4000
    # replay's VO in the gap is the recorded VO shifted by the w in force
    w = [h for h in replay.w_history if h[0] <= last][-1]
    assert (replay.samples.xy[gap] == pair.vo.xy[gap] + w[1:]).all()
    # no decision at stop 9, whose dwell the gap holds
    assert 9 not in [e.stop_index for e in replay.stop_events + live.stop_events]


def slow_uwb_worst_case():
    """The worst-case preset with a 5 Hz UWB unit, k1 and k2 scaled to its
    ticks (9 and 27), and its default pipeline parameters."""
    scenario, params = SCENARIO_PRESETS["worst-case"](), default_pipeline_params()
    return (
        replace(scenario, uwb=replace(scenario.uwb, rate_hz=5.0)),
        replace(params, cluster=replace(params.cluster, k1=9, k2=27)),
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_slow_uwb_age_bound_is_four_periods(seed, monkeypatch):
    # a 5 Hz tick is 200 ms old before the next one comes: under a 150 ms
    # bound every KALMAN stretch flipped to the VO between ticks, 2,000+
    # mode flips a run. Four periods flip none: the track is the one with
    # no bound at all
    scenario, params = slow_uwb_worst_case()
    replay, live, _ = both_modes(scenario, seed, params)
    pair = simulate_pair(scenario, seed)[0]
    assert uwb_age_bound_ms(pair.uwb.t_ms) == 800
    truth = build_truth(scenario.plan)
    monkeypatch.setattr(pipeline, "MAX_UWB_AGE_MS", truth.duration_ms + 1)
    assert_same_track(replay, replay_pipeline(pair, scenario.plan, params))
    sensor = VoSensor(truth, scenario.vo, seed)
    assert_same_track(live, run_pipeline_live(pair.uwb, sensor, scenario.plan, params))


def test_slow_uwb_gap_trusts_the_vo_past_four_periods():
    # the gap of the 27 Hz test above, at 5 Hz: the fix of the tick before
    # it holds for 800 ms, inclusive, and the VO is trusted after
    scenario, params = slow_uwb_worst_case()
    pair = simulate_pair(scenario, 0)[0]
    uwb, legs = pair.uwb, build_truth(scenario.plan).segments
    lo, hi = (np.searchsorted(uwb.t_ms, 0.5 * (s.t0_ms + s.t1_ms)) for s in legs[8:10])
    replay, live, _ = both_modes(scenario, 0, params, uwb_keep=np.r_[:lo, hi : len(uwb)])
    last, after = int(uwb.t_ms[lo - 1]), int(uwb.t_ms[hi])
    assert (last, after) == (194400, 216000)
    for track in (replay, live):
        t, kalman = track.samples.t_ms, track.kalman
        i, edge = (int(np.searchsorted(t, last + age)) for age in (0, 800))
        assert kalman[i] and kalman[edge] and t[edge] == last + 800
        assert not kalman[edge + 1 : int(np.searchsorted(t, after))].any()


def test_uwb_cut_to_three_rows_reaches_no_stop_visit():
    scenario, seed = SCENARIO_PRESETS["worst-case"](), 2
    params = default_pipeline_params()
    pair = simulate_pair(scenario, seed)[0]
    cut = replace(pair, uwb=rows(pair.uwb, slice(3)))
    with pytest.raises(CoverageError, match="reaches no stop visit"):
        replay_pipeline(cut, scenario.plan, params)
    sensor = VoSensor(build_truth(scenario.plan), scenario.vo, seed)
    with pytest.raises(CoverageError, match="reaches no stop visit"):
        run_pipeline_live(cut.uwb, sensor, scenario.plan, params)
