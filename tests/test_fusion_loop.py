"""The tick-driven fusion loop against the per-sample oracle, in replay and live.

``pipeline_oracle`` merges the two streams sample by sample and pulls every
live VO sample through ``VoSensor.__next__``; ``uwbvo.pipeline`` loops over
the UWB ticks only and reads the live sensor in blocks. Both must produce
the same track, modes, stop decisions, restarts, correction vectors and
sensor reboots.
"""
from dataclasses import replace

import numpy as np
import pytest

import pipeline_oracle as oracle
from conftest import replay_pipeline
from uwbvo.config import default_pipeline_params
from uwbvo.core import Stream
from uwbvo.pipeline import run_pipeline_live
from uwbvo.simulate import SCENARIO_PRESETS, VoSensor, build_truth, simulate_pair


def assert_same_track(track, expected):
    assert track.samples == expected.samples
    assert np.array_equal(track.kalman, expected.kalman)
    assert track.stop_events == expected.stop_events
    # the same Python types too, not only equal values
    assert repr(track.stop_events) == repr(expected.stop_events)
    assert repr(track.restarts) == repr(expected.restarts)
    assert repr(track.w_history) == repr(expected.w_history)
    assert track.discarded_detectors == expected.discarded_detectors


def both_modes(scenario, seed, params, uwb_from=0):
    """(replay track, live track, live sensor), each checked against the oracle.

    ``uwb_from`` drops that many UWB samples from the head of the stream.
    """
    pair, _, _ = simulate_pair(scenario, seed)
    uwb = pair.uwb[uwb_from:]
    replay_pair = replace(pair, uwb=uwb)
    replay = replay_pipeline(replay_pair, scenario.plan, params)
    assert_same_track(replay, oracle.run_pipeline(replay_pair, scenario.plan, params))

    truth = build_truth(scenario.plan)
    sensor = VoSensor(truth, scenario.vo, seed)
    oracle_sensor = VoSensor(truth, scenario.vo, seed)
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


def test_small_beta_forces_corrections_and_equals_oracle():
    # the VO has no fault in the best case: at the 30 mm default no stop is
    # corrected on this seed, at 5 mm the sensor noise alone forces some
    params = replace(default_pipeline_params(), beta_mm=5.0)
    replay, live, sensor = both_modes(SCENARIO_PRESETS["best-case"](), 0, params)
    assert replay.restarts and live.restarts and sensor.reboots


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
    for head in (uwb, Stream(uwb.t_ms[:n], uwb.xy[:n], uwb.source)):
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
        SCENARIO_PRESETS["worst-case"](), 2, default_pipeline_params(), uwb_from=40
    )
    first_tick = simulate_pair(SCENARIO_PRESETS["worst-case"](), 2)[0].uwb.t_ms[40]
    head = int(np.searchsorted(sensor.ts, first_tick))
    assert head > 200
    for track in (replay, live):
        assert track.kalman[:head].tolist() == [False] * head
