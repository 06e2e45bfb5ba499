import numpy as np

from align_oracle import align_streams
from conftest import positions
from uwbvo.baselines import BaselineKind, averaged_stream, merge_streams, run_method
from uwbvo.core import UWB, VO, FlightPlan, Position2D, Stream, StreamPair
from uwbvo.ekf import run_filter
from uwbvo.metrics import stop_accuracy
from uwbvo.pipeline import PipelineParams, stop_visits
from uwbvo.simulate import (
    RaySpec,
    ScaleFaultSpec,
    ScenarioConfig,
    UwbModel,
    VoModel,
    build_truth,
    simulate_pair,
)


def tiny_scenario(sigma_uwb=0.0, sigma_vo=0.0):
    plan = FlightPlan(
        stops=(Position2D(0.0, 0.0), Position2D(1000.0, 0.0)),
        dwell_ms=12000.0,
        cruise_mm_s=500.0,
        accel_mm_s2=1000.0,
        closed=False,
    )
    return ScenarioConfig(
        "tiny",
        plan,
        UwbModel(sigma_mm=sigma_uwb, ray=RaySpec(prob_per_stop=0.0)),
        VoModel(sigma_mm=sigma_vo, underestimate=ScaleFaultSpec(0.0, (0.7, 0.9), ())),
    )


def test_averaged_stream_identical_inputs():
    ts = (0, 37, 74)
    u = Stream(ts, [(float(t), 2.0) for t in ts], UWB)
    v = Stream(ts, [(float(t), 2.0) for t in ts], VO)
    pair = StreamPair(u, v)
    avg = averaged_stream(pair)
    assert [s.pos for s in avg] == [s.pos for s in u]


def test_averaged_stream_componentwise_mean():
    u = Stream([0], [(100.0, 0.0)], UWB)
    v = Stream([0], [(0.0, 0.0)], VO)
    avg = averaged_stream(StreamPair(u, v))
    assert avg[0].pos == Position2D(50.0, 0.0)


def test_averaged_stream_pairs_nearest_vo_sample():
    scenario = tiny_scenario(sigma_uwb=30.0, sigma_vo=1.0)
    pair, _, _ = simulate_pair(scenario, 5)
    expected = [
        Position2D(0.5 * (u.x + v.x), 0.5 * (u.y + v.y))
        for _, u, v in align_streams(pair)
    ]
    assert [s.pos for s in averaged_stream(pair)] == expected


def test_avg_fusion_output_at_uwb_rate():
    scenario = tiny_scenario(sigma_uwb=30.0, sigma_vo=1.0)
    pair, _, _ = simulate_pair(scenario, 0)
    out, _ = run_method(BaselineKind.AVG_FUSION, pair, scenario.plan, PipelineParams())
    assert len(out) == len(pair.uwb)
    assert [s.t_ms for s in out] == [s.t_ms for s in pair.uwb]


def test_merge_streams_sorted_and_complete():
    scenario = tiny_scenario(sigma_uwb=5.0)
    pair, _, _ = simulate_pair(scenario, 1)
    merged = merge_streams(pair)
    assert len(merged) == len(pair.uwb) + len(pair.vo)
    assert np.any(np.isin(pair.uwb.t_ms, pair.vo.t_ms))  # ties to order
    expected = sorted([*pair.uwb, *pair.vo], key=lambda s: (s.t_ms, s.source))
    assert [(s.t_ms, s.pos) for s in merged] == [(s.t_ms, s.pos) for s in expected]


def test_direct_fusion_tracks_noiseless_truth():
    scenario = tiny_scenario()
    pair, _, _ = simulate_pair(scenario, 2)
    truth = build_truth(scenario.plan)
    out, _ = run_method(BaselineKind.DIRECT_FUSION, pair, scenario.plan, PipelineParams())
    assert len(out) == len(pair.uwb) + len(pair.vo)
    ts = np.array([s.t_ms for s in out], dtype=float)
    err = np.hypot(*(positions(out) - truth.sample(ts)).T)
    warm = ts > 1000.0
    dwell_tail = ts > truth.stop_windows[1].t0_ms + 3000.0
    assert np.all(err[warm & (ts < truth.segments[0].t0_ms)] < 1.0)
    assert np.all(err[dwell_tail] < 1.0)


def test_filtered_methods_delegate_bit_exactly():
    scenario = tiny_scenario(sigma_uwb=40.0, sigma_vo=5.0)
    pair, _, _ = simulate_pair(scenario, 3)
    params = PipelineParams()
    restarts = [w.t0_ms for w in stop_visits(scenario.plan)]
    assert restarts == [w.t0_ms for w in build_truth(scenario.plan).stop_windows[1:]]
    inputs = {
        BaselineKind.POZYX_CTRA: pair.uwb,
        BaselineKind.AVG_FUSION: averaged_stream(pair),
        BaselineKind.DIRECT_FUSION: merge_streams(pair),
    }
    for kind, stream in inputs.items():
        out, track = run_method(kind, pair, scenario.plan, params)
        assert track is None
        assert out == run_filter(stream, params.ekf, restart_times_ms=restarts), kind


def test_pozyx_only_beats_raw_on_stop_accuracy():
    scenario = tiny_scenario(sigma_uwb=80.0)
    truth = build_truth(scenario.plan)
    raw_avgs, flt_avgs = [], []
    for seed in range(5):
        pair, _, _ = simulate_pair(scenario, seed)
        raw_avgs.append(stop_accuracy(pair.uwb, truth).avg_mm)
        flt, _ = run_method(BaselineKind.POZYX_CTRA, pair, scenario.plan, PipelineParams())
        flt_avgs.append(stop_accuracy(flt, truth).avg_mm)
    assert np.mean(flt_avgs) < 0.3 * np.mean(raw_avgs)


def test_run_method_dispatch(desk_params):
    scenario = tiny_scenario(sigma_uwb=20.0)
    pair, _, _ = simulate_pair(scenario, 4)
    for kind in BaselineKind:
        samples, track = run_method(kind, pair, scenario.plan, desk_params)
        assert samples, kind
        if kind is BaselineKind.SELF_CORRECTIVE:
            assert track is not None
        else:
            assert track is None
    raw_u, _ = run_method(BaselineKind.RAW_UWB, pair, scenario.plan, desk_params)
    assert raw_u == pair.uwb
    raw_v, _ = run_method(BaselineKind.RAW_VO, pair, scenario.plan, desk_params)
    assert raw_v == pair.vo
