import tracemalloc

import numpy as np
import pytest

from align_oracle import align_streams
from conftest import adopted, filter_one, filtered_uwb, positions, record_streams, rows, run_one_method
from ekf_oracle import loop_filter
from uwbvo import baselines
from uwbvo.baselines import (
    BaselineKind,
    averaged_stream,
    filter_inputs,
    merge_streams,
    run_method,
)
from uwbvo.core import UWB, VO, FlightPlan, Position2D, Stream, StreamPair, nearest_indices
from uwbvo.ekf import run_filter
from uwbvo.metrics import stop_accuracy
from uwbvo.pipeline import FusedTrack, PipelineParams, stop_visits
from uwbvo.simulate import (
    SCENARIO_PRESETS,
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
    assert avg.xy.tolist() == u.xy.tolist()


def test_averaged_stream_componentwise_mean():
    u = Stream([0], [(100.0, 0.0)], UWB)
    v = Stream([0], [(0.0, 0.0)], VO)
    avg = averaged_stream(StreamPair(u, v))
    assert avg.xy.tolist() == [[50.0, 0.0]]


def test_averaged_stream_pairs_nearest_vo_sample():
    scenario = tiny_scenario(sigma_uwb=30.0, sigma_vo=1.0)
    pair, _, _ = simulate_pair(scenario, 5)
    expected = [[0.5 * (u.x + v.x), 0.5 * (u.y + v.y)] for _, u, v in align_streams(pair)]
    assert averaged_stream(pair).xy.tolist() == expected


def test_avg_fusion_output_at_uwb_rate():
    scenario = tiny_scenario(sigma_uwb=30.0, sigma_vo=1.0)
    pair, _, _ = simulate_pair(scenario, 0)
    out = run_one_method(BaselineKind.AVG_FUSION, pair, scenario.plan, PipelineParams())
    assert len(out) == len(pair.uwb)
    assert out.t_ms.tolist() == pair.uwb.t_ms.tolist()


def test_merge_streams_sorted_and_complete():
    scenario = tiny_scenario(sigma_uwb=5.0)
    pair, _, _ = simulate_pair(scenario, 1)
    merged = merge_streams(pair)
    assert len(merged) == len(pair.uwb) + len(pair.vo)
    assert np.any(np.isin(pair.uwb.t_ms, pair.vo.t_ms))  # ties to order
    both = [(t, s.source, xy) for s in (pair.uwb, pair.vo)
            for t, xy in zip(s.t_ms.tolist(), s.xy.tolist())]
    expected = sorted(both, key=lambda r: r[:2])  # UWB first on a tie
    assert list(zip(merged.t_ms.tolist(), merged.xy.tolist())) == [(t, xy) for t, _, xy in expected]


def test_built_inputs_adopt_their_fresh_arrays(monkeypatch):
    pair, _, _ = simulate_pair(tiny_scenario(sigma_uwb=5.0), 1)
    made = record_streams(monkeypatch, baselines)
    avg, merged = averaged_stream(pair), merge_streams(pair)
    assert [stream for _, _, stream in made] == [avg, merged]  # built in this order
    assert all(adopted(*call) for call in made)
    assert np.shares_memory(avg.t_ms, pair.uwb.t_ms)


def test_direct_fusion_tracks_noiseless_truth():
    scenario = tiny_scenario()
    pair, _, _ = simulate_pair(scenario, 2)
    truth = build_truth(scenario.plan)
    out = run_one_method(BaselineKind.DIRECT_FUSION, pair, scenario.plan, PipelineParams())
    assert len(out) == len(pair.uwb) + len(pair.vo)
    ts = out.t_ms.astype(float)
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
        out = run_one_method(kind, pair, scenario.plan, params)
        assert isinstance(out, Stream), kind
        assert out == filter_one(stream, params.ekf, restarts), kind


def test_pozyx_only_beats_raw_on_stop_accuracy():
    scenario = tiny_scenario(sigma_uwb=80.0)
    truth = build_truth(scenario.plan)
    raw_avgs, flt_avgs = [], []
    for seed in range(5):
        pair, _, _ = simulate_pair(scenario, seed)
        raw_avgs.append(stop_accuracy(pair.uwb, truth).avg_mm)
        flt = run_one_method(BaselineKind.POZYX_CTRA, pair, scenario.plan, PipelineParams())
        flt_avgs.append(stop_accuracy(flt, truth).avg_mm)
    assert np.mean(flt_avgs) < 0.3 * np.mean(raw_avgs)


def test_run_method_dispatch(desk_params):
    scenario = tiny_scenario(sigma_uwb=20.0)
    pair, _, _ = simulate_pair(scenario, 4)
    for kind in BaselineKind:
        result = run_one_method(kind, pair, scenario.plan, desk_params)
        fused = kind is BaselineKind.SELF_CORRECTIVE
        assert isinstance(result, FusedTrack if fused else Stream), kind
        assert result.samples if fused else result, kind
    raw_u = run_one_method(BaselineKind.RAW_UWB, pair, scenario.plan, desk_params)
    assert raw_u == pair.uwb
    raw_v = run_one_method(BaselineKind.RAW_VO, pair, scenario.plan, desk_params)
    assert raw_v == pair.vo


SEED_CASES = [(preset, seed) for preset in ("worst-case", "best-case") for seed in range(3)]


@pytest.mark.parametrize("case", range(len(SEED_CASES)))
def test_stacked_streams_equal_lone_runs_and_loop(case, desk_params):
    preset, seed = SEED_CASES[case]
    scenario = SCENARIO_PRESETS[preset]()
    pair, _, _ = simulate_pair(scenario, seed)
    params = desk_params.ekf
    restarts = [w.t0_ms for w in stop_visits(scenario.plan)]
    streams = [pair.uwb, averaged_stream(pair), merge_streams(pair)]
    stacked = run_filter(streams, params, restarts)
    for stream, out in zip(streams, stacked):
        assert out == filter_one(stream, params, restarts)
        # a restart segment is a fresh filter: every sixth segment, a
        # different sixth per case, against the per-sample loop
        cut = np.searchsorted(stream.t_ms, restarts)
        bounds = np.unique(np.concatenate(([0], cut, [len(stream)]))).tolist()
        for s0, s1 in list(zip(bounds, bounds[1:]))[case::len(SEED_CASES)]:
            segment = slice(s0, s1)
            assert rows(out, segment) == loop_filter(rows(stream, segment), params)


def test_filter_inputs_of_a_batch_equal_one_pair_calls(desk_params):
    scenario = SCENARIO_PRESETS["worst-case"]()
    pairs = [simulate_pair(scenario, seed)[0] for seed in range(3)]
    batch = filter_inputs(list(BaselineKind), pairs, scenario.plan, desk_params)
    assert len(batch) == len(pairs)
    for pair, filtered in zip(pairs, batch):
        [alone] = filter_inputs(list(BaselineKind), [pair], scenario.plan, desk_params)
        assert filtered.keys() == alone.keys()
        for kind, stream in filtered.items():
            assert np.array_equal(stream.t_ms, alone[kind].t_ms)
            assert np.array_equal(stream.xy.view(np.int64), alone[kind].xy.view(np.int64))


def test_lockstep_memory_is_bounded_by_a_block(desk_params):
    # packed whole, the lockstep of 4 worst-case seeds held ~27 MB beyond
    # the streams it returns; a block of steps holds less than 16 MB
    scenario = SCENARIO_PRESETS["worst-case"]()
    restarts = [w.t0_ms for w in stop_visits(scenario.plan)]
    streams = []
    for seed in range(4):
        pair, _, _ = simulate_pair(scenario, seed)
        streams += [pair.uwb, averaged_stream(pair), merge_streams(pair)]
    tracemalloc.start()
    try:
        out = run_filter(streams, desk_params.ekf, restarts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    returned = sum(stream.t_ms.nbytes + stream.xy.nbytes for stream in out)
    assert peak - returned < 16 * 2**20


def test_paper_batch_lockstep_peaks_no_higher_than_with_step_blocks(desk_params):
    # the nine CTRA inputs of worst-case seeds 0-2, as one `run` batch
    # filters them: with blocks of 1024 steps, run_filter peaked at 17.0 MB,
    # 5.0 MB of it the positions it returns
    scenario = SCENARIO_PRESETS["worst-case"]()
    restarts = [w.t0_ms for w in stop_visits(scenario.plan)]
    streams = []
    for seed in range(3):
        pair, _, _ = simulate_pair(scenario, seed)
        streams += [pair.uwb, averaged_stream(pair), merge_streams(pair)]
    tracemalloc.start()
    try:
        out = run_filter(streams, desk_params.ekf, restarts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert round(sum(stream.xy.nbytes for stream in out) / 1e6, 1) == 5.0
    assert peak <= 17.0e6


def test_filter_inputs_builds_only_what_the_methods_read(desk_params):
    scenario = tiny_scenario(sigma_uwb=20.0, sigma_vo=1.0)
    pair, _, _ = simulate_pair(scenario, 1)
    plan = scenario.plan

    def keys(*methods):
        [filtered] = filter_inputs(methods, [pair], plan, desk_params)
        return list(filtered)

    assert keys(BaselineKind.RAW_UWB, BaselineKind.RAW_VO) == []
    assert keys(BaselineKind.SELF_CORRECTIVE) == [BaselineKind.POZYX_CTRA]
    assert keys(BaselineKind.DIRECT_FUSION, BaselineKind.SELF_CORRECTIVE) == [
        BaselineKind.POZYX_CTRA,
        BaselineKind.DIRECT_FUSION,
    ]
    assert keys(*BaselineKind) == [
        BaselineKind.POZYX_CTRA,
        BaselineKind.AVG_FUSION,
        BaselineKind.DIRECT_FUSION,
    ]


def test_self_corrective_fuses_pozyx_ctra_track(desk_params, monkeypatch):
    scenario = SCENARIO_PRESETS["worst-case"]()
    pair, _, _ = simulate_pair(scenario, 0)
    fused_with = []
    run_pipeline = baselines.run_pipeline

    def spy(pair, plan, params, filtered_uwb):
        fused_with.append(filtered_uwb)
        return run_pipeline(pair, plan, params, filtered_uwb)

    [filtered] = filter_inputs(list(BaselineKind), [pair], scenario.plan, desk_params)
    pozyx = run_method(BaselineKind.POZYX_CTRA, pair, scenario.plan, desk_params, filtered)
    monkeypatch.setattr(baselines, "run_pipeline", spy)
    track = run_method(
        BaselineKind.SELF_CORRECTIVE, pair, scenario.plan, desk_params, filtered
    )
    assert fused_with == [pozyx]
    # the UWB the pipeline used to filter for itself
    assert pozyx == filtered_uwb(pair, scenario.plan, desk_params)
    # while the VO is distrusted, the output is pozyx-ctra's nearest sample
    kalman = track.kalman
    assert kalman.any()
    near = nearest_indices(pair.uwb.t_ms, track.samples.t_ms[kalman])
    assert np.array_equal(track.samples.xy[kalman], pozyx.xy[near])
