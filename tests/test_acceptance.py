"""Acceptance gate: every release criterion, at its stated tolerance.

Each test prints one PASS line when its criterion holds; a failed assertion
names the criterion. The benchmark batches are module-scoped fixtures so the
worst-case and best-case runs execute once.
"""
import time

import numpy as np
import pytest

from conftest import (
    constant_position_stream,
    filter_one,
    path_length,
    positions,
    replay_pipeline,
    stop_error,
)
from test_clustering import brute_force_argmax, cloud_and_ray_stream, detect_stop, vectorized_counts
from test_ekf import fd_jacobian, random_states

from uwbvo.baselines import BaselineKind, filter_inputs, run_method
from uwbvo.cli import main as cli_main
from uwbvo.clustering import ClusterParams
from uwbvo.config import DESK_CLUSTER
from uwbvo.core import FlightPlan, Position2D, euclidean
from uwbvo.ekf import CtraParams, ctra_transition
from uwbvo.metrics import RunReport, stop_accuracy
from uwbvo.pipeline import PipelineParams
from uwbvo.simulate import (
    RaySpec,
    ScaleFaultSpec,
    ScenarioConfig,
    UwbModel,
    VoModel,
    best_case_scenario,
    build_truth,
    simulate_pair,
    worst_case_scenario,
)

SEEDS = tuple(range(10))

CRITERION_6_METHODS = (
    BaselineKind.RAW_UWB,
    BaselineKind.POZYX_CTRA,
    BaselineKind.AVG_FUSION,
    BaselineKind.DIRECT_FUSION,
    BaselineKind.SELF_CORRECTIVE,
)


def _params(beta_mm: float) -> PipelineParams:
    return PipelineParams(beta_mm=beta_mm, cluster=DESK_CLUSTER)


@pytest.fixture(scope="module")
def worst_batch():
    """10-seed worst-case benchmark: all criterion-6 methods at beta=30."""
    scenario = worst_case_scenario()
    truth = build_truth(scenario.plan)
    params = _params(30.0)
    reports: dict[BaselineKind, list[RunReport]] = {k: [] for k in CRITERION_6_METHODS}
    t0 = time.perf_counter()
    for seed in SEEDS:
        pair, _, _ = simulate_pair(scenario, seed)
        [filtered] = filter_inputs(CRITERION_6_METHODS, [pair], scenario.plan, params)
        for kind in CRITERION_6_METHODS:
            samples, track = run_method(kind, pair, scenario.plan, params, filtered)
            reports[kind].append(
                RunReport.build(kind.value, seed, track if track else samples, truth)
            )
    elapsed = time.perf_counter() - t0
    return {"reports": reports, "elapsed_s": elapsed, "scenario": scenario}


@pytest.fixture(scope="module")
def restart_counts(worst_batch):
    """Self-corrective restart counts at beta = 3 cm and 6 cm per seed."""
    scenario = worst_batch["scenario"]
    b30 = [r.restarts for r in worst_batch["reports"][BaselineKind.SELF_CORRECTIVE]]
    b60 = []
    params60 = _params(60.0)
    for seed in SEEDS:
        pair, _, _ = simulate_pair(scenario, seed)
        track = replay_pipeline(pair, scenario.plan, params60)
        b60.append(len(track.restarts))
    return b30, b60


@pytest.fixture(scope="module")
def best_batch():
    """10-seed best-case runs: self-corrective at beta=30 plus raw VO."""
    scenario = best_case_scenario()
    truth = build_truth(scenario.plan)
    params = _params(30.0)
    runs = []
    for seed in SEEDS:
        pair, _, _ = simulate_pair(scenario, seed)
        track = replay_pipeline(pair, scenario.plan, params)
        runs.append({"pair": pair, "track": track})
    return {"runs": runs, "truth": truth, "uwb_rate_hz": scenario.uwb.rate_hz}


def test_criterion_1_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2024)
    arc_states = random_states(rng, 500, (0.4, -1.2, 2.0, 0.05))
    limit_states = random_states(rng, 500, (0.0, 1e-9, -1e-7, 5e-7))
    dts = rng.uniform(0.005, 0.1, size=1000)
    t0 = time.perf_counter()
    for s, dt in zip(np.vstack([arc_states, limit_states]), dts):
        analytic = ctra_transition(s, dt)[1]
        numeric = fd_jacobian(s, dt)
        scale = np.maximum(1.0, np.abs(analytic))
        assert np.all(np.abs(analytic - numeric) <= 1e-5 * scale)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\ncriterion 1: PASS - jacobian matches finite differences on 1000 "
          f"states in {elapsed:.2f} s")


def test_criterion_2_filter_smooths_constant_position_noise():
    params = CtraParams()
    worst_ratio = 0.0
    for seed in range(10):
        raw = constant_position_stream(50.0, 500, seed=seed)
        filtered = filter_one(raw, params)
        ratio = float((positions(filtered).std(axis=0) / positions(raw).std(axis=0)).max())
        worst_ratio = max(worst_ratio, ratio)
        assert ratio < 0.5
        assert path_length(filtered) < path_length(raw)
    print(f"criterion 2: PASS - filtered/raw std ratio <= {worst_ratio:.3f} "
          f"(< 0.5), path always shorter")


def test_criterion_3_stream_clustering_matches_brute_force():
    params = ClusterParams(alpha_mm=10.0, k1=100, k2=500, gamma_mm=100.0)
    t0 = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        sigma = rng.uniform(3.0, 7.0)
        center = rng.uniform(-1500.0, 1500.0, 2)
        points, is_ray = cloud_and_ray_stream(rng, 800, sigma, center, 50, 500.0)
        est = detect_stop(points, params)
        assert est.complete
        expected_pos, expected_count = brute_force_argmax(
            points[: est.samples_consumed],
            params.alpha_mm,
            params.k1,
            recount=vectorized_counts,
        )
        assert est.pos == expected_pos
        assert est.support == expected_count
        assert not is_ray[points.index(est.pos)]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 3: PASS - 100 streams match the offline argmax exactly, "
          f"never a ray point ({elapsed:.1f} s)")


def test_criterion_4_correction_algebra():
    plan = FlightPlan(
        stops=(Position2D(0.0, 0.0), Position2D(1000.0, 0.0)),
        dwell_ms=15000.0,
        cruise_mm_s=500.0,
        accel_mm_s2=1000.0,
        closed=False,
    )
    scenario = ScenarioConfig(
        "correction-algebra",
        plan,
        UwbModel(sigma_mm=10.0, ray=RaySpec(prob_per_stop=0.0)),
        VoModel(sigma_mm=0.5, underestimate=ScaleFaultSpec(0.0, (0.7, 0.7), (0,))),
    )
    truth = build_truth(plan)
    params = PipelineParams(
        beta_mm=30.0, cluster=ClusterParams(alpha_mm=10.0, k1=40, k2=120, gamma_mm=100.0)
    )
    for seed in range(3):
        pair, _, _ = simulate_pair(scenario, seed)
        uncorrected = stop_error(pair.vo, truth, 1)
        assert uncorrected >= 280.0
        track = replay_pipeline(pair, plan, params)
        assert len(track.restarts) == 1
        event = track.stop_events[0]
        estimate_error = euclidean(event.estimate.pos, plan.stops[1])
        assert estimate_error <= 10.0  # the criterion's premise, realized
        corrected = stop_error(track.samples, truth, 1)
        assert corrected <= 20.0
    print("criterion 4: PASS - 0.7-scale fault on a 1000 mm leg: corrected "
          "stop error <= 20 mm vs >= 280 mm uncorrected")


def test_criterion_5_restart_bands_and_monotonicity(restart_counts):
    b30, b60 = restart_counts
    for a, b in zip(b30, b60):
        assert a >= b
    assert all(12 <= n <= 16 for n in b30), b30
    assert all(6 <= n <= 12 for n in b60), b60
    print(f"criterion 5: PASS - restarts beta=3cm {sorted(set(b30))} in [12,16], "
          f"beta=6cm {sorted(set(b60))} in [6,12], monotone per seed")


def test_criterion_6_benchmark_ordering(worst_batch):
    reports = worst_batch["reports"]

    def mean_of(kind, field):
        return float(np.mean([getattr(r, field) for r in reports[kind]]))

    raw_acc = mean_of(BaselineKind.RAW_UWB, "avg_stop_mm")
    assert 102.0 <= raw_acc <= 162.0

    order = (
        BaselineKind.SELF_CORRECTIVE,
        BaselineKind.POZYX_CTRA,
        BaselineKind.AVG_FUSION,
        BaselineKind.DIRECT_FUSION,
    )
    accs = [mean_of(k, "avg_stop_mm") for k in order]
    rmses = [mean_of(k, "rmse_mm") for k in order]
    assert accs == sorted(accs), accs
    assert rmses == sorted(rmses), rmses
    assert accs[0] < 30.0
    assert worst_batch["elapsed_s"] < 120.0
    print(
        "criterion 6: PASS - raw UWB stop accuracy "
        f"{raw_acc:.1f} mm (132 +/- 30); avg-stop ordering "
        f"{' < '.join(f'{a:.1f}' for a in accs)}; RMSE ordering "
        f"{' < '.join(f'{r:.1f}' for r in rmses)}; "
        f"batch took {worst_batch['elapsed_s']:.0f} s (< 120 s)"
    )


def test_criterion_7_best_case_parity(best_batch):
    truth = best_batch["truth"]
    pad_ms = (DESK_CLUSTER.k2 / best_batch["uwb_rate_hz"]) * 1000.0
    sc_avgs, vo_avgs = [], []
    for run in best_batch["runs"]:
        track, pair = run["track"], run["pair"]
        assert track.restarts == []
        assert track.w_history == [(0, 0.0, 0.0)]
        # mask +/- k2/rate seconds around every distrust interval
        ts = track.samples.t_ms.astype(float)
        kalman = track.kalman
        masked = np.zeros(len(ts), dtype=bool)
        if kalman.any():
            edges = np.flatnonzero(np.diff(np.concatenate([[0], kalman.view(np.int8), [0]])))
            for start, stop in zip(edges[::2], edges[1::2]):
                lo, hi = ts[start] - pad_ms, ts[stop - 1] + pad_ms
                masked |= (ts >= lo) & (ts <= hi)
        assert track.samples.xy[~masked].tolist() == pair.vo.xy[~masked].tolist()
        sc_avgs.append(stop_accuracy(track.samples, truth).avg_mm)
        vo_avgs.append(stop_accuracy(pair.vo, truth).avg_mm)
    gap = abs(float(np.mean(sc_avgs)) - float(np.mean(vo_avgs)))
    assert gap <= 2.0
    print(
        "criterion 7: PASS - faults off: zero corrections, output equals the "
        f"VO track outside distrust windows, stop-accuracy gap {gap:.3f} mm (<= 2)"
    )


def test_criterion_8_end_to_end_determinism(tmp_path):
    def produce(out):
        assert cli_main([
            "simulate", "--scenario", "worst-case", "--seed", "0",
            "--out", str(out),
        ]) == 0
        assert cli_main([
            "run", "--logs", str(out), "--method", "self-corrective",
            "--method", "pozyx-ctra", "--seed", "0",
        ]) == 0
        assert cli_main(["compare", str(out)]) == 0
        return {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    first = produce(tmp_path / "a")
    second = produce(tmp_path / "b")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    print(f"criterion 8: PASS - {len(first)} output files byte-identical "
          "across repeated invocations")
