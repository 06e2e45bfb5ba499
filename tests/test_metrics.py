import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_stream
from uwbvo.metrics import (
    CoverageError,
    RunReport,
    TruthTable,
    compare,
    render_table,
    stop_accuracy,
    trajectory_rmse,
)
from uwbvo.simulate import build_truth, default_scenario


def constant_truth(x=0.0, y=0.0, n=201, step_ms=50, with_stop=True):
    ts = np.arange(n) * step_ms
    xy = np.tile([x, y], (n, 1)).astype(float)
    stop_idx = np.zeros(n, dtype=int) if with_stop else np.full(n, -1)
    return TruthTable.from_rows(ts.astype(float), xy, stop_idx)


def test_truth_table_window_recovery():
    ts = np.arange(10) * 100.0
    xy = np.zeros((10, 2))
    stop_idx = np.array([0, 0, -1, -1, 1, 1, 1, -1, 2, 2])
    table = TruthTable.from_rows(ts, xy, stop_idx)
    got = [(w.stop_index, w.t0_ms, w.t1_ms) for w in table.stop_windows]
    assert got == [(0, 0.0, 100.0), (1, 400.0, 600.0), (2, 800.0, 900.0)]


def test_stop_accuracy_perfect_track():
    truth = build_truth(default_scenario().plan)
    ts = np.arange(0.0, truth.duration_ms, 100.0)
    samples = make_stream(ts.astype(int), truth.sample(ts))
    acc = stop_accuracy(samples, truth)
    assert acc.avg_mm == pytest.approx(0.0, abs=1e-9)
    assert acc.std_mm == pytest.approx(0.0, abs=1e-9)
    assert len(acc.per_stop) == 16


def test_stop_accuracy_constant_offset():
    truth = build_truth(default_scenario().plan)
    ts = np.arange(0.0, truth.duration_ms, 100.0)
    xy = truth.sample(ts) + (10.0, 0.0)
    acc = stop_accuracy(make_stream(ts.astype(int), xy), truth)
    assert acc.avg_mm == pytest.approx(10.0)
    assert acc.std_mm == pytest.approx(0.0, abs=1e-9)


def test_stop_accuracy_uses_last_visit_of_revisited_stop():
    truth = build_truth(default_scenario().plan)
    ts = np.arange(0.0, truth.duration_ms, 100.0)
    xy = truth.sample(ts)
    # corrupt only the final dwell (the revisit of stop 1)
    final = truth.stop_windows[-1]
    sel = ts >= final.t0_ms
    xy[sel] += (25.0, 0.0)
    acc = stop_accuracy(make_stream(ts.astype(int), xy), truth)
    errors = dict(acc.per_stop)
    assert errors[0] == pytest.approx(25.0)
    assert errors[1] == pytest.approx(0.0, abs=1e-9)


def test_stop_accuracy_requires_window_coverage():
    truth = build_truth(default_scenario().plan)
    samples = make_stream([0, 100], [(1000.0, 0.0), (1000.0, 0.0)])
    with pytest.raises(CoverageError, match="stop"):
        stop_accuracy(samples, truth)


def test_rmse_trivial_cases():
    truth = constant_truth()
    ts = np.arange(0, 10_000, 50)
    exact = make_stream(ts, np.zeros((len(ts), 2)))
    assert trajectory_rmse(exact, truth) == 0.0
    offset = make_stream(ts, np.tile([10.0, 0.0], (len(ts), 1)))
    assert trajectory_rmse(offset, truth) == pytest.approx(10.0)


def test_rmse_sinusoid_converges_to_amplitude_over_sqrt2():
    truth = constant_truth(n=2, step_ms=1_000_000, with_stop=False)
    n = 100_000
    ts = np.arange(n) * 10
    amplitude = 10.0
    phase = 2.0 * math.pi * np.arange(n) / 1000.0  # whole periods
    xy = np.stack([amplitude * np.sin(phase), np.zeros(n)], axis=1)
    rmse = trajectory_rmse(make_stream(ts, xy), truth)
    assert rmse == pytest.approx(amplitude / math.sqrt(2.0), rel=1e-3)


def test_rmse_segments_only_excludes_dwells():
    truth = build_truth(default_scenario().plan)
    ts = np.arange(0.0, truth.duration_ms, 100.0)
    xy = truth.sample(ts)
    in_dwell = np.zeros(len(ts), dtype=bool)
    for w in truth.stop_windows:
        in_dwell |= (ts >= w.t0_ms) & (ts <= w.t1_ms)
    xy[in_dwell] += (0.0, 50.0)  # corrupt dwells only
    track = make_stream(ts.astype(int), xy)
    assert trajectory_rmse(track, truth) > 40.0
    assert trajectory_rmse(track, truth, segments_only=True) == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(-1e5, 1e5, allow_nan=False),
    st.floats(-1e5, 1e5, allow_nan=False),
)
def test_metrics_translation_covariant(dx, dy):
    truth = build_truth(default_scenario().plan)
    ts = np.arange(0.0, truth.duration_ms, 500.0)
    rng = np.random.default_rng(0)
    xy = truth.sample(ts) + rng.normal(0, 20, size=(len(ts), 2))
    stop_idx = np.full(len(ts), -1)
    for w in truth.stop_windows:
        stop_idx[(ts >= w.t0_ms) & (ts <= w.t1_ms)] = w.stop_index

    def metrics(shift_x, shift_y):
        table = TruthTable.from_rows(ts, truth.sample(ts) + (shift_x, shift_y), stop_idx)
        track = make_stream(ts.astype(int), xy + (shift_x, shift_y))
        return stop_accuracy(track, table).avg_mm, trajectory_rmse(track, table)

    base_acc, base_rmse = metrics(0.0, 0.0)
    acc, rmse = metrics(dx, dy)
    assert acc == pytest.approx(base_acc, abs=1e-6)
    assert rmse == pytest.approx(base_rmse, abs=1e-6)


def _report(method, seed, avg=1.0, rmse=2.0):
    return RunReport(
        method=method,
        seed=seed,
        per_stop_error=(avg,),
        avg_stop_mm=avg,
        std_stop_mm=0.1,
        rmse_mm=rmse,
        restarts=3,
        corrections=2,
    )


def test_compare_single_report():
    rows = compare([_report("a", 0)])
    assert len(rows) == 1
    summary = rows[0]
    assert summary.method == "a" and summary.seeds == 1
    assert summary.avg_stop_mm == 1.0 and summary.avg_stop_ci_mm == 0.0


def test_compare_identical_reports_identical_rows():
    rows = compare([_report("a", 0), _report("b", 0)])
    a, b = rows
    assert (a.avg_stop_mm, a.rmse_mm) == (b.avg_stop_mm, b.rmse_mm)


def test_compare_ci_and_table_rendering():
    rows = compare([_report("a", s, avg=1.0 + s) for s in range(10)])
    summary = rows[0]
    assert summary.avg_stop_mm == pytest.approx(5.5)
    expected_ci = 1.96 * np.std([1.0 + s for s in range(10)], ddof=1) / math.sqrt(10)
    assert summary.avg_stop_ci_mm == pytest.approx(expected_ci)
    text = render_table(rows)
    assert "avg_stop_mm" in text and text.count("\n") >= 2


def test_compare_rejects_empty():
    with pytest.raises(ValueError):
        compare([])
