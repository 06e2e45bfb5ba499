import math
from dataclasses import FrozenInstanceError, dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_stream, stop_error
from uwbvo.core import Position2D
from uwbvo.metrics import (
    CoverageError,
    RunReport,
    StopAccuracy,
    _nearest_samples,
    compare,
    render_table,
    stop_accuracy,
    trajectory_rmse,
)
from uwbvo.simulate import StopWindow, build_truth, default_scenario


@dataclass(frozen=True)
class TruthTable:
    """Ground truth reloaded from a sampled CSV table; the metric tests' truth.

    Poses are interpolated linearly between table rows; stop windows are
    recovered from runs of the ``stop_index`` column.
    """

    ts_ms: np.ndarray
    xy: np.ndarray
    stop_windows: tuple[StopWindow, ...]

    @staticmethod
    def from_rows(
        ts_ms: np.ndarray, xy: np.ndarray, stop_idx: np.ndarray
    ) -> "TruthTable":
        windows: list[StopWindow] = []
        start = None
        for i in range(len(ts_ms)):
            inside = stop_idx[i] >= 0
            if inside and start is None:
                start = i
            boundary = (not inside) or i == len(ts_ms) - 1
            if start is not None and boundary:
                end = i if inside else i - 1
                windows.append(
                    StopWindow(int(stop_idx[start]), float(ts_ms[start]), float(ts_ms[end]))
                )
                start = None
        return TruthTable(ts_ms, xy, tuple(windows))

    def sample(self, ts_ms: np.ndarray) -> np.ndarray:
        t = np.asarray(ts_ms, dtype=np.float64)
        x = np.interp(t, self.ts_ms, self.xy[:, 0])
        y = np.interp(t, self.ts_ms, self.xy[:, 1])
        return np.stack([x, y], axis=1)

    def pose_at(self, t_ms: float) -> Position2D:
        xy = self.sample(np.array([t_ms]))[0]
        return Position2D(float(xy[0]), float(xy[1]))


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
    assert {w.stop_index for w in truth.stop_windows} == set(range(16))
    for stop_index in range(16):
        assert stop_error(samples, truth, stop_index) == pytest.approx(0.0, abs=1e-9)


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
    track = make_stream(ts.astype(int), xy)
    # 16 stops, and only stop 0's last visit is off
    assert stop_accuracy(track, truth).avg_mm == pytest.approx(25.0 / 16)
    assert stop_error(track, truth, 0) == pytest.approx(25.0)
    assert stop_error(track, truth, 1) == pytest.approx(0.0, abs=1e-9)


def test_stop_accuracy_requires_window_coverage():
    truth = build_truth(default_scenario().plan)
    samples = make_stream([0, 100], [(1000.0, 0.0), (1000.0, 0.0)])
    with pytest.raises(CoverageError, match="stop"):
        stop_accuracy(samples, truth)


def test_an_empty_track_covers_nothing():
    empty = make_stream(np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
    for metric in (stop_accuracy, trajectory_rmse):
        with pytest.raises(CoverageError, match="empty track"):
            metric(empty, constant_truth())


@pytest.mark.parametrize("edge", ["t0", "t1"])
def test_a_sample_on_a_dwell_window_edge_covers_it(edge):
    # the dwell window [0, 10000] ms is closed: its nearest sample may lie
    # on either end of it, but not one millisecond past
    truth = constant_truth()
    [window] = truth.stop_windows
    t = int(getattr(window, f"{edge}_ms"))
    acc = stop_accuracy(make_stream([t], [(3.0, 4.0)]), truth)
    assert (acc.avg_mm, acc.std_mm) == (5.0, 0.0)
    outside = t - 1 if edge == "t0" else t + 1
    with pytest.raises(CoverageError, match="stop 1 dwell window"):
        stop_accuracy(make_stream([outside], [(3.0, 4.0)]), truth)


@settings(max_examples=300, deadline=None)
@given(st.integers(-50, 50), st.lists(st.integers(0, 7), min_size=1, max_size=40))
# runs of equal timestamps on both sides of equidistant targets
@example(0, [0, 0, 2, 0, 0, 2, 0])
def test_nearest_samples_equal_argmin(t0, steps):
    # gaps of 0 are equal timestamps; targets every 0.5 ms from before the
    # first sample to after the last hit every midpoint between two samples
    ts = (t0 + np.cumsum(steps)).astype(np.float64)
    targets = np.arange(ts[0] - 3.0, ts[-1] + 3.5, 0.5)
    expected = [int(np.argmin(np.abs(ts - t))) for t in targets]
    assert _nearest_samples(ts, targets).tolist() == expected


def test_stop_accuracy_reads_first_of_equal_timestamps():
    # every timestamp twice, as in a merged track, each sample elsewhere
    truth = build_truth(default_scenario().plan)
    ts = np.repeat(np.arange(0, int(truth.duration_ms), 100), 2)
    xy = truth.sample(ts) + np.random.default_rng(5).normal(0.0, 20.0, (len(ts), 2))
    track = make_stream(ts, xy)
    errors = np.array([stop_error(track, truth, i) for i in range(16)])
    acc = stop_accuracy(track, truth)
    assert (acc.avg_mm, acc.std_mm) == (float(errors.mean()), float(errors.std()))


def test_rmse_trivial_cases():
    truth = constant_truth()
    ts = np.arange(0, 10_000, 50)
    exact = make_stream(ts, np.zeros((len(ts), 2)))
    assert trajectory_rmse(exact, truth) == 0.0
    offset = make_stream(ts, np.tile([10.0, 0.0], (len(ts), 1)))
    assert trajectory_rmse(offset, truth) == pytest.approx(10.0)


_errors = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e-300, 1e-300),
    st.floats(-1e6, 1e6),
    st.floats(-1e150, 1e150),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_errors, _errors), min_size=1, max_size=60),
    st.sampled_from([0.0, -0.0, 1234.5, -1e150]),
)
def test_rmse_equals_the_row_sum_form_bit_for_bit(rows, centre):
    truth = constant_truth(x=centre, y=-centre)
    ts = np.arange(len(rows)) * 10
    track = make_stream(ts, np.array(rows, dtype=np.float64).reshape(-1, 2))
    err_sq = np.sum((track.xy - truth.sample(track.t_ms)) ** 2, axis=1)
    expected = float(np.sqrt(err_sq.mean()))
    assert np.float64(trajectory_rmse(track, truth)).tobytes() == np.float64(expected).tobytes()


def test_rmse_sinusoid_converges_to_amplitude_over_sqrt2():
    truth = constant_truth(n=2, step_ms=1_000_000, with_stop=False)
    n = 100_000
    ts = np.arange(n) * 10
    amplitude = 10.0
    phase = 2.0 * math.pi * np.arange(n) / 1000.0  # whole periods
    xy = np.stack([amplitude * np.sin(phase), np.zeros(n)], axis=1)
    rmse = trajectory_rmse(make_stream(ts, xy), truth)
    assert rmse == pytest.approx(amplitude / math.sqrt(2.0), rel=1e-3)


def segments_rmse(track, truth) -> float:
    """:func:`trajectory_rmse` over the flight legs alone: the samples of a
    stream outside every dwell window."""
    ts = track.t_ms
    keep = np.ones(len(ts), dtype=bool)
    for w in truth.stop_windows:
        keep &= ~((ts >= w.t0_ms) & (ts <= w.t1_ms))
    return trajectory_rmse(make_stream(ts[keep], track.xy[keep]), truth)


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
    assert segments_rmse(track, truth) == pytest.approx(0.0, abs=1e-9)


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
        avg_stop_mm=avg,
        std_stop_mm=0.1,
        rmse_mm=rmse,
        restarts=3,
    )


def test_compare_single_report():
    rows = compare([_report("a", 0)])
    assert len(rows) == 1
    summary = rows[0]
    assert summary.method == "a" and summary.seeds == 1
    assert summary.avg_stop_mm == 1.0 and summary.avg_stop_ci_mm == 0.0


def test_compare_ci_of_two_seeds():
    # 95 % normal-approximation interval: 1.96 s / sqrt(n), s the sample
    # standard deviation; two seeds have one, a lone seed none (0.0)
    [summary] = compare([_report("a", 0, avg=1.0, rmse=2.0), _report("a", 1, avg=3.0, rmse=6.0)])
    assert summary.seeds == 2
    assert summary.avg_stop_ci_mm == pytest.approx(1.96)
    assert summary.rmse_ci_mm == pytest.approx(3.92)


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


def test_render_table_rules_the_header_only():
    rows = compare([_report("raw-vo", 0), _report("self-corrective", 0, avg=12.5, rmse=101.25)])
    assert render_table(rows).split("\n") == [
        "method           seeds  avg_stop_mm  avg_stop_ci_mm  std_stop_mm  rmse_mm  rmse_ci_mm"
        "  restarts_mean  corrections_mean",
        "---------------  -----  -----------  --------------  -----------  -------  ----------"
        "  -------------  ----------------",
        "raw-vo           1      1.000        0.000           0.100        2.000    0.000"
        "       3.00           3.00",
        "self-corrective  1      12.500       0.000           0.100        101.250  0.000"
        "       3.00           3.00",
    ]


def test_scores_reports_and_summaries_are_immutable_values():
    # a report row is a record, written and compared as it was scored
    report = _report("a", 0)
    for value, name in ((StopAccuracy(1.0, 0.5), "avg_mm"), (report, "restarts"),
                        (compare([report])[0], "restarts_mean")):
        hash(value)
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, getattr(value, name))


def test_compare_rejects_empty():
    with pytest.raises(ValueError):
        compare([])
