import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import constant_position_stream, filter_one, make_stream, path_length, positions, rows
from ekf_oracle import (
    _segment_measurements,
    ctra_jacobian_scalar,
    loop_filter,
    predict_state_scalar,
    pseudo_measurements,
    step,
    whole_window_starts,
    window_measurements,
    wrap_angle_scalar,
)
from uwbvo import ekf
from uwbvo.core import Stream
from uwbvo.ekf import (
    CtraFilter,
    CtraParams,
    FilterError,
    _measurement_blocks,
    ctra_transition,
    run_filter,
    wrap_angle,
)


def random_states(rng, n, yaw_rates):
    states = np.empty((n, 6))
    states[:, 0] = rng.uniform(-5000, 5000, n)
    states[:, 1] = rng.uniform(-5000, 5000, n)
    states[:, 2] = rng.uniform(0, 2000, n)
    states[:, 3] = rng.uniform(-math.pi, math.pi, n)
    states[:, 4] = rng.choice(yaw_rates, n) if yaw_rates is not None else 0.0
    states[:, 5] = rng.uniform(-1000, 1000, n)
    return states


def fd_jacobian(state, dt, step=1e-6):
    # rows 0-5 raise coordinate j by step, rows 6-11 lower it: one stacked call
    offsets = np.concatenate([np.eye(6), -np.eye(6)]) * step
    pred = ctra_transition(state + offsets, dt)[0]
    f_hi, f_lo = pred[:6], pred[6:]
    diff = f_hi - f_lo
    diff[:, 3] = wrap_angle(f_hi[:, 3] - f_lo[:, 3])  # heading column on the circle
    return diff.T / (2 * step)


class TestPredictState:
    def test_stationary_fixed_point(self):
        for psi in (-2.0, 0.0, 1.3):
            s = np.array([12.0, -7.0, 0.0, psi, 0.0, 0.0])
            out = ctra_transition(s, 0.1)[0]
            assert out[0] == 12.0 and out[1] == -7.0

    def test_arc_example(self):
        # direct evaluation of the arc update with v/psi_dot = 10000 mm
        s = np.array([0.0, 0.0, 1000.0, 0.0, 0.1, 0.0])
        out = ctra_transition(s, 0.1)[0]
        assert out[0] == pytest.approx(10000.0 * math.sin(0.01), rel=1e-12)
        assert out[1] == pytest.approx(10000.0 * (1.0 - math.cos(0.01)), rel=1e-12)
        assert out[0] == pytest.approx(99.9983, abs=1e-4)
        assert out[1] == pytest.approx(0.49999, abs=1e-5)
        assert out[2] == 1000.0
        assert out[3] == pytest.approx(0.01)

    def test_branch_continuity(self):
        # the residual branch gap is v * dt^2 * |psi_dot| / 2, so the bound
        # applies over the sampling envelope (dt <= 50 ms, v <= 1 m/s)
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = random_states(rng, 1, None)[0]
            s[2] = rng.uniform(0.0, 1000.0)
            dt = rng.uniform(0.005, 0.05)
            base = s.copy()
            base[4] = 0.0
            straight = ctra_transition(base, dt)[0]
            for eps in (1e-12, 1e-6, -1e-6):
                arc = base.copy()
                arc[4] = eps
                out = ctra_transition(arc, dt)[0]
                assert abs(out[0] - straight[0]) < 1e-6
                assert abs(out[1] - straight[1]) < 1e-6

    def test_heading_normalized(self):
        s = np.array([0.0, 0.0, 0.0, 3.0, 5.0, 0.0])
        out = ctra_transition(s, 1.0)[0]
        assert -math.pi < out[3] <= math.pi


class TestJacobian:
    def test_degenerate_state_structure(self):
        for psi in (0.0, 0.7, -2.1):
            s = np.array([5.0, 6.0, 0.0, psi, 0.0, 0.0])
            dt = 0.05
            jac = ctra_transition(s, dt)[1]
            expected = np.eye(6)
            expected[0, 2] = dt * math.cos(psi)
            expected[1, 2] = dt * math.sin(psi)
            expected[2, 5] = dt
            expected[3, 4] = dt
            assert np.allclose(jac, expected, atol=1e-15)

    @pytest.mark.parametrize("yaw_rates", [(0.5, -1.5, 2.0), (0.0, 1e-9, -1e-7)])
    def test_matches_finite_differences(self, yaw_rates):
        rng = np.random.default_rng(42)
        states = random_states(rng, 300, yaw_rates)
        for s in states:
            dt = rng.uniform(0.005, 0.1)
            analytic = ctra_transition(s, dt)[1]
            numeric = fd_jacobian(s, dt)
            scale = np.maximum(1.0, np.abs(analytic))
            assert np.all(np.abs(analytic - numeric) <= 1e-5 * scale)

    def test_reflection_symmetry(self):
        # g(Sx) = S g(x) with S flipping y, psi, psi_dot => J(Sx) = S J(x) S
        mirror = np.diag([1.0, -1.0, 1.0, -1.0, -1.0, 1.0])
        rng = np.random.default_rng(3)
        for s in random_states(rng, 50, (0.3, -0.9, 1.7)):
            dt = 0.08
            assert np.allclose(
                ctra_transition(mirror @ s, dt)[0], mirror @ ctra_transition(s, dt)[0]
            )
            assert np.allclose(
                ctra_transition(mirror @ s, dt)[1],
                mirror @ ctra_transition(s, dt)[1] @ mirror,
                atol=1e-12,
            )


class TestFilterStep:
    def test_huge_r_keeps_prediction(self):
        params = CtraParams(r_diag=(1e12,) * 6)
        filt = CtraFilter(params)
        filt.reset(0.0, 0.0)
        filt.state = np.array([0.0, 0.0, 1000.0, 0.0, 0.0, 0.0])
        predicted = ctra_transition(filt.state, 0.1)[0]
        step(filt, np.array([500.0, 500.0, 0.0, 1.0, 0.0, 0.0]), 0.1)
        assert np.allclose(filt.state, predicted, atol=1e-4)

    def test_zero_q_huge_r_trace_non_increasing(self):
        # stationary with certain rates: prediction cannot spread variance
        params = CtraParams(q_diag=(0.0,) * 6, r_diag=(1e9,) * 6)
        filt = CtraFilter(params)
        filt.reset(0.0, 0.0)
        filt.P = np.diag([1000.0, 1000.0, 0.0, 1.0, 0.0, 0.0])
        traces = [np.trace(filt.P)]
        for _ in range(20):
            step(filt, np.zeros(6), 0.05)
            traces.append(np.trace(filt.P))
        assert all(b <= a + 1e-9 for a, b in zip(traces, traces[1:]))

    def test_covariance_symmetric_psd_through_noisy_run(self):
        rng = np.random.default_rng(5)
        params = CtraParams()
        filt = CtraFilter(params)
        filt.reset(0.0, 0.0)
        for _ in range(300):
            u = np.array(
                [
                    rng.normal(0, 100),
                    rng.normal(0, 100),
                    rng.uniform(0, 800),
                    rng.uniform(-math.pi, math.pi),
                    rng.normal(0, 0.5),
                    rng.normal(0, 300),
                ]
            )
            step(filt, u, 0.037)
            assert np.allclose(filt.P, filt.P.T, rtol=1e-9, atol=1e-12)
            assert np.linalg.eigvalsh(filt.P).min() >= -1e-9

    def test_fifty_step_constant_velocity_tracking(self):
        # exact straight-line measurements: terminal position error < 1 mm
        params = CtraParams()
        dt = 0.037
        filt = CtraFilter(params)
        filt.reset(0.0, 0.0)
        for k in range(1, 51):
            x = 1000.0 * k * dt
            step(filt, np.array([x, 0.0, 1000.0, 0.0, 0.0, 0.0]), dt)
        assert abs(filt.state[0] - 1000.0 * 50 * dt) < 1.0
        assert abs(filt.state[1]) < 1.0


def measure(ts_ms, points, **kwargs):
    """``pseudo_measurements`` of one window given in integer milliseconds."""
    return pseudo_measurements(np.asarray(ts_ms) / 1000.0, np.asarray(points, float), **kwargs)


class TestPseudoMeasurements:
    def test_uniform_straight_line(self):
        ts = [0, 37, 74]
        points = [(1000.0 * t / 1000.0, 0.0) for t in ts]
        u = measure(ts, points)
        assert u[0] == points[-1][0] and u[1] == 0.0
        assert u[2] == pytest.approx(1000.0, rel=1e-9)
        assert u[3] == pytest.approx(0.0, abs=1e-12)
        assert u[4] == pytest.approx(0.0, abs=1e-9)
        assert u[5] == pytest.approx(0.0, abs=1e-6)

    def test_circle_yaw_rate(self):
        # three samples on a circle: chord headings recover omega within 1%
        r, omega, dt = 500.0, 1.0, 0.037
        ts = [0, 37, 74]
        pts = [(r * math.cos(omega * t / 1000.0), r * math.sin(omega * t / 1000.0)) for t in ts]
        u = measure(ts, pts)
        assert u[4] == pytest.approx(omega, rel=0.01)

    def test_repeated_identical_positions(self):
        u = measure([0, 37, 74], [(5.0, 5.0)] * 3, prev_psi=1.25)
        assert u[2] == 0.0 and u[5] == 0.0
        assert u[3] == 1.25  # heading retained
        assert u[4] == 0.0

    def test_requires_three_samples(self):
        with pytest.raises(ValueError, match="insufficient history"):
            measure([0, 37], [(0.0, 0.0), (1.0, 0.0)])

    def test_slow_drift_gated_to_stationary(self):
        ts = [0, 37, 74]
        points = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]  # 27 mm/s
        u = measure(ts, points, prev_psi=0.5, min_speed_mm_s=100.0)
        assert u[2] == 0.0 and u[3] == 0.5


_T37 = np.arange(0, 120 * 37, 37)
_ALONG_MINUS_X = np.stack([-0.5 * _T37, np.full(len(_T37), -0.0)], axis=1)
_MOVE_THEN_DWELL = np.minimum(_T37, 2000)[:, None] * np.array([[-0.3, 0.4]])
# 30 mm/s: no window passes the speed gate
_SLOW_DRIFT = 0.03 * _T37[:, None] * np.array([[0.6, -0.8]])
# scatter of 300 mm: 0.3 s windows pass the speed gate, not the significance one
_JITTER = np.random.default_rng(7).normal(0.0, 300.0, (len(_T37), 2))
# a jump at 2.2 s: 3 s windows across it move, some with both halves still
_STEP = np.where(_T37[:, None] < 2200, 0.0, np.array([[400.0, 300.0]]))


# the gates' edges in exact arithmetic: 28 samples 1 s apart, where every
# term, sum and quotient of a window is exact. A walk at 100 mm/s moves at
# exactly the speed floor in every window
_T1000 = np.arange(28) * 1000
_AT_THE_FLOOR = np.stack([0.1 * _T1000, np.zeros(28)], axis=1)
# the walk plus +-900 mm in a (+, -, -, +) pattern, which sums to zero and
# is orthogonal to time: over all 28 samples the fit's slope is 100 mm/s and
# its residual scatter 900 mm, so 27 s of motion, 2700 mm, is exactly the
# significance bound 3 x 900 mm
_AT_SIGNIFICANCE = np.stack(
    [0.1 * _T1000 + np.tile([900.0, -900.0, -900.0, 900.0], 7), np.zeros(28)], axis=1
)


def _bits(u):
    """The rows' bits, every NaN as one NaN: the sign of a zero counts."""
    return np.where(np.isnan(u), np.nan, u).view(np.int64)


def columnar_measurements(segments, span_s, min_speed_mm_s, cuts):
    """The lockstep's columnar measurements of ``segments`` ((t_ms, xy)
    pairs), laid out one after another in the order given and filtered as
    lockstep rows longest first, in blocks cut at ``cuts``: one array of
    rows per segment, in the segments' order.

    Checks what each block yields besides ``u``: the entries of step ``k``
    are the rows longer than ``k``, in row order, and each entry's ``dt``
    is ``t[k] / 1000 - t[k - 1] / 1000`` (0.0 at ``k = 0``), bit for bit.
    """
    lengths = np.array([len(t) for t, _ in segments])
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(-lengths, kind="stable")
    row_starts, rows = starts[order], lengths[order]
    t_ms = np.concatenate([np.asarray(t, np.int64) for t, _ in segments])
    xy = np.concatenate([np.asarray(xy, float).reshape(-1, 2) for _, xy in segments])
    assert cuts[0] == 0 and cuts[-1] == rows[0]
    t_s = t_ms / 1000.0
    u_all = np.empty((len(t_ms), 6))
    blocks = _measurement_blocks(
        t_ms, xy.copy(), row_starts, rows, cuts, span_s, min_speed_mm_s
    )
    for (u, dt, samples), k0, k1 in zip(blocks, cuts, cuts[1:]):
        expected = np.concatenate([row_starts[rows > k] + k for k in range(k0, k1)])
        assert samples.tolist() == expected.tolist()
        prev = np.where(samples - starts.repeat(lengths)[samples] > 0, samples - 1, samples)
        assert _bits(dt).tolist() == _bits(t_s[samples] - t_s[prev]).tolist()
        u_all[samples] = u
    return [u_all[s0 : s0 + n] for s0, n in zip(starts, lengths)]


def test_builder_matches_vectorized_derivation():
    params = CtraParams()
    segments = [(_T37, xy) for xy in (_SLOW_DRIFT, _JITTER, _STEP, _MOVE_THEN_DWELL)]
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 250
        ts = np.cumsum(rng.integers(4, 60, size=n)).astype(np.int64)
        segments.append((ts, np.cumsum(rng.normal(0, 30, size=(n, 2)), axis=0)))
    for ts, xy in segments:
        # one pseudo_measurements call per window, from row 2 on
        windowed = window_measurements(ts, xy, params.diff_span_s, params.min_speed_mm_s)
        [vectorized] = columnar_measurements(
            [(ts, xy)], params.diff_span_s, params.min_speed_mm_s, [0, len(ts)]
        )
        assert np.isnan(vectorized[:2]).all()
        assert np.allclose(windowed[2:], vectorized[2:], rtol=1e-9, atol=1e-9)
        still = windowed[:, 2] == 0.0  # stationary: speed and rates +0.0
        assert still.any() and (_bits(vectorized[still][:, [2, 4, 5]]) == 0).all()


@st.composite
def segments(draw, max_n=150):
    """A segment: a walk, a move into a dwell, a path along -x on y = -0.0,
    scatter about a point, or a jump. Two samples may share a time, as in a
    merged stream, but never three, so every window spans time."""
    n = draw(st.integers(1, max_n))
    steps = np.array(draw(st.lists(st.integers(1, 90), min_size=n, max_size=n)))
    tie = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    tie[1:] &= ~tie[:-1]
    t_ms = np.cumsum(np.where(tie, 0, steps)) + draw(st.integers(0, 10**6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t_s = (t_ms - t_ms[0]) / 1000.0
    shape = draw(st.sampled_from(["walk", "dwell", "minus_x", "scatter", "jump"]))
    if shape == "walk":
        xy = np.cumsum(rng.normal(0.0, 30.0, size=(n, 2)), axis=0)
    elif shape == "dwell":  # moving, then still: the heading is carried
        stop = draw(st.integers(0, n))
        xy = np.stack([500.0 * t_s, 300.0 * t_s], axis=1)
        xy[stop:] = xy[stop - 1] if stop else 0.0
    elif shape == "minus_x":  # heading pi or -pi, decided by the sign of the zero sums
        xy = np.stack([-500.0 * t_s, np.full(n, -0.0)], axis=1)
    elif shape == "scatter":  # moves fast, but not significantly
        xy = rng.normal(0.0, 300.0, size=(n, 2))
    else:  # still, then still elsewhere: half windows read still
        xy = np.where(np.arange(n)[:, None] < draw(st.integers(0, n)), 0.0, [[400.0, 300.0]])
    return t_ms, xy


@st.composite
def cut_segments(draw):
    """A segment and cuts into blocks."""
    t_ms, xy = draw(segments())
    n = len(t_ms)
    span_s = draw(st.sampled_from([0.05, 0.3, 3.0]))
    sizes = draw(st.lists(st.one_of(st.integers(1, 3), st.integers(1, 64)), max_size=40))
    cuts = set(np.cumsum(sizes).tolist())
    starts = whole_window_starts(t_ms, span_s)
    if len(starts):
        cuts |= set(draw(st.lists(st.sampled_from(starts.tolist()), max_size=4)))
    return t_ms, xy, span_s, sorted({0, n} | {c for c in cuts if 0 < c < n})


@settings(max_examples=200, deadline=None)
@given(cut_segments())
# blocks of 1, 2 and 3 rows; the first ends before row 2
@example((_T37, _ALONG_MINUS_X, 3.0, [0, 1, 3, 6, 7, 9, 120]))
# windows of 3 s reach sample 0 through row 80: the blocks at 40 and 80
# start there, and the block at 81 at its window start, sample 1
@example((_T37, _ALONG_MINUS_X, 3.0, [0, 2, 40, 80, 81, 82, 120]))
# the dwell from row ~62 on keeps the heading, the last block's from the carry
@example((_T37, _MOVE_THEN_DWELL, 0.3, [0, 5, 50, 54, 55, 101, 120]))
# 3 s windows cut inside the move, resuming the sums mid-window
@example((_T37, _MOVE_THEN_DWELL, 3.0, [0, 17, 18, 33, 54, 120]))
# no window passes the speed gate; no window passes the significance gate
@example((_T37, _SLOW_DRIFT, 3.0, [0, 30, 31, 120]))
@example((_T37, _JITTER, 0.3, [0, 10, 60, 61, 120]))
# windows across the jump move, some with still halves; cuts among them
@example((_T37, _STEP, 3.0, [0, 59, 60, 66, 90, 120]))
def test_blocked_measurements_equal_whole_segment(case):
    t_ms, xy, span_s, cuts = case
    whole, _ = _segment_measurements(t_ms, xy, span_s, 100.0)
    [blocked] = columnar_measurements([(t_ms, xy)], span_s, 100.0, cuts)
    assert _bits(blocked).tolist() == _bits(whole).tolist()


@st.composite
def lockstep_blocks(draw):
    """Segments of one lockstep, a span, a speed floor, and cuts into blocks:
    blocks of 1 to 3 steps among longer ones, some cut where a row ends,
    most with rows ending inside them."""
    segs = draw(st.lists(segments(max_n=90), min_size=1, max_size=6))
    n = max(len(t_ms) for t_ms, _ in segs)
    span_s = draw(st.sampled_from([0.05, 0.3, 3.0]))
    min_speed = draw(st.sampled_from([0.0, 100.0, 300.0]))
    sizes = draw(st.lists(st.one_of(st.integers(1, 3), st.integers(1, 40)), max_size=40))
    cuts = set(np.cumsum(sizes).tolist())
    cuts |= set(draw(st.lists(st.sampled_from([len(t_ms) for t_ms, _ in segs]), max_size=3)))
    return segs, span_s, min_speed, sorted({0, n} | {c for c in cuts if 0 < c < n})


@settings(max_examples=300, deadline=None)
@given(lockstep_blocks())
# rows of 120, 120, 60, 3, 2 and 1 samples; blocks of 1, 2 and 3 steps
# carry every kind of window, the rows of 3, 2 and 1 end inside blocks,
# and the row of 60 at a cut
@example((
    [(_T37, _ALONG_MINUS_X), (_T37, _STEP), (_T37[:60], _MOVE_THEN_DWELL[:60]),
     (_T37[:3], _JITTER[:3]), (_T37[:2], _SLOW_DRIFT[:2]), (_T37[:1], _STEP[:1])],
    3.0, 100.0, [0, 1, 3, 4, 6, 9, 10, 12, 40, 60, 62, 63, 120],
))
# short segments before long ones in the flat arrays: the rows' order is
# not the samples' order, and the rows of 2 and 60 end inside blocks
@example((
    [(_T37[:2], _SLOW_DRIFT[:2]), (_T37[:60], _MOVE_THEN_DWELL[:60]),
     (_T37, _ALONG_MINUS_X), (_T37[:3], _JITTER[:3]), (_T37, _STEP)],
    3.0, 100.0, [0, 1, 3, 7, 40, 59, 62, 120],
))
# 0.3 s windows: the jitter passes the speed gate and fails significance,
# the slow drift fails the speed gate, the move turns into a dwell
@example((
    [(_T37, _JITTER), (_T37, _SLOW_DRIFT), (_T37[:100], _MOVE_THEN_DWELL[:100])],
    0.3, 100.0, [0, 2, 5, 7, 50, 54, 55, 99, 101, 120],
))
# windows at exactly the speed floor, and one at exactly the significance
# bound, which both read as moving
@example(([(_T1000, _AT_THE_FLOOR), (_T1000, _AT_SIGNIFICANCE)], 30.0, 100.0, [0, 5, 28]))
def test_columnar_blocks_equal_oracle_rows(case):
    segs, span_s, min_speed, cuts = case
    blocked = columnar_measurements(segs, span_s, min_speed, cuts)
    for (t_ms, xy), rows in zip(segs, blocked):
        whole, _ = _segment_measurements(t_ms, xy, span_s, min_speed)
        assert _bits(rows).tolist() == _bits(whole).tolist()


class TestRunFilter:
    def test_smooths_constant_position_noise(self):
        # Monte-Carlo over 10 seeds at sigma = 50 mm
        params = CtraParams()
        for seed in range(10):
            raw = constant_position_stream(50.0, 500, seed=seed)
            filtered = filter_one(raw, params)
            assert len(filtered) == len(raw)
            raw_std = positions(raw).std(axis=0)
            flt_std = positions(filtered).std(axis=0)
            assert np.all(flt_std < raw_std)
            assert path_length(filtered) < path_length(raw)

    def test_noiseless_input_converges_within_five_samples(self):
        ts = np.round(np.arange(60) * 37.037).astype(int)
        xy = np.stack([500.0 * ts / 1000.0, np.full(len(ts), 20.0)], axis=1)
        filtered = filter_one(make_stream(ts, xy), CtraParams())
        err = np.hypot(*(positions(filtered) - xy).T)
        assert np.all(err[5:] < 1.0)

    def test_restart_equals_fresh_run_on_suffix(self):
        raw = constant_position_stream(40.0, 200, seed=3)
        params = CtraParams()
        restart_t = raw.t_ms[120]
        with_restart = filter_one(raw, params, [restart_t])
        fresh_suffix = filter_one(rows(raw, slice(120, None)), params)
        assert rows(with_restart, slice(120, None)) == fresh_suffix
        # the restart sample reseeds the state from the measurement itself
        assert with_restart.xy[120].tolist() == raw.xy[120].tolist()

    def test_zigzag_noise_smoothing_path_length(self):
        # noisy zig-zag oscillation around a slow traverse between two points
        rng = np.random.default_rng(11)
        n = 400
        ts = np.round(np.arange(n) * 37.037).astype(int)
        frac = np.linspace(0.0, 1.0, n)
        base = np.stack([np.zeros(n), 2000.0 - 1000.0 * frac], axis=1)
        zigzag = base.copy()
        zigzag[:, 0] += 120.0 * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        zigzag += rng.normal(0, 40.0, size=(n, 2))
        raw = make_stream(ts, zigzag)
        filtered = filter_one(raw, CtraParams())
        assert path_length(filtered) < path_length(raw)

    def test_empty_stream(self):
        empty = make_stream([], [])
        assert filter_one(empty, CtraParams()) == empty

    @pytest.mark.parametrize(
        "restarts",
        [
            [],  # one segment
            [1850.5, 5000.0],  # between samples; unequal segment lengths
            [3700.0, 3700.0, 3699.5],  # duplicates, and a time mapping to the same sample
            [-10.0, 0.0],  # at (and before) the first sample
            [2000.0, 2011.0, 2036.0, 2071.0, 9e9],  # segments of 1, 1 and 2; past the end
            [int(t) for t in np.arange(0, 7000, 370)],  # many short segments
        ],
    )
    def test_lockstep_equals_per_sample_loop(self, restarts):
        # merged-stream shape: a second sensor interleaved, tied timestamps
        # (dt = 0) included, on a curving track so every branch is taken
        rng = np.random.default_rng(7)
        ts = np.sort(np.concatenate([np.arange(0, 7400, 37), np.arange(0, 7400, 10)[::3]]))
        t_s = ts / 1000.0
        xy = np.stack([800.0 * np.sin(0.6 * t_s), 500.0 * t_s], axis=1)
        xy += rng.normal(0.0, 15.0, size=xy.shape)
        stream = make_stream(ts, xy)
        assert np.any(np.diff(ts) == 0)
        if 2036.0 in restarts:
            starts = sorted({0, *np.searchsorted(ts, restarts).tolist()} - {len(ts)})
            assert np.diff(starts)[1:4].tolist() == [1, 1, 2]
        params = CtraParams()
        assert filter_one(stream, params, restarts) == loop_filter(stream, params, restarts)

    # row-step budgets: a block per step; blocks of one step while four or
    # more rows run and of 2, 3 and 7 steps after, rows 113 and 65 ending
    # inside them; blocks of 9 steps and more, every row but the longest
    # ending inside one; the whole lockstep in one block
    @pytest.mark.parametrize("budget", [1, 7, 64, 2000])
    def test_blocked_lockstep_equals_per_sample_loop(self, budget, monkeypatch):
        monkeypatch.setattr(ekf, "_ROW_STEPS_PER_BLOCK", budget)
        # a curving merged-shape stream with ties, and a shorter one at 27 Hz
        rng = np.random.default_rng(8)
        ts = np.sort(np.concatenate([np.arange(0, 5000, 37), np.arange(0, 5000, 10)[::3]]))
        t_s = ts / 1000.0
        xy = np.stack([800.0 * np.sin(0.6 * t_s), 500.0 * t_s], axis=1)
        streams = [
            make_stream(ts, xy + rng.normal(0.0, 15.0, size=xy.shape)),
            constant_position_stream(40.0, 120, seed=6),
        ]
        params, restarts = CtraParams(), [1850.5, 2011.0, 2036.0]
        lengths = []
        for stream in streams:
            cut = np.searchsorted(stream.t_ms, restarts)
            starts = np.unique(np.concatenate(([0], cut[cut < len(stream)])))
            lengths += np.diff(starts, append=len(stream)).tolist()
        rows = np.array(sorted(lengths, reverse=True))
        assert rows.tolist() == [179, 113, 65, 50, 10, 5, 1]
        cuts = ekf._block_cuts((rows[:, None] > np.arange(rows[0])).sum(axis=0))
        blocks = list(zip(cuts, cuts[1:]))
        inside = sorted({int(n) for n in rows for k0, k1 in blocks if k0 < n < k1})
        assert {
            1: (len(blocks), inside) == (179, []),
            7: blocks[:4] == [(0, 1), (1, 2), (2, 3), (3, 4)] and inside == [65, 113],
            64: blocks[0] == (0, 9) and inside == [1, 5, 10, 50, 65, 113],
            2000: blocks == [(0, 179)],
        }[budget]
        out = run_filter(streams, params, restarts)
        for stream, result in zip(streams, out):
            assert result == loop_filter(stream, params, restarts)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_names_the_sample(self):
        raw = constant_position_stream(40.0, 50, seed=1)
        params = CtraParams()
        # CtraParams rejects a non-finite diagonal, so set it past the check
        object.__setattr__(params, "q_diag", (math.inf,) * 6)
        with pytest.raises(FilterError, match=r"diverged at sample 2 \(t_ms 74\)"):
            filter_one(raw, params)

    @pytest.mark.parametrize("p0_x", [math.nan, -5e-324])
    def test_health_test_fails_a_nan_or_negative_diagonal(self, p0_x):
        # the per-step health test runs at sample 0 too, before any
        # arithmetic: a NaN and the negative double nearest zero both fail it
        raw = constant_position_stream(40.0, 50, seed=1)
        params = CtraParams()
        object.__setattr__(params, "p0_diag", (p0_x,) + params.p0_diag[1:])
        expected = f"filter diverged at sample 0 (t_ms {raw.t_ms[0]})"
        [result] = run_filter([raw], params)
        assert isinstance(result, FilterError) and str(result) == expected

    def test_health_test_passes_a_negative_zero_diagonal(self):
        # -0.0 >= 0: the stream filters as the per-sample loop does
        raw = constant_position_stream(40.0, 50, seed=1)
        params = CtraParams(p0_diag=(-0.0,) + CtraParams().p0_diag[1:])
        assert filter_one(raw, params) == loop_filter(raw, params)


class TestStackedStreams:
    """A failing stream fails alone, with the text a lone run of it gives."""

    def test_diverging_stream_fails_alone(self):
        params = CtraParams()
        healthy = constant_position_stream(40.0, 400, seed=1)
        raw = constant_position_stream(40.0, 500, seed=2)
        xy = raw.xy.copy()
        xy[300, 0] = 1e200  # its square overflows in the differencing sums
        diverging = make_stream(raw.t_ms, xy)
        restarts = [raw.t_ms[100], raw.t_ms[250]]
        with pytest.warns(RuntimeWarning):
            [lone] = run_filter([diverging], params, restarts)
            stacked = run_filter([healthy, diverging, healthy], params, restarts)
        assert isinstance(lone, FilterError)
        assert str(lone) == f"filter diverged at sample 301 (t_ms {raw.t_ms[301]})"
        assert isinstance(stacked[1], FilterError) and str(stacked[1]) == str(lone)
        assert stacked[0] == stacked[2] == filter_one(healthy, params, restarts)

    def test_degenerate_stream_fails_alone(self):
        # no prior, process or measurement noise on the acceleration: the
        # innovation covariance is singular at a segment's first update,
        # which a segment of two samples never reaches
        zero_a = CtraParams(
            q_diag=CtraParams().q_diag[:5] + (0.0,),
            r_diag=CtraParams().r_diag[:5] + (0.0,),
            p0_diag=CtraParams().p0_diag[:5] + (0.0,),
        )
        long = constant_position_stream(40.0, 50, seed=3)
        short = constant_position_stream(40.0, 2, seed=4)
        [lone] = run_filter([long], zero_a)
        assert isinstance(lone, FilterError)
        assert str(lone) == "degenerate innovation covariance"
        stacked = run_filter([short, long, short], zero_a)
        assert isinstance(stacked[1], FilterError) and str(stacked[1]) == str(lone)
        assert stacked[0] == stacked[2] == filter_one(short, zero_a)

    @staticmethod
    def batches(draw_blowups):
        """Batches of 2-5 streams, moving or still, of 0-70 samples at 27
        Hz, with a shared restart schedule; with ``draw_blowups``, a sample
        of each of a subset of the streams set to 1e200 (placed by a
        fraction of the stream's length)."""
        stream = st.tuples(
            st.integers(0, 70), st.integers(0, 2**16), st.sampled_from([0.0, 300.0]),
            st.one_of(st.none(), st.floats(0.0, 1.0, exclude_max=True))
            if draw_blowups
            else st.none(),
        )
        return st.tuples(
            st.lists(stream, min_size=2, max_size=5),
            st.lists(st.integers(-100, 2700), max_size=4),
        )

    @staticmethod
    def build(spec):
        n, seed, speed_mm_s, blowup_at = spec
        ts = np.round(np.arange(n) * 37.037).astype(np.int64)
        xy = np.stack([speed_mm_s * ts / 1000.0, np.zeros(n)], axis=1)
        xy += np.random.default_rng(seed).normal(0.0, 20.0, size=xy.shape)
        if blowup_at is not None and n:
            xy[int(blowup_at * n), 0] = 1e200  # its square overflows in the differencing sums
        return make_stream(ts, xy)

    @staticmethod
    def assert_each_result_is_a_lone_runs(streams, params, restarts):
        out = run_filter(streams, params, restarts)
        for stream, result in zip(streams, out):
            [lone] = run_filter([stream], params, restarts)
            if isinstance(lone, FilterError):
                assert isinstance(result, FilterError) and str(result) == str(lone)
            else:
                assert isinstance(result, Stream) and result == lone
        return out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(batches(True))
    def test_batch_with_blowups_gives_each_stream_its_lone_result(self, batch):
        specs, restarts = batch
        streams = [self.build(spec) for spec in specs]
        self.assert_each_result_is_a_lone_runs(streams, CtraParams(), restarts)

    @settings(max_examples=40, deadline=None)
    @given(batches(False))
    def test_degenerate_batch_gives_each_stream_its_lone_result(self, batch):
        # no acceleration noise anywhere: a segment that reaches its third
        # sample, its first update, fails there (see the test above)
        zero_a = CtraParams(
            q_diag=CtraParams().q_diag[:5] + (0.0,),
            r_diag=CtraParams().r_diag[:5] + (0.0,),
            p0_diag=CtraParams().p0_diag[:5] + (0.0,),
        )
        specs, restarts = batch
        streams = [self.build(spec) for spec in specs]
        out = self.assert_each_result_is_a_lone_runs(streams, zero_a, restarts)
        for stream, result in zip(streams, out):
            cut = np.searchsorted(stream.t_ms, restarts)
            starts = np.unique(np.concatenate(([0], cut[cut < len(stream)])))
            longest = np.diff(starts, append=len(stream)).max() if len(stream) else 0
            assert isinstance(result, FilterError) == (longest >= 3)

    def test_empty_streams_are_their_own_results(self):
        empty = make_stream([], [])
        stream = constant_position_stream(40.0, 30, seed=5)
        out = run_filter([empty, stream, empty], CtraParams())
        assert out[0] is empty and out[2] is empty
        assert out[1] == filter_one(stream, CtraParams())
        assert run_filter([], CtraParams()) == []

    def test_outputs_are_read_only_slices_of_one_array(self):
        streams = [constant_position_stream(40.0, n, seed=n) for n in (30, 80, 5)]
        out = run_filter(streams, CtraParams(), [600.0])
        owner = out[0].xy.base
        assert not owner.flags.writeable and len(owner) == 115
        for result in out:
            assert result.xy.base is owner and np.shares_memory(result.xy, owner)
            with pytest.raises(ValueError, match="WRITEABLE"):
                result.xy.flags.writeable = True


class TestStacks:
    @staticmethod
    def mixed_states(rng, n):
        # straight-line, series (|h| < 1e-4) and closed-form arc rows
        return random_states(rng, n, (0.0, 1e-9, 1e-3, -2e-3, 0.5, -1.7))

    def test_motion_model_equals_scalar_oracle(self):
        # single states and stacks, bit for bit against math-call arithmetic:
        # a mixed stack, and an all-straight one that skips the arc
        rng = np.random.default_rng(21)
        n = 400
        states = self.mixed_states(rng, n)
        dts = rng.uniform(0.0, 0.1, n)
        dts[:5] = 0.0
        # a zero mid-arc heading leaves the series d(chord) term alone in J[0, 4]
        states[::2, 3] = -(0.5 * dts[::2] * states[::2, 4])
        straight = random_states(rng, 40, (0.0, -0.0, 1e-9, -5e-7))
        # zero steps in every quadrant: the signs of J[0, 4] and J[1, 4]'s zeros
        straight[:8, 3] = np.tile([0.5, 2.5, -2.5, -0.5], 2)
        # the branch edges: |psi_dot| exactly eps_yaw is an arc, and over a
        # 0.5 s step |h| = 0.25 * 4e-4, exactly 1e-4, takes the closed form
        edges = random_states(rng, 40, (1e-6, -1e-6, 4e-4, -4e-4))
        for stack, steps in ((states, dts), (straight, dts[:40]), (straight, 0.05), (edges, 0.5)):
            pred, jac = ctra_transition(stack, steps)
            assert pred.shape == stack.shape and jac.shape == stack.shape + (6,)
            for i in range(len(stack)):
                dt = np.broadcast_to(steps, len(stack))[i]
                expected_pred = predict_state_scalar(stack[i], dt)
                expected_jac = ctra_jacobian_scalar(stack[i], dt)
                lone_pred, lone_jac = ctra_transition(stack[i], dt)
                for got, expected in ((pred[i], expected_pred), (jac[i], expected_jac),
                                      (lone_pred, expected_pred), (lone_jac, expected_jac)):
                    assert _bits(got).tolist() == _bits(expected).tolist()

    def test_stacked_filter_equals_lone_filters(self):
        rng = np.random.default_rng(22)
        params = CtraParams()
        n = 17
        stack = CtraFilter(params)
        stack.reset(rng.normal(0, 500, n), rng.normal(0, 500, n))
        lone = []
        for x, y in stack.state[:, :2]:
            f = CtraFilter(params)
            f.reset(x, y)
            lone.append(f)
        for _ in range(40):
            dts = rng.uniform(0.0, 0.05, n)
            u = self.mixed_states(rng, n)
            step(stack, u, dts)
            for i, f in enumerate(lone):
                step(f, u[i], dts[i])
                assert np.array_equal(stack.state[i], f.state)
                assert np.array_equal(stack.P[i], f.P)

    def test_singular_row_raises(self):
        filt = CtraFilter(CtraParams(r_diag=(0.0,) * 6))
        filt.reset(np.zeros(3), np.zeros(3))
        filt.P[1] = 0.0
        with pytest.raises(FilterError, match="degenerate"):
            filt.update(np.zeros((3, 6)))

    def test_jacobian_buffer_reused_as_the_lockstep_reuses_it(self):
        # one buffer stepped through stacks whose row prefix shrinks, arc and
        # all-straight steps mixed: each step returns the buffer's prefix,
        # equal bit for bit to a fresh Jacobian, and the 28 entries no step
        # writes keep the identity's bits
        rng = np.random.default_rng(24)
        buf = np.broadcast_to(np.eye(6), (12, 6, 6)).copy()
        written = np.zeros((6, 6), dtype=bool)
        written[[0, 0, 0, 1, 1, 1, 2, 3], [2, 3, 4, 2, 3, 4, 5, 4]] = True
        straight_rates = (0.0, -0.0, 1e-9, -5e-7)
        for rows, straight in [(12, False), (12, True), (9, False), (9, True),
                               (9, False), (4, True), (4, False), (1, False), (1, True)]:
            if straight:
                states = random_states(rng, rows, straight_rates)
            else:
                states = self.mixed_states(rng, rows)
                states[0, 4] = 0.5  # at least one arc row
            dts = rng.uniform(0.0, 0.1, rows)
            grid_terms = (0.5 * dts, np.float_power(dts, 3), buf[:rows])
            pred, jac = ctra_transition(states, dts, grid_terms=grid_terms)
            fresh_pred, fresh_jac = ctra_transition(states, dts)
            assert np.shares_memory(jac, buf) and jac.shape == (rows, 6, 6)
            assert _bits(pred).tolist() == _bits(fresh_pred).tolist()
            assert _bits(jac).tolist() == _bits(fresh_jac).tolist()
            assert _bits(buf[:, ~written]).tolist() == _bits(
                np.broadcast_to(np.eye(6)[~written], (12, 28))
            ).tolist()

    def test_diverged_flags_rows(self):
        filt = CtraFilter(CtraParams())
        filt.reset(np.zeros(4), np.zeros(4))
        assert not filt.diverged().any()
        filt.state[1, 2] = np.nan
        filt.P[2, 4, 4] = -1e-3
        filt.state[3, 0] = np.inf
        filt.P[0, 5, 5] = 0.0  # a zero variance is not a negative one
        assert filt.diverged().tolist() == [False, True, True, True]


def test_wrap_angle_equals_remainder():
    pi = math.pi
    special = [pi, -pi, 0.0, -0.0, 2 * pi, -2 * pi, 5e-324, -5e-324, 1e300, -1e300, 1e17]
    special += [k * pi for k in range(-101, 102, 2)]  # odd multiples of pi
    special += [k * 2 * pi for k in range(-60, 61)]
    special += list(np.nextafter(special[:2], [4.0, -4.0]))
    rng = np.random.default_rng(3)
    angles = np.concatenate(
        [special, rng.uniform(-50, 50, 5000), rng.uniform(-1e9, 1e9, 2000)]
    )
    # arrays wholly inside (-pi, pi), returned as given
    inside = np.nextafter([pi, -pi], 0.0)
    inner = [np.array([0.0, -0.0]), inside, np.concatenate([inside, [-0.0, 5e-324]])]
    inner.append(rng.uniform(-pi, pi, 1000))
    for arr in [*inner, angles]:
        expected = np.array([wrap_angle_scalar(a) for a in arr.tolist()])
        wrapped = wrap_angle(arr)
        # bit for bit, sign of zero included
        assert np.array_equal(wrapped.view(np.int64), expected.view(np.int64))
    # a NaN stays NaN, and the angles beside it wrap as alone
    with_nan = wrap_angle(np.array([0.5, np.nan, 7.0, -0.0]))
    assert np.isnan(with_nan[1])
    assert with_nan[[0, 2, 3]].tolist() == [0.5, wrap_angle_scalar(7.0), -0.0]
    assert math.copysign(1.0, with_nan[3]) == -1.0
    for a, e in zip(special, expected.tolist()):
        assert math.copysign(1.0, wrap_angle(a)) == math.copysign(1.0, e)
        assert wrap_angle(a) == e


@pytest.mark.parametrize("inf", [math.inf, -math.inf])
def test_wrap_angle_infinities_take_the_full_path(inf):
    # an infinity is not inside (-pi, pi): fmod turns it into NaN, warning,
    # and the angles beside it wrap as alone
    with pytest.warns(RuntimeWarning, match="invalid value"):
        assert math.isnan(wrap_angle(inf))
    with pytest.warns(RuntimeWarning, match="invalid value"):
        wrapped = wrap_angle(np.array([0.5, inf, -0.0]))
    assert np.isnan(wrapped[1])
    assert _bits(wrapped[[0, 2]]).tolist() == _bits(np.array([0.5, -0.0])).tolist()


def test_params_validation():
    with pytest.raises(ValueError):
        CtraParams(q_diag=(1.0,) * 5)
    with pytest.raises(ValueError):
        CtraParams(r_diag=(1.0,) * 5 + (-1.0,))


@pytest.mark.parametrize(
    "field, value, text",
    [
        ("diff_span_s", math.nan, "diff_span_s must be finite and positive"),
        ("diff_span_s", -3.0, "diff_span_s must be finite and positive"),
        ("diff_span_s", 0.0, "diff_span_s must be finite and positive"),
        ("diff_span_s", math.inf, "diff_span_s must be finite and positive"),
        ("eps_yaw", math.nan, "eps_yaw must be finite and positive"),
        ("eps_yaw", 0.0, "eps_yaw must be finite and positive"),
        ("eps_yaw", -1e-6, "eps_yaw must be finite and positive"),
        ("min_speed_mm_s", math.nan, "min_speed_mm_s must be finite and nonnegative"),
        ("min_speed_mm_s", -1.0, "min_speed_mm_s must be finite and nonnegative"),
        ("min_speed_mm_s", math.inf, "min_speed_mm_s must be finite and nonnegative"),
    ],
)
def test_derivation_knobs_rejected_unless_finite_and_in_range(field, value, text):
    with pytest.raises(ValueError, match=text):
        CtraParams(**{field: value})


def test_derivation_knobs_at_their_edges_are_accepted():
    CtraParams(min_speed_mm_s=0.0)  # no speed floor: every measurable window moves
    CtraParams(diff_span_s=5e-324, eps_yaw=5e-324)
