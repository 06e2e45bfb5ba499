import math

import numpy as np
import pytest

from conftest import constant_position_stream, make_stream, path_length, positions
from ekf_oracle import (
    CtraState,
    MeasurementBuilder,
    ctra_jacobian_scalar,
    loop_filter,
    predict_state_scalar,
    pseudo_measurements,
    wrap_angle_scalar,
)
from uwbvo.ekf import (
    CtraFilter,
    CtraParams,
    FilterError,
    _segment_measurements,
    ctra_jacobian,
    predict_state,
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
    jac = np.empty((6, 6))
    for j in range(6):
        hi = state.copy()
        lo = state.copy()
        hi[j] += step
        lo[j] -= step
        f_hi = predict_state(hi, dt)
        f_lo = predict_state(lo, dt)
        diff = f_hi - f_lo
        diff[3] = wrap_angle(f_hi[3] - f_lo[3])  # heading column on the circle
        jac[:, j] = diff / (2 * step)
    return jac


class TestPredictState:
    def test_stationary_fixed_point(self):
        for psi in (-2.0, 0.0, 1.3):
            s = np.array([12.0, -7.0, 0.0, psi, 0.0, 0.0])
            out = predict_state(s, 0.1)
            assert out[0] == 12.0 and out[1] == -7.0

    def test_arc_example(self):
        # direct evaluation of the arc update with v/psi_dot = 10000 mm
        s = np.array([0.0, 0.0, 1000.0, 0.0, 0.1, 0.0])
        out = predict_state(s, 0.1)
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
            straight = predict_state(base, dt)
            for eps in (1e-12, 1e-6, -1e-6):
                arc = base.copy()
                arc[4] = eps
                out = predict_state(arc, dt)
                assert abs(out[0] - straight[0]) < 1e-6
                assert abs(out[1] - straight[1]) < 1e-6

    def test_heading_normalized(self):
        s = np.array([0.0, 0.0, 0.0, 3.0, 5.0, 0.0])
        out = predict_state(s, 1.0)
        assert -math.pi < out[3] <= math.pi


class TestJacobian:
    def test_degenerate_state_structure(self):
        for psi in (0.0, 0.7, -2.1):
            s = np.array([5.0, 6.0, 0.0, psi, 0.0, 0.0])
            dt = 0.05
            jac = ctra_jacobian(s, dt)
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
            analytic = ctra_jacobian(s, dt)
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
                predict_state(mirror @ s, dt), mirror @ predict_state(s, dt)
            )
            assert np.allclose(
                ctra_jacobian(mirror @ s, dt),
                mirror @ ctra_jacobian(s, dt) @ mirror,
                atol=1e-12,
            )


class TestFilterStep:
    def test_huge_r_keeps_prediction(self):
        params = CtraParams(r_diag=(1e12,) * 6)
        filt = CtraFilter(params)
        filt.reset(0.0, 0.0)
        filt.state = np.array([0.0, 0.0, 1000.0, 0.0, 0.0, 0.0])
        predicted = predict_state(filt.state, 0.1)
        filt.step(np.array([500.0, 500.0, 0.0, 1.0, 0.0, 0.0]), 0.1)
        assert np.allclose(filt.state, predicted, atol=1e-4)

    def test_zero_q_huge_r_trace_non_increasing(self):
        # stationary with certain rates: prediction cannot spread variance
        params = CtraParams(q_diag=(0.0,) * 6, r_diag=(1e9,) * 6)
        filt = CtraFilter(params)
        filt.reset(0.0, 0.0)
        filt.P = np.diag([1000.0, 1000.0, 0.0, 1.0, 0.0, 0.0])
        traces = [np.trace(filt.P)]
        for _ in range(20):
            filt.step(np.zeros(6), 0.05)
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
            filt.step(u, 0.037)
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
            filt.step(np.array([x, 0.0, 1000.0, 0.0, 0.0, 0.0]), dt)
        assert abs(filt.state[0] - 1000.0 * 50 * dt) < 1.0
        assert abs(filt.state[1]) < 1.0


class TestPseudoMeasurements:
    def test_uniform_straight_line(self):
        ts = [0, 37, 74]
        samples = make_stream(ts, [(1000.0 * t / 1000.0, 0.0) for t in ts])
        u = pseudo_measurements(samples)
        assert u[0] == samples[-1].pos.x and u[1] == 0.0
        assert u[2] == pytest.approx(1000.0, rel=1e-9)
        assert u[3] == pytest.approx(0.0, abs=1e-12)
        assert u[4] == pytest.approx(0.0, abs=1e-9)
        assert u[5] == pytest.approx(0.0, abs=1e-6)

    def test_circle_yaw_rate(self):
        # three samples on a circle: chord headings recover omega within 1%
        r, omega, dt = 500.0, 1.0, 0.037
        ts = [0, 37, 74]
        pts = [(r * math.cos(omega * t / 1000.0), r * math.sin(omega * t / 1000.0)) for t in ts]
        u = pseudo_measurements(make_stream(ts, pts))
        assert u[4] == pytest.approx(omega, rel=0.01)

    def test_repeated_identical_positions(self):
        samples = make_stream([0, 37, 74], [(5.0, 5.0)] * 3)
        u = pseudo_measurements(samples, prev_psi=1.25)
        assert u[2] == 0.0 and u[5] == 0.0
        assert u[3] == 1.25  # heading retained
        assert u[4] == 0.0

    def test_requires_three_samples(self):
        samples = make_stream([0, 37], [(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(ValueError, match="insufficient history"):
            pseudo_measurements(samples)

    def test_slow_drift_gated_to_stationary(self):
        ts = [0, 37, 74]
        samples = make_stream(ts, [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])  # 27 mm/s
        u = pseudo_measurements(samples, prev_psi=0.5, min_speed_mm_s=100.0)
        assert u[2] == 0.0 and u[3] == 0.5


def test_builder_matches_vectorized_derivation():
    params = CtraParams()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 250
        ts = np.cumsum(rng.integers(4, 60, size=n)).astype(np.int64)
        xy = np.cumsum(rng.normal(0, 30, size=(n, 2)), axis=0)
        samples = make_stream(ts, xy)
        builder = MeasurementBuilder(params.diff_span_s, params.min_speed_mm_s)
        incremental = [builder.push(s) for s in samples]
        vectorized = _segment_measurements(
            ts, xy.astype(float), params.diff_span_s, params.min_speed_mm_s
        )
        for k in range(n):
            if incremental[k] is None:
                assert np.isnan(vectorized[k]).all()
            else:
                assert np.allclose(incremental[k], vectorized[k], rtol=1e-9, atol=1e-9)


class TestRunFilter:
    def test_smooths_constant_position_noise(self):
        # Monte-Carlo over 10 seeds at sigma = 50 mm
        params = CtraParams()
        for seed in range(10):
            raw = constant_position_stream(50.0, 500, seed=seed)
            filtered = run_filter(raw, params)
            assert len(filtered) == len(raw)
            raw_std = positions(raw).std(axis=0)
            flt_std = positions(filtered).std(axis=0)
            assert np.all(flt_std < raw_std)
            assert path_length(filtered) < path_length(raw)

    def test_noiseless_input_converges_within_five_samples(self):
        ts = np.round(np.arange(60) * 37.037).astype(int)
        xy = np.stack([500.0 * ts / 1000.0, np.full(len(ts), 20.0)], axis=1)
        filtered = run_filter(make_stream(ts, xy), CtraParams())
        err = np.hypot(*(positions(filtered) - xy).T)
        assert np.all(err[5:] < 1.0)

    def test_restart_equals_fresh_run_on_suffix(self):
        raw = constant_position_stream(40.0, 200, seed=3)
        params = CtraParams()
        restart_t = raw[120].t_ms
        with_restart = run_filter(raw, params, restart_times_ms=[restart_t])
        fresh_suffix = run_filter(raw[120:], params)
        assert with_restart[120:] == fresh_suffix
        # the restart sample reseeds the state from the measurement itself
        assert with_restart[120].pos == raw[120].pos

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
        filtered = run_filter(raw, CtraParams())
        assert path_length(filtered) < path_length(raw)

    def test_empty_stream(self):
        assert run_filter([], CtraParams()) == []

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
        assert run_filter(stream, params, restarts) == loop_filter(stream, params, restarts)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_names_the_sample(self):
        raw = constant_position_stream(40.0, 50, seed=1)
        with pytest.raises(FilterError, match=r"diverged at sample 2 \(t_ms 74\)"):
            run_filter(raw, CtraParams(q_diag=(math.inf,) * 6))


class TestStacks:
    @staticmethod
    def mixed_states(rng, n):
        # straight-line, series (|h| < 1e-4) and closed-form arc rows
        return random_states(rng, n, (0.0, 1e-9, 1e-3, -2e-3, 0.5, -1.7))

    def test_motion_model_equals_scalar_oracle(self):
        # single states and stacks, bit for bit against math-call arithmetic
        rng = np.random.default_rng(21)
        n = 400
        states = self.mixed_states(rng, n)
        dts = rng.uniform(0.0, 0.1, n)
        dts[:5] = 0.0
        # a zero mid-arc heading leaves the series d(chord) term alone in J[0, 4]
        states[::2, 3] = -(0.5 * dts[::2] * states[::2, 4])
        pred, jac = predict_state(states, dts), ctra_jacobian(states, dts)
        assert pred.shape == (n, 6) and jac.shape == (n, 6, 6)
        for i in range(n):
            expected_pred = predict_state_scalar(states[i], dts[i])
            expected_jac = ctra_jacobian_scalar(states[i], dts[i])
            assert np.array_equal(pred[i], expected_pred)
            assert np.array_equal(jac[i], expected_jac)
            assert np.array_equal(predict_state(states[i], dts[i]), expected_pred)
            assert np.array_equal(ctra_jacobian(states[i], dts[i]), expected_jac)

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
            stack.step(u, dts)
            for i, f in enumerate(lone):
                f.step(u[i], dts[i])
                assert np.array_equal(stack.state[i], f.state)
                assert np.array_equal(stack.P[i], f.P)

    def test_singular_row_raises(self):
        filt = CtraFilter(CtraParams(r_diag=(0.0,) * 6))
        filt.reset(np.zeros(3), np.zeros(3))
        filt.P[1] = 0.0
        with pytest.raises(FilterError, match="degenerate"):
            filt.update(np.zeros((3, 6)))

    def test_diverged_flags_rows(self):
        filt = CtraFilter(CtraParams())
        filt.reset(np.zeros(4), np.zeros(4))
        assert not filt.diverged().any()
        filt.state[1, 2] = np.nan
        filt.P[2, 4, 4] = -1e-3
        filt.state[3, 0] = np.inf
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
    expected = np.array([wrap_angle_scalar(a) for a in angles.tolist()])
    wrapped = wrap_angle(angles)
    # bit for bit, sign of zero included
    assert np.array_equal(wrapped.view(np.int64), expected.view(np.int64))
    for a, e in zip(special, expected.tolist()):
        assert math.copysign(1.0, wrap_angle(a)) == math.copysign(1.0, e)
        assert wrap_angle(a) == e


def test_ctra_state_round_trip_and_validation():
    s = CtraState(1.0, 2.0, 3.0, 0.5, -0.1, 9.0)
    assert CtraState.from_array(s.as_array()) == s
    with pytest.raises(ValueError):
        CtraState(float("nan"), 0, 0, 0, 0, 0)


def test_params_validation():
    with pytest.raises(ValueError):
        CtraParams(q_diag=(1.0,) * 5)
    with pytest.raises(ValueError):
        CtraParams(r_diag=(1.0,) * 5 + (-1.0,))
