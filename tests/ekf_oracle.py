"""Scalar reference implementations the EKF tests compare against.

``loop_filter`` is the per-sample filter loop that ``run_filter`` replaces
with lockstep segments, and ``step`` its predict-then-update.
``predict_state_scalar`` and ``ctra_jacobian_scalar`` are the motion model
in ``math`` calls, one state at a time, which both outputs of
``ctra_transition`` must match bit for bit.
``_segment_measurements`` is the per-segment measurement synthesizer that
the lockstep's columnar pass replaced, and ``loop_filter`` reads its
measurements from it; ``window_measurements`` re-derives the same
measurements one window at a time with ``pseudo_measurements``.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from uwbvo.core import Stream
from uwbvo.ekf import STATE_DIM, TAU, CtraFilter, CtraParams, _significance


def wrap_angle_scalar(angle: float) -> float:
    """Wrap an angle to (-pi, pi] with ``math.remainder``."""
    wrapped = math.remainder(angle, TAU)
    if wrapped <= -math.pi:
        wrapped += TAU
    return wrapped


def _arc_chord_scalar(psi_dot: float, dt_s: float, eps_yaw: float):
    h = 0.5 * dt_s * psi_dot
    if abs(psi_dot) < eps_yaw:
        chord = dt_s
    else:
        chord = 2.0 * math.sin(h) / psi_dot
    return h, chord


def predict_state_scalar(state: np.ndarray, dt_s: float, eps_yaw: float = 1e-6) -> np.ndarray:
    """``ctra_transition(state, dt_s)[0]`` for one state, in ``math`` calls and Python branches."""
    x, y, v, psi, psi_dot, a = state
    h, chord = _arc_chord_scalar(psi_dot, dt_s, eps_yaw)
    nx = x + v * chord * math.cos(psi + h)
    ny = y + v * chord * math.sin(psi + h)
    return np.array(
        [nx, ny, v + dt_s * a, wrap_angle_scalar(psi + dt_s * psi_dot), psi_dot, a],
        dtype=np.float64,
    )


def ctra_jacobian_scalar(state: np.ndarray, dt_s: float, eps_yaw: float = 1e-6) -> np.ndarray:
    """``ctra_transition(state, dt_s)[1]`` for one state, in ``math`` calls and Python branches."""
    _, _, v, psi, psi_dot, _ = state
    jac = np.eye(STATE_DIM, dtype=np.float64)
    h, chord = _arc_chord_scalar(psi_dot, dt_s, eps_yaw)
    cos_m = math.cos(psi + h)
    sin_m = math.sin(psi + h)
    if abs(psi_dot) < eps_yaw:
        dchord = 0.0
    elif abs(h) < 1e-4:
        dchord = -(dt_s**3) * psi_dot / 12.0
    else:
        dchord = (dt_s * math.cos(h) - chord) / psi_dot
    jac[0, 2] = chord * cos_m
    jac[0, 3] = -v * chord * sin_m
    jac[0, 4] = v * (dchord * cos_m - 0.5 * dt_s * chord * sin_m)
    jac[1, 2] = chord * sin_m
    jac[1, 3] = v * chord * cos_m
    jac[1, 4] = v * (dchord * sin_m + 0.5 * dt_s * chord * cos_m)
    jac[2, 5] = dt_s
    jac[3, 4] = dt_s
    return jac


def _forward_fill(values: np.ndarray, initial: float) -> np.ndarray:
    """Replace NaNs with the latest preceding value (``initial`` before any)."""
    filled = np.concatenate([[initial], values])
    defined = ~np.isnan(filled)
    idx = np.maximum.accumulate(np.where(defined, np.arange(len(filled)), 0))
    return filled[idx][1:]


def _segment_measurements(
    t_ms: np.ndarray,
    xy: np.ndarray,
    span_s: float,
    min_speed_mm_s: float,
    k0: int = 0,
    k1: int | None = None,
    carry: tuple | None = None,
) -> tuple[np.ndarray, tuple]:
    """Full-state measurements over one restart segment: rows ``k0:k1``, and a carry.

    Row ``k`` holds the measurement derived from the trailing window ending
    at sample ``k`` (NaN for the first two rows, where no window exists yet);
    window bounds compare in exact integer milliseconds. The newest sample
    provides the position. Speed and heading come from the least-squares
    velocity over the window; yaw rate and acceleration come from second
    differences across the window's two halves, headings differenced on the
    circle. A window whose net motion is slower than ``min_speed_mm_s``, or
    not significant against the fit's residual scatter, reads as a
    stationary platform: zero speed and rates, the previous heading kept.

    The gates run as a cascade, each over the windows the one before passed:
    the full-window fit and its speed gate over every window, the residual
    scatter over the windows fast enough, and the two half-window fits and
    the headings over the windows that pass both. Their values are scattered
    into rows that read stationary until then; every value is the one the
    same arithmetic gives over all windows.

    The window sums come from prefix sums over the samples. A segment can
    be derived a block of rows at a time: ``carry`` is what the call for
    the rows before ``k0`` returned (None at ``k0 = 0``), holding the
    window start of row ``k0``, the eight prefix sums at that sample and
    the last heading. Resuming the prefix sums from the carried ones
    performs the same sequential additions as one cumulative sum over the
    whole segment, so the rows are bit for bit those of one call.
    """
    n = len(t_ms)
    k1 = n if k1 is None else k1
    lo0, sums0, psi0 = (0, None, 0.0) if carry is None else carry
    u = np.full((k1 - k0, STATE_DIM), np.nan)
    first = max(k0, 2)
    if first >= k1:  # no row with a window: the carry holds still
        return u, (lo0, sums0, psi0)
    # rows first:k1, and row k1 itself for the next block's window start
    k = np.arange(first, min(k1 + 1, n))
    rel_ms = t_ms[lo0 : k1 + 1] - t_ms[0]
    a = lo0 + np.searchsorted(rel_ms, rel_ms[k - lo0] - span_s * 1000.0, side="right")
    lo = np.clip(np.minimum(a - 1, k - 2), 0, None)
    lo_next = int(lo[-1])
    # from here on, indices count from sample lo0
    k, lo = k[: k1 - first] - lo0, lo[: k1 - first] - lo0

    rel = rel_ms[: k1 - lo0] / 1000.0
    x, y = xy[lo0:k1, 0], xy[lo0:k1, 1]
    terms = np.stack((rel, rel * rel, x, y, rel * x, rel * y, x * x, y * y), axis=1)
    if lo0 == 0:  # cumsum's first entry is its first term, -0.0 included
        prefix = np.concatenate((np.zeros((1, 8)), np.cumsum(terms, axis=0)))
    else:
        prefix = np.cumsum(np.concatenate((sums0[None], terms)), axis=0)
    p_t, p_tt, p_x, p_y, p_tx, p_ty, p_xx, p_yy = prefix.T

    floor = max(min_speed_mm_s, 1e-9)

    def gated_speed(i: np.ndarray, j: np.ndarray):
        cnt = (j - i + 1).astype(np.float64)
        s_t = p_t[j + 1] - p_t[i]
        s_tt = p_tt[j + 1] - p_tt[i]
        denom = s_tt - s_t * s_t / cnt
        safe = np.where(denom > 0.0, denom, 1.0)
        vx = (p_tx[j + 1] - p_tx[i] - s_t * (p_x[j + 1] - p_x[i]) / cnt) / safe
        vy = (p_ty[j + 1] - p_ty[i] - s_t * (p_y[j + 1] - p_y[i]) / cnt) / safe
        speed = np.hypot(vx, vy)
        moving = (denom > 0.0) & (speed >= floor)
        return np.where(moving, speed, 0.0), vx, vy, moving, denom, cnt

    # gate 1, every window: the full-window fit's speed
    v_full, vx_f, vy_f, mov_f, denom_f, cnt_f = gated_speed(lo, k)
    # gate 2, windows that pass gate 1: motion significant against the
    # residual scatter of the straight-line fit
    g = np.flatnonzero(mov_f)
    k, lo, v_full, vx_f, vy_f, denom_f, cnt_f = (
        c[g] for c in (k, lo, v_full, vx_f, vy_f, denom_f, cnt_f)
    )
    sum_x = p_x[k + 1] - p_x[lo]
    sum_y = p_y[k + 1] - p_y[lo]
    rss = (
        (p_xx[k + 1] - p_xx[lo] - sum_x * sum_x / cnt_f)
        - vx_f * vx_f * denom_f
        + (p_yy[k + 1] - p_yy[lo] - sum_y * sum_y / cnt_f)
        - vy_f * vy_f * denom_f
    )
    resid = np.sqrt(np.maximum(rss, 0.0) / cnt_f)
    span = rel[k] - rel[lo]
    moving = v_full * span >= _significance(cnt_f) * resid
    # windows that pass both gates: heading, and rates from the half windows
    g, k, lo, v_full, vx_f, vy_f, span = (
        c[moving] for c in (g, k, lo, v_full, vx_f, vy_f, span)
    )
    mid = lo + (k - lo + 1) // 2
    v_old, vx_o, vy_o, mov_o, _, _ = gated_speed(lo, mid)
    v_new, vx_n, vy_n, mov_n, _, _ = gated_speed(mid, k)
    half_dt = 0.5 * span
    dpsi = np.arctan2(vy_n, vx_n) - np.arctan2(vy_o, vx_o)
    dpsi -= TAU * np.round(dpsi / TAU)
    psi = np.full(len(mov_f), np.nan)
    psi[g] = np.arctan2(vy_f, vx_f)

    rows = u[first - k0 :]
    rows[:, :2] = xy[first:k1]
    rows[:, 2:] = 0.0  # a stationary window: no speed, no rates
    rows[g, 2] = v_full
    rows[:, 3] = _forward_fill(psi, initial=psi0)
    rows[g, 4] = np.where(mov_o & mov_n, dpsi / half_dt, 0.0)
    rows[g, 5] = (v_new - v_old) / half_dt
    return u, (lo_next, prefix[lo_next - lo0].copy(), float(rows[-1, 3]))


def step(filt: CtraFilter, u, dt_s) -> None:
    """Predict ``filt`` over ``dt_s``, then update it with measurement ``u``."""
    filt.predict(dt_s)
    filt.update(np.asarray(u, dtype=np.float64))


def loop_filter(
    stream: Stream,
    params: CtraParams,
    restart_times_ms: Sequence[float] = (),
) -> Stream:
    """``run_filter`` of one stream, one sample at a time, over a single 1-D filter state."""
    n = len(stream)
    if not n:
        return stream
    ts_ms, xy = stream.t_ms, stream.xy
    ts_s = ts_ms / 1000.0
    start_idx = {0}
    for t in restart_times_ms:
        i = int(np.searchsorted(ts_ms, t, side="left"))
        if i < n:
            start_idx.add(i)
    starts = sorted(start_idx)
    u_all = np.full((n, STATE_DIM), np.nan)
    for s0, s1 in zip(starts, starts[1:] + [n]):
        u_all[s0:s1], _ = _segment_measurements(
            ts_ms[s0:s1], xy[s0:s1], params.diff_span_s, params.min_speed_mm_s
        )
    filt = CtraFilter(params)
    out = np.empty((n, 2))
    for k in range(n):
        if k in start_idx:
            filt.reset(xy[k, 0], xy[k, 1])
        else:
            dt_s = ts_s[k] - ts_s[k - 1]
            if np.isnan(u_all[k, 2]):
                filt.predict(dt_s)
            else:
                step(filt, u_all[k], dt_s)
        assert filt.state.shape == (STATE_DIM,)
        out[k] = filt.state[:2]
    return Stream(ts_ms, out, stream.source)


def _ls_velocity(
    ts_s: np.ndarray, xy: np.ndarray
) -> tuple[float, float] | None:
    """Least-squares velocity over a window; the first difference for n=2."""
    t_centered = ts_s - ts_s.mean()
    denom = float(t_centered @ t_centered)
    if denom <= 0.0:
        return None
    # xy need not be centered: sum(t_centered) == 0 kills the offset term
    vx, vy = (t_centered @ xy) / denom
    return float(vx), float(vy)


def pseudo_measurements(
    ts: np.ndarray, xy: np.ndarray, prev_psi: float = 0.0, min_speed_mm_s: float = 0.0
) -> np.ndarray:
    """Build a full-state measurement from a position history window:
    times ``ts`` in seconds, positions ``xy`` in mm.

    The newest sample provides the position. Speed and heading come from the
    first difference of positions fitted over the window (a least-squares
    slope, which reduces to the plain sample difference for two points); yaw
    rate and acceleration come from second differences across the window's
    two halves. Headings are differenced on the circle. A window whose net
    motion is slower than ``min_speed_mm_s`` (or not measurable) reads as a
    stationary platform: zero speed, zero rates, heading retained from
    ``prev_psi``.
    """
    if len(ts) < 3:
        raise ValueError("insufficient history: need at least 3 samples")
    span = ts[-1] - ts[0]
    half_dt = 0.5 * span
    if half_dt <= 0.0:
        raise ValueError("window spans no time")
    floor = max(min_speed_mm_s, 1e-9)

    def heading_speed(sl: slice) -> tuple[float, float | None]:
        vel = _ls_velocity(ts[sl], xy[sl])
        if vel is None:
            return 0.0, None
        speed = math.hypot(vel[0], vel[1])
        if speed < floor:
            return 0.0, None
        return speed, math.atan2(vel[1], vel[0])

    v_full, psi_full = heading_speed(slice(None))
    if v_full > 0.0:
        fit_t = ts - ts.mean()
        vel = _ls_velocity(ts, xy)
        fitted = xy.mean(axis=0) + np.outer(fit_t, vel)
        resid = math.sqrt(float(np.mean(np.sum((xy - fitted) ** 2, axis=1))))
        if v_full * span < _significance(len(ts)) * resid:
            v_full, psi_full = 0.0, None

    if psi_full is None:
        # stationary window: no speed, no rates, heading retained
        return np.array([xy[-1, 0], xy[-1, 1], 0.0, prev_psi, 0.0, 0.0])

    mid = len(ts) // 2
    v_old, psi_old = heading_speed(slice(0, mid + 1))
    v_new, psi_new = heading_speed(slice(mid, None))
    if psi_new is not None and psi_old is not None:
        psi_dot = wrap_angle_scalar(psi_new - psi_old) / half_dt
    else:
        psi_dot = 0.0
    accel = (v_new - v_old) / half_dt
    return np.array([xy[-1, 0], xy[-1, 1], v_full, psi_full, psi_dot, accel])


def whole_window_starts(t_ms: np.ndarray, span_s: float) -> np.ndarray:
    """The first sample of each row's window over a whole segment (rows 2 on)."""
    rel_ms = t_ms - t_ms[0]
    k = np.arange(2, len(t_ms))
    a = np.searchsorted(rel_ms, rel_ms[k] - span_s * 1000.0, side="right")
    return np.clip(np.minimum(a - 1, k - 2), 0, None)


def window_measurements(
    t_ms: np.ndarray, xy: np.ndarray, span_s: float, min_speed_mm_s: float
) -> np.ndarray:
    """:func:`pseudo_measurements` of every row's window over a whole
    segment, one window at a time, each window's heading carried to the next
    as ``prev_psi``; rows 0 and 1, which hold no window, are NaN."""
    u = np.full((len(t_ms), STATE_DIM), np.nan)
    prev_psi = 0.0
    for k, lo in enumerate(whole_window_starts(t_ms, span_s).tolist(), start=2):
        window_t = t_ms[lo : k + 1]
        u[k] = pseudo_measurements(
            (window_t - window_t[0]) / 1000.0, xy[lo : k + 1], prev_psi, min_speed_mm_s
        )
        prev_psi = float(u[k, 3])
    return u
