"""Constant turn rate and acceleration (CTRA) extended Kalman filter.

The filter runs over a single position stream. Its six-dimensional state is
``(x, y, v, psi, psi_dot, a)`` in millimetres, mm/s, radians, rad/s and
mm/s^2. Measurements are full-state vectors synthesized from the position
stream itself (see :func:`_segment_measurements`), so the measurement model
is the identity and the gain reduces to ``K = P (P + R)^-1``.

State prediction follows the circular-arc motion update; when the yaw rate
magnitude drops below ``eps_yaw`` the analytic straight-line limit is used,
which keeps the prediction continuous across the branch switch.

The motion model and :class:`CtraFilter` take a single 6-vector state or a
stack of them with leading axes. :func:`run_filter` uses the stack: a
restart resets both the state and its covariance, so the restart segments
of a stream share nothing, and it filters them in lockstep, one stacked
step per local sample index. Stacked ``matmul`` and ``linalg.solve`` apply
the same per-matrix kernels as the 2-D calls, so a row of the stack follows
the same arithmetic as a lone filter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Position2D, Sample

STATE_DIM = 6
TAU = 2.0 * math.pi
_EYE = np.eye(STATE_DIM)


class FilterError(RuntimeError):
    """Numerical failure inside the filter."""


def wrap_angle(angle):
    """Wrap an angle, or each angle of an array, to (-pi, pi].

    Equal bit for bit to ``math.remainder(angle, TAU)`` moved off -pi:
    ``fmod`` is exact, and shifting its result by one turn is exact too
    (Sterbenz), so both land on the same double.
    """
    wrapped = np.fmod(angle, TAU)
    outside = (wrapped > math.pi) | (wrapped <= -math.pi)
    if outside.any():
        wrapped = _select(outside, wrapped - np.copysign(TAU, wrapped), wrapped)
    return wrapped


def _select(cond, a, b):
    """``np.where``, with a plain branch for a scalar condition (far cheaper)."""
    if np.ndim(cond):
        return np.where(cond, a, b)
    return a if cond else b


def _components(state: np.ndarray):
    """The six entries of a state as floats, or of a stack as columns."""
    if state.ndim == 1:
        return state.tolist()
    return [state[..., i] for i in range(STATE_DIM)]


def _arc(psi, psi_dot, dt_s, eps_yaw: float):
    """Shared pieces of the arc update, in cancellation-free form.

    The raw arc displacement ``(v / psi_dot) (sin(psi + dt psi_dot) - sin psi)``
    loses precision as ``psi_dot`` approaches zero; the identity
    ``sin a - sin b = 2 cos((a+b)/2) sin((a-b)/2)`` turns it into
    ``v * chord * cos(psi + h)`` with ``h = dt psi_dot / 2`` and
    ``chord = 2 sin(h) / psi_dot``, which degrades gracefully into the
    straight-line limit ``chord = dt``. Returns ``h``, ``chord``, the
    cosine and sine of ``psi + h``, the straight-line mask and a yaw rate
    safe to divide by (1 where the mask is set).
    """
    h = 0.5 * dt_s * psi_dot
    straight = abs(psi_dot) < eps_yaw
    safe_psi_dot = _select(straight, 1.0, psi_dot)
    chord = _select(straight, dt_s, 2.0 * np.sin(h) / safe_psi_dot)
    heading = psi + h
    return h, chord, np.cos(heading), np.sin(heading), straight, safe_psi_dot


def predict_state(state: np.ndarray, dt_s, eps_yaw: float = 1e-6) -> np.ndarray:
    """One motion-model step of length ``dt_s`` seconds.

    Heading advances by ``dt * psi_dot`` and speed by ``dt * a``; the position
    moves along a circular arc of radius ``v / psi_dot``, or along a straight
    line in the small-yaw-rate limit. ``state`` is one state or a stack of
    them (shape ``(..., 6)``); ``dt_s`` is a scalar or one step per state.
    """
    x, y, v, psi, psi_dot, a = _components(state)
    _, chord, cos_m, sin_m, _, _ = _arc(psi, psi_dot, dt_s, eps_yaw)
    v_chord = v * chord
    pred = np.empty(np.shape(state))
    pred[..., 0] = x + v_chord * cos_m
    pred[..., 1] = y + v_chord * sin_m
    pred[..., 2] = v + dt_s * a
    pred[..., 3] = wrap_angle(psi + dt_s * psi_dot)
    pred[..., 4] = psi_dot
    pred[..., 5] = a
    return pred


def ctra_jacobian(state: np.ndarray, dt_s, eps_yaw: float = 1e-6) -> np.ndarray:
    """Analytic Jacobian of :func:`predict_state` w.r.t. the state vector.

    Shape ``(..., 6, 6)`` for states of shape ``(..., 6)``.
    """
    _, _, v, psi, psi_dot, _ = _components(state)
    h, chord, cos_m, sin_m, straight, safe_psi_dot = _arc(psi, psi_dot, dt_s, eps_yaw)
    # d(chord)/d(psi_dot); series form below |h| ~ 1e-4 where the closed
    # form cancels catastrophically. float_power calls the C library pow
    # for each element, as a scalar ``**`` does; np.power's SIMD loop can
    # round the cube differently.
    dchord = _select(
        straight,
        0.0,
        _select(
            abs(h) < 1e-4,
            -np.float_power(dt_s, 3) * psi_dot / 12.0,
            (dt_s * np.cos(h) - chord) / safe_psi_dot,
        ),
    )
    v_chord = v * chord
    half_dt_chord = 0.5 * dt_s * chord
    jac = np.empty(np.shape(state) + (STATE_DIM,))
    jac[...] = _EYE
    jac[..., 0, 2] = chord * cos_m
    jac[..., 0, 3] = -(v_chord * sin_m)
    jac[..., 0, 4] = v * (dchord * cos_m - half_dt_chord * sin_m)
    jac[..., 1, 2] = chord * sin_m
    jac[..., 1, 3] = v_chord * cos_m
    jac[..., 1, 4] = v * (dchord * sin_m + half_dt_chord * cos_m)
    jac[..., 2, 5] = dt_s
    jac[..., 3, 4] = dt_s
    return jac


# Default noise diagonals, in mm, radians and seconds per state slot:
# (mm^2, mm^2, (mm/s)^2, rad^2, (rad/s)^2, (mm/s^2)^2). Q is a per-second
# density; each prediction step adds Q * dt so that streams of different
# rates (and merged streams with uneven gaps) see the same noise per unit
# time.
_Q_DEFAULT = (0.0625, 0.0625, 1.44e-4, 9e-6, 9e-4, 0.25)
_R_DEFAULT = (25.0, 25.0, 0.01, 0.01, 0.01, 0.09)
_P0_DEFAULT = (1000.0, 1000.0, 100.0, 1.0, 0.1, 10.0)


@dataclass(frozen=True)
class CtraParams:
    """Noise diagonals and derivation knobs for one filter instance.

    ``diff_span_s`` is the history span used to difference positions into
    speed/heading/yaw-rate/acceleration measurements; wider spans average
    away more position noise at the cost of response lag. ``min_speed_mm_s``
    gates differenced speeds: below it the platform is treated as stationary,
    which keeps dwell-time noise out of the speed channel.
    """

    q_diag: tuple[float, ...] = _Q_DEFAULT
    r_diag: tuple[float, ...] = _R_DEFAULT
    p0_diag: tuple[float, ...] = _P0_DEFAULT
    eps_yaw: float = 1e-6
    diff_span_s: float = 3.0
    min_speed_mm_s: float = 100.0

    def __post_init__(self) -> None:
        for name, diag in (("q", self.q_diag), ("r", self.r_diag), ("p0", self.p0_diag)):
            if len(diag) != STATE_DIM:
                raise ValueError(f"{name}_diag must have {STATE_DIM} entries")
            if any(d < 0 for d in diag):
                raise ValueError(f"{name}_diag entries must be nonnegative")


# Window motion must exceed a multiple of the straight-line fit's own
# residual scatter to count as real; below it the platform reads stationary.
# Small windows estimate the scatter poorly, so the multiple tightens as the
# count drops (~sqrt(250/n), floored at 3).
_MOTION_SIGNIFICANCE = 3.0
_MOTION_SIGNIFICANCE_SMALL_N = 250.0


def _significance(n) -> float | np.ndarray:
    return np.maximum(_MOTION_SIGNIFICANCE, np.sqrt(_MOTION_SIGNIFICANCE_SMALL_N / n))


def _transpose(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


class CtraFilter:
    """EKF over one stream, or over a stack of independent streams.

    ``state`` is one state ``(6,)`` or a stack ``(B, 6)``, with ``P`` of
    shape ``(6, 6)`` or ``(B, 6, 6)`` to match; rows of a stack share
    nothing. Independent instances share nothing either.
    """

    def __init__(self, params: CtraParams) -> None:
        self.params = params
        self._q = np.diag(params.q_diag).astype(np.float64)
        self._r = np.diag(params.r_diag).astype(np.float64)
        self._p0 = np.diag(params.p0_diag).astype(np.float64)
        self.state = np.zeros(STATE_DIM)
        self.P = self._p0.copy()

    def reset(self, x, y, psi=0.0) -> None:
        """Reseed from a position measurement with the rest of the state at zero.

        Array positions seed a stack, one row per position.
        """
        state = np.zeros(np.shape(x) + (STATE_DIM,))
        state[..., 0] = x
        state[..., 1] = y
        state[..., 3] = psi
        self.state = state
        self.P = np.broadcast_to(self._p0, state.shape + (STATE_DIM,)).copy()

    def predict(self, dt_s) -> None:
        """Advance every row by its ``dt_s`` (a scalar, or one per row)."""
        jac = ctra_jacobian(self.state, dt_s, self.params.eps_yaw)
        self.state = predict_state(self.state, dt_s, self.params.eps_yaw)
        self.P = jac @ self.P @ _transpose(jac) + np.multiply.outer(dt_s, self._q)

    def update(self, u: np.ndarray) -> None:
        """Correct every row with its full-state measurement (shaped like ``state``)."""
        innovation_cov = self.P + self._r
        try:
            gain_t = np.linalg.solve(_transpose(innovation_cov), _transpose(self.P))
        except np.linalg.LinAlgError:
            raise FilterError("degenerate innovation covariance") from None
        gain = _transpose(gain_t)
        innovation = u - self.state
        innovation[..., 3] = wrap_angle(innovation[..., 3])
        self.state = self.state + (gain @ innovation[..., None])[..., 0]
        self.state[..., 3] = wrap_angle(self.state[..., 3])
        self.P = (_EYE - gain) @ self.P
        self.P = 0.5 * (self.P + _transpose(self.P))

    def diverged(self) -> np.ndarray:
        """Per row: a non-finite state or a covariance diagonal that is not >= 0."""
        diag = self.P.diagonal(0, -2, -1)
        return ~(np.isfinite(self.state) & (diag >= 0.0)).all(axis=-1)

    def step(self, u: np.ndarray, dt_s) -> "CtraFilter":
        """Predict over ``dt_s`` then update with measurement ``u``."""
        self.predict(dt_s)
        self.update(np.asarray(u, dtype=np.float64))
        return self


def _forward_fill(values: np.ndarray, initial: float) -> np.ndarray:
    """Replace NaNs with the latest preceding value (``initial`` before any)."""
    filled = np.concatenate([[initial], values])
    defined = ~np.isnan(filled)
    idx = np.maximum.accumulate(np.where(defined, np.arange(len(filled)), 0))
    return filled[idx][1:]


def _segment_measurements(
    t_ms: np.ndarray, xy: np.ndarray, span_s: float, min_speed_mm_s: float
) -> np.ndarray:
    """Full-state measurements over one restart segment.

    Row ``k`` holds the measurement derived from the trailing window ending
    at sample ``k`` (NaN for the first two rows, where no window exists yet);
    window bounds compare in exact integer milliseconds. The newest sample
    provides the position. Speed and heading come from the least-squares
    velocity over the window; yaw rate and acceleration come from second
    differences across the window's two halves, headings differenced on the
    circle. A window whose net motion is slower than ``min_speed_mm_s``, or
    not significant against the fit's residual scatter, reads as a
    stationary platform: zero speed and rates, the previous heading kept.
    """
    n = len(t_ms)
    u = np.full((n, STATE_DIM), np.nan)
    if n < 3:
        return u
    rel_ms = t_ms - t_ms[0]
    rel = rel_ms / 1000.0
    zeros = np.zeros(1)
    p_t = np.concatenate([zeros, np.cumsum(rel)])
    p_tt = np.concatenate([zeros, np.cumsum(rel * rel)])
    p_x = np.concatenate([zeros, np.cumsum(xy[:, 0])])
    p_y = np.concatenate([zeros, np.cumsum(xy[:, 1])])
    p_tx = np.concatenate([zeros, np.cumsum(rel * xy[:, 0])])
    p_ty = np.concatenate([zeros, np.cumsum(rel * xy[:, 1])])
    p_xx = np.concatenate([zeros, np.cumsum(xy[:, 0] * xy[:, 0])])
    p_yy = np.concatenate([zeros, np.cumsum(xy[:, 1] * xy[:, 1])])

    k = np.arange(2, n)
    a = np.searchsorted(rel_ms, rel_ms[k] - span_s * 1000.0, side="right")
    lo = np.clip(np.minimum(a - 1, k - 2), 0, None)
    mid = lo + (k - lo + 1) // 2

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

    v_full, vx_f, vy_f, mov_f, denom_f, cnt_f = gated_speed(lo, k)
    v_old, vx_o, vy_o, mov_o, _, _ = gated_speed(lo, mid)
    v_new, vx_n, vy_n, mov_n, _, _ = gated_speed(mid, k)
    psi_old = np.arctan2(vy_o, vx_o)
    psi_new = np.arctan2(vy_n, vx_n)

    # motion-significance gate on the full window: residual scatter of the
    # straight-line fit vs fitted displacement
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
    mov_f &= v_full * span >= _significance(cnt_f) * resid
    v_full = np.where(mov_f, v_full, 0.0)

    half_dt = 0.5 * span
    dpsi = psi_new - psi_old
    dpsi -= TAU * np.round(dpsi / TAU)
    psi_dot = np.where(mov_f & mov_o & mov_n, dpsi / half_dt, 0.0)
    accel = np.where(mov_f, (v_new - v_old) / half_dt, 0.0)
    psi = _forward_fill(
        np.where(mov_f, np.arctan2(vy_f, vx_f), np.nan), initial=0.0
    )

    u[2:, 0] = xy[2:, 0]
    u[2:, 1] = xy[2:, 1]
    u[2:, 2] = v_full
    u[2:, 3] = psi
    u[2:, 4] = psi_dot
    u[2:, 5] = accel
    return u


def run_filter(
    samples: Sequence[Sample],
    params: CtraParams,
    restart_times_ms: Sequence[float] = (),
) -> list[Sample]:
    """Filter a stream, producing one output sample per input sample.

    The filter (re)starts at the first sample and again at the first sample
    at or after each entry of ``restart_times_ms``: covariance back to its
    initial diagonal, state reseeded from that measurement. Each restart
    segment is processed exactly like a fresh run; the two samples after a
    (re)start run prediction-only while the differencing window refills.
    A non-finite state or a negative covariance diagonal raises
    :class:`FilterError` naming the sample where it appeared.
    """
    if not samples:
        return []
    ts_ms = np.fromiter((s.t_ms for s in samples), dtype=np.int64, count=len(samples))
    # the working arrays die with this call, before the output list is built
    out_xy = _filter_positions(samples, ts_ms, params, restart_times_ms)
    return [
        Sample(t, Position2D(x, y), s.source)
        for t, x, y, s in zip(
            ts_ms.tolist(), out_xy[:, 0].tolist(), out_xy[:, 1].tolist(), samples
        )
    ]


def _filter_positions(
    samples: Sequence[Sample],
    ts_ms: np.ndarray,
    params: CtraParams,
    restart_times_ms: Sequence[float],
) -> np.ndarray:
    """The filtered position of every sample of a stream, as an ``(n, 2)`` array.

    Segments share nothing, so they are filtered in lockstep: one
    :class:`CtraFilter` holds a stack with one row per segment, longest
    first, and step ``k`` advances the ``k``-th sample of every segment
    that has one. Inputs and estimates live on a (step, segment) grid, so
    a step reads and writes plain slices.
    """
    n = len(samples)
    xy = np.empty((n, 2))
    xy[:, 0] = np.fromiter((s.pos.x for s in samples), dtype=np.float64, count=n)
    xy[:, 1] = np.fromiter((s.pos.y for s in samples), dtype=np.float64, count=n)
    ts_s = ts_ms / 1000.0
    start_idx = {0}
    for t in restart_times_ms:
        i = int(np.searchsorted(ts_ms, t, side="left"))
        if i < n:
            start_idx.add(i)
    starts = np.array(sorted(start_idx))
    lengths = np.diff(starts, append=n)
    order = np.argsort(-lengths, kind="stable")
    first, lengths = starts[order], lengths[order]
    # cell [k, r] of the grid is sample k of segment r; the segments still
    # running at step k are a prefix, as lengths descend
    grid_shape = (lengths[0], len(first))
    active = np.searchsorted(-lengths, -np.arange(lengths[0]), side="left").tolist()
    u = np.full(grid_shape + (STATE_DIM,), np.nan)
    dt = np.zeros(grid_shape)
    for r, (s0, length) in enumerate(zip(first, lengths)):
        seg = slice(s0, s0 + length)
        u[:length, r] = _segment_measurements(
            ts_ms[seg], xy[seg], params.diff_span_s, params.min_speed_mm_s
        )
        dt[1:length, r] = np.diff(ts_s[seg])

    filt = CtraFilter(params)
    filt.reset(xy[first, 0], xy[first, 1])
    est = np.empty(grid_shape + (2,))
    est[0] = filt.state[:, :2]
    for k in range(1, lengths[0]):
        m = active[k]
        if m < len(filt.state):
            filt.state, filt.P = filt.state[:m], filt.P[:m]
        # the rows share local index k, and a segment's measurements are
        # NaN in exactly its first two rows, so the rows agree
        if np.isnan(u[k, :m, 2]).all():
            filt.predict(dt[k, :m])
        else:
            filt.step(u[k, :m], dt[k, :m])
        bad = filt.diverged()
        if bad.any():
            i = first[:m][bad].min() + k
            raise FilterError(f"filter diverged at sample {i} (t_ms {ts_ms[i]})")
        est[k, :m] = filt.state[:, :2]
    out_xy = np.empty((n, 2))
    for r, (s0, length) in enumerate(zip(first, lengths)):
        out_xy[s0 : s0 + length] = est[:length, r]
    return out_xy
