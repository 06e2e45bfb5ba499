"""Constant turn rate and acceleration (CTRA) extended Kalman filter.

The filter runs over a single position stream. Its six-dimensional state is
``(x, y, v, psi, psi_dot, a)`` in millimetres, mm/s, radians, rad/s and
mm/s^2. Measurements are full-state vectors synthesized from the position
stream itself (see :func:`_segment_measurements`), so the measurement model
is the identity and the gain reduces to ``K = P (P + R)^-1``. Each
measurement comes from a trailing window of samples through a cascade of
gates: a least-squares speed gate over every window, a significance gate
against the fit's residual scatter over the windows that pass it, and the
heading and half-window rates only for the windows that pass both. Most
windows read stationary, so most of the work stops at the first gate.

State prediction follows the circular-arc motion update; when the yaw rate
magnitude drops below ``eps_yaw`` the analytic straight-line limit is used,
which keeps the prediction continuous across the branch switch.
:func:`ctra_transition` evaluates the arc once per step and returns both the
predicted state and its Jacobian; a step whose every row is straight skips
the arc.

The motion model and :class:`CtraFilter` take a single 6-vector state or a
stack of them with leading axes, through one numpy code path (a single state
is a stack with no leading axes). :func:`run_filter` uses the stack. It
filters a sequence of streams that share one restart schedule; the
baselines pass every CTRA input of a batch of seeds at once (each seed's
UWB, averaged and merged stream), and the UWB result also serves the
self-corrective pipeline. A restart resets both the state and its
covariance, so the restart segments of every stream share nothing, and one
lockstep filters them all, one stacked step per local sample index. Stacked
``matmul`` and ``linalg.solve`` apply the same per-matrix kernels as the
2-D calls, so a row of the stack follows the same arithmetic as a lone
filter, and each stream's result is bit for bit what a run of that stream
alone gives. The lockstep packs and steps one block of steps at a time, so
its memory is bounded by a block, not by the samples it filters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Stream

STATE_DIM = 6
TAU = 2.0 * math.pi
_EYE = np.eye(STATE_DIM)


class FilterError(RuntimeError):
    """Numerical failure inside the filter."""


DEGENERATE = "degenerate innovation covariance"


def wrap_angle(angle):
    """Wrap an angle, or each angle of an array, to (-pi, pi].

    Equal bit for bit to ``math.remainder(angle, TAU)`` moved off -pi:
    ``fmod`` is exact, and shifting its result by one turn is exact too
    (Sterbenz), so both land on the same double. Angles already inside
    (-pi, pi) are returned as given: there both steps are identities.
    """
    # a ufunc reduction, not ``ndarray.all``: this runs three times per
    # filter step. A NaN or an infinity fails the test and takes the full
    # path; ``initial`` lets an empty array pass
    if np.maximum.reduce(np.abs(angle), axis=None, initial=0.0) < math.pi:
        return angle
    wrapped = np.fmod(angle, TAU)
    outside = (wrapped > math.pi) | (wrapped <= -math.pi)
    if outside.any():
        wrapped = np.where(outside, wrapped - np.copysign(TAU, wrapped), wrapped)
    return wrapped


def ctra_transition(
    state: np.ndarray, dt_s, eps_yaw: float = 1e-6, grid_terms=None
) -> tuple[np.ndarray, np.ndarray]:
    """One motion-model step of length ``dt_s`` seconds, and its Jacobian.

    Heading advances by ``dt * psi_dot`` and speed by ``dt * a``; the position
    moves along a circular arc of radius ``v / psi_dot``, or along a straight
    line in the small-yaw-rate limit. ``state`` is one state or a stack of
    them (shape ``(..., 6)``); ``dt_s`` is a scalar or one step per state.
    Returns the predicted states and the Jacobian of the step w.r.t. the
    state, of shape ``(..., 6, 6)``.

    The raw arc displacement ``(v / psi_dot) (sin(psi + dt psi_dot) - sin psi)``
    loses precision as ``psi_dot`` approaches zero; the identity
    ``sin a - sin b = 2 cos((a+b)/2) sin((a-b)/2)`` turns it into
    ``v * chord * cos(psi + h)`` with ``h = dt psi_dot / 2`` and
    ``chord = 2 sin(h) / psi_dot``, which degrades gracefully into the
    straight-line limit ``chord = dt``.

    ``grid_terms`` is ``(0.5 * dt_s, np.float_power(dt_s, 3), jac)``, with
    ``jac`` a writable buffer shaped like the Jacobian that holds the
    identity outside the eight entries the step depends on. The step
    overwrites those eight entries and returns ``jac`` itself, so the
    Jacobian is valid until the buffer's next step. A caller stepping a
    fixed time grid computes these once for the whole grid instead of per
    step.
    """
    if grid_terms is None:
        half_dt, dt_cubed = 0.5 * dt_s, np.float_power(dt_s, 3)
        jac = np.broadcast_to(_EYE, np.shape(state) + (STATE_DIM,)).copy()
    else:
        half_dt, dt_cubed, jac = grid_terms
    v, psi, psi_dot, a = state[..., 2], state[..., 3], state[..., 4], state[..., 5]
    h = half_dt * psi_dot
    straight = np.abs(psi_dot) < eps_yaw
    heading = psi + h
    cos_m, sin_m = np.cos(heading), np.sin(heading)
    if np.logical_and.reduce(straight, axis=None):
        # no arc: the chord is the step, and d(chord) zero
        chord, dchord = dt_s, 0.0
    else:
        safe_psi_dot = np.where(straight, 1.0, psi_dot)
        chord = np.where(straight, dt_s, 2.0 * np.sin(h) / safe_psi_dot)
        # d(chord)/d(psi_dot); series form below |h| ~ 1e-4 where the closed
        # form cancels catastrophically. float_power calls the C library pow
        # for each element, as a scalar ``**`` does; np.power's SIMD loop can
        # round the cube differently.
        dchord = np.where(
            straight,
            0.0,
            np.where(
                np.abs(h) < 1e-4,
                -dt_cubed * psi_dot / 12.0,
                (dt_s * np.cos(h) - chord) / safe_psi_dot,
            ),
        )
    v_chord = v * chord
    dx, dy = v_chord * cos_m, v_chord * sin_m

    pred = state.copy()  # yaw rate and acceleration carry over
    pred[..., 0] += dx
    pred[..., 1] += dy
    pred[..., 2] += dt_s * a
    pred[..., 3] = wrap_angle(psi + dt_s * psi_dot)

    half_dt_chord = half_dt * chord
    jac[..., 0, 2] = chord * cos_m
    jac[..., 0, 3] = -dy
    jac[..., 0, 4] = v * (dchord * cos_m - half_dt_chord * sin_m)
    jac[..., 1, 2] = chord * sin_m
    jac[..., 1, 3] = dx
    jac[..., 1, 4] = v * (dchord * sin_m + half_dt_chord * cos_m)
    jac[..., 2, 5] = dt_s
    jac[..., 3, 4] = dt_s
    return pred, jac


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
            if not all(math.isfinite(d) and d >= 0 for d in diag):
                raise ValueError(f"{name}_diag entries must be finite and nonnegative")


# Window motion must exceed a multiple of the straight-line fit's own
# residual scatter to count as real; below it the platform reads stationary.
# Small windows estimate the scatter poorly, so the multiple tightens as the
# count drops (~sqrt(250/n), floored at 3).
_MOTION_SIGNIFICANCE = 3.0
_MOTION_SIGNIFICANCE_SMALL_N = 250.0


def _significance(n) -> float | np.ndarray:
    return np.maximum(_MOTION_SIGNIFICANCE, np.sqrt(_MOTION_SIGNIFICANCE_SMALL_N / n))


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

    def reset(self, x, y) -> None:
        """Reseed from a position measurement with the rest of the state at zero.

        Array positions seed a stack, one row per position.
        """
        state = np.zeros(np.shape(x) + (STATE_DIM,))
        state[..., 0] = x
        state[..., 1] = y
        self.state = state
        self.P = np.broadcast_to(self._p0, state.shape + (STATE_DIM,)).copy()

    def predict(self, dt_s, grid_terms=None) -> None:
        """Advance every row by its ``dt_s`` (a scalar, or one per row).

        ``grid_terms`` are passed on to :func:`ctra_transition`.
        """
        self.state, jac = ctra_transition(
            self.state, dt_s, self.params.eps_yaw, grid_terms
        )
        self.P = jac @ self.P @ jac.swapaxes(-1, -2) + np.multiply.outer(dt_s, self._q)

    def update(self, u: np.ndarray) -> None:
        """Correct every row with its full-state measurement (shaped like ``state``)."""
        innovation_cov = self.P + self._r
        try:
            gain_t = np.linalg.solve(
                innovation_cov.swapaxes(-1, -2), self.P.swapaxes(-1, -2)
            )
        except np.linalg.LinAlgError:
            raise FilterError(DEGENERATE) from None
        gain = gain_t.swapaxes(-1, -2)
        innovation = u - self.state
        innovation[..., 3] = wrap_angle(innovation[..., 3])
        self.state = self.state + (gain @ innovation[..., None])[..., 0]
        self.state[..., 3] = wrap_angle(self.state[..., 3])
        P = (_EYE - gain) @ self.P
        P = P + P.swapaxes(-1, -2)
        P *= 0.5
        self.P = P

    def diverged(self) -> np.ndarray:
        """Per row: a non-finite state or a covariance diagonal that is not >= 0."""
        diag = self.P.diagonal(0, -2, -1)
        return ~(np.isfinite(self.state) & (diag >= 0.0)).all(axis=-1)

    def degenerate(self) -> np.ndarray:
        """Per row: an innovation covariance that :meth:`update` cannot solve."""
        cov_t = (self.P + self._r).swapaxes(-1, -2).reshape(-1, STATE_DIM, STATE_DIM)
        p_t = self.P.swapaxes(-1, -2).reshape(-1, STATE_DIM, STATE_DIM)
        out = np.zeros(len(cov_t), dtype=bool)
        for r in range(len(cov_t)):
            try:
                np.linalg.solve(cov_t[r], p_t[r])
            except np.linalg.LinAlgError:
                out[r] = True
        return out.reshape(self.state.shape[:-1])


def _forward_fill(values: np.ndarray, initial: float) -> np.ndarray:
    """Replace NaNs with the latest preceding value (``initial`` before any)."""
    filled = np.concatenate([[initial], values])
    defined = ~np.isnan(filled)
    idx = np.maximum.accumulate(np.where(defined, np.arange(len(filled)), 0))
    return filled[idx][1:]


# steps of the lockstep packed and filtered at a time: blocks bound the
# lockstep's memory, and 1024 steps still hold a live run's UWB lockstep
# (under 600 steps on the worst-case preset) in one block
_STEPS_PER_BLOCK = 1024


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


def checked(result: Stream | FilterError) -> Stream:
    """The stream of one :func:`run_filter` result; raises a failed stream's error."""
    if isinstance(result, FilterError):
        raise result
    return result


def run_filter(
    streams: Sequence[Stream],
    params: CtraParams,
    restart_times_ms: Sequence[float] = (),
) -> list[Stream | FilterError]:
    """Filter streams that share one restart schedule: one result per stream.

    Each stream is filtered as if alone, with one output sample per input
    sample. The filter (re)starts at the stream's first sample and again at
    its first sample at or after each entry of ``restart_times_ms``:
    covariance back to its initial diagonal, state reseeded from that
    measurement. Each restart segment is processed exactly like a fresh run;
    the two samples after a (re)start run prediction-only while the
    differencing window refills. The output keeps the input's timestamps
    and source.

    A stream whose filter fails gets a :class:`FilterError` as its result,
    with the text a lone run of it gives: ``filter diverged at sample i
    (t_ms ...)`` for a non-finite state or a negative covariance diagonal,
    ``i`` indexing that stream, or ``degenerate innovation covariance``.
    The other streams are then filtered again without it, so their results
    are the same as if it had never been there. An empty stream is its own
    result; :func:`checked` turns a result back into a stream or raises.

    One lockstep holds the restart segments of every stream (see
    :func:`_lockstep`), so short streams ride along with a long one.
    """
    results: list[Stream | FilterError] = list(streams)
    pending = [i for i, stream in enumerate(streams) if len(stream)]
    while pending:
        outcome = _lockstep([streams[i] for i in pending], params, restart_times_ms)
        for i, result in zip(pending, outcome):
            if result is not None:
                results[i] = result
        pending = [i for i, result in zip(pending, outcome) if result is None]
    return results


def _lockstep(
    streams: Sequence[Stream], params: CtraParams, restart_times_ms: Sequence[float]
) -> list[Stream | FilterError | None]:
    """Filter the restart segments of non-empty streams as rows of one stack.

    Segments share nothing, so one :class:`CtraFilter` holds a stack with one
    row per segment, longest first, and step ``k`` advances the ``k``-th
    sample of every segment that has one. The rows still running at step
    ``k`` are a prefix, so inputs are packed step-major: step ``k`` reads
    the slice ``off[k]:off[k + 1]`` of flat arrays that hold one entry per
    input sample, then writes its estimates over the measurements it read.

    The steps are packed and filtered :data:`_STEPS_PER_BLOCK` at a time,
    each row's measurements resuming from the carry of its previous block,
    so the packed arrays hold one block of steps, not the whole run.

    Returns a stream per input stream; if some streams fail at a step, they
    get their :class:`FilterError` and the rest ``None``.
    """
    seg_stream, seg_first, seg_len = [], [], []
    for s, stream in enumerate(streams):
        n = len(stream)
        cut = np.searchsorted(stream.t_ms, restart_times_ms, side="left")
        is_start = np.zeros(n, dtype=bool)
        is_start[0] = True
        is_start[cut[cut < n]] = True
        starts = np.flatnonzero(is_start)
        seg_stream.append(np.full(len(starts), s))
        seg_first.append(starts)
        seg_len.append(np.diff(starts, append=n))
    lengths = np.concatenate(seg_len)
    order = np.argsort(-lengths, kind="stable")
    row_stream = np.concatenate(seg_stream)[order]
    first, lengths = np.concatenate(seg_first)[order], lengths[order]
    active = np.searchsorted(-lengths, -np.arange(lengths[0]), side="left")
    off = np.concatenate(([0], np.cumsum(active)))
    rows = list(enumerate(zip(row_stream.tolist(), first.tolist(), lengths.tolist())))
    # the Jacobian buffer of every step: rows only leave its prefix, and the
    # entries outside the ones each step writes stay the identity's
    jac = np.broadcast_to(_EYE, (len(lengths), STATE_DIM, STATE_DIM)).copy()

    def failed(bad: np.ndarray, k: int, text: str = "") -> list[FilterError | None]:
        """Fail each stream with a ``bad`` row at step ``k``, named by its
        earliest bad sample; the other streams are left to filter again."""
        if not bad.any():  # no row fails alone: the stack failed as a whole
            bad = np.ones_like(bad)
        bad_stream, bad_first = row_stream[: len(bad)][bad], first[: len(bad)][bad]
        out: list[FilterError | None] = [None] * len(streams)
        for s in set(bad_stream.tolist()):
            i = int(bad_first[bad_stream == s].min()) + k
            t_ms = streams[s].t_ms[i]
            out[s] = FilterError(text or f"filter diverged at sample {i} (t_ms {t_ms})")
        return out

    filt = CtraFilter(params)
    seeds = np.array([streams[s].xy[s0] for _, (s, s0, _) in rows])
    filt.reset(seeds[:, 0], seeds[:, 1])
    out_xy = [np.empty((len(stream), 2)) for stream in streams]
    carry: list[tuple | None] = [None] * len(rows)
    bounds = off.tolist()
    for k0 in range(0, len(active), _STEPS_PER_BLOCK):
        k1 = min(k0 + _STEPS_PER_BLOCK, len(active))
        base = bounds[k0]
        u = np.empty((bounds[k1] - base, STATE_DIM))
        dt = np.zeros(len(u))
        placed = []
        for r, (s, s0, length) in rows[: active[k0]]:
            end = min(k1, length)
            at = off[k0:end] + (r - base)  # entry off[k] + r holds sample k of row r
            t_ms, xy = streams[s].t_ms[s0 : s0 + length], streams[s].xy[s0 : s0 + length]
            u[at], carry[r] = _segment_measurements(
                t_ms, xy, params.diff_span_s, params.min_speed_mm_s, k0, end, carry[r]
            )
            # sample k's step spans t[k - 1] to t[k]; sample 0 has none
            dt[at[1:] if k0 == 0 else at] = np.diff(t_ms[max(k0 - 1, 0) : end] / 1000.0)
            placed.append((out_xy[s][s0 + k0 : s0 + end], at))
        half_dt, dt_cubed = 0.5 * dt, np.float_power(dt, 3)
        for k in range(k0, k1):
            a, b = bounds[k] - base, bounds[k + 1] - base
            if b - a < len(filt.state):
                filt.state, filt.P = filt.state[: b - a], filt.P[: b - a]
            if k:
                filt.predict(dt[a:b], (half_dt[a:b], dt_cubed[a:b], jac[: b - a]))
            # every row is at its segment's sample k, and a segment has no
            # measurement before its third sample
            if k >= 2:
                try:
                    filt.update(u[a:b])
                except FilterError:
                    return failed(filt.degenerate(), k, DEGENERATE)
            # ufunc reductions, not ``ndarray.all``: a NaN fails both tests
            if not (
                np.logical_and.reduce(np.isfinite(filt.state), axis=None)
                and np.minimum.reduce(filt.P.diagonal(0, -2, -1), axis=None) >= 0.0
            ):
                return failed(filt.diverged(), k)
            u[a:b, :2] = filt.state[:, :2]
        for out, at in placed:
            out[:] = u[at, :2]
    for xy in out_xy:  # read-only: each output stream adopts its array, uncopied
        xy.flags.writeable = False
    return [Stream(st.t_ms, xy, st.source) for st, xy in zip(streams, out_xy)]
