"""Constant turn rate and acceleration (CTRA) extended Kalman filter.

The filter runs over a single position stream. Its six-dimensional state is
``(x, y, v, psi, psi_dot, a)`` in millimetres, mm/s, radians, rad/s and
mm/s^2. Measurements are full-state vectors synthesized from the position
stream itself (see :func:`_measurement_blocks`), so the measurement model
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
alone gives. The lockstep packs and steps one block of steps at a time,
blocks cut to a budget of row-steps (rows times steps), so its memory is
bounded by a block, not by the samples it filters. A block's measurements
come from one columnar pass over its (steps x rows) rectangle, every row
at once, each row's prefix sums resuming where its previous block left
them.
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
    which keeps dwell-time noise out of the speed channel. ``eps_yaw`` is
    the yaw rate below which a step moves along a straight line. The span
    and ``eps_yaw`` must be finite and positive, the speed floor finite and
    nonnegative: a NaN or negative span would shrink every window to three
    samples, and a NaN floor would read every window as stationary.
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
        for name in ("diff_span_s", "eps_yaw"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ValueError(f"{name} must be finite and positive")
        if not (math.isfinite(self.min_speed_mm_s) and self.min_speed_mm_s >= 0):
            raise ValueError("min_speed_mm_s must be finite and nonnegative")


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
            raise FilterError("degenerate innovation covariance") from None
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


# row-steps (rows times steps) the lockstep packs and filters at a time: a
# block holds as many steps as keep its rows by steps within the budget (at
# least one step). It bounds the block arrays and the synthesis temporaries
# to a few MB, and a live run's UWB lockstep (17 rows by under 600 steps on
# the worst-case preset) still fits in one block.
_ROW_STEPS_PER_BLOCK = 1 << 14


def _block_cuts(active: np.ndarray) -> list[int]:
    """Block bounds over the steps: ``active[k]`` rows run at step ``k``."""
    cuts = [0]
    while cuts[-1] < len(active):
        k0 = cuts[-1]
        cuts.append(min(len(active), k0 + max(1, _ROW_STEPS_PER_BLOCK // int(active[k0]))))
    return cuts


def _measurement_blocks(
    t_ms: np.ndarray,
    xy: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    cuts: Sequence[int],
    span_s: float,
    min_speed_mm_s: float,
):
    """Full-state measurements of lockstep rows, one block of steps at a time.

    Row ``r`` is a restart segment: the ``lengths[r]`` consecutive samples
    of ``t_ms`` and ``xy`` from ``starts[r]`` on. The segments tile the
    two arrays in any order, and the rows come longest first. Each block
    ``cuts[b]:cuts[b + 1]`` yields ``(u, dt, samples)`` in the lockstep's
    step-major order, where the entries of step ``k`` are the rows still
    running at ``k``, in row order: ``u`` holds each entry's measurement,
    ``dt`` the step from the row's previous sample in seconds (0.0 at its
    sample 0), and ``samples`` the index of each entry's sample. A block's
    positions are read only when the generator resumes for it, so a caller
    may overwrite the samples of a block it has been given.

    Sample ``k`` of a segment gets the measurement derived from the
    trailing window ending there (NaN for samples 0 and 1, where no window
    exists yet); window bounds compare in exact integer milliseconds. The
    newest sample provides the position. Speed and heading come from the
    least-squares velocity over the window; yaw rate and acceleration come
    from second differences across the window's two halves, headings
    differenced on the circle. A window whose net motion is slower than
    ``min_speed_mm_s``, or not significant against the fit's residual
    scatter, reads as a stationary platform: zero speed and rates, the
    previous heading kept.

    Each block is one columnar pass over a (steps x rows) rectangle:

    - the window sums come from eight prefix sums per row, accumulated
      along the step axis from the sums each row reached at the block's
      first sample, so every row performs the same sequential additions
      as one cumulative sum over its whole segment. The prefix sums of
      earlier blocks that a later window can still start at are kept, as
      slabs of steps trimmed to the rows that may read them;
    - window starts come from one ``searchsorted`` over integer keys, each
      sample's milliseconds from its segment's first plus an offset per
      segment that lifts it above the segment before it in the arrays, so
      that the keys rise along them;
    - the gates run as a cascade over every row's windows at once: the
      full-window fit and its speed gate over every window, the residual
      scatter over the windows fast enough, and the two half-window fits
      and the headings over the windows that pass both. Their values are
      scattered into entries that read stationary until then;
    - headings are carried forward along the step axis from each row's
      last one.
    """
    n_rows = len(lengths)
    last = starts + lengths - 1
    floor = max(min_speed_mm_s, 1e-9)
    span_ms = span_s * 1000.0
    t0 = t_ms[starts]
    room = t_ms[last] - t0 + 2
    flat = np.argsort(starts)  # the rows in the arrays' order, where the keys rise
    key_off = (np.cumsum(room[flat]) - room[flat])[np.argsort(flat)]
    keys = np.repeat((t0 - key_off)[flat], lengths[flat])
    np.subtract(t_ms, keys, out=keys)
    del t_ms

    def gated_speed(s: np.ndarray, cnt: np.ndarray):
        """The least-squares velocity of windows with sums ``s`` over ``cnt``
        samples, its speed, and whether the window moves."""
        denom = s[1] - s[0] * s[0] / cnt
        spans_time = denom > 0.0
        safe = np.where(spans_time, denom, 1.0)
        vx = (s[4] - s[0] * s[2] / cnt) / safe
        vy = (s[5] - s[0] * s[3] / cnt) / safe
        speed = np.hypot(vx, vy)
        return speed, vx, vy, spans_time & (speed >= floor), denom

    def pack(k0: int, k1: int, x: np.ndarray, at: np.ndarray, psi0: np.ndarray):
        """Block ``k0:k1``: what it yields, each row's heading at step
        ``k1``, and each row's window start at step ``k1 - 1`` (None when
        the block has no window). ``x`` holds the prefix sums where ``at``
        places them, the block's own rectangle with its first step filled
        in."""
        n_steps, rows = k1 - k0, len(psi0)
        # samples k0 - 1 to k1 - 1 of each row, clamped into the row: the
        # entries past a row's end repeat its last sample and are not read
        steps = np.arange(k0 - 1, k1)
        g = np.minimum(np.maximum(steps, 0)[:, None] + starts[:rows], last[:rows])
        rel_ms = keys[g] - key_off[:rows]
        t_s = (rel_ms + t0[:rows]) / 1000.0
        dt = t_s[1:] - t_s[:-1]  # 0.0 at a row's sample 0
        rel_ms = rel_ms[1:]
        rel = rel_ms / 1000.0
        pos = xy[g[1:]]
        px, py = pos[..., 0], pos[..., 1]

        # prefix sums p[k0] to p[k1] of every row, along the step axis
        prefix = x[:, at[k0] : at[k1] + rows].reshape(8, n_steps + 1, rows)
        terms = prefix[:, 1:]
        terms[0] = rel
        np.multiply(rel, rel, out=terms[1])
        terms[2] = px
        terms[3] = py
        np.multiply(rel, px, out=terms[4])
        np.multiply(rel, py, out=terms[5])
        np.multiply(px, px, out=terms[6])
        np.multiply(py, py, out=terms[7])
        np.add.accumulate(prefix, axis=1, out=prefix)
        if k0 == 0:  # p[0] of a segment is +0.0, p[1] its first term
            prefix[:, 0] = 0.0

        # windows: the rectangle's steps from sample 2 on
        w0 = max(k0, 2) - k0
        k = np.arange(k0 + w0, k1)[:, None]
        # window starts, searched row after row, each row's queries rising
        q = np.maximum(np.floor(rel_ms[w0:] - span_ms), -1.0).astype(np.int64)
        q += key_off[:rows]
        a = np.searchsorted(keys, q.T.reshape(-1), side="right").reshape(rows, -1).T
        lo = np.clip(np.minimum(a - starts[:rows] - 1, k - 2), 0, None)

        # gate 1, every window: the full-window fit's speed
        p_hi = prefix[:, w0 + 1 :]
        win = np.take(x, at[lo] + np.arange(rows), axis=1)
        np.subtract(p_hi, win, out=win)  # the window sums
        cnt = (k - lo + 1).astype(np.float64)
        speed, vx, vy, moving, denom = gated_speed(win, cnt)
        moving &= k < lengths[:rows]
        # gate 2, windows that pass gate 1: motion significant against the
        # residual scatter of the straight-line fit
        g1 = np.flatnonzero(moving)
        k, r = k0 + w0 + g1 // rows, g1 % rows
        lo_g, speed, vx, vy, denom, cnt = (
            c.reshape(-1)[g1] for c in (lo, speed, vx, vy, denom, cnt)
        )
        win = win.reshape(8, -1)[:, g1]
        sum_x, sum_y = win[2], win[3]
        rss = (
            (win[6] - sum_x * sum_x / cnt)
            - vx * vx * denom
            + (win[7] - sum_y * sum_y / cnt)
            - vy * vy * denom
        )
        resid = np.sqrt(np.maximum(rss, 0.0) / cnt)
        rel_lo = (keys[starts[r] + lo_g] - key_off[r]) / 1000.0
        span = rel_ms[w0:].reshape(-1)[g1] / 1000.0 - rel_lo
        moving = speed * span >= _significance(cnt) * resid
        # windows that pass both gates: heading, and rates from the half windows
        g2, k, lo_g, r, speed, vx, vy, span = (
            c[moving] for c in (g1, k, lo_g, r, speed, vx, vy, span)
        )
        mid = lo_g + (k - lo_g + 1) // 2
        p_lo = np.take(x, at[lo_g] + r, axis=1)
        v_old, vx_o, vy_o, mov_o, _ = gated_speed(
            np.take(x, at[mid + 1] + r, axis=1) - p_lo, (mid - lo_g + 1).astype(np.float64)
        )
        v_new, vx_n, vy_n, mov_n, _ = gated_speed(
            p_hi.reshape(8, -1)[:, g2] - np.take(x, at[mid] + r, axis=1),
            (k - mid + 1).astype(np.float64),
        )
        half_dt = 0.5 * span
        dpsi = np.arctan2(vy_n, vx_n) - np.arctan2(vy_o, vx_o)
        dpsi -= TAU * np.round(dpsi / TAU)

        # headings, carried forward along the steps from each row's last
        psi = np.full((n_steps + 1, rows), np.nan)
        psi[0] = psi0
        psi[1 + w0 :].reshape(-1)[g2] = np.arctan2(vy, vx)
        newest = np.where(np.isnan(psi), 0, np.arange(0, psi.size, rows)[:, None])
        np.maximum.accumulate(newest, axis=0, out=newest)
        newest += np.arange(rows)
        psi = psi.reshape(-1)[newest]

        entry = np.flatnonzero(steps[1:, None] < lengths[:rows])  # step-major
        n0 = int(np.count_nonzero(entry < w0 * rows))
        cell = entry[n0:] - w0 * rows  # the entries' windows
        # the measurements column by column; the lockstep reads their rows
        u = np.zeros((STATE_DIM, len(entry)))  # a stationary window: no speed, no rates
        u[:, :n0] = np.nan
        u_w = u[:, n0:]
        np.take(px, entry[n0:], out=u_w[0])
        np.take(py, entry[n0:], out=u_w[1])
        np.take(psi[1 + w0 :], cell, out=u_w[3])
        passed = np.searchsorted(cell, g2)
        u_w[2, passed] = speed
        u_w[4, passed] = np.where(mov_o & mov_n, dpsi / half_dt, 0.0)
        u_w[5, passed] = (np.where(mov_n, v_new, 0.0) - np.where(mov_o, v_old, 0.0)) / half_dt
        block = u.T, dt.reshape(-1)[entry], g[1:].reshape(-1)[entry]
        return block, psi[n_steps], lo[-1] if len(lo) else None

    # carried per row: the prefix sums at a block's first sample (-0.0,
    # the additive identity, before any), the last heading, and the first
    # sample a window of a later block can start at
    sums = np.full((8, n_rows), -0.0)
    psi_carry = np.zeros(n_rows)
    need_from = np.zeros(n_rows, dtype=np.int64)
    # x holds the kept prefix sums of earlier blocks, as slabs (first step,
    # end step, rows, offset) of step-major sums, then the block's own:
    # row r's prefix sum at sample i is x[:, at[i] + r]
    at = np.zeros(cuts[-1] + 1, dtype=np.int64)
    x, slabs = np.empty((8, 0)), []
    for k0, k1 in zip(cuts, cuts[1:]):
        rows = int(np.count_nonzero(lengths > k0))
        # keep the slabs a window of this block or a later one can start
        # in: their steps from the earliest such start, for the rows up to
        # the last one that may read them, moved to the front of x in order
        # (a slab only moves down, past the ones before it)
        kept, n_kept = [], 0
        for s0, s1, width, base in slabs:
            readers = np.flatnonzero(need_from[:rows] < s1)
            if len(readers):
                w = int(readers[-1]) + 1
                i0 = max(s0, int(need_from[readers].min()))
                x[:, n_kept : n_kept + (s1 - i0) * w].reshape(8, s1 - i0, w)[...] = x[
                    :, base : base + (s1 - s0) * width
                ].reshape(8, s1 - s0, width)[:, i0 - s0 :, :w]
                at[i0:s1] = n_kept + np.arange(s1 - i0) * w
                kept.append((i0, s1, w, n_kept))
                n_kept += (s1 - i0) * w
        slabs = kept
        size = n_kept + (k1 - k0 + 1) * rows
        if size > x.shape[1]:  # grown, with room to spare, as the kept slabs grow
            x, kept_x = np.empty((8, size + size // 4)), x
            x[:, :n_kept] = kept_x[:, :n_kept]
            del kept_x
        at[k0 : k1 + 1] = n_kept + np.arange(k1 - k0 + 1) * rows
        slabs.append((k0, k1, rows, n_kept))
        x[:, n_kept : n_kept + rows] = sums[:, :rows]

        block, psi_end, lo_end = pack(k0, k1, x, at, psi_carry[:rows])
        yield block
        del block
        # what the rows that run on past the block carry to the next
        going = int(np.count_nonzero(lengths > k1))
        sums[:, :going] = x[:, at[k1] : at[k1] + going]
        psi_carry[:going] = psi_end[:going]
        if lo_end is not None:
            need_from[:going] = lo_end[:going]


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

    A stream whose filter fails gets a :class:`FilterError` as its result:
    ``filter diverged at sample i (t_ms ...)`` for a non-finite state or a
    negative covariance diagonal, ``i`` indexing that stream, or
    ``degenerate innovation covariance``. An empty stream is its own
    result; :func:`checked` turns a result back into a stream or raises.

    One lockstep holds the restart segments of every non-empty stream (see
    :func:`_lockstep`), so short streams ride along with a long one. If it
    fails, each of those streams is filtered again alone, and keeps what
    its lone run gives, a stream or an error: every result is a lone run's.
    """
    results: list[Stream | FilterError] = list(streams)
    busy = [i for i, stream in enumerate(streams) if len(stream)]
    if not busy:
        return results
    try:
        outcome = _lockstep([streams[i] for i in busy], params, restart_times_ms)
    except FilterError:
        outcome = []
        for i in busy:
            try:
                outcome += _lockstep([streams[i]], params, restart_times_ms)
            except FilterError as err:
                outcome.append(err)
    for i, result in zip(busy, outcome):
        results[i] = result
    return results


def _lockstep(
    streams: Sequence[Stream], params: CtraParams, restart_times_ms: Sequence[float]
) -> list[Stream]:
    """Filter the restart segments of non-empty streams as rows of one stack.

    Segments share nothing, so one :class:`CtraFilter` holds a stack with one
    row per segment, longest first, and step ``k`` advances the ``k``-th
    sample of every segment that has one. The samples lie in one array,
    stream after stream; a row is its segment's start there. The rows
    still running at step ``k`` are a prefix, so inputs are packed
    step-major: step ``k`` reads the entries ``bounds[k]:bounds[k + 1]``,
    then writes its estimates over the measurements it read.

    The steps are packed and filtered a block at a time, blocks cut to
    :data:`_ROW_STEPS_PER_BLOCK` row-steps each. One columnar pass
    (:func:`_measurement_blocks`) packs a block's measurements and steps
    for every row at once, each row resuming from what its previous block
    carried, so the packed arrays hold one block of steps, not the whole
    run. A block's estimates overwrite its samples' positions with one
    scatter. At the end the positions are set read-only, and each output
    stream adopts its slice uncopied. A slice keeps the whole array alive
    while any output lives; ``cli`` holds a batch's outputs together anyway.

    Returns a stream per input stream, or raises the first
    :class:`FilterError` of the stack: ``update``'s degenerate innovation
    covariance, or a failed health test, named by the first bad sample in
    the array of the rows :meth:`CtraFilter.diverged` flags, by its index
    in its own stream. Its text is a lone run's only when one stream is
    given; :func:`run_filter` reruns a failed stack stream by stream.
    """
    sizes = [len(stream) for stream in streams]
    offs = np.cumsum(sizes) - sizes  # each stream's first sample in the flat arrays
    starts = []
    for a, stream in zip(offs, streams):
        cut = np.searchsorted(stream.t_ms, restart_times_ms, side="left")
        # a set, not np.unique, which imports numpy.ma (1.6 MB of RSS)
        starts += [a + c for c in sorted({0, *cut[cut < len(stream)].tolist()})]
    starts = np.array(starts)
    lengths = np.diff(starts, append=sum(sizes))
    order = np.argsort(-lengths, kind="stable")
    starts, lengths = starts[order], lengths[order]  # the rows, longest first
    active = np.searchsorted(-lengths, -np.arange(lengths[0]), side="left")
    # the Jacobian buffer of every step: rows only leave its prefix, and the
    # entries outside the ones each step writes stay the identity's
    jac = np.broadcast_to(_EYE, (len(lengths), STATE_DIM, STATE_DIM)).copy()

    filt = CtraFilter(params)
    # every stream's samples, stream after stream: the positions are read
    # block by block, and each block's estimates overwrite its samples
    xy = np.concatenate([stream.xy for stream in streams])
    filt.reset(xy[starts, 0], xy[starts, 1])
    cuts = _block_cuts(active)
    blocks = _measurement_blocks(
        np.concatenate([stream.t_ms for stream in streams]),
        xy, starts, lengths, cuts, params.diff_span_s, params.min_speed_mm_s,
    )
    bounds = [0, *np.cumsum(active).tolist()]
    for (u, dt, samples), k0, k1 in zip(blocks, cuts, cuts[1:]):
        base = bounds[k0]
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
                filt.update(u[a:b])
            # ufunc reductions, not ``ndarray.all``: a NaN fails both tests
            if not (
                np.logical_and.reduce(np.isfinite(filt.state), axis=None)
                and np.minimum.reduce(filt.P.diagonal(0, -2, -1), axis=None) >= 0.0
            ):
                i = int(starts[np.flatnonzero(filt.diverged())].min()) + k
                s = int(np.searchsorted(offs, i, side="right")) - 1
                i -= int(offs[s])
                raise FilterError(f"filter diverged at sample {i} (t_ms {streams[s].t_ms[i]})")
            u[a:b, :2] = filt.state[:, :2]
        xy[samples] = u[:, :2]
        del u, dt, half_dt, dt_cubed  # not held while the next block is packed
    xy.flags.writeable = False  # so that each output stream adopts its slice
    return [Stream(s.t_ms, xy[a : a + n], s.source) for s, a, n in zip(streams, offs, sizes)]
