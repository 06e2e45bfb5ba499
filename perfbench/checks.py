"""Correctness checks on the program's outputs, in the benchmark's own code.

The accuracy figures are recounted here from the written outputs with
numpy, not with ``uwbvo.metrics``: dwell windows come from the flight plan
(trapezoidal speed profile per leg), the stop error is the distance from
the track sample nearest each dwell midpoint to the planned stop (last
visit of a revisited stop counts), and the RMSE is taken against the
truth poses at the track's own timestamps. Every check raises
:class:`CheckFailed` with a message naming what disagreed.
"""
from __future__ import annotations

import configparser
import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Written outputs carry 0.1 mm; a recount from them may differ from the
# program's own figure by about the rounding of one coordinate pair.
RECOUNT_TOL_MM = 0.1


class CheckFailed(AssertionError):
    """The program's output failed a correctness check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Plan:
    stops: np.ndarray  # (n, 2) mm
    dwell_ms: float
    cruise_mm_s: float
    accel_mm_s2: float
    closed: bool


def plan_from_ini(path: Path) -> tuple[Plan, dict[str, float]]:
    """The flight plan and the ``[pipeline]`` thresholds of a scenario file."""
    cp = configparser.ConfigParser()
    require(bool(cp.read(path)), f"cannot read {path}")
    fp = cp["flight_plan"]
    stops = [
        [float(v) for v in chunk.split(",")]
        for chunk in fp["stops"].split(";")
        if chunk.strip()
    ]
    plan = Plan(
        stops=np.array(stops, dtype=np.float64),
        dwell_ms=float(fp["dwell_ms"]),
        cruise_mm_s=float(fp["cruise_mm_s"]),
        accel_mm_s2=float(fp["accel_mm_s2"]),
        closed=fp["closed"].strip().lower() == "true",
    )
    thresholds = {k: float(v) for k, v in cp["pipeline"].items()}
    return plan, thresholds


def plan_from_flight_plan(fp) -> Plan:
    return Plan(
        stops=np.array([[p.x, p.y] for p in fp.stops], dtype=np.float64),
        dwell_ms=fp.dwell_ms,
        cruise_mm_s=fp.cruise_mm_s,
        accel_mm_s2=fp.accel_mm_s2,
        closed=fp.closed,
    )


def dwell_windows(plan: Plan) -> list[tuple[int, float, float]]:
    """(stop index, t0 ms, t1 ms) of every dwell, in flight order."""
    n = len(plan.stops)
    order = list(range(n)) + ([0] if plan.closed else [])
    c, a = plan.cruise_mm_s, plan.accel_mm_s2
    windows = []
    t = 0.0
    for visit, idx in enumerate(order):
        windows.append((idx, t, t + plan.dwell_ms))
        t += plan.dwell_ms
        if visit + 1 == len(order):
            break
        leg = plan.stops[order[visit + 1]] - plan.stops[idx]
        length = math.hypot(leg[0], leg[1])
        if c * c / a >= length:  # triangular profile: never reaches cruise
            t += 2000.0 * math.sqrt(length / a)
        else:
            t += 1000.0 * (length / c + c / a)
    return windows


def recount(
    ts: np.ndarray, xy: np.ndarray, true_xy: np.ndarray, plan: Plan
) -> tuple[float, float]:
    """(average stop error, trajectory RMSE) in mm of one track."""
    require(len(ts) > 0, "empty track")
    last: dict[int, tuple[float, float]] = {}
    for idx, t0, t1 in dwell_windows(plan):
        last[idx] = (t0, t1)
    errors = []
    for idx, (t0, t1) in sorted(last.items()):
        mid = 0.5 * (t0 + t1)
        j = int(np.argmin(np.abs(ts - mid)))
        require(t0 <= ts[j] <= t1, f"track misses the dwell at stop {idx + 1}")
        errors.append(math.hypot(*(xy[j] - plan.stops[idx])))
    rmse = float(np.sqrt(np.mean(np.sum((xy - true_xy) ** 2, axis=1))))
    return float(np.mean(errors)), rmse


def require_recount(
    what: str, recounted: tuple[float, float], stop_mm: float, rmse_mm: float
) -> None:
    r_stop, r_rmse = recounted
    require(
        abs(r_stop - stop_mm) <= RECOUNT_TOL_MM,
        f"{what}: stop error {stop_mm:.3f} mm reported, {r_stop:.3f} mm recounted",
    )
    require(
        abs(r_rmse - rmse_mm) <= RECOUNT_TOL_MM,
        f"{what}: RMSE {rmse_mm:.3f} mm reported, {r_rmse:.3f} mm recounted",
    )


# -- files written by the CLI ----------------------------------------------


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def load_truth(path: Path, plan: Plan) -> tuple[np.ndarray, np.ndarray]:
    """A ``truth_*.csv`` table, after checking its stop column against the plan."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    ts, xy, stop_idx = table[:, 0], table[:, 1:3], table[:, 3].astype(np.int64)
    expected = np.full(len(ts), -1, dtype=np.int64)
    for idx, t0, t1 in dwell_windows(plan):
        expected[(ts >= t0) & (ts <= t1)] = idx
    require(
        np.array_equal(stop_idx, expected),
        f"{path.name}: stop_index column disagrees with the plan's dwell windows",
    )
    return ts, xy


def load_track(path: Path) -> tuple[np.ndarray, np.ndarray]:
    table = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2), ndmin=2)
    return table[:, 0], table[:, 1:3]


def truth_at(truth: tuple[np.ndarray, np.ndarray], ts: np.ndarray) -> np.ndarray:
    t_tab, xy_tab = truth
    return np.stack(
        [np.interp(ts, t_tab, xy_tab[:, 0]), np.interp(ts, t_tab, xy_tab[:, 1])], axis=1
    )


def check_cli_recount(logs: Path, reports: list[dict[str, str]], plan: Plan) -> None:
    """Recount avg_stop_mm and rmse_mm of every report row from the CSVs."""
    truths: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for row in reports:
        method, seed = row["method"], int(row["seed"])
        if seed not in truths:
            truths[seed] = load_truth(logs / f"truth_{seed:04d}.csv", plan)
        ts, xy = load_track(logs / "tracks" / f"track_{method}_{seed:04d}.csv")
        require_recount(
            f"{method} seed {seed}",
            recount(ts, xy, truth_at(truths[seed], ts), plan),
            float(row["avg_stop_mm"]),
            float(row["rmse_mm"]),
        )


def check_compare_is_mean(
    reports: list[dict[str, str]], compare_rows: list[dict[str, str]]
) -> None:
    """compare.csv holds the per-method means (and 95% CIs) of reports.csv."""
    by_method: dict[str, list[dict[str, str]]] = {}
    for r in reports:
        by_method.setdefault(r["method"], []).append(r)
    require(
        sorted(by_method) == sorted(c["method"] for c in compare_rows),
        "compare.csv and reports.csv list different methods",
    )
    for c in compare_rows:
        rows = by_method[c["method"]]
        require(int(c["seeds"]) == len(rows), f"{c['method']}: wrong seed count")
        for column, source, tol in (
            ("avg_stop_mm", "avg_stop_mm", 0.0015),
            ("std_stop_mm", "std_stop_mm", 0.0015),
            ("rmse_mm", "rmse_mm", 0.0015),
            ("restarts_mean", "restarts", 0.006),
            ("corrections_mean", "corrections", 0.006),
        ):
            values = np.array([float(r[source]) for r in rows])
            require(
                abs(values.mean() - float(c[column])) <= tol,
                f"compare.csv {c['method']} {column} {c[column]} is not the "
                f"mean {values.mean():.4f} of reports.csv",
            )
        for column, source in (("avg_stop_ci_mm", "avg_stop_mm"), ("rmse_ci_mm", "rmse_mm")):
            values = np.array([float(r[source]) for r in rows])
            ci = 1.96 * values.std(ddof=1) / math.sqrt(len(values)) if len(values) > 1 else 0.0
            require(
                abs(ci - float(c[column])) <= 0.01,
                f"compare.csv {c['method']} {column} {c[column]}, expected {ci:.4f}",
            )


def check_paper_claims(compare_rows: list[dict[str, str]]) -> None:
    """Self-corrective beats direct fusion on both measures, under 50 mm."""
    by = {c["method"]: c for c in compare_rows}
    sc, direct = by["self-corrective"], by["direct-fusion"]
    for column in ("avg_stop_mm", "rmse_mm"):
        require(
            float(sc[column]) < float(direct[column]),
            f"self-corrective {column} {sc[column]} does not beat "
            f"direct fusion's {direct[column]}",
        )
    require(
        float(sc["avg_stop_mm"]) < 50.0,
        f"self-corrective stop error {sc['avg_stop_mm']} mm is not under 50 mm",
    )


def check_stop_decisions(
    stop_rows: list[dict[str, str]], plan: Plan, k2: float, gamma_mm: float
) -> None:
    """Each complete decision has support >= k2 and lies within gamma of its stop."""
    complete = [r for r in stop_rows if r["complete"] == "1"]
    require(len(complete) > 0, "no complete stop decision")
    for r in stop_rows:
        idx = int(r["stop_index"])
        planned = np.array([float(r["planned_x_mm"]), float(r["planned_y_mm"])])
        require(
            np.allclose(planned, plan.stops[idx], atol=0.05),
            f"stop {idx + 1}: planned position is not the plan's",
        )
    for r in complete:
        idx = int(r["stop_index"])
        require(
            int(r["support"]) >= k2,
            f"stop {idx + 1}: complete decision with support {r['support']} < k2 {k2:g}",
        )
        est = np.array([float(r["est_x_mm"]), float(r["est_y_mm"])])
        dist = math.hypot(*(est - plan.stops[idx]))
        require(
            dist <= gamma_mm + RECOUNT_TOL_MM,
            f"stop {idx + 1}: estimate {dist:.1f} mm from the stop, beyond gamma",
        )


def check_live_reboots(
    reboots: list[int], restarts: list[tuple[int, int]], w_history, vo_period_ms: float
) -> None:
    """Every restart re-anchored the sensor once, and re-zeroed ``w``."""
    require(len(restarts) > 0, "no restart: the live path was not exercised")
    require(
        len(reboots) == len(restarts),
        f"{len(reboots)} sensor reboots for {len(restarts)} restarts",
    )
    for t_boot, (t_restart, stop_idx) in zip(reboots, restarts):
        require(
            0 <= t_boot - t_restart <= 2 * vo_period_ms,
            f"stop {stop_idx + 1}: reboot at {t_boot} ms for a restart at {t_restart} ms",
        )
    require(
        len(w_history) == len(restarts) + 1,
        f"{len(w_history)} correction-vector entries for {len(restarts)} restarts",
    )
    for t, wx, wy in w_history:
        require(wx == 0.0 and wy == 0.0, f"correction vector ({wx}, {wy}) at {t} ms")
