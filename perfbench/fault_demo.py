#!/usr/bin/env python3
"""Show that every correctness check of the benchmark can fail.

Runs each workload once on program seed 0, checks that its outputs pass,
then corrupts one output at a time and checks that the benchmark's own
check rejects it. Prints one line per corruption and exits 1 if a
corruption went unnoticed or the clean outputs were rejected.

    python3 perfbench/fault_demo.py

Takes under a minute on 2 cores; writes only under ``perfbench/runs/``.
"""
from __future__ import annotations

import contextlib
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

from run import HERE, import_package

import_package()

import numpy as np  # noqa: E402

from checks import (  # noqa: E402
    CheckFailed,
    check_paper_claims,
    dwell_windows,
    plan_from_ini,
    read_rows,
)
from workloads import LiveReboot, LongDwell, PaperBatch  # noqa: E402

missed: list[str] = []


def expect_failure(what: str, check) -> None:
    try:
        check()
    except CheckFailed as exc:
        print(f"rejected  {what}: {exc}")
        return
    print(f"MISSED    {what}")
    missed.append(what)


@contextlib.contextmanager
def edited(path: Path, edit):
    """Rewrite a text file with ``edit(lines) -> lines``, restore it after."""
    original = path.read_bytes()
    lines = original.decode().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")
    try:
        yield
    finally:
        path.write_bytes(original)


def edit_cell(column: str, match: dict[str, str], change):
    """An ``edited`` callback that changes one CSV cell."""

    def edit(lines: list[str]) -> list[str]:
        header = lines[0].split(",")
        out = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            row = dict(zip(header, cells))
            if all(row[k] == v for k, v in match.items()):
                cells[header.index(column)] = change(row[column])
            out.append(",".join(cells))
        return out

    return edit


def move_midpoint_rows(logs: Path, mm: float):
    """Move the track row nearest each dwell midpoint ``mm`` away from its stop."""
    plan, _ = plan_from_ini(logs / "scenario.ini")
    windows = dwell_windows(plan)

    def edit(lines: list[str]) -> list[str]:
        ts = np.array([float(line.split(",")[0]) for line in lines[1:]])
        for idx, t0, t1 in windows:
            j = int(np.argmin(np.abs(ts - 0.5 * (t0 + t1)))) + 1
            t, x, y, mode = lines[j].split(",")
            p = np.array([float(x), float(y)])
            d = p - plan.stops[idx]
            d = d / np.hypot(*d) if np.hypot(*d) > 0 else np.array([1.0, 0.0])
            q = p + mm * d
            lines[j] = f"{t},{q[0]:.1f},{q[1]:.1f},{mode}"
        return lines

    return edit


def paper_batch(run_dir: Path) -> None:
    wl = PaperBatch(run_dir, [0])
    wl.setup_unit(0)
    wl.round()
    wl.check()
    logs = wl.logs
    sc_track = logs / "tracks" / "track_self-corrective_0000.csv"
    with edited(sc_track, move_midpoint_rows(logs, 1.0)):
        expect_failure("paper-batch: track rows at every dwell midpoint moved 1 mm", wl.check)
    with edited(
        logs / "reports.csv",
        edit_cell("rmse_mm", {"method": "direct-fusion"}, lambda v: f"{float(v) + 0.5:.3f}"),
    ):
        expect_failure("paper-batch: direct-fusion rmse_mm in reports.csv +0.5 mm", wl.check)
    with edited(logs / "reports.csv", lambda lines: [x for x in lines if "raw-vo" not in x]):
        expect_failure("paper-batch: raw-vo row dropped from reports.csv", wl.check)
    with edited(
        logs / "compare.csv",
        edit_cell("avg_stop_mm", {"method": "self-corrective"}, lambda v: f"{float(v) + 0.01:.3f}"),
    ):
        expect_failure("paper-batch: self-corrective avg_stop_mm in compare.csv +0.01 mm", wl.check)
    with edited(
        logs / "truth_0000.csv",
        lambda lines: lines[:1] + [lines[1].rsplit(",", 1)[0] + ",-1"] + lines[2:],
    ):
        expect_failure("paper-batch: first truth row taken out of its dwell", wl.check)
    rows = read_rows(logs / "compare.csv")
    direct = next(r for r in rows if r["method"] == "direct-fusion")
    for column, value in (
        ("avg_stop_mm", float(direct["avg_stop_mm"]) + 1.0),
        ("rmse_mm", float(direct["rmse_mm"]) + 1.0),
    ):
        worse = [
            {**r, column: f"{value:.3f}"} if r["method"] == "self-corrective" else r
            for r in rows
        ]
        expect_failure(
            f"paper-batch: self-corrective {column} worse than direct fusion",
            lambda: check_paper_claims(worse),
        )
    over = [
        {**r, "avg_stop_mm": "50.000", "rmse_mm": "0.000"}
        if r["method"] == "self-corrective"
        else {**r, "avg_stop_mm": "99.000"}
        for r in rows
    ]
    expect_failure("paper-batch: self-corrective stop error at 50 mm", lambda: check_paper_claims(over))


def long_dwell(run_dir: Path) -> None:
    wl = LongDwell(run_dir, [0])
    wl.setup_unit(0)
    wl.round()
    wl.check()
    stops = wl.logs / "tracks" / "stops_self-corrective_0000.csv"
    k2 = plan_from_ini(wl.logs / "scenario.ini")[1]["k2"]
    with edited(stops, edit_cell("support", {"stop_index": "3"}, lambda v: str(int(k2) - 1))):
        expect_failure("long-dwell: a complete decision with support k2 - 1", wl.check)
    with edited(stops, edit_cell("est_x_mm", {"stop_index": "3"}, lambda v: f"{float(v) + 150:.1f}")):
        expect_failure("long-dwell: an estimate moved 150 mm off its stop", wl.check)
    with edited(
        wl.logs / "tracks" / "track_self-corrective_0000.csv",
        move_midpoint_rows(wl.logs, 1.0),
    ):
        expect_failure("long-dwell: track rows at every dwell midpoint moved 1 mm", wl.check)


def live_reboot(run_dir: Path) -> None:
    wl = LiveReboot(run_dir, [0])
    wl.setup_unit(0)
    wl.round()
    wl.check()
    track, report, sensor = wl.results[0]

    @contextlib.contextmanager
    def swapped(obj, attr, value):
        original = getattr(obj, attr)
        setattr(obj, attr, value)
        try:
            yield
        finally:
            setattr(obj, attr, original)

    with swapped(sensor, "reboots", sensor.reboots[:-1]):
        expect_failure("live-reboot: a missing reboot", wl.check)
    late = [t + 100 for t in sensor.reboots]
    with swapped(sensor, "reboots", late):
        expect_failure("live-reboot: reboots 100 ms after their restarts", wl.check)
    t, wx, wy = track.w_history[2]
    w_bad = track.w_history[:2] + [(t, wx + 0.5, wy)] + track.w_history[3:]
    with swapped(track, "w_history", w_bad):
        expect_failure("live-reboot: a correction vector not re-zeroed", wl.check)
    wl.results[0] = (track, replace(report, avg_stop_mm=report.avg_stop_mm + 0.2), sensor)
    expect_failure("live-reboot: reported stop error +0.2 mm", wl.check)
    wl.results[0] = (track, replace(report, rmse_mm=report.rmse_mm - 0.2), sensor)
    expect_failure("live-reboot: reported RMSE -0.2 mm", wl.check)
    wl.results[0] = (track, report, sensor)


def main() -> int:
    base = HERE / "runs" / f"fault-demo-{os.getpid()}"
    try:
        for name, demo in (
            ("paper-batch", paper_batch),
            ("long-dwell", long_dwell),
            ("live-reboot", live_reboot),
        ):
            demo(base / name)
    except CheckFailed as exc:
        print(f"clean outputs rejected: {exc}")
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{len(missed)} corruptions missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
