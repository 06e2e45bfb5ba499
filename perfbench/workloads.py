"""The three workloads: paper batch, long-dwell self-correction, live reboots.

Each workload generates its inputs one log set (one program seed) at a
time in ``setup_unit`` and runs one measured round over all of its seeds
in ``round``; ``before_round`` and ``after_round`` run untimed around it.
``check`` checks the outputs of the last round and ``accuracy`` returns
the self-corrective method's stop error and trajectory RMSE in mm,
averaged over seeds. An operation is a (method, seed) cell for the CLI
workloads and a seed for ``live-reboot``; ``round`` returns how many it
attempted and how many failed.

The package is called only through module attributes (``cli.main``,
``pipeline.run_pipeline_live``, ...) so that a traced run sees every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import replace
from pathlib import Path

import numpy as np

from uwbvo import cli, clustering, config, metrics, pipeline, simulate

from checks import (
    Plan,
    check_cli_recount,
    check_compare_is_mean,
    check_live_reboots,
    check_paper_claims,
    check_stop_decisions,
    plan_from_flight_plan,
    plan_from_ini,
    read_rows,
    recount,
    require,
    require_recount,
)

SELF_CORRECTIVE = "self-corrective"


def run_cli(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


class CliWorkload:
    """``uwbvo simulate`` per seed, then ``run`` and ``compare`` per round."""

    name = ""
    methods: tuple[str, ...] = ()
    method_args: tuple[str, ...] = ()

    def __init__(self, run_dir: Path, seeds: list[int]) -> None:
        self.seeds = seeds
        self.logs = run_dir / "logs"
        self.logs.mkdir(parents=True)
        self.scenario_arg = "worst-case"
        self._reports_digest: str | None = None

    def setup_unit(self, seed: int) -> None:
        rc = run_cli(
            "simulate", "--scenario", self.scenario_arg,
            "--seed", str(seed), "--out", str(self.logs),
        )
        require(rc == 0, f"simulate seed {seed} exited {rc}")

    def before_round(self) -> None:
        pass

    def round(self) -> tuple[int, int]:
        seed_args = [a for s in self.seeds for a in ("--seed", str(s))]
        rc = run_cli(
            "run", "--logs", str(self.logs), *self.method_args, *seed_args,
            "--jobs", "1",
        )
        require(rc in (0, 2), f"run exited {rc}")
        require(run_cli("compare", str(self.logs)) == 0, "compare failed")
        failed = len(read_rows(self.logs / "failures.csv")) if rc == 2 else 0
        return len(self.methods) * len(self.seeds), failed

    def after_round(self) -> None:
        digest = hashlib.sha256((self.logs / "reports.csv").read_bytes()).hexdigest()
        if self._reports_digest is None:
            self._reports_digest = digest
        require(digest == self._reports_digest, "reports.csv changed between rounds")

    def _checked_reports(self) -> tuple[list[dict[str, str]], Plan, dict[str, float]]:
        reports = read_rows(self.logs / "reports.csv")
        failed = (
            len(read_rows(self.logs / "failures.csv"))
            if (self.logs / "failures.csv").exists()
            else 0
        )
        require(
            len(reports) + failed == len(self.methods) * len(self.seeds),
            f"{len(reports)} report rows and {failed} failures for "
            f"{len(self.methods) * len(self.seeds)} cells",
        )
        plan, thresholds = plan_from_ini(self.logs / "scenario.ini")
        check_cli_recount(self.logs, reports, plan)
        return reports, plan, thresholds

    def accuracy(self) -> tuple[float, float]:
        reports = read_rows(self.logs / "reports.csv")
        sc = [r for r in reports if r["method"] == SELF_CORRECTIVE]
        require(len(sc) > 0, "no self-corrective report")
        return (
            float(np.mean([float(r["avg_stop_mm"]) for r in sc])),
            float(np.mean([float(r["rmse_mm"]) for r in sc])),
        )


class PaperBatch(CliWorkload):
    """Worst-case preset, every method: the paper's comparison table."""

    name = "paper-batch"
    seeds_per_run = 3
    methods = tuple(k.value for k in cli.BaselineKind)
    method_args = ("--method", "all")

    def check(self) -> None:
        reports, _, _ = self._checked_reports()
        compare_rows = read_rows(self.logs / "compare.csv")
        check_compare_is_mean(reports, compare_rows)
        check_paper_claims(compare_rows)


class LongDwell(CliWorkload):
    """Worst-case VO faults on 60 s dwells, paper-default k1/k2."""

    name = "long-dwell"
    seeds_per_run = 3
    methods = (SELF_CORRECTIVE,)
    method_args = ("--method", SELF_CORRECTIVE)
    dwell_ms = 60000.0

    def __init__(self, run_dir: Path, seeds: list[int]) -> None:
        super().__init__(run_dir, seeds)
        base = simulate.worst_case_scenario()
        scenario = replace(
            base, name="long-dwell", plan=replace(base.plan, dwell_ms=self.dwell_ms)
        )
        params = replace(config.default_pipeline_params(), cluster=clustering.ClusterParams())
        self.scenario_arg = str(run_dir / "long-dwell.ini")
        config.save_config(scenario, params, self.scenario_arg)

    def check(self) -> None:
        reports, plan, thresholds = self._checked_reports()
        for r in reports:
            seed = int(r["seed"])
            rows = read_rows(self.logs / "tracks" / f"stops_{SELF_CORRECTIVE}_{seed:04d}.csv")
            check_stop_decisions(rows, plan, thresholds["k2"], thresholds["gamma_mm"])


class LiveReboot:
    """``run_pipeline_live`` over a rebooting ``VoSensor``, worst-case preset."""

    name = "live-reboot"
    seeds_per_run = 4

    def __init__(self, run_dir: Path, seeds: list[int]) -> None:
        self.seeds = seeds
        self.scenario = simulate.worst_case_scenario()
        self.params = config.default_pipeline_params()
        self.truth = simulate.build_truth(self.scenario.plan)
        self.uwb: dict[int, tuple] = {}
        self.sensors: dict[int, simulate.VoSensor] = {}
        self.results: dict[int, tuple] = {}
        self._first: dict[int, tuple] | None = None

    def _sensor(self, seed: int) -> simulate.VoSensor:
        return simulate.VoSensor(self.truth, self.scenario.vo, seed)

    def setup_unit(self, seed: int) -> None:
        pair, _, _ = simulate.simulate_pair(self.scenario, seed)
        self.uwb[seed] = pair.uwb
        self.sensors[seed] = self._sensor(seed)

    def before_round(self) -> None:
        # a live sensor is consumed by its run: give each round fresh ones
        if self.results:
            self.results = {}
            self.sensors = {seed: self._sensor(seed) for seed in self.seeds}

    def round(self) -> tuple[int, int]:
        failed = 0
        for seed in self.seeds:
            sensor = self.sensors[seed]
            try:
                track = pipeline.run_pipeline_live(
                    self.uwb[seed], sensor, self.scenario.plan, self.params
                )
            except pipeline.StopDetectionFailure:
                failed += 1
                continue
            report = metrics.RunReport.build(SELF_CORRECTIVE, seed, track, self.truth)
            self.results[seed] = (track, report, sensor)
        return len(self.seeds), failed

    def after_round(self) -> None:
        summary = {
            seed: (report.avg_stop_mm, report.rmse_mm, tuple(track.restarts))
            for seed, (track, report, _) in self.results.items()
        }
        if self._first is None:
            self._first = summary
        require(summary == self._first, "live results changed between rounds")

    def check(self) -> None:
        require(len(self.results) > 0, "no live run finished")
        plan = plan_from_flight_plan(self.scenario.plan)
        vo_period_ms = 1000.0 / self.scenario.vo.rate_hz
        for seed, (track, report, sensor) in self.results.items():
            ts = np.array([s.t_ms for s in track.samples], dtype=np.float64)
            xy = np.array([[s.pos.x, s.pos.y] for s in track.samples])
            require_recount(
                f"live seed {seed}",
                recount(ts, xy, self.truth.sample(ts), plan),
                report.avg_stop_mm,
                report.rmse_mm,
            )
            check_live_reboots(sensor.reboots, track.restarts, track.w_history, vo_period_ms)

    def accuracy(self) -> tuple[float, float]:
        require(len(self.results) > 0, "no live run finished")
        reports = [report for _, report, _ in self.results.values()]
        return (
            float(np.mean([r.avg_stop_mm for r in reports])),
            float(np.mean([r.rmse_mm for r in reports])),
        )


WORKLOADS = {w.name: w for w in (PaperBatch, LongDwell, LiveReboot)}
