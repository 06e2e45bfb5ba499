import csv
import math
from dataclasses import replace
from pathlib import Path

import pytest

from uwbvo import baselines, cli
from uwbvo.baselines import BaselineKind, run_method
from uwbvo.cli import main
from uwbvo.config import default_pipeline_params, load_config, save_config
from uwbvo.core import FlightPlan, Position2D, Stream, read_log
from uwbvo.ekf import FilterError, run_filter
from uwbvo.metrics import stop_accuracy
from uwbvo.pipeline import stop_visits
from uwbvo.simulate import (
    RaySpec,
    ScaleFaultSpec,
    ScenarioConfig,
    UwbModel,
    VoModel,
    best_case_scenario,
    simulate_pair,
)


def small_scenario_file(tmp_path, seg_scale=0.7, sigma_uwb=10.0, dwell_ms=12000.0) -> Path:
    plan = FlightPlan(
        stops=(Position2D(0.0, 0.0), Position2D(1000.0, 0.0)),
        dwell_ms=dwell_ms,
        cruise_mm_s=500.0,
        accel_mm_s2=1000.0,
        closed=False,
    )
    scenario = ScenarioConfig(
        "cli-test",
        plan,
        UwbModel(rate_hz=27.0, sigma_mm=sigma_uwb, ray=RaySpec(prob_per_stop=0.0)),
        VoModel(
            rate_hz=100.0,
            sigma_mm=0.5,
            underestimate=ScaleFaultSpec(0.0, (seg_scale, seg_scale), (0,)),
        ),
    )
    path = tmp_path / "small.ini"
    save_config(scenario, default_pipeline_params(), path)
    return path


def dir_bytes(path: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(path)): p.read_bytes()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


def test_simulate_run_compare_flow(tmp_path, capsys):
    scenario = small_scenario_file(tmp_path)
    out = tmp_path / "runs"
    assert main(["simulate", "--scenario", str(scenario), "--seeds", "2",
                 "--out", str(out), "--k1", "40", "--k2", "120"]) == 0
    for seed in (0, 1):
        assert (out / f"streams_{seed:04d}.csv").exists()
        assert (out / f"truth_{seed:04d}.csv").exists()
        assert (out / f"meta_{seed:04d}.json").exists()
    assert (out / "scenario.ini").exists()

    assert main(["run", "--logs", str(out), "--method", "self-corrective",
                 "--method", "raw-vo", "--seeds", "2"]) == 0
    with open(out / "reports.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # 2 methods x 2 seeds
    by_method = {}
    for row in rows:
        by_method.setdefault(row["method"], []).append(row)
    assert set(by_method) == {"self-corrective", "raw-vo"}
    for row in by_method["self-corrective"]:
        assert int(row["restarts"]) == 1  # single injected fault, corrected
        assert float(row["avg_stop_mm"]) < 30.0
    for row in by_method["raw-vo"]:
        assert float(row["avg_stop_mm"]) > 100.0  # uncorrected 300 mm miss
    assert (out / "tracks" / "track_self-corrective_0000.csv").exists()
    assert (out / "tracks" / "stops_self-corrective_0000.csv").exists()
    assert (out / "tracks" / "errors_raw-vo_0001.csv").exists()

    assert main(["compare", str(out)]) == 0
    table = capsys.readouterr().out
    assert "self-corrective" in table and "raw-vo" in table
    assert (out / "compare.csv").exists()


def test_compare_prints_the_aligned_table(tmp_path, capsys):
    # two seeds of one method, one of another, as `run` writes reports.csv
    (tmp_path / "reports.csv").write_text(
        "method,seed,avg_stop_mm,std_stop_mm,rmse_mm,restarts,corrections\r\n"
        "self-corrective,0,10.000,2.000,90.000,3,3\r\n"
        "self-corrective,1,14.000,4.000,94.000,5,5\r\n"
        "raw-vo,0,300.500,80.250,410.125,0,0\r\n",
        encoding="utf-8",
    )
    assert main(["compare", str(tmp_path)]) == 0
    # the CIs: 1.96 * s / sqrt(2), s = 2 * sqrt(2) for both columns; 0 for one seed
    assert capsys.readouterr().out.split("\n") == [
        "method           seeds  avg_stop_mm  avg_stop_ci_mm  std_stop_mm  rmse_mm  rmse_ci_mm"
        "  restarts_mean  corrections_mean",
        "---------------  -----  -----------  --------------  -----------  -------  ----------"
        "  -------------  ----------------",
        "raw-vo           1      300.500      0.000           80.250       410.125  0.000"
        "       0.00           0.00",
        "self-corrective  2      12.000       3.920           3.000        92.000   3.920"
        "       4.00           4.00",
        "",
    ]


def test_compare_refuses_corrections_that_differ_from_restarts(tmp_path, capsys):
    # every correction requests a restart: `run` writes one count in both columns
    reports = tmp_path / "reports.csv"
    reports.write_text(
        "method,seed,avg_stop_mm,std_stop_mm,rmse_mm,restarts,corrections\r\n"
        "self-corrective,0,10.000,2.000,90.000,3,3\r\n"
        "self-corrective,1,14.000,4.000,94.000,5,4\r\n",
        encoding="utf-8",
    )
    assert main(["compare", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {reports}: line 3: 4 corrections but 5 restarts\n"
    assert captured.out == "" and not (tmp_path / "compare.csv").exists()


def test_simulate_deterministic_bytes(tmp_path):
    scenario = small_scenario_file(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["simulate", "--scenario", str(scenario), "--seeds", "2",
                     "--out", str(out)]) == 0
        assert main(["run", "--logs", str(out), "--method", "self-corrective",
                     "--seeds", "1", "--k1", "40", "--k2", "120"]) == 0
    assert dir_bytes(out_a) == dir_bytes(out_b)
    # the truth depends only on the plan
    assert (out_a / "truth_0000.csv").read_bytes() == (out_a / "truth_0001.csv").read_bytes()


def test_jobs_parallel_matches_serial(tmp_path):
    scenario = small_scenario_file(tmp_path)
    # more workers than seeds; and batches of 2 and 1 seeds on 2 workers
    for seeds, jobs in (("2", "3"), ("3", "2")):
        out_a, out_b = tmp_path / f"serial{seeds}", tmp_path / f"parallel{seeds}"
        for out, n in ((out_a, "1"), (out_b, jobs)):
            assert main(["simulate", "--scenario", str(scenario), "--seeds", seeds,
                         "--out", str(out), "--k1", "40", "--k2", "120"]) == 0
            assert main(["run", "--logs", str(out), "--method", "self-corrective",
                         "--method", "pozyx-ctra", "--seeds", seeds, "--jobs", n]) == 0
        assert dir_bytes(out_a) == dir_bytes(out_b)


@pytest.mark.parametrize(
    "seeds, jobs, workers, sizes",
    [(["--seed", "0"], "3", None, []), (["--seeds", "2"], "3", 2, [1, 1]),
     (["--seeds", "3"], "2", 2, [2, 1]), (["--seeds", "5"], "4", 3, [2, 2, 1]),
     (["--seeds", "9"], "2", 2, [4, 4, 1])],
    ids=["seeds0-3-None", "seeds1-3-2", "seeds2-2-2", "seeds3-4-3", "seeds4-2-2"],
)
def test_jobs_start_no_more_workers_than_batches(
    tmp_path, monkeypatch, seeds, jobs, workers, sizes
):
    # batches of min(4, ceil(seeds / jobs)) seeds, as the README says; one
    # batch runs in-process, otherwise a worker per batch at most. The fake
    # pool maps in-process and starts no worker
    started, batches = [], []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            batches.extend(items)
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    out = tmp_path / "runs"
    assert main(["simulate", "--scenario", str(small_scenario_file(tmp_path)),
                 *seeds, "--out", str(out)]) == 0
    assert main(["run", "--logs", str(out), "--method", "raw-uwb", *seeds, "--jobs", jobs]) == 0
    assert started == ([] if workers is None else [workers])
    assert [len(batch) for batch in batches] == sizes


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_repeated_method_runs_once(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["simulate", "--scenario", str(small_scenario_file(tmp_path)),
                 "--out", str(out), "--k1", "40", "--k2", "120"]) == 0
    capsys.readouterr()
    assert main(["run", "--logs", str(out), "--method", "raw-uwb", "--method", "raw-uwb"]) == 0
    assert "wrote 1 reports" in capsys.readouterr().out
    assert [(r["method"], r["seed"]) for r in _rows(out / "reports.csv")] == [("raw-uwb", "0")]
    assert main(["compare", str(out)]) == 0
    assert [r["seeds"] for r in _rows(out / "compare.csv")] == ["1"]
    assert main(["run", "--logs", str(out), "--method", "all", "--method", "raw-uwb"]) == 0
    cells = [(r["method"], r["seed"]) for r in _rows(out / "reports.csv")]
    assert len(cells) == len(set(cells)) == len(BaselineKind)


def test_usage_errors_exit_one(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # missing --out
    assert exc.value.code == 1
    assert main(["simulate", "--scenario", "nope", "--out", str(tmp_path / "x")]) == 1
    assert main(["run", "--logs", str(tmp_path / "empty")]) == 1
    assert main(["compare", str(tmp_path)]) == 1
    out = tmp_path / "runs"
    main(["simulate", "--scenario", str(small_scenario_file(tmp_path)),
          "--seeds", "1", "--out", str(out)])
    assert main(["run", "--logs", str(out), "--method", "teleport"]) == 1
    assert main(["run", "--logs", str(out), "--seeds", "5"]) == 1  # missing logs
    assert main(["run", "--logs", str(out), "--seeds", "0"]) == 1  # no seeds
    # a negative seed or seed count, or fewer than one worker, fails in parsing,
    # naming the flag, before any file is written
    listing = sorted(out.rglob("*"))
    for command, flag, value in (("simulate", "--seed", "-3"), ("simulate", "--seeds", "-1"),
                                 ("run", "--seed", "-1"), ("run", "--seeds", "-2"),
                                 ("run", "--jobs", "0"), ("run", "--jobs", "-2")):
        where = ["--out", str(tmp_path / "neg")] if command == "simulate" else ["--logs", str(out)]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([command, *where, flag, value])
        assert exc.value.code == 1, (command, flag)
        assert f"argument {flag}: must be at least" in capsys.readouterr().err, (command, flag)
    assert not (tmp_path / "neg").exists()
    assert sorted(out.rglob("*")) == listing
    # overrides that no threshold can take: NaN compares false, so it would pass a bare "<= 0"
    for flag, value in [("--beta-mm", "nan"), ("--beta-mm", "-5"), ("--alpha-mm", "nan"),
                        ("--gamma-mm", "inf"), ("--beta-mm", "inf")]:
        capsys.readouterr()
        assert main(["run", "--logs", str(out), "--method", "self-corrective",
                     flag, value]) == 1, (flag, value)
        assert "bad parameter override" in capsys.readouterr().err
    assert main(["simulate", "--scenario", "default", "--beta-mm", "nan",
                 "--out", str(tmp_path / "nan")]) == 1
    assert not (tmp_path / "nan").exists()
    assert main(["simulate", "--scenario", "default", "--seeds", "0",
                 "--out", str(tmp_path / "none")]) == 1
    assert not (tmp_path / "none").exists()
    # a gamma whose stop regions overlap (stops 500 mm apart in the best case,
    # 1000 mm in the small scenario) fails before any file is written
    capsys.readouterr()
    assert main(["simulate", "--scenario", "best-case", "--gamma-mm", "900",
                 "--out", str(tmp_path / "overlap")]) == 1
    assert "gamma_mm" in capsys.readouterr().err
    assert not (tmp_path / "overlap").exists()
    assert main(["run", "--logs", str(out), "--method", "raw-uwb",
                 "--method", "self-corrective", "--gamma-mm", "900"]) == 1
    assert "gamma_mm" in capsys.readouterr().err
    assert not (out / "reports.csv").exists() and not (out / "failures.csv").exists()
    lacking = tmp_path / "lacking"
    lacking.mkdir()
    (lacking / "reports.csv").write_text("method,seed,std_stop_mm\nraw-uwb,0,1.0\n")
    capsys.readouterr()
    assert main(["compare", str(lacking)]) == 1  # a missing column
    assert "avg_stop_mm" in capsys.readouterr().err


def test_stop_detection_failure_exits_two_and_batch_continues(tmp_path, capsys):
    scenario = small_scenario_file(tmp_path)
    out = tmp_path / "runs"
    main(["simulate", "--scenario", str(scenario), "--seeds", "1", "--out", str(out)])
    # impossible cluster thresholds: the needed stop cannot be detected
    code = main(["run", "--logs", str(out), "--method", "self-corrective",
                 "--method", "raw-uwb", "--seeds", "1",
                 "--k1", "8000", "--k2", "9000"])
    assert code == 2
    err = capsys.readouterr().err
    assert "FAILED self-corrective" in err
    assert (out / "failures.csv").exists()
    with open(out / "reports.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == ["raw-uwb"]  # batch continued


def test_run_reads_each_log_once(tmp_path, monkeypatch):
    scenario = small_scenario_file(tmp_path)
    out = tmp_path / "runs"
    assert main(["simulate", "--scenario", str(scenario), "--seeds", "2",
                 "--out", str(out)]) == 0
    reads = []

    def counting_read_log(path):
        reads.append(Path(path).name)
        return read_log(path)

    monkeypatch.setattr(cli, "read_log", counting_read_log)
    assert main(["run", "--logs", str(out), "--method", "all", "--seeds", "2",
                 "--k1", "40", "--k2", "120"]) == 0
    assert sorted(reads) == ["streams_0000.csv", "streams_0001.csv"]
    with open(out / "reports.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2 * len(BaselineKind)


def test_malformed_log_fails_its_seed_and_batch_continues(tmp_path, capsys):
    scenario = small_scenario_file(tmp_path)
    out = tmp_path / "runs"
    assert main(["simulate", "--scenario", str(scenario), "--seeds", "2",
                 "--out", str(out)]) == 0
    log = out / "streams_0000.csv"
    data = log.read_bytes()
    log.write_bytes(data[: data.index(b",", len(data) // 2) + 1])  # cut mid-row
    code = main(["run", "--logs", str(out), "--method", "raw-uwb",
                 "--method", "raw-vo", "--seeds", "2"])
    assert code == 2
    assert "FAILED raw-uwb seed 0" in capsys.readouterr().err
    with open(out / "failures.csv", newline="") as fh:
        failures = list(csv.DictReader(fh))
    assert [(r["method"], r["seed"]) for r in failures] == [("raw-uwb", "0"), ("raw-vo", "0")]
    assert all("streams_0000.csv" in r["error"] for r in failures)
    with open(out / "reports.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["method"], r["seed"]) for r in rows] == [("raw-uwb", "1"), ("raw-vo", "1")]


def test_unreadable_log_fails_its_seed_and_batch_continues(tmp_path, capsys):
    # a directory in the log's place: reading it raises IsADirectoryError
    # (a chmod would not stop a root reader)
    scenario = small_scenario_file(tmp_path)
    out = tmp_path / "runs"
    assert main(["simulate", "--scenario", str(scenario), "--seeds", "2",
                 "--out", str(out)]) == 0
    assert main(["run", "--logs", str(out), "--method", "raw-uwb", "--seeds", "2"]) == 0
    log = out / "streams_0001.csv"
    log.unlink()
    log.mkdir()
    code = main(["run", "--logs", str(out), "--method", "raw-uwb",
                 "--method", "raw-vo", "--seeds", "2"])
    assert code == 2
    assert "FAILED raw-uwb seed 1" in capsys.readouterr().err
    failures = _rows(out / "failures.csv")
    assert [(r["method"], r["seed"]) for r in failures] == [("raw-uwb", "1"), ("raw-vo", "1")]
    assert all("Is a directory" in r["error"] for r in failures)
    rows = _rows(out / "reports.csv")  # this run's, not the previous one's
    assert [(r["method"], r["seed"]) for r in rows] == [("raw-uwb", "0"), ("raw-vo", "0")]


def test_filter_error_fails_only_its_cell(tmp_path, monkeypatch, capsys):
    scenario = small_scenario_file(tmp_path)
    out = tmp_path / "runs"
    assert main(["simulate", "--scenario", str(scenario), "--seeds", "2",
                 "--out", str(out)]) == 0

    def diverging_run_method(kind, pair, plan, params, filtered):
        if kind is BaselineKind.POZYX_CTRA:
            raise FilterError("degenerate innovation covariance")
        return run_method(kind, pair, plan, params, filtered)

    monkeypatch.setattr(cli, "run_method", diverging_run_method)
    code = main(["run", "--logs", str(out), "--method", "pozyx-ctra",
                 "--method", "raw-uwb", "--seeds", "2"])
    assert code == 2
    with open(out / "failures.csv", newline="") as fh:
        failures = list(csv.DictReader(fh))
    assert [(r["method"], r["seed"], r["error"]) for r in failures] == [
        ("pozyx-ctra", "0", "degenerate innovation covariance"),
        ("pozyx-ctra", "1", "degenerate innovation covariance"),
    ]
    with open(out / "reports.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["method"], r["seed"]) for r in rows] == [("raw-uwb", "0"), ("raw-uwb", "1")]


def test_coverage_gap_fails_its_cell_and_batch_continues(tmp_path, capsys):
    scenario = small_scenario_file(tmp_path)
    out = tmp_path / "runs"
    assert main(["simulate", "--scenario", str(scenario), "--seeds", "2",
                 "--out", str(out)]) == 0
    # a valid log whose VO stream ends after its first 100 rows
    log = out / "streams_0000.csv"
    lines = log.read_text().splitlines(keepends=True)
    n_uwb = sum(1 for line in lines if ",uwb," in line)
    log.write_text("".join(lines[: 1 + n_uwb + 100]))
    assert len(read_log(log).vo) == 100
    code = main(["run", "--logs", str(out), "--method", "raw-uwb",
                 "--method", "raw-vo", "--seeds", "2"])
    assert code == 2
    assert "FAILED raw-vo seed 0" in capsys.readouterr().err
    with open(out / "failures.csv", newline="") as fh:
        failures = list(csv.DictReader(fh))
    assert [(r["method"], r["seed"]) for r in failures] == [("raw-vo", "0")]
    assert "does not cover stop" in failures[0]["error"]
    with open(out / "reports.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["method"], r["seed"]) for r in rows] == [
        ("raw-uwb", "0"), ("raw-uwb", "1"), ("raw-vo", "1"),
    ]


def test_uwb_reaching_no_stop_visit_fails_its_cell(tmp_path, capsys):
    scenario = small_scenario_file(tmp_path)
    out = tmp_path / "runs"
    assert main(["simulate", "--scenario", str(scenario), "--seeds", "2",
                 "--out", str(out)]) == 0
    # a valid log whose UWB stream ends after its first 3 rows, in the
    # initial dwell
    log = out / "streams_0000.csv"
    lines = log.read_text().splitlines(keepends=True)
    n_uwb = sum(1 for line in lines if ",uwb," in line)
    log.write_text("".join(lines[:4] + lines[1 + n_uwb :]))
    assert read_log(log).uwb.t_ms.tolist() == [0, 37, 74]
    code = main(["run", "--logs", str(out), "--method", "self-corrective",
                 "--method", "raw-vo", "--seeds", "2"])
    assert code == 2
    assert "FAILED self-corrective seed 0" in capsys.readouterr().err
    with open(out / "failures.csv", newline="") as fh:
        failures = list(csv.DictReader(fh))
    assert [(r["method"], r["seed"], r["error"]) for r in failures] == [
        ("self-corrective", "0", "the filtered UWB reaches no stop visit"),
    ]
    with open(out / "reports.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["method"], r["seed"]) for r in rows] == [
        ("raw-vo", "0"), ("raw-vo", "1"), ("self-corrective", "1"),
    ]


def test_non_utf8_log_fails_its_seed_and_batch_continues(tmp_path, capsys):
    scenario = small_scenario_file(tmp_path)
    out = tmp_path / "runs"
    assert main(["simulate", "--scenario", str(scenario), "--seeds", "2",
                 "--out", str(out)]) == 0
    log = out / "streams_0000.csv"
    data = bytearray(log.read_bytes())
    data[200] = 0xFF
    log.write_bytes(bytes(data))
    code = main(["run", "--logs", str(out), "--method", "raw-uwb", "--seeds", "2"])
    assert code == 2
    assert "FAILED raw-uwb seed 0" in capsys.readouterr().err
    with open(out / "failures.csv", newline="") as fh:
        failures = list(csv.DictReader(fh))
    assert [(r["method"], r["seed"]) for r in failures] == [("raw-uwb", "0")]
    line = data[:200].count(b"\n") + 1
    assert f"streams_0000.csv: line {line}: not UTF-8" in failures[0]["error"]
    with open(out / "reports.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["method"], r["seed"]) for r in rows] == [("raw-uwb", "1")]


def test_filter_divergence_fails_its_cell(tmp_path, monkeypatch):
    scenario = small_scenario_file(tmp_path)
    out = tmp_path / "runs"
    assert main(["simulate", "--scenario", str(scenario), "--seeds", "1",
                 "--out", str(out)]) == 0

    def diverging_filter(streams, params, **kwargs):
        # CtraParams rejects a non-finite diagonal, so set it past the check
        params = replace(params)
        object.__setattr__(params, "q_diag", (math.inf,) * 6)
        return run_filter(streams, params, **kwargs)

    monkeypatch.setattr(baselines, "run_filter", diverging_filter)
    with pytest.warns(RuntimeWarning):
        code = main(["run", "--logs", str(out), "--method", "pozyx-ctra",
                     "--method", "raw-uwb", "--seeds", "1"])
    assert code == 2
    with open(out / "failures.csv", newline="") as fh:
        failures = list(csv.DictReader(fh))
    assert [(r["method"], r["seed"]) for r in failures] == [("pozyx-ctra", "0")]
    assert failures[0]["error"].startswith("filter diverged at sample 2 ")
    with open(out / "reports.csv", newline="") as fh:
        assert [r["method"] for r in csv.DictReader(fh)] == ["raw-uwb"]


def test_divergence_in_a_batch_fails_only_its_seed(tmp_path, monkeypatch):
    scenario = small_scenario_file(tmp_path)
    clean, out = tmp_path / "clean", tmp_path / "runs"
    argv = ["--method", "pozyx-ctra", "--method", "direct-fusion",
            "--method", "raw-vo", "--seeds", "3"]
    for logs in (clean, out):
        assert main(["simulate", "--scenario", str(scenario), "--seeds", "3",
                     "--out", str(logs)]) == 0
    assert main(["run", "--logs", str(clean), *argv]) == 0
    # the middle seed's merged stream overflows in the differencing sums
    merged = baselines.merge_streams(read_log(out / "streams_0001.csv"))
    xy = merged.xy.copy()
    xy[300, 0] = 1e200
    poisoned = Stream(merged.t_ms, xy, merged.source)
    calls = []

    def poisoning_filter(streams, params, **kwargs):
        calls.append(len(streams))
        streams = [poisoned if s == merged else s for s in streams]
        return run_filter(streams, params, **kwargs)

    monkeypatch.setattr(baselines, "run_filter", poisoning_filter)
    plan_scenario, params = load_config(out / "scenario.ini")
    restarts = [w.t0_ms for w in stop_visits(plan_scenario.plan)]
    with pytest.warns(RuntimeWarning):
        assert main(["run", "--logs", str(out), *argv]) == 2
        [lone] = run_filter([poisoned], params.ekf, restart_times_ms=restarts)
    assert calls == [6]  # the 3 seeds' inputs, in one call
    with open(out / "failures.csv", newline="") as fh:
        failures = list(csv.DictReader(fh))
    assert [(r["method"], r["seed"], r["error"]) for r in failures] == [
        ("direct-fusion", "1", str(lone))
    ]
    assert str(lone).startswith("filter diverged at sample 301 ")
    # every other cell is as in the run without the fault
    got, want = dir_bytes(out / "tracks"), dir_bytes(clean / "tracks")
    assert got == {k: v for k, v in want.items() if "direct-fusion_0001" not in k}
    with open(clean / "reports.csv", newline="") as fh:
        want_rows = [r for r in csv.DictReader(fh)
                     if (r["method"], r["seed"]) != ("direct-fusion", "1")]
    with open(out / "reports.csv", newline="") as fh:
        assert list(csv.DictReader(fh)) == want_rows


def test_clean_rerun_removes_stale_failures(tmp_path):
    scenario = small_scenario_file(tmp_path)
    out = tmp_path / "runs"
    main(["simulate", "--scenario", str(scenario), "--seeds", "1", "--out", str(out)])
    assert main(["run", "--logs", str(out), "--method", "self-corrective",
                 "--k1", "8000", "--k2", "9000"]) == 2
    assert (out / "failures.csv").exists()
    assert main(["run", "--logs", str(out), "--method", "raw-uwb"]) == 0
    assert not (out / "failures.csv").exists()


def test_failed_cell_leaves_no_earlier_track_files(tmp_path):
    out = tmp_path / "runs"
    assert main(["simulate", "--scenario", "worst-case", "--seeds", "1",
                 "--out", str(out)]) == 0
    assert main(["run", "--logs", str(out), "--method", "self-corrective"]) == 0
    files = [out / "tracks" / f"{prefix}_self-corrective_0000.csv"
             for prefix in ("track", "errors", "stops")]
    assert all(path.exists() for path in files)
    assert main(["run", "--logs", str(out), "--method", "self-corrective",
                 "--k1", "8000", "--k2", "9000"]) == 2
    assert len(_rows(out / "failures.csv")) == 1
    assert not any(path.exists() for path in files)


def test_calibrate_scores_the_uwb_stream_of_simulate_pair(monkeypatch):
    scored = []

    def recording_stop_accuracy(track, truth):
        scored.append(track)
        return stop_accuracy(track, truth)

    monkeypatch.setattr(cli, "stop_accuracy", recording_stop_accuracy)
    scenario = best_case_scenario()
    cli.raw_stop_accuracy(scenario, 90.0, 3)
    probe = replace(scenario, uwb=replace(scenario.uwb, sigma_mm=90.0))
    assert len(scored) == 3
    for seed, stream in enumerate(scored):
        expected = simulate_pair(probe, seed)[0].uwb
        assert stream.source == expected.source
        assert stream.t_ms.tobytes() == expected.t_ms.tobytes()
        assert stream.xy.tobytes() == expected.xy.tobytes()


@pytest.mark.parametrize("flag", ["--seeds", "--rounds"])
def test_calibrate_without_seeds_or_rounds_is_usage_error(tmp_path, capsys, flag):
    written = tmp_path / "calibrated.ini"
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--scenario", "best-case", flag, "0",
              "--write-config", str(written)])
    assert exc.value.code == 1
    assert f"argument {flag}: must be at least" in capsys.readouterr().err
    assert not written.exists()


@pytest.mark.parametrize("flag, value", [
    ("--target-mm", "-5"), ("--target-mm", "0"), ("--target-mm", "nan"), ("--target-mm", "inf"),
    ("--tol-mm", "-1"), ("--tol-mm", "nan"), ("--tol-mm", "inf"),
])
def test_calibrate_bad_target_or_tolerance_is_usage_error(tmp_path, capsys, flag, value):
    written = tmp_path / "calibrated.ini"
    assert main(["calibrate", "--scenario", "best-case", flag, value,
                 "--write-config", str(written)]) == 1
    captured = capsys.readouterr()
    assert flag in captured.err and "round" not in captured.out
    assert not written.exists()


def test_calibrate_stops_within_a_tolerance_of_zero(monkeypatch, capsys):
    # the tolerance is inclusive, and zero is a valid one: a round that hits
    # the target exactly is the last
    monkeypatch.setattr(cli, "raw_stop_accuracy", lambda scenario, sigma, seeds: 131.9)
    assert main(["calibrate", "--scenario", "best-case", "--target-mm", "131.9",
                 "--tol-mm", "0", "--rounds", "3"]) == 0
    assert capsys.readouterr().out.count("round ") == 1


def test_calibrate_starts_from_the_rayleigh_mean_and_scales_by_the_miss(monkeypatch, capsys):
    # a noisy 2-D sample's mean error is sigma * sqrt(pi / 2): the first
    # round tries target / sqrt(pi / 2), each later one scales sigma by
    # target / measured. The fake reads 1.5x high until sigma is small
    tried = []

    def fake_accuracy(scenario, sigma, seeds):
        tried.append(sigma)
        return 1.5 * sigma if sigma > 70.0 else 100.0

    monkeypatch.setattr(cli, "raw_stop_accuracy", fake_accuracy)
    assert main(["calibrate", "--scenario", "best-case", "--target-mm", "100",
                 "--tol-mm", "0", "--rounds", "3"]) == 0
    first = 100.0 / math.sqrt(math.pi / 2.0)
    second = first * (100.0 / (1.5 * first))
    assert tried == [first, second]
    out = capsys.readouterr().out
    assert f"round 1: sigma_uwb {first:8.2f} mm" in out
    assert f"round 2: sigma_uwb {second:8.2f} mm" in out
    assert f"calibrated sigma_uwb = {round(second, 2)} mm" in out


def test_simulate_makes_missing_parents_of_its_output_directory(tmp_path):
    out = tmp_path / "a" / "b" / "runs"
    assert main(["simulate", "--scenario", str(small_scenario_file(tmp_path)), "--out", str(out)]) == 0
    assert (out / "streams_0000.csv").exists()


@pytest.mark.parametrize("dwell_ms, n, stride", [(12000.0, 2651, 1), (18747.5, 4000, 2)])
def test_errors_file_keeps_every_nth_row_of_the_track(tmp_path, dwell_ms, n, stride):
    # plot data of 2000 to 3999 rows: every (n // 2000)-th track row, and a
    # track under 4000 rows kept whole. At 100 Hz the flight of 2 dwells
    # and a 2.5 s leg gives floor(duration / 10 ms) + 1 VO rows
    out = tmp_path / "runs"
    scenario = small_scenario_file(tmp_path, dwell_ms=dwell_ms)
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert main(["run", "--logs", str(out), "--method", "raw-vo"]) == 0
    track = _rows(out / "tracks" / "track_raw-vo_0000.csv")
    errors = _rows(out / "tracks" / "errors_raw-vo_0000.csv")
    assert len(track) == n
    assert [row["t_ms"] for row in errors] == [row["t_ms"] for row in track[::stride]]


def test_calibrate_accepts_one_seed_one_round_and_any_positive_target(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(
        cli, "raw_stop_accuracy", lambda scenario, sigma, seeds: seen.append(seeds) or 0.5
    )
    assert main(["calibrate", "--target-mm", "0.5", "--seeds", "1", "--rounds", "1"]) == 0
    assert seen == [1]
    assert capsys.readouterr().out.count("round ") == 1


def test_cli_defaults_are_the_documented_ones():
    # the README's defaults: seed 0 only, the default preset, one job, and
    # calibrate's target of 131.9 mm within 3 mm, over 5 seeds and 3 rounds
    parser = cli.build_parser()
    sim = parser.parse_args(["simulate", "--out", "runs"])
    assert (sim.scenario, sim.seeds, sim.seed) == ("default", 1, [])
    run = parser.parse_args(["run", "--logs", "runs"])
    assert (run.method, run.seeds, run.seed, run.jobs) == ([], 1, [], 1)
    cal = parser.parse_args(["calibrate"])
    assert (cal.scenario, cal.target_mm, cal.tol_mm, cal.seeds, cal.rounds) == (
        "default", 131.9, 3.0, 5, 3
    )
    assert cal.write_config is None


@pytest.mark.parametrize("argv", [[], ["run"], ["simulate"], ["compare"]])
def test_a_missing_command_or_required_argument_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "the following arguments are required" in capsys.readouterr().err


def test_calibrate_converges(tmp_path, capsys):
    target = 131.9
    written = tmp_path / "calibrated.ini"
    assert main(["calibrate", "--scenario", "best-case", "--target-mm", str(target),
                 "--seeds", "2", "--write-config", str(written)]) == 0
    out = capsys.readouterr().out
    assert "calibrated sigma_uwb" in out
    assert written.exists()
    from uwbvo.config import load_config

    scenario, _ = load_config(written)
    assert 80.0 <= scenario.uwb.sigma_mm <= 130.0
