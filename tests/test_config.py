import configparser
from dataclasses import replace

import pytest

from uwbvo.cli import main
from uwbvo.clustering import ClusterParams
from uwbvo.config import (
    DESK_CLUSTER,
    ConfigError,
    default_pipeline_params,
    load_config,
    resolve_scenario,
    save_config,
)
from uwbvo.ekf import CtraParams
from uwbvo.pipeline import PipelineParams
from uwbvo.simulate import best_case_scenario, default_scenario, worst_case_scenario


def test_round_trip_preserves_everything(tmp_path):
    worst = worst_case_scenario()
    # the second pair: values that 12 significant digits would round
    for beta_mm, dwell_ms in ((42.5, worst.plan.dwell_ms), (30.000000000000004, 20000.000000000004)):
        scenario = replace(worst, plan=replace(worst.plan, dwell_ms=dwell_ms))
        params = PipelineParams(
            beta_mm=beta_mm,
            cluster=ClusterParams(alpha_mm=12.5, k1=33, k2=77, gamma_mm=90.0),
            ekf=CtraParams(diff_span_s=2.5, min_speed_mm_s=123.0),
        )
        path = tmp_path / "scenario.ini"
        save_config(scenario, params, path)
        loaded_scenario, loaded_params = load_config(path)
        assert loaded_scenario == scenario
        assert loaded_params == params


def test_file_holds_no_seed_kind_or_anchors(tmp_path):
    path = tmp_path / "scenario.ini"
    save_config(worst_case_scenario(), default_pipeline_params(), path)
    cp = configparser.ConfigParser()
    cp.read(path)
    assert dict(cp["meta"]) == {"schema_version": "1"}
    assert dict(cp["scenario"]) == {"name": "worst-case"}
    assert "anchors" not in cp


def test_file_with_the_dropped_keys_still_loads(tmp_path):
    # files written before the seed, kind and anchors were dropped carry them
    scenario, params = worst_case_scenario(), default_pipeline_params()
    path = tmp_path / "scenario.ini"
    save_config(scenario, params, path)
    text = path.read_text()
    for before, after in (
        ("schema_version = 1\n", "schema_version = 1\nkind = scenario\n"),
        ("name = worst-case\n", "name = worst-case\nseed = 0\n"),
        ("\n[ekf]\n", "\n[anchors]\npoints = 3000,0; 3000,3000; 0,3000; 0,0\n\n[ekf]\n"),
    ):
        assert text.count(before) == 1
        text = text.replace(before, after)
    path.write_text(text)
    assert load_config(path) == (scenario, params)


def test_resolve_presets():
    for name in ("default", "worst-case", "best-case"):
        scenario, params = resolve_scenario(name)
        assert scenario.name == name
        assert params == default_pipeline_params()
    assert default_pipeline_params().cluster == DESK_CLUSTER


def test_resolve_unknown_name():
    with pytest.raises(ConfigError, match="not a preset"):
        resolve_scenario("no-such-scenario")


def test_resolve_path(tmp_path):
    path = tmp_path / "conf.ini"
    save_config(best_case_scenario(), default_pipeline_params(), path)
    scenario, _ = resolve_scenario(str(path))
    assert scenario.name == "best-case"


def test_schema_version_rejected(tmp_path):
    path = tmp_path / "scenario.ini"
    save_config(default_scenario(), default_pipeline_params(), path)
    text = path.read_text().replace("schema_version = 1", "schema_version = 99")
    path.write_text(text)
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(path)


def test_missing_file_and_malformed_values(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.ini")
    path = tmp_path / "scenario.ini"
    save_config(default_scenario(), default_pipeline_params(), path)
    text = path.read_text().replace("dwell_ms = 20000", "dwell_ms = soon")
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_config(path)


def test_wrong_diag_length_rejected(tmp_path):
    path = tmp_path / "scenario.ini"
    save_config(default_scenario(), default_pipeline_params(), path)
    text = path.read_text()
    q_line = next(l for l in text.splitlines() if l.startswith("q_diag"))
    path.write_text(text.replace(q_line, "q_diag = 1, 2, 3"))
    with pytest.raises(ConfigError, match="expected 6"):
        load_config(path)


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_diag_rejected(tmp_path, value):
    path = tmp_path / "scenario.ini"
    save_config(default_scenario(), default_pipeline_params(), path)
    text = path.read_text()
    q_line = next(l for l in text.splitlines() if l.startswith("q_diag"))
    path.write_text(text.replace(q_line, "q_diag = " + ", ".join([value] * 6)))
    with pytest.raises(ConfigError, match="finite"):
        load_config(path)


def edited_config(tmp_path, section, key, value, scenario=None):
    """A file of ``scenario`` (the default one) with one value replaced."""
    path = tmp_path / "scenario.ini"
    save_config(scenario or default_scenario(), default_pipeline_params(), path)
    cp = configparser.ConfigParser()
    cp.read(path, encoding="utf-8")
    cp[section][key] = value
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return path


def assert_refused(path, capsys, match=None):
    """``load_config`` raises a ConfigError naming ``path``; through the CLI
    it is a usage error (exit 1) naming the file, with no traceback and no
    output written."""
    with pytest.raises(ConfigError, match=match) as exc:
        load_config(path)
    assert str(path) in str(exc.value)
    out = path.parent / "runs"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 1
    assert str(path) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("uwb", "rate_hz", "inf"),
        ("uwb", "sigma_mm", "nan"),
        ("uwb", "ray_length_mm", "inf"),
        ("vo", "rate_hz", "nan"),
        ("vo", "sigma_mm", "nan"),
        ("flight_plan", "dwell_ms", "inf"),
        ("flight_plan", "cruise_mm_s", "nan"),
        ("flight_plan", "accel_mm_s2", "inf"),
    ],
)
def test_non_finite_scenario_value_rejected(tmp_path, capsys, section, key, value):
    assert_refused(edited_config(tmp_path, section, key, value), capsys, "finite")


@pytest.mark.parametrize("section", ["uwb", "vo"])
def test_a_rate_above_1_khz_is_a_config_error(tmp_path, capsys, section):
    # 1500 Hz would repeat whole-millisecond timestamps
    path = edited_config(tmp_path, section, "rate_hz", "1500")
    assert_refused(path, capsys, r"at most 1000 Hz \(timestamps have 1 ms resolution\)")


@pytest.mark.parametrize(
    "key, value",
    [
        ("diff_span_s", "nan"),
        ("diff_span_s", "-3"),
        ("eps_yaw", "nan"),
        ("min_speed_mm_s", "nan"),
    ],
)
def test_derivation_knob_out_of_range_is_a_config_error_naming_the_file(
    tmp_path, capsys, key, value
):
    assert_refused(edited_config(tmp_path, "ekf", key, value), capsys, f"{key} must be finite")


def test_stop_list_skips_empty_entries_and_refuses_a_three_value_point(tmp_path, capsys):
    scenario = default_scenario()
    text = "; ;".join(f"{p.x!r},{p.y!r}" for p in scenario.plan.stops) + ";"
    loaded, _ = load_config(edited_config(tmp_path, "flight_plan", "stops", text))
    assert loaded.plan.stops == scenario.plan.stops
    path = edited_config(tmp_path, "flight_plan", "stops", "0,0; 1,2,3")
    assert_refused(path, capsys, r"flight_plan\.stops: bad point '1,2,3'")


@pytest.mark.parametrize("segments, legal", [("-1", False), ("16", False), ("15", True)])
def test_forced_fault_segment_outside_the_plan_is_refused(tmp_path, capsys, segments, legal):
    # the worst-case plan flies 16 legs, indexed 0 to 15
    path = edited_config(
        tmp_path, "vo", "forced_fault_segments", segments, worst_case_scenario()
    )
    if legal:
        scenario, _ = load_config(path)
        assert scenario.vo.underestimate.forced_segments == (15,)
        return
    assert_refused(path, capsys, rf"forced fault segments \[{segments}\]")


def _damage_non_utf8(data: bytes) -> bytes:
    return data[:40] + b"\xff" + data[41:]


def _drop_section_headers(data: bytes) -> bytes:
    return b"".join(l for l in data.splitlines(True) if not l.startswith(b"["))


def _line_without_equals(data: bytes) -> bytes:
    return data.replace(b"[uwb]\n", b"[uwb]\nrate_hz 27\n")


def _duplicate_section(data: bytes) -> bytes:
    return data + b"\n[uwb]\nrate_hz = 27\n"


@pytest.mark.parametrize(
    "damage",
    [_damage_non_utf8, _drop_section_headers, _line_without_equals, _duplicate_section],
)
def test_malformed_file_is_a_config_error_naming_it(tmp_path, capsys, damage):
    path = tmp_path / "bad.ini"
    save_config(default_scenario(), default_pipeline_params(), path)
    path.write_bytes(damage(path.read_bytes()))
    assert_refused(path, capsys)


@pytest.mark.parametrize(
    "key, value, match",
    [
        # at 0.1 um/s the worst-case plan flies for ~3 years: its 27 Hz UWB
        # stream alone would hold 2.6e9 samples (19 GiB of timestamps)
        ("cruise_mm_s", "1e-4", "gives 2607359828 UWB samples, more than the 10000000 "),
        # after a 1e308 ms dwell the first leg adds nothing to the timeline
        ("dwell_ms", "1e308", "the leg from stop 1 takes no time"),
    ],
)
def test_a_flight_too_long_to_simulate_is_a_config_error(tmp_path, capsys, key, value, match):
    path = edited_config(tmp_path, "flight_plan", key, value, worst_case_scenario())
    assert_refused(path, capsys, match)


@pytest.mark.parametrize("name", ["default", "worst-case", "best-case", "long-dwell"])
def test_presets_and_the_long_dwell_file_load(tmp_path, name):
    # long-dwell: the benchmark's worst-case plan with 60 s dwells (209,463
    # VO samples) and the paper's k1/k2
    if name == "long-dwell":
        base = worst_case_scenario()
        scenario = replace(base, name=name, plan=replace(base.plan, dwell_ms=60000.0))
        params = replace(default_pipeline_params(), cluster=ClusterParams())
    else:
        scenario, params = resolve_scenario(name)
    path = tmp_path / "scenario.ini"
    save_config(scenario, params, path)
    assert load_config(path) == (scenario, params)
