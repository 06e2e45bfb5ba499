import configparser

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
    scenario = worst_case_scenario()
    params = PipelineParams(
        beta_mm=42.5,
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
    path = tmp_path / "scenario.ini"
    save_config(default_scenario(), default_pipeline_params(), path)
    cp = configparser.ConfigParser()
    cp.read(path, encoding="utf-8")
    cp[section][key] = value
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    with pytest.raises(ConfigError, match="finite") as exc:
        load_config(path)
    assert str(path) in str(exc.value)
    out = tmp_path / "runs"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 1
    assert str(path) in capsys.readouterr().err
    assert not out.exists()


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
    path = tmp_path / "scenario.ini"
    save_config(default_scenario(), default_pipeline_params(), path)
    cp = configparser.ConfigParser()
    cp.read(path, encoding="utf-8")
    cp["ekf"][key] = value
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    with pytest.raises(ConfigError, match=f"{key} must be finite") as exc:
        load_config(path)
    assert str(path) in str(exc.value)
    out = tmp_path / "runs"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 1
    assert str(path) in capsys.readouterr().err
    assert not out.exists()


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
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(path) in str(exc.value)
    # through the CLI: a usage error (exit 1) naming the file, no traceback
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    assert str(path) in capsys.readouterr().err
