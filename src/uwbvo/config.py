"""Scenario and parameter files: a flat key-value format with sections.

One file carries everything needed to reproduce a run but the seeds: the
flight plan, both sensor models, the filter noise configuration, and the
fusion thresholds. Seeds come from the command line (``--seed``/``--seeds``).
``simulate`` writes the resolved file next to the logs it generates so that
``run`` can pick it up without further flags. Unknown keys are ignored, so
older files with the unused ``kind``, ``seed`` and ``[anchors]`` still load.

Unit conventions inside the file: lengths in mm, times in s or ms as named,
angles in radians. The filter diagonals are ordered like the state
``(x, y, v, psi, psi_dot, a)`` with variances in mm^2, (mm/s)^2, rad^2,
(rad/s)^2 and (mm/s^2)^2; ``q_diag`` is a per-second density (each
prediction step adds ``q * dt``).
"""
from __future__ import annotations

import configparser
from pathlib import Path

from .clustering import ClusterParams
from .core import FlightPlan, Position2D
from .ekf import CtraParams
from .pipeline import PipelineParams
from .simulate import (
    RaySpec,
    ScaleFaultSpec,
    ScenarioConfig,
    SCENARIO_PRESETS,
    UwbModel,
    VoModel,
)

SCHEMA_VERSION = 1

# Cluster thresholds used by the benchmark presets. The dataclass defaults
# (k1=100, k2=500) assume dwells of 40+ seconds at 27 Hz; the desk-scale
# scenarios dwell 20 s, so the hysteresis band is scaled down to terminate
# mid-dwell while keeping the same alpha.
DESK_CLUSTER = ClusterParams(alpha_mm=10.0, k1=50, k2=150, gamma_mm=100.0)


def default_pipeline_params() -> PipelineParams:
    return PipelineParams(beta_mm=30.0, cluster=DESK_CLUSTER, ekf=CtraParams())


class ConfigError(ValueError):
    """Malformed or inconsistent input file: a scenario file or a reports table."""


def _fmt_float(x: float) -> str:
    """``x`` at 12 significant digits if that reads back as ``x``, else all of them."""
    text = format(x, ".12g")
    return text if float(text) == x else repr(x)


def _fmt_points(points) -> str:
    return "; ".join(f"{_fmt_float(p.x)},{_fmt_float(p.y)}" for p in points)


def _parse_points(text: str, where: str) -> tuple[Position2D, ...]:
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{where}: bad point {chunk!r}")
        points.append(Position2D(float(parts[0]), float(parts[1])))
    return tuple(points)


def _parse_floats(text: str, n: int, where: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if len(parts) != n:
        raise ConfigError(f"{where}: expected {n} values, got {len(parts)}")
    return tuple(float(p) for p in parts)


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(p.strip()) for p in text.split(",") if p.strip())


def save_config(
    scenario: ScenarioConfig, params: PipelineParams, path: str | Path
) -> None:
    """Write one reproducible scenario + parameter file."""
    cp = configparser.ConfigParser()
    cp["meta"] = {"schema_version": str(SCHEMA_VERSION)}
    cp["scenario"] = {"name": scenario.name}
    plan = scenario.plan
    cp["flight_plan"] = {
        "stops": _fmt_points(plan.stops),
        "dwell_ms": _fmt_float(plan.dwell_ms),
        "cruise_mm_s": _fmt_float(plan.cruise_mm_s),
        "accel_mm_s2": _fmt_float(plan.accel_mm_s2),
        "closed": str(plan.closed).lower(),
    }
    cp["uwb"] = {
        "rate_hz": _fmt_float(scenario.uwb.rate_hz),
        "sigma_mm": _fmt_float(scenario.uwb.sigma_mm),
        "ray_prob_per_stop": _fmt_float(scenario.uwb.ray.prob_per_stop),
        "ray_length_mm": _fmt_float(scenario.uwb.ray.length_mm),
        "ray_count": str(scenario.uwb.ray.count),
    }
    under = scenario.vo.underestimate
    cp["vo"] = {
        "rate_hz": _fmt_float(scenario.vo.rate_hz),
        "sigma_mm": _fmt_float(scenario.vo.sigma_mm),
        "underestimate_prob_per_segment": _fmt_float(under.prob_per_segment),
        "underestimate_scale_min": _fmt_float(under.scale_range[0]),
        "underestimate_scale_max": _fmt_float(under.scale_range[1]),
        "forced_fault_segments": ",".join(str(i) for i in under.forced_segments),
    }
    ekf = params.ekf
    cp["ekf"] = {
        "q_diag": ", ".join(_fmt_float(v) for v in ekf.q_diag),
        "r_diag": ", ".join(_fmt_float(v) for v in ekf.r_diag),
        "p0_diag": ", ".join(_fmt_float(v) for v in ekf.p0_diag),
        "eps_yaw": _fmt_float(ekf.eps_yaw),
        "diff_span_s": _fmt_float(ekf.diff_span_s),
        "min_speed_mm_s": _fmt_float(ekf.min_speed_mm_s),
    }
    cl = params.cluster
    cp["pipeline"] = {
        "beta_mm": _fmt_float(params.beta_mm),
        "gamma_mm": _fmt_float(cl.gamma_mm),
        "alpha_mm": _fmt_float(cl.alpha_mm),
        "k1": str(cl.k1),
        "k2": str(cl.k2),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# positioning scenario; lengths mm, angles rad, q_diag per second\n")
        cp.write(fh)


def load_config(path: str | Path) -> tuple[ScenarioConfig, PipelineParams]:
    """Read a file written by :func:`save_config` (or hand-edited)."""
    cp = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh, source=str(path))
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        # a missing file, bytes that are not UTF-8, no section header, ...
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        version = cp.getint("meta", "schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version {version} unsupported "
                f"(expected {SCHEMA_VERSION})"
            )
        plan = FlightPlan(
            stops=_parse_points(cp.get("flight_plan", "stops"), "flight_plan.stops"),
            dwell_ms=cp.getfloat("flight_plan", "dwell_ms"),
            cruise_mm_s=cp.getfloat("flight_plan", "cruise_mm_s"),
            accel_mm_s2=cp.getfloat("flight_plan", "accel_mm_s2"),
            closed=cp.getboolean("flight_plan", "closed"),
        )
        uwb = UwbModel(
            rate_hz=cp.getfloat("uwb", "rate_hz"),
            sigma_mm=cp.getfloat("uwb", "sigma_mm"),
            ray=RaySpec(
                prob_per_stop=cp.getfloat("uwb", "ray_prob_per_stop"),
                length_mm=cp.getfloat("uwb", "ray_length_mm"),
                count=cp.getint("uwb", "ray_count"),
            ),
        )
        vo = VoModel(
            rate_hz=cp.getfloat("vo", "rate_hz"),
            sigma_mm=cp.getfloat("vo", "sigma_mm"),
            underestimate=ScaleFaultSpec(
                prob_per_segment=cp.getfloat("vo", "underestimate_prob_per_segment"),
                scale_range=(
                    cp.getfloat("vo", "underestimate_scale_min"),
                    cp.getfloat("vo", "underestimate_scale_max"),
                ),
                forced_segments=_parse_ints(
                    cp.get("vo", "forced_fault_segments", fallback="")
                ),
            ),
        )
        scenario = ScenarioConfig(
            name=cp.get("scenario", "name"),
            plan=plan,
            uwb=uwb,
            vo=vo,
        )
        ekf = CtraParams(
            q_diag=_parse_floats(cp.get("ekf", "q_diag"), 6, "ekf.q_diag"),
            r_diag=_parse_floats(cp.get("ekf", "r_diag"), 6, "ekf.r_diag"),
            p0_diag=_parse_floats(cp.get("ekf", "p0_diag"), 6, "ekf.p0_diag"),
            eps_yaw=cp.getfloat("ekf", "eps_yaw"),
            diff_span_s=cp.getfloat("ekf", "diff_span_s"),
            min_speed_mm_s=cp.getfloat("ekf", "min_speed_mm_s"),
        )
        params = PipelineParams(
            beta_mm=cp.getfloat("pipeline", "beta_mm"),
            cluster=ClusterParams(
                alpha_mm=cp.getfloat("pipeline", "alpha_mm"),
                k1=cp.getint("pipeline", "k1"),
                k2=cp.getint("pipeline", "k2"),
                gamma_mm=cp.getfloat("pipeline", "gamma_mm"),
            ),
            ekf=ekf,
        )
    except (configparser.Error, ValueError) as exc:  # a ConfigError too: every one names the file
        raise ConfigError(f"{path}: {exc}") from None
    return scenario, params


def resolve_scenario(name_or_path: str) -> tuple[ScenarioConfig, PipelineParams]:
    """A preset name (default / worst-case / best-case) or a config path."""
    if name_or_path in SCENARIO_PRESETS:
        return SCENARIO_PRESETS[name_or_path](), default_pipeline_params()
    path = Path(name_or_path)
    if not path.exists():
        raise ConfigError(
            f"unknown scenario {name_or_path!r}: not a preset "
            f"({', '.join(sorted(SCENARIO_PRESETS))}) and no such file"
        )
    return load_config(path)

