"""Per-layer spans, recorded around calls into uwbvo's public functions.

A traced run replaces module attributes of the installed package with
timing wrappers for the duration of the run and puts the originals back
afterwards; no file of the package changes. Spans nest: a span that ends
adds its duration to the span that was open when it started, so each
layer's self time is its total minus the wrapped calls it made.

Spans are aggregated in memory per (phase, name): call count, total
seconds and seconds per direct child. The phase is ``setup`` while the
workload generates its inputs and ``eval`` while it runs its measured
rounds; anything else (say, rebuilding inputs between rounds) is kept
apart and never reported.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

METHODS = (
    "raw-uwb",
    "raw-vo",
    "pozyx-ctra",
    "avg-fusion",
    "direct-fusion",
    "self-corrective",
)

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "simulate.simulate_pair_s": "s",
    "simulate.vo_sensor_s": "s",
    "core.write_log_s": "s",
    "core.read_log_s": "s",
    "core.read_log_calls": "count",
    "core.reads_per_log": "reads/log",
    "config.load_config_calls": "count",
    "ekf.run_filter_s": "s",
    "ekf.run_filter_samples": "count",
    "ekf.run_filter_us_per_sample": "us",
    **{f"baselines.{m}_s": "s" for m in METHODS},
    "clustering.push_calls": "count",
    "clustering.push_s": "s",
    "clustering.push_us": "us",
    "pipeline.run_s": "s",
    "pipeline.fusion_loop_s": "s",
    "pipeline.restarts": "count",
    "metrics.report_build_s": "s",
    "cli.run_self_s": "s",
    "cli.simulate_self_s": "s",
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    children_s: dict[str, float] = field(default_factory=dict)

    def child(self, name: str) -> float:
        return self.children_s.get(name, 0.0)

    def self_s(self) -> float:
        return self.total_s - sum(self.children_s.values())


class Tracer:
    """Installs wrappers and aggregates the spans they record."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.spans: dict[tuple[str, str], SpanStats] = {}
        self.counts: dict[tuple[str, str], float] = {}
        self.logs_read: dict[str, set[str]] = {}
        self._stack: list[dict[str, float]] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def stats(self, name: str, phase: str) -> SpanStats:
        return self.spans.get((phase, name), SpanStats())

    def count(self, name: str, n: float) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        after: Callable[["Tracer", tuple, Any], None] | None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(*args, **kwargs)
            children: dict[str, float] = {}
            tracer._stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                stats = tracer.spans.setdefault((tracer.phase, span), SpanStats())
                stats.calls += 1
                stats.total_s += dt
                for child, s in children.items():
                    stats.children_s[child] = stats.children_s.get(child, 0.0) + s
                if tracer._stack:
                    parent = tracer._stack[-1]
                    parent[span] = parent.get(span, 0.0) + dt
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, name, after=None) -> None:
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, staticmethod):
            replacement = staticmethod(self._wrap(original.__func__, name, after))
        else:
            replacement = self._wrap(original, name, after)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are read from.

        Functions are wrapped where they are looked up: ``cli`` imported
        its helpers by name, so its own attributes are the ones replaced.
        """
        from uwbvo import baselines, cli, clustering, config, metrics, pipeline, simulate

        def note_log(tracer, args, _result):
            tracer.logs_read.setdefault(tracer.phase, set()).add(str(args[0]))

        def note_samples(tracer, args, _result):
            tracer.count("ekf.run_filter_samples", len(args[0]))

        def note_restarts(tracer, _args, track):
            tracer.count("pipeline.restarts", len(track.restarts))

        self.patch(simulate, "simulate_pair", "simulate.simulate_pair")
        self.patch(cli, "simulate_pair", "simulate.simulate_pair")
        for attr in ("__init__", "__next__", "reboot"):
            self.patch(simulate.VoSensor, attr, "simulate.vo_sensor")
        self.patch(cli, "write_log", "core.write_log")
        self.patch(cli, "read_log", "core.read_log", note_log)
        self.patch(cli, "load_config", "config.load_config")
        self.patch(config, "load_config", "config.load_config")
        self.patch(cli, "run_method", lambda kind, *a, **k: f"baselines.{kind.value}")
        self.patch(baselines, "run_filter", "ekf.run_filter", note_samples)
        self.patch(pipeline, "run_filter", "ekf.run_filter", note_samples)
        self.patch(baselines, "run_pipeline", "pipeline.run", note_restarts)
        self.patch(pipeline, "run_pipeline_live", "pipeline.run", note_restarts)
        self.patch(clustering.StopClusterer, "push", "clustering.push")
        self.patch(metrics.RunReport, "build", "metrics.report_build")
        self.patch(cli, "cmd_run", "cli.cmd_run")
        self.patch(cli, "cmd_simulate", "cli.cmd_simulate")

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, setup_units: int, rounds: int) -> dict[str, float]:
        """Per-layer values: setup spans per log set, eval spans per round."""
        per_unit = 1.0 / setup_units
        per_round = 1.0 / rounds

        def ev(name: str) -> SpanStats:
            return self.stats(name, "eval")

        reads = ev("core.read_log")
        filt = ev("ekf.run_filter")
        push = ev("clustering.push")
        pipe = ev("pipeline.run")
        sim_cmd = self.stats("cli.cmd_simulate", "setup")
        samples = self.counts.get(("eval", "ekf.run_filter_samples"), 0)
        restarts = self.counts.get(("eval", "pipeline.restarts"), 0)
        distinct_logs = len(self.logs_read.get("eval", ()))
        out = {
            "simulate.simulate_pair_s": self.stats("simulate.simulate_pair", "setup").total_s
            * per_unit,
            "simulate.vo_sensor_s": ev("simulate.vo_sensor").total_s * per_round,
            "core.write_log_s": self.stats("core.write_log", "setup").total_s * per_unit,
            "core.read_log_s": reads.total_s * per_round,
            "core.read_log_calls": reads.calls * per_round,
            "core.reads_per_log": reads.calls / distinct_logs if distinct_logs else 0.0,
            "config.load_config_calls": ev("config.load_config").calls * per_round,
            "ekf.run_filter_s": filt.total_s * per_round,
            "ekf.run_filter_samples": samples * per_round,
            "ekf.run_filter_us_per_sample": 1e6 * filt.total_s / samples if samples else 0.0,
            **{
                f"baselines.{m}_s": ev(f"baselines.{m}").total_s * per_round
                for m in METHODS
            },
            "clustering.push_calls": push.calls * per_round,
            "clustering.push_s": push.total_s * per_round,
            "clustering.push_us": 1e6 * push.total_s / push.calls if push.calls else 0.0,
            "pipeline.run_s": pipe.total_s * per_round,
            "pipeline.fusion_loop_s": (
                pipe.total_s - pipe.child("ekf.run_filter") - pipe.child("clustering.push")
            )
            * per_round,
            "pipeline.restarts": restarts * per_round,
            "metrics.report_build_s": ev("metrics.report_build").total_s * per_round,
            "cli.run_self_s": ev("cli.cmd_run").self_s() * per_round,
            "cli.simulate_self_s": (
                sim_cmd.total_s
                - sim_cmd.child("simulate.simulate_pair")
                - sim_cmd.child("core.write_log")
            )
            * per_unit,
        }
        if out.keys() != PER_LAYER_UNITS.keys():
            raise RuntimeError("per-layer metrics out of step with PER_LAYER_UNITS")
        return out

    def dump(self, path: Path) -> None:
        """Write the aggregated spans as JSON."""
        rows = [
            {
                "phase": phase,
                "name": name,
                "calls": s.calls,
                "total_s": s.total_s,
                "self_s": s.self_s(),
                "children_s": s.children_s,
            }
            for (phase, name), s in sorted(self.spans.items())
        ]
        counts = [
            {"phase": phase, "name": name, "value": v}
            for (phase, name), v in sorted(self.counts.items())
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows, "counts": counts}, indent=1) + "\n")
