"""The names the benchmark in ``perfbench/`` wraps and reads still exist.

perfbench wraps ``uwbvo`` functions by name, reads fields of the live
run's results, and swaps some of them to prove its checks catch
corruption. None of that runs in the test suite otherwise, so a change to
``src/`` that drops one of those names would fail only in the benchmark.
These tests import perfbench's own modules and run them; they edit none of
its files.
"""
import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_MODULES = ("tracing", "workloads", "checks")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``tracing`` and ``workloads`` modules, imported from its directory."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in _MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("tracing"), importlib.import_module("workloads")
    for name in _MODULES:
        sys.modules.pop(name, None)


def test_tracer_installs_and_restores_the_originals(perfbench):
    tracing, _ = perfbench
    tracer = tracing.Tracer()
    try:
        tracer.install()  # a wrapped name that is gone raises here
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert inspect.getattr_static(owner, attr) is not original, (owner, attr)
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert inspect.getattr_static(owner, attr) is original, (owner, attr)


def test_live_reboot_workload_runs_and_its_results_can_be_swapped(perfbench, tmp_path):
    _, workloads = perfbench
    wl = workloads.LiveReboot(tmp_path, [0])
    wl.setup_unit(0)
    wl.before_round()
    assert wl.round() == (1, 0)  # one seed attempted, none failed
    wl.after_round()
    wl.check()
    # the fault demo assigns these to show the checks catch a corrupted run
    check_failed = sys.modules["checks"].CheckFailed
    track, _, sensor = wl.results[0]
    w_history = track.w_history
    t, wx, wy = w_history[2]
    track.w_history = w_history[:2] + [(t, wx + 0.5, wy)] + w_history[3:]
    with pytest.raises(check_failed):
        wl.check()
    track.w_history = w_history
    reboots = sensor.reboots
    sensor.reboots = reboots[:-1]
    with pytest.raises(check_failed):
        wl.check()
    sensor.reboots = reboots
    wl.check()
