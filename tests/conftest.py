import math

import numpy as np
import pytest

from uwbvo.baselines import filter_inputs, run_method
from uwbvo.core import UWB, Stream
from uwbvo.config import default_pipeline_params
from uwbvo.ekf import checked, run_filter
from uwbvo.pipeline import PipelineParams, run_pipeline, stop_visits


@pytest.fixture(scope="session")
def desk_params() -> PipelineParams:
    return default_pipeline_params()


def make_stream(ts_ms, xy, source=UWB):
    return Stream(ts_ms, xy, source)


def rows(stream, keep):
    """The stream of the samples of ``stream`` that ``keep`` selects: a slice,
    an index array or a mask."""
    return Stream(stream.t_ms[keep], stream.xy[keep], stream.source)


def constant_position_stream(sigma, n, rate_hz=27.0, seed=0, center=(1000.0, 500.0)):
    rng = np.random.default_rng(seed)
    ts = np.round(np.arange(n) * 1000.0 / rate_hz).astype(np.int64)
    xy = np.asarray(center) + rng.normal(0.0, sigma, size=(n, 2))
    return make_stream(ts, xy)


def positions(stream):
    return np.array(stream.xy)


def path_length(stream) -> float:
    xy = positions(stream)
    return float(np.sum(np.hypot(*np.diff(xy, axis=0).T)))


def stop_error(stream, truth, stop_index) -> float:
    """The error ``stop_accuracy`` reads for one stop: the distance from the
    sample nearest the midpoint of the stop's last dwell window to the true
    pose there."""
    window = [w for w in truth.stop_windows if w.stop_index == stop_index][-1]
    j = int(np.argmin(np.abs(stream.t_ms - window.midpoint_ms)))
    true = truth.pose_at(window.midpoint_ms)
    return math.hypot(stream.xy[j, 0] - true.x, stream.xy[j, 1] - true.y)


def filter_one(stream, params, restart_times_ms=()):
    """``run_filter`` of one stream; raises its ``FilterError`` if it fails."""
    return checked(run_filter([stream], params, restart_times_ms)[0])


def filtered_uwb(pair, plan, params):
    """``pair.uwb`` filtered as ``run_pipeline`` takes it: with ``params.ekf``,
    restarted at every stop visit, as the pozyx-ctra baseline filters it."""
    return filter_one(pair.uwb, params.ekf, [w.t0_ms for w in stop_visits(plan)])


def replay_pipeline(pair, plan, params):
    """``run_pipeline`` over ``pair``, given its :func:`filtered_uwb`."""
    return run_pipeline(pair, plan, params, filtered_uwb(pair, plan, params))


def run_one_method(kind, pair, plan, params):
    """``run_method`` of one method, with the inputs it reads filtered for it."""
    return run_method(kind, pair, plan, params, filter_inputs([kind], [pair], plan, params)[0])


def record_streams(monkeypatch, module):
    """Patch ``module.Stream`` to record ``(t_ms, xy, stream)`` for each stream
    the module builds: the arrays it was handed and the stream built of them."""
    made = []

    def recording(t_ms, xy, source):
        stream = Stream(t_ms, xy, source)
        made.append((t_ms, xy, stream))
        return stream

    monkeypatch.setattr(module, "Stream", recording)
    return made


def adopted(t_ms, xy, stream):
    """Whether ``stream`` holds the arrays it was handed, not copies of them."""
    return np.shares_memory(stream.t_ms, t_ms) and np.shares_memory(stream.xy, xy)
