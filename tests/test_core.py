import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbvo.core import (
    UWB,
    VO,
    AlignedSample,
    FlightPlan,
    LogFormatError,
    Position2D,
    Sample,
    StreamPair,
    align_streams,
    euclidean,
    read_log,
    write_log,
)

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def test_euclidean_examples():
    assert euclidean(Position2D(0, 0), Position2D(0, 0)) == 0.0
    assert euclidean(Position2D(0, 0), Position2D(3, 4)) == 5.0
    assert euclidean(Position2D(1000, 0), Position2D(3000, 1500)) == 2500.0


@given(coords, coords, coords, coords, coords, coords)
def test_euclidean_is_a_metric(ax, ay, bx, by, cx, cy):
    a, b, c = Position2D(ax, ay), Position2D(bx, by), Position2D(cx, cy)
    assert euclidean(a, b) >= 0.0
    assert euclidean(a, b) == euclidean(b, a)
    assert (euclidean(a, b) == 0.0) == (ax == bx and ay == by)
    assert euclidean(a, c) <= euclidean(a, b) + euclidean(b, c) + 1e-6


def test_position_rejects_non_finite():
    with pytest.raises(ValueError):
        Position2D(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Position2D(0.0, float("inf"))


def test_stream_pair_validation():
    u = [Sample(0, Position2D(0, 0), UWB), Sample(37, Position2D(1, 0), UWB)]
    v = [Sample(0, Position2D(0, 0), VO)]
    StreamPair.build(u, v)
    with pytest.raises(ValueError, match="empty stream"):
        StreamPair.build([], v)
    with pytest.raises(ValueError, match="non-monotone"):
        StreamPair.build([u[1], u[0]], v)
    with pytest.raises(ValueError, match="tagged"):
        StreamPair.build(u, [Sample(0, Position2D(0, 0), UWB)])


def _pair(uwb_ts, vo_ts):
    u = [Sample(int(t), Position2D(float(t), 0.0), UWB) for t in uwb_ts]
    v = [Sample(int(t), Position2D(float(t), 1.0), VO) for t in vo_ts]
    return StreamPair.build(u, v)


def test_align_streams_nearest_timestamp():
    pair = _pair([0, 37, 74], range(0, 76, 5))
    aligned = align_streams(pair)
    assert [a.t_ms for a in aligned] == [0, 37, 74]
    assert [a.vo.x for a in aligned] == [0.0, 35.0, 75.0]


def test_align_streams_single_sample():
    pair = _pair([10], [10])
    assert align_streams(pair) == [
        AlignedSample(10, Position2D(10.0, 0.0), Position2D(10.0, 1.0))
    ]


def test_align_tie_goes_to_earlier():
    pair = _pair([10], [5, 15])
    assert align_streams(pair)[0].vo.x == 5.0


@settings(max_examples=60)
@given(
    st.lists(st.integers(0, 10_000), min_size=1, max_size=40, unique=True),
    st.lists(st.integers(0, 10_000), min_size=1, max_size=40, unique=True),
)
def test_align_streams_minimizes_time_gap(uwb_ts, vo_ts):
    uwb_ts, vo_ts = sorted(uwb_ts), sorted(vo_ts)
    pair = _pair(uwb_ts, vo_ts)
    aligned = align_streams(pair)
    assert len(aligned) == len(uwb_ts)
    assert [a.t_ms for a in aligned] == uwb_ts  # order preserved
    for a in aligned:
        chosen_gap = abs(a.vo.x - a.t_ms)
        best = min(abs(t - a.t_ms) for t in vo_ts)  # exhaustive oracle
        assert chosen_gap == best


def test_align_rejects_empty_via_pair_invariant():
    with pytest.raises(ValueError, match="empty stream"):
        _pair([], [0])


def quantized_pair(rng, n_uwb, n_vo):
    def stream(n, source):
        ts = np.cumsum(rng.integers(1, 50, size=n))
        xy = np.round(rng.uniform(-5000, 5000, size=(n, 2)), 1)
        return [
            Sample(int(t), Position2D(float(p[0]), float(p[1])), source)
            for t, p in zip(ts, xy)
        ]

    return StreamPair.build(stream(n_uwb, UWB), stream(n_vo, VO))


def test_log_round_trip(tmp_path):
    pair = quantized_pair(np.random.default_rng(1), 3, 3)
    path = tmp_path / "log.csv"
    write_log(pair, path)
    assert read_log(path) == pair


def test_log_round_trip_fuzz_10k(tmp_path):
    pair = quantized_pair(np.random.default_rng(2), 5000, 5000)
    path = tmp_path / "log.csv"
    write_log(pair, path)
    assert read_log(path) == pair


def test_log_missing_column_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_ms,sensor,x_mm,y_mm\n0,uwb,1.0,2.0\n5,uwb,3.0\n0,vo,0.0,0.0\n")
    with pytest.raises(LogFormatError, match="line 3"):
        read_log(path)


def test_log_non_monotone_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "t_ms,sensor,x_mm,y_mm\n10,uwb,1.0,2.0\n10,uwb,3.0,4.0\n0,vo,0.0,0.0\n"
    )
    with pytest.raises(LogFormatError, match="non-monotone"):
        read_log(path)


def test_log_bad_header_and_sensor(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,sensor,x,y\n")
    with pytest.raises(LogFormatError, match="line 1"):
        read_log(path)
    path.write_text("t_ms,sensor,x_mm,y_mm\n0,gps,1.0,2.0\n")
    with pytest.raises(LogFormatError, match="unknown sensor"):
        read_log(path)


def test_log_non_utf8_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"t_ms,sensor,x_mm,y_mm\n0,uwb,1.0,2.0\n5,uwb,3\xff.0,4.0\n0,vo,0.0,0.0\n")
    with pytest.raises(LogFormatError, match="line 3: not UTF-8"):
        read_log(path)


def test_log_unterminated_quote_is_a_format_error(tmp_path):
    # the quoted field runs to the end of the file, past csv's field size limit
    pair = quantized_pair(np.random.default_rng(4), 4000, 4000)
    path = tmp_path / "log.csv"
    write_log(pair, path)
    data = path.read_bytes()
    at = data.index(b"uwb")
    path.write_bytes(data[:at] + b'"' + data[at + 1 :])
    with pytest.raises(LogFormatError, match="field limit"):
        read_log(path)


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("log") / "log.csv"
    write_log(quantized_pair(np.random.default_rng(3), 4, 6), path)
    return path, path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_log_is_read_or_rejected(small_log, data):
    # truncated at an arbitrary byte, or one byte overwritten with any value:
    # either a valid pair comes back or the damage is a LogFormatError
    path, log = small_log
    at = data.draw(st.integers(0, len(log) - 1), label="at")
    if data.draw(st.booleans(), label="truncate"):
        damaged = log[:at]
    else:
        value = data.draw(st.integers(0, 255), label="value")
        damaged = log[:at] + bytes([value]) + log[at + 1 :]
    bad = path.with_name("damaged.csv")
    bad.write_bytes(damaged)
    try:
        pair = read_log(bad)
    except LogFormatError:
        return
    assert isinstance(pair, StreamPair)


def test_flight_plan_validation():
    a, b = Position2D(0, 0), Position2D(500, 0)
    with pytest.raises(ValueError, match="at least 2"):
        FlightPlan(stops=(a,))
    with pytest.raises(ValueError, match="distinct"):
        FlightPlan(stops=(a, b, b), closed=False)
    # closed plan: the closing leg must be flyable too
    with pytest.raises(ValueError, match="distinct"):
        FlightPlan(stops=(a, b, a), closed=True)
    plan = FlightPlan(stops=(a, b), closed=False)
    assert plan.min_stop_separation() == 500.0
    plan.check_region_radius(100.0)
    with pytest.raises(ValueError, match="need >"):
        plan.check_region_radius(250.0)
