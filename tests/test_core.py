import ast
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import log_oracle
from uwbvo import core
from align_oracle import AlignedPair, align_streams
from uwbvo.core import (
    UWB,
    VO,
    FlightPlan,
    LogFormatError,
    Position2D,
    Sample,
    Stream,
    StreamPair,
    euclidean,
    nearest_indices,
    read_log,
    write_log,
)
from uwbvo.ekf import run_filter
from uwbvo.simulate import SCENARIO_PRESETS, simulate_pair
from test_imports import ROOT

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
    u = Stream([0, 37], [(0, 0), (1, 0)], UWB)
    v = Stream([0], [(0, 0)], VO)
    StreamPair(u, v)
    with pytest.raises(ValueError, match="empty stream"):
        StreamPair(Stream([], [], UWB), v)
    with pytest.raises(ValueError, match="non-monotone"):
        StreamPair(Stream([37, 0], [(1, 0), (0, 0)], UWB), v)
    with pytest.raises(ValueError, match="non-monotone"):
        StreamPair(Stream([37, 37], [(1, 0), (0, 0)], UWB), v)  # a tie
    with pytest.raises(ValueError, match="tagged"):
        StreamPair(u, Stream([0], [(0, 0)], UWB))


def test_stream_validation():
    Stream([0, 5, 5], [(0, 0), (1, 0), (2, 0)], UWB)  # a merged stream may tie
    with pytest.raises(ValueError, match="unknown sensor"):
        Stream([0], [(0, 0)], "gps")
    with pytest.raises(ValueError, match="non-finite"):
        Stream([0, 5], [(0, 0), (float("nan"), 0)], VO)
    with pytest.raises(ValueError, match="non-monotone"):
        Stream([5, 0], [(0, 0), (1, 0)], VO)
    with pytest.raises(ValueError, match="shape"):
        Stream([0, 5], [(0, 0)], VO)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("rows", [(0,), (2,), (4,), (1, 3), (0, 2, 3, 4)])
@pytest.mark.parametrize("source", [UWB, VO])
def test_stream_names_the_first_non_finite_row(bad, column, rows, source):
    ts = [3, 8, 13, 21, 34]
    xy = np.zeros((len(ts), 2))
    xy[rows[0], column] = bad
    for k, row in enumerate(rows[1:]):  # later bad rows mix kinds and columns
        xy[row, (column + k + 1) % 2] = (float("nan"), float("-inf"))[k % 2]
    with pytest.raises(ValueError) as err:
        Stream(ts, xy, source)
    assert str(err.value) == f"non-finite position in {source} stream at t={ts[rows[0]]}"


def test_stream_arrays_are_read_only_copies():
    ts, xy = np.array([0, 5]), np.array([[0.0, 1.0], [2.0, 3.0]])
    stream = Stream(ts, xy, VO)
    ts[0], xy[0, 0] = 99, 99.0  # the caller's arrays stay the caller's
    assert stream.t_ms.tolist() == [0, 5] and stream.xy[0, 0] == 0.0
    # iterating yields samples, kept for perfbench until ROADMAP item 3; indexing is gone
    assert list(stream) == [Sample(0, Position2D(0.0, 1.0), VO), Sample(5, Position2D(2.0, 3.0), VO)]
    with pytest.raises(TypeError):
        stream[1]


def test_streams_pairs_and_samples_are_frozen():
    # the module's promise: every value is immutable, so one stream serves
    # every method and worker of a run; a Stream's replaced array would skip
    # its checks
    pair = StreamPair(Stream([0, 5], [[0.0, 1.0], [2.0, 3.0]], UWB), Stream([1], [[0.0, 0.0]], VO))
    values = ((pair.uwb, "t_ms"), (pair.uwb, "xy"), (pair, "vo"), (next(iter(pair.vo)), "pos"))
    for value, name in values:
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, getattr(value, name))


def sample_builders(source: str) -> set[str]:
    """The qualified names of the functions of ``source`` that call ``Sample``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, ast.ClassDef | ast.FunctionDef | ast.AsyncFunctionDef)
            if isinstance(child, ast.Call) and _names_sample(child.func):
                found.add(".".join(scope))
            visit(child, scope + (child.name,) if named else scope)

    visit(ast.parse(source), ())
    return found


def _names_sample(node) -> bool:
    """A name, attribute or import alias ``Sample``."""
    return "Sample" in (getattr(node, key, None) for key in ("id", "attr", "name"))


def test_samples_come_only_from_the_two_scalar_accessors():
    # a scalar path must not grow back before ROADMAP item 14 removes the
    # accessors: src builds a Sample only in the two perfbench reads, and no
    # test names the type but this file's test of them
    built = {
        f"{path.name}:{name}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for name in sample_builders(path.read_text(encoding="utf-8"))
    }
    assert built == {"core.py:Stream.__iter__", "simulate.py:VoSensor.__next__"}
    naming = [
        path.name
        for path in sorted((ROOT / "tests").glob("*.py"))
        if any(map(_names_sample, ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    ]
    assert naming == ["test_core.py"]


def test_stream_adopts_read_only_arrays_that_own_their_data():
    ts, xy = np.array([0, 5]), np.array([[0.0, 1.0], [2.0, 3.0]])
    ts.flags.writeable = xy.flags.writeable = False
    stream = Stream(ts, xy, VO)
    assert stream.t_ms is ts and stream.xy is xy
    assert Stream(stream.t_ms, stream.xy, UWB).t_ms is ts  # another stream's columns
    base = np.array([0, 5, 9])
    view = base[:2]
    view.flags.writeable = False  # read-only, but its base is not
    assert not np.shares_memory(Stream(view, xy, VO).t_ms, base)
    xy_wrong_dtype = np.array([[0, 1], [2, 3]])
    xy_wrong_dtype.flags.writeable = False
    assert Stream(ts, xy_wrong_dtype, VO).xy.dtype == np.float64
    xy_fortran = np.asfortranarray(np.array([[0.0, 1.0], [2.0, 3.0]]))
    xy_fortran.flags.writeable = False
    assert Stream(ts, xy_fortran, VO).xy.flags.c_contiguous
    with pytest.raises(ValueError, match="non-monotone"):  # adopted or not, checked
        Stream(ts[::-1].copy(), xy, VO)
    bad = np.array([[0.0, np.nan], [2.0, 3.0]])
    bad.flags.writeable = False
    with pytest.raises(ValueError, match="non-finite"):
        Stream(ts, bad, VO)


def test_stream_adopts_read_only_slices_of_read_only_owners():
    owner = np.array([0, 5, 9, 12])
    owner.flags.writeable = False
    xy = np.array([[0.0, 1.0], [2.0, 3.0]])
    xy.flags.writeable = False
    assert Stream(owner[1:3], xy, VO).t_ms.base is owner
    # a stream's column, sliced
    assert Stream(Stream(owner, np.zeros((4, 2)), VO).t_ms[2:], xy, VO).t_ms.base is owner
    # a slice that is not C-ordered is copied, as any other input
    assert not np.shares_memory(Stream(owner[::2], xy, VO).t_ms, owner)


def test_filtered_streams_share_their_input_timestamps(desk_params):
    stream = Stream(np.arange(0, 3700, 37), np.linspace((0.0, 0.0), (990.0, 0.0), 100), UWB)
    [out] = run_filter([stream], desk_params.ekf, [])
    assert np.shares_memory(out.t_ms, stream.t_ms)
    with pytest.raises(ValueError, match="read-only"):
        out.xy[0, 0] = 1.0


def test_writing_into_a_read_pair_raises(tmp_path):
    path = tmp_path / "log.csv"
    write_log(quantized_pair(np.random.default_rng(5), 3, 4), path)
    pair = read_log(path)
    with pytest.raises(ValueError, match="read-only"):
        pair.vo.xy[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        pair.uwb.t_ms[0] = 1


def _pair(uwb_ts, vo_ts):
    u = Stream(uwb_ts, [(float(t), 0.0) for t in uwb_ts], UWB)
    v = Stream(vo_ts, [(float(t), 1.0) for t in vo_ts], VO)
    return StreamPair(u, v)


def nearest_pairing(pair):
    """Each UWB sample with its VO sample as ``nearest_indices`` picks it."""
    j = nearest_indices(pair.vo.t_ms, pair.uwb.t_ms)
    vo_xy = pair.vo.xy[j].tolist()
    return [
        AlignedPair(t, Position2D(*uwb), Position2D(*vo))
        for t, uwb, vo in zip(pair.uwb.t_ms.tolist(), pair.uwb.xy.tolist(), vo_xy)
    ]


def test_align_streams_nearest_timestamp():
    pair = _pair([0, 37, 74], range(0, 76, 5))
    aligned = nearest_pairing(pair)
    assert [a.t_ms for a in aligned] == [0, 37, 74]
    assert [a.vo.x for a in aligned] == [0.0, 35.0, 75.0]
    assert aligned == align_streams(pair)


def test_align_streams_single_sample():
    pair = _pair([10], [10])
    assert nearest_pairing(pair) == align_streams(pair) == [
        AlignedPair(10, Position2D(10.0, 0.0), Position2D(10.0, 1.0))
    ]


def test_align_tie_goes_to_earlier():
    pair = _pair([10], [5, 15])
    assert nearest_pairing(pair)[0].vo.x == 5.0
    assert align_streams(pair)[0].vo.x == 5.0


@settings(max_examples=60)
@given(
    st.lists(st.integers(0, 10_000), min_size=1, max_size=40, unique=True),
    st.lists(st.integers(0, 10_000), min_size=1, max_size=40, unique=True),
)
def test_align_streams_minimizes_time_gap(uwb_ts, vo_ts):
    uwb_ts, vo_ts = sorted(uwb_ts), sorted(vo_ts)
    pair = _pair(uwb_ts, vo_ts)
    aligned = nearest_pairing(pair)
    assert aligned == align_streams(pair)
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
        return Stream(ts, xy, source)

    return StreamPair(stream(n_uwb, UWB), stream(n_vo, VO))


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


@pytest.mark.parametrize("t", [-(2**63), 2**63 - 1])
def test_log_timestamps_at_the_int64_bounds_are_read(tmp_path, t):
    # logs hold int64 milliseconds: both ends of the range read back, one
    # past either end is out of range
    path = tmp_path / "edge.csv"
    path.write_text(f"t_ms,sensor,x_mm,y_mm\n{t},uwb,1.0,2.0\n0,vo,0.0,0.0\n")
    assert read_log(path).uwb.t_ms.tolist() == [t]
    beyond = t - 1 if t < 0 else t + 1
    path.write_text(f"t_ms,sensor,x_mm,y_mm\n{beyond},uwb,1.0,2.0\n0,vo,0.0,0.0\n")
    with pytest.raises(LogFormatError, match=f"line 2: timestamp {beyond} out of range"):
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


def test_log_non_utf8_is_named_before_an_earlier_bad_row(tmp_path):
    # a 3-column row on line 3 and a byte that is not UTF-8 further on: the
    # whole file is decoded first, so the decoder's read-ahead, which the
    # rows between the two faults outrun, cannot change which is reported
    for between in (1, 5000):
        rows = [b"t_ms,sensor,x_mm,y_mm", b"0,uwb,1.0,2.0", b"5,uwb,3.0"]
        rows += [b"%d,vo,0.0,0.0" % t for t in range(between)]
        rows.append(b"%d,vo,\xff.0,0.0" % between)
        path = tmp_path / f"bad_{between}.csv"
        path.write_bytes(b"\n".join(rows) + b"\n")
        with pytest.raises(LogFormatError, match=f"line {len(rows)}: not UTF-8"):
            read_log(path)
        assert_read_like_oracle(path)


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


def assert_read_like_oracle(path):
    """``read_log`` gives the row parser's values, or its error text."""
    try:
        want = log_oracle.read_log(path)
    except LogFormatError as exc:
        with pytest.raises(LogFormatError) as got:
            read_log(path)
        assert str(got.value) == str(exc)
        return
    pair = read_log(path)
    for stream, want_rows in zip((pair.uwb, pair.vo), want):
        assert stream.t_ms.tolist() == [t for t, _ in want_rows]
        want_xy = np.array([[pos.x, pos.y] for _, pos in want_rows])
        assert stream.xy.tobytes() == want_xy.tobytes()  # bit for bit


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_log_reads_like_row_parser(small_log, data):
    path, log = small_log
    at = data.draw(st.integers(0, len(log) - 1), label="at")
    if data.draw(st.booleans(), label="truncate"):
        damaged = log[:at]
    else:
        value = data.draw(st.integers(0, 255), label="value")
        damaged = log[:at] + bytes([value]) + log[at + 1 :]
    bad = path.with_name("damaged.csv")
    bad.write_bytes(damaged)
    assert_read_like_oracle(bad)


_LOG = [
    b"t_ms,sensor,x_mm,y_mm",
    b"0,uwb,1.0,2.0",
    b"37,uwb,-3.5,-0.0",
    b"0,vo,0.0,0.0",
    b"5,vo,0.5,-0.1",
    b"10,vo,123456789012345678.5,7.3",
]


def _crafted(lines=_LOG, end=b"\r\n", final=True):
    return end.join(lines) + (end if final else b"")


# _LOG with its last value cut to 15 digits, the most the bulk parser reads
_BULK_LOG = _LOG[:5] + [b"10,vo,12345678901234.5,7.3"]


def _with(row, field, token, lines=_LOG):
    lines = list(lines)
    cells = lines[row].split(b",")
    cells[field] = token
    lines[row] = b",".join(cells)
    return _crafted(lines)


CRAFTED_LOGS = {
    "canonical": _crafted(),
    "blank line": _crafted(_LOG[:3] + [b""] + _LOG[3:]),
    "blank last line": _crafted() + b"\r\n",
    "comment line": _crafted(_LOG[:2] + [b"# note"] + _LOG[2:]),
    "comment row": _with(2, 0, b"#37"),
    "quoted fields": _crafted(_LOG[:2] + [b'"37","uwb","-3.5","-0.0"'] + _LOG[3:]),
    "interleaved sensors": _crafted([_LOG[0], _LOG[1], _LOG[3], _LOG[2], _LOG[4], _LOG[5]]),
    "interleaved sensors, rows in time order": _crafted(
        [_LOG[0], b"0,uwb,1.0,2.0", b"5,vo,0.5,-0.1", b"10,vo,0.7,0.1", b"37,uwb,-3.5,-0.0"]
    ),
    "lf line endings": _crafted(end=b"\n"),
    "no final newline": _crafted(final=False),
    "repeated timestamp": _with(2, 0, b"0"),
    "empty vo stream": _crafted(_LOG[:3]),
    "sixteen-digit timestamp": _with(5, 0, b"1234567890123456"),
    **{
        f"{token.decode()} in {name}": _with(row, field, token)
        for token in (b"+5", b"1_0", b"1e3", b"nan", b"inf", b" 5", b"-0")
        for name, row, field in (("t_ms", 4, 0), ("x_mm", 2, 2))
    },
    # the line of a bad byte counts every line break before it, the first byte's too
    "not UTF-8 after a leading line break": b"\n" + _with(2, 2, b"3\xff.5"),
}

# each a file the bulk parser's column checks must hand to the row parser:
# _BULK_LOG, which it reads, with one thing changed
NEAR_MISSES = {
    **{
        f"{token!r} in x_mm": _with(2, 2, token, _BULK_LOG)
        for token in (
            b"1.25",
            b"1.",
            b".5",
            b"--1.0",
            b"1-2.0",
            b"1.-5",
            b"-",
            b"1\x00.0",
            b"123456789012345.5",  # a 15-digit integer part: 16 digits
            b"1234567890123456.5",
        )
    },
    **{
        f"{token!r} in t_ms": _with(4, 0, token, _BULK_LOG)
        for token in (b"1-2", b"-", b"--5", b"1.0", b"1234567890123456")
    },
    # ':' is the byte after '9', and XORed with '0' it reads as 10: the last
    # row's 1: would read as 20, after the stream's 5 and 10
    "b'1:' in the last t_ms": _with(5, 0, b"1:", _BULK_LOG),
    **{
        f"{token!r} sensor": _with(1, 1, token, _BULK_LOG)
        for token in (b"UWB", b"uwbx", b"uw", b"vo", b"vox", b"v")
    },
    **{
        f"{end!r} ending a row": _crafted(_BULK_LOG[:3], final=False)
        + end
        + _crafted(_BULK_LOG[3:])
        for end in (b"\r", b"\r\r\n", b"\n")
    },
    "2 commas, then 4": _crafted(
        _BULK_LOG[:1] + [b"0,uwb,1.02.0", b"37,uwb,-3.5,-0.0,5"] + _BULK_LOG[3:]
    ),
    "5 fields": _crafted(_BULK_LOG[:2] + [b"37,uwb,-3.5,-0.0,5"] + _BULK_LOG[3:]),
    "header only": _crafted(_BULK_LOG[:1]),
    # the last row's sensor word is read from the file's last four bytes
    "',,,' as the last row": _crafted(_BULK_LOG + [b",,,"]),
    "uwb after vo": _crafted(_BULK_LOG + [b"50,uwb,0.0,0.0"]),
    "empty uwb stream": _crafted(_BULK_LOG[:1] + _BULK_LOG[3:]),
    "no final newline": _crafted(_BULK_LOG, final=False),
    "lf line endings": _crafted(_BULK_LOG, end=b"\n"),
}
CRAFTED_LOGS.update({f"near miss: {name}": log for name, log in NEAR_MISSES.items()})


def test_near_misses_go_to_the_row_parser():
    assert core._read_canonical(_crafted(_BULK_LOG)) is not None
    for name, log in NEAR_MISSES.items():
        assert core._read_canonical(log) is None, name


@pytest.mark.parametrize("name", sorted(CRAFTED_LOGS))
def test_crafted_log_reads_like_row_parser(tmp_path, name):
    path = tmp_path / "log.csv"
    path.write_bytes(CRAFTED_LOGS[name])
    assert_read_like_oracle(path)


def test_canonical_log_takes_the_bulk_path(tmp_path, monkeypatch):
    path = tmp_path / "log.csv"
    write_log(quantized_pair(np.random.default_rng(6), 50, 80), path)
    expected = read_log(path)

    def no_row_parser(_path, _data):
        raise AssertionError("row parser used on a canonical log")

    monkeypatch.setattr(core, "_read_rows", no_row_parser)
    assert read_log(path) == expected


def _fits(text: bytes) -> bool:
    """The bulk parser reads a number of at most 15 digits, its sign and dot left out."""
    return len(text.lstrip(b"-").replace(b".", b"")) <= 15


def _near_half(k: int, side: float, step: float) -> float:
    """``k / 10 + side * 0.05``, or the float ``step`` away from it."""
    x = k / 10 + side * 0.05
    return float(np.nextafter(x, step * np.inf)) if step else x


def log_timestamps(max_digits: int):
    """%d values of 1 to ``max_digits`` digits."""
    return st.integers(1, max_digits).flatmap(lambda n: st.integers(1 - 10**n, 10**n - 1))


def log_values(max_exponent: int):
    """%.1f values: signed zeros, values that round to zero, values at and
    next to half-tenths, and magnitudes from 1e13 (14 digits and a tenth)
    to ``10.0 ** (max_exponent + 1)``."""
    return st.one_of(
        st.sampled_from([0.0, -0.0, 0.04, -0.04, 0.05, -0.05]),
        st.builds(
            _near_half,
            st.integers(-(10**7), 10**7),
            st.sampled_from([-1.0, 1.0]),
            st.sampled_from([-1.0, 0.0, 1.0]),
        ),
        st.integers(13, max_exponent)
        .flatmap(lambda e: st.floats(10.0**e, 10.0 ** (e + 1), exclude_max=True))
        .flatmap(lambda m: st.sampled_from([m, -m])),
        st.floats(-1e6, 1e6),
    )


@pytest.fixture(scope="module")
def round_trip_path(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip") / "log.csv"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_written_log_reads_back_like_row_parser(round_trip_path, data):
    # every value write_log can write, in half the logs only values of at
    # most 15 digits: those the bulk parser reads
    if data.draw(st.booleans(), label="long values"):
        timestamps, values = log_timestamps(18), log_values(299)
    else:
        timestamps, values = log_timestamps(15), log_values(13)

    def stream(source):
        ts = data.draw(st.lists(timestamps, min_size=1, max_size=5, unique=True))
        xy = data.draw(st.lists(st.tuples(values, values), min_size=len(ts), max_size=len(ts)))
        return Stream(sorted(ts), xy, source)

    pair = StreamPair(stream(UWB), stream(VO))
    write_log(pair, round_trip_path)
    assert_read_like_oracle(round_trip_path)
    texts = [b"%d" % t for s in (pair.uwb, pair.vo) for t in s.t_ms.tolist()]
    texts += [b"%.1f" % v for s in (pair.uwb, pair.vo) for v in s.xy.ravel().tolist()]
    bulk = core._read_canonical(round_trip_path.read_bytes())
    assert (bulk is not None) == all(map(_fits, texts))


def test_reading_a_worst_case_log_peaks_below_the_text_parser(tmp_path):
    # the regex check and np.loadtxt parse this replaced peaked at 15.3 MB
    # on this 2.0 MB log, in _read_canonical alone: the file's bytes left out
    pair, _, _ = simulate_pair(SCENARIO_PRESETS["worst-case"](), 0)
    path = tmp_path / "streams.csv"
    write_log(pair, path)
    tracemalloc.start()
    try:
        read = read_log(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert read == pair
    assert peak <= 15.3e6


def test_flight_plan_validation():
    a, b = Position2D(0, 0), Position2D(500, 0)
    timing = {"dwell_ms": 22000.0, "cruise_mm_s": 500.0, "accel_mm_s2": 1000.0}
    with pytest.raises(ValueError, match="at least 2"):
        FlightPlan(stops=(a,), closed=True, **timing)
    with pytest.raises(ValueError, match="distinct"):
        FlightPlan(stops=(a, b, b), closed=False, **timing)
    # closed plan: the closing leg must be flyable too
    with pytest.raises(ValueError, match="distinct"):
        FlightPlan(stops=(a, b, a), closed=True, **timing)
    # dwell, cruise speed and acceleration must be positive: zero is not
    for field in ("dwell_ms", "cruise_mm_s", "accel_mm_s2"):
        with pytest.raises(ValueError, match="finite and positive"):
            FlightPlan(stops=(a, b), closed=False, **{**timing, field: 0.0})
    plan = FlightPlan(stops=(a, b), closed=False, **timing)
    assert plan.min_stop_separation() == 500.0
    # regions of radius gamma never overlap: the stops lie more than 2 gamma apart
    plan.check_region_radius(100.0)
    plan.check_region_radius(249.9)
    with pytest.raises(ValueError, match="need >"):
        plan.check_region_radius(250.0)
    with pytest.raises(ValueError) as refused:
        plan.check_region_radius(300.0)
    assert str(refused.value) == "stops only 500.0 mm apart; need > 600.0 mm for gamma = 300.0 mm"
