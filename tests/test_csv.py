import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import csv_oracle
from uwbvo import core
from uwbvo.core import csv_blocks, write_blocks
from uwbvo.pipeline import MODE_NAMES

INT64 = np.iinfo(np.int64)

# the row formats the program writes: logs, truth, tracks and error curves
# (a %s field holds a fused track's mode codes)
ROW_FORMATS = [
    "%d,uwb,%.1f,%.1f\r\n",
    "%d,%.1f,%.1f,%d\r\n",
    "%d,%.1f,%.1f,%s\r\n",
    "%d,%.1f,%.1f,vo\r\n",
    "%d,%.1f\r\n",
]

ints = st.one_of(
    st.integers(INT64.min, INT64.max),
    st.sampled_from([INT64.min, INT64.min + 1, -10000, -1, 0, 1, 9999, 10000, INT64.max]),
)


def near_ties(k: int) -> list[float]:
    """``k / 10 +- 0.05`` and their float neighbours: where ``%.1f`` turns."""
    out = []
    for v in (k / 10 - 0.05, k / 10 + 0.05):
        out += [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]
    return out


floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals and 1e308 included
    st.floats(-1e5, 1e5),
    st.sampled_from([0.0, -0.0, -0.04, 0.04, 0.05, -0.05, 5e-324, -5e-324]),
    st.integers(-40000, 40000).map(lambda k: k / 4),  # exact ties and exact tenths
    st.integers(-40000, 40000).flatmap(lambda k: st.sampled_from(near_ties(k))),
    st.tuples(st.floats(1e14, 1e300), st.booleans()).map(lambda f: -f[0] if f[1] else f[0]),
)


def column(conversion: str, n: int):
    if conversion == "%d":
        return st.lists(ints, min_size=n, max_size=n).map(lambda v: np.array(v, np.int64))
    if conversion == "%.1f":
        return st.lists(floats, min_size=n, max_size=n).map(np.array)
    return st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)


def formatted(row_format: str, *columns) -> bytes:
    return b"".join(csv_blocks(row_format, *columns, words=MODE_NAMES))


def expected(row_format: str, *columns) -> bytes:
    """The oracle's text: a %s column as the words its codes stand for."""
    as_words = [
        [MODE_NAMES[k] for k in c.tolist()] if c.dtype == bool else c for c in columns
    ]
    return "".join(csv_oracle.csv_blocks(row_format, *as_words)).encode()


@pytest.mark.parametrize("block", [1, 7, 64])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_blocks_equal_the_per_row_oracle(monkeypatch, block, data):
    monkeypatch.setattr(core, "_ROWS_PER_BLOCK", block)
    row_format = data.draw(st.sampled_from(ROW_FORMATS))
    n = data.draw(st.sampled_from([0, 1, block - 1, block, block + 1, 3 * block + 2]))
    conversions = core._CONVERSION.findall(row_format)
    columns = [data.draw(column(c, n)) for c in conversions]
    assert formatted(row_format, *columns) == expected(row_format, *columns)


def test_edge_values_equal_the_per_row_oracle():
    ties = [k / 4 for k in range(-400, 401)]
    near = [v for k in range(-200, 201) for v in near_ties(k)]
    big = [s * 10.0**e for e in range(14, 301) for s in (1, -1)]
    tiny = [5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.0, -0.0, -0.04, 0.04]
    x = np.array(ties + near + big + tiny)
    t = np.resize(np.array([INT64.min, INT64.max, 0, -1, 1, 9999, -9999, 10000]), len(x))
    for row_format in ("%d,%.1f\r\n", "%d,%.1f,%.1f,%d\r\n"):
        columns = [t, x, -x, t][: row_format.count("%")]
        assert formatted(row_format, *columns) == expected(row_format, *columns)


def test_vector_path_formats_its_own_values(monkeypatch):
    # a simulated track's values never reach '%.1f' % v
    rng = np.random.default_rng(0)
    t = np.cumsum(rng.integers(1, 40, 50_000))
    x = rng.uniform(-20_000, 20_000, 50_000)
    calls = []
    real = core._tenths_field

    def watched(column):
        pieces = real(column)
        calls.append(len(pieces))
        return pieces

    monkeypatch.setattr(core, "_tenths_field", watched)
    assert formatted("%d,%.1f\r\n", t, x) == expected("%d,%.1f\r\n", t, x)
    assert calls and max(calls) <= 3  # sign, digits and tenths: no fallback text


def test_a_file_without_rows_is_its_header(tmp_path):
    path = tmp_path / "track.csv"
    empty = np.zeros(0)
    write_blocks(path, ("t_ms", "x_mm"), csv_blocks("%d,%.1f\r\n", empty.astype(np.int64), empty))
    assert path.read_bytes() == b"t_ms,x_mm\r\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_raises(bad):
    with pytest.raises(ValueError, match="non-finite"):
        formatted("%d,%.1f\r\n", np.array([0, 1]), np.array([1.0, bad]))


@pytest.mark.parametrize("row_format", ["%d,%5.2f\r\n", "%d,%f\r\n", "%d%%,%.1f\r\n", "%d\0,%.1f\r\n"])
def test_unsupported_row_format_raises(row_format):
    with pytest.raises(ValueError, match="row format"):
        formatted(row_format, np.array([0]), np.array([1.0]))


def _track_write_peak(path, n: int) -> int:
    """Peak transient bytes of writing an ``n``-row fused track."""
    rng = np.random.default_rng(1)
    t = np.cumsum(rng.integers(1, 40, n))
    xy = rng.uniform(-5000, 20_000, (n, 2))
    kalman = rng.random(n) < 0.3
    tracemalloc.start()
    try:
        write_blocks(
            path,
            ("t_ms", "x_mm", "y_mm", "mode"),
            csv_blocks("%d,%.1f,%.1f,%s\r\n", t, *xy.T, kalman, words=MODE_NAMES),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_write_memory_is_bounded_by_a_block(tmp_path):
    small = _track_write_peak(tmp_path / "small.csv", 83_381)
    large = _track_write_peak(tmp_path / "large.csv", 400_000)
    assert small < 4 * 2**20 and large < 4 * 2**20
    assert abs(large - small) <= 0.1 * small
