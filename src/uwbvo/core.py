"""Core value types for planar positioning streams, and log I/O.

Internal units are millimetres and milliseconds everywhere; converters live
at ingestion only. Logs store timestamps as integer milliseconds and
coordinates as fixed decimals at 0.1 mm resolution, so a log written from
quantized samples reads back bit-exact.

A :class:`Stream` holds one source's timestamps and positions as arrays,
validated once; :class:`Position2D` and :class:`Sample` are the scalar
types. All are immutable (a Stream owns read-only copies of its arrays, so
writing into them raises) and all operations are pure functions, so they
are safe to share across threads, worker processes and methods.
"""
from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Iterator

import numpy as np

UWB = "uwb"
VO = "vo"
SENSORS = (UWB, VO)

LOG_HEADER = ("t_ms", "sensor", "x_mm", "y_mm")

# Resolution of on-disk logs: 1 ms ticks, 0.1 mm coordinates.
MM_DECIMALS = 1


class LogFormatError(ValueError):
    """Malformed or inconsistent stream log content."""


@dataclass(frozen=True)
class Position2D:
    """Planar position in millimetres."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite position ({self.x!r}, {self.y!r})")

    def __add__(self, other: "Position2D") -> "Position2D":
        return Position2D(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Position2D") -> "Position2D":
        return Position2D(self.x - other.x, self.y - other.y)


def euclidean(a: Position2D, b: Position2D) -> float:
    """Planar Euclidean distance in millimetres."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class Sample:
    """One timestamped position reading from a named sensor."""

    t_ms: int
    pos: Position2D
    source: str

    def __post_init__(self) -> None:
        if self.source not in SENSORS:
            raise ValueError(f"unknown sensor {self.source!r}")


@dataclass(frozen=True, eq=False)
class Stream:
    """One source's readings as columns: ``t_ms`` int64[N], ``xy`` float64[N, 2].

    Both arrays are read-only copies, checked once here: a known source,
    one position per timestamp, finite positions and timestamps in
    non-decreasing order (a merged stream holds ties; :class:`StreamPair`
    asks its streams for strictly increasing ones). Iterating or indexing
    yields :class:`Sample` values for scalar consumers; a slice is a Stream.
    """

    t_ms: np.ndarray
    xy: np.ndarray
    source: str

    def __post_init__(self) -> None:
        if self.source not in SENSORS:
            raise ValueError(f"unknown sensor {self.source!r}")
        t_ms = np.array(self.t_ms, dtype=np.int64)
        xy = np.array(self.xy, dtype=np.float64, order="C")
        if xy.size == 0:
            xy = xy.reshape(0, 2)
        if t_ms.ndim != 1 or xy.shape != (len(t_ms), 2):
            raise ValueError(f"{t_ms.shape} timestamps for positions of shape {xy.shape}")
        bad = t_ms[~np.isfinite(xy).all(axis=1)]
        if len(bad):
            raise ValueError(f"non-finite position in {self.source} stream at t={bad[0]}")
        back = t_ms[1:][np.diff(t_ms) < 0]
        if len(back):
            raise ValueError(f"non-monotone timestamps in {self.source} stream at t={back[0]}")
        t_ms.flags.writeable = False
        xy.flags.writeable = False
        object.__setattr__(self, "t_ms", t_ms)
        object.__setattr__(self, "xy", xy)

    def __len__(self) -> int:
        return len(self.t_ms)

    def __iter__(self) -> Iterator[Sample]:
        for t, (x, y) in zip(self.t_ms.tolist(), self.xy.tolist()):
            yield Sample(t, Position2D(x, y), self.source)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Stream(self.t_ms[index], self.xy[index], self.source)
        x, y = self.xy[index].tolist()
        return Sample(int(self.t_ms[index]), Position2D(x, y), self.source)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Stream):
            return NotImplemented
        return (
            self.source == other.source
            and np.array_equal(self.t_ms, other.t_ms)
            and np.array_equal(self.xy, other.xy)
        )


@dataclass(frozen=True)
class StreamPair:
    """UWB and visual-odometer streams of one run: non-empty, strictly increasing."""

    uwb: Stream
    vo: Stream

    def __post_init__(self) -> None:
        for stream, source in ((self.uwb, UWB), (self.vo, VO)):
            if stream.source != source:
                raise ValueError(f"{stream.source!r} stream tagged as the {source} one")
            if not len(stream):
                raise ValueError(f"empty stream: {source}")
            ties = stream.t_ms[1:][np.diff(stream.t_ms) == 0]
            if len(ties):
                raise ValueError(f"non-monotone timestamps in {source} stream at t={ties[0]}")


@dataclass(frozen=True)
class FlightPlan:
    """Ordered stopping points plus dwell and cruise timing.

    ``closed`` plans fly one extra leg from the last stop back to the first
    and finish with a dwell there, completing the loop.
    """

    stops: tuple[Position2D, ...]
    dwell_ms: float = 22000.0
    cruise_mm_s: float = 500.0
    accel_mm_s2: float = 1000.0
    closed: bool = True

    def __post_init__(self) -> None:
        if len(self.stops) < 2:
            raise ValueError("flight plan needs at least 2 stops")
        if not all(
            math.isfinite(v) and v > 0
            for v in (self.dwell_ms, self.cruise_mm_s, self.accel_mm_s2)
        ):
            raise ValueError("dwell, cruise speed and acceleration must be finite and positive")
        for a, b in self.legs():
            if euclidean(a, b) == 0.0:
                raise ValueError("consecutive stops must be distinct")

    def legs(self) -> list[tuple[Position2D, Position2D]]:
        """Consecutive stop pairs flown, including the closing leg if any."""
        pairs = list(zip(self.stops, self.stops[1:]))
        if self.closed:
            pairs.append((self.stops[-1], self.stops[0]))
        return pairs

    def min_stop_separation(self) -> float:
        return min(
            euclidean(a, b)
            for i, a in enumerate(self.stops)
            for b in self.stops[i + 1 :]
        )

    def check_region_radius(self, gamma_mm: float) -> None:
        """Stop-detection regions of radius gamma must never overlap."""
        sep = self.min_stop_separation()
        if sep <= 2.0 * gamma_mm:
            raise ValueError(
                f"stops only {sep:.1f} mm apart; need > {2 * gamma_mm:.1f} mm "
                f"for gamma = {gamma_mm:.1f} mm"
            )


def nearest_indices(ts: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """For each target, the index of the nearest timestamp in sorted ``ts``.

    Ties resolve to the earlier timestamp.
    """
    i = np.searchsorted(ts, targets)
    lo = np.maximum(i - 1, 0)
    hi = np.minimum(i, len(ts) - 1)
    earlier = (i == len(ts)) | ((i > 0) & (targets - ts[lo] <= ts[hi] - targets))
    return np.where(earlier, lo, hi)


def csv_text(header, row_format: str, rows) -> str:
    """A header and one ``row_format % row`` line per row: what ``csv`` writes
    for rows of numbers and plain words, which need no quoting."""
    return "".join([",".join(header) + "\r\n"] + [row_format % row for row in rows])


def write_log(pair: StreamPair, path) -> None:
    """Write a stream pair as CSV, rows sorted by (sensor, t_ms)."""
    rows = chain.from_iterable(
        zip(s.t_ms.tolist(), repeat(s.source), *s.xy.T.tolist()) for s in (pair.uwb, pair.vo)
    )
    text = csv_text(LOG_HEADER, "%d,%s,%.1f,%.1f\r\n", rows)
    Path(path).write_text(text, encoding="utf-8", newline="")


def _log_rows(path) -> Iterator[list[str]]:
    """CSV rows of a log; bytes that are not UTF-8 and CSV errors raise LogFormatError."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            yield from reader
            return
        except csv.Error as exc:  # e.g. an unterminated quote past the field size limit
            raise LogFormatError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            pass
    # the decoder reads ahead of the reader in chunks: find the byte in the whole file
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise LogFormatError(f"{path}: line {lineno}: not UTF-8 ({exc.reason})") from None
    raise LogFormatError(f"{path}: not UTF-8")  # the file changed while it was read


_INT64 = np.iinfo(np.int64)


def _read_rows(path) -> StreamPair:
    """Parse a log row by row, naming the first bad line in a LogFormatError."""
    columns: dict[str, tuple[list[int], list[tuple[float, float]]]] = {
        UWB: ([], []),
        VO: ([], []),
    }
    rows = _log_rows(path)
    header = next(rows, None)
    if header is None:
        raise LogFormatError(f"{path}: empty log file")
    if tuple(header) != LOG_HEADER:
        raise LogFormatError(f"{path}: line 1: bad header {header!r}")
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 4:
            raise LogFormatError(
                f"{path}: line {lineno}: expected 4 columns, got {len(row)}"
            )
        t_raw, sensor, x_raw, y_raw = row
        if sensor not in SENSORS:
            raise LogFormatError(
                f"{path}: line {lineno}: unknown sensor {sensor!r}"
            )
        try:
            t = int(t_raw)
            pos = Position2D(float(x_raw), float(y_raw))
        except ValueError as exc:
            raise LogFormatError(f"{path}: line {lineno}: {exc}") from None
        if not _INT64.min <= t <= _INT64.max:
            raise LogFormatError(f"{path}: line {lineno}: timestamp {t} out of range")
        ts, xy = columns[sensor]
        if ts and ts[-1] >= t:
            raise LogFormatError(
                f"{path}: line {lineno}: non-monotone timestamp {t} "
                f"in {sensor} stream"
            )
        ts.append(t)
        xy.append((pos.x, pos.y))
    for sensor in SENSORS:
        if not columns[sensor][0]:
            raise LogFormatError(f"{path}: empty stream: {sensor}")
    return StreamPair(Stream(*columns[UWB], UWB), Stream(*columns[VO], VO))


_HEADER_LINE = (",".join(LOG_HEADER) + "\r\n").encode()
# one row exactly as write_log formats it; at most 15 timestamp digits, so
# the timestamp survives a parse as float64
_CANONICAL_ROW = re.compile(rb"-?\d{1,15},(?:uwb|vo),-?\d+\.\d,-?\d+\.\d\r\n")


def _read_canonical(path) -> StreamPair | None:
    """The pair of a log laid out exactly as :func:`write_log` writes one.

    None for any other file, valid or not (blank lines, quotes, other number
    spellings, interleaved sensors, ...): what this accepts, the row parser
    accepts with the same values.
    """
    data = Path(path).read_bytes()
    if not data.startswith(_HEADER_LINE):
        return None
    body = data[len(_HEADER_LINE) :]
    rest, n_rows = _CANONICAL_ROW.subn(b"", body)
    n_uwb = body.count(b",uwb,")
    if rest or not 0 < n_uwb < n_rows or body.rfind(b",uwb,") > body.find(b",vo,"):
        return None
    text = io.StringIO(body.decode("ascii"))
    cols = np.loadtxt(text, delimiter=",", usecols=(0, 2, 3), comments=None, ndmin=2)
    t_ms = cols[:, 0].astype(np.int64)
    try:
        return StreamPair(
            Stream(t_ms[:n_uwb], cols[:n_uwb, 1:], UWB),
            Stream(t_ms[n_uwb:], cols[n_uwb:, 1:], VO),
        )
    except ValueError:  # timestamps that repeat or run backwards
        return None


def read_log(path) -> StreamPair:
    """Read a stream pair written by :func:`write_log`.

    A file laid out exactly as :func:`write_log` writes one is parsed in
    bulk. Any other file goes to the row-by-row parser, which accepts what
    the CSV module reads as four valid columns and raises
    :class:`LogFormatError` naming the offending line for bytes that are
    not UTF-8, malformed rows and non-monotone timestamps within a stream.
    """
    pair = _read_canonical(path)
    return pair if pair is not None else _read_rows(path)
