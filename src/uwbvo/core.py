"""Core value types for planar positioning streams, alignment, and log I/O.

Internal units are millimetres and milliseconds everywhere; converters live
at ingestion only. Logs store timestamps as integer milliseconds and
coordinates as fixed decimals at 0.1 mm resolution, so a log written from
quantized samples reads back bit-exact.

All types here are immutable values and all operations are pure functions,
so they are safe to share across threads or worker processes.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

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

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


ZERO = Position2D(0.0, 0.0)


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


def _check_stream(samples: Sequence[Sample], source: str) -> None:
    if not samples:
        raise ValueError(f"empty stream: {source}")
    last = None
    for s in samples:
        if s.source != source:
            raise ValueError(f"sample tagged {s.source!r} in {source} stream")
        if last is not None and s.t_ms <= last:
            raise ValueError(
                f"non-monotone timestamps in {source} stream at t={s.t_ms}"
            )
        last = s.t_ms


@dataclass(frozen=True)
class StreamPair:
    """A matched pair of UWB and visual-odometer streams from one run."""

    uwb: tuple[Sample, ...]
    vo: tuple[Sample, ...]

    def __post_init__(self) -> None:
        _check_stream(self.uwb, UWB)
        _check_stream(self.vo, VO)

    @staticmethod
    def build(uwb: Iterable[Sample], vo: Iterable[Sample]) -> "StreamPair":
        return StreamPair(tuple(uwb), tuple(vo))


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
        if self.dwell_ms <= 0 or self.cruise_mm_s <= 0 or self.accel_mm_s2 <= 0:
            raise ValueError("dwell, cruise speed and acceleration must be positive")
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


class AlignedSample(NamedTuple):
    t_ms: int
    uwb: Position2D
    vo: Position2D


def nearest_index(ts: np.ndarray, t: float) -> int:
    """Index of the timestamp nearest to ``t``; ties resolve to the earlier one."""
    i = int(np.searchsorted(ts, t))
    if i == 0:
        return 0
    if i == len(ts):
        return len(ts) - 1
    # tie -> earlier sample
    return i - 1 if t - ts[i - 1] <= ts[i] - t else i


def align_streams(pair: StreamPair) -> list[AlignedSample]:
    """Match each UWB sample with the nearest-in-time VO sample.

    The UWB stream is the slower one in all supported scenarios, so the
    output has one tuple per UWB sample.
    """
    vo_ts = np.array([s.t_ms for s in pair.vo], dtype=np.int64)
    out = []
    for s in pair.uwb:
        j = nearest_index(vo_ts, s.t_ms)
        out.append(AlignedSample(s.t_ms, s.pos, pair.vo[j].pos))
    return out


def _format_row(s: Sample) -> list[str]:
    return [str(int(s.t_ms)), s.source, f"{s.pos.x:.1f}", f"{s.pos.y:.1f}"]


def write_log(pair: StreamPair, path) -> None:
    """Write a stream pair as CSV, rows sorted by (sensor, t_ms)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_HEADER)
        for stream in (pair.uwb, pair.vo):
            for s in stream:
                writer.writerow(_format_row(s))


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


def read_log(path) -> StreamPair:
    """Read a stream pair written by :func:`write_log`.

    Raises :class:`LogFormatError` naming the offending line for bytes that
    are not UTF-8, malformed rows and non-monotone timestamps within a
    stream.
    """
    streams: dict[str, list[Sample]] = {UWB: [], VO: []}
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
        bucket = streams[sensor]
        if bucket and bucket[-1].t_ms >= t:
            raise LogFormatError(
                f"{path}: line {lineno}: non-monotone timestamp {t} "
                f"in {sensor} stream"
            )
        bucket.append(Sample(t, pos, sensor))
    for sensor in SENSORS:
        if not streams[sensor]:
            raise LogFormatError(f"{path}: empty stream: {sensor}")
    return StreamPair(tuple(streams[UWB]), tuple(streams[VO]))

