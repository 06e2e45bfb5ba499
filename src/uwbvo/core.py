"""Core value types for planar positioning streams, and log I/O.

Internal units are millimetres and milliseconds everywhere; converters live
at ingestion only. Logs store timestamps as integer milliseconds and
coordinates as fixed decimals at 0.1 mm resolution, so a log written from
quantized samples reads back bit-exact.

A :class:`Stream` holds one source's timestamps and positions as arrays,
validated once; :class:`Position2D` and :class:`Sample` are the scalar
types. All are immutable (a Stream's arrays are read-only, so writing into
them raises) and all operations are pure functions, so they are safe to
share across threads, worker processes and methods.
"""
from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

UWB = "uwb"
VO = "vo"
SENSORS = (UWB, VO)

LOG_HEADER = ("t_ms", "sensor", "x_mm", "y_mm")

# Resolution of on-disk logs: 1 ms ticks, 0.1 mm coordinates.
MM_DECIMALS = 1


class LogFormatError(ValueError):
    """Malformed or inconsistent stream log content."""


class CoverageError(ValueError):
    """A stream lacks the samples a result needs: a track misses a dwell
    window a metric reads or is empty, or a filtered UWB stream reaches no
    stop visit."""


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


def _adopted(a, dtype) -> np.ndarray:
    """``a`` itself if it is a read-only, C-ordered ``ndarray`` of ``dtype``
    that owns its data: another stream's column, or an array its maker set
    read-only to hand it over. Otherwise a C-ordered copy."""
    if (
        isinstance(a, np.ndarray)
        and a.dtype == dtype
        and a.flags.c_contiguous
        and not a.flags.writeable
        and a.base is None
    ):
        return a
    return np.array(a, dtype=dtype, order="C")


@dataclass(frozen=True, eq=False)
class Stream:
    """One source's readings as columns: ``t_ms`` int64[N], ``xy`` float64[N, 2].

    Both arrays are read-only, checked once here: a known source, one
    position per timestamp, finite positions and timestamps in
    non-decreasing order (a merged stream holds ties; :class:`StreamPair`
    asks its streams for strictly increasing ones). An input that is
    already a read-only, C-ordered array of the right dtype owning its data
    is kept as it is; any other is copied. Iterating or indexing yields :class:`Sample` values for scalar
    consumers; a slice is a Stream.
    """

    t_ms: np.ndarray
    xy: np.ndarray
    source: str

    def __post_init__(self) -> None:
        if self.source not in SENSORS:
            raise ValueError(f"unknown sensor {self.source!r}")
        t_ms = _adopted(self.t_ms, np.int64)
        xy = _adopted(self.xy, np.float64)
        if xy.size == 0:
            xy = xy.reshape(0, 2)
        if t_ms.ndim != 1 or xy.shape != (len(t_ms), 2):
            raise ValueError(f"{t_ms.shape} timestamps for positions of shape {xy.shape}")
        if not np.isfinite(xy).all():  # the per-row mask only to name the first bad row
            bad = t_ms[~np.isfinite(xy).all(axis=1)]
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
    # before the first timestamp or past the last, lo == hi
    lo = np.maximum(i - 1, 0)
    hi = np.minimum(i, len(ts) - 1)
    return np.where(targets - ts[lo] <= ts[hi] - targets, lo, hi)


# rows formatted at a time: a block's byte matrix and digit columns are all
# that a write holds, whatever the length of the columns
_ROWS_PER_BLOCK = 16384


def _chunk_tables() -> tuple[np.ndarray, np.ndarray]:
    """The text of 4-digit chunks as ``<u4``, for the higher chunks of a
    number and for its lowest one, indexed by chunk + 10000 * (the chunk is
    the number's leading one). An inner chunk keeps its zeros; a leading
    chunk has NUL bytes in their place, so a leading 0 prints nothing,
    except in the lowest place, where it prints "0"."""
    i = np.arange(10000, dtype=np.int32)[:, None]
    scale = np.array([1000, 100, 10, 1], dtype=np.int32)
    inner = (48 + i // scale % 10).astype(np.uint8)
    high = np.concatenate((inner, inner * (i >= scale)))
    low = high.copy()
    low[10000, 3] = ord("0")
    return high.view("<u4").ravel(), low.view("<u4").ravel()


_HIGH_CHUNKS, _LOW_CHUNKS = _chunk_tables()


def _digits(a: np.ndarray) -> np.ndarray:
    """Decimal digits of the uint64 ``a`` as a uint8 matrix, one row per
    value, right-aligned and padded with NUL bytes."""
    n_digits = len(str(int(a.max()))) if len(a) else 1
    n_chunks = (n_digits + 3) // 4
    out = np.empty((len(a), n_chunks), "<u4")
    for k in range(n_chunks - 1, -1, -1):
        higher = a // 10000
        chunk = (a - higher * 10000).astype(np.intp)
        table = _LOW_CHUNKS if k == n_chunks - 1 else _HIGH_CHUNKS
        out[:, k] = table.take(np.where(higher == 0, chunk + 10000, chunk))
        a = higher
    return out.view(np.uint8)[:, 4 * n_chunks - n_digits :]


def _sign(negative: np.ndarray) -> list[np.ndarray]:
    """A column of ``-`` where ``negative``, or no column if none is."""
    return [negative.view(np.uint8)[:, None] * ord("-")] if negative.any() else []


def _int_field(column) -> list[np.ndarray]:
    """``%d`` of every value of an integer column, as NUL-padded byte matrices."""
    v = np.asarray(column, dtype=np.int64)
    u = v.view(np.uint64)
    negative = v < 0
    return [*_sign(negative), _digits(np.where(negative, -u, u))]


# |x| * 10 below 2**52: its fraction is exact, and its rounding decidable
_VECTOR_MAX = 2.0**52 / 10


def _tenths_field(column) -> list[np.ndarray]:
    """``%.1f`` of every value of a float column, as NUL-padded byte matrices.

    ``rint(|x| * 10)`` is the value's tenths unless ``|x| * 10`` lies within
    4 ulps of a half (``a * 2**-50`` bounds 4 ulps of ``a``): a tie such as
    0.25, or a near-tie the product may have rounded onto either side. Such
    values, and those too large for the fraction to be exact, take
    ``'%.1f' % v`` itself.
    """
    x = np.asarray(column, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("non-finite value in a %.1f column")
    ax = np.abs(x)
    large = ax >= _VECTOR_MAX
    a = np.where(large, 0.0, ax) * 10
    undecided = large | (np.abs(a - np.floor(a) - 0.5) <= a * 2.0**-50)
    tenths = np.rint(a).astype(np.uint64)
    units = tenths // 10
    tail = np.full((len(x), 2), ord("."), np.uint8)
    tail[:, 1] = tenths - units * 10 + ord("0")
    pieces = [*_sign(np.signbit(x)), _digits(units), tail]
    if undecided.any():
        for piece in pieces:
            piece[undecided] = 0
        texts = np.array([b"%.1f" % v for v in x[undecided].tolist()])
        text = np.zeros((len(x), texts.itemsize), np.uint8)
        text[undecided] = texts.view(np.uint8).reshape(len(texts), -1)
        pieces.append(text)
    return pieces


_CONVERSION = re.compile(r"(%d|%\.1f|%s)")


def csv_blocks(row_format: str, *columns, words: Iterable[str] = ()) -> Iterator[bytes]:
    """The bytes of one ``row_format % row`` line per row of the columns,
    UTF-8 encoded, a block of rows at a time: what ``csv`` writes for rows
    of numbers and plain words, which need no quoting.

    ``row_format`` holds ``%d`` for integer columns, ``%.1f`` for float
    columns and ``%s`` for columns of integer codes into ``words``, between
    literal text. A block is built as a byte matrix, one row per line and
    each field a column range padded with NUL bytes, and compacted by
    dropping the NULs; no Python value is made per row. Non-finite floats
    raise ValueError.
    """
    parts = _CONVERSION.split(row_format)
    literals, conversions = parts[::2], parts[1::2]
    if any("%" in s or "\0" in s for s in literals):
        raise ValueError(f"unsupported row format {row_format!r}")
    if len(conversions) != len(columns):
        raise ValueError(f"row format {row_format!r} for {len(columns)} columns")
    lit = [np.frombuffer(s.encode(), np.uint8) for s in literals]
    word_bytes = np.array([w.encode() for w in words] or [b""])
    word_table = word_bytes.view(np.uint8).reshape(len(word_bytes), -1)
    fields = {
        "%d": _int_field,
        "%.1f": _tenths_field,
        "%s": lambda codes: [word_table[np.asarray(codes, dtype=np.intp)]],
    }
    for i in range(0, len(columns[0]), _ROWS_PER_BLOCK):
        n = min(_ROWS_PER_BLOCK, len(columns[0]) - i)
        pieces = [np.broadcast_to(lit[0], (n, len(lit[0])))]
        for conv, column, text in zip(conversions, columns, lit[1:]):
            pieces += fields[conv](column[i : i + n])
            pieces.append(np.broadcast_to(text, (n, len(text))))
        m = np.concatenate(pieces, axis=1)
        yield m[m != 0].tobytes()


def csv_header(header) -> bytes:
    return (",".join(header) + "\r\n").encode()


def write_blocks(path, header, blocks: Iterable[bytes]) -> None:
    """Write a CSV file in binary mode: the header line, then the byte blocks."""
    with open(path, "wb") as fh:
        fh.write(csv_header(header))
        fh.writelines(blocks)


def write_log(pair: StreamPair, path) -> None:
    """Write a stream pair as CSV, rows sorted by (sensor, t_ms)."""
    blocks = (
        csv_blocks(f"%d,{s.source},%.1f,%.1f\r\n", s.t_ms, *s.xy.T)
        for s in (pair.uwb, pair.vo)
    )
    write_blocks(path, LOG_HEADER, chain.from_iterable(blocks))


def _log_rows(path, data: bytes) -> Iterator[list[str]]:
    """CSV rows of a log's bytes. Bytes that are not UTF-8 raise
    LogFormatError naming the line of the first bad byte, before any row is
    read; CSV errors raise it naming their line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise LogFormatError(f"{path}: line {lineno}: not UTF-8 ({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as exc:  # e.g. an unterminated quote past the field size limit
        raise LogFormatError(f"{path}: line {reader.line_num}: {exc}") from None


_INT64 = np.iinfo(np.int64)


def _read_rows(path, data: bytes) -> StreamPair:
    """Parse a log's bytes row by row, naming the first bad line in a
    LogFormatError; a log that is not UTF-8 is named by its first bad byte."""
    columns: dict[str, tuple[list[int], list[tuple[float, float]]]] = {
        UWB: ([], []),
        VO: ([], []),
    }
    rows = _log_rows(path, data)
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
# a sensor field and the comma after it, as a little-endian uint32
_UWB_WORD = int.from_bytes(b"uwb,", "little")
_VO_WORD = int.from_bytes(b"vo,", "little")
# digits a number may hold, its dot left out: below 10**15 < 2**53, every
# sum of digits times powers of ten is an exact float64
_MAX_DIGITS = 15
# '0' in every byte of a uint64, and _KEEP[n] keeps its n last bytes (in
# memory order: the highest ones of a little-endian uint64)
_ZEROS = int.from_bytes(b"0" * 8, "little")
_KEEP = np.array([(1 << 64) - (1 << 8 * (8 - n)) for n in range(9)], np.uint64)


def _unaligned(data: bytes, dtype: str) -> np.ndarray:
    """``a[i]`` is the ``dtype`` value of ``data``'s bytes from byte ``i`` on:
    one overlapping, unaligned view of them, nothing copied."""
    size = np.dtype(dtype).itemsize
    return np.ndarray((len(data) - size + 1,), dtype, data, strides=(1,))


def _decimals(data: bytes, start, end, tenths: bool):
    """The numbers in the fields ``data[start:end]`` of a log, one per row,
    as float64: ``-?\\d+`` or, with ``tenths``, ``-?\\d+\\.\\d``, holding
    at most :data:`_MAX_DIGITS` digits. None if any field is not so.

    Each field's bytes after its sign are gathered right-aligned as one or
    two little-endian uint64 words, each byte XORed with ``'0'`` (a digit
    becomes its value, and only a digit becomes a value below 10) and the
    bytes left of the field zeroed. They read as a byte matrix whose dot,
    if any, sits in the same column in every row. Its digits are combined
    column by column, exactly; the sign is applied last, so ``-0.0``
    survives.
    """
    negative = np.frombuffer(data, np.uint8)[start] == ord("-")
    width = end - start - negative
    low, high = (3, _MAX_DIGITS + 1) if tenths else (1, _MAX_DIGITS)
    if width.min() < low or width.max() > high:
        return None
    w = int(width.max())
    n_words = (w + 7) // 8
    words = _unaligned(data, "<u8")
    gathered = np.empty((len(width), n_words), "<u8")
    for k in range(1, n_words + 1):
        keep = _KEEP.take(np.clip(width - 8 * (k - 1), 0, 8))
        gathered[:, -k] = (words[end - 8 * k] ^ _ZEROS) & keep
    d = gathered.view(np.uint8)[:, 8 * n_words - w :]
    if tenths:
        if (d[:, -2] != ord(".") ^ ord("0")).any():
            return None
        d[:, -2] = 0
    if d.max() > 9:
        return None
    value = np.zeros(len(d))
    for k in range(w):
        if not (tenths and k == w - 2):
            value *= 10
            value += d[:, k]
    if tenths:
        value /= 10
    return np.negative(value, out=value, where=negative)


def _read_canonical(data: bytes) -> StreamPair | None:
    """The pair of a log's bytes laid out exactly as :func:`write_log` writes them.

    None for any other file, valid or not (blank lines, quotes, other number
    spellings, interleaved sensors, ...): what this accepts, the row parser
    accepts with the same values. Every row is checked and parsed in one
    pass of numpy columns: the file ends with a line break, every row ends
    with ``\\r\\n`` and holds exactly three commas, sensor fields are
    ``uwb`` then ``vo``, and numbers are ``-?\\d+`` and ``-?\\d+\\.\\d`` of at
    most 15 digits (longer ones go to the row parser).
    """
    if not data.startswith(_HEADER_LINE):
        return None
    b = np.frombuffer(data, np.uint8)
    line_ends = np.flatnonzero(b == ord("\n"))
    commas = np.flatnonzero(b == ord(","))[len(LOG_HEADER) - 1 :]
    n_rows = len(line_ends) - 1
    if line_ends[-1] != len(b) - 1 or len(commas) != 3 * n_rows:
        return None
    starts, ends = line_ends[:-1] + 1, line_ends[1:] - 1
    if not (b[ends] == ord("\r")).all():
        return None
    # row i's commas, if every row holds three. It does once the fields
    # check out: a timestamp of at least one byte puts the first of these
    # after the row's start and a y field of at least three bytes puts the
    # third before its \r, so row i holds these three, and with 3 * n_rows
    # commas in all, no others
    commas = commas.reshape(n_rows, 3)
    # the sensor field and the comma after it; the rows after the first
    # n_uwb are vo rows, so the n_uwb uwb rows come first
    word = _unaligned(data, "<u4")[commas[:, 0] + 1]
    n_uwb = int(np.count_nonzero(word == _UWB_WORD))
    if not (0 < n_uwb < n_rows and (word[n_uwb:] & 0xFFFFFF == _VO_WORD).all()):
        return None
    t = _decimals(data, starts, commas[:, 0], tenths=False)
    x = _decimals(data, commas[:, 1] + 1, commas[:, 2], tenths=True)
    y = _decimals(data, commas[:, 2] + 1, ends, tenths=True)
    if t is None or x is None or y is None:
        return None
    streams = []
    for source, rows in ((UWB, slice(n_uwb)), (VO, slice(n_uwb, None))):
        # arrays of their own, set read-only: the stream adopts them uncopied
        t_ms = t[rows].astype(np.int64)
        xy = np.stack((x[rows], y[rows]), axis=1)
        t_ms.flags.writeable = xy.flags.writeable = False
        streams.append((t_ms, xy, source))
    try:
        return StreamPair(*(Stream(*s) for s in streams))
    except ValueError:  # timestamps that repeat or run backwards
        return None


def read_log(path) -> StreamPair:
    """Read a stream pair written by :func:`write_log`.

    The file is read once. A file laid out exactly as :func:`write_log`
    writes one is parsed in bulk. Any other file goes to the row-by-row
    parser, which accepts what the CSV module reads as four valid columns
    and raises :class:`LogFormatError` naming the offending line: for a file
    that is not UTF-8, the line of its first bad byte; otherwise the first
    malformed row, or the first timestamp that does not increase within its
    stream.
    """
    data = Path(path).read_bytes()
    pair = _read_canonical(data)
    return pair if pair is not None else _read_rows(path, data)
