"""Row-by-row reference for reading stream logs.

``read_log`` is the log reader from before streams became columnar, copied
as it was, with two changes: it returns the two lists of samples instead of
a :class:`~uwbvo.core.StreamPair`, which now holds columnar streams, and
``_log_rows`` decodes the whole file before it reads a row, so a file that
is not UTF-8 is named by its first bad byte wherever its first bad row is.
``uwbvo.core.read_log`` parses files laid out exactly as ``write_log``
writes them in bulk and hands every other file to its own row parser. It
must accept the same files as this reference with the same values, and
reject the rest with the same message.
"""
from __future__ import annotations

import csv
import io
from typing import Iterator

from uwbvo.core import LOG_HEADER, SENSORS, UWB, VO, LogFormatError, Position2D, Sample


def _log_rows(path) -> Iterator[list[str]]:
    """CSV rows of a log; bytes that are not UTF-8 and CSV errors raise LogFormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
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


def read_log(path) -> tuple[list[Sample], list[Sample]]:
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
    return streams[UWB], streams[VO]

