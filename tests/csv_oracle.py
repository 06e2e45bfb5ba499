"""Row-by-row reference for formatting CSV rows.

``csv_blocks`` is the block writer from before rows were formatted as
byte matrices, copied as it was: one Python ``row_format % row`` per row,
a block of rows at a time. ``uwbvo.core.csv_blocks`` builds each block
in numpy and must give exactly the bytes of this reference's text for
every value a writer can receive. Here a ``%s`` column holds the words
themselves, not codes into a table of words.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

_ROWS_PER_BLOCK = 4096


def csv_blocks(row_format: str, *columns) -> Iterator[str]:
    """The text of one ``row_format % row`` line per row of the columns, a
    block of rows at a time: what ``csv`` writes for rows of numbers and
    plain words, which need no quoting. A numpy column becomes Python
    values one block at a time."""
    for i in range(0, len(columns[0]), _ROWS_PER_BLOCK):
        block = (c[i : i + _ROWS_PER_BLOCK] for c in columns)
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in block))
        yield "".join([row_format % row for row in rows])
