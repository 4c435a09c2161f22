"""The one CSV dialect fracrank reads and writes.

A table is a header row of column names, then one row per record, every line
ending in ``\\n``. Numbers are written with 12 significant digits
(``"%.12g"``); text fields are quoted as RFC 4180 does, and only when they
hold a comma, a quote or a line break. Non-finite numbers are rejected both
ways. Tables are formatted and written in chunks of ``CHUNK_ROWS`` rows into a
temp file that is renamed into place, so a reader never sees half a file and
no whole-file string is built.
"""

from __future__ import annotations

import csv
import os
import re
import tempfile
import warnings
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

CHUNK_ROWS = 1 << 16

_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


class TableError(ValueError):
    """A table that cannot be written or read in the fracrank dialect."""


def _quote(text: str) -> str:
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _lines(column: np.ndarray) -> str:
    """A numeric column chunk as text, each value to 12 digits on its own line."""
    if not np.isfinite(column).all():
        raise TableError("non-finite value in a table column")
    # One % over a repeated format formats the whole chunk in C, faster than
    # a call per value; the fields are the same bytes as "%.12g" % x.
    return ("%.12g\n" * len(column)) % tuple(column.tolist())


def _cells(column) -> list[str]:
    """Formatted fields of one column chunk: quoted text, or numbers to 12 digits."""
    if not isinstance(column, np.ndarray):
        return [_quote(text) for text in column]
    return _lines(column).splitlines()


def _rows(cells: list[list[str]]) -> str:
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def format_table(header: Sequence[str], columns: Sequence) -> Iterator[str]:
    """The table as text chunks: the header line, then ``CHUNK_ROWS`` rows at a time.

    Numeric columns are numpy arrays; any other sequence is a text column.
    """
    yield ",".join(header) + "\n"
    for lo in range(0, len(columns[0]), CHUNK_ROWS):
        chunk = [column[lo : lo + CHUNK_ROWS] for column in columns]
        if len(chunk) == 1 and isinstance(chunk[0], np.ndarray):
            yield _lines(chunk[0])  # one numeric column: its lines are the rows
        else:
            yield _rows([_cells(column) for column in chunk])


def format_pairs(header: Sequence[str], values: np.ndarray) -> Iterator[str]:
    """Rows ``values[i], values[i+1]`` of a lag-1 return map, each value formatted once."""
    yield ",".join(header) + "\n"
    for lo in range(0, len(values) - 1, CHUNK_ROWS):
        cells = _cells(values[lo : lo + CHUNK_ROWS + 1])
        yield _rows([cells[:-1], cells[1:]])


def _umask() -> int:
    mask = os.umask(0o077)
    os.umask(mask)
    return mask


def write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write text chunks to a temp file beside ``path``, then rename it into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
            # mkstemp creates the file 0600; give it the mode open() would.
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse(fh, width: int, text_columns: int) -> tuple[list, np.ndarray]:
    if not text_columns:
        with warnings.catch_warnings():
            # An empty table is rejected by the caller, with a clearer message.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return [], np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    rows = [row for row in csv.reader(fh) if row]
    for i, row in enumerate(rows, 1):
        if len(row) != width:
            raise TableError(f"row {i}: {len(row)} fields, want {width}")
    text = [tuple(row[j] for row in rows) for j in range(text_columns)]
    numbers = np.array([row[text_columns:] for row in rows], dtype=float)
    return text, numbers.reshape(len(rows), width - text_columns)


def read_table(path: Path, header: Sequence[str], text_columns: int = 0) -> list:
    """Read a table back: the first ``text_columns`` columns as tuples of str, the rest
    as float arrays.

    The header row may be left out. Blank lines are skipped. Every row must
    have one field per header name, and every number must be finite; errors
    name the data row (1-based, header and blank lines not counted).
    """
    path = Path(path)
    width = len(header)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            if fh.readline().strip().lower() != ",".join(header).lower():
                fh.seek(0)
            text, numbers = _parse(fh, width, text_columns)
    except (csv.Error, ValueError) as exc:
        raise TableError(f"{path.name}: {exc}") from exc
    if numbers.shape[0] == 0:
        raise TableError(f"{path.name}: no data rows")
    if numbers.shape[1] != width - text_columns:
        raise TableError(f"{path.name}: {numbers.shape[1]} columns, want {width}")
    finite = np.isfinite(numbers).all(axis=1)
    if not finite.all():
        raise TableError(f"{path.name}: row {int(np.argmin(finite)) + 1}: non-finite value")
    return text + [np.ascontiguousarray(column) for column in numbers.T]
