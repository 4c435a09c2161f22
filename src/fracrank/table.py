"""The one CSV dialect fracrank reads and writes, and the writer of a run's files.

A table is a header row of column names, then one row per record, every line
ending in ``\\n``. Numbers are written with 12 significant digits
(``"%.12g"``); text fields are quoted as RFC 4180 does, and only when they
hold a comma, a quote or a line break. Non-finite numbers are rejected both
ways. Tables are formatted in chunks of ``CHUNK_ROWS`` rows, so no whole-file
string is built, and one parser, a single ``np.loadtxt`` call, reads every
table back.

A run writes its files through one ``Bundle``: each file goes to a temp file
beside its target, and the temp files are renamed into place only once every
one of them has been written, so a failed run leaves its output directory as
it found it. ``Bundle.write_in_child`` hands a large table to a forked child
(``os.fork``, so POSIX only) that formats and writes it while the caller
goes on computing; a run may start one such child per table.
"""

from __future__ import annotations

import errno
import os
import re
import warnings
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, Sequence

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


def _write(fd: int, chunks: Iterable[str]) -> None:
    with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


def _write_and_exit(pipe: int, fd: int, chunks: Iterable[str]) -> NoReturn:
    """The writer child: write ``chunks`` to ``fd``, send any error text down ``pipe``, exit.

    ``os._exit`` ends the child without running the caller's cleanup or
    flushing its buffers; the caller reads the pipe and the exit code.
    """
    status = 1
    try:
        _write(fd, chunks)
        status = 0
    except BaseException as exc:  # the child's top level: an interrupt is reported too
        os.write(pipe, (str(exc) or type(exc).__name__).encode("utf-8", "replace"))
    finally:
        os._exit(status)


class Bundle:
    """The files of one run in ``outdir``, renamed into place together.

    Use it as a context manager. ``write`` writes a file in this process and
    each ``write_in_child`` call in a forked child of its own, each file to a
    temp file beside its target. Leaving the block normally waits for the
    children in the order they were started, checks that no target is a
    directory, and only then renames the temp files into place, with the mode
    a plain ``open()`` would give them. On any error or interrupt it kills and
    reaps every child, unlinks the temp files and removes the directories that
    it created.
    """

    def __init__(self, outdir) -> None:
        self.outdir = Path(outdir)
        # Deepest first: the order in which a failed run removes them.
        self._created = [d for d in (self.outdir, *self.outdir.parents) if not os.path.lexists(d)]
        self._staged: list[tuple[Path, Path]] = []  # (temp file, target)
        self._children: list[tuple[int, int]] = []  # (pid, read end of its error pipe)

    def __enter__(self) -> "Bundle":
        try:
            self.outdir.mkdir(parents=True, exist_ok=True)
        except BaseException:
            self._abort()
            raise
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None:
            self._abort()
            return
        try:
            self._commit()
        except BaseException:
            self._abort()
            raise

    def _stage(self, name: str) -> int:
        tmp = self.outdir / f".{name}.{os.urandom(8).hex()}"
        # O_EXCL never opens a file or symlink that is already there; the
        # kernel applies the umask to 0o666, as a plain open() would.
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        self._staged.append((tmp, self.outdir / name))
        return fd

    def write(self, name: str, chunks: Iterable[str]) -> None:
        """Write text chunks to the temp file of ``outdir / name``."""
        _write(self._stage(name), chunks)

    def write_in_child(self, name: str, chunks: Iterable[str]) -> None:
        """Write text chunks to the temp file of ``outdir / name`` in a new forked child.

        The caller goes on meanwhile. The chunks are iterated in the child
        only, so lazy chunks (the ``format_*`` generators) are formatted there.
        The child must call no BLAS, which may hold locks that another thread
        took before the fork.
        """
        fd = self._stage(name)
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
            if pid == 0:
                _write_and_exit(write_end, fd, chunks)
            self._children.append((pid, read_end))
        except BaseException:
            os.close(read_end)
            raise
        finally:  # the parent's copies; the child never gets here
            os.close(write_end)
            os.close(fd)

    def _commit(self) -> None:
        while self._children:
            pid, pipe = self._children[0]
            with open(pipe, "rb", closefd=False) as fh:
                message = fh.read().decode("utf-8", "replace")
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del self._children[0]
            os.close(pipe)
            if message or code:
                raise TableError(message or f"table writer child exited with code {code}")
        for _, target in self._staged:
            if target.is_dir() and not target.is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        for tmp, target in self._staged:
            os.replace(tmp, target)
        self._staged.clear()

    def _abort(self) -> None:
        if self._children:
            import signal  # only a failed run needs it, so importing fracrank.cli does not

            for pid, pipe in self._children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(pipe)
            self._children.clear()
        for tmp, _ in self._staged:
            if os.path.lexists(tmp):
                os.unlink(tmp)
        for directory in self._created:
            try:
                os.rmdir(directory)
            except OSError:  # not empty, so not ours alone
                break


def write_bundle(outdir, files: dict[str, Iterable[str]]) -> None:
    """Write ``{name: chunks}`` into ``outdir`` as one ``Bundle``."""
    with Bundle(outdir) as bundle:
        for name, chunks in files.items():
            bundle.write(name, chunks)


def _decode_error(path: Path, header: Sequence[str], exc: UnicodeDecodeError) -> str:
    """``exc`` located in the file: the codec's message for the whole file, whose
    position is the byte offset in the file, and the data row that holds the byte.

    The one parser, ``np.loadtxt``, decodes in chunks, so the position in
    ``exc`` counts from the start of whichever chunk held the byte.
    """
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole:
        exc = whole
    else:  # the file changed since it was read
        return str(exc)
    lines = data[: exc.start].splitlines(keepends=True)
    done = [line for line in lines if line.endswith((b"\n", b"\r"))]  # the lines before its own
    row = 1 + sum(1 for line in done if line.strip(b"\r\n"))
    if done and done[0].decode("utf-8").strip().lower() == ",".join(header).lower():
        row -= 1
    return f"{exc} (row {row})"


def _convert_error(exc: ValueError) -> str:
    """numpy's message with the row of a conversion error counted from 1, as in every
    other error: numpy counts the data rows of that one error from 0.
    """
    return re.sub(r"(could not convert .* at row )(\d+)",
                  lambda m: f"{m[1]}{int(m[2]) + 1}", str(exc))


def read_table(path: Path, header: Sequence[str], text_columns: int = 0) -> list:
    """Read a table back: the first ``text_columns`` columns as tuples of str, the rest
    as float arrays.

    The header row may be left out. Blank lines are skipped. Every row must
    have one field per header name, and every number must be finite; errors
    name the data row (1-based, header and blank lines not counted), and a
    byte that is not UTF-8 is also named by its offset in the file.
    """
    path = Path(path)
    dtype = [(name, object if i < text_columns else float) for i, name in enumerate(header)]
    try:
        with open(path, encoding="utf-8", newline="") as fh, warnings.catch_warnings():
            has_header = fh.readline().strip().lower() == ",".join(header).lower()
            fh.seek(0)
            # An empty table is rejected below, with a clearer message.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # Given the path, loadtxt reads numbers about twice as fast as through
            # a file object, but it opens the file with universal newlines, which
            # would turn a quoted "\r" in a text field into "\n".
            rows = np.loadtxt(fh if text_columns else path, dtype=dtype, delimiter=",",
                              quotechar='"', comments=None, ndmin=1, skiprows=int(has_header),
                              encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TableError(f"{path.name}: {_decode_error(path, header, exc)}") from exc
    except ValueError as exc:
        raise TableError(f"{path.name}: {_convert_error(exc)}") from exc
    if rows.size == 0:
        raise TableError(f"{path.name}: no data rows")
    numbers = [np.ascontiguousarray(rows[name]) for name in header[text_columns:]]
    finite = np.logical_and.reduce([np.isfinite(column) for column in numbers])
    if not finite.all():
        raise TableError(f"{path.name}: row {int(np.argmin(finite)) + 1}: non-finite value")
    return [tuple(rows[name]) for name in header[:text_columns]] + numbers
