"""The one CSV dialect fracrank reads and writes, and the writer of a run's files.

A table is a header row of column names, then one row per record, every line
ending in ``\\n``. Numbers are written with 12 significant digits, byte for
byte as ``"%.12g"`` writes them; text fields are quoted as RFC 4180 does, and
only when they hold a comma, a quote or a line break. Non-finite numbers are
rejected both ways. ``as_written(x)`` is the float that x's cell reads back as.
Tables are formatted in chunks of ``CHUNK_ROWS`` rows, so no whole-file string
is built, and one parser, a single ``np.loadtxt`` call, reads every table back.

One numpy formatter writes every number. For a value v with decimal exponent
x it computes q = |v| * 10^(11 - x), the power of ten as two correctly rounded
factors (both exact in the fixed form, -4 <= x < 12), and D = rint(q). Those
at most four roundings leave q within 4.5e-4 of its exact value, so when q is
more than 1e-3 from a tie and between 1e11 + 1 and 1e12 - 1, D is the
correctly rounded 12-digit mantissa that "%.12g" prints and x its exponent,
and the cell is laid out from them by the rules of "%.12g". Zero is written
as "0" or "-0". Every other value (a tie or near-tie, or a q near either end
of the range, as for a power of ten) is formatted by "%.12g" itself, in one
batch per chunk, and its text goes into the row as it is. So no cell can
differ from "%.12g": it is either that text or built from digits proven equal
to it. About 0.2% of an fGn series and 0.4% of its CDF map take the "%" path.
Each cell is a fixed-width row of bytes with 0xFF in the places a value does
not use (UTF-8 never holds 0xFF); one ``bytes.translate`` per chunk deletes
them. At 2^20 values, ``sequence.csv`` and ``poincare.csv`` take about 0.33 s
to format and write in process on a 2-vCPU VM, against about 0.8 s when every
value went through "%".

A CLI run writes its files through the one ``Bundle`` that ``fracrank.cli._run``
opens on ``--out``: each file goes to a temp file beside its target, and the
temp files are renamed into place only once every one of them has been
written, so a failed run leaves its output directory as it found it.
``Bundle.write_in_child`` hands a run's large tables to one forked child
(``os.fork``, so POSIX only) that formats and writes them in turn while the
caller goes on computing.
"""

from __future__ import annotations

import errno
import os
import re
import signal
import stat
import warnings
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

CHUNK_ROWS = 1 << 16

_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


class TableError(ValueError):
    """A table that cannot be written or read in the fracrank dialect."""


def as_written(x) -> float:
    """The float that a table cell or ``summary.json`` holds for ``x``: its 12 digits."""
    return float(f"{float(x):.12g}")


def _quote(text: str) -> str:
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


# A cell is a row of bytes that ends in a byte for its separator; the writer
# deletes every 0xFF byte, which UTF-8 text never holds. A number's cell has a
# byte for each part that "%.12g" may write, in output order: a sign, the "0.000"
# that leads a fixed-form value below 1, the 12 digits each followed by a point,
# and an exponent; the parts it leaves out are 0xFF. A value whose digits are not
# proven holds its "%.12g" text instead.
_GAP = 0xFF
_LEAD, _DIGITS, _EXP, _WIDTH = 1, 6, 30, 36
# Decimal exponents x from -325 (zero) to 308, stored at x + 325.
_LOW_X = -325


def _exponent_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """By decimal exponent x: 10^(11 - x) as two correctly rounded factors, both exact
    when it is; the first template row of x's form (see ``_cell_templates``); and
    the bytes of x as an exponent."""
    x = np.arange(_LOW_X, 309)
    half = (11 - x) // 2  # from -149 to 168, and so is 11 - x - half
    tens = np.array([float(f"1e{k}") for k in range(-149, 169)])
    form = np.where((x < -4) | (x > 11), 17, x + 5)
    form[0] = 0  # zero
    exponent = np.frombuffer(b"".join(b"e%+04d" % k for k in x), np.uint8).reshape(-1, 5).copy()
    exponent[abs(x) < 100, 2] = _GAP  # a two-digit exponent
    return tens[half + 149], tens[11 - x - half + 149], (24 * form).astype(np.int16), exponent


def _digit_tables() -> tuple[np.ndarray, ...]:
    """For g below 10^4: its 4 ASCII digits as one uint32, and 2 * (m - 1) for the
    digits m that come up to the last nonzero one when g is the high, middle or low
    group of a 12-digit mantissa (0 when that group is all zeros)."""
    g = np.arange(10_000, dtype=np.int16)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + ord("0")
    kept = np.full_like(g, 4) - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0) - (g == 0)
    quads = digits.astype(np.uint8).view(np.uint32)[:, 0]
    return quads, *(np.where(kept > 0, 2 * (kept + shift - 1), 0) for shift in (0, 4, 8))


def _cell_templates() -> np.ndarray:
    """A number's cell before its digits go in, row ``24 * form + 2 * (m - 1) + sign``:
    ``m`` digits come up to its last nonzero one, ``sign`` is its sign bit, and ``form``
    is 0 for zero, ``5 + x`` for the fixed form of decimal exponent ``x`` in [-4, 11] and
    17 for the exponent form, whose exponent bytes go in later. Digits that stay are 0."""
    cells = np.full((18, 12, 2, _WIDTH), _GAP, np.uint8)
    m = np.arange(1, 13)
    cells[:, :, 1, 0] = ord("-")
    cells[0, :, :, _LEAD] = ord("0")
    for form in range(1, 18):
        x = form - 5 if form < 17 else 0  # the exponent form lays out its digits as x = 0 does
        stays = np.arange(12) < np.maximum(m, x + 1)[:, None]
        cells[form, :, :, _DIGITS:_EXP:2] = np.where(stays, 0, _GAP)[:, None]
        if x < 0:
            cells[form, :, :, _LEAD : _LEAD + 1 - x] = np.frombuffer(b"0.000"[: 1 - x], np.uint8)
        else:  # the point, if a digit follows it
            cells[form, m > x + 1, :, _DIGITS + 2 * x + 1] = ord(".")
    return cells.reshape(-1, _WIDTH)


_POWER_HI, _POWER_LO, _FORM_ROW, _EXPONENT = _exponent_tables()
_EXPONENT_FORM_ROW = 24 * 17
_QUADS, _KEPT_HI, _KEPT_MID, _KEPT_LO = _digit_tables()
_TEMPLATES = _cell_templates()


def _number_cells(column: np.ndarray) -> np.ndarray:
    """A numeric column chunk as cells, each reading ``"%.12g" % value``; the module
    docstring gives the rule for the values that go through "%"."""
    v = np.asarray(column, dtype=float)
    if not np.isfinite(v).all():
        raise TableError("non-finite value in a table column")
    a = np.abs(v)
    with np.errstate(divide="ignore"):  # log10(0) is -inf: x = _LOW_X
        x = np.clip(np.floor(np.log10(a)), _LOW_X, 308).astype(np.intp) - _LOW_X
    q = a * _POWER_HI[x] * _POWER_LO[x]  # within 4.5e-4 of |v| * 10^(11 - x)
    d = np.rint(q)
    proven = (np.abs(q - d) < 0.499) & (np.abs(q - 5.5e11) < 4.5e11 - 1)
    d = np.where(proven, d, 1e11).astype(np.int64)  # 1e11 stands in for the rest
    top = d // 10**4
    hi, mid, lo = top // 10**4, top % 10**4, d - top * 10**4  # the 4-digit groups of D
    row = np.maximum(np.maximum(_KEPT_HI[hi], _KEPT_MID[mid]), _KEPT_LO[lo])
    row += _FORM_ROW[x]
    row += np.signbit(v)
    cells = np.take(_TEMPLATES, row, axis=0)
    digits = np.empty((len(v), 3), np.uint32)
    digits[:, 0], digits[:, 1], digits[:, 2] = _QUADS[hi], _QUADS[mid], _QUADS[lo]
    np.maximum(cells[:, _DIGITS:_EXP:2], digits.view(np.uint8), out=cells[:, _DIGITS:_EXP:2])
    rows = np.flatnonzero(proven & (_FORM_ROW[x] == _EXPONENT_FORM_ROW))
    cells[rows, _EXP : _EXP + 5] = _EXPONENT[x[rows]]
    rows = np.flatnonzero(~proven & (a != 0))  # one batch; each text stands in its cell as it is
    texts = ("%.12g\n" * rows.size % tuple(v[rows].tolist())).encode().split()
    cells[rows] = np.frombuffer(b"".join(t.ljust(_WIDTH, b"\xff") for t in texts),
                                np.uint8).reshape(rows.size, _WIDTH)
    return cells


def _text_cells(fields: list[bytes]) -> np.ndarray:
    """Encoded text fields as cells."""
    lengths = np.fromiter(map(len, fields), np.intp, len(fields))
    cells = np.array(fields, f"S{lengths.max() + 1}")  # an S array drops trailing NULs,
    width = cells.itemsize  # so the lengths come from the fields
    cells = cells.view(np.uint8).reshape(-1, width)
    cells[np.arange(width) >= lengths[:, None]] = _GAP
    return cells


def _join(cells: list[np.ndarray]) -> str:
    """The rows of cells side by side, every 0xFF byte deleted.

    The last byte of each cell is its separator: a comma, or ``\\n`` in the last
    cell. A lone cell array is written in place.
    """
    out = cells[0] if len(cells) == 1 else np.concatenate(cells, axis=1)
    out[:, np.cumsum([c.shape[1] for c in cells[:-1]], dtype=np.intp) - 1] = ord(",")
    out[:, -1] = ord("\n")
    return out.tobytes().translate(None, b"\xff").decode("utf-8")


# A text chunk's cells are as wide as its widest field: with long fields, a chunk
# holds fewer rows so that it stays about this size.
_TEXT_CHUNK_BYTES = 64 * CHUNK_ROWS


def format_table(header: Sequence[str], columns: Sequence) -> Iterator[str]:
    """The table as text chunks: the header line, then up to ``CHUNK_ROWS`` rows at a time.

    Numeric columns are numpy arrays; any other sequence is a text column.
    """
    yield ",".join(header) + "\n"
    columns = [column if isinstance(column, np.ndarray)
               else [_quote(text).encode("utf-8") for text in column] for column in columns]
    widest = max([len(field) for column in columns if isinstance(column, list)
                  for field in column], default=1)
    step = max(1, min(CHUNK_ROWS, _TEXT_CHUNK_BYTES // max(widest, 1)))
    for lo in range(0, len(columns[0]), step):
        yield _join([_number_cells(column[lo : lo + step]) if isinstance(column, np.ndarray)
                     else _text_cells(column[lo : lo + step]) for column in columns])


def format_pairs(header: Sequence[str], values: np.ndarray) -> Iterator[str]:
    """Rows ``values[i], values[i+1]`` of a lag-1 return map, each value formatted once."""
    yield ",".join(header) + "\n"
    for lo in range(0, len(values) - 1, CHUNK_ROWS):
        cells = _number_cells(values[lo : lo + CHUNK_ROWS + 1])
        yield _join([cells[:-1], cells[1:]])


def _write(fd: int, chunks: Iterable[str]) -> None:
    with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


def _write_and_exit(pipe: int, tables: Iterable[tuple[int, Iterable[str]]]) -> NoReturn:
    """The writer child: write each ``(fd, chunks)``, send any error text down ``pipe``, exit.

    ``os._exit`` ends the child without running the caller's cleanup or
    flushing its buffers; the caller reads the pipe and the exit code.
    """
    status = 1
    try:
        for fd, chunks in tables:
            _write(fd, chunks)
        status = 0
    except BaseException as exc:  # the child's top level: an interrupt is reported too
        os.write(pipe, (str(exc) or type(exc).__name__).encode("utf-8", "replace"))
    finally:
        os._exit(status)


class Bundle:
    """The files of one run in ``outdir``, renamed into place together.

    Use it as a context manager. ``write`` writes a file in this process and
    ``write_in_child`` writes its tables in one forked child, each file to a
    temp file beside its target. Leaving the block normally waits for the
    child, checks that no target is a directory, and only then renames the
    temp files into place, with the mode a plain ``open()`` would give them.
    On any error or interrupt it kills and reaps the child, unlinks the temp
    files and removes the directories that it created. An interrupt
    (KeyboardInterrupt or SystemExit) that arrives once the first temp file has
    been renamed is raised only after the rest are renamed too, so outdir holds
    every file of this run and none of an earlier one.
    """

    def __init__(self, outdir) -> None:
        self.outdir = Path(outdir)
        # Deepest first: the order in which a failed run removes them.
        self._created = [d for d in (self.outdir, *self.outdir.parents) if not os.path.lexists(d)]
        self._staged: list[tuple[Path, Path]] = []  # (temp file, target)
        self._child: tuple[int, int] | None = None  # (pid, read end of its error pipe)

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

    def write_in_child(self, tables: Mapping[str, Iterable[str]]) -> None:
        """Write the text chunks of each ``name: chunks`` table, in order, to the temp
        file of ``outdir / name`` in one new forked child; call it once per bundle.

        The caller goes on meanwhile. The chunks are iterated in the child
        only, so lazy chunks (the ``format_*`` generators) are formatted there.
        The child must call no BLAS, which may hold locks that another thread
        took before the fork.
        """
        read_end, write_end = os.pipe()
        fds: list[int] = []
        try:
            for name in tables:
                fds.append(self._stage(name))
            pid = os.fork()
            if pid == 0:
                # A caller's SIGTERM handler is for the caller: this child just ends.
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                _write_and_exit(write_end, zip(fds, tables.values()))
            self._child = (pid, read_end)
        except BaseException:
            os.close(read_end)
            raise
        finally:  # the parent's copies; the child never gets here
            os.close(write_end)
            for fd in fds:
                os.close(fd)

    def _commit(self) -> None:
        if self._child is not None:
            pid, pipe = self._child
            with open(pipe, "rb", closefd=False) as fh:
                message = fh.read().decode("utf-8", "replace")
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            self._child = None
            os.close(pipe)
            if message or code:
                raise TableError(message or f"table writer child exited with code {code}")
        for _, target in self._staged:
            if target.is_dir() and not target.is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        try:
            for tmp, target in self._staged:
                os.replace(tmp, target)
        except (KeyboardInterrupt, SystemExit):
            # Once one file is in place, stopping would leave two runs in outdir:
            # rename the rest (a temp file that is gone is in place), then stop.
            if self._staged and not os.path.lexists(self._staged[0][0]):
                for tmp, target in self._staged:
                    if os.path.lexists(tmp):
                        os.replace(tmp, target)
            raise
        self._staged.clear()

    def _abort(self) -> None:
        if self._child is not None:
            pid, pipe = self._child
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(pipe)
            self._child = None
        for tmp, _ in self._staged:
            if os.path.lexists(tmp):
                os.unlink(tmp)
        for directory in self._created:
            try:
                os.rmdir(directory)
            except OSError:  # not empty, so not ours alone
                break


def require_regular_file(path, kind: str) -> None:
    """Refuse an input that is not a regular file (``kind`` names it in the message).

    A pipe with no writer blocks its open forever, and the readers open their
    input more than once: a table to read its header line and then the file, a
    corpus again to locate a byte that is not UTF-8.
    """
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise TableError(f"{path}: {kind} must be a regular file, not a pipe or device")


def _decode_error_in_file(path, exc: UnicodeDecodeError) -> tuple[UnicodeDecodeError, list]:
    """``exc`` of a reader that decodes ``path`` in chunks, located in the file: the codec's
    error for the whole file, whose position is the byte offset in the file, and the lines
    before the one that holds the byte, each with its line end. If the file now decodes,
    it changed since it was read, and ``exc`` is raised again.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole:
        lines = data[: whole.start].splitlines(keepends=True)
        return whole, [line for line in lines if line.endswith((b"\n", b"\r"))]
    raise exc


def _convert_error(exc: ValueError) -> str:
    """numpy's message with the row of a conversion error counted from 1, as in every
    other error: numpy counts the data rows of that one error from 0.
    """
    return re.sub(r"(could not convert .* at row )(\d+)",
                  lambda m: f"{m[1]}{int(m[2]) + 1}", str(exc))


def read_table(path: Path, header: Sequence[str], text_columns: int = 0) -> list:
    """Read a table back: the first ``text_columns`` columns as tuples of str, the rest
    as float arrays.

    The file must be a regular file. The header row may be left out. Blank
    lines are skipped. Every row must have one field per header name, and
    every number must be finite; errors name the data row (1-based, header and
    blank lines not counted), and a byte that is not UTF-8 is also named by its
    offset in the file.
    """
    path = Path(path)
    require_regular_file(path, "a table")
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
        whole, done = _decode_error_in_file(path, exc)
        row = 1 + sum(1 for line in done if line.strip(b"\r\n"))  # blank lines are not rows
        if done and done[0].decode("utf-8").strip().lower() == ",".join(header).lower():
            row -= 1
        raise TableError(f"{path.name}: {whole} (row {row})") from exc
    except ValueError as exc:
        raise TableError(f"{path.name}: {_convert_error(exc)}") from exc
    if rows.size == 0:
        raise TableError(f"{path.name}: no data rows")
    numbers = [np.ascontiguousarray(rows[name]) for name in header[text_columns:]]
    finite = np.logical_and.reduce([np.isfinite(column) for column in numbers])
    if not finite.all():
        raise TableError(f"{path.name}: row {int(np.argmin(finite)) + 1}: non-finite value")
    return [tuple(rows[name]) for name in header[:text_columns]] + numbers
