import errno
import os
import re
import stat
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracrank.table import (
    Bundle,
    CHUNK_ROWS,
    TableError,
    format_pairs,
    format_table,
    read_table,
    write_bundle,
)

from conftest import assert_no_child_left

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e22, 1.7976931348623157e308, 1 / 3, -2 / 3,
               1.0, 7.0, -12.0, 123456789012.0, 1e-5, 0.1]


def oracle_column(values) -> bytes:
    """The series format as the per-row f-string writer produced it."""
    return ("\n".join(["value"] + [f"{float(v):.12g}" for v in values]) + "\n").encode()


def oracle_pairs(values) -> bytes:
    rows = [f"{x:.12g},{y:.12g}" for x, y in zip(values[:-1], values[1:])]
    return ("\n".join(["x,y"] + rows) + "\n").encode()


class TestWriterBytes:
    def test_edge_values(self, tmp_path):
        write_bundle(tmp_path, {"t.csv": format_table(("value",), [np.array(EDGE_VALUES)])})
        assert (tmp_path / "t.csv").read_bytes() == oracle_column(EDGE_VALUES)

    def test_integer_column(self, tmp_path):
        n = np.array([4, 16, 1024, 1048576])
        d = np.array([0.5, 1 / 3, 2.0, 1e-9])
        write_bundle(tmp_path, {"t.csv": format_table(("n", "d"), [n, d])})
        want = "n,d\n" + "".join(f"{int(a)},{b:.12g}\n" for a, b in zip(n, d))
        assert (tmp_path / "t.csv").read_text() == want

    @pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_chunk_boundary(self, tmp_path, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        write_bundle(tmp_path, {"t.csv": format_table(("value",), [x])})
        assert (tmp_path / "t.csv").read_bytes() == oracle_column(x)

    @pytest.mark.parametrize("n", [2, 3, CHUNK_ROWS, CHUNK_ROWS + 1, CHUNK_ROWS + 2])
    def test_pairs_chunk_boundary(self, tmp_path, n):
        x = np.random.default_rng(n).random(n)
        write_bundle(tmp_path, {"p.csv": format_pairs(("x", "y"), x)})
        assert (tmp_path / "p.csv").read_bytes() == oracle_pairs(x)

    def test_ids_quoted_only_when_needed(self, tmp_path):
        ids = ("plain", "a,b", 'say "hi"', "x\ny", "cr\rlf", " spaced ")
        write_bundle(tmp_path, {"t.csv": format_table(("id", "v"), [ids, np.arange(6.0)])})
        assert (tmp_path / "t.csv").read_bytes() == (
            b'id,v\nplain,0\n"a,b",1\n"say ""hi""",2\n"x\ny",3\n"cr\rlf",4\n spaced ,5\n')
        assert read_table(tmp_path / "t.csv", ("id", "v"), text_columns=1)[0] == ids

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_and_no_file_left(self, tmp_path, bad):
        x = np.zeros(CHUNK_ROWS + 5)
        x[-1] = bad
        with pytest.raises(TableError, match="non-finite"):
            write_bundle(tmp_path, {"t.csv": format_table(("value",), [x])})
        assert list(tmp_path.iterdir()) == []


ID_CHARS = st.characters(codec="utf-8")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.text(ID_CHARS), st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=20))
def test_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    ids = tuple(doc_id for doc_id, _ in rows)
    x = np.array([v for _, v in rows])
    write_bundle(path.parent, {path.name: format_table(("id", "x"), [ids, x])})
    back_ids, back_x = read_table(path, ("id", "x"), text_columns=1)
    assert back_ids == ids
    assert back_x.tolist() == [float("%.12g" % v) for v in x.tolist()]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_mode_follows_umask(tmp_path, umask, mode):
    path = tmp_path / "t.csv"
    path.write_text("old\n")
    os.chmod(path, 0o600 if mode == 0o644 else 0o644)
    old = os.umask(umask)
    try:
        with Bundle(tmp_path) as bundle:
            bundle.write_in_child("t.csv", ["x\n"])
            bundle.write("new.csv", ["x\n"])
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == mode


def stuck():
    """Chunks that never come: a writer child iterating them sleeps until killed."""
    time.sleep(30)
    yield "late\n"


class TestBundle:
    def test_files_appear_only_at_commit(self, tmp_path):
        x = np.arange(3.0 * CHUNK_ROWS)
        with Bundle(tmp_path) as bundle:
            bundle.write_in_child("big.csv", format_table(("value",), [x]))
            bundle.write_in_child("p.csv", ["p\n"])
            bundle.write("small.csv", ["small\n"])
            assert all(p.name.startswith(".") for p in tmp_path.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv", "p.csv", "small.csv"]
        assert (tmp_path / "big.csv").read_bytes() == oracle_column(x)
        assert (tmp_path / "small.csv").read_text() == "small\n"

    def test_error_removes_what_it_made(self, tmp_path):
        with pytest.raises(KeyError, match="stop"):
            with Bundle(tmp_path / "a" / "b") as bundle:
                bundle.write_in_child("big.csv", format_table(("value",), [np.zeros(CHUNK_ROWS)]))
                bundle.write("small.csv", ["x\n"])
                raise KeyError("stop")
        assert list(tmp_path.iterdir()) == []
        assert_no_child_left()

    def test_first_child_error_kills_the_second(self, tmp_path):
        def failing():
            raise RuntimeError(f"first writer failed in process {os.getpid()}")
            yield

        start = time.perf_counter()
        with pytest.raises(TableError, match=r"^first writer failed in process") as info:
            with Bundle(tmp_path) as bundle:
                bundle.write_in_child("a.csv", failing())
                bundle.write_in_child("b.csv", stuck())
                bundle.write("small.csv", ["x\n"])
        assert int(str(info.value).rsplit(" ", 1)[1]) != os.getpid()  # raised in the child
        assert time.perf_counter() - start < 10  # the second child was killed, not waited for
        assert list(tmp_path.iterdir()) == []
        assert_no_child_left()

    def test_failed_second_fork_reaps_the_first(self, tmp_path, monkeypatch):
        real_fork = os.fork
        forks = []

        def fork_once():
            if forks:
                raise OSError(errno.EAGAIN, "fork refused")
            forks.append(True)
            return real_fork()

        fds = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", fork_once)
        start = time.perf_counter()
        with pytest.raises(OSError, match="fork refused"):
            with Bundle(tmp_path / "out") as bundle:
                bundle.write_in_child("a.csv", stuck())
                bundle.write_in_child("b.csv", ["b\n"])
        assert time.perf_counter() - start < 10
        assert len(forks) == 1
        assert list(tmp_path.iterdir()) == []
        assert_no_child_left()
        assert len(os.listdir("/proc/self/fd")) == fds  # no pipe or temp file left open


class TestReader:
    def write(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        return path

    @pytest.mark.parametrize("text_columns", [0, 1])
    def test_non_utf8_byte_named_by_file_offset_and_row(self, tmp_path, text_columns):
        # Far past the first chunk that the reader decodes; data row r holds r - 1.
        n, row = 1 << 17, 100_000
        values = np.arange(n, dtype=float)
        header = ("id", "v") if text_columns else ("value",)
        columns = ([tuple(f"d{i}" for i in range(n))] if text_columns else []) + [values]
        write_bundle(tmp_path, {"t.csv": format_table(header, columns)})
        path = tmp_path / "t.csv"
        data = path.read_bytes()
        data = data.replace(b"\n", b"\n\n\r\n", 1)  # blank lines after the header: not rows
        line = b"\nd%d," % (row - 1) if text_columns else b"\n%d\n" % (row - 1)
        offset = data.index(line) + 1
        path.write_bytes(data[:offset] + b"\xff" + data[offset + 1:])
        with pytest.raises(TableError) as info:
            read_table(path, header, text_columns)
        assert str(info.value) == (f"t.csv: 'utf-8' codec can't decode byte 0xff in position "
                                   f"{offset}: invalid start byte (row {row})")

    def test_header_optional_case_insensitive_blank_lines(self, tmp_path):
        for text in ("VALUE\n1\n\n2\n", "1\n2", "value\r\n1\r\n2\r\n"):
            np.testing.assert_array_equal(
                read_table(self.write(tmp_path, text), ("value",))[0], [1.0, 2.0])

    def test_columns(self, tmp_path):
        n, h = read_table(self.write(tmp_path, "N,h\n16,0.5\n32,0.25\n"), ("N", "h"))
        np.testing.assert_array_equal(n, [16, 32])
        np.testing.assert_array_equal(h, [0.5, 0.25])

    # Edge files of the numeric reader, which hands the path to np.loadtxt: the
    # values each gives, or the start of its message (numpy words its own
    # messages differently across versions).
    @pytest.mark.parametrize("data, want", [
        (b"value\r\n1.5\r\n-2\r\n", [1.5, -2.0]),
        (b"value\r1.5\r-2\r", [1.5, -2.0]),
        (b"value\n\n1.5\n\n\n-2\n\n", [1.5, -2.0]),
        (b" VaLue \n1.5\n-2\n", [1.5, -2.0]),
        (b"\xef\xbb\xbfvalue\n1.5\n", "t.csv: could not convert string '\\ufeffvalue' to float"),
        (b"value\n1.5\n-2\xff\n", "t.csv: 'utf-8' codec can't decode byte 0xff in position"),
        (b"value\n1.5\nabc\n", "t.csv: could not convert string 'abc' to float"),
        (b"value\n1.5\n-2,3\n", "t.csv: the dtype passed requires 1 columns but 2 were found"),
        (b"value\n1.5\nnan\n", "t.csv: row 2: non-finite value"),
        (b"", "t.csv: no data rows"),
    ], ids=["crlf", "lone_cr", "blank_lines", "header_case_spaces", "bom", "non_utf8",
            "bad_token", "wide_row", "nan", "empty"])
    def test_numeric_edge_files(self, tmp_path, data, want):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        if isinstance(want, list):
            assert read_table(path, ("value",))[0].tolist() == want
        else:
            with pytest.raises(TableError, match="^" + re.escape(want)):
                read_table(path, ("value",))

    @pytest.mark.parametrize("text, header, text_columns, message", [
        ("value\n1\nnan\n", ("value",), 0, "t.csv: row 2: non-finite value"),
        ("value\n1\n-inf\n", ("value",), 0, "t.csv: row 2: non-finite value"),
        ("id,v\na,1\n\nb,1e999\n", ("id", "v"), 1, "t.csv: row 2: non-finite value"),
        ("value\n", ("value",), 0, "t.csv: no data rows"),
        ("", ("id", "v"), 1, "t.csv: no data rows"),
        ("value\n1\nabc\n", ("value",), 0, "could not convert string 'abc'"),
        ("1,2\n3,4\n", ("value",), 0,
         "t.csv: the dtype passed requires 1 columns but 2 were found"),
        ("id,v\na,1\nb,2,3\n", ("id", "v"), 1,
         "t.csv: the dtype passed requires 2 columns but 3 were found at row 2"),
        ("id,v\na,one\n", ("id", "v"), 1, "t.csv: could not convert string 'one' to float"),
    ])
    def test_rejects(self, tmp_path, text, header, text_columns, message):
        with pytest.raises(TableError, match=re.escape(message)):
            read_table(self.write(tmp_path, text), header, text_columns)

    # numpy counts the data rows of a conversion error from 0; every error here
    # names the data row from 1, with the header and blank lines not counted.
    @pytest.mark.parametrize("text, header, text_columns, row", [
        ("value\n1\nabc\n3\n", ("value",), 0, 2),
        ("1\nabc\n", ("value",), 0, 2),
        ("value\n\n1\n\n\nabc\n", ("value",), 0, 2),
        ("value\r\nabc\r\n", ("value",), 0, 1),
        ("id,raw_f,raw_q,f,q\na,1,1,1,1\nb,1,x,1,1\n", ("id", "raw_f", "raw_q", "f", "q"), 1, 2),
        ("id,v\n\na,1\n\n\"b\nc\",2\nd,x at row 0\n", ("id", "v"), 1, 3),
        ("a,1\nb,\n", ("id", "v"), 1, 2),
    ], ids=["header", "no_header", "blank_lines", "first_row", "scores", "scores_blank_quoted",
            "scores_empty_field"])
    def test_conversion_error_names_the_data_row(self, tmp_path, text, header, text_columns, row):
        with pytest.raises(TableError, match=r"^t\.csv: could not convert string .* at row "
                                             f"{row}, column"):
            read_table(self.write(tmp_path, text), header, text_columns)
