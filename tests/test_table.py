import os
import re
import stat
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracrank.table import (
    CHUNK_ROWS,
    TableError,
    format_pairs,
    format_table,
    read_table,
    write_atomic,
)

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
        write_atomic(tmp_path / "t.csv", format_table(("value",), [np.array(EDGE_VALUES)]))
        assert (tmp_path / "t.csv").read_bytes() == oracle_column(EDGE_VALUES)

    def test_integer_column(self, tmp_path):
        n = np.array([4, 16, 1024, 1048576])
        d = np.array([0.5, 1 / 3, 2.0, 1e-9])
        write_atomic(tmp_path / "t.csv", format_table(("n", "d"), [n, d]))
        want = "n,d\n" + "".join(f"{int(a)},{b:.12g}\n" for a, b in zip(n, d))
        assert (tmp_path / "t.csv").read_text() == want

    @pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_chunk_boundary(self, tmp_path, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        write_atomic(tmp_path / "t.csv", format_table(("value",), [x]))
        assert (tmp_path / "t.csv").read_bytes() == oracle_column(x)

    @pytest.mark.parametrize("n", [2, 3, CHUNK_ROWS, CHUNK_ROWS + 1, CHUNK_ROWS + 2])
    def test_pairs_chunk_boundary(self, tmp_path, n):
        x = np.random.default_rng(n).random(n)
        write_atomic(tmp_path / "p.csv", format_pairs(("x", "y"), x))
        assert (tmp_path / "p.csv").read_bytes() == oracle_pairs(x)

    def test_ids_quoted_only_when_needed(self, tmp_path):
        ids = ("plain", "a,b", 'say "hi"', "x\ny", "cr\rlf", " spaced ")
        write_atomic(tmp_path / "t.csv", format_table(("id", "v"), [ids, np.arange(6.0)]))
        assert (tmp_path / "t.csv").read_bytes() == (
            b'id,v\nplain,0\n"a,b",1\n"say ""hi""",2\n"x\ny",3\n"cr\rlf",4\n spaced ,5\n')

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_and_no_file_left(self, tmp_path, bad):
        x = np.zeros(CHUNK_ROWS + 5)
        x[-1] = bad
        with pytest.raises(TableError, match="non-finite"):
            write_atomic(tmp_path / "t.csv", format_table(("value",), [x]))
        assert list(tmp_path.iterdir()) == []


# Python 3.10's csv module rejects NUL anywhere in a line.
ID_CHARS = st.characters(codec="utf-8",
                         exclude_characters="\x00" if sys.version_info < (3, 11) else "")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.text(ID_CHARS), st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=20))
def test_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    ids = tuple(doc_id for doc_id, _ in rows)
    x = np.array([v for _, v in rows])
    write_atomic(path, format_table(("id", "x"), [ids, x]))
    back_ids, back_x = read_table(path, ("id", "x"), text_columns=1)
    assert back_ids == ids
    assert back_x.tolist() == [float("%.12g" % v) for v in x.tolist()]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_write_atomic_mode_follows_umask(tmp_path, umask, mode):
    path = tmp_path / "t.csv"
    path.write_text("old\n")
    os.chmod(path, 0o600 if mode == 0o644 else 0o644)
    old = os.umask(umask)
    try:
        write_atomic(path, ["x\n"])
        write_atomic(tmp_path / "new.csv", ["x\n"])
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == mode


class TestReader:
    def write(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        return path

    def test_header_optional_case_insensitive_blank_lines(self, tmp_path):
        for text in ("VALUE\n1\n\n2\n", "1\n2", "value\r\n1\r\n2\r\n"):
            np.testing.assert_array_equal(
                read_table(self.write(tmp_path, text), ("value",))[0], [1.0, 2.0])

    def test_columns(self, tmp_path):
        n, h = read_table(self.write(tmp_path, "N,h\n16,0.5\n32,0.25\n"), ("N", "h"))
        np.testing.assert_array_equal(n, [16, 32])
        np.testing.assert_array_equal(h, [0.5, 0.25])

    @pytest.mark.parametrize("text, header, text_columns, message", [
        ("value\n1\nnan\n", ("value",), 0, "t.csv: row 2: non-finite value"),
        ("value\n1\n-inf\n", ("value",), 0, "t.csv: row 2: non-finite value"),
        ("id,v\na,1\n\nb,1e999\n", ("id", "v"), 1, "t.csv: row 2: non-finite value"),
        ("value\n", ("value",), 0, "t.csv: no data rows"),
        ("", ("id", "v"), 1, "t.csv: no data rows"),
        ("value\n1\nabc\n", ("value",), 0, "could not convert string 'abc'"),
        ("1,2\n3,4\n", ("value",), 0, "t.csv: 2 columns, want 1"),
        ("id,v\na,1\nb,2,3\n", ("id", "v"), 1, "t.csv: row 2: 3 fields, want 2"),
        ("id,v\na,one\n", ("id", "v"), 1, "could not convert string to float"),
    ])
    def test_rejects(self, tmp_path, text, header, text_columns, message):
        with pytest.raises(TableError, match=re.escape(message)):
            read_table(self.write(tmp_path, text), header, text_columns)
