import errno
import os
import re
import stat
import struct

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
)

from conftest import assert_no_child_left, load_script, traced_peak, write_table

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e22, 1.7976931348623157e308, 1 / 3, -2 / 3,
               1.0, 7.0, -12.0, 123456789012.0, 1e-5, 0.1]


TABLE_SPEED = load_script("table_speed.py")  # its "%.12g" oracles


class TestWriterBytes:
    def test_edge_values(self, tmp_path):
        write_table(tmp_path / "t.csv", format_table(("value",), [np.array(EDGE_VALUES)]))
        assert (tmp_path / "t.csv").read_bytes() == TABLE_SPEED.oracle_column(
            np.array(EDGE_VALUES)).encode()

    def test_integer_column(self, tmp_path):
        n = np.array([4, 16, 1024, 1048576])
        d = np.array([0.5, 1 / 3, 2.0, 1e-9])
        write_table(tmp_path / "t.csv", format_table(("n", "d"), [n, d]))
        want = "n,d\n" + "".join(f"{int(a)},{b:.12g}\n" for a, b in zip(n, d))
        assert (tmp_path / "t.csv").read_text() == want

    @pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_chunk_boundary(self, tmp_path, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        write_table(tmp_path / "t.csv", format_table(("value",), [x]))
        assert (tmp_path / "t.csv").read_bytes() == TABLE_SPEED.oracle_column(x).encode()

    @pytest.mark.parametrize("n", [2, 3, CHUNK_ROWS, CHUNK_ROWS + 1, CHUNK_ROWS + 2])
    def test_pairs_chunk_boundary(self, tmp_path, n):
        x = np.random.default_rng(n).random(n)
        write_table(tmp_path / "p.csv", format_pairs(("x", "y"), x))
        assert (tmp_path / "p.csv").read_bytes() == TABLE_SPEED.oracle_pairs(x).encode()

    def test_ids_quoted_only_when_needed(self, tmp_path):
        ids = ("plain", "a,b", 'say "hi"', "x\ny", "cr\rlf", " spaced ")
        write_table(tmp_path / "t.csv", format_table(("id", "v"), [ids, np.arange(6.0)]))
        assert (tmp_path / "t.csv").read_bytes() == (
            b'id,v\nplain,0\n"a,b",1\n"say ""hi""",2\n"x\ny",3\n"cr\rlf",4\n spaced ,5\n')
        assert read_table(tmp_path / "t.csv", ("id", "v"), text_columns=1)[0] == ids

    @pytest.mark.parametrize("columns", [
        [np.arange(65536.0), np.arange(65540.0)],
        [("d",) * CHUNK_ROWS, np.arange(65540.0)],
    ], ids=["numbers", "ids"])
    def test_columns_of_different_lengths_rejected(self, columns):
        with pytest.raises(TableError, match=r"^table columns differ in length: \[65536, 65540\]$"):
            list(format_table(("a", "b"), columns))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_and_no_file_left(self, tmp_path, bad):
        x = np.zeros(CHUNK_ROWS + 5)
        x[-1] = bad
        with pytest.raises(TableError, match="non-finite"):
            with Bundle(tmp_path) as bundle:
                bundle.write("t.csv", format_table(("value",), [x]))
        assert list(tmp_path.iterdir()) == []


def percent_g(values) -> str:
    return "".join("%.12g\n" % v for v in values)


def powers_of_ten_and_neighbours():
    """Each power of ten from 1e-5 to 1e16, where "%.12g" changes form or the digit
    count changes, with the doubles one ulp either side."""
    powers = [float(f"1e{k}") for k in range(-5, 17)]
    return [np.nextafter(p, toward) for p in powers for toward in (0.0, np.inf)] + powers


NUMBER_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                999999999999.5, 1000000000000.5, 123456789012.5, -123456789012.5,
                *[np.nextafter(v, toward) for v in (1e-4, 1e12) for toward in (0.0, np.inf)],
                *powers_of_ten_and_neighbours()]


def finite_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


EVERY_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(finite_from_bits).filter(np.isfinite),
)


class TestNumbersMatchPercentG:
    """Every number cell is the text of ``"%.12g" % value``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(EVERY_FINITE, min_size=1, max_size=40))
    def test_every_finite_double(self, values):
        x = np.array(values)
        assert "".join(format_table(("value",), [x])) == "value\n" + percent_g(x.tolist())

    def test_edges(self):
        x = np.array(NUMBER_EDGES)
        assert "".join(format_table(("value",), [x])) == "value\n" + percent_g(NUMBER_EDGES)

    def test_random_bit_patterns(self):
        x = np.random.default_rng(5).integers(0, 2**64, 200_000, dtype=np.uint64).view(float)
        x = x[np.isfinite(x)]
        assert "".join(format_table(("value",), [x])) == "value\n" + percent_g(x.tolist())

    def test_int64_column(self):
        n = np.array([0, 1, -7, 999_999_999_999, 10**12, 2**53 + 1, -(2**63), 2**63 - 1])
        assert "".join(format_table(("n",), [n])) == "n\n" + percent_g(n.tolist())

    @pytest.mark.parametrize("n", [CHUNK_ROWS, CHUNK_ROWS + 1, CHUNK_ROWS + 2])
    def test_pairs_change_form_at_chunk_boundaries(self, n):
        rng = np.random.default_rng(n)
        scale = np.where(np.arange(n) % 2 == 0, 1e-7, 1e13)  # exponent form, then fixed
        scale[CHUNK_ROWS - 3 :: 3] = 0.5
        x = rng.random(n) * scale
        x[CHUNK_ROWS - 1] = 1e-5
        rows = [f"{a},{b}\n" for a, b in zip(percent_g(x).split(), percent_g(x[1:]).split())]
        assert "".join(format_pairs(("x", "y"), x)) == "x,y\n" + "".join(rows)


class TestTextCells:
    IDS = ("a\x00", "\x00", "two\x00\x00", "", "naïve", "日本語", "é,è", 'q"x', "l\nm\x00",
           "plain")

    def expected(self, ids, x) -> bytes:
        quote = [f'"{t.replace(chr(34), chr(34) * 2)}"' if re.search(r'[,"\r\n]', t) else t
                 for t in ids]
        return ("id,v\n" + "".join(f"{t},{v:.12g}\n" for t, v in zip(quote, x))).encode()

    def test_nul_non_ascii_and_quoted_ids(self):
        x = np.arange(len(self.IDS)) / 3.0
        text = "".join(format_table(("id", "v"), [self.IDS, x]))
        assert text.encode() == self.expected(self.IDS, x)

    def test_long_id_keeps_the_chunks(self):
        ids = tuple(f"d{i}" for i in range(1000))
        ids = ids[:500] + ("x" * 100_000 + "\x00",) + ids[501:]
        x = np.arange(1000.0)
        chunks = []
        peak = traced_peak(lambda: chunks.extend(format_table(("id", "v"), [ids, x])))
        assert len(chunks) == 2  # the header and one chunk of rows
        assert peak < 2 << 20  # no other id is padded to the long one's width
        assert "".join(chunks).encode() == self.expected(ids, x)

    @pytest.mark.parametrize("n, last_only", [
        pytest.param(n, False, id=str(n)) for n in (CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1)
    ] + [pytest.param(CHUNK_ROWS + 1, True, id=f"{CHUNK_ROWS + 1}-last-only")])
    def test_ids_at_chunk_boundaries(self, n, last_only):
        ids = tuple(f"d{i}" if i % 3 else f'"d,{i}"\r\n' for i in range(n))
        if last_only:  # only the last id needs quotes: a plain chunk, then a quoted one
            ids = tuple(f"d{i}" for i in range(n - 1)) + ('"d,last"\r\n',)
        x = np.random.default_rng(n).standard_normal(n)
        assert "".join(format_table(("id", "v"), [ids, x])).encode() == self.expected(ids, x)


ID_CHARS = st.characters(codec="utf-8")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.text(ID_CHARS), st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=20))
def test_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    ids = tuple(doc_id for doc_id, _ in rows)
    x = np.array([v for _, v in rows])
    write_table(path, format_table(("id", "x"), [ids, x]))
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
            bundle.write_in_child({"t.csv": ["x\n"]})
            bundle.write("new.csv", ["x\n"])
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == mode


class TestBundle:
    def test_files_appear_only_at_commit(self, tmp_path):
        x = np.arange(3.0 * CHUNK_ROWS)
        with Bundle(tmp_path) as bundle:
            bundle.write_in_child({"big.csv": format_table(("value",), [x]), "p.csv": ["p\n"]})
            bundle.write("small.csv", ["small\n"])
            assert all(p.name.startswith(".") for p in tmp_path.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv", "p.csv", "small.csv"]
        assert (tmp_path / "big.csv").read_bytes() == TABLE_SPEED.oracle_column(x).encode()
        assert (tmp_path / "small.csv").read_text() == "small\n"

    def test_error_removes_what_it_made(self, tmp_path):
        with pytest.raises(KeyError, match="stop"):
            with Bundle(tmp_path / "a" / "b") as bundle:
                bundle.write_in_child({"big.csv": format_table(("value",), [np.zeros(CHUNK_ROWS)]),
                                       "p.csv": ["p\n"]})
                bundle.write("small.csv", ["x\n"])
                raise KeyError("stop")
        assert list(tmp_path.iterdir()) == []
        assert_no_child_left()

    def test_error_in_the_first_table_leaves_no_temp_file(self, tmp_path):
        def failing():
            raise RuntimeError(f"first table failed in process {os.getpid()}")
            yield

        with pytest.raises(TableError, match=r"^first table failed in process") as info:
            with Bundle(tmp_path) as bundle:
                bundle.write_in_child({"a.csv": failing(), "b.csv": ["b\n"]})
                bundle.write("small.csv", ["x\n"])
        assert int(str(info.value).rsplit(" ", 1)[1]) != os.getpid()  # raised in the child
        assert list(tmp_path.iterdir()) == []
        assert_no_child_left()

    def test_refused_fork_leaves_nothing_open(self, tmp_path, monkeypatch):
        def refused():
            raise OSError(errno.EAGAIN, "fork refused")

        fds = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", refused)
        with pytest.raises(OSError, match="fork refused"):
            with Bundle(tmp_path / "out") as bundle:
                bundle.write_in_child({"a.csv": ["a\n"], "b.csv": ["b\n"]})
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
        write_table(tmp_path / "t.csv", format_table(header, columns))
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
