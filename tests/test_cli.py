import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import fracrank.rankstats
import fracrank.table
from fracrank.cli import main
from fracrank.relevance import RelevanceTable, mutual_sequence
from fracrank.synth import (
    fgn,
    linear_trend,
    power_law_ranks,
    read_series_csv,
    white_noise,
    write_series_csv,
)
from fracrank.table import CHUNK_ROWS, read_table

from conftest import (
    MICRO_CORPUS,
    MICRO_F,
    MICRO_MUTUAL_F_OF_Q,
    MICRO_Q,
    assert_no_child_left,
    flat_sums_series,
    python_env,
    run_at_simd_levels,
    run_python,
    write_table,
)
from test_corpus import GENERATED_QUERY, generated_case, generated_corpus


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def read_dir(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def write_series(path: Path, values) -> Path:
    return write_table(path, write_series_csv(values))


# Every accepted --kind spelling, its options, and the generator call it stands for.
# The linear kinds read no --seed.
SYNTH_KINDS = [
    ("white", ["--seed", "4"], lambda: white_noise(256, 4)),
    ("white_noise", ["--seed", "4"], lambda: white_noise(256, 4)),
    ("fgn", ["--h", "0.7", "--seed", "4"], lambda: fgn(256, 0.7, 4)),
    ("linear", ["--slope", "-0.5", "--intercept", "3"], lambda: linear_trend(256, -0.5, 3.0)),
    ("linear_trend", ["--slope", "-0.5", "--intercept", "3"],
     lambda: linear_trend(256, -0.5, 3.0)),
    ("power", ["--beta", "1.2", "--noise", "0.1", "--seed", "4"],
     lambda: power_law_ranks(256, 1.2, 0.1, 4)),
    ("power_law_ranks", ["--beta", "1.2", "--noise", "0.1", "--seed", "4"],
     lambda: power_law_ranks(256, 1.2, 0.1, 4)),
]

# synth manifests as the previous release wrote them, one per generator family.
OLD_SYNTH_MANIFESTS = {
    "fgn": {"h": 0.7, "beta": None, "noise": 0.0, "slope": None, "intercept": None,
            "kind": "fgn", "length": 256, "seed": 11},
    "linear_trend": {"h": None, "beta": None, "noise": 0.0, "slope": 2.0, "intercept": 1.0,
                     "kind": "linear_trend", "length": 3, "seed": 0},
    "power": {"h": None, "beta": 1.0, "noise": 0.02, "slope": None, "intercept": None,
              "kind": "power", "length": 512, "seed": 3},
}
OLD_SYNTH_SERIES = {
    "fgn": lambda: fgn(256, 0.7, 11),
    "linear_trend": lambda: linear_trend(3, 2.0, 1.0),
    "power": lambda: power_law_ranks(512, 1.0, 0.02, 3),
}


# score and analyze manifests as the previous release wrote them, with every
# config field, and the options of the direct run each one replays. "INPUT"
# stands for the input file the test writes.
OLD_RUN_MANIFESTS = {
    "analyze_series": (
        "analyze",
        {"scores": None, "series": "INPUT", "ranked_by": "q", "read_off": "f", "trim": 0.1,
         "grid": 16, "include_zero_scores": False, "dfa_windows": [8, 16, 32, 64],
         "rs_windows": [16, 32, 64, 128]},
        ["--series", "INPUT", "--trim", "0.1", "--grid", "16",
         "--dfa-windows", "8,16,32,64", "--rs-windows", "16,32,64,128"],
    ),
    "analyze_scores": (
        "analyze",
        {"scores": "INPUT", "series": None, "ranked_by": "f", "read_off": "q", "trim": 0.05,
         "grid": 32, "include_zero_scores": True, "dfa_windows": None, "rs_windows": None},
        ["--scores", "INPUT", "--ranked-by", "f", "--read-off", "q", "--include-zero-scores"],
    ),
    "score": (
        "score",
        {"corpus": "INPUT", "query": "alpha beta"},
        ["--corpus", "INPUT", "--query", "alpha beta"],
    ),
}


# A manifest of a valid run with one field set to a bad value (DROP: removed),
# and the message rerun exits with: (command, field, value, message).
DROP = object()
BROKEN_MANIFEST_FIELDS = {
    "wrong_type": ("synth", "length", "x",
                   "Invalid value for '--len': 'x' is not a valid integer"),
    "unknown_kind": ("synth", "kind", "pink", "Invalid value for '--kind': 'pink' is not one of"),
    "short_length": ("synth", "length", 1,
                     "Invalid value for '--len': 1 is not in the range x>=2."),
    "no_kind": ("synth", "kind", DROP, "Missing option '--kind'."),
    "trim_out_of_range": ("analyze", "trim", 2.0,
                          "Invalid value for '--trim': 2.0 is not in the range 0.0<=x<=0.25."),
    # int() would silently truncate 4.7 and read true as 1.
    "float_windows": ("analyze", "dfa_windows", [4.7, 8.9, 16, 32],
                      "Invalid value for '--dfa-windows': bad window list '4.7,8.9,16,32'"),
    "bool_windows": ("analyze", "rs_windows", [True, 16, 32, 64],
                     "Invalid value for '--rs-windows': bad window list 'True,16,32,64'"),
    # Too large for a C long, the type of the estimators' window arrays.
    "huge_windows": ("analyze", "dfa_windows", [4, 8, 16, 99999999999999999999],
                     "Invalid value for '--dfa-windows': bad window list "
                     "'4,8,16,99999999999999999999'"),
    # The manifest's input is a series; --ranked-by z is still a usage error.
    "ranked_by_z": ("analyze", "ranked_by", "z", "Invalid value for '--ranked-by': 'z'"),
    "zero_scores_int": ("analyze", "include_zero_scores", 1,
                        "Option '--include-zero-scores' does not take a value"),
    "unknown_field": ("analyze", "foo", 1, "unknown field 'foo'"),
    "out_field": ("analyze", "out", "OUT", "unknown field 'out'"),
    "query_bool": ("score", "query", True, "query = true is not a value for --query"),
    # The manifest is of --kind white, which reads no noise.
    "unread_noise": ("synth", "noise", 5.0, "--kind white does not read --noise"),
}


# scores.csv for the micro corpus and query "alpha beta", as the regex tokenizer
# and full per-token counts produced it.
MICRO_SCORES_CSV = """id,raw_f,raw_q,f,q
d1,3,0.597253156409,0.75,1
d2,1,0.34657359028,0.25,0.580279210852
d3,4,0.402359478109,1,0.673683301278
"""


class TestScore:
    def test_micro_corpus_golden_bytes(self, runner, tmp_path):
        run_ok(runner, ["score", "--corpus", str(MICRO_CORPUS),
                        "--query", "Alpha, beta alpha", "--out", str(tmp_path)])
        assert (tmp_path / "scores.csv").read_bytes() == MICRO_SCORES_CSV.encode()

    def test_micro_corpus(self, runner, tmp_path):
        run_ok(runner, ["score", "--corpus", str(MICRO_CORPUS),
                        "--query", "alpha beta", "--out", str(tmp_path)])
        rows = (tmp_path / "scores.csv").read_text().splitlines()
        assert rows[0] == "id,raw_f,raw_q,f,q"
        f = [float(r.split(",")[3]) for r in rows[1:]]
        q = [float(r.split(",")[4]) for r in rows[1:]]
        np.testing.assert_allclose(f, MICRO_F, atol=1e-11)
        np.testing.assert_allclose(q, MICRO_Q, atol=1e-11)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary == {"n_documents": 3, "n_terms": 2, "n_zero_score": 0}

    def test_no_match_exits_nonzero(self, runner, tmp_path):
        result = runner.invoke(main, ["score", "--corpus", str(MICRO_CORPUS),
                                      "--query", "zzz", "--out", str(tmp_path)])
        assert result.exit_code != 0
        assert "query matches nothing" in result.output

    @pytest.mark.parametrize("case", ["lone_surrogate_id", "non_utf8_byte",
                                      "bad_line_before_non_utf8_byte"])
    def test_bad_corpus_names_its_line(self, runner, tmp_path, case):
        lines = [b'{"id": "d%d", "text": "alpha beta"}\n' % i for i in range(2000)]
        if case == "lone_surrogate_id":
            lines[1] = b'{"id": "\\ud800", "text": "alpha"}\n'
            message = "Error: line 2: 'id' holds a lone surrogate, not valid UTF-8"
        else:  # far past the first chunk that text mode decodes
            offset = len(b"".join(lines[:1500])) + 2
            lines[1500] = lines[1500][:2] + b"\xff" + lines[1500][3:]
            message = (f"Error: line 1501: 'utf-8' codec can't decode byte 0xff in position "
                       f"{offset}: invalid start byte")
        if case == "bad_line_before_non_utf8_byte":  # in the chunk that holds the byte
            lines[1499] = b"not json\n"
            message = "Error: line 1500: malformed record"
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b"".join(lines))
        out = tmp_path / "out"
        run_ok(runner, ["score", "--corpus", str(MICRO_CORPUS), "--query", "alpha",
                        "--out", str(out)])
        before = tree(out)
        result = runner.invoke(main, ["score", "--corpus", str(corpus), "--query", "alpha",
                                      "--out", str(out)], catch_exceptions=False)
        assert result.exit_code == 1
        assert message in result.output
        assert tree(out) == before

    @pytest.mark.parametrize("text, message", [
        ('{"id": 7, "text": "alpha"}\n', "Error: line 1: 'id' must be a string"),
        # Blank and whitespace-only lines are skipped, but still counted.
        ('{"id": "a", "text": "alpha"}\n\n{"id": 7, "text": "alpha"}\n',
         "Error: line 3: 'id' must be a string"),
        ('{"id": "a", "text": "alpha"}\n \t\nnot json\n', "Error: line 3: malformed record"),
    ], ids=["id_not_str", "after_blank_line", "after_whitespace_line"])
    def test_bad_record_named_by_its_line(self, runner, tmp_path, text, message):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(main, ["score", "--corpus", str(corpus), "--query", "alpha",
                                      "--out", str(out)], catch_exceptions=False)
        assert result.exit_code == 1
        assert message in result.output
        assert not out.exists()

    def test_single_document(self, runner, tmp_path):
        corpus = tmp_path / "one.jsonl"
        corpus.write_text('{"id": "d", "text": "alpha twice alpha"}\n')
        out = tmp_path / "out"
        run_ok(runner, ["score", "--corpus", str(corpus),
                        "--query", "alpha", "--out", str(out)])
        row = (out / "scores.csv").read_text().splitlines()[1]
        assert row.split(",")[3] == "1" and row.split(",")[4] == "1"


class TestAnalyze:
    def test_scores_input_builds_mutual_sequence(self, runner, tmp_path):
        score_dir = tmp_path / "s"
        run_ok(runner, ["score", "--corpus", str(MICRO_CORPUS),
                        "--query", "alpha beta", "--out", str(score_dir)])
        # Too short for the estimators, so analyze fails and writes nothing; the
        # scores table it reads still yields the golden mutual sequence.
        result = runner.invoke(main, ["analyze", "--scores", str(score_dir / "scores.csv"),
                                      "--ranked-by", "q", "--read-off", "f",
                                      "--out", str(tmp_path / "a")])
        assert result.exit_code != 0
        assert not (tmp_path / "a").exists()
        table = RelevanceTable.from_csv(score_dir / "scores.csv")
        seq = mutual_sequence(table, "q", "f", include_zero_scores=False)
        np.testing.assert_allclose(seq, MICRO_MUTUAL_F_OF_Q, atol=1e-11)

    def test_fgn_series_full_bundle(self, runner, tmp_path):
        sdir = tmp_path / "synth"
        run_ok(runner, ["synth", "--kind", "fgn", "--h", "0.8", "--len", "8192",
                        "--seed", "7", "--out", str(sdir)])
        adir = tmp_path / "analysis"
        run_ok(runner, ["analyze", "--series", str(sdir / "series.csv"),
                        "--out", str(adir)])
        for name in ("sequence.csv", "dfa.csv", "hurst_pointwise.csv",
                     "poincare.csv", "summary.json", "manifest.json"):
            assert (adir / name).exists(), name
        summary = json.loads((adir / "summary.json").read_text())
        assert abs(summary["h_regression"] - 0.8) < 0.15  # single seed, loose
        assert summary["fractal_dim"] == pytest.approx(2 - summary["h_regression"])
        assert 0.0 < summary["h_regression_r2"] <= 1.0
        assert summary["poincare_cdf_mapped"] is True
        assert "zipf_error" in summary  # fGn has negative values

    @pytest.mark.parametrize("synth_args, zipf_keys", [
        (["--kind", "power", "--beta", "1"],
         {"zipf_loglog_r2", "zipf_loglog_slope", "zipf_n_used", "zipf_semilog_r2",
          "zipf_semilog_slope"}),
        (["--kind", "fgn", "--h", "0.7"], {"zipf_error"}),  # fGn has negative values
    ], ids=["zipf-fit", "zipf-error"])
    def test_summary_key_set(self, runner, tmp_path, synth_args, zipf_keys):
        # The occupancy and Zipf keys are the field names of OccupancyReport and
        # ZipfFit: renaming a field renames a summary.json key, and fails here.
        sdir = tmp_path / "s"
        run_ok(runner, ["synth", *synth_args, "--len", "256", "--seed", "1", "--out", str(sdir)])
        run_ok(runner, ["analyze", "--series", str(sdir / "series.csv"),
                        "--out", str(tmp_path / "a")])
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert set(summary) == {
            "alpha", "alpha_r2", "chi2_uniform", "fractal_dim", "h_regression",
            "h_regression_r2", "n_values", "occupied_cells", "occupied_fraction",
            "poincare_cdf_mapped",
        } | zipf_keys

    def test_self_ranked_sequence_non_increasing(self, runner, tmp_path):
        corpus = tmp_path / "c.jsonl"
        # 80 documents: enough for every estimator, so the bundle is written.
        lines = [json.dumps({"id": f"d{i}", "text": "alpha " * (i + 1) + "pad " * (80 - i)})
                 for i in range(80)]
        corpus.write_text("\n".join(lines) + "\n")
        sdir = tmp_path / "s"
        run_ok(runner, ["score", "--corpus", str(corpus),
                        "--query", "alpha", "--out", str(sdir)])
        run_ok(runner, ["analyze", "--scores", str(sdir / "scores.csv"),
                        "--ranked-by", "q", "--read-off", "q", "--out", str(tmp_path / "a")])
        seq = read_series_csv(tmp_path / "a" / "sequence.csv")
        assert np.all(np.diff(seq) <= 0)

    def test_constant_series_diagnostic(self, runner, tmp_path):
        series = tmp_path / "flat.csv"
        series.write_text("value\n" + "1.0\n" * 64)
        result = runner.invoke(main, ["analyze", "--series", str(series),
                                      "--out", str(tmp_path / "a")])
        assert result.exit_code != 0
        assert "dfa" in result.output

    def test_zero_fluctuation_at_a_dfa_window(self, runner, tmp_path):
        # A period-8 square wave: its profile is linear in every window-4 segment.
        wave = np.tile([1.0, 1, 1, 1, -1, -1, -1, -1], 64)
        series = write_series(tmp_path / "square.csv", wave)
        out = tmp_path / "a"
        result = runner.invoke(main, ["analyze", "--series", str(series),
                                      "--dfa-windows", "4,8,16,32", "--out", str(out)],
                               catch_exceptions=False)
        assert result.exit_code == 1
        assert "Error: dfa failed: zero fluctuation at some window" in result.output
        assert not out.exists()

    def test_all_zero_scores_named(self, runner, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("id,raw_f,raw_q,f,q\nd0,0,0,0,0\nd1,0,0,0,0\n", encoding="utf-8")
        out = tmp_path / "a"
        result = runner.invoke(main, ["analyze", "--scores", str(scores), "--out", str(out)],
                               catch_exceptions=False)
        assert result.exit_code == 1
        assert "Error: no nonzero-score documents to sequence" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("windows", ["0,16,32,64,128", "-16,16,32,64,128",
                                         "1,16,32,64,128", "16,32,64,128,257"])
    def test_invalid_rs_windows_clean_error(self, runner, tmp_path, windows):
        sdir = tmp_path / "s"
        run_ok(runner, ["synth", "--kind", "white", "--len", "256", "--seed", "1",
                        "--out", str(sdir)])
        result = runner.invoke(main, ["analyze", "--series", str(sdir / "series.csv"),
                                      "--rs-windows", windows, "--out", str(tmp_path / "a")],
                               catch_exceptions=False)
        assert result.exit_code == 1
        assert "R/S windows must satisfy 2 <= w <= N" in result.output
        assert "Traceback" not in result.output

    def test_special_ids_score_then_analyze(self, runner, tmp_path):
        special = ["a,b", 'say "hi"', "x\ny"]
        ids = special + [f"d{i}" for i in range(77)]
        corpus = tmp_path / "c.jsonl"
        texts = ["alpha " * (i % 7 + 1) + "pad " * (i % 11 + 1) for i in range(len(ids))]
        corpus.write_text("".join(json.dumps({"id": doc_id, "text": text}) + "\n"
                                  for doc_id, text in zip(ids, texts)))
        sdir = tmp_path / "s"
        run_ok(runner, ["score", "--corpus", str(corpus), "--query", "alpha", "--out", str(sdir)])
        text = (sdir / "scores.csv").read_text()
        assert '\n"a,b",' in text and '\n"say ""hi""",' in text and '\n"x\ny",' in text
        assert "\nd0," in text  # plain ids stay unquoted
        table = RelevanceTable.from_csv(sdir / "scores.csv")
        assert list(table.ids) == ids
        run_ok(runner, ["analyze", "--scores", str(sdir / "scores.csv"),
                        "--out", str(tmp_path / "a")])
        seq = mutual_sequence(table, "q", "f", include_zero_scores=False)
        np.testing.assert_array_equal(read_series_csv(tmp_path / "a" / "sequence.csv"),
                                      [float(f"{v:.12g}") for v in seq])

    @pytest.mark.parametrize("include_zero", [False, True])
    @pytest.mark.parametrize("read_off", ["f", "q"])
    @pytest.mark.parametrize("ranked_by", ["f", "q"])
    def test_sequence_is_mutual_sequence(self, runner, tmp_path, ranked_by, read_off, include_zero):
        # Ties in both measures, and every 28th document matches no query term.
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"d{i}", "text": "alpha " * (i % 7) + "beta " * (i % 4)
                        + "pad " * (i % 11 + 1)}) + "\n" for i in range(200)))
        sdir = tmp_path / "s"
        run_ok(runner, ["score", "--corpus", str(corpus), "--query", "alpha beta",
                        "--out", str(sdir)])
        run_ok(runner, ["analyze", "--scores", str(sdir / "scores.csv"), "--ranked-by", ranked_by,
                        "--read-off", read_off, "--out", str(tmp_path / "a")]
               + ["--include-zero-scores"] * include_zero)
        table = RelevanceTable.from_csv(sdir / "scores.csv")
        seq = mutual_sequence(table, ranked_by, read_off, include_zero_scores=include_zero)
        assert seq.size == (200 if include_zero else 192)
        np.testing.assert_array_equal(read_series_csv(tmp_path / "a" / "sequence.csv"),
                                      [float(f"{v:.12g}") for v in seq])

    def test_non_finite_series_rejected(self, runner, tmp_path):
        values = np.random.default_rng(0).standard_normal(2000).astype(str)
        values[1234] = "nan"
        series = tmp_path / "series.csv"
        series.write_text("value\n" + "\n".join(values) + "\n")
        result = runner.invoke(main, ["analyze", "--series", str(series),
                                      "--out", str(tmp_path / "a")], catch_exceptions=False)
        assert result.exit_code == 1
        assert "series.csv: row 1235: non-finite value" in result.output
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_scores_rejected(self, runner, tmp_path, bad):
        sdir = tmp_path / "s"
        run_ok(runner, ["score", "--corpus", str(MICRO_CORPUS),
                        "--query", "alpha beta", "--out", str(sdir)])
        rows = (sdir / "scores.csv").read_text().splitlines()
        fields = rows[2].split(",")
        fields[4] = bad
        rows[2] = ",".join(fields)
        (sdir / "scores.csv").write_text("\n".join(rows) + "\n")
        result = runner.invoke(main, ["analyze", "--scores", str(sdir / "scores.csv"),
                                      "--out", str(tmp_path / "a")], catch_exceptions=False)
        assert result.exit_code == 1
        assert "scores.csv: row 2: non-finite value" in result.output
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("length, extra", [(40, []), (256, ["--rs-windows", "0,16,32,64"]),
                                                (256, ["--trim", "nan"])])
    def test_failed_analyze_writes_nothing(self, runner, tmp_path, length, extra):
        sdir = tmp_path / "s"
        run_ok(runner, ["synth", "--kind", "white", "--len", str(length), "--seed", "1",
                        "--out", str(sdir)])
        out = tmp_path / "a"
        out.mkdir()
        (out / "keep.txt").write_text("untouched")
        result = runner.invoke(main, ["analyze", "--series", str(sdir / "series.csv"),
                                      "--out", str(out)] + extra, catch_exceptions=False)
        # A non-finite --trim is a usage error; the other runs fail in the estimators.
        assert result.exit_code == (2 if extra[:1] == ["--trim"] else 1)
        assert "Traceback" not in result.output
        assert read_dir(out) == {"keep.txt": b"untouched"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_values_named_error(self, runner, tmp_path):
        # The values fit a float, but D(n) * 1e307 does not.
        series = write_series(tmp_path / "huge.csv", fgn(8192, 0.75, 3) * 1e307)
        result = runner.invoke(main, ["analyze", "--series", str(series),
                                      "--out", str(tmp_path / "a")], catch_exceptions=False)
        assert result.exit_code == 1
        assert "dfa failed: values too large" in result.output
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("scale", [2.0**-600, 1e-160], ids=["2^-600", "1e-160"])
    def test_tiny_values_scale_free(self, runner, tmp_path, scale):
        # Squares of these values underflow unless the estimators rescale first.
        x = fgn(8192, 0.75, 3)
        summaries = []
        for name, values in (("plain", x), ("tiny", x * scale)):
            series = write_series(tmp_path / f"{name}.csv", values)
            run_ok(runner, ["analyze", "--series", str(series), "--out", str(tmp_path / name)])
            summaries.append(json.loads((tmp_path / name / "summary.json").read_text()))
        plain, tiny = summaries
        assert tiny.keys() == plain.keys()
        for key, value in plain.items():
            if isinstance(value, float):
                assert tiny[key] == pytest.approx(value, rel=1e-12, abs=0), key
            else:
                assert tiny[key] == value, key

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_values_scale_invariant(self, runner, tmp_path):
        x = white_noise(256, 1)
        summaries = []
        for name, values in (("plain", x), ("large", x * 1e100)):
            series = write_series(tmp_path / f"{name}.csv", values)
            run_ok(runner, ["analyze", "--series", str(series), "--out", str(tmp_path / name)])
            summaries.append(json.loads((tmp_path / name / "summary.json").read_text()))
        plain, large = summaries
        for key in ("alpha", "h_regression"):
            assert large[key] == pytest.approx(plain[key], abs=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_flat_running_sum_prefixes_left_out(self, runner, tmp_path):
        # Two prefixes have R == 0 with S > 0; their ln(R/S) would be -inf, a value
        # that no table may hold. They are skipped, and the run succeeds.
        series = write_series(tmp_path / "flat.csv", flat_sums_series())
        run_ok(runner, ["analyze", "--series", str(series), "--out", str(tmp_path / "a")])
        n = np.loadtxt(tmp_path / "a" / "hurst_pointwise.csv", delimiter=",", skiprows=1)[:, 0]
        assert n.size == 18 and not {168_201, 290_001} & set(n.tolist())

    @pytest.mark.parametrize("trim", ["2", "-1", "0.26"])
    def test_trim_out_of_range_is_usage_error(self, runner, tmp_path, trim):
        sdir = tmp_path / "s"
        run_ok(runner, ["synth", "--kind", "white", "--len", "256", "--seed", "1",
                        "--out", str(sdir)])
        result = runner.invoke(main, ["analyze", "--series", str(sdir / "series.csv"),
                                      "--trim", trim, "--out", str(tmp_path / "a")],
                               catch_exceptions=False)
        assert result.exit_code == 2
        assert f"Error: Invalid value for '--trim': {float(trim)} is not in the range " \
               "0.0<=x<=0.25." in result.output
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("trim", ["0", "0.25"])
    def test_trim_bounds_accepted(self, runner, tmp_path, trim):
        sdir = tmp_path / "s"
        run_ok(runner, ["synth", "--kind", "power", "--beta", "1", "--len", "256",
                        "--seed", "1", "--out", str(sdir)])
        run_ok(runner, ["analyze", "--series", str(sdir / "series.csv"),
                        "--trim", trim, "--out", str(tmp_path / "a")])
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert "zipf_error" not in summary and summary["zipf_n_used"] > 0

    def test_repeated_dfa_windows_rejected(self, runner, tmp_path):
        series = write_series(tmp_path / "w.csv", white_noise(512, 1))
        result = runner.invoke(main, ["analyze", "--series", str(series),
                                      "--dfa-windows", "4,4,4,4", "--out", str(tmp_path / "a")],
                               catch_exceptions=False)
        assert result.exit_code == 1
        assert "dfa failed: insufficient scaling range: fewer than 4 distinct windows" \
            in result.output
        assert not (tmp_path / "a").exists()

    def test_constant_zipf_window_reported(self, runner, tmp_path):
        # 90 equal values with 5 larger and 5 smaller ones among them: DFA and R/S
        # have spread, the 5%-trimmed sorted window has none.
        values = np.full(100, 0.5)
        values[[3, 22, 41, 58, 77]] = 0.9
        values[[11, 30, 49, 68, 94]] = 0.1
        series = write_series(tmp_path / "s.csv", values)
        run_ok(runner, ["analyze", "--series", str(series), "--out", str(tmp_path / "a")])
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert summary["zipf_error"] == "no spread in the trimmed window"
        assert not any(key.startswith("zipf_") and key != "zipf_error" for key in summary)
        assert "alpha" in summary and "h_regression" in summary

    def test_grid_bound(self, runner, tmp_path):
        # G = 10^5 would be 10^10 cell counts; it is rejected before any allocation,
        # and before the input is read: the DFA windows are bad too.
        sdir = tmp_path / "s"
        run_ok(runner, ["synth", "--kind", "white", "--len", "256", "--seed", "1",
                        "--out", str(sdir)])
        result = runner.invoke(main, ["analyze", "--series", str(sdir / "series.csv"),
                                      "--grid", "100000", "--dfa-windows", "4,4,4,4",
                                      "--out", str(tmp_path / "a")],
                               catch_exceptions=False)
        assert result.exit_code == 2
        assert "Error: Invalid value for '--grid': 100000 is not in the range 1<=x<=4096." \
            in result.output
        assert "dfa failed" not in result.output
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("option", ["--dfa-windows", "--rs-windows"])
    def test_bad_window_list_is_usage_error(self, runner, tmp_path, option):
        series = write_series(tmp_path / "w.csv", white_noise(512, 1))
        # Not an integer, and too large for a C long.
        for text in ("16,x", "4,8,16,99999999999999999999"):
            result = runner.invoke(main, ["analyze", "--series", str(series), option, text,
                                          "--out", str(tmp_path / "a")], catch_exceptions=False)
            assert result.exit_code == 2
            assert f"Error: Invalid value for '{option}': bad window list '{text}'" \
                in result.output
            assert not (tmp_path / "a").exists()

    def test_requires_exactly_one_input(self, runner, tmp_path):
        result = runner.invoke(main, ["analyze", "--out", str(tmp_path)])
        assert result.exit_code != 0


class TestSynth:
    def test_deterministic_files(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["synth", "--kind", "fgn", "--h", "0.8", "--len", "8192", "--seed", "7"]
        run_ok(runner, args + ["--out", str(a)])
        run_ok(runner, args + ["--out", str(b)])
        assert read_dir(a) == read_dir(b)

    def test_linear(self, runner, tmp_path):
        run_ok(runner, ["synth", "--kind", "linear", "--slope", "2",
                        "--intercept", "1", "--len", "3", "--out", str(tmp_path)])
        np.testing.assert_array_equal(
            read_series_csv(tmp_path / "series.csv"), [3, 5, 7]
        )

    def test_non_finite_parameter_writes_nothing(self, runner, tmp_path):
        result = runner.invoke(main, ["synth", "--kind", "linear", "--slope", "nan",
                                      "--intercept", "0", "--len", "8",
                                      "--out", str(tmp_path / "o")], catch_exceptions=False)
        assert result.exit_code == 2
        assert "Error: Invalid value for '--slope': nan is not a finite number" in result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, options, generator", SYNTH_KINDS,
                             ids=[k for k, _, _ in SYNTH_KINDS])
    def test_kind_spelling_calls_generator(self, runner, tmp_path, kind, options, generator):
        run_ok(runner, ["synth", "--kind", kind, "--len", "256",
                        "--out", str(tmp_path / "o")] + options)
        direct = write_series(tmp_path / "direct.csv", generator())
        assert (tmp_path / "o" / "series.csv").read_bytes() == direct.read_bytes()

    @pytest.mark.parametrize("args, message", [
        (["--kind", "fgn", "--len", "256"], "--kind fgn requires --h"),
        (["--kind", "power", "--len", "256"], "--kind power requires --beta"),
        (["--kind", "power_law_ranks", "--len", "256"], "--kind power requires --beta"),
        (["--kind", "linear", "--len", "8", "--intercept", "1"],
         "--kind linear requires --slope and --intercept"),
        (["--kind", "linear_trend", "--len", "8", "--slope", "1"],
         "--kind linear requires --slope and --intercept"),
        # TestOptionValues checks the range that each of these messages shows.
        (["--kind", "white", "--len", "64", "--seed", "-1"], "Invalid value for '--seed'"),
        (["--kind", "white", "--len", "64", "--seed", str(2**64)], "Invalid value for '--seed'"),
        (["--kind", "white", "--len", "1"], "Invalid value for '--len'"),
        (["--kind", "fgn", "--h", "0.7", "--len", "1"], "Invalid value for '--len'"),
        # A series that overflows; pyproject.toml makes a numpy RuntimeWarning fail the test.
        (["--kind", "linear", "--slope", "1e308", "--intercept", "1e308", "--len", "4"],
         "--kind linear overflows: the series has a non-finite value"),
        (["--kind", "power", "--beta", "1", "--noise", "1e300", "--len", "8"],
         "--kind power overflows: the series has a non-finite value"),
        # An option that the kind does not read, away from its default.
        (["--kind", "white", "--len", "64", "--noise", "5"], "--kind white does not read --noise"),
        (["--kind", "fgn", "--h", "0.7", "--len", "64", "--slope", "1"],
         "--kind fgn does not read --slope"),
        (["--kind", "power", "--beta", "1", "--len", "64", "--h", "0.5"],
         "--kind power does not read --h"),
        (["--kind", "linear_trend", "--slope", "1", "--intercept", "0", "--len", "64",
          "--beta", "2"], "--kind linear does not read --beta"),
        (["--kind", "linear", "--slope", "1", "--intercept", "0", "--len", "64", "--seed", "3"],
         "--kind linear does not read --seed"),
    ])
    def test_usage_errors(self, runner, tmp_path, args, message):
        result = runner.invoke(main, ["synth"] + args + ["--out", str(tmp_path / "o")],
                               catch_exceptions=False)
        assert result.exit_code == 2
        assert f"Error: {message}" in result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", [["white"], ["fgn", "--h", "0.7"]], ids=["white", "fgn"])
    def test_unallocatable_length_is_an_error(self, runner, tmp_path, kind):
        # 2^57 values take 1 EiB, more than any user address space, so the
        # allocation fails at once even where memory is overcommitted.
        result = runner.invoke(main, ["synth", "--kind", *kind, "--len", str(2**57),
                                      "--out", str(tmp_path / "o")], catch_exceptions=False)
        assert result.exit_code == 1
        assert "Error: Unable to allocate 1.00 EiB" in result.output
        assert not (tmp_path / "o").exists()

    def test_unread_option_at_its_default(self, runner, tmp_path):
        run_ok(runner, ["synth", "--kind", "white", "--len", "256", "--seed", "4", "--noise", "0",
                        "--out", str(tmp_path / "o")])
        direct = write_series(tmp_path / "direct.csv", white_noise(256, 4))
        assert (tmp_path / "o" / "series.csv").read_bytes() == direct.read_bytes()
        assert json.loads((tmp_path / "o" / "manifest.json").read_text())["config"]["noise"] == 0.0

    def test_unknown_kind(self, runner, tmp_path):
        result = runner.invoke(main, ["synth", "--kind", "pink", "--len", "64",
                                      "--out", str(tmp_path / "o")], catch_exceptions=False)
        assert result.exit_code == 2
        assert "Error: Invalid value for '--kind': 'pink' is not one of 'white', 'white_noise', " \
               "'fgn', 'linear', 'linear_trend', 'power', 'power_law_ranks'." in result.output
        assert not (tmp_path / "o").exists()

    def test_linear_trend_dispatch(self, runner, tmp_path):
        run_ok(runner, ["synth", "--kind", "linear_trend", "--slope", "2",
                        "--intercept", "1", "--len", "3", "--out", str(tmp_path)])
        np.testing.assert_array_equal(read_series_csv(tmp_path / "series.csv"), [3, 5, 7])

    def test_invalid_h_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["synth", "--kind", "fgn", "--h", "1.2",
                                      "--len", "128", "--out", str(tmp_path)])
        assert result.exit_code != 0

    def test_env_var_out_dir(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACRANK_OUT", str(tmp_path / "envout"))
        run_ok(runner, ["synth", "--kind", "white", "--len", "16", "--seed", "1"])
        assert (tmp_path / "envout" / "series.csv").exists()


def tree(path: Path) -> dict:
    """Every file and directory under ``path``, temp files too, with each file's bytes."""
    return {p.relative_to(path).as_posix(): p.read_bytes() if p.is_file() else None
            for p in sorted(path.rglob("*"))}


@pytest.fixture
def started(monkeypatch):
    """The table names of each writer child, one list per fork, in the order of the forks."""
    names = []
    write_in_child = fracrank.table.Bundle.write_in_child

    def recording(bundle, tables):
        names.append(list(tables))
        write_in_child(bundle, tables)

    monkeypatch.setattr(fracrank.table.Bundle, "write_in_child", recording)
    return names


# One value outside each declared option range: (command, option, value). The
# command line gives the value as str(value), a manifest as a JSON value.
OUT_OF_RANGE = [
    ("analyze", "--grid", 0), ("analyze", "--grid", 4097),
    ("analyze", "--trim", -0.01), ("analyze", "--trim", 0.26), ("analyze", "--trim", math.inf),
    ("synth", "--len", 1), ("synth", "--seed", -1), ("synth", "--seed", 2**64),
    ("synth", "--kind", "pink"), ("synth", "--h", 0.0), ("synth", "--h", 1.0),
    ("synth", "--h", math.inf), ("synth", "--beta", 0.0), ("synth", "--noise", -1.0),
]
NON_FINITE = [("analyze", "--trim", math.nan), ("synth", "--h", math.nan),
              ("synth", "--slope", math.nan)]


def case_ids(cases):
    return [f"{command} {option}={value}" for command, option, value in cases]


class TestOptionValues:
    """A bad option value exits 2 naming its option, before any input is read or made."""

    @pytest.fixture
    def no_work(self, monkeypatch, started):
        """The writer children started; reading the input or generating a series fails."""
        def forbidden(*args):
            pytest.fail("the input was read or a series generated")

        for name in ("ingest_jsonl_path", "read_series_csv", "white_noise", "fgn", "linear_trend",
                     "power_law_ranks"):
            monkeypatch.setattr(f"fracrank.cli.{name}", forbidden)
        return started

    def assert_rejected(self, runner, tmp_path, no_work, command, option, value, reason):
        series = write_series(tmp_path / "series.csv", white_noise(256, 1))
        valid = {"analyze": {"--series": str(series)},
                 "score": {"--corpus": str(MICRO_CORPUS), "--query": "alpha"},
                 "synth": {"--kind": "linear", "--slope": 1, "--intercept": 0, "--len": 64}}
        options = {**valid[command], option: value}
        out = tmp_path / "out"
        args = [command] + [text for o, v in options.items() for text in (o, str(v))]
        result = runner.invoke(main, args + ["--out", str(out)], catch_exceptions=False)
        assert result.exit_code == 2
        assert f"Error: Invalid value for '{option}': {reason}" in result.output
        # The same value as a manifest field is a bad manifest.
        names = {param.opts[0]: param.name for param in main.commands[command].params}
        config = {names[o]: v for o, v in options.items()}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": command, "config": config}))
        result = runner.invoke(main, ["rerun", str(manifest), "--out", str(out)],
                               catch_exceptions=False)
        assert result.exit_code == 1
        assert f"Error: bad manifest config: Invalid value for '{option}': {reason}" \
            in result.output
        assert no_work == []
        assert not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("command, option, value", OUT_OF_RANGE, ids=case_ids(OUT_OF_RANGE))
    def test_out_of_range_is_usage_error(self, runner, tmp_path, no_work, command, option, value):
        reason = (f"'{value}' is not one of" if option == "--kind"
                  else f"{value} is not in the range")
        self.assert_rejected(runner, tmp_path, no_work, command, option, value, reason)

    @pytest.mark.parametrize("command, option, value", NON_FINITE, ids=case_ids(NON_FINITE))
    def test_non_finite_is_usage_error(self, runner, tmp_path, no_work, command, option, value):
        self.assert_rejected(runner, tmp_path, no_work, command, option, value,
                             f"{value} is not a finite number")

    def test_query_without_a_term_is_usage_error(self, runner, tmp_path, no_work):
        self.assert_rejected(runner, tmp_path, no_work, "score", "--query", "!!!",
                             "query must contain at least one term")

    def test_help_shows_each_range(self, runner):
        analyze = run_ok(runner, ["analyze", "--help"]).output
        assert "[default: 0.05; 0.0<=x<=0.25]" in analyze
        assert "[default: 32; 1<=x<=4096]" in analyze
        synth = run_ok(runner, ["synth", "--help"]).output
        assert "[white|white_noise|fgn|linear|linear_trend|power|power_law_ranks]" in synth
        assert "[x>=2; required]" in synth
        assert f"[default: 0; 0<=x<={2**64 - 1}]" in synth
        assert "Target Hurst index for fgn.  [0<x<1]" in synth
        assert "Power-law exponent.  [x>0]" in synth
        assert "[default: 0.0; x>=0]" in synth


class TestCommit:
    """A run's files are renamed into place together; a failed run leaves --out as it was."""

    @pytest.fixture
    def series(self, tmp_path):
        return write_series(tmp_path / "series.csv", fgn(1024, 0.7, 1))

    @pytest.mark.parametrize("command, blocked", [
        ("analyze", "poincare.csv"), ("analyze", "sequence.csv"), ("analyze", "manifest.json"),
        ("synth", "manifest.json"), ("score", "manifest.json"),
    ])
    def test_unreplaceable_target_leaves_out_unchanged(self, runner, tmp_path, series,
                                                       command, blocked):
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        (out / blocked / "inner.txt").write_text("inner")
        (out / "keep.txt").write_text("untouched")
        before = tree(out)
        args = {
            "analyze": ["analyze", "--series", str(series)],
            "synth": ["synth", "--kind", "white", "--len", "256"],
            "score": ["score", "--corpus", str(MICRO_CORPUS), "--query", "alpha beta"],
        }[command]
        result = runner.invoke(main, args + ["--out", str(out)], catch_exceptions=False)
        assert result.exit_code == 1
        assert f"Is a directory: '{out / blocked}'" in result.output
        assert tree(out) == before
        assert_no_child_left()

    @pytest.mark.parametrize("command", ["score", "synth"])
    def test_failed_runner_leaves_out_as_it_was(self, runner, tmp_path, command):
        """The runner fails after _run has made --out: a fresh --out is removed again."""
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text('{"id": "a", "text": "alpha beta"}\nnot json\n')
        good, bad, code, message = {
            "score": (["score", "--corpus", str(MICRO_CORPUS), "--query", "alpha beta"],
                      ["score", "--corpus", str(corpus), "--query", "alpha"], 1,
                      "Error: line 2: malformed record"),
            "synth": (["synth", "--kind", "fgn", "--h", "0.7", "--len", "128"],
                      ["synth", "--kind", "fgn", "--h", "0.7", "--len", "100"], 2,
                      "Error: length must be a power of two >= 64"),
        }[command]
        out = tmp_path / "out"
        run_ok(runner, good + ["--out", str(out)])
        (out / "keep.txt").write_text("untouched")
        before = tree(out)
        fresh = tmp_path / "fresh" / "out"
        for target in (out, fresh):
            result = runner.invoke(main, bad + ["--out", str(target)], catch_exceptions=False)
            assert result.exit_code == code
            assert message in result.output
        assert tree(out) == before
        assert not (tmp_path / "fresh").exists()

    def test_sigterm_handler_set_and_restored(self, runner, tmp_path):
        """A run sets its SIGTERM handler and restores the caller's; in a thread other
        than the main one, where no handler can be set, it runs without."""
        before = signal.getsignal(signal.SIGTERM)
        run_ok(runner, ["synth", "--kind", "white", "--len", "64", "--out", str(tmp_path / "a")])
        assert signal.getsignal(signal.SIGTERM) is before
        results = []
        thread = threading.Thread(target=lambda: results.append(runner.invoke(
            main, ["synth", "--kind", "white", "--len", "64", "--out", str(tmp_path / "b")])))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert results[0].exit_code == 0, results[0].output
        assert read_dir(tmp_path / "b") == read_dir(tmp_path / "a")

    @pytest.mark.parametrize("interrupt, code", [("sigterm", 143), ("ctrl_c", 1)])
    def test_interrupt_between_renames_finishes_them(self, runner, tmp_path, monkeypatch,
                                                     interrupt, code):
        """An interrupt after the first rename still ends the run with its usual code,
        but only once every file is renamed: --out never holds files of two runs."""
        synth = ["synth", "--kind", "white", "--len", "64"]
        out, new = tmp_path / "out", tmp_path / "new"
        run_ok(runner, synth + ["--seed", "0", "--out", str(out)])
        run_ok(runner, synth + ["--seed", "5", "--out", str(new)])
        assert tree(out) != tree(new)
        replace, targets = os.replace, []

        def interrupted(src, dst):
            targets.append(Path(dst).name)
            if len(targets) == 2:
                if interrupt == "ctrl_c":
                    raise KeyboardInterrupt
                signal.raise_signal(signal.SIGTERM)  # _run's handler raises SystemExit here
            replace(src, dst)

        monkeypatch.setattr(fracrank.table.os, "replace", interrupted)
        result = runner.invoke(main, synth + ["--seed", "5", "--out", str(out)],
                               catch_exceptions=False)
        assert result.exit_code == code
        assert targets[:2] == ["series.csv", "manifest.json"]
        assert tree(out) == tree(new)

    def test_out_is_made_before_the_input_is_read(self, runner, tmp_path):
        """An --out below a regular file is reported, not the bad corpus."""
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("not json\n")
        (tmp_path / "file").write_text("a regular file")
        out = tmp_path / "file" / "out"
        result = runner.invoke(main, ["score", "--corpus", str(corpus), "--query", "alpha",
                                      "--out", str(out)], catch_exceptions=False)
        assert result.exit_code == 1
        assert f"Error: [Errno 20] Not a directory: '{out}'" in result.output
        assert (tmp_path / "file").read_text() == "a regular file"

    def test_no_process_left(self, runner, tmp_path, series):
        run_ok(runner, ["analyze", "--series", str(series), "--out", str(tmp_path / "a")])
        assert_no_child_left()
        flat = tmp_path / "flat.csv"
        flat.write_text("value\n" + "1.0\n" * 64)  # fails in dfa, after the writer child starts
        result = runner.invoke(main, ["analyze", "--series", str(flat),
                                      "--out", str(tmp_path / "b" / "c")])
        assert result.exit_code == 1
        assert "dfa failed" in result.output
        assert not (tmp_path / "b").exists()
        assert_no_child_left()

    @pytest.mark.parametrize("case", ["bad_grid", "one_value_series"])
    def test_early_failure_starts_no_writer_child(self, runner, tmp_path, series, started, case):
        out = tmp_path / "out"
        run_ok(runner, ["analyze", "--series", str(series), "--out", str(out)])
        assert started == [["sequence.csv", "poincare.csv"]]  # one child writes both tables
        (out / "keep.txt").write_text("untouched")
        before = tree(out)
        started.clear()
        args, code, message = {
            "bad_grid": (["--series", str(series), "--grid", "0"], 2,
                         "Error: Invalid value for '--grid': 0 is not in the range"),
            "one_value_series": (["--series", str(write_series(tmp_path / "one.csv", [0.5]))], 1,
                                 "Error: poincare_map needs at least 2 values"),
        }[case]
        fresh = tmp_path / "fresh" / "out"
        for target in (out, fresh):
            result = runner.invoke(main, ["analyze", *args, "--out", str(target)],
                                   catch_exceptions=False)
            assert result.exit_code == code
            assert message in result.output
        assert started == []
        assert tree(out) == before
        assert not (tmp_path / "fresh").exists()
        assert_no_child_left()

    def test_failed_run_kills_its_writer_child(self, runner, tmp_path, monkeypatch):
        def stuck(column):
            time.sleep(30)
            raise AssertionError("a stuck writer child was not killed")

        # The child formats sequence.csv first.
        monkeypatch.setattr(fracrank.table, "_number_cells", stuck)
        flat = tmp_path / "flat.csv"
        flat.write_text("value\n" + "1.0\n" * 64)
        start = time.perf_counter()
        result = runner.invoke(main, ["analyze", "--series", str(flat),
                                      "--out", str(tmp_path / "a")])
        assert result.exit_code == 1
        assert time.perf_counter() - start < 10  # killed, not waited for
        assert not (tmp_path / "a").exists()
        assert_no_child_left()

    def test_writer_child_error(self, runner, tmp_path, series, monkeypatch):
        out = tmp_path / "out"
        run_ok(runner, ["analyze", "--series", str(series), "--out", str(out)])
        (out / "keep.txt").write_text("untouched")
        before = tree(out)

        def failing_pairs(header, values):
            raise RuntimeError(f"format_pairs failed in process {os.getpid()}")
            yield

        monkeypatch.setattr(fracrank.rankstats, "format_pairs", failing_pairs)
        result = runner.invoke(main, ["analyze", "--series", str(series), "--grid", "8",
                                      "--out", str(out)], catch_exceptions=False)
        assert result.exit_code == 1
        pid = re.search(r"Error: format_pairs failed in process (\d+)", result.output)
        assert pid and int(pid.group(1)) != os.getpid()  # raised in the writer child
        assert list(out.glob(".*.csv.*")) == []
        assert tree(out) == before
        assert_no_child_left()

    def test_sigterm_to_the_writer_child_alone(self, runner, tmp_path, series, monkeypatch):
        """The child does not inherit the run's SIGTERM handler: it ends, and the run
        fails naming its exit status."""
        parent, cells = os.getpid(), fracrank.table._number_cells

        def terminated(column):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGTERM)
            return cells(column)

        monkeypatch.setattr(fracrank.table, "_number_cells", terminated)
        result = runner.invoke(main, ["analyze", "--series", str(series),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "Error: table writer child exited with code -15" in result.output
        assert not (tmp_path / "out").exists()
        assert_no_child_left()


class TestRerun:
    def test_synth_rerun_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_ok(runner, ["synth", "--kind", "power", "--beta", "1.0", "--noise", "0.02",
                        "--len", "512", "--seed", "3", "--out", str(a)])
        run_ok(runner, ["rerun", str(a / "manifest.json"), "--out", str(b)])
        assert read_dir(a) == read_dir(b)

    def test_analyze_rerun_byte_identical(self, runner, tmp_path):
        sdir = tmp_path / "s"
        run_ok(runner, ["synth", "--kind", "white", "--len", "1024",
                        "--seed", "5", "--out", str(sdir)])
        a, b = tmp_path / "a", tmp_path / "b"
        run_ok(runner, ["analyze", "--series", str(sdir / "series.csv"), "--out", str(a)])
        run_ok(runner, ["rerun", str(a / "manifest.json"), "--out", str(b)])
        assert read_dir(a) == read_dir(b)

    def test_score_rerun_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_ok(runner, ["score", "--corpus", str(MICRO_CORPUS),
                        "--query", "alpha beta", "--out", str(a)])
        run_ok(runner, ["rerun", str(a / "manifest.json"), "--out", str(b)])
        assert read_dir(a) == read_dir(b)

    @pytest.mark.parametrize("kind", sorted(OLD_SYNTH_MANIFESTS))
    def test_old_synth_manifest_byte_identical(self, runner, tmp_path, kind):
        text = json.dumps({"command": "synth", "config": OLD_SYNTH_MANIFESTS[kind]},
                          sort_keys=True, indent=2) + "\n"
        (tmp_path / "manifest.json").write_text(text)
        run_ok(runner, ["rerun", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "b")])
        direct = write_series(tmp_path / "direct.csv", OLD_SYNTH_SERIES[kind]())
        assert read_dir(tmp_path / "b") == {"manifest.json": text.encode(),
                                            "series.csv": direct.read_bytes()}

    @pytest.mark.parametrize("case", sorted(OLD_RUN_MANIFESTS))
    def test_old_run_manifest_byte_identical(self, runner, tmp_path, case):
        command, config, args = OLD_RUN_MANIFESTS[case]
        # 80 documents; the four with i % 21 == 0 hold no query term.
        source = tmp_path / "corpus.jsonl"
        source.write_text("".join(
            json.dumps({"id": f"d{i}",
                        "text": "alpha " * (i % 7) + "beta " * (i % 3) + "pad " * (i % 11 + 1)})
            + "\n" for i in range(80)))
        if case == "analyze_series":
            source = write_series(tmp_path / "series.csv", white_noise(512, 2))
        elif case == "analyze_scores":
            run_ok(runner, ["score", "--corpus", str(source), "--query", "alpha beta",
                            "--out", str(tmp_path / "s")])
            source = tmp_path / "s" / "scores.csv"
        config = {key: str(source) if value == "INPUT" else value
                  for key, value in config.items()}
        text = json.dumps({"command": command, "config": config},
                          sort_keys=True, indent=2) + "\n"
        (tmp_path / "manifest.json").write_text(text)
        run_ok(runner, ["rerun", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "b")])
        run_ok(runner, [command] + [str(source) if a == "INPUT" else a for a in args]
               + ["--out", str(tmp_path / "a")])
        assert (tmp_path / "b" / "manifest.json").read_text() == text
        assert read_dir(tmp_path / "b") == read_dir(tmp_path / "a")

    @pytest.mark.parametrize("case", ["missing_input", "not_json", "no_input", "not_an_object",
                                      "unknown_command"] + sorted(BROKEN_MANIFEST_FIELDS))
    def test_broken_manifest_clean_error(self, runner, tmp_path, case):
        sdir = tmp_path / "s"
        run_ok(runner, ["synth", "--kind", "white", "--len", "256", "--seed", "1",
                        "--out", str(sdir)])
        manifest = tmp_path / "manifest.json"
        if case == "missing_input":
            moved = tmp_path / "moved.csv"
            (sdir / "series.csv").rename(moved)
            run_ok(runner, ["analyze", "--series", str(moved), "--out", str(tmp_path / "a")])
            manifest.write_bytes((tmp_path / "a" / "manifest.json").read_bytes())
            moved.unlink()
            message = f"bad manifest config: Invalid value for '--series': File '{moved}' does not"
        elif case == "not_json":
            manifest.write_text('{"command": "synth", "config": {')
            message = "cannot read manifest"
        elif case == "no_input":
            manifest.write_text(json.dumps({"command": "analyze",
                                            "config": {"scores": None, "series": None}}))
            message = "bad manifest config: exactly one of --scores or --series is required"
        elif case == "not_an_object":
            manifest.write_text("[]")
            message = "Error: manifest must be a JSON object with a config object"
        elif case == "unknown_command":
            manifest.write_text(json.dumps({"command": "bogus", "config": {}}))
            message = "Error: manifest has unknown command 'bogus'"
        else:
            command, key, value, detail = BROKEN_MANIFEST_FIELDS[case]
            if command == "analyze":
                run_ok(runner, ["analyze", "--series", str(sdir / "series.csv"),
                                "--out", str(tmp_path / "a")])
            elif command == "score":
                run_ok(runner, ["score", "--corpus", str(MICRO_CORPUS),
                                "--query", "alpha beta", "--out", str(tmp_path / "a")])
            source = sdir if command == "synth" else tmp_path / "a"
            record = json.loads((source / "manifest.json").read_text())
            if value is DROP:
                del record["config"][key]
            else:
                record["config"][key] = str(tmp_path / "b") if value == "OUT" else value
            manifest.write_text(json.dumps(record))
            message = f"bad manifest config: {detail}"
        result = runner.invoke(main, ["rerun", str(manifest), "--out", str(tmp_path / "b")],
                               catch_exceptions=False)
        assert result.exit_code == 1
        assert message in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "b").exists()


def run_cli(*args, code=0) -> subprocess.CompletedProcess:
    """Run ``python -m fracrank.cli`` (what the console script runs) in a process of its own.

    It must exit with ``code``, and print no traceback and no numpy
    RuntimeWarning. A writer child that outlived it would hold its stdout open,
    so the run would not return before its timeout.
    """
    result = run_python("-m", "fracrank.cli", *args)
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr, result.stderr
    assert "RuntimeWarning" not in result.stderr, result.stderr
    return result


@pytest.fixture(scope="module")
def fgn_bundle(tmp_path_factory):
    """The analyze bundle of one CHUNK_ROWS of fGn values, made by real processes."""
    tmp = tmp_path_factory.mktemp("fgn")
    run_cli("synth", "--kind", "fgn", "--h", "0.75", "--len", CHUNK_ROWS, "--out", tmp / "fgn")
    run_cli("analyze", "--series", tmp / "fgn" / "series.csv", "--out", tmp / "analyze")
    return tmp / "analyze"


class TestProcess:
    """The CLI as a real process: its exit codes, stderr, forked writer child and files."""

    def test_analyze_never_imports_numpy_ma(self, tmp_path, fgn_bundle):
        """numpy.ma costs ~10 ms to import, and no command needs any of it in a fresh process."""
        code = ("import runpy, sys\n"
                "try:\n"
                "    runpy.run_module('fracrank.cli', run_name='__main__')\n"
                "finally:\n"
                "    print('numpy.ma imported:', 'numpy.ma' in sys.modules)\n")
        lines, expected = generated_case()
        scores = tmp_path / "scores.csv"
        scores.write_text(expected, encoding="utf-8")
        corpus = tmp_path / "generated.jsonl"
        corpus.write_text("".join(lines), encoding="utf-8")
        commands = [
            ("analyze", "--series", fgn_bundle / "sequence.csv"),
            ("analyze", "--scores", scores),
            ("score", "--corpus", MICRO_CORPUS, "--query", "alpha beta"),
            ("score", "--corpus", corpus, "--query", GENERATED_QUERY),
            ("synth", "--kind", "fgn", "--h", "0.75", "--len", "4096"),
            ("synth", "--kind", "power", "--beta", "1.2", "--len", "4096"),
            ("rerun", fgn_bundle / "manifest.json"),
        ]
        for i, args in enumerate(commands):
            result = run_python("-c", code, *args, "--out", tmp_path / f"out{i}")
            assert result.returncode == 0, (args, result.stderr)
            assert result.stdout.splitlines()[-1] == "numpy.ma imported: False", args

    @pytest.mark.parametrize("case", ["analyze_rerun", "flat_series_keeps_out",
                                      "grid_0_keeps_out", "one_value_no_fresh_out",
                                      "fifo_no_fresh_out", "fifo_corpus_no_fresh_out",
                                      "fifo_manifest_no_fresh_out", "generated_corpus"])
    def test_cli_process(self, tmp_path, fgn_bundle, case):
        out = tmp_path / "out"
        if case == "analyze_rerun":
            run_cli("rerun", fgn_bundle / "manifest.json", "--out", out)
            assert tree(out) == tree(fgn_bundle)
        elif case == "generated_corpus":
            lines, expected = generated_case()
            corpus = tmp_path / "generated.jsonl"
            corpus.write_text("".join(lines), encoding="utf-8")
            run_cli("score", "--corpus", corpus, "--query", GENERATED_QUERY, "--out", out)
            assert (out / "scores.csv").read_bytes() == expected.encode()
        elif case == "one_value_no_fresh_out":
            # Fails in poincare_map, before the writer child is started.
            one = write_series(tmp_path / "one.csv", [0.5])
            run_cli("analyze", "--series", one, "--out", out, code=1)
            assert not out.exists()
        elif case.startswith("fifo_"):
            # A pipe with no writer: opening it would block, so it must be refused first.
            fifo = tmp_path / "fifo"
            os.mkfifo(fifo)
            args, kind = {
                "fifo_no_fresh_out": (["analyze", "--series", fifo], "a table"),
                "fifo_corpus_no_fresh_out": (["score", "--corpus", fifo, "--query", "alpha"],
                                             "a corpus"),
                "fifo_manifest_no_fresh_out": (["rerun", fifo], "a manifest"),
            }[case]
            result = run_cli(*args, "--out", out, code=1)
            assert f"Error: {fifo}: {kind} must be a regular file" in result.stderr
            assert not out.exists()
        else:
            before = tree(shutil.copytree(fgn_bundle, out))
            if case == "flat_series_keeps_out":
                # Fails in dfa after the writer child has started.
                flat = tmp_path / "flat.csv"
                flat.write_text("value\n" + "1.0\n" * 64)
                run_cli("analyze", "--series", flat, "--out", out, code=1)
            else:  # a usage error, before the input is read
                series = fgn_bundle.parent / "fgn" / "series.csv"
                run_cli("analyze", "--series", series, "--grid", 0, "--out", out, code=2)
            assert list(out.glob(".*.csv.*")) == []
            assert tree(out) == before

    def test_bundles_do_not_depend_on_the_simd_level(self, tmp_path):
        """A power series and its analysis (Zipf fits, CDF map, occupancy, return map), the
        micro corpus's scores, and a generated corpus's scores analyzed both ways hash alike
        file by file with numpy's AVX-512 targets off, and with its AVX2 targets off too.

        The micro corpus has too few documents to analyze, so the generated corpus is
        analyzed instead. Each level runs in a fresh directory of its own, with the inputs
        named by the same paths, so the manifests must match too.
        """
        corpus = tmp_path / "generated.jsonl"
        corpus.write_text("".join(generated_corpus(4000, 0)), encoding="utf-8")
        code = ("import hashlib, os, pathlib, sys, tempfile\n"
                "from fracrank.cli import main\n"
                "os.chdir(tempfile.mkdtemp(dir=sys.argv[1]))\n"
                "for args in sys.argv[2:]:\n"
                "    main(args.split('|'), standalone_mode=False)\n"
                "for path in sorted(p for p in pathlib.Path().rglob('*') if p.is_file()):\n"
                "    print(path, hashlib.sha256(path.read_bytes()).hexdigest())\n")
        runs = ["synth|--kind|power|--len|16384|--beta|1.3|--noise|0.5|--seed|2|--out|power",
                "analyze|--series|power/series.csv|--out|power_analysis",
                f"score|--corpus|{MICRO_CORPUS}|--query|Alpha, beta alpha|--out|micro",
                f"score|--corpus|{corpus}|--query|{GENERATED_QUERY}|--out|scores",
                "analyze|--scores|scores/scores.csv|--out|q_f",
                "analyze|--scores|scores/scores.csv|--ranked-by|f|--read-off|q|--out|f_q"]
        full, no_avx512, no_avx2 = run_at_simd_levels("-c", code, tmp_path, *runs)
        assert full == no_avx512 == no_avx2
        assert len(full.splitlines()) == 2 + 6 + 3 + 3 + 6 + 6
        # Each analysis reached the fits that the hashes are there to cover.
        for name, mapped in (("power_analysis", True), ("q_f", False), ("f_q", False)):
            summaries = list(tmp_path.glob(f"*/{name}/summary.json"))
            assert len(summaries) == 3
            for summary in summaries:
                record = json.loads(summary.read_text())
                assert record["poincare_cdf_mapped"] is mapped
                assert "zipf_loglog_slope" in record, record

    def test_sigterm_leaves_out_as_it_was(self, tmp_path, fgn_bundle):
        """SIGTERM ends a run as an error does: exit 128 + 15, the writer child killed and
        a fresh --out removed.

        The run is held where it is longest: the writer child stalls in its first
        table, and the parent, with --out holding both temp tables, in hurst_pointwise.
        """
        stalled = tmp_path / "stalled"
        code = ("import pathlib, runpy, time, fracrank.fractal, fracrank.table\n"
                "def stall(*args):\n"
                f"    pathlib.Path({str(stalled)!r}).touch()\n"
                "    time.sleep(60)\n"
                "fracrank.table._number_cells = lambda column: time.sleep(60)\n"
                "fracrank.fractal.hurst_pointwise = stall\n"
                "runpy.run_module('fracrank.cli', run_name='__main__')\n")
        out = tmp_path / "out"
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "analyze", "--series", str(fgn_bundle / "sequence.csv"),
             "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=python_env(),
            start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while not stalled.exists():
                assert proc.poll() is None, "the run ended before it stalled"
                assert time.monotonic() < deadline, "the run did not stall"
                time.sleep(0.01)
            assert sorted(p.name.split(".")[1] for p in out.glob(".*")) == ["poincare",
                                                                            "sequence"]
            proc.send_signal(signal.SIGTERM)
            # Returns only once no process holds the pipes: the writer child is gone too.
            _, stderr = proc.communicate(timeout=30)
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # a failed test leaves no process behind
            except ProcessLookupError:
                pass
            proc.communicate()
            raise
        assert proc.returncode == 128 + signal.SIGTERM, stderr
        assert "Traceback" not in stderr, stderr
        assert not out.exists()


def _strict_constant(name):
    raise ValueError(f"non-finite {name} in summary.json")


@st.composite
def series_tables(draw) -> str:
    """A --series table's text: a shape at a threshold length, scaled by
    2^k (non-finite values become 0), with or without a header and a blank line."""
    n = draw(st.sampled_from([1, 2, 15, 16, 17, 63, 64, 65, 200, 256, 512, 1000, 1024, 4096]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = draw(st.sampled_from([
        lambda: rng.standard_normal(n),
        lambda: np.full(n, draw(st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1e300]))),
        lambda: rng.integers(0, 3, n).astype(float),  # three-level ties
        lambda: rng.choice([0.0, -0.0], n),
        lambda: np.repeat(rng.standard_normal(n // 16 + 1), 16)[:n],  # steps
    ]))()
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.ldexp(x, draw(st.integers(-1000, 1000)))
    x[~np.isfinite(x)] = 0.0
    lines = [repr(v) for v in x.tolist()]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")
    if draw(st.booleans()):
        lines.insert(0, "value")
    return "".join(line + "\n" for line in lines)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(series_tables())
def test_analyze_any_series_exits_cleanly_and_reruns(text):
    """Every --series table ends in a bundle that reads back and reruns byte for byte, or
    in exit 1 or 2 with --out as it was; never in a traceback."""
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "series.csv").write_text(text)
        out = tmp / "out"
        out.mkdir()
        (out / "summary.json").write_text("stale\n")
        (out / "keep.txt").write_text("kept\n")
        before = read_dir(out)
        result = runner.invoke(main, ["analyze", "--series", str(tmp / "series.csv"),
                                      "--out", str(out)])
        assert result.exit_code in (0, 1, 2), result.output
        assert isinstance(result.exception, (SystemExit, type(None))), repr(result.exception)
        assert "Traceback" not in result.output
        if result.exit_code != 0:
            assert read_dir(out) == before
            return
        json.loads((out / "summary.json").read_text(), parse_constant=_strict_constant)
        for name, header in (("sequence.csv", ("value",)), ("dfa.csv", ("n", "d")),
                             ("poincare.csv", ("x", "y"))):
            read_table(out / name, header)
        again = tmp / "again"
        run_ok(runner, ["rerun", str(out / "manifest.json"), "--out", str(again)])
        assert read_dir(again) == {k: v for k, v in read_dir(out).items() if k != "keep.txt"}
