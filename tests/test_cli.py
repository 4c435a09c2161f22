import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from fracrank.cli import main
from fracrank.relevance import Measure, RelevanceTable, mutual_sequence
from fracrank.synth import (
    fgn,
    linear_trend,
    power_law_ranks,
    read_series_csv,
    white_noise,
    write_series_csv,
)
from fracrank.table import write_atomic

from conftest import MICRO_CORPUS, MICRO_F, MICRO_MUTUAL_F_OF_Q, MICRO_Q


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
    write_atomic(path, write_series_csv(values))
    return path


# Every accepted --kind spelling, its options, and the generator call it stands for.
SYNTH_KINDS = [
    ("white", [], lambda: white_noise(256, 4)),
    ("white_noise", [], lambda: white_noise(256, 4)),
    ("fgn", ["--h", "0.7"], lambda: fgn(256, 0.7, 4)),
    ("linear", ["--slope", "-0.5", "--intercept", "3"], lambda: linear_trend(256, -0.5, 3.0)),
    ("linear_trend", ["--slope", "-0.5", "--intercept", "3"],
     lambda: linear_trend(256, -0.5, 3.0)),
    ("power", ["--beta", "1.2", "--noise", "0.1"], lambda: power_law_ranks(256, 1.2, 0.1, 4)),
    ("power_law_ranks", ["--beta", "1.2", "--noise", "0.1"],
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
        seq = mutual_sequence(table, Measure.Q, Measure.F, include_zero_scores=False)
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
        seq = mutual_sequence(table, Measure.Q, Measure.F, include_zero_scores=False)
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
        assert result.exit_code == 1
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

    @pytest.mark.parametrize("trim", ["2", "-1", "0.26"])
    def test_trim_out_of_range_is_usage_error(self, runner, tmp_path, trim):
        sdir = tmp_path / "s"
        run_ok(runner, ["synth", "--kind", "white", "--len", "256", "--seed", "1",
                        "--out", str(sdir)])
        result = runner.invoke(main, ["analyze", "--series", str(sdir / "series.csv"),
                                      "--trim", trim, "--out", str(tmp_path / "a")],
                               catch_exceptions=False)
        assert result.exit_code == 2
        assert "--trim must be in [0, 0.25]" in result.output
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
        # and before the estimators run: the DFA windows are bad too.
        sdir = tmp_path / "s"
        run_ok(runner, ["synth", "--kind", "white", "--len", "256", "--seed", "1",
                        "--out", str(sdir)])
        result = runner.invoke(main, ["analyze", "--series", str(sdir / "series.csv"),
                                      "--grid", "100000", "--dfa-windows", "4,4,4,4",
                                      "--out", str(tmp_path / "a")],
                               catch_exceptions=False)
        assert result.exit_code == 1
        assert "grid_size^2 must be <= 16777216 cells" in result.output
        assert "dfa failed" not in result.output
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("option", ["--dfa-windows", "--rs-windows"])
    def test_bad_window_list_is_usage_error(self, runner, tmp_path, option):
        series = write_series(tmp_path / "w.csv", white_noise(512, 1))
        result = runner.invoke(main, ["analyze", "--series", str(series), option, "16,x",
                                      "--out", str(tmp_path / "a")], catch_exceptions=False)
        assert result.exit_code == 2
        assert "Error: bad window list '16,x'" in result.output
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
        assert result.exit_code == 1
        assert "non-finite value in JSON output" in result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, options, generator", SYNTH_KINDS,
                             ids=[k for k, _, _ in SYNTH_KINDS])
    def test_kind_spelling_calls_generator(self, runner, tmp_path, kind, options, generator):
        run_ok(runner, ["synth", "--kind", kind, "--len", "256", "--seed", "4",
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
        (["--kind", "white", "--len", "64", "--seed", "-1"],
         "seed must be an unsigned 64-bit integer"),
        (["--kind", "white", "--len", "64", "--seed", str(2**64)],
         "seed must be an unsigned 64-bit integer"),
        (["--kind", "white", "--len", "1"], "length must be >= 2"),
        (["--kind", "fgn", "--h", "0.7", "--len", "1"], "length must be >= 2"),
    ])
    def test_usage_errors(self, runner, tmp_path, args, message):
        result = runner.invoke(main, ["synth"] + args + ["--out", str(tmp_path / "o")],
                               catch_exceptions=False)
        assert result.exit_code == 2
        assert f"Error: {message}" in result.output
        assert not (tmp_path / "o").exists()

    def test_unknown_kind(self, runner, tmp_path):
        result = runner.invoke(main, ["synth", "--kind", "pink", "--len", "64",
                                      "--out", str(tmp_path / "o")], catch_exceptions=False)
        assert result.exit_code == 2
        assert "Error: unknown generator kind 'pink'" in result.output
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

    @pytest.mark.parametrize("case", ["missing_input", "not_json", "wrong_type",
                                      "unknown_kind", "short_length", "no_input",
                                      "trim_out_of_range", "float_windows", "bool_windows"])
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
            message = "No such file or directory"
        elif case == "not_json":
            manifest.write_text('{"command": "synth", "config": {')
            message = "cannot read manifest"
        elif case == "no_input":
            manifest.write_text(json.dumps({"command": "analyze",
                                            "config": {"scores": None, "series": None}}))
            message = "bad manifest config: exactly one of --scores or --series is required"
        elif case == "trim_out_of_range":
            run_ok(runner, ["analyze", "--series", str(sdir / "series.csv"),
                            "--out", str(tmp_path / "a")])
            record = json.loads((tmp_path / "a" / "manifest.json").read_text())
            record["config"]["trim"] = 2.0
            manifest.write_text(json.dumps(record))
            message = "bad manifest config: --trim must be in [0, 0.25]"
        elif case in ("float_windows", "bool_windows"):
            # int() would silently truncate 4.7 and read true as 1.
            key, value = {"float_windows": ("dfa_windows", [4.7, 8.9, 16, 32]),
                          "bool_windows": ("rs_windows", [True, 16, 32, 64])}[case]
            run_ok(runner, ["analyze", "--series", str(sdir / "series.csv"),
                            "--out", str(tmp_path / "a")])
            record = json.loads((tmp_path / "a" / "manifest.json").read_text())
            record["config"][key] = value
            manifest.write_text(json.dumps(record))
            message = f"bad manifest config: {key} = {value!r} is not a list of integers"
        else:
            key, value, detail = {
                "wrong_type": ("length", "x", "length = 'x' is not int"),
                "unknown_kind": ("kind", "pink", "unknown generator kind 'pink'"),
                "short_length": ("length", 1, "length must be >= 2"),
            }[case]
            record = json.loads((sdir / "manifest.json").read_text())
            record["config"][key] = value
            manifest.write_text(json.dumps(record))
            message = f"bad manifest config: {detail}"
        result = runner.invoke(main, ["rerun", str(manifest), "--out", str(tmp_path / "b")],
                               catch_exceptions=False)
        assert result.exit_code == 1
        assert message in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "b").exists()
