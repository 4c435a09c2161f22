"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here and are not calibration knobs.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from fracrank.cli import main as cli_main
from fracrank.corpus import Query, ingest_jsonl_path
from fracrank.fractal import dfa, hurst_regression, rs_statistic
from fracrank.rankstats import empirical_cdf_map, occupancy_stats, poincare_map, zipf_fit
from fracrank.relevance import mutual_sequence, score_corpus
from fracrank.synth import fgn, power_law_ranks, read_series_csv, white_noise
from fracrank.table import as_written

from conftest import (MICRO_CORPUS, load_brute_force_oracle, load_script, naive_dfa_d,
                      textbook_rs, unit_scaled)

N_SEEDS = 50
SERIES_LEN = 8192


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _mc_means(target_h):
    """Mean H and alpha over N_SEEDS series: white noise when target_h is 0.5."""
    hs, alphas = load_script("estimator_recovery.py").estimates(target_h, N_SEEDS, SERIES_LEN)
    return float(np.mean(hs)), float(np.mean(alphas))


def test_estimator_recovery():
    t0 = time.time()
    details = []
    ok = True
    for h in (0.6, 0.75, 0.85):
        mean_h, mean_alpha = _mc_means(h)
        details.append(f"H={h}: hurst={mean_h:.4f}, alpha={mean_alpha:.4f}")
        ok &= abs(mean_h - h) <= 0.08 and abs(mean_alpha - h) <= 0.08
    elapsed = time.time() - t0
    details.append(f"{elapsed:.1f}s")
    ok &= elapsed < 120.0
    report("estimator recovery (fGn H in {0.6,0.75,0.85}, +/-0.08)", ok, "; ".join(details))


def test_white_noise_baselines():
    mean_h, mean_alpha = _mc_means(0.5)
    ok = abs(mean_h - 0.5) <= 0.05 and abs(mean_alpha - 0.5) <= 0.05
    report("white-noise baselines (H and alpha = 0.50 +/- 0.05)", ok,
           f"hurst={mean_h:.4f}, alpha={mean_alpha:.4f}")


def test_fractal_dimension_identity():
    ok = True
    for seed in range(5):
        r = hurst_regression(white_noise(1024, seed))
        ok &= r.fractal_dim == 2.0 - r.h_regression
    ok &= (2.0 - 0.75 == 1.25) and abs((2.0 - 0.85) - 1.15) < 1e-15
    report("fractal dimension identity D = 2 - H", ok)


def test_micro_corpus_golden():
    oracle = load_brute_force_oracle()
    ids, f_expected, q_expected = oracle.brute_force_scores(MICRO_CORPUS, ["alpha", "beta"])
    mutual_expected = oracle.brute_force_mutual(ids, f_expected, q_expected)

    corpus = ingest_jsonl_path(MICRO_CORPUS)
    table = score_corpus(corpus, Query(("alpha", "beta")))
    seq = mutual_sequence(table, "q", "f", include_zero_scores=True)

    ok = (
        np.allclose(table.f, f_expected, atol=1e-9)
        and np.allclose(table.q, q_expected, atol=1e-9)
        and np.allclose(seq, mutual_expected, atol=1e-9)
        and np.allclose(table.f, [0.75, 0.25, 1.0], atol=1e-9)
        and np.allclose(seq, [0.75, 1.0, 0.25], atol=1e-9)
    )
    report("micro-corpus golden (brute-force oracle, 1e-9)", ok,
           f"f={table.f.tolist()}, mutual={seq.tolist()}")


def test_dfa_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(64, 257))
        x = rng.standard_normal(n)
        curve = dfa(x)
        for w, d in zip(curve.windows, curve.d):
            worst = max(worst, abs(d - naive_dfa_d(x, int(w))))
    report("DFA oracle equivalence (naive reference, 1e-9)", worst <= 1e-9,
           f"max |diff| = {worst:.2e}")


def test_rs_hand_values():
    # rs_statistic and the textbook formula (on the same exactly rescaled input)
    # both against the hand values.
    cases = (([1, -1, 1, -1], 1.0), ([1, 2, 3, 4], 2 / math.sqrt(1.25)))
    got = [(rs_statistic(x), textbook_rs(unit_scaled(x))) for x, _ in cases]
    ok = all(abs(v - want) <= 1e-12 for (_, want), pair in zip(cases, got) for v in pair)
    (a, ta), (b, tb) = got
    report("R/S hand values", ok,
           f"rs([1,-1,1,-1])={a} (textbook {ta}), rs([1,2,3,4])={b:.12f} (textbook {tb:.12f})")


def test_zipf_exactness_and_recovery():
    r = np.arange(1, 1001, dtype=float)
    exp_fit = zipf_fit(np.exp(-0.01 * r), trim_fraction=0.0)
    pow_fit = zipf_fit(r**-0.8, trim_fraction=0.0)
    ok = (
        abs(exp_fit.semilog_r2 - 1.0) <= 1e-9
        and abs(exp_fit.semilog_slope + 0.01) <= 1e-9
        and abs(pow_fit.loglog_r2 - 1.0) <= 1e-9
        and abs(pow_fit.loglog_slope + 0.8) <= 1e-9
    )
    slopes = [zipf_fit(power_law_ranks(1000, 1.0, 0.01, s), trim_fraction=0.05).loglog_slope
              for s in range(N_SEEDS)]
    mean_slope = float(np.mean(slopes))
    ok &= abs(mean_slope + 1.0) <= 0.05
    report("Zipf exactness and noisy recovery", ok,
           f"exact r2={pow_fit.loglog_r2:.2e}, noisy slope={mean_slope:.4f}")


def test_poincare_occupancy_discrimination():
    g = 32
    dof = g * g - 1
    # chi-square quantiles for dof = 1023 at p = 0.005, 0.995 and 0.99, as
    # scipy.stats.chi2.ppf (scipy 1.17.1) gives them.
    lo, hi = 910.2463086064963, 1143.2653170252513
    p99 = 1131.158738963494

    uniform_in = 0
    for seed in range(N_SEEDS):
        u = np.random.default_rng(seed).uniform(size=SERIES_LEN)
        chi2 = occupancy_stats(poincare_map(u), g).chi2_uniform
        uniform_in += int(lo <= chi2 <= hi)

    fgn_out = 0
    for seed in range(N_SEEDS):
        x = empirical_cdf_map(fgn(SERIES_LEN, 0.9, seed))
        chi2 = occupancy_stats(poincare_map(x), g).chi2_uniform
        fgn_out += int(chi2 > p99)

    ok = uniform_in >= 45 and fgn_out >= 45
    report("Poincare occupancy discrimination", ok,
           f"uniform in 99% range: {uniform_in}/50, fGn above 99th pct: {fgn_out}/50")


def test_cli_reproducibility(tmp_path):
    runner = CliRunner()

    def read_dir(p: Path):
        return {f.name: f.read_bytes() for f in sorted(p.iterdir())}

    ok = True
    # synth
    a, b = tmp_path / "sa", tmp_path / "sb"
    r = runner.invoke(cli_main, ["synth", "--kind", "fgn", "--h", "0.7", "--len", "4096",
                                 "--seed", "11", "--out", str(a)])
    ok &= r.exit_code == 0
    r = runner.invoke(cli_main, ["rerun", str(a / "manifest.json"), "--out", str(b)])
    ok &= r.exit_code == 0 and read_dir(a) == read_dir(b)
    # analyze
    c, d = tmp_path / "aa", tmp_path / "ab"
    r = runner.invoke(cli_main, ["analyze", "--series", str(a / "series.csv"),
                                 "--out", str(c)])
    ok &= r.exit_code == 0
    r = runner.invoke(cli_main, ["rerun", str(c / "manifest.json"), "--out", str(d)])
    ok &= r.exit_code == 0 and read_dir(c) == read_dir(d)
    # score
    e, f = tmp_path / "ca", tmp_path / "cb"
    r = runner.invoke(cli_main, ["score", "--corpus", str(MICRO_CORPUS),
                                 "--query", "alpha beta", "--out", str(e)])
    ok &= r.exit_code == 0
    r = runner.invoke(cli_main, ["rerun", str(e / "manifest.json"), "--out", str(f)])
    ok &= r.exit_code == 0 and read_dir(e) == read_dir(f)
    report("CLI manifest reproducibility (byte-identical reruns)", ok)


@pytest.mark.parametrize("h", [0.5, 0.9])
def test_planted_corpus_read_back(tmp_path, h):
    """score, then analyze --scores ranked by q, reads a planted fGn back in order:
    alpha and H are the estimators' on s = m / max(m) at the 12 digits of scores.csv."""
    corpora = load_script("corpora.py")
    lines, m = corpora.planted_corpus(1024, h, 3)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    runner = CliRunner()
    r = runner.invoke(cli_main, ["score", "--corpus", str(corpus), "--query", corpora.TERM,
                                 "--out", str(tmp_path / "s")])
    assert r.exit_code == 0, r.output
    r = runner.invoke(cli_main, ["analyze", "--scores", str(tmp_path / "s" / "scores.csv"),
                                 "--ranked-by", "q", "--read-off", "f",
                                 "--out", str(tmp_path / "a")])
    assert r.exit_code == 0, r.output
    s = np.array([as_written(v) for v in (m / m.max()).tolist()])
    np.testing.assert_array_equal(read_series_csv(tmp_path / "a" / "sequence.csv"), s)
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    got = summary["alpha"], summary["h_regression"]
    want = as_written(dfa(s).alpha), as_written(hurst_regression(s).h_regression)
    report(f"planted H={h} read back through score and analyze", got == want,
           f"alpha, H {got}; estimators on m / max(m) {want}")
