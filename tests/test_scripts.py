"""The scripts under scripts/ and the benchmark's tracer run against the package as it is.

A script that imports a name the package no longer has fails here, not at
its next manual run, and so does a traced name that the package dropped.
"""

import ast
import importlib.util
import json
import math
import subprocess

import numpy as np
from click.testing import CliRunner

from fracrank import fractal
from fracrank.cli import main
from fracrank.synth import white_noise

from conftest import MICRO_MUTUAL_F_OF_Q, ROOT, estimator_digest, load_script, run_python


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return run_python(ROOT / "scripts" / name, *args)


def test_estimator_recovery_runs():
    result = run_script("estimator_recovery.py", "--seeds", "2", "--length", "1024")
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split()[:2] == ["planted", "H"]
    assert [float(row.split()[0]) for row in rows] == [0.5, 0.6, 0.75, 0.85]
    assert all(math.isfinite(float(v)) for row in rows for v in row.split())


def test_verify_micro_corpus_runs():
    result = run_script("verify_micro_corpus.py")
    assert result.returncode == 0, result.stderr
    (line,) = [row for row in result.stdout.splitlines() if row.startswith("F[n(Q)]:")]
    assert ast.literal_eval(line.split(":", 1)[1].strip()) == [
        f"{v:.12g}" for v in MICRO_MUTUAL_F_OF_Q
    ]


def test_table_speed_runs():
    result = run_script("table_speed.py", "--length", "4096", "--seed", "3", "--repeat", "1")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line.split()[0] for line in lines[2:6]] == ["fgn", "cdf", "wide", "scores"]
    assert lines[-1] == "bytes identical"


def test_estimator_speed_runs():
    result = run_script("estimator_speed.py", "--length", "1024", "--repeat", "2")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line.split()[0] for line in lines[1:6]] == [
        "fgn", "dfa", "hurst_regression", "hurst_pointwise", "fgn_cold"]
    assert lines[-1] == f"sha256 {estimator_digest(1024)}"


def test_corpora_runs(tmp_path):
    out = tmp_path / "corpus.jsonl"
    result = run_script("corpora.py", "--h", "0.75", "--len", "64", "--seed", "1",
                        "--out", out)
    assert result.returncode == 0, result.stderr
    docs = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [d["id"] for d in docs] != [f"d{i}" for i in range(64)]
    m = {int(d["id"][1:]): d["text"].split().count("planted") for d in docs}
    assert sorted(m) == list(range(64))
    want = load_script("corpora.py").planted_counts(64, 0.75, 1)
    assert [m[i] for i in range(64)] == want.tolist() and min(m.values()) >= 1


def load_tracing():
    """perfbench/tracing.py as a module."""
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_traced_names_exist():
    """Every function perfbench/tracing.py wraps exists, so every metric it feeds is recorded."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent == set()


def test_benchmark_rs_counters_count_pointwise_prefixes():
    """hurst_pointwise measures each prefix with rs_statistic, so the benchmark's R/S
    counters see one call per prefix and one degenerate call per skipped prefix."""
    tracing = load_tracing()
    x = np.concatenate([np.full(100, 0.25), white_noise(4000, 1)])
    tracer = tracing.Tracer()
    try:
        tracer.install()
        points, skipped = fractal.hurst_pointwise(x)
    finally:
        tracer.uninstall()
    metrics, _ = tracer.take()
    assert len(points) + len(skipped) == len(fractal._geometric_grid(16, x.size)) == 20
    assert len(skipped) == 7
    assert metrics[tracing.RS_CALLS] == 20
    assert metrics[tracing.RS_DEGENERATE] == len(skipped)


def test_benchmark_spans_are_fed_by_the_cli(tmp_path):
    """The CLI calls what the benchmark's tracer wraps: a generator bound when the
    module is imported, not looked up when it runs, would leave synth.fgn_s at 0."""
    rng = np.random.default_rng(3)
    words = np.array(["alpha", "beta", "gamma", "delta"])
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"d{i}", "text": " ".join(rng.choice(words, rng.integers(5, 50)))}) + "\n"
        for i in range(300)))
    tracing = load_tracing()
    tracer = tracing.Tracer()
    runner = CliRunner()
    gen, sc = f"{tmp_path}/gen", f"{tmp_path}/sc"
    try:
        tracer.install()
        for args in (["synth", "--kind", "fgn", "--h", "0.7", "--len", "4096", "--out", gen],
                     ["analyze", "--series", f"{gen}/series.csv", "--out", f"{tmp_path}/a1"],
                     ["score", "--corpus", str(corpus), "--query", "alpha beta", "--out", sc],
                     ["analyze", "--scores", f"{sc}/scores.csv", "--out", f"{tmp_path}/a2"]):
            result = runner.invoke(main, args, catch_exceptions=False)
            assert result.exit_code == 0, result.output
    finally:
        tracer.uninstall()
    metrics, _ = tracer.take()
    assert tracer.absent == set()
    assert [m for m in tracing.TIME_METRICS if not metrics[m] > 0] == []
    assert metrics["corpus.docs"] == 300
