#!/usr/bin/env python3
"""Self-check of the benchmark; run from the repository root.

    python3 perfbench/selfcheck.py

1. Smoke: every workload at the tiny sizes, untraced and traced, must exit 0,
   pass its checks and emit every metric BENCHMARK.json declares, plus the
   report-only lines (synth_s, score_s, fail_ratio).
2. Corruption: one flipped digit in scores.csv, and a NaN in summary.json,
   must each be counted as a failed operation.
3. Renames: a traced run whose wrapped names no longer exist reports those
   metrics as absent and still runs.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import run
import tracing

REPORT_ONLY = {"fgn-long": ("synth_s", "fail_ratio"),
               "corpus-zipf": ("score_s", "fail_ratio"),
               "recovery-8192": ("synth_s", "fail_ratio")}


def smoke() -> None:
    spec = run.load_spec()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
            assert last["correct"] and last["failed"] == 0, proc.stdout
            want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            assert set(last["metrics"]) == want, (workload, trace, want ^ set(last["metrics"]))
            if not trace:
                names = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
                assert set(REPORT_ONLY[workload]) <= names, (workload, names)
            print(f"smoke ok: {workload} trace={trace} ({len(want)} metrics)")


def flip_digit(value: str) -> str:
    """Change the third significant digit of a decimal number (or its last digit)."""
    digits = [i for i, c in enumerate(value) if c.isdigit()]
    first = next(k for k, i in enumerate(digits) if value[i] != "0")
    i = digits[min(first + 2, len(digits) - 1)]
    return value[:i] + str((int(value[i]) + 1) % 10) + value[i + 1:]


def corrupt_scores(outdir) -> None:
    path = outdir / "scores.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    row = next(i for i, line in enumerate(lines[1:], 1) if line.split(",")[4] != "0")
    fields = lines[row].split(",")
    fields[4] = flip_digit(fields[4])
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")


def nan_summary(outdir) -> None:
    path = outdir / "summary.json"
    text, n = re.subn(r'"alpha": [^,}]+', '"alpha": NaN', path.read_text(encoding="utf-8"))
    assert n == 1, text
    path.write_text(text, encoding="utf-8")


def corruption() -> None:
    for step_name, mutate, needle in (("score", corrupt_scores, "scores.csv"),
                                      ("analyze", nan_summary, "NaN")):
        def after_step(step, outdir):
            if step == step_name:
                mutate(outdir)
        result, _ = run.run_workload("corpus-zipf", 3, 0, False, run.TINY, after_step)
        assert result.failures, f"{mutate.__name__} was not caught"
        assert all(needle in f for f in result.failures), result.failures
        print(f"corruption caught: {mutate.__name__}: fail_ratio "
              f"{len(result.failures)}/{result.attempted}: {result.failures[0][:100]}")


def renames() -> None:
    """Trace with targets renamed away: their metrics go absent, nothing else changes."""
    saved = tracing.SPANS, tracing.RS_TARGET
    tracing.SPANS = tuple((m, a.replace("to_csv", "to_csv_renamed"), k) for m, a, k in saved[0])
    tracing.RS_TARGET = ("fracrank.fractal", "rs_statistic_renamed")
    try:
        tracer = tracing.Tracer().install()
        from fracrank.corpus import Query, ingest_jsonl
        from fracrank.fractal import hurst_regression
        from fracrank.relevance import score_corpus
        from fracrank.synth import fgn

        table = score_corpus(ingest_jsonl(['{"id": "a", "text": "x y x"}']), Query(("x",)))
        table.to_csv()
        hurst_regression(fgn(256, 0.7, 1))
        tracer.uninstall()
        metrics, _ = tracer.take()
    finally:
        tracing.SPANS, tracing.RS_TARGET = saved
    gone = {"relevance.to_csv_s", "rankstats.poincare_csv_s",
            tracing.RS_CALLS, tracing.RS_DEGENERATE}
    assert gone <= tracer.absent, tracer.absent
    assert not gone & set(metrics), metrics
    assert metrics["corpus.docs"] == 1 and metrics["fractal.hurst_regression_self_s"] > 0, metrics
    print(f"renames ok: absent {sorted(tracer.absent)}")


def main() -> int:
    if not (run.SRC / "fracrank" / "cli.py").is_file():
        print(f"error: no fracrank sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    smoke()
    corruption()
    renames()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
