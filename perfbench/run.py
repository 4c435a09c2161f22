#!/usr/bin/env python3
"""fracrank benchmark: seeded workloads run against the CLI and the library.

    python3 perfbench/run.py --workload fgn-long --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is run from ``src/`` with
``PYTHONPATH=src``, one child process per CLI step, one step at a time (a
closed loop with one client). Every output is checked against references that
do not depend on the code under test. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). Timings are normalized to a reference machine speed measured
by perfbench/speed.py inside each process; the raw medians are printed too.
The lines before it report every metric with its percentile and sample
count, the failed checks, and the provenance of the run. See
perfbench/README.md for why each workload exists and how normalizing works.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import corpusgen
import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORKLOADS = ("fgn-long", "corpus-zipf", "recovery-8192")
PLANTED_HS = (0.50, 0.60, 0.75, 0.85, 0.95)
FGN_LONG_H = 0.75
STEP_TIMEOUT_S = 170.0
CORPUS_ANALYZE_RUNS = 3

# Tolerances of tests/test_acceptance.py, reused as they are: +/-0.05 on white
# noise (H = 0.5) and +/-0.08 for H in {0.6, 0.75, 0.85}. H = 0.95 has none.
ACCEPTANCE_TOL = {0.50: 0.05, 0.60: 0.08, 0.75: 0.08, 0.85: 0.08}
# The CLI writes 12 significant digits, so a value read back differs from the
# exact one by at most 5e-12 relative; anything past 1e-10 is a wrong value.
REL_TOL = 1e-10


@dataclass(frozen=True)
class Scale:
    fgn_len: int
    corpus: corpusgen.CorpusSpec
    mc_len: int
    bias_seeds: int
    setup_reps: int


FULL = Scale(2**20, corpusgen.CorpusSpec(20_000, 5_000, 20, 1_200), 8192, 20, 9)
# Seconds-long smoke sizes for perfbench/selfcheck.py.
TINY = Scale(2**14, corpusgen.CorpusSpec(400, 500, 5, 300), 8192, 2, 2)


class CheckError(Exception):
    """An output of the program failed a check."""


@dataclass
class Step:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str
    trace: dict | None = None
    slowdown: float = 1.0  # speed.slowdown of the kernel samples taken in the step's process


@dataclass
class Result:
    workload: str
    samples: dict[str, list[float]] = field(default_factory=dict)
    raw: dict[str, list[float]] = field(default_factory=dict)
    items_per_iteration: int = 1
    item_unit: str = ""
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    traced_wall: list[float] = field(default_factory=list)
    untraced_wall: list[float] = field(default_factory=list)
    accounting: list[dict] = field(default_factory=list)
    absent: set[str] = field(default_factory=set)
    info: dict = field(default_factory=dict)
    speed: list[float] = field(default_factory=list)  # every kernel time of the run

    def add(self, name: str, value: float, raw: float | None = None) -> None:
        """Record a sample; a normalized timing comes with its raw value."""
        self.samples.setdefault(name, []).append(value)
        if raw is not None:
            self.raw.setdefault(name, []).append(raw)

    def check(self, label: str, check) -> bool:
        """Run ``check``; a CheckError it raises is recorded as one failure."""
        try:
            check()
        except CheckError as exc:
            self.failures.append(f"{label}: {exc}")
            return False
        return True

    def operation(self, label: str, check) -> bool:
        """Count one attempted operation whose outputs ``check`` verifies."""
        self.attempted += 1
        return self.check(label, check)


# ---------------------------------------------------------------- processes

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list[str], workdir: Path) -> Step:
    """Run one child to completion; its own rusage comes from ``os.wait4``."""
    err_path = workdir / "stderr.txt"
    with open(err_path, "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: never leave the child running
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()[-2000:]
    return Step(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode, stderr)


def cli_step(result: Result, args: list[str], workdir: Path, traced: bool) -> Step:
    """One ``fracrank`` process, run by perfbench/child.py.

    The child times the speed kernel just before and just after the command
    and, when untraced, every 0.2 s during it. That kernel time is
    taken out of the step's wall and CPU time, and the step is normalized by
    the median of those samples.
    """
    if traced:
        out_path = workdir / "trace.json"
        step = run_child([sys.executable, str(CHILD), "cli", str(out_path), *args], workdir)
    else:
        out_path = workdir / "speed.json"
        step = run_child([sys.executable, str(CHILD), "run", str(out_path), *args], workdir)
    if step.returncode != 0:
        return step
    report = json.loads(out_path.read_text(encoding="utf-8"))
    samples = report["speed"] if traced else report
    step.wall_s -= sum(samples)
    step.cpu_s -= sum(samples)
    step.slowdown = speed.slowdown(samples)
    result.speed += samples
    if traced:
        step.trace = report
        result.absent.update(report["absent"])
        result.accounting.append({
            "step": args[0],
            "wall_s": step.wall_s,
            "run_span_s": report["root_s"],
            "layer_self_sum_s": sum(v for k, v in report["metrics"].items()
                                    if k in tracing.TIME_METRICS),
        })
    return step


def _require_ok(step: Step, name: str) -> None:
    if step.returncode != 0:
        raise CheckError(f"{name} exited {step.returncode}: {step.stderr.strip()[-300:]}")


# ------------------------------------------------------------------ checks

def strict_json(path: Path) -> dict:
    """Parse a file as JSON, rejecting NaN and infinities, which JSON does not allow."""
    def reject(token):
        raise CheckError(f"{path.name}: non-JSON constant {token}")
    try:
        return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: {exc}") from exc


def read_table(path: Path, header: list[str]) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckError(str(exc)) from exc
    if not rows or rows[0] != header:
        raise CheckError(f"{path.name}: header is not {','.join(header)}")
    return rows[1:]


def count_rows(path: Path, header: str) -> int:
    """Data rows of a one-header CSV, counted without parsing it."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CheckError(str(exc)) from exc
    if not data.startswith(header.encode() + b"\n"):
        raise CheckError(f"{path.name}: header is not {header}")
    return data.count(b"\n") - 1


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= REL_TOL * abs(want)


def check_values(path: Path, values: list[float], what: str) -> None:
    rows = read_table(path, ["value"])
    expect(len(rows) == len(values), f"{path.name}: {len(rows)} rows, want {len(values)}")
    for i, (row, want) in enumerate(zip(rows, values)):
        expect(close(float(row[0]), want), f"{path.name} row {i + 1}: {row[0]} != {what} {want!r}")


def check_analysis(outdir: Path, n: int) -> dict:
    """Checks every analysis bundle must pass; returns the summary."""
    summary = strict_json(outdir / "summary.json")
    expect(summary.get("n_values") == n, f"summary n_values {summary.get('n_values')} != {n}")
    expect(count_rows(outdir / "sequence.csv", "value") == n, "sequence.csv row count != N")
    expect(count_rows(outdir / "poincare.csv", "x,y") == n - 1, "poincare.csv row count != N-1")
    expect(count_rows(outdir / "dfa.csv", "n,d") >= 4, "dfa.csv has under 4 windows")
    expect(count_rows(outdir / "hurst_pointwise.csv", "N,h") >= 1, "hurst_pointwise.csv is empty")
    # Zipf fields, or zipf_error for a series with nonpositive values (documented).
    expect("zipf_error" in summary or "zipf_loglog_slope" in summary, "summary has no Zipf result")
    return summary


def check_estimate(name: str, got, planted: float) -> None:
    tol = ACCEPTANCE_TOL[planted]
    expect(isinstance(got, (int, float)) and abs(got - planted) <= tol,
           f"{name} {got!r} outside {planted} +/- {tol}")


def output_counts(outdir: Path) -> tuple[int, int]:
    files = [p for p in outdir.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


# --------------------------------------------------------------- workloads

def _new_totals() -> dict:
    return {"wall_s": 0.0, "cpu_s": 0.0, "raw_wall_s": 0.0, "raw_cpu_s": 0.0, "peak_rss_mb": 0.0}


def _record_step(result: Result, step: Step, name: str, outdir: Path, totals: dict) -> None:
    if step.trace is None:
        result.add(f"{name}_s", step.wall_s / step.slowdown, step.wall_s)
    totals["wall_s"] += step.wall_s / step.slowdown
    totals["cpu_s"] += step.cpu_s / step.slowdown
    totals["raw_wall_s"] += step.wall_s
    totals["raw_cpu_s"] += step.cpu_s
    totals["peak_rss_mb"] = max(totals["peak_rss_mb"], step.peak_rss_mb)
    if step.trace is not None:
        merged = totals.setdefault("layers", dict.fromkeys(tracing.RECORDED_METRICS, 0))
        for key, value in step.trace["metrics"].items():
            merged[key] += value / step.slowdown if key in tracing.TIME_METRICS else value
        bytes_out, files_out = output_counts(outdir)
        merged["cli.bytes_out"] += bytes_out
        merged["cli.files_out"] += files_out


def _finish_iteration(result: Result, totals: dict, traced: bool) -> None:
    if traced:
        result.traced_wall.append(totals["wall_s"])
        result.layers.append(totals["layers"])
        return
    result.untraced_wall.append(totals["wall_s"])
    result.add("wall_s", totals["wall_s"], totals["raw_wall_s"])
    result.add("cpu_s", totals["cpu_s"], totals["raw_cpu_s"])
    result.add("peak_rss_mb", totals["peak_rss_mb"])


def fgn_long_iteration(result: Result, ctx: dict, it: Path, traced: bool, after_step) -> None:
    n, seed = ctx["n"], ctx["seed"]
    gen, ana = it / "gen", it / "analyze"
    totals = _new_totals()
    synth_args = ["synth", "--kind", "fgn", "--h", str(FGN_LONG_H), "--len", str(n),
                  "--seed", str(seed), "--out", str(gen)]
    step = cli_step(result, synth_args, it, traced)
    after_step("synth", gen)

    def check_synth():
        _require_ok(step, "synth")
        expect(count_rows(gen / "series.csv", "value") == n, "series.csv row count != N")
    if not result.operation("synth", check_synth):
        return
    _record_step(result, step, "synth", gen, totals)

    step = cli_step(result, ["analyze", "--series", str(gen / "series.csv"), "--out", str(ana)],
                    it, traced)
    after_step("analyze", ana)

    def check_analyze():
        _require_ok(step, "analyze")
        summary = check_analysis(ana, n)
        expect((ana / "sequence.csv").read_bytes() == (gen / "series.csv").read_bytes(),
               "sequence.csv does not reproduce series.csv")
        check_estimate("alpha", summary.get("alpha"), FGN_LONG_H)
        check_estimate("h_regression", summary.get("h_regression"), FGN_LONG_H)
    if result.operation("analyze", check_analyze):
        _record_step(result, step, "analyze", ana, totals)
        _finish_iteration(result, totals, traced)


def corpus_iteration(result: Result, ctx: dict, it: Path, traced: bool, after_step) -> None:
    ref, mutual = ctx["ref"], ctx["mutual"]
    sc = it / "score"
    totals = _new_totals()
    step = cli_step(result, ["score", "--corpus", str(ctx["corpus"]), "--query", ctx["query"],
                             "--out", str(sc)], it, traced)
    after_step("score", sc)

    def check_score():
        _require_ok(step, "score")
        rows = read_table(sc / "scores.csv", ["id", "raw_f", "raw_q", "f", "q"])
        expect(len(rows) == len(ref.ids), f"scores.csv has {len(rows)} rows, want {len(ref.ids)}")
        for i, row in enumerate(rows):
            want = (ref.raw_f[i], ref.raw_q[i], ref.f[i], ref.q[i])
            expect(len(row) == 5 and row[0] == ref.ids[i], f"scores.csv row {i + 1}: id {row[:1]}")
            got = [float(v) for v in row[1:]]
            expect(got[0] == want[0] and all(close(g, w) for g, w in zip(got[1:], want[1:])),
                   f"scores.csv row {i + 1} ({row[0]}): {row[1:]} != reference {want}")
        summary = strict_json(sc / "summary.json")
        expect(summary.get("n_documents") == len(ref.ids), "summary n_documents is wrong")
        expect(summary.get("n_zero_score") == ctx["zero"], "summary n_zero_score is wrong")
    if not result.operation("score", check_score):
        return
    _record_step(result, step, "score", sc, totals)

    # This analyze is short and mostly process start, so an untraced iteration
    # runs it several times and counts the median run in wall_s.
    runs = []
    for r in range(1 if traced else CORPUS_ANALYZE_RUNS):
        ana = it / f"analyze{r}"
        step = cli_step(result, ["analyze", "--scores", str(sc / "scores.csv"), "--out", str(ana)],
                        it, traced)
        after_step("analyze", ana)

        def check_analyze(step=step, ana=ana):
            _require_ok(step, "analyze")
            check_analysis(ana, len(mutual))
            check_values(ana / "sequence.csv", mutual, "reference F[n(Q)]")
        if not result.operation("analyze", check_analyze):
            return
        runs.append((step, ana))
    runs.sort(key=lambda run: run[0].wall_s / run[0].slowdown)
    step, ana = runs[len(runs) // 2]
    for other, _ in runs:
        if other is not step:
            result.add("analyze_s", other.wall_s / other.slowdown, other.wall_s)
            totals["peak_rss_mb"] = max(totals["peak_rss_mb"], other.peak_rss_mb)
    _record_step(result, step, "analyze", ana, totals)
    _finish_iteration(result, totals, traced)


def recovery_worker(result: Result, scale: Scale, seed: int, seconds: float, trace: bool,
                    bias_seeds: int, workdir: Path) -> dict:
    """Run perfbench/child.py recovery; returns its report plus its rusage as ``step``.

    Every series the worker could not estimate is recorded as a failure.
    """
    cfg = {"length": scale.mc_len, "hs": list(PLANTED_HS), "bias_seeds": bias_seeds,
           "seed": seed, "seconds": seconds, "trace": int(trace)}
    out_path = workdir / "recovery.json"
    step = run_child([sys.executable, str(CHILD), "recovery", json.dumps(cfg), str(out_path)],
                     workdir)
    if step.returncode != 0:
        result.attempted += 1
        result.failures.append(f"recovery worker exited {step.returncode}: {step.stderr[-300:]}")
        return {"bias": [], "series": [], "errors": [], "speed": [], "step": step}
    report = json.loads(out_path.read_text(encoding="utf-8"))
    report["step"] = step
    result.failures += report["errors"]
    result.speed += report["speed"]
    return report


def bias_metrics(result: Result, report: dict, bias_seeds: int) -> dict:
    """rs_bias_abs and dfa_bias_abs from the fixed-seed pass, with its acceptance checks."""
    rows = {row["h"]: row for row in report["bias"]}
    result.attempted += len(PLANTED_HS) * bias_seeds
    for h in PLANTED_HS:
        row = rows.get(h)

        def check():
            expect(row is not None, "no estimates")
            if h in ACCEPTANCE_TOL:
                check_estimate("mean R/S H", row["mean_rs"], h)
                check_estimate("mean DFA alpha", row["mean_dfa"], h)
        result.check(f"bias row H={h}", check)
    result.info["bias_row"] = report["bias"]
    if len(rows) != len(PLANTED_HS):
        return {}
    return {
        "rs_bias_abs": statistics.fmean(abs(r["mean_rs"] - r["h"]) for r in rows.values()),
        "dfa_bias_abs": statistics.fmean(abs(r["mean_dfa"] - r["h"]) for r in rows.values()),
    }


def run_recovery(result: Result, scale: Scale, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    bias_seeds = 0 if trace else scale.bias_seeds
    report = recovery_worker(result, scale, seed, seconds, trace, bias_seeds, workdir)
    result.items_per_iteration, result.item_unit = 1, "series"
    # Series are too short to sample inside; the worker times the kernel between them.
    slow = speed.slowdown(report["speed"]) if report["speed"] else 1.0
    for sample in report["series"]:
        result.attempted += 1
        if not sample["ok"]:
            continue
        if sample["traced"]:
            result.traced_wall.append(sample["wall_s"] / slow)
            layers = {k: v / slow if k in tracing.TIME_METRICS else v
                      for k, v in sample["layers"].items()}
            result.layers.append(dict.fromkeys(tracing.OUTPUT_COUNTS, 0) | layers)
            result.accounting.append({"step": "series", "wall_s": sample["wall_s"],
                                      "run_span_s": sample["root_s"]})
            continue
        result.untraced_wall.append(sample["wall_s"] / slow)
        for key in ("wall_s", "cpu_s", "synth_s", "analyze_s"):
            result.add(key, sample[key] / slow, sample[key])
    result.absent.update(report.get("absent", []))
    result.samples["peak_rss_mb"] = [report["step"].peak_rss_mb]
    return {} if trace else bias_metrics(result, report, bias_seeds)


# A fresh interpreter imports the CLI, then times the speed kernel (its module
# loads in about a millisecond, numpy being in memory already).
SETUP_CODE = """import fracrank.cli
import sys
sys.path.insert(0, sys.argv[2])
import json, speed
with open(sys.argv[1], "w") as fh:
    json.dump(speed.sample(3), fh)
"""


def measure_setup(result: Result, reps: int, workdir: Path) -> None:
    """setup_s: interpreter start plus ``import fracrank.cli``, ``reps`` times."""
    samples: list[float] = []
    walls = []
    out_path = workdir / "setup_speed.json"
    for i in range(reps + 1):
        step = run_child([sys.executable, "-c", SETUP_CODE, str(out_path), str(HERE)], workdir)
        if step.returncode != 0:
            raise SystemExit(f"import fracrank.cli failed: {step.stderr.strip()}")
        if i:  # the first start compiles bytecode, which users pay once
            kernel = json.loads(out_path.read_text(encoding="utf-8"))
            walls.append(step.wall_s - sum(kernel))
            samples += kernel
    result.speed += samples
    slow = speed.slowdown(samples)
    for wall in walls:
        result.add("setup_s", wall / slow, wall)


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL,
                 after_step=lambda step, outdir: None) -> tuple[Result, dict]:
    """Run one workload; returns the result and the non-sample end-to-end values.

    ``after_step(step_name, outdir)`` runs after each CLI step, before its
    checks; perfbench/selfcheck.py corrupts outputs there.
    """
    result = Result(name)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    extra: dict = {}
    try:
        if not trace:
            measure_setup(result, scale.setup_reps, work)
        if name == "recovery-8192":
            extra = run_recovery(result, scale, seed, seconds, trace, work)
            return result, extra
        if not trace:
            report = recovery_worker(result, scale, seed, 0, False, scale.bias_seeds, work)
            extra = bias_metrics(result, report, scale.bias_seeds)
        if name == "fgn-long":
            ctx = {"n": scale.fgn_len, "seed": seed}
            iteration = fgn_long_iteration
            result.items_per_iteration, result.item_unit = scale.fgn_len, "series values"
        else:
            corpus = work / "corpus.jsonl"
            info = corpusgen.write_corpus(corpus, scale.corpus, seed)
            ref = corpusgen.reference_scores(corpus, info.query)
            ctx = {"corpus": corpus, "query": info.query, "ref": ref,
                   "mutual": corpusgen.reference_mutual(ref),
                   "zero": sum(1 for v in ref.raw_f if v == 0)}
            iteration = corpus_iteration
            result.items_per_iteration, result.item_unit = info.tokens, "tokens"
            result.info["corpus"] = vars(info) | {"zero_score_docs": ctx["zero"]}
        deadline = time.perf_counter() + seconds
        i = 0
        while i < (2 if trace else 1) or time.perf_counter() < deadline:
            it = work / f"it{i}"
            it.mkdir()
            iteration(result, ctx, it, trace and i % 2 == 1, after_step)
            shutil.rmtree(it)
            i += 1
        return result, extra
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # not empty or already gone
            pass


# ------------------------------------------------------------------ report

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def describe(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    out = {"median": statistics.median(ordered), "n": len(ordered)}
    for p in PERCENTILES:
        rank = math.ceil(p / 100.0 * len(ordered))
        if len(ordered) - rank >= 10:
            out[f"p{p:g}"] = ordered[rank - 1]
            break
    return out


def end_to_end(result: Result, extra: dict) -> dict[str, dict]:
    """Every end-to-end metric; normalized timings keep their raw median beside them."""
    stats = {}
    for key, values in result.samples.items():
        stats[key] = describe(values)
        if key in result.raw:
            stats[key]["raw"] = statistics.median(result.raw[key])
    if "wall_s" in stats:
        stats["throughput"] = {"median": result.items_per_iteration / stats["wall_s"]["median"],
                               "n": stats["wall_s"]["n"]}
    for key, value in extra.items():
        stats[key] = {"median": value, "n": 1}
    return stats


def per_layer(result: Result) -> dict[str, dict]:
    stats = {}
    for key in tracing.RECORDED_METRICS:
        if key in result.absent:
            continue
        values = [layers[key] for layers in result.layers if key in layers]
        if values:
            stats[key] = describe(values)
    if result.traced_wall and result.untraced_wall:
        stats[tracing.OVERHEAD] = {"median": statistics.median(result.traced_wall)
                                   - statistics.median(result.untraced_wall),
                                   "n": len(result.traced_wall) + len(result.untraced_wall)}
    return stats


def provenance() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    lines = {p.name: len(p.read_text(encoding="utf-8").splitlines())
             for p in sorted((SRC / "fracrank").glob("*.py"))}
    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "click": version("click"),
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
        "src_lines": lines | {"total": sum(lines.values())},
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def report(result: Result, extra: dict, trace: bool, spec: dict, seed: int, seconds: float) -> dict:
    """Print the human-readable report and return the final JSON object."""
    stats = per_layer(result) if trace else end_to_end(result, extra)
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    units.update(synth_s="s", score_s="s")
    failed = len(result.failures)
    print(f"fracrank benchmark: workload={result.workload} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    if not trace:
        print(f"  one item = one of {result.item_unit}; timings at reference speed, machine ran "
              f"{speed.slowdown(result.speed):.3f}x slower (n={len(result.speed)} speed samples)")
    for key, s in stats.items():
        pct = next((f"{k}={v:.6g}" for k, v in s.items() if k.startswith("p")), "")
        raw = f"raw median={s['raw']:.6g}" if "raw" in s else ""
        print(f"  {key:34s} {s['median']:14.6g} {units.get(key, ''):8s} n={s['n']:<5d} {pct} {raw}")
    print(f"  {'fail_ratio':34s} {failed / max(result.attempted, 1):14.6g} "
          f"{'':8s} failed={failed} attempted={result.attempted}")
    for name in sorted(result.absent):
        print(f"  {name:34s} {'absent':>14s} (its wrapped function no longer exists)")
    for failure in result.failures[:20]:
        print(f"  FAILED {failure}")
    detail = {"provenance": provenance(), "info": result.info, "stats": stats,
              "accounting": result.accounting[:8], "absent": sorted(result.absent)}
    print("detail " + json.dumps(detail, sort_keys=True))
    metrics = {m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]}
               for m in declared if m["name"] in stats}
    return {"correct": failed == 0, "attempted": max(result.attempted, 1), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes (seconds)")
    args = parser.parse_args(argv)
    # A terminated run still stops its child and removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")
    if not (SRC / "fracrank" / "cli.py").is_file():
        print(f"error: no fracrank sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    result, extra = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                 TINY if args.tiny else FULL)
    print(json.dumps(report(result, extra, bool(args.trace), spec, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
