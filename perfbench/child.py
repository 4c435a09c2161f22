"""Child processes the benchmark starts; run with ``PYTHONPATH=src``.

    python perfbench/child.py run SPEED_JSON ARGS...
        Runs ``fracrank ARGS...`` as ``python -m fracrank.cli`` would. Times
        the speed.py kernel SPEED_REPS times just before and just after the
        command, and every SAMPLE_EVERY_S seconds during it from a timer
        signal. Writes those kernel times to SPEED_JSON, so that the benchmark
        can remove them from the step's time and normalize the rest. Exits
        with the CLI's exit code.

    python perfbench/child.py cli TRACE_JSON ARGS...
        Runs ``fracrank ARGS...`` with every public layer function wrapped,
        then writes the step's layer metrics to TRACE_JSON, with the kernel
        times taken just before and just after (none during, so that no
        kernel time lands in a span). Exits with the CLI's exit code.

    python perfbench/child.py recovery CONFIG_JSON OUT_JSON
        The recovery-8192 Monte Carlo: fgn -> dfa -> hurst_regression on many
        short series in one process. CONFIG_JSON is an inline JSON object:
        length, hs, bias_seeds, seed, seconds, trace. With bias_seeds > 0 it
        first estimates every planted H on the fixed seeds 0..bias_seeds-1;
        with seconds > 0 it then times series from seeds derived from ``seed``
        until ``seconds`` have passed, alternating untraced and traced series
        when trace is 1, and times the speed.py kernel every SPEED_EVERY
        series, between them.
"""

from __future__ import annotations

import json
import math
import signal
import sys
import time

import speed
import tracing

WARMUP_SERIES = 3
SPEED_EVERY = 4  # series between two speed samples
SAMPLE_EVERY_S = 0.2  # a kernel (~8 ms) per 0.2 s: ~4% of a step, subtracted after
SPEED_REPS = 3


def _cli(argv: list[str], samples: list[float], sample_during: bool) -> int:
    """The ``fracrank`` command line in this process, with kernel samples; its exit code."""
    from fracrank.cli import main

    samples += speed.sample(SPEED_REPS)
    if sample_during:
        signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(speed.kernel()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        main.main(args=argv, prog_name="fracrank", standalone_mode=True)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        samples += speed.sample(SPEED_REPS)
    return 0


def run_sampled(speed_path: str, argv: list[str]) -> int:
    samples: list[float] = []
    try:
        return _cli(argv, samples, sample_during=True)
    finally:
        with open(speed_path, "w", encoding="utf-8") as fh:
            json.dump(samples, fh)


def run_traced(trace_path: str, argv: list[str]) -> int:
    tracer = tracing.Tracer().install()
    samples: list[float] = []
    try:
        return _cli(argv, samples, sample_during=False)
    finally:
        tracer.uninstall()
        metrics, root = tracer.take()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"metrics": metrics, "root_s": root, "speed": samples,
                       "absent": sorted(tracer.absent)}, fh)


def _estimate(synth, fractal, length, h, seed):
    """One Monte Carlo series: (dfa alpha, R/S H, synth seconds, analyze seconds)."""
    t0 = time.perf_counter()
    x = synth.fgn(length, h, seed)
    t1 = time.perf_counter()
    alpha = fractal.dfa(x).alpha
    h_rs = fractal.hurst_regression(x).h_regression
    t2 = time.perf_counter()
    return float(alpha), float(h_rs), t1 - t0, t2 - t1


def run_recovery(cfg: dict, out_path: str) -> int:
    import numpy as np

    import fracrank.fractal as fractal
    import fracrank.synth as synth

    length, hs = cfg["length"], cfg["hs"]
    out: dict = {"bias": [], "series": [], "errors": [], "speed": []}
    for h in hs:
        alphas, h_rs = [], []
        for seed in range(cfg["bias_seeds"]):
            try:
                a, r, _, _ = _estimate(synth, fractal, length, h, seed)
            except Exception as exc:  # a failed estimate is a benchmark failure, not a crash
                out["errors"].append(f"bias H={h} seed={seed}: {exc!r}")
                continue
            alphas.append(a)
            h_rs.append(r)
        if alphas:
            out["bias"].append({"h": h, "n": len(alphas),
                                "mean_dfa": sum(alphas) / len(alphas),
                                "mean_rs": sum(h_rs) / len(h_rs)})

    if cfg["seconds"] > 0:  # first calls pay one-off costs that users do not repeat
        for i in range(WARMUP_SERIES):
            _estimate(synth, fractal, length, hs[i % len(hs)], i)

    tracer = tracing.Tracer() if cfg["trace"] else None
    deadline = time.perf_counter() + cfg["seconds"]
    i = 0
    while cfg["seconds"] > 0 and (i < 2 or time.perf_counter() < deadline):
        h = hs[i % len(hs)]
        seed = int(np.random.SeedSequence([cfg["seed"], i]).generate_state(1)[0])
        traced = tracer is not None and i % 2 == 1
        if i % SPEED_EVERY == 0:
            out["speed"].append(speed.kernel())
        if traced:
            tracer.install()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            a, r, synth_s, analyze_s = _estimate(synth, fractal, length, h, seed)
            ok = math.isfinite(a) and math.isfinite(r)
            if not ok:
                out["errors"].append(f"H={h} seed={seed}: non-finite estimate {a!r}, {r!r}")
        except Exception as exc:  # counted as a failed operation
            out["errors"].append(f"H={h} seed={seed}: {exc!r}")
            ok, synth_s, analyze_s = False, 0.0, 0.0
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        sample = {"ok": ok, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                  "synth_s": synth_s, "analyze_s": analyze_s}
        if traced:
            tracer.uninstall()
            sample["layers"], sample["root_s"] = tracer.take()
        out["series"].append(sample)
        i += 1
    if tracer is not None:
        out["absent"] = sorted(tracer.absent)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def main(argv: list[str]) -> int:
    mode, *rest = argv
    if mode == "run":
        return run_sampled(rest[0], rest[1:])
    if mode == "cli":
        return run_traced(rest[0], rest[1:])
    if mode == "recovery":
        return run_recovery(json.loads(rest[0]), rest[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
