"""Machine-speed reference for normalizing timings.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes, far more than the regressions it must catch. ``kernel`` is a
fixed mix of the kinds of work fracrank does, sized to take about 8 ms:
interpreter loops, numpy calls on 16-value blocks (as in R/S), float
formatting (as in the CSV writers), and float, JSON and regex parsing (as in
the readers and ingest). Its data stays in the per-core caches, so it feels
the machine's speed more than the program's own memory traffic. The benchmark
times it in the same process as the work it measures, around and between that
work. A timing is reported as ``raw * REFERENCE_S / median(kernel times)``:
seconds at the machine speed under which the kernel takes REFERENCE_S. The
kernel never changes with the program, so the factor cancels out of any
comparison of two commits, while drift that slows both alike drops out.
"""

from __future__ import annotations

import json
import re
import statistics
import time

import numpy as np

# Kernel time on an idle 2-vCPU x86-64 VM with Python 3.11 and numpy 2.4.
REFERENCE_S = 0.008

_RNG = np.random.default_rng(20071002)
_SMALL = _RNG.standard_normal(4096)
_TEXTS = [f"{v:.12g}" for v in _SMALL[:1500]]
_RECORD = json.dumps({"id": "doc", "text": " ".join(["alpha beta gamma delta"] * 500)})
_WORD = re.compile(r"[^\W_]+")


def kernel() -> float:
    """Seconds one pass of the fixed work mix takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i
    for b in range(0, 4096, 16):
        blk = _SMALL[b:b + 16]
        blk.std()
        cum = np.cumsum(blk - blk.mean())
        cum.max() - cum.min()
    "\n".join(f"{v:.12g}" for v in _SMALL[:1500])
    sum(float(t) for t in _TEXTS)
    len(_WORD.findall(json.loads(_RECORD)["text"].lower()))
    return time.perf_counter() - start


def sample(reps: int) -> list[float]:
    """Time the kernel ``reps`` times in a row."""
    return [kernel() for _ in range(reps)]


def slowdown(samples: list[float]) -> float:
    """How many times slower than the reference the machine ran while ``samples`` were taken."""
    return statistics.median(samples) / REFERENCE_S
