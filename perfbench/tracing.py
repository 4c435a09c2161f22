"""Spans and counters around the public functions of each fracrank module.

The wrappers are installed from outside the program: every module attribute
(and class attribute) that holds a target function is replaced by a wrapper
that records a span or bumps a counter. A target that no longer exists is
skipped and the metrics that only it fed are reported as absent, so renaming
or deleting a public function never breaks a traced run.

A layer's metric is the summed self time of its spans: a span's duration minus
the time its child spans cover. Self times therefore add up to the duration of
the outermost spans exactly, and ``cli.self_s`` is what the ``run_*`` span of
a CLI step spends outside every wrapped library call.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# (module, attribute or Class.attribute, metric fed by its spans)
SPANS = (
    ("fracrank.cli", "run_score", "cli.self_s"),
    ("fracrank.cli", "run_analyze", "cli.self_s"),
    ("fracrank.cli", "run_synth", "cli.self_s"),
    ("fracrank.corpus", "ingest_jsonl_path", "corpus.ingest_s"),
    ("fracrank.corpus", "ingest_jsonl", "corpus.ingest_s"),
    ("fracrank.relevance", "score_corpus", "relevance.score_corpus_s"),
    ("fracrank.relevance", "RelevanceTable.to_csv", "relevance.to_csv_s"),
    ("fracrank.relevance", "RelevanceTable.from_csv", "relevance.from_csv_s"),
    ("fracrank.relevance", "mutual_sequence", "relevance.mutual_sequence_s"),
    ("fracrank.fractal", "dfa", "fractal.dfa_s"),
    ("fracrank.fractal", "hurst_regression", "fractal.hurst_regression_self_s"),
    ("fracrank.fractal", "hurst_pointwise", "fractal.hurst_pointwise_s"),
    ("fracrank.fractal", "FluctuationCurve.to_csv", "fractal.csv_s"),
    ("fracrank.fractal", "HurstResult.pointwise_csv", "fractal.csv_s"),
    ("fracrank.rankstats", "poincare_map", "rankstats.poincare_map_s"),
    ("fracrank.rankstats", "PoincarePoints.to_csv", "rankstats.poincare_csv_s"),
    ("fracrank.rankstats", "occupancy_stats", "rankstats.occupancy_s"),
    ("fracrank.rankstats", "zipf_fit", "rankstats.zipf_fit_s"),
    ("fracrank.rankstats", "empirical_cdf_map", "rankstats.cdf_map_s"),
    ("fracrank.synth", "fgn", "synth.fgn_s"),
    ("fracrank.synth", "write_series_csv", "synth.series_csv_write_s"),
    ("fracrank.synth", "read_series_csv", "synth.series_csv_read_s"),
)

# Called once per R/S block, so counted rather than timed to keep tracing cheap.
RS_TARGET = ("fracrank.fractal", "rs_statistic")
RS_CALLS = "fractal.rs_statistic_calls"
RS_DEGENERATE = "fractal.rs_degenerate"


def _corpus_counts(corpus, counts, args):
    counts["corpus.docs"] += len(corpus)
    counts["corpus.tokens"] += sum(doc.length for doc in corpus)


def _corpus_bytes(corpus, counts, args):
    counts["corpus.bytes_in"] += os.path.getsize(args[0])


def _zero_scores(table, counts, args):
    counts["relevance.zero_score_docs"] += int(table.zero_score.sum())


# Counts read off a span's result and arguments; an AttributeError, TypeError
# or IndexError means the interface changed and the count is reported absent.
RESULT_COUNTS = {
    "ingest_jsonl": (_corpus_counts, ("corpus.docs", "corpus.tokens")),
    "ingest_jsonl_path": (_corpus_bytes, ("corpus.bytes_in",)),
    "score_corpus": (_zero_scores, ("relevance.zero_score_docs",)),
}

# Counts the benchmark measures from a CLI step's output directory.
OUTPUT_COUNTS = ("cli.bytes_out", "cli.files_out")

TIME_METRICS = tuple(dict.fromkeys(metric for _, _, metric in SPANS))
COUNT_METRICS = (
    "corpus.docs", "corpus.tokens", "corpus.bytes_in", "relevance.zero_score_docs",
    RS_CALLS, RS_DEGENERATE,
)
# Every metric a traced iteration records; the overhead compares iterations.
RECORDED_METRICS = TIME_METRICS + COUNT_METRICS + OUTPUT_COUNTS
OVERHEAD = "trace.overhead_s"


def _lookup(module_name, attr_path):
    """Return (owner, name, raw attribute) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, name = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(name)
    return None if raw is None else (owner, name, raw)


class Tracer:
    """Records spans and counts while installed; ``uninstall`` restores the program."""

    def __init__(self):
        self.spans: list[list] = []  # [metric, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _span(self, metric, fn, result_hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([metric, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if result_hook is not None:
                hook, names = result_hook
                try:
                    hook(result, counts, args)
                except (AttributeError, TypeError, IndexError):
                    self.absent.update(names)
            return result

        return wrapper

    def _counter(self, fn, degenerate_exc):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[RS_CALLS] += 1
            try:
                return fn(*args, **kwargs)
            except degenerate_exc:
                counts[RS_DEGENERATE] += 1
                raise

        return wrapper

    def _replace(self, owner, name, raw, wrapped):
        """Swap ``raw`` for ``wrapped`` on its owner and on every fracrank module aliasing it."""
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(wrapped)
        targets = [(owner, name)]
        if not isinstance(owner, type):
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "fracrank" or mod is owner:
                    continue
                targets += [(mod, k) for k, v in vars(mod).items() if v is raw]
        for obj, key in targets:
            self._patches.append((obj, key, raw))
            setattr(obj, key, wrapped)

    def install(self):
        fed: dict[str, bool] = defaultdict(bool)
        for module_name, attr_path, metric in SPANS:
            found = _lookup(module_name, attr_path)
            fed[metric] |= found is not None
            name = attr_path.rsplit(".", 1)[-1]
            hook = RESULT_COUNTS.get(name)
            if found is None:
                if hook is not None:
                    self.absent.update(hook[1])
                continue
            owner, name, raw = found
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            self._replace(owner, name, raw, self._span(metric, fn, hook))
        self.absent.update(m for m, ok in fed.items() if not ok)
        found = _lookup(*RS_TARGET)
        if found is None:
            self.absent.update((RS_CALLS, RS_DEGENERATE))
        else:
            fractal = importlib.import_module("fracrank.fractal")
            degenerate = getattr(fractal, "DegenerateSeriesError", ValueError)
            self._replace(*found, self._counter(found[2], degenerate))
        return self

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    def take(self) -> tuple[dict, float]:
        """Layer metrics recorded since the last take, and the outermost spans' total; resets.

        The self times in the metrics add up to that total.
        """
        metrics = self_times(self.spans)
        for name in COUNT_METRICS:
            metrics[name] = self.counts.get(name, 0)
        for name in self.absent:
            metrics.pop(name, None)
        root = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        self.spans.clear()
        self.counts.clear()
        return metrics, root


def self_times(spans) -> dict[str, float]:
    """Summed self time per metric; every time metric is present, 0.0 if unused."""
    child_time = [0.0] * len(spans)
    for metric, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = dict.fromkeys(TIME_METRICS, 0.0)
    for (metric, start, end, _), covered in zip(spans, child_time):
        out[metric] += end - start - covered
    return out
