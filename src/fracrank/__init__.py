"""Relevance scoring of document corpora and fractal analysis of rank sequences."""

from fracrank.corpus import Document, Query, ingest_jsonl, tokenize
from fracrank.relevance import (
    Measure,
    RelevanceTable,
    mutual_sequence,
    rank_by,
    score_corpus,
)
from fracrank.fractal import (
    FluctuationCurve,
    HurstResult,
    dfa,
    hurst_pointwise,
    hurst_regression,
    rs_statistic,
)
from fracrank.rankstats import (
    OccupancyReport,
    ZipfFit,
    empirical_cdf_map,
    occupancy_stats,
    poincare_map,
    zipf_fit,
)
from fracrank.synth import fgn, linear_trend, power_law_ranks, white_noise

__version__ = "0.1.0"
