"""Dual relevance measures, ranking, and mutual-relevance sequence construction.

Two measures are computed per document for a query of K terms with per-term
entry counts M_k and document length L (in tokens):

* F: sum of entry counts, sum_k M_k, normalized by the corpus maximum.
* Q: length-normalized log counts, (1/L) * sum_k ln(M_k + 1), normalized by
  the corpus maximum.

After normalization both measures lie in [0, 1] with at least one document
attaining exactly 1.  A mutual sequence ranks documents by one measure and
reads off the other measure's values in that rank order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from fracrank.corpus import Document, Query
from fracrank.table import format_table, read_table


_CSV_HEADER = ("id", "raw_f", "raw_q", "f", "q")


class RelevanceError(ValueError):
    """Raised when scoring preconditions fail."""


class Measure(str, enum.Enum):
    F = "f"
    Q = "q"


@dataclass(frozen=True)
class RelevanceTable:
    """Per-document raw and normalized scores, in ingestion order.

    ``f`` and ``q`` are the raw scores divided by their corpus maxima.
    """

    ids: tuple[str, ...]
    raw_f: np.ndarray
    raw_q: np.ndarray
    f: np.ndarray
    q: np.ndarray

    @property
    def zero_score(self) -> np.ndarray:
        """Flags documents containing no query term at all."""
        return self.raw_f == 0.0

    def scores(self, measure: Measure) -> np.ndarray:
        return self.f if measure is Measure.F else self.q

    def to_csv(self) -> Iterator[str]:
        """scores.csv as text chunks (``fracrank.table`` dialect), rows in ingestion order."""
        return format_table(_CSV_HEADER, [self.ids, self.raw_f, self.raw_q, self.f, self.q])

    @classmethod
    def from_csv(cls, path) -> "RelevanceTable":
        """Read a scores.csv."""
        return cls(*read_table(path, _CSV_HEADER, text_columns=1))


def score_corpus(documents: tuple[Document, ...], query: Query) -> RelevanceTable:
    """Score every document on both measures and normalize by the raw maxima.

    Raises RelevanceError for an empty corpus, or if no document contains any
    query term (both maxima would be zero, so normalization is undefined).
    """
    if not documents:
        raise RelevanceError("empty corpus")
    counts = np.fromiter((doc.counts.get(t, 0) for doc in documents for t in query.terms),
                         np.int64).reshape(len(documents), -1)
    raw_f = counts.sum(axis=1).astype(float)
    if not raw_f.any():
        raise RelevanceError("query matches nothing: no document contains any query term")
    # math.log(m + 1), not np.log, added left to right in query order: Q's bits on every Python.
    flat = np.sort(counts, axis=None)  # np.unique's first call imports numpy.ma, ~10 ms
    distinct = flat[np.diff(flat, prepend=-1) != 0]
    logs = np.array([math.log(m + 1) for m in distinct.tolist()])[np.searchsorted(distinct, counts)]
    raw_q = np.zeros(len(documents))
    for column in logs.T:
        raw_q += column
    raw_q /= [doc.length for doc in documents]
    return RelevanceTable(
        ids=tuple(doc.id for doc in documents),
        raw_f=raw_f,
        raw_q=raw_q,
        f=raw_f / raw_f.max(),
        q=raw_q / raw_q.max(),
    )


def mutual_sequence(
    table: RelevanceTable,
    ranked_by: Measure,
    read_off: Measure,
    include_zero_scores: bool,
) -> np.ndarray:
    """Values of ``read_off`` read in the rank order induced by ``ranked_by``.

    Documents are ranked by descending ``ranked_by`` score with a stable sort,
    so ties keep ingestion order. With ``include_zero_scores=False`` documents
    matching no query term are dropped before ranking (their normalized scores
    sit at exactly 0, outside the open interval the measures are meant to occupy).
    """
    order = np.argsort(-table.scores(ranked_by), kind="stable")
    if not include_zero_scores:
        order = order[~table.zero_score[order]]
        if order.size == 0:
            raise RelevanceError("no nonzero-score documents to sequence")
    return table.scores(read_off)[order]
