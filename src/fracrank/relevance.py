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

from fracrank.corpus import Corpus, Query, count_entries
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

    ``f_max_raw`` / ``q_max_raw`` are the corpus maxima of the raw scores;
    ``f`` and ``q`` are the raw scores divided by them.  ``zero_score[i]``
    flags documents containing no query term at all.
    """

    ids: tuple[str, ...]
    raw_f: np.ndarray
    raw_q: np.ndarray
    f: np.ndarray
    q: np.ndarray
    f_max_raw: float
    q_max_raw: float
    zero_score: np.ndarray

    @property
    def size(self) -> int:
        return len(self.ids)

    def scores(self, measure: Measure) -> np.ndarray:
        return self.f if measure is Measure.F else self.q

    def to_csv(self) -> Iterator[str]:
        """scores.csv as text chunks (``fracrank.table`` dialect), rows in ingestion order."""
        return format_table(_CSV_HEADER, [self.ids, self.raw_f, self.raw_q, self.f, self.q])

    @classmethod
    def from_csv(cls, path) -> "RelevanceTable":
        """Read a scores.csv; the maxima and zero-score flags are recomputed from raw F and Q."""
        ids, raw_f, raw_q, f, q = read_table(path, _CSV_HEADER, text_columns=1)
        return cls(
            ids=ids,
            raw_f=raw_f,
            raw_q=raw_q,
            f=f,
            q=q,
            f_max_raw=float(raw_f.max()),
            q_max_raw=float(raw_q.max()),
            zero_score=raw_f == 0.0,
        )


def score_corpus(corpus: Corpus, query: Query) -> RelevanceTable:
    """Score every document on both measures and normalize by the raw maxima.

    Raises RelevanceError if no document contains any query term (both maxima
    would be zero, so normalization is undefined).
    """
    n = corpus.size
    raw_f = np.zeros(n)
    raw_q = np.zeros(n)
    for i, doc in enumerate(corpus):
        counts = [count_entries(doc, term) for term in query.terms]
        raw_f[i] = sum(counts)
        raw_q[i] = sum(math.log(m + 1) for m in counts) / doc.length
    f_max = float(raw_f.max())
    q_max = float(raw_q.max())
    if f_max == 0.0:
        raise RelevanceError("query matches nothing: no document contains any query term")
    return RelevanceTable(
        ids=tuple(doc.id for doc in corpus),
        raw_f=raw_f,
        raw_q=raw_q,
        f=raw_f / f_max,
        q=raw_q / q_max,
        f_max_raw=f_max,
        q_max_raw=q_max,
        zero_score=raw_f == 0.0,
    )


def rank_by(table: RelevanceTable, measure: Measure) -> np.ndarray:
    """Document indices by descending score (stable sort); ties go to the earlier document."""
    if table.size == 0:
        raise RelevanceError("empty relevance table")
    return np.argsort(-table.scores(measure), kind="stable")


def mutual_sequence(
    table: RelevanceTable,
    ranked_by: Measure,
    read_off: Measure,
    include_zero_scores: bool = True,
) -> np.ndarray:
    """Values of ``read_off`` read in the rank order induced by ``ranked_by``.

    With ``include_zero_scores=False`` documents matching no query term are
    dropped before ranking (their normalized scores sit at exactly 0, outside
    the open interval the measures are meant to occupy).
    """
    order = rank_by(table, ranked_by)
    if not include_zero_scores:
        order = order[~table.zero_score[order]]
        if order.size == 0:
            raise RelevanceError("no nonzero-score documents to sequence")
    return table.scores(read_off)[order]
