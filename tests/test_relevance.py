import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracrank.corpus import Corpus, Document, Query, ingest_jsonl
from fracrank.relevance import (
    Measure,
    RelevanceError,
    RelevanceTable,
    mutual_sequence,
    rank_by,
    score_corpus,
)
from fracrank.table import write_atomic

from conftest import MICRO_F, MICRO_MUTUAL_F_OF_Q, MICRO_Q, MICRO_Q_RAW


class TestScoreCorpus:
    def test_micro_f(self, micro_table):
        assert micro_table.raw_f.tolist() == [3.0, 1.0, 4.0]
        np.testing.assert_allclose(micro_table.f, MICRO_F, atol=1e-12)

    def test_micro_q(self, micro_table):
        np.testing.assert_allclose(micro_table.raw_q, MICRO_Q_RAW, atol=1e-12)
        np.testing.assert_allclose(micro_table.q, MICRO_Q, atol=1e-12)

    def test_single_document(self):
        corpus = ingest_jsonl(['{"id": "d", "text": "alpha x alpha"}'])
        table = score_corpus(corpus, Query(("alpha",)))
        assert table.f.tolist() == [1.0]
        assert table.q.tolist() == [1.0]

    def test_single_term_query_is_normalized_count(self):
        corpus = ingest_jsonl([
            '{"id": "a", "text": "w w w w"}',
            '{"id": "b", "text": "w x"}',
        ])
        table = score_corpus(corpus, Query(("w",)))
        np.testing.assert_allclose(table.f, [1.0, 0.25])

    def test_query_matches_nothing(self, micro_corpus):
        with pytest.raises(RelevanceError, match="query matches nothing"):
            score_corpus(micro_corpus, Query(("zzz",)))

    def test_zero_score_flagged(self):
        corpus = ingest_jsonl([
            '{"id": "a", "text": "alpha"}',
            '{"id": "b", "text": "other words"}',
        ])
        table = score_corpus(corpus, Query(("alpha",)))
        assert table.zero_score.tolist() == [False, True]
        assert table.f[1] == 0.0 and table.q[1] == 0.0

    def test_maxima_are_exactly_one(self, micro_table):
        assert micro_table.f.max() == 1.0
        assert micro_table.q.max() == 1.0

    def test_duplicate_document_leaves_others_unchanged(self, micro_corpus, micro_table):
        docs = micro_corpus.documents
        dup = Document(id="d1_copy", tokens=docs[0].tokens)
        bigger = Corpus(docs + (dup,))
        table2 = score_corpus(bigger, Query(("alpha", "beta")))
        # d1 does not hold the raw-f maximum, so duplicating it changes nothing.
        np.testing.assert_allclose(table2.f[:3], micro_table.f)

    @given(st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=8),
                    min_size=1, max_size=12))
    def test_max_normalization_property(self, token_lists):
        docs = tuple(
            Document(id=f"d{i}", tokens=tuple(toks)) for i, toks in enumerate(token_lists)
        )
        corpus = Corpus(docs)
        try:
            table = score_corpus(corpus, Query(("a",)))
        except RelevanceError:
            assert all("a" not in d.tokens for d in docs)
            return
        assert table.f.max() == 1.0
        assert table.q.max() == 1.0
        assert np.all((table.f >= 0) & (table.f <= 1))
        assert np.all((table.q >= 0) & (table.q <= 1))


def _scaled_table(table: RelevanceTable, factor: float) -> RelevanceTable:
    return RelevanceTable(
        ids=table.ids,
        raw_f=table.raw_f * factor,
        raw_q=table.raw_q,
        f=(table.raw_f * factor) / (table.f_max_raw * factor),
        q=table.q,
        f_max_raw=table.f_max_raw * factor,
        q_max_raw=table.q_max_raw,
        zero_score=table.zero_score,
    )


class TestRankBy:
    def test_rank_by_q(self, micro_table):
        assert rank_by(micro_table, Measure.Q).tolist() == [0, 2, 1]  # d1, d3, d2

    def test_rank_by_f(self, micro_table):
        assert rank_by(micro_table, Measure.F).tolist() == [2, 0, 1]  # d3, d1, d2

    def test_ties_keep_ingestion_order(self):
        corpus = ingest_jsonl([
            '{"id": "a", "text": "w"}',
            '{"id": "b", "text": "w"}',
            '{"id": "c", "text": "w"}',
        ])
        table = score_corpus(corpus, Query(("w",)))
        assert rank_by(table, Measure.F).tolist() == [0, 1, 2]

    @given(st.floats(min_value=0.1, max_value=100.0))
    def test_scale_invariance(self, micro_table, factor):
        scaled = _scaled_table(micro_table, factor)
        assert rank_by(scaled, Measure.F).tolist() == rank_by(micro_table, Measure.F).tolist()
        np.testing.assert_allclose(scaled.f, micro_table.f, rtol=1e-12)


class TestMutualSequence:
    def test_f_of_rank_q(self, micro_table):
        seq = mutual_sequence(micro_table, Measure.Q, Measure.F)
        np.testing.assert_allclose(seq, MICRO_MUTUAL_F_OF_Q, atol=1e-12)

    def test_q_of_rank_q_is_sorted(self, micro_table):
        seq = mutual_sequence(micro_table, Measure.Q, Measure.Q)
        np.testing.assert_allclose(seq, sorted(MICRO_Q, reverse=True), atol=1e-12)
        assert np.all(np.diff(seq) <= 0)

    def test_self_ranked_is_sorted_permutation(self, micro_table):
        for m in (Measure.F, Measure.Q):
            seq = mutual_sequence(micro_table, m, m)
            np.testing.assert_allclose(
                seq, np.sort(micro_table.scores(m))[::-1], atol=0
            )

    def test_length_matches_corpus(self, micro_table):
        assert mutual_sequence(micro_table, Measure.Q, Measure.F).size == 3

    def test_zero_score_exclusion(self):
        corpus = ingest_jsonl([
            '{"id": "a", "text": "alpha"}',
            '{"id": "b", "text": "none here"}',
        ])
        table = score_corpus(corpus, Query(("alpha",)))
        full = mutual_sequence(table, Measure.Q, Measure.F, include_zero_scores=True)
        trimmed = mutual_sequence(table, Measure.Q, Measure.F, include_zero_scores=False)
        assert full.size == 2
        assert trimmed.size == 1
        assert trimmed[0] == 1.0


class TestCsvRoundTrip:
    def test_export_header_and_roundtrip(self, micro_table, tmp_path):
        path = tmp_path / "scores.csv"
        write_atomic(path, micro_table.to_csv())
        assert path.read_text().splitlines()[0] == "id,raw_f,raw_q,f,q"
        back = RelevanceTable.from_csv(path)
        assert back.ids == micro_table.ids
        np.testing.assert_allclose(back.f, micro_table.f, rtol=1e-11)
        np.testing.assert_allclose(back.q, micro_table.q, rtol=1e-11)
