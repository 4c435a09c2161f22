import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracrank.corpus import CorpusError, Document, Query, ingest_jsonl, ingest_jsonl_path
from fracrank.relevance import (
    Measure,
    RelevanceError,
    RelevanceTable,
    mutual_sequence,
    score_corpus,
)
from fracrank.table import write_bundle

from conftest import (
    MICRO_F,
    MICRO_MUTUAL_F_OF_Q,
    MICRO_Q,
    MICRO_Q_RAW,
    load_brute_force_oracle,
)


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

    def test_empty_corpus_rejected(self):
        with pytest.raises(RelevanceError, match="empty corpus"):
            score_corpus((), Query(("a",)))

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
        dup = Document("d1_copy", micro_corpus[0].length, micro_corpus[0].counts)
        bigger = micro_corpus + (dup,)
        table2 = score_corpus(bigger, Query(("alpha", "beta")))
        # d1 does not hold the raw-f maximum, so duplicating it changes nothing.
        np.testing.assert_allclose(table2.f[:3], micro_table.f)

    @given(st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=8),
                    min_size=1, max_size=12))
    def test_max_normalization_property(self, token_lists):
        corpus = tuple(
            Document(f"d{i}", len(toks), Counter(toks)) for i, toks in enumerate(token_lists)
        )
        try:
            table = score_corpus(corpus, Query(("a",)))
        except RelevanceError:
            assert all("a" not in toks for toks in token_lists)
            return
        assert table.f.max() == 1.0
        assert table.q.max() == 1.0
        assert np.all((table.f >= 0) & (table.f <= 1))
        assert np.all((table.q >= 0) & (table.q <= 1))

    def test_q_adds_left_to_right(self):
        # Counts (1, 2, 2) are the first triple whose ln(m + 1) a compensated sum,
        # as sum() of floats is from Python 3.12 on, rounds otherwise.
        logs = [math.log(2), math.log(3), math.log(3)]
        assert math.fsum(logs) / 5 != left_to_right_q([1, 2, 2], 5)
        corpus = ingest_jsonl(['{"id": "d", "text": "a b b c c"}'])
        table = score_corpus(corpus, Query(("a", "b", "c")))
        assert table.raw_q.tolist() == [left_to_right_q([1, 2, 2], 5)]

    def test_q_uses_math_log(self):
        # ln(9170) is the first ln(m + 1) that np.log and np.log1p round otherwise
        # than math.log on some numpy builds (numpy 2.4 on x86-64 among them).
        corpus = ingest_jsonl([json.dumps({"id": "d", "text": "a " * 9169})])
        table = score_corpus(corpus, Query(("a", "b")))
        assert table.raw_q.tolist() == [left_to_right_q([9169, 0], 9169)]

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda k: st.lists(
        st.tuples(st.lists(st.none() | st.integers(0, 50), min_size=k, max_size=k),
                  st.integers(1, 20)),
        min_size=1, max_size=8)))
    def test_q_bits_match_left_to_right_loop(self, rows):
        """Count matrices of up to 6 terms, None marking a term the document lacks."""
        assume(any(m for counts, _ in rows for m in counts))
        terms = tuple(f"t{j}" for j in range(len(rows[0][0])))
        held = [[m or 0 for m in counts] for counts, _ in rows]
        lengths = [sum(h) + extra for h, (_, extra) in zip(held, rows)]
        corpus = tuple(
            Document(f"d{i}", n, Counter({t: m for t, m in zip(terms, counts) if m is not None}))
            for i, ((counts, _), n) in enumerate(zip(rows, lengths))
        )
        table = score_corpus(corpus, Query(terms))
        assert table.raw_f.tolist() == [float(sum(h)) for h in held]
        assert table.raw_q.tolist() == [left_to_right_q(h, n) for h, n in zip(held, lengths)]


def left_to_right_q(counts, length) -> float:
    """Raw Q as defined: ln(m + 1) added term by term in query order, then / length."""
    q = 0.0
    for m in counts:
        q += math.log(m + 1)
    return q / length


def _scaled_table(table: RelevanceTable, factor: float) -> RelevanceTable:
    return RelevanceTable(
        ids=table.ids,
        raw_f=table.raw_f * factor,
        raw_q=table.raw_q,
        f=(table.raw_f * factor) / (table.raw_f.max() * factor),
        q=table.q,
    )


def rank_by(table: RelevanceTable, measure: Measure) -> list[int]:
    """The rank order mutual_sequence uses: it reads document indices off the other measure."""
    other = Measure.Q if measure is Measure.F else Measure.F
    indices = np.arange(len(table.ids), dtype=float)
    indexed = dataclasses.replace(table, **{other.value: indices})
    return mutual_sequence(indexed, measure, other, include_zero_scores=True).astype(int).tolist()


class TestRankBy:
    def test_rank_by_q(self, micro_table):
        assert rank_by(micro_table, Measure.Q) == [0, 2, 1]  # d1, d3, d2

    def test_rank_by_f(self, micro_table):
        assert rank_by(micro_table, Measure.F) == [2, 0, 1]  # d3, d1, d2

    def test_ties_keep_ingestion_order(self):
        corpus = ingest_jsonl([
            '{"id": "a", "text": "w"}',
            '{"id": "b", "text": "w"}',
            '{"id": "c", "text": "w"}',
        ])
        table = score_corpus(corpus, Query(("w",)))
        assert rank_by(table, Measure.F) == [0, 1, 2]

    @given(st.floats(min_value=0.1, max_value=100.0))
    def test_scale_invariance(self, micro_table, factor):
        scaled = _scaled_table(micro_table, factor)
        assert rank_by(scaled, Measure.F) == rank_by(micro_table, Measure.F)
        np.testing.assert_allclose(scaled.f, micro_table.f, rtol=1e-12)


class TestMutualSequence:
    def test_f_of_rank_q(self, micro_table):
        seq = mutual_sequence(micro_table, Measure.Q, Measure.F, include_zero_scores=True)
        np.testing.assert_allclose(seq, MICRO_MUTUAL_F_OF_Q, atol=1e-12)

    def test_q_of_rank_q_is_sorted(self, micro_table):
        seq = mutual_sequence(micro_table, Measure.Q, Measure.Q, include_zero_scores=True)
        np.testing.assert_allclose(seq, sorted(MICRO_Q, reverse=True), atol=1e-12)
        assert np.all(np.diff(seq) <= 0)

    def test_self_ranked_is_sorted_permutation(self, micro_table):
        for m in (Measure.F, Measure.Q):
            seq = mutual_sequence(micro_table, m, m, include_zero_scores=True)
            np.testing.assert_allclose(
                seq, np.sort(micro_table.scores(m))[::-1], atol=0
            )

    def test_length_matches_corpus(self, micro_table):
        seq = mutual_sequence(micro_table, Measure.Q, Measure.F, include_zero_scores=True)
        assert seq.size == 3

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
        write_bundle(path.parent, {path.name: micro_table.to_csv()})
        assert path.read_text().splitlines()[0] == "id,raw_f,raw_q,f,q"
        back = RelevanceTable.from_csv(path)
        assert back.ids == micro_table.ids
        np.testing.assert_allclose(back.f, micro_table.f, rtol=1e-11)
        np.testing.assert_allclose(back.q, micro_table.q, rtol=1e-11)


class TestBruteForceOracle:
    """score_corpus and mutual_sequence against the brute-force scorer in scripts/."""

    oracle = load_brute_force_oracle()

    # Query words mixed with random text over the alphabet, so that most
    # documents hold several matches and few examples are skipped.
    text = st.lists(st.one_of(st.sampled_from(["a", "b", "ab", "A", "B", "aB"]),
                              st.text(alphabet="abAB é_,.-1", max_size=4)),
                    min_size=1, max_size=8).map(" ".join)

    # "zz" occurs in no document.
    @given(texts=st.lists(text, min_size=1, max_size=10),
           terms=st.lists(st.sampled_from(["a", "b", "ab", "zz"]), min_size=1, unique=True))
    def test_matches_oracle(self, tmp_path_factory, texts, terms):
        path = tmp_path_factory.getbasetemp() / "oracle_corpus.jsonl"
        path.write_text("".join(json.dumps({"id": f"d{i}", "text": t}) + "\n"
                                for i, t in enumerate(texts)), encoding="utf-8")
        query = Query(tuple(terms))
        # Full counts, and the query's terms only, as `score` ingests.
        ingests = (None, query.terms)
        try:
            ids, f, q = self.oracle.brute_force_scores(path, terms)
        except ZeroDivisionError:
            # An empty document or no match: fracrank rejects it too; skip the example.
            for ingest_terms in ingests:
                with pytest.raises((CorpusError, RelevanceError)):
                    score_corpus(ingest_jsonl_path(path, ingest_terms), query)
            assume(False)
        for ingest_terms in ingests:
            table = score_corpus(ingest_jsonl_path(path, ingest_terms), query)
            # Both sides add ln(m + 1) left to right in query order (an absent term
            # adds +0.0, which keeps the bits): compare exactly.
            assert table.ids == tuple(ids)
            assert table.f.tolist() == f
            assert table.q.tolist() == q
            assert (mutual_sequence(table, Measure.Q, Measure.F, include_zero_scores=True).tolist()
                    == self.oracle.brute_force_mutual(ids, f, q))
