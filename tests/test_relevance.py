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
    RelevanceError,
    RelevanceTable,
    mutual_sequence,
    score_corpus,
)

from conftest import (
    MICRO_F,
    MICRO_MUTUAL_F_OF_Q,
    MICRO_Q,
    MICRO_Q_RAW,
    load_brute_force_oracle,
    write_table,
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


def rank_by(table: RelevanceTable, measure: str) -> list[int]:
    """The rank order mutual_sequence uses: it reads document indices off the other measure."""
    other = "q" if measure == "f" else "f"
    indices = np.arange(len(table.ids), dtype=float)
    indexed = dataclasses.replace(table, **{other: indices})
    return mutual_sequence(indexed, measure, other, include_zero_scores=True).astype(int).tolist()


class TestRankBy:
    def test_rank_by_q(self, micro_table):
        assert rank_by(micro_table, "q") == [0, 2, 1]  # d1, d3, d2

    def test_rank_by_f(self, micro_table):
        assert rank_by(micro_table, "f") == [2, 0, 1]  # d3, d1, d2

    def test_ties_keep_ingestion_order(self):
        corpus = ingest_jsonl([
            '{"id": "a", "text": "w"}',
            '{"id": "b", "text": "w"}',
            '{"id": "c", "text": "w"}',
        ])
        table = score_corpus(corpus, Query(("w",)))
        assert rank_by(table, "f") == [0, 1, 2]

    @given(st.floats(min_value=0.1, max_value=100.0))
    def test_scale_invariance(self, micro_table, factor):
        scaled = _scaled_table(micro_table, factor)
        assert rank_by(scaled, "f") == rank_by(micro_table, "f")
        np.testing.assert_allclose(scaled.f, micro_table.f, rtol=1e-12)


class TestMutualSequence:
    def test_f_of_rank_q(self, micro_table):
        seq = mutual_sequence(micro_table, "q", "f", include_zero_scores=True)
        np.testing.assert_allclose(seq, MICRO_MUTUAL_F_OF_Q, atol=1e-12)

    def test_q_of_rank_q_is_sorted(self, micro_table):
        seq = mutual_sequence(micro_table, "q", "q", include_zero_scores=True)
        np.testing.assert_allclose(seq, sorted(MICRO_Q, reverse=True), atol=1e-12)
        assert np.all(np.diff(seq) <= 0)

    def test_self_ranked_is_sorted_permutation(self, micro_table):
        for m in ("f", "q"):
            seq = mutual_sequence(micro_table, m, m, include_zero_scores=True)
            np.testing.assert_allclose(
                seq, np.sort(getattr(micro_table, m))[::-1], atol=0
            )

    def test_q_of_rank_f(self, micro_table):
        seq = mutual_sequence(micro_table, "f", "q", include_zero_scores=True)
        np.testing.assert_allclose(seq, [MICRO_Q[2], MICRO_Q[0], MICRO_Q[1]], atol=1e-12)

    @pytest.mark.parametrize("name", ["F", "Q", "raw_f", "raw_q", "id", "ids", "zero_score", ""])
    def test_unknown_measure_rejected(self, micro_table, name):
        for args in ((name, "f"), ("q", name)):
            with pytest.raises(RelevanceError,
                               match=f"unknown measure '{name}': expected one of f, q"):
                mutual_sequence(micro_table, *args, include_zero_scores=True)

    def test_length_matches_corpus(self, micro_table):
        seq = mutual_sequence(micro_table, "q", "f", include_zero_scores=True)
        assert seq.size == 3

    def test_zero_score_exclusion(self):
        corpus = ingest_jsonl([
            '{"id": "a", "text": "alpha"}',
            '{"id": "b", "text": "none here"}',
        ])
        table = score_corpus(corpus, Query(("alpha",)))
        full = mutual_sequence(table, "q", "f", include_zero_scores=True)
        trimmed = mutual_sequence(table, "q", "f", include_zero_scores=False)
        assert full.size == 2
        assert trimmed.size == 1
        assert trimmed[0] == 1.0


# Raw counts with ties and zeros, each with a raw Q from a few values (0 when the count is).
_raw_scores = st.lists(st.tuples(st.integers(0, 3), st.sampled_from([0.5, 1.0, 1.5, 0.25])),
                       min_size=1, max_size=12).filter(lambda rows: any(c for c, _ in rows))


class TestAllDirections:
    """mutual_sequence against a stable Python sort, in every direction."""

    @pytest.mark.parametrize("include_zero", [False, True])
    @pytest.mark.parametrize("read_off", ["f", "q"])
    @pytest.mark.parametrize("ranked_by", ["f", "q"])
    @given(rows=_raw_scores)
    def test_matches_stable_sort(self, rows, include_zero, ranked_by, read_off):
        raw_f = np.array([float(c) for c, _ in rows])
        raw_q = np.array([q if c else 0.0 for c, q in rows])
        table = RelevanceTable(tuple(f"d{i}" for i in range(len(rows))), raw_f, raw_q,
                               raw_f / raw_f.max(), raw_q / raw_q.max())
        key, read = getattr(table, ranked_by).tolist(), getattr(table, read_off).tolist()
        order = sorted(range(len(rows)), key=lambda i: key[i], reverse=True)
        want = [read[i] for i in order if include_zero or rows[i][0]]
        got = mutual_sequence(table, ranked_by, read_off, include_zero_scores=include_zero)
        assert got.tolist() == want


class TestCsvRoundTrip:
    def test_export_header_and_roundtrip(self, micro_table, tmp_path):
        path = tmp_path / "scores.csv"
        write_table(path, micro_table.to_csv())
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
            assert (mutual_sequence(table, "q", "f", include_zero_scores=True).tolist()
                    == self.oracle.brute_force_mutual(ids, f, q))
