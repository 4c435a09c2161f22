import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracrank.corpus import (
    CorpusError,
    Query,
    ingest_jsonl,
    ingest_jsonl_path,
    tokenize,
)

_REGEX_TOKEN = re.compile(r"[^\W_]+")


def regex_tokenize(text: str) -> list[str]:
    """Oracle: each maximal run of Unicode letters/digits, lowercased on its own."""
    return [m.group(0).lower() for m in _REGEX_TOKEN.finditer(text)]


class TestTokenize:
    def test_basic(self):
        assert tokenize("Military forces, military!") == ["military", "forces", "military"]

    def test_empty(self):
        assert tokenize("") == []

    def test_separators_and_digits(self):
        assert tokenize("A-B 42") == ["a", "b", "42"]

    def test_underscore_is_separator(self):
        assert tokenize("a_b") == ["a", "b"]

    def test_unicode(self):
        assert tokenize("Öl, naïve café") == ["öl", "naïve", "café"]

    # Any text, with extra weight on characters whose case mapping lengthens a
    # token or depends on its neighbours (final sigma).
    @given(st.text(st.characters() | st.sampled_from("İΣσςẞßΑα_ '\u0307\u00ad\ufb01ʰǅ")))
    def test_matches_regex_oracle(self, text):
        assert tokenize(text) == regex_tokenize(text)

    @given(st.text(alphabet=st.characters(max_codepoint=127)))
    def test_ascii_matches_regex_oracle(self, text):
        assert tokenize(text) == regex_tokenize(text)

    # Case mappings that lengthen a token or depend on context, separators that
    # str.split does not see as whitespace, and ones it does.
    @pytest.mark.parametrize("text", [
        "İSTANBUL İ", "ΟΔΟΣ ΟΔΟΣ.", "ΑΣ_Β ΑΣ'Β ΑΣ-Σ", "ẞ STRASSE ß", "\ufb01le \ufb01",
        "soft\xadhyphen", "x\u0307y", "a\u3000b\u2028c", "a\x1cb\x1dc\x1ed\x1ff",
        "Ǆ ǅ ǆ", "½ ² ٣ ⅷ", "ΣΑΣʰ Σ",
    ])
    def test_case_mapping_and_separator_edges(self, text):
        assert tokenize(text) == regex_tokenize(text)

    @given(st.text())
    def test_idempotent_under_rejoin(self, text):
        toks = tokenize(text)
        assert tokenize(" ".join(toks)) == toks


def ingest_one(text: str):
    (doc,) = ingest_jsonl([json.dumps({"id": "d", "text": text})])
    return doc


class TestCountEntries:
    def test_hand_count(self):
        doc = ingest_one("military forces military")
        assert doc.counts["military"] == 2

    def test_absent_term(self):
        doc = ingest_one("a b")
        assert doc.counts["zzz"] == 0

    def test_uniform_document(self):
        doc = ingest_one("a a a")
        assert doc.counts["a"] == 3

    @given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=50))
    def test_counts_sum_to_length(self, tokens):
        doc = ingest_one(" ".join(tokens))
        assert doc.length == len(tokens)
        assert sum(doc.counts[t] for t in set(tokens)) == doc.length


class TestIngestTerms:
    @given(st.lists(st.text(alphabet="abAB é_,.-1", min_size=1), min_size=1, max_size=8),
           st.lists(st.sampled_from(["a", "b", "ab", "é", "1", "zz"]),
                    min_size=1, max_size=4, unique=True))
    def test_same_length_and_term_counts(self, texts, terms):
        lines = [json.dumps({"id": str(i), "text": t}) for i, t in enumerate(texts)]
        try:
            full = ingest_jsonl(lines)
        except CorpusError as exc:
            with pytest.raises(CorpusError, match=re.escape(str(exc))):
                ingest_jsonl(lines, terms)
            return
        only = ingest_jsonl(lines, terms)
        assert [(d.id, d.length) for d in only] == [(d.id, d.length) for d in full]
        for kept, every in zip(only, full):
            assert set(kept.counts) <= set(terms)
            assert [kept.counts[t] for t in terms] == [every.counts[t] for t in terms]

    def test_path_passes_terms(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "d", "text": "Alpha beta alpha gamma"}\n', encoding="utf-8")
        (doc,) = ingest_jsonl_path(path, ("alpha", "delta"))
        assert (doc.length, doc.counts["alpha"], doc.counts["delta"]) == (4, 2, 0)
        assert "beta" not in doc.counts


class TestIngest:
    def test_order_preserved(self):
        lines = [
            '{"id": "a", "text": "one"}',
            '{"id": "b", "text": "two"}',
            '{"id": "c", "text": "three"}',
        ]
        corpus = ingest_jsonl(lines)
        assert len(corpus) == 3
        assert [d.id for d in corpus] == ["a", "b", "c"]

    def test_empty_after_tokenization_rejected(self):
        with pytest.raises(CorpusError, match="empty after tokenization"):
            ingest_jsonl(['{"id": "d1", "text": "!!!"}'])

    def test_duplicate_id_rejected(self):
        lines = ['{"id": "d1", "text": "x"}', '{"id": "d1", "text": "y"}']
        with pytest.raises(CorpusError, match="duplicate"):
            ingest_jsonl(lines)

    def test_malformed_line_names_line_number(self):
        lines = ['{"id": "d1", "text": "x"}', "{not json"]
        with pytest.raises(CorpusError, match="line 2"):
            ingest_jsonl(lines)

    def test_missing_fields(self):
        with pytest.raises(CorpusError, match="line 1"):
            ingest_jsonl(['{"id": "d1"}'])

    def test_meta_accepted_and_ignored(self):
        (doc,) = ingest_jsonl(['{"id": "d1", "text": "x x", "meta": {"src": "feed"}}'])
        assert (doc.id, doc.length, doc.counts) == ("d1", 2, {"x": 2})

    def test_empty_input_rejected(self):
        with pytest.raises(CorpusError):
            ingest_jsonl([])


class TestQuery:
    def test_terms_normalized(self):
        q = Query(("Alpha", "BETA"))
        assert q.terms == ("alpha", "beta")

    def test_duplicates_rejected(self):
        with pytest.raises(CorpusError):
            Query(("a", "A"))

    def test_from_string_dedups(self):
        assert Query.from_string("alpha beta Alpha").terms == ("alpha", "beta")

    def test_empty_rejected(self):
        with pytest.raises(CorpusError):
            Query(())
