import functools
import itertools
import json
import random
import re
from collections import Counter
from collections.abc import Iterable
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fracrank.corpus
from fracrank.corpus import (
    CorpusError,
    Document,
    Query,
    ingest_jsonl,
    ingest_jsonl_path,
    tokenize,
)
from fracrank.relevance import score_corpus

_REGEX_TOKEN = re.compile(r"[^\W_]+")


def regex_tokenize(text: str) -> list[str]:
    """Oracle: each maximal run of Unicode letters/digits, lowercased on its own."""
    return [m.group(0).lower() for m in _REGEX_TOKEN.finditer(text)]


def regex_scores_csv(lines: Iterable[str], query_text: str) -> str:
    """Oracle: scores.csv of a JSONL corpus, from regex_tokenize and full per-token counts."""
    query = Query(tuple(dict.fromkeys(regex_tokenize(query_text))))
    docs = []
    for line in lines:
        record = json.loads(line)
        tokens = regex_tokenize(record["text"])
        docs.append(Document(record["id"], len(tokens), Counter(tokens)))
    return "".join(score_corpus(tuple(docs), query).to_csv())


# Generated corpora mix ASCII and non-ASCII words (case mappings that lengthen a
# token or change its bytes, digits, numerals), punctuation runs, separators that
# str.split does and does not see as whitespace, and adjacent repeats of query terms.
_ASCII_WORDS = ("alpha", "Alpha", "ALPHA", "beta", "x", "X", "42", "zz9", "a", "strasse")
_WORDS = _ASCII_WORDS + ("naïve", "NAÏVE", "straße", "STRASSE", "İstanbul", "ΟΔΟΣ", "όδος",
                         "½", "\ufb01le", "café", "Öl", "ǅ")
_ASCII_SEPARATORS = (" ", " ", "  ", ", ", "!?--", "_", "\x1c", "\n", "... ", "'")
_SEPARATORS = _ASCII_SEPARATORS + ("\u3000", " \u2014 ")
GENERATED_QUERY = "alpha naïve STRASSE İstanbul x 42"


def generated_corpus(docs: int, seed: int) -> list[str]:
    """JSONL lines of a seeded corpus: about half the documents are ASCII, the rest
    mixed, and three in ten hold a run of one query term repeated."""
    rng = random.Random(seed)
    lines = []
    for i in range(docs):
        ascii_only = rng.random() < 0.5
        words = rng.choices(_ASCII_WORDS if ascii_only else _WORDS, k=rng.randint(1, 60))
        if rng.random() < 0.3:
            at = rng.randrange(len(words))
            words[at:at] = [rng.choice(("alpha", "x", "42"))] * rng.randint(2, 5)
        separators = _ASCII_SEPARATORS if ascii_only else _SEPARATORS
        text = "".join(word + rng.choice(separators) for word in words)
        lines.append(json.dumps({"id": f"g{i}", "text": text}, ensure_ascii=i % 2 == 0) + "\n")
    return lines


@functools.cache
def generated_case() -> tuple[tuple[str, ...], str]:
    """The 4,000-document generated corpus of seed 0 (more than one ingest batch) and
    its scores.csv by the regex oracle."""
    lines = tuple(generated_corpus(4000, 0))
    return lines, regex_scores_csv(lines, GENERATED_QUERY)


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


# Terms that no token can equal (the empty term, ones holding a separator, an
# uppercase letter or a lone surrogate) and ones that tokens can.
_TERMS = st.lists(
    st.one_of(st.sampled_from(["a", "b", "ab", "é", "1", "zz", "ß", "i\u0307", "ς", "", " ", "a b",
                               "a-b", "a_b", "\x1c", "A", "AB", "É", "\ud800", "a\ud800"]),
              st.text(alphabet="abAé_ -\ud800", max_size=3)),
    min_size=1, max_size=8)
# Texts with lone surrogates, separators that str.split sees as whitespace,
# runs of punctuation and adjacent repeats of one word.
_TEXTS = st.one_of(
    st.text(alphabet="abAB é_,.-1 \ud800\x1c\x1d\x1e\x1f!?İßΣς", min_size=1),
    st.builds(lambda word, n, sep: sep.join([word] * n),
              st.sampled_from(["a", "ab", "A", "é", "ß", "İ"]), st.integers(1, 5),
              st.sampled_from([" ", "  ", "!?", "--", "\x1c", "_"])),
)


class TestIngestTerms:
    # Batches as small as one byte put every document, or several, in a batch of its own.
    @given(st.lists(_TEXTS, min_size=1, max_size=8), _TERMS,
           st.sampled_from([1, 7, 64, fracrank.corpus._BATCH_BYTES]))
    def test_same_length_and_term_counts(self, texts, terms, batch_bytes):
        lines = [json.dumps({"id": str(i), "text": t}) for i, t in enumerate(texts)]
        empty = [i for i, text in enumerate(texts) if not regex_tokenize(text)]
        with mock.patch.object(fracrank.corpus, "_BATCH_BYTES", batch_bytes):
            if empty:
                message = f"line {empty[0] + 1}: document '{empty[0]}' is empty after tokenization"
                with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
                    ingest_jsonl(lines, terms)
                return
            docs = ingest_jsonl(lines, terms)
        assert [d.id for d in docs] == [str(i) for i in range(len(texts))]
        for doc, text in zip(docs, texts):
            every = Counter(regex_tokenize(text))
            assert doc.length == sum(every.values())
            assert dict(doc.counts) == {t: every[t] for t in terms if every[t]}

    def test_generated_corpus_spans_batches_and_matches_regex_oracle(self):
        lines, expected = generated_case()
        query = Query.from_string(GENERATED_QUERY)
        counted = fracrank.corpus._counted
        with mock.patch.object(fracrank.corpus, "_counted", wraps=counted) as spy:
            docs = ingest_jsonl(lines, query.terms)
        assert spy.call_count >= 3
        for doc, line in zip(docs, lines):
            every = Counter(regex_tokenize(json.loads(line)["text"]))
            assert doc.length == sum(every.values())
            assert dict(doc.counts) == {t: every[t] for t in query.terms if every[t]}
        assert "".join(score_corpus(docs, query).to_csv()) == expected

    # Tokens and terms around 255 bytes, where the sort key stops telling lengths apart.
    def test_long_terms(self):
        text = " ".join(["a" * 300, "a" * 256, "a" * 256, "a" * 255, "é" * 130, "a" * 254 + "b"])
        terms = ["a" * n for n in (254, 255, 256, 257, 300, 301)] + ["é" * 130, "é" * 128]
        (doc,) = ingest_jsonl([json.dumps({"id": "d", "text": text})], terms)
        assert (doc.length, dict(doc.counts)) == (
            6, {"a" * 255: 1, "a" * 256: 2, "a" * 300: 1, "é" * 130: 1})

    def test_no_terms(self):
        docs = ingest_jsonl(['{"id": "a", "text": "x y"}', '{"id": "b", "text": "z"}'], [])
        assert [(d.length, d.counts) for d in docs] == [(2, {}), (1, {})]

    def test_one_shot_terms_count_in_every_document(self):
        lines = ['{"id": "a", "text": "x y x"}', '{"id": "b", "text": "x x x"}']
        docs = ingest_jsonl(lines, (t for t in ["x", "zz"]))
        assert [(d.counts["x"], d.counts["zz"]) for d in docs] == [(2, 0), (3, 0)]

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

    # Each bad line, and the start of its message once "line 2: " is put before it.
    BAD_LINES = {
        "empty": ('{"id": "e", "text": "!? _"}', "document 'e' is empty after tokenization"),
        "malformed": ('{"id": "m", "text": ', "malformed record"),
        "duplicate": ('{"id": "d0", "text": "b"}', "duplicate document id 'd0'"),
        "text_not_str": ('{"id": "n", "text": 7}', "'text' must be a string"),
        "surrogate_id": ('{"id": "\\ud800", "text": "a"}', "'id' holds a lone surrogate"),
    }

    @pytest.mark.parametrize("terms", [None, ("a", "b")])
    def test_first_bad_line_wins(self, terms):
        for k in range(1, len(self.BAD_LINES) + 1):
            for kinds in itertools.permutations(self.BAD_LINES, k):
                lines = (['{"id": "d0", "text": "a"}'] + [self.BAD_LINES[kind][0] for kind in kinds]
                         + ['{"id": "z", "text": "a b"}'])
                with pytest.raises(CorpusError) as info:
                    ingest_jsonl(lines, terms)
                assert str(info.value).startswith(f"line 2: {self.BAD_LINES[kinds[0]][1]}"), kinds

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

    # No token holds whitespace or an ASCII character that is not a letter or digit,
    # so such a term would silently score as if it were left out.
    @pytest.mark.parametrize("term", ["", "a b", "a-b", "-a", "a_b"])
    def test_term_no_token_can_equal_rejected(self, term):
        with pytest.raises(CorpusError, match=f"query term {re.escape(repr(term))} can match"):
            Query(("alpha", term))

    # U+0307 splits text, but lowering "İ" makes it, so a token can hold it.
    @pytest.mark.parametrize("term", ["Alpha", "ß", "İ", "i\u0307stanbul", "ǅ", "ΑΣ"])
    def test_term_a_token_can_equal_accepted(self, term):
        assert Query(("x", term)).terms == ("x", term.lower())

    def test_from_string_terms_accepted(self):
        assert Query.from_string("İstanbul").terms == ("i\u0307stanbul",)

    @given(st.text())
    def test_every_token_is_an_accepted_term(self, text):
        for token in tokenize(text):
            assert Query((token,)).terms == (token,)
