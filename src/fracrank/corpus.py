"""Corpus ingestion: tokenization, per-document term counts, and line-delimited JSON loading."""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

# Every ASCII character that is not a letter or digit, mapped to a space.
_ASCII_SEP = {c: " " for c in range(128) if not chr(c).isalnum()}


class CorpusError(ValueError):
    """Raised for malformed or inadmissible corpus input."""


def tokenize(text: str) -> list[str]:
    """Split raw text into lowercase alphanumeric tokens.

    Every maximal run of Unicode letters/digits becomes one token; all other
    characters act as separators. Total function: empty input gives [].
    Separators become spaces before lowercasing, so each token lowercases as alone.
    """
    if text.isascii():
        return text.translate(_ASCII_SEP).lower().split()
    return re.sub(r"[\W_]+", " ", text).lower().split()


@dataclass(frozen=True)
class Document:
    """A tokenized document: token count ``length`` (>= 1) and per-term ``counts``."""

    id: str
    length: int
    counts: Counter


@dataclass(frozen=True)
class Query:
    """Ordered list of distinct lowercase query terms."""

    terms: tuple[str, ...]

    def __post_init__(self):
        if len(self.terms) < 1:
            raise CorpusError("query must contain at least one term")
        norm = tuple(t.lower() for t in self.terms)
        if len(set(norm)) != len(norm):
            raise CorpusError("query terms must be distinct after lowercasing")
        object.__setattr__(self, "terms", norm)

    @classmethod
    def from_string(cls, text: str) -> "Query":
        """Build a query from whitespace/punctuation separated text, deduplicating."""
        return cls(tuple(dict.fromkeys(tokenize(text))))


def ingest_jsonl(lines: Iterable[str], terms: Iterable[str] | None = None) -> tuple[Document, ...]:
    """Documents from line-delimited JSON records with ``id`` and ``text`` fields.

    Documents keep input order. ``counts`` counts every token, or with ``terms``
    only those (lowercase) terms, which is all scoring reads. Rejects malformed
    lines (by line number), documents that tokenize to zero tokens, duplicate
    ids and empty input. Other fields, such as ``meta``, are ignored.
    """
    docs: list[Document] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"line {lineno}: malformed record ({exc.msg})") from exc
        if not isinstance(rec, dict) or "id" not in rec or "text" not in rec:
            raise CorpusError(f"line {lineno}: record must have 'id' and 'text' fields")
        doc_id = rec["id"]
        if not isinstance(doc_id, str):
            raise CorpusError(f"line {lineno}: 'id' must be a string")
        if not isinstance(rec["text"], str):
            raise CorpusError(f"line {lineno}: 'text' must be a string")
        if doc_id in seen:
            raise CorpusError(f"line {lineno}: duplicate document id {doc_id!r}")
        tokens = tokenize(rec["text"])
        if not tokens:
            raise CorpusError(
                f"line {lineno}: document {doc_id!r} is empty after tokenization"
            )
        counts = Counter(tokens if terms is None else {t: tokens.count(t) for t in terms})
        docs.append(Document(doc_id, len(tokens), counts))
        seen.add(doc_id)
    if not docs:
        raise CorpusError("no documents in input")
    return tuple(docs)


def ingest_jsonl_path(path, terms: Iterable[str] | None = None) -> tuple[Document, ...]:
    """ingest_jsonl over a UTF-8 file on disk."""
    with open(path, encoding="utf-8") as fh:
        return ingest_jsonl(fh, terms)
