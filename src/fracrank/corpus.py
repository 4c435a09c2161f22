"""Corpus ingestion: tokenization, per-document term counts, and line-delimited JSON loading."""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from fracrank.table import _decode_error_in_file, require_regular_file

_SPACE = ord(" ")

# For ASCII text, as one bytes.translate table: every byte that is not a
# letter or digit becomes a space, and letters are lowercased.
_ASCII = bytes(range(128))
_ASCII_NORMAL = bytes.maketrans(_ASCII, bytes(c if chr(c).isalnum() else _SPACE
                                              for c in _ASCII).lower())

# Query-aware ingest counts the terms of this many bytes of normalized text at
# a time. Batches of 64 KiB (more numpy calls) and of 1 MiB (arrays that no
# longer fit the CPU caches) were slower on the 20k-document bench corpus.
_BATCH_BYTES = 1 << 18

# A lone one: json.loads joins an escaped surrogate pair into one code point.
_SURROGATE = re.compile("[\ud800-\udfff]")


class CorpusError(ValueError):
    """Raised for malformed or inadmissible corpus input."""


def _normalized(text: str) -> bytes:
    """``text`` as UTF-8 in which the tokens are the runs of bytes other than a space.

    Every character that is not a Unicode letter or digit becomes a space
    before lowercasing, so each token lowercases as alone.
    """
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_NORMAL)
    return re.sub(r"[\W_]+", " ", text).lower().encode("utf-8")


def tokenize(text: str) -> list[str]:
    """Split raw text into lowercase alphanumeric tokens.

    Every maximal run of Unicode letters/digits becomes one token; all other
    characters act as separators. Total function: empty input gives [].
    """
    return _normalized(text).decode("utf-8").split()


@dataclass(frozen=True)
class Document:
    """A tokenized document: token count ``length`` (>= 1) and per-term ``counts``."""

    id: str
    length: int
    counts: Counter


@dataclass(frozen=True)
class Query:
    """Ordered list of distinct lowercase query terms, each one that a token can equal."""

    terms: tuple[str, ...]

    def __post_init__(self):
        if len(self.terms) < 1:
            raise CorpusError("query must contain at least one term")
        for t in self.terms:  # no token holds whitespace or ASCII other than letters and digits
            if not t or any(c.isspace() or c.isascii() and not c.isalnum() for c in t):
                raise CorpusError(f"query term {t!r} can match no token")
        norm = tuple(t.lower() for t in self.terms)
        if len(set(norm)) != len(norm):
            raise CorpusError("query terms must be distinct after lowercasing")
        object.__setattr__(self, "terms", norm)

    @classmethod
    def from_string(cls, text: str) -> "Query":
        """Build a query from whitespace/punctuation separated text, deduplicating."""
        return cls(tuple(dict.fromkeys(tokenize(text))))


def _records(lines: Iterable[str]) -> Iterator[tuple[str, bytes]]:
    """The id and normalized text of each record, each line checked as it is read."""
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
        if not doc_id.isascii() and _SURROGATE.search(doc_id):  # scores.csv could not hold it
            raise CorpusError(f"line {lineno}: 'id' holds a lone surrogate, not valid UTF-8")
        if not isinstance(rec["text"], str):
            raise CorpusError(f"line {lineno}: 'text' must be a string")
        if doc_id in seen:
            raise CorpusError(f"line {lineno}: duplicate document id {doc_id!r}")
        text = _normalized(rec["text"])
        if not text or text.isspace():
            raise CorpusError(
                f"line {lineno}: document {doc_id!r} is empty after tokenization"
            )
        seen.add(doc_id)
        yield doc_id, text


def _counted(records: list[tuple[str, bytes]], terms: list[str]) -> list[Document]:
    """Documents of (id, normalized text) records, with the counts of ``terms`` only.

    The texts are joined with spaces into one byte array, in which a token
    starts where a space is followed by another byte. One sort by first byte
    and length, of the tokens that share both with some term, puts the tokens
    that can equal a term in one slice, and their other bytes are compared one
    position at a time.
    """
    ids, texts = zip(*records)
    buf = np.frombuffer(b" ".join([b"", *texts, b""]), np.uint8)
    space = buf == _SPACE
    edges = np.flatnonzero(space[1:] != space[:-1])  # buf starts and ends with a space
    starts, sizes = edges[0::2] + 1, edges[1::2] - edges[0::2]
    # bounds[i] is where text i starts in buf; the last bound is the end of buf.
    bounds = np.cumsum([1] + [len(text) + 1 for text in texts])
    lengths = np.diff(np.searchsorted(starts, bounds)).tolist()
    # A 16-bit key, first byte then length up to 255, which argsort sorts by radix.
    key = buf[starts].astype(np.uint16) << 8 | np.minimum(sizes, 255).astype(np.uint16)
    # A lone surrogate cannot be encoded strictly; its bytes match no token either way.
    encoded = [term.encode("utf-8", "surrogatepass") for term in terms]
    # The empty term gets key 0, which no token has: a token never starts with a NUL.
    want = np.array([t[0] << 8 | min(len(t), 255) if t else 0 for t in encoded], np.uint16)
    # Only the tokens with a term's key are sorted; with a few terms they are few.
    wanted = np.zeros(1 << 16, bool)
    wanted[want] = True
    keep = np.flatnonzero(wanted[key])
    order = keep[np.argsort(key[keep], kind="stable")]
    key, starts, sizes = key[order], starts[order], sizes[order]
    slices = zip(np.searchsorted(key, want).tolist(), np.searchsorted(key, want, "right").tolist())
    hits = [np.zeros(0, np.int64)]  # np.concatenate needs an array even with no terms
    for k, (term, (lo, hi)) in enumerate(zip(encoded, slices)):
        pos = starts[lo:hi][sizes[lo:hi] == len(term)]
        for j in range(1, len(term)):
            pos = pos[buf[pos + j] == term[j]]
        hits.append((np.searchsorted(bounds, pos, "right") - 1) * len(terms) + k)
    found = np.bincount(np.concatenate(hits), minlength=len(texts) * len(terms))
    found = found.reshape(len(texts), len(terms))
    counts = [Counter() for _ in texts]
    at = np.nonzero(found)
    for i, k, n in zip(*(index.tolist() for index in at), found[at].tolist()):
        counts[i][terms[k]] = n
    return list(map(Document, ids, lengths, counts))


def ingest_jsonl(lines: Iterable[str], terms: Iterable[str] | None = None) -> tuple[Document, ...]:
    """Documents from line-delimited JSON records with ``id`` and ``text`` fields.

    Documents keep input order. ``counts`` counts every token, or with ``terms``
    only those (lowercase) terms, which is all scoring reads; a term a document
    lacks has no key. With ``terms`` no token becomes a Python string: the
    tokens and terms of about ``_BATCH_BYTES`` of normalized text at a time
    are counted in numpy.
    Rejects malformed lines (by line number), documents that tokenize to zero
    tokens, duplicate ids, ids that hold a lone surrogate and empty input; each
    line is checked as it is read, so the error of the first bad line wins.
    Other fields, such as ``meta``, are ignored.
    """
    docs: list[Document] = []
    if terms is None:
        for doc_id, text in _records(lines):
            tokens = text.decode("utf-8").split()
            docs.append(Document(doc_id, len(tokens), Counter(tokens)))
    else:
        terms = list(dict.fromkeys(terms))
        batch: list[tuple[str, bytes]] = []
        size = 0
        for record in _records(lines):
            batch.append(record)
            size += len(record[1])
            if size >= _BATCH_BYTES:
                docs += _counted(batch, terms)
                batch, size = [], 0
        if batch:
            docs += _counted(batch, terms)
    if not docs:
        raise CorpusError("no documents in input")
    return tuple(docs)


def ingest_jsonl_path(path, terms: Iterable[str] | None = None) -> tuple[Document, ...]:
    """ingest_jsonl over a regular UTF-8 file (else TableError); a byte that is not UTF-8 is
    named by its line."""
    require_regular_file(path, "a corpus")
    try:
        with open(path, encoding="utf-8") as fh:
            return ingest_jsonl(fh, terms)
    except UnicodeDecodeError as exc:
        whole, lines = _decode_error_in_file(path, exc)
        # The decoder reads ahead, so the lines before the byte's own may not have been checked.
        for _ in _records(line.decode("utf-8") for line in lines):
            pass
        raise CorpusError(f"line {len(lines) + 1}: {whole}") from exc
