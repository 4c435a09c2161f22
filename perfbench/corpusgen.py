"""Seeded synthetic corpus for the corpus-zipf workload, and its reference scorer.

Words are drawn from a Zipf(1) law over a generated vocabulary of distinct
lowercase ASCII words, and document lengths are log-uniform. The query mixes
one frequent, two mid-frequency and two rare words, so documents differ in
which terms they hold and a share of them (the short ones, mostly) holds none.

The reference scorer is deliberately independent of the fracrank package: the
text is space-joined lowercase ASCII words, so ``str.split`` tokenizes it, and
plain ``Counter`` counting gives the raw F and Q of each document.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))

# Zipf ranks (1 = most frequent) of the query words: frequent, mid, mid, rare, rare.
QUERY_RANKS = (4, 150, 600, 2500, 4500)


@dataclass(frozen=True)
class CorpusSpec:
    docs: int
    vocab: int
    len_min: int
    len_max: int


@dataclass(frozen=True)
class CorpusInfo:
    """What the benchmark records about a generated corpus."""

    docs: int
    tokens: int
    bytes: int
    sha256: str
    query: str


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        length = int(rng.integers(2, 6))
        word = "".join(rng.choice(_LETTERS, size=length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def write_corpus(path, spec: CorpusSpec, seed: int) -> CorpusInfo:
    """Write the seeded JSONL corpus to ``path``; the same seed gives the same bytes."""
    rng = np.random.default_rng([seed, 0xC0])
    words = _vocabulary(rng, spec.vocab)
    ranks = np.arange(1, spec.vocab + 1, dtype=float)
    p = 1.0 / ranks
    p /= p.sum()
    lengths = np.exp(rng.uniform(math.log(spec.len_min), math.log(spec.len_max + 1), spec.docs))
    lengths = np.minimum(lengths.astype(np.int64), spec.len_max)
    token_ids = rng.choice(spec.vocab, size=int(lengths.sum()), p=p)
    tokens = np.asarray(words, dtype=object)[token_ids].tolist()
    ends = np.cumsum(lengths).tolist()
    digest = hashlib.sha256()
    size = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        start = 0
        for i, end in enumerate(ends):
            line = json.dumps({"id": f"doc{i:06d}", "text": " ".join(tokens[start:end])}) + "\n"
            data = line.encode("utf-8")
            digest.update(data)
            size += len(data)
            fh.write(line)
            start = end
    query = " ".join(words[r - 1] for r in QUERY_RANKS if r <= spec.vocab)
    return CorpusInfo(spec.docs, int(lengths.sum()), size, digest.hexdigest(), query)


@dataclass(frozen=True)
class ReferenceScores:
    ids: list[str]
    raw_f: list[int]
    raw_q: list[float]
    f: list[float]
    q: list[float]


def reference_scores(path, query: str) -> ReferenceScores:
    """Brute-force F and Q for every document, in file order."""
    terms = query.split()
    ids, raw_f, raw_q = [], [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            tokens = rec["text"].split()
            counts = Counter(tokens)
            per_term = [counts[t] for t in terms]
            ids.append(rec["id"])
            raw_f.append(sum(per_term))
            raw_q.append(sum(math.log(m + 1) for m in per_term) / len(tokens))
    f_max = max(raw_f)
    q_max = max(raw_q)
    return ReferenceScores(
        ids=ids,
        raw_f=raw_f,
        raw_q=raw_q,
        f=[v / f_max for v in raw_f],
        q=[v / q_max for v in raw_q],
    )


def reference_mutual(ref: ReferenceScores) -> list[float]:
    """F read in descending-Q order, zero-score documents dropped.

    Ranking uses Q as the scores table stores it (12 significant digits), so
    documents whose Q differ only beyond that precision tie, and ties keep
    file order.
    """
    q12 = [float(f"{v:.12g}") for v in ref.q]
    order = sorted(range(len(ref.ids)), key=lambda i: (-q12[i], i))
    return [ref.f[i] for i in order if ref.raw_f[i] != 0]
