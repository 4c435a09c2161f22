#!/usr/bin/env python3
"""Planted-answer corpora: a JSONL corpus whose q -> f mutual sequence is a chosen fGn.

Document i holds m_i = max(1, rint(200 + 40 x_i / sd(x))) copies of the query
term, x an fGn of Hurst index H, and filler tokens up to a length L_i. The
lengths make Q = ln(m_i + 1) / L_i fall strictly along i, also after the 12
digits that ``scores.csv`` keeps, and the lines are written in a seeded random
order. So ``fracrank score --query planted`` followed by ``fracrank analyze
--scores ... --ranked-by q --read-off f`` reads F = m / max(m) back in planted
order: its alpha and H are those of ``dfa`` and ``hurst_regression`` on that
sequence alone, which is a scaled copy of the integer-rounded fGn.

    python3 scripts/corpora.py --h 0.9 --len 1024 --seed 3 --out corpus.jsonl

Document d{i} holds m_i copies of the term, so the file itself records m.
"""

import argparse
import json
import math

import numpy as np

from fracrank.synth import fgn

TERM, FILLER = "planted", "x"

# Each Q is at most 1 / (1 + 1e-9) of the one before it, so rounding both to
# 12 significant digits (a relative error below 5e-13) keeps them in order.
_GAP = 1e-9


def planted_counts(n: int, h: float, seed: int) -> np.ndarray:
    """m_i = max(1, rint(200 + 40 x_i / sd(x))), x the fGn of length n, index h."""
    x = fgn(n, h, seed)
    return np.maximum(1, np.rint(200 + 40 * x / x.std())).astype(np.int64)


def planted_lengths(m: np.ndarray) -> np.ndarray:
    """The shortest lengths L_i >= m_i whose Q = ln(m_i + 1) / L_i falls by _GAP or more.

    Raises ValueError if Q, normalized and rounded to 12 digits as ``scores.csv``
    holds it, does not fall strictly along i.
    """
    logs = np.array([math.log(v + 1) for v in m.tolist()])  # score_corpus's log
    c = float((m / logs).max())  # L_i / ln(m_i + 1) only grows, so every L_i >= m_i
    lengths = np.empty(m.size, dtype=np.int64)
    for i, log in enumerate(logs.tolist()):
        lengths[i] = math.floor(c * log * (1 + _GAP)) + 1
        c = lengths[i] / log
    q = logs / lengths
    q12 = np.array([float(f"{v:.12g}") for v in (q / q.max()).tolist()])
    if not (np.diff(q12) < 0).all():
        raise ValueError("planted lengths do not order Q strictly at 12 digits")
    return lengths


def planted_corpus(n: int, h: float, seed: int) -> tuple[list[str], np.ndarray]:
    """The corpus's JSONL lines, in seeded random order, and m in planted order."""
    m = planted_counts(n, h, seed)
    lengths = planted_lengths(m)
    lines = [json.dumps({"id": f"d{i}", "text": f"{TERM} " * k + f"{FILLER} " * (length - k)})
             for i, (k, length) in enumerate(zip(m.tolist(), lengths.tolist()))]
    order = np.random.default_rng(seed).permutation(n)
    return [lines[i] for i in order.tolist()], m


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--h", type=float, required=True, help="planted Hurst index, in (0, 1)")
    parser.add_argument("--len", type=int, default=1024, help="documents, a power of two >= 64")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="the JSONL corpus to write")
    args = parser.parse_args()
    lines, _ = planted_corpus(args.len, args.h, args.seed)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


if __name__ == "__main__":
    main()
