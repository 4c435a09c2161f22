#!/usr/bin/env python3
"""Brute-force oracle for the micro-corpus golden values.

Deliberately independent of the fracrank package: plain dict counting and
explicit loops only. Run it to print the expected scores and the mutual
sequence for the bundled 3-document fixture with query "alpha beta".
"""

import json
import math
import sys
from pathlib import Path

FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "micro_corpus.jsonl"
QUERY = ["alpha", "beta"]


def brute_force_scores(jsonl_path, terms):
    """Return (ids, f, q) computed the slow, obvious way."""
    ids, raw_f, raw_q = [], [], []
    for line in Path(jsonl_path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        tokens = [t for t in "".join(
            c if c.isalnum() else " " for c in rec["text"].lower()
        ).split() if t]
        ids.append(rec["id"])
        counts = [sum(1 for tok in tokens if tok == term) for term in terms]
        raw_f.append(sum(counts))
        # Left to right, as Q is defined: sum() of floats is compensated from Python 3.12 on.
        q = 0.0
        for m in counts:
            q += math.log(m + 1)
        raw_q.append(q / len(tokens))
    f_max = max(raw_f)
    q_max = max(raw_q)
    f = [v / f_max for v in raw_f]
    q = [v / q_max for v in raw_q]
    return ids, f, q


def brute_force_mutual(ids, f, q):
    """F values read in descending-q order (ties: earlier document first)."""
    order = sorted(range(len(ids)), key=lambda i: (-q[i], i))
    return [f[i] for i in order]


def main():
    ids, f, q = brute_force_scores(FIXTURE, QUERY)
    mutual = brute_force_mutual(ids, f, q)
    print("ids:", ids)
    print("f:  ", [f"{v:.12g}" for v in f])
    print("q:  ", [f"{v:.12g}" for v in q])
    print("F[n(Q)]:", [f"{v:.12g}" for v in mutual])
    return 0


if __name__ == "__main__":
    sys.exit(main())
