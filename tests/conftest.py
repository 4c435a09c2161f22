import importlib.util
import math
from pathlib import Path

import pytest

from fracrank.corpus import Query, ingest_jsonl_path
from fracrank.relevance import score_corpus

FIXTURES = Path(__file__).parent / "fixtures"
MICRO_CORPUS = FIXTURES / "micro_corpus.jsonl"

# Hand-computed goldens for the 3-document fixture with query "alpha beta",
# cross-checked by scripts/verify_micro_corpus.py.
MICRO_F = [0.75, 0.25, 1.0]
MICRO_Q_RAW = [(math.log(3) + math.log(2)) / 3, math.log(2) / 2, math.log(5) / 4]
MICRO_Q = [v / MICRO_Q_RAW[0] for v in MICRO_Q_RAW]
MICRO_MUTUAL_F_OF_Q = [0.75, 1.0, 0.25]


def load_brute_force_oracle():
    """scripts/verify_micro_corpus.py as a module (a scorer independent of fracrank)."""
    path = Path(__file__).parent.parent / "scripts" / "verify_micro_corpus.py"
    spec = importlib.util.spec_from_file_location("verify_micro_corpus", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="session")
def micro_corpus():
    return ingest_jsonl_path(MICRO_CORPUS)


@pytest.fixture(scope="session")
def micro_table(micro_corpus):
    return score_corpus(micro_corpus, Query(("alpha", "beta")))
