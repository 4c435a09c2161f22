import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fracrank.corpus import Query, ingest_jsonl_path
from fracrank.relevance import score_corpus

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"
MICRO_CORPUS = FIXTURES / "micro_corpus.jsonl"

# Hand-computed goldens for the 3-document fixture with query "alpha beta",
# cross-checked by scripts/verify_micro_corpus.py.
MICRO_F = [0.75, 0.25, 1.0]
MICRO_Q_RAW = [(math.log(3) + math.log(2)) / 3, math.log(2) / 2, math.log(5) / 4]
MICRO_Q = [v / MICRO_Q_RAW[0] for v in MICRO_Q_RAW]
MICRO_MUTUAL_F_OF_Q = [0.75, 1.0, 0.25]


def python_env() -> dict:
    """This process's environment with the source tree's ``src`` first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_python(*args) -> subprocess.CompletedProcess:
    """Run this Python in a process of its own, with the source tree's ``src`` on its path."""
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          timeout=120, env=python_env())


def load_script(name: str):
    """scripts/<name> as a module."""
    path = ROOT / "scripts" / name
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def load_brute_force_oracle():
    """scripts/verify_micro_corpus.py as a module (a scorer independent of fracrank)."""
    return load_script("verify_micro_corpus.py")


@pytest.fixture(scope="session")
def micro_corpus():
    return ingest_jsonl_path(MICRO_CORPUS)


@pytest.fixture(scope="session")
def micro_table(micro_corpus):
    return score_corpus(micro_corpus, Query(("alpha", "beta")))


def write_table(path, chunks) -> Path:
    """Write text chunks to ``path`` as a run writes a table: UTF-8, ``\\n`` kept."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)
    return path


def traced_peak(call):
    """Peak bytes that tracemalloc traces while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def unit_scaled(series):
    """The series divided by 2**e, e the frexp exponent of max|x|.

    The division by a power of two is exact for every value that it leaves in
    the normal range, so an R/S computed on the result has the bits of one
    computed on the series at whatever power-of-two scale the estimators use.
    """
    x = np.asarray(series, dtype=float)
    return np.ldexp(x, -np.frexp(np.abs(x).max())[1])


def textbook_rs(block):
    """Textbook R/S of one block (numpy mean, population std, cumsum); None if degenerate.

    A block is degenerate when it is constant or its standard deviation is 0.
    """
    block = np.asarray(block, dtype=float)
    s = block.std()
    if np.ptp(block) == 0.0 or s == 0.0:
        return None
    cum = np.cumsum(block - block.mean())
    return (cum.max() - cum.min()) / s


def assert_no_child_left():
    """This process has no child left: every writer child was reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
