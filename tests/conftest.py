import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fracrank.corpus import Query, ingest_jsonl_path
from fracrank.fractal import dfa, hurst_pointwise, hurst_regression
from fracrank.relevance import score_corpus
from fracrank.synth import fgn

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

    A block is degenerate when it is constant or its running sums are flat (R == 0),
    as they are when its standard deviation is 0.
    """
    block = np.asarray(block, dtype=float)
    cum = np.cumsum(block - block.mean())
    r = cum.max() - cum.min()
    if np.ptp(block) == 0.0 or r == 0.0:
        return None
    return r / block.std()


def naive_dfa_d(series, window):
    """Reference D(n): materialize every segment, fit with np.polyfit, pool residuals."""
    x = np.asarray(series, dtype=float)
    prof = np.cumsum(x - x.mean())
    nseg = prof.size // window
    sq = []
    for s in range(nseg):
        seg = prof[s * window : (s + 1) * window]
        k = np.arange(1, window + 1, dtype=float)
        coeffs = np.polyfit(k, seg, 1)
        resid = seg - np.polyval(coeffs, k)
        sq.extend(resid**2)
    return math.sqrt(np.mean(sq))


def flat_sums_series():
    """1.00000000001, 399,999 ones, then 100,000 uniform values in [0, 1).

    The float means of its 168,201- and 290,001-value prefixes round onto 1, so
    every deviation but the first is 0: their running sums are flat (R == 0)
    although S > 0. Both lengths are on hurst_pointwise's grid for 500,000 values.
    """
    rng = np.random.default_rng(1)
    return np.concatenate([[1.00000000001], np.ones(399_999), rng.uniform(size=100_000)])


def estimator_digest(length: int) -> str:
    """The SHA-256 that scripts/estimator_speed.py prints for fgn(length, 0.75, 7) and
    every output of dfa, hurst_regression and hurst_pointwise on it."""
    script = load_script("estimator_speed.py")
    x = fgn(length, script.H, script.SEED)
    return script.output_digest(x, dfa(x), hurst_regression(x), hurst_pointwise(x))


def run_at_simd_levels(*args) -> list[str]:
    """stdout of ``python args`` at numpy's full SIMD level, with its AVX-512 targets
    off, and with its AVX2 targets off too.

    NPY_DISABLE_CPU_FEATURES takes only dispatched targets that this CPU has, so
    the targets are read from numpy first.
    """
    probe = ("import json; from numpy._core._multiarray_umath import "
             "__cpu_dispatch__ as d, __cpu_features__ as f; "
             "print(json.dumps([t for t in d if f.get(t)]))")
    found = run_python("-c", probe)
    assert found.returncode == 0, found.stderr
    targets = json.loads(found.stdout)
    avx512 = [t for t in targets if t.startswith("AVX512") or t == "X86_V4"]
    avx2 = avx512 + [t for t in targets if t in ("X86_V3", "AVX2", "FMA3", "AVX", "F16C")]
    env = python_env()
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    outputs = []
    for disabled in (None, avx512, avx2):
        if disabled is not None:
            env = dict(env, NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
        proc = subprocess.run([sys.executable, *map(str, args)], capture_output=True,
                              text=True, timeout=120, env=env)
        assert proc.returncode == 0, f"{disabled}: {proc.stderr}"
        outputs.append(proc.stdout)
    return outputs


def assert_no_child_left():
    """This process has no child left: every writer child was reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
