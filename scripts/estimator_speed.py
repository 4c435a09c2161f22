"""Time fgn and the three Hurst estimators in process, and hash every output.

    python3 scripts/estimator_speed.py --length 8192 --repeat 300

The series is ``fgn(length, 0.75, 7)``. ``fgn``, ``dfa``, ``hurst_regression``
and ``hurst_pointwise`` are each called once to warm their caches, then timed
over ``--repeat`` calls; the script prints each median in ms. ``fgn_cold`` then
times ``fgn`` with its spectrum cache cleared before each call, so that it
includes the autocovariance and the eigenvalue FFT. The last line is
one SHA-256 over the bytes of every output: the series, DFA's windows, D(n),
alpha and R^2, the R/S windows, means, H and R^2, and the pointwise points and
skipped prefix lengths. Run under two source trees' ``PYTHONPATH``, the script
is an A/B timing that also shows whether the two trees give the same bits.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
import time

import numpy as np

from fracrank.fractal import dfa, hurst_pointwise, hurst_regression
from fracrank.synth import _sqrt_spectrum, fgn

H, SEED = 0.75, 7


def output_digest(x, curve, rs, pointwise) -> str:
    """SHA-256 over the series and every estimator output, in a fixed byte layout."""
    points, skipped = pointwise
    parts = [x, curve.windows, curve.d, np.array([curve.alpha, curve.alpha_r2]),
             rs.rs_windows, rs.rs_means, np.array([rs.h_regression, rs.h_regression_r2]),
             points, np.array(skipped, dtype=np.int64)]
    return hashlib.sha256(b"".join(part.tobytes() for part in parts)).hexdigest()


def timed(call, repeat: int):
    """The result of one warm call, and the median ms of ``repeat`` calls after it."""
    result = call()
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return result, 1e3 * statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--length", type=int, default=8192, help="a power of two >= 64")
    parser.add_argument("--repeat", type=int, default=100)
    args = parser.parse_args(argv)
    print(f"fGn length {args.length}, H {H}, seed {SEED}: median of {args.repeat} "
          "calls after one warm call")
    x, ms = timed(lambda: fgn(args.length, H, SEED), args.repeat)
    print(f"{'fgn':<18}{ms:>10.3f} ms")
    outputs = [x]
    for estimator in (dfa, hurst_regression, hurst_pointwise):
        result, ms = timed(lambda: estimator(x), args.repeat)
        outputs.append(result)
        print(f"{estimator.__name__:<18}{ms:>10.3f} ms")
    _, ms = timed(lambda: (_sqrt_spectrum.cache_clear(), fgn(args.length, H, SEED)), args.repeat)
    print(f"{'fgn_cold':<18}{ms:>10.3f} ms")
    print(f"sha256 {output_digest(*outputs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
