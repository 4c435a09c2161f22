#!/usr/bin/env python3
"""Monte Carlo recovery experiment for the DFA and R/S Hurst estimators.

Generates fractional Gaussian noise at several planted Hurst indices and
reports the mean and standard deviation of both estimators across seeds.

    python3 scripts/estimator_recovery.py --seeds 50 --length 8192
"""

import argparse

import numpy as np

from fracrank.fractal import dfa, hurst_regression
from fracrank.synth import fgn, white_noise


def estimates(h: float, seeds: int, length: int) -> tuple[list[float], list[float]]:
    """H by R/S and DFA's alpha of the series of seeds 0 .. seeds - 1: fGn at Hurst
    index h, or white noise when h is 0.5."""
    hs, alphas = [], []
    for seed in range(seeds):
        x = white_noise(length, seed) if h == 0.5 else fgn(length, h, seed)
        hs.append(hurst_regression(x).h_regression)
        alphas.append(dfa(x).alpha)
    return hs, alphas


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=50)
    parser.add_argument("--length", type=int, default=8192)
    parser.add_argument("--hurst", type=float, nargs="+",
                        default=[0.5, 0.6, 0.75, 0.85])
    args = parser.parse_args()

    print(f"{'planted H':>10} {'mean H_rs':>10} {'sd':>7} {'mean alpha':>11} {'sd':>7}")
    for h in args.hurst:
        hs, alphas = estimates(h, args.seeds, args.length)
        print(f"{h:>10.2f} {np.mean(hs):>10.4f} {np.std(hs):>7.4f}"
              f" {np.mean(alphas):>11.4f} {np.std(alphas):>7.4f}")


if __name__ == "__main__":
    main()
