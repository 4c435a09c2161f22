"""Seeded synthetic series generators used as statistical oracles.

All randomness comes from numpy's PCG64 bit generator (``numpy.random.default_rng``),
so a generator called with the same arguments and seed reproduces its series
bit-for-bit on the same numpy version. Fractional Gaussian noise is generated
by circulant embedding (Davies-Harte), which realizes the exact target
autocovariance

    gamma(k) = 0.5 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})

in O(N log N) via the FFT.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from fracrank.table import format_table, read_table


class SynthError(ValueError):
    """Raised on invalid generator arguments."""


def white_noise(length: int, seed: int) -> np.ndarray:
    """i.i.d. standard Gaussian draws (PCG64)."""
    if length < 2:
        raise SynthError("length must be >= 2")
    rng = np.random.default_rng(seed)
    return rng.standard_normal(length)


def fgn_autocovariance(h: float, lags) -> np.ndarray:
    """Closed-form fGn autocovariance gamma(k) for unit-variance increments."""
    k = np.asarray(lags, dtype=float)
    return 0.5 * (
        np.abs(k + 1) ** (2 * h) - 2 * np.abs(k) ** (2 * h) + np.abs(k - 1) ** (2 * h)
    )


def fgn(length: int, target_h: float, seed: int) -> np.ndarray:
    """Fractional Gaussian noise by circulant embedding of the exact autocovariance.

    ``length`` must be a power of two >= 64 and 0 < target_h < 1. The fGn
    covariance always embeds positively; the eigenvalue guard stays as a
    defensive check.
    """
    if not 0.0 < target_h < 1.0:
        raise SynthError("target_h must lie strictly between 0 and 1")
    if length < 64 or (length & (length - 1)) != 0:
        raise SynthError("length must be a power of two >= 64")
    n = length
    m = 2 * n
    gamma = fgn_autocovariance(target_h, np.arange(n + 1))
    # First row of the circulant embedding: gamma(0..n) then gamma(n-1..1).
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eig = np.fft.fft(row).real
    if eig.min() < -1e-8:
        raise SynthError("circulant embedding produced a negative eigenvalue")
    eig = np.clip(eig, 0.0, None)
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(n + 1)
    im = rng.standard_normal(n - 1)
    w = np.zeros(m, dtype=complex)
    w[0] = np.sqrt(eig[0]) * re[0]
    w[n] = np.sqrt(eig[n]) * re[n]
    half = np.sqrt(eig[1:n] / 2.0)
    w[1:n] = half * (re[1:n] + 1j * im)
    w[n + 1 :] = np.conj(w[1:n][::-1])
    x = np.fft.fft(w) / np.sqrt(m)
    return x.real[:n]


def linear_trend(length: int, slope: float, intercept: float) -> np.ndarray:
    """value(k) = slope * k + intercept for k = 1..length."""
    if length < 2:
        raise SynthError("length must be >= 2")
    k = np.arange(1, length + 1, dtype=float)
    return slope * k + intercept


def power_law_ranks(length: int, beta: float, noise: float, seed: int) -> np.ndarray:
    """Non-increasing positive sequence r^(-beta) * exp(noise * g_r), re-sorted."""
    if length < 2:
        raise SynthError("length must be >= 2")
    if beta <= 0:
        raise SynthError("beta must be > 0")
    if noise < 0:
        raise SynthError("noise must be >= 0")
    rng = np.random.default_rng(seed)
    r = np.arange(1, length + 1, dtype=float)
    vals = r**-beta * np.exp(noise * rng.standard_normal(length))
    return np.sort(vals)[::-1]


def write_series_csv(values) -> Iterator[str]:
    """Series interchange format as text chunks: header ``value``, one value per row."""
    return format_table(("value",), [np.asarray(values, dtype=float)])


def read_series_csv(path) -> np.ndarray:
    """Read the series interchange format; the ``value`` header is optional."""
    return read_table(path, ("value",))[0]
