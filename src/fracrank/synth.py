"""Seeded synthetic series generators used as statistical oracles.

All randomness comes from numpy's PCG64 bit generator (``numpy.random.default_rng``),
so a generator called with the same arguments and seed reproduces its series
bit-for-bit on the same numpy version. Fractional Gaussian noise is generated
by circulant embedding (Davies-Harte), which realizes the exact target
autocovariance

    gamma(k) = 0.5 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})

in O(N log N) via the FFT. Each of its two FFTs (the embedding's eigenvalues,
then the series) runs in place in one 2N-point complex buffer, 32 * N bytes,
which for the series also holds the Gaussian draws, so the rest of the peak is
numpy's own FFT scratch: ``synth --kind fgn --len 1048576`` peaks at ~141 MB
RSS, against ~196 MB when the transforms copied their input and output.
``fgn`` returns an array of its own holding just the N values, and keeps the
spectra of its last 8 (length, H) pairs, 8 * N bytes each; the series bits do
not depend on this cache.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=8)
def _sqrt_spectrum(n: int, target_h: float) -> tuple[np.float64, np.float64, np.ndarray]:
    """sqrt of eig[0], eig[n] and eig[1:n] / 2 of the 2n circulant embedding.

    These depend only on (n, H), so they are computed once per pair; the array
    is read-only because every later call shares it.
    """
    gamma = fgn_autocovariance(target_h, np.arange(n + 1))
    # First row of the circulant embedding: gamma(0..n) then gamma(n-1..1).
    row = np.zeros(2 * n, dtype=complex)
    row.real[: n + 1] = gamma
    row.real[n + 1 :] = gamma[-2:0:-1]
    del gamma
    eig = np.fft.fft(row, out=row).real
    if eig.min() < -1e-8:
        raise SynthError("circulant embedding produced a negative eigenvalue")
    np.clip(eig, 0.0, None, out=eig)
    # In place, so that no freed temporary of this size is left on the heap
    # below the cached array, where the allocator could not give it back.
    half = eig[1:n] / 2.0
    np.sqrt(half, out=half)
    half.flags.writeable = False
    return np.sqrt(eig[0]), np.sqrt(eig[n]), half


def fgn(length: int, target_h: float, seed: int) -> np.ndarray:
    """Fractional Gaussian noise by circulant embedding of the exact autocovariance.

    ``length`` must be a power of two >= 64 and 0 < target_h < 1. The fGn
    covariance always embeds positively; the eigenvalue guard stays as a
    defensive check. The Gaussian draws, their spectral weighting and the
    transform all happen in one 2 * length complex buffer.
    """
    if not 0.0 < target_h < 1.0:
        raise SynthError("target_h must lie strictly between 0 and 1")
    if length < 64 or (length & (length - 1)) != 0:
        raise SynthError("length must be a power of two >= 64")
    n = length
    m = 2 * n
    root0, root_n, half = _sqrt_spectrum(n, float(target_h))
    w = np.zeros(m, dtype=complex)
    # The 2n draws fill the 2n floats of w[n:], which the weighted draws in
    # w[:n] do not overlap; w[n] overwrites re[0] and re[1] only after they are
    # read, and the mirror image fills the rest of w[n:].
    rng = np.random.default_rng(seed)
    draws = w[n:].view(float)
    re = rng.standard_normal(out=draws[: n + 1])
    im = rng.standard_normal(out=draws[n + 1 :])
    w[0] = root0 * re[0]
    np.multiply(half, re[1:n], out=w.real[1:n])
    np.multiply(half, im, out=w.imag[1:n])
    w[n] = root_n * re[n]
    w.real[n + 1 :] = w.real[n - 1 : 0 : -1]
    np.negative(w.imag[n - 1 : 0 : -1], out=w.imag[n + 1 :])
    x = np.fft.fft(w, out=w)[:n]
    x /= np.sqrt(m)
    return x.real.copy()


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
