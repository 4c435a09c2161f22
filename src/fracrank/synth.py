"""Seeded synthetic series generators used as statistical oracles.

All randomness comes from numpy's PCG64 bit generator (``numpy.random.default_rng``),
so a generator called with the same arguments and seed reproduces its series
bit-for-bit on the same numpy version, at every SIMD level. Fractional
Gaussian noise is generated by circulant embedding (Davies-Harte), which
realizes the exact target autocovariance

    gamma(k) = 0.5 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})

in O(N log N) via the FFT. The embedding's first row is real and even and the
weighted draws are Hermitian, so each of the two circulant transforms is one
real FFT of 2N points, whose N + 1 complex coefficients hold the whole
spectrum: ``rfft`` for the eigenvalues, ``irfft`` for the series.
``synth --kind fgn --len 1048576`` peaks at ~109 MB RSS. Every power and
exponential comes from libm (``fracrank.table._libm``). ``fgn`` returns an array
of its own holding just the N values, and keeps the square-rooted spectra of its
last 8 (length, H) pairs, 8 * (N + 1) bytes each; the series bits do not depend
on this cache.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

from fracrank.table import _libm, format_table, read_table


# Lags per block in fgn_autocovariance, so that its temporaries stay near 1 MB.
_BLOCK = 1 << 15


class SynthError(ValueError):
    """Raised on invalid generator arguments."""


def white_noise(length: int, seed: int) -> np.ndarray:
    """i.i.d. standard Gaussian draws (PCG64)."""
    if length < 2:
        raise SynthError("length must be >= 2")
    rng = np.random.default_rng(seed)
    return rng.standard_normal(length)


def fgn_autocovariance(h: float, n: int) -> np.ndarray:
    """fGn autocovariance gamma(0..n) for unit-variance increments.

    gamma(k) = 0.5 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}) is computed as written
    for k < 2. For k >= 2 that difference cancels, and its error would grow
    with the lag, so it is summed as the even binomial series

        gamma(k) = k^{2H} * sum_{j>=1} C(2H, 2j) k^{-2j},

    whose terms share one sign: 30 of them below lag 64, 6 above. The powers come
    from libm, and the rest is arithmetic that IEEE rounds alike everywhere. The
    lags from 2 are taken in blocks of ``_BLOCK``, so that the temporaries stay
    small beside the result.
    """
    a = 2.0 * h
    gamma = np.empty(n + 1)
    for k in range(min(n + 1, 2)):
        gamma[k] = 0.5 * (math.pow(k + 1.0, a) - 2.0 * math.pow(k, a) + math.pow(abs(k - 1.0), a))
    coef = [1.0]
    for m in range(1, 61):  # C(a, m) = C(a, m - 1) * (a - m + 1) / m
        coef.append(coef[-1] * (a - m + 1) / m)
    coef = coef[2::2]  # C(a, 2j) for j = 1..30
    for lo in range(2, n + 1, _BLOCK):
        kb = np.arange(lo, min(lo + _BLOCK, n + 1), dtype=float)
        gb = gamma[lo : lo + kb.size]
        gb[:] = _libm(math.pow, kb, a)
        u = 1.0 / (kb * kb)
        s = _even_series(coef[:6], u)
        near = max(0, 64 - lo)  # lags below 64
        s[:near] = _even_series(coef, u[:near])
        gb *= s
    return gamma


def _even_series(coef: list[float], u: np.ndarray) -> np.ndarray:
    """sum_j coef[j - 1] * u^j by Horner's rule, smallest terms first."""
    s = u * coef[-1]
    for c in coef[-2::-1]:
        s += c
        s *= u
    return s


@functools.lru_cache(maxsize=8)
def _sqrt_spectrum(n: int, h: float) -> np.ndarray:
    """sqrt of eig[0], eig[1:n] / 2 and eig[n] of the 2n circulant embedding.

    These depend only on (n, H), so they are computed once per pair; the array
    is read-only because every later call shares it.
    """
    gamma = fgn_autocovariance(h, n)
    # The first row, gamma(0..n) then gamma(n-1..1), is real and even, so its
    # eigenvalues are the real parts of its real FFT, eig[0..n].
    row = np.concatenate((gamma, gamma[-2:0:-1]))
    del gamma
    eig = np.fft.rfft(row).real
    del row
    if eig.min() < -1e-8:
        raise SynthError("circulant embedding produced a negative eigenvalue")
    roots = np.maximum(eig, 0.0)
    roots[1:n] /= 2.0
    np.sqrt(roots, out=roots)
    roots.flags.writeable = False
    return roots


def fgn(length: int, h: float, seed: int) -> np.ndarray:
    """Fractional Gaussian noise by circulant embedding of the exact autocovariance.

    ``length`` must be a power of two >= 64 and 0 < h < 1. The fGn
    covariance always embeds positively; the eigenvalue guard stays as a
    defensive check. Davies-Harte weights N + 1 real and N - 1 imaginary
    Gaussian draws w_k by the spectrum's roots; the series is the 2N-point FFT
    of their Hermitian extension over sqrt(2N). That FFT is 2N times the
    inverse real FFT of the N + 1 conjugates conj(w_k).
    """
    if not 0.0 < h < 1.0:
        raise SynthError("h must lie strictly between 0 and 1")
    if length < 64 or (length & (length - 1)) != 0:
        raise SynthError("length must be a power of two >= 64")
    n = length
    m = 2 * n
    roots = _sqrt_spectrum(n, float(h))
    rng = np.random.default_rng(seed)
    c = np.zeros(n + 1, dtype=complex)
    c.real = rng.standard_normal(n + 1)
    c.real *= roots
    c.imag[1:n] = rng.standard_normal(n - 1)
    c.imag[1:n] *= -roots[1:n]  # the conjugates conj(w_k)
    x = np.fft.irfft(c, m)
    del c
    return x[:n] * math.sqrt(m)


def linear_trend(length: int, slope: float, intercept: float) -> np.ndarray:
    """value(k) = slope * k + intercept for k = 1..length."""
    if length < 2:
        raise SynthError("length must be >= 2")
    k = np.arange(1, length + 1, dtype=float)
    return slope * k + intercept


def power_law_ranks(length: int, beta: float, noise: float, seed: int) -> np.ndarray:
    """r^(-beta) * exp(noise * g_r), sorted non-increasing; OverflowError if an exp overflows."""
    if length < 2:
        raise SynthError("length must be >= 2")
    if beta <= 0:
        raise SynthError("beta must be > 0")
    if noise < 0:
        raise SynthError("noise must be >= 0")
    rng = np.random.default_rng(seed)
    r = np.arange(1, length + 1)  # r^-1 is 1 / r, as numpy's r**-1 is
    pw = np.divide(1.0, r) if beta == 1.0 else _libm(math.pow, r, -beta)
    vals = pw * _libm(math.exp, noise * rng.standard_normal(length))
    return np.sort(vals)[::-1]


def write_series_csv(values) -> Iterator[str]:
    """Series interchange format as text chunks: header ``value``, one value per row."""
    return format_table(("value",), [np.asarray(values, dtype=float)])


def read_series_csv(path) -> np.ndarray:
    """Read the series interchange format; the ``value`` header is optional."""
    return read_table(path, ("value",))[0]
