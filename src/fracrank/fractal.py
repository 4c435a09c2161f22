"""Long-range correlation estimators: DFA (first order) and rescaled-range Hurst.

DFA: the series is mean-centered and cumulatively summed into a profile, the
profile is cut into non-overlapping windows of length n (remainder dropped),
each window is detrended by its own least-squares line, and the pooled RMS
residual D(n) is fit as a power law D(n) ~ n^alpha in log-log scale.

R/S: S is the population standard deviation, X(n) the running sum of mean
deviations, R = max X - min X. There are two separate Hurst estimators: the
pointwise one, ln(R/S) / ln(N/2) for a prefix of length N, and the regression
one, which fits log of the block-averaged R/S against log of the block size.
For each block size w the series is viewed as an (nblk, w) array of
non-overlapping blocks and R/S is computed row-wise in one pass, R by one
reduceat per extreme; the pointwise estimator measures each prefix with
rs_statistic, the one-row case. A constant block or prefix is left out, as is
one with R == 0 (S == 0, or a mean rounded onto all values but the first). The
associated fractal dimension of a self-affine record is 2 - H.

Every estimator reads its series through one prologue, which names a short
series (ValueError) and an inf or NaN (DegenerateSeriesError); DFA and the R/S
regression share one window rule. The estimators are scale-free. DFA pools its
residuals over one profile, so it scales globally: from the prologue's min and
max, with e the binary exponent of max|x|, it divides the series by 2**e (exact)
only when e < 0, which loses nothing, or when e > 400, where a square or sum
could overflow, then multiplies D(n) back by 2**e and raises
DegenerateSeriesError if that is not a normal float. R/S is a ratio per block or
prefix, so it measures a row again, divided by the power of two of its own
largest magnitude, only when the row's S is outside [2**-500, 2**500]; no block
is flushed to zero at another block's scale.

Size-only terms are computed once and shared read-only, with unchanged bits:
the default window grids (last 16 (lo, hi) pairs) and DFA's regressor k = 1..n
with its centered form (last 32 window lengths, 16 * n bytes each; about 9 MB
for the default DFA grid at N = 2^20).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from fracrank.table import _libm, format_table


class DegenerateSeriesError(ValueError):
    """Series has no usable fluctuation (constant input, zero variance, ...)."""


@dataclass(frozen=True)
class FluctuationCurve:
    """DFA output: (window, D) points plus the fitted log-log exponent."""

    windows: np.ndarray
    d: np.ndarray
    alpha: float
    alpha_r2: float

    def to_csv(self) -> Iterator[str]:
        """dfa.csv as text chunks: one (window, D) row per window."""
        return format_table(("n", "d"), [self.windows, self.d])


@dataclass(frozen=True)
class HurstResult:
    """Regression H with its R/S curve and fit R^2, and fractal dimension 2 - H."""

    h_regression: float
    fractal_dim: float
    rs_windows: np.ndarray
    rs_means: np.ndarray
    h_regression_r2: float


def _line_fit(xc: np.ndarray, xc_ss: float, x_mean: float,
              y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares line slope * x + intercept through y, fit along y's last axis.

    Closed form on centered x (xc = x - x_mean, xc_ss = sum of xc^2). einsum forms
    each row's dot on its own, so its bits depend on neither other rows nor BLAS threads.
    """
    slope = np.einsum("...i,i->...", y, xc) / xc_ss
    intercept = np.add.reduce(y, axis=-1) / y.shape[-1] - slope * x_mean
    return slope, intercept


@functools.lru_cache(maxsize=16)
def _geometric_grid(lo: int, hi: int) -> np.ndarray:
    """~20 integers geometrically spaced in [lo, hi], deduplicated; read-only, shared."""
    # Window lists are deduplicated by a set: np.unique's first call imports numpy.ma.
    grid = np.array(sorted(set(np.round(np.geomspace(lo, hi, 20)).astype(int).tolist())))
    grid.flags.writeable = False
    return grid


@functools.lru_cache(maxsize=32)
def _window_basis(n: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """DFA's regressor k = 1..n, centered k, its sum of squares and mean; read-only."""
    k = np.arange(1, n + 1, dtype=float)
    k_mean = k.mean()
    kc = k - k_mean
    k.flags.writeable = kc.flags.writeable = False
    return k, kc, (kc * kc).sum(), k_mean


def _series(series, size: int, name: str, method: str) -> tuple[np.ndarray, float, float]:
    """The series as a float array, its min and its max; ``name`` needs ``size`` points."""
    x = np.asarray(series, dtype=float)
    if x.size < size:
        raise ValueError(f"{name} needs at least {size} points")
    lo, hi = x.min(), x.max()
    if not -np.inf < lo <= hi < np.inf:  # also when one is NaN
        raise DegenerateSeriesError(f"non-finite value in the series: {method} undefined")
    return x, lo, hi


def _window_list(windows, grid: tuple[int, int], lo: int, hi: int, rule: str) -> np.ndarray:
    """``windows`` or the geometric grid over ``grid``, as sorted distinct ints in [lo, hi]."""
    windows = _geometric_grid(*grid) if windows is None else windows
    windows = np.array(sorted(set(np.asarray(windows, dtype=int).ravel().tolist())), dtype=int)
    if windows.size and (windows[0] < lo or windows[-1] > hi):
        raise ValueError(rule)
    return windows


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """OLS slope, intercept and R^2 of y against x."""
    x_mean = x.mean()
    xc = x - x_mean
    slope, intercept = _line_fit(xc, (xc * xc).sum(), x_mean, y)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def dfa(series, windows=None) -> FluctuationCurve:
    """Detrended fluctuation analysis with linear detrending.

    D(n) is the RMS over all retained profile points of the detrended
    residuals; alpha is the OLS slope of log10 D vs log10 n over at least 4
    distinct windows. A constant series raises DegenerateSeriesError; the
    caller's array is never written.
    """
    x, lo, hi = _series(series, 16, "dfa", "DFA")
    if lo == hi:
        raise DegenerateSeriesError("zero fluctuation: series is constant")
    e = int(np.frexp(max(-lo, hi))[1])  # the binary exponent of max|x|
    x, e = (x, 0) if 0 <= e <= 400 else (np.ldexp(x, -e), e)
    windows = _window_list(windows, (4, x.size // 4), 4, x.size // 4,
                           "windows must satisfy 4 <= n <= N/4")
    if windows.size < 4:
        raise DegenerateSeriesError("insufficient scaling range: fewer than 4 distinct windows")
    prof = np.cumsum(x - x.mean())  # the profile y(k) = sum_{i<=k} (x_i - mean)
    d = np.empty(windows.size)
    scratch = np.empty(prof.size)  # kept: a fresh buffer per window made dfa ~10% slower
    for i, n in enumerate(windows.tolist()):
        nseg = prof.size // n
        seg = prof[: nseg * n].reshape(nseg, n)
        k, kc, kc_ss, k_mean = _window_basis(n)
        a, b = _line_fit(kc, kc_ss, k_mean, seg)
        # Squared residuals seg - (a*k + b), formed in one buffer for all windows.
        sq = np.multiply(a[:, None], k, out=scratch[: seg.size].reshape(seg.shape))
        np.add(sq, b[:, None], out=sq)
        np.subtract(seg, sq, out=sq)
        np.square(sq, out=sq)
        d[i] = np.sqrt(sq.sum() / sq.size)
    if np.any(d == 0.0):
        raise DegenerateSeriesError("zero fluctuation at some window; log fit undefined")
    # D(n) * 2**e must be a normal float, or alpha would lose digits silently.
    low, high = np.frexp([d.min(), d.max()])[1] + e
    if not -1021 <= low <= high <= 1024:
        raise DegenerateSeriesError(f"values too {'large' if high > 1024 else 'small'}: "
                                    "D(n) outside the float range")
    d = np.ldexp(d, e)
    alpha, _, r2 = _ols(_libm(math.log10, windows), _libm(math.log10, d))
    return FluctuationCurve(windows=windows, d=d, alpha=alpha, alpha_r2=r2)


def _ranges_and_sds(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R and population S of every row."""
    w = blocks.shape[1]
    dev = blocks - np.add.reduce(blocks, axis=1, keepdims=True) / w
    s = np.sqrt(np.add.reduce(dev * dev, axis=1) / w)
    cum = np.cumsum(dev, axis=1, out=dev).reshape(-1)
    starts = np.arange(0, cum.size, w)  # one reduceat per extreme: exact, no per-row cost
    return np.maximum.reduceat(cum, starts) - np.minimum.reduceat(cum, starts), s


def _rescaled_ranges(blocks: np.ndarray, ties: bool = True) -> np.ndarray:
    """R/S of every row of a 2-D block array, leaving out constant rows and rows with R == 0.

    The row-mean deviations feed both S (population form) and the running sums
    whose range is R, formed in place.
    R and the constancy test take one reduceat per extreme; R == 0 includes S == 0.
    Rows are finite and measured as given; a row whose S is outside [2**-500, 2**500]
    (squares subnormal or overflowing, so S may be inf or NaN) is measured again
    divided by the power of two of its own largest magnitude (exact), so the caller
    runs the first pass under np.errstate(over/invalid="ignore").
    A constant row's float mean can round (tiny S, R/S = w - 1); ``ties=False``
    skips that constancy test, for rows that cannot be constant: those of a series
    with no two equal neighbours, or one row whose min and max differ.
    """
    r, s = _ranges_and_sds(blocks)
    if not 2.0**-500 <= s.min() <= s.max() <= 2.0**500:  # also when an S is NaN
        redo = ~((2.0**-500 <= s) & (s <= 2.0**500))
        rows = blocks[redo]
        e = np.frexp(np.abs(rows).max(axis=1, keepdims=True))[1]
        r[redo], s[redo] = _ranges_and_sds(np.ldexp(rows, -e))
    usable = r != 0.0
    if ties:
        flat, starts = blocks.reshape(-1), np.arange(0, blocks.size, blocks.shape[1])
        usable &= np.maximum.reduceat(flat, starts) != np.minimum.reduceat(flat, starts)
    return r[usable] / s[usable]


def rs_statistic(series) -> float:
    """Rescaled range R/S with population standard deviation S."""
    x, lo, hi = _series(series, 2, "rs_statistic", "R/S")
    with np.errstate(over="ignore", invalid="ignore"):
        rs = _rescaled_ranges(x[None, :], ties=lo == hi)
    if rs.size == 0:
        raise DegenerateSeriesError("degenerate series: constant, or flat running sums (R == 0)")
    return float(rs[0])


def hurst_pointwise(series) -> tuple[np.ndarray, list[int]]:
    """H(N) = ln(rs_statistic of prefix) / ln(N/2) over a geometric grid of prefix lengths.

    Returns (points, skipped): points is an (n, 2) array of (N, H(N)) rows, and
    skipped lists the prefix lengths where rs_statistic raised DegenerateSeriesError.
    """
    x = _series(series, 16, "hurst_pointwise", "R/S")[0]
    points: list[tuple[int, float]] = []
    skipped: list[int] = []
    for n in _geometric_grid(16, x.size).tolist():
        try:
            points.append((n, math.log(rs_statistic(x[:n])) / math.log(n / 2.0)))
        except DegenerateSeriesError:
            skipped.append(n)
    return np.array(points, dtype=float).reshape(-1, 2), skipped


def hurst_regression(series, windows=None) -> HurstResult:
    """Multi-window R/S regression estimate of the Hurst index.

    For each block size w the R/S statistic is averaged over the floor(N/w)
    non-overlapping blocks, leaving out constant blocks and blocks with R == 0;
    a window with no usable block is dropped. H is the OLS slope of
    log(mean R/S) vs log(w), and h_regression_r2 the R^2 of that fit.
    """
    x = _series(series, 64, "hurst_regression", "R/S")[0]
    # Blocks shorter than 16 carry a strong small-sample upward bias in R/S
    # (the N >> 1 regime does not hold there), so the default grid starts at 16.
    windows = _window_list(windows, (16, x.size // 4), 2, x.size,
                           "R/S windows must satisfy 2 <= w <= N")
    used_w: list[int] = []
    means: list[float] = []
    ties = bool(np.any(x[1:] == x[:-1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for w in windows.tolist():
            nblk = x.size // w
            vals = _rescaled_ranges(x[: nblk * w].reshape(nblk, w), ties)
            if vals.size:
                used_w.append(w)
                means.append(float(vals.sum() / vals.size))
    if len(used_w) < 4:
        raise DegenerateSeriesError("insufficient scaling range: fewer than 4 usable windows")
    w_arr = np.asarray(used_w, dtype=float)
    m_arr = np.asarray(means)
    h, _, r2 = _ols(_libm(math.log10, w_arr), _libm(math.log10, m_arr))
    return HurstResult(
        h_regression=h,
        fractal_dim=2.0 - h,
        rs_windows=w_arr,
        rs_means=m_arr,
        h_regression_r2=r2,
    )
