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
non-overlapping blocks and R/S is computed row-wise in one pass; a prefix is
the one-row case. The associated fractal dimension of a self-affine record is
2 - H.

Finite values so large that their squares or sums overflow raise
DegenerateSeriesError instead of turning into inf or NaN.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from fracrank.table import format_table


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
    h_r2: float


def _overflow_checked(estimator):
    """Run ``estimator`` with float overflow raised, reported as DegenerateSeriesError."""

    @functools.wraps(estimator)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise"):
                return estimator(*args, **kwargs)
        except FloatingPointError as exc:
            raise DegenerateSeriesError(
                f"values too large: floating-point overflow ({exc})"
            ) from exc

    return checked


def profile(series) -> np.ndarray:
    """Cumulative sum of the mean-centered series: y(k) = sum_{i<=k} (x_i - mean)."""
    x = np.asarray(series, dtype=float)
    if x.size < 2:
        raise ValueError("profile needs at least 2 points")
    return np.cumsum(x - x.mean())


def _line_fit(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row OLS line a*k + b through (k, y_k), k = 1..n, from the closed normal equations."""
    n = rows.shape[1]
    k = np.arange(1, n + 1, dtype=float)
    sk = k.sum()
    skk = (k * k).sum()
    denom = n * skk - sk * sk
    sy = rows.sum(axis=1)
    sky = rows @ k
    a = (n * sky - sk * sy) / denom
    b = (sy * skk - sk * sky) / denom
    return a, b


def default_dfa_windows(n_points: int) -> np.ndarray:
    """~20 window sizes geometrically spaced in [4, N/4], deduplicated."""
    hi = n_points // 4
    if hi < 4:
        raise ValueError("series too short for DFA windows")
    grid = np.unique(np.round(np.geomspace(4, hi, 20)).astype(int))
    return grid[(grid >= 4) & (grid <= hi)]


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """OLS slope, intercept and R^2 of y against x."""
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _segment_residuals(prof: np.ndarray, n: int) -> np.ndarray:
    """Residuals of per-segment linear detrending, one row per retained segment."""
    nseg = prof.size // n
    seg = prof[: nseg * n].reshape(nseg, n)
    a, b = _line_fit(seg)
    k = np.arange(1, n + 1, dtype=float)
    return seg - (np.outer(a, k) + b[:, None])


@_overflow_checked
def dfa(series, windows=None) -> FluctuationCurve:
    """Detrended fluctuation analysis with linear detrending.

    D(n) is the RMS over all retained profile points of the detrended
    residuals; alpha is the OLS slope of log10 D vs log10 n over at least 4
    distinct windows.
    """
    x = np.asarray(series, dtype=float)
    if x.size < 16:
        raise ValueError("dfa needs at least 16 points")
    if np.ptp(x) == 0.0:
        raise DegenerateSeriesError("zero fluctuation: series is constant")
    if windows is None:
        windows = default_dfa_windows(x.size)
    windows = np.unique(np.asarray(windows, dtype=int))
    if windows.size and (windows[0] < 4 or windows[-1] > x.size // 4):
        raise ValueError("windows must satisfy 4 <= n <= N/4")
    if windows.size < 4:
        raise DegenerateSeriesError("insufficient scaling range: fewer than 4 distinct windows")
    prof = profile(x)
    d = np.empty(windows.size)
    for i, n in enumerate(windows):
        resid = _segment_residuals(prof, int(n))
        d[i] = np.sqrt(np.mean(resid**2))
    if np.any(d == 0.0):
        raise DegenerateSeriesError("zero fluctuation at some window; log fit undefined")
    alpha, _, r2 = _ols(np.log10(windows.astype(float)), np.log10(d))
    return FluctuationCurve(windows=windows, d=d, alpha=alpha, alpha_r2=r2)


def _rescaled_ranges(blocks: np.ndarray) -> np.ndarray:
    """R/S of every row of a 2-D block array, leaving out rows with S == 0.

    The row-mean deviations are formed once and feed both S (population form)
    and the running sums whose range is R.
    """
    dev = blocks - blocks.mean(axis=1, keepdims=True)
    s = np.sqrt(np.mean(dev * dev, axis=1))
    cum = np.cumsum(dev, axis=1)
    r = cum.max(axis=1) - cum.min(axis=1)
    usable = s != 0.0
    return r[usable] / s[usable]


def rs_statistic(series) -> float:
    """Rescaled range R/S with population standard deviation S."""
    x = np.asarray(series, dtype=float)
    if x.size < 2:
        raise ValueError("rs_statistic needs at least 2 points")
    rs = _rescaled_ranges(x[None, :])
    if rs.size == 0:
        raise DegenerateSeriesError("degenerate series: zero standard deviation")
    return float(rs[0])


def default_prefix_grid(n_points: int) -> np.ndarray:
    """~20 prefix lengths geometrically spaced in [16, N]."""
    if n_points < 16:
        raise ValueError("series too short for pointwise Hurst")
    return np.unique(np.round(np.geomspace(16, n_points, 20)).astype(int))


@_overflow_checked
def hurst_pointwise(series) -> tuple[list[tuple[int, float]], list[int]]:
    """H(N) = ln(R/S of prefix) / ln(N/2) over a geometric grid of prefix lengths.

    Returns (points, skipped) where skipped lists prefix lengths whose R/S was
    degenerate.
    """
    x = np.asarray(series, dtype=float)
    if x.size < 16:
        raise ValueError("hurst_pointwise needs at least 16 points")
    points: list[tuple[int, float]] = []
    skipped: list[int] = []
    for n in default_prefix_grid(x.size):
        n = int(n)
        try:
            rs = rs_statistic(x[:n])
        except DegenerateSeriesError:
            skipped.append(n)
            continue
        points.append((n, float(np.log(rs) / np.log(n / 2.0))))
    return points, skipped


def default_rs_windows(n_points: int) -> np.ndarray:
    """~20 block sizes geometrically spaced in [16, N/4], deduplicated.

    Blocks shorter than 16 carry a strong small-sample upward bias in R/S
    (the N >> 1 regime does not hold there), so they are excluded by default.
    """
    hi = n_points // 4
    if hi < 16:
        raise ValueError("series too short for R/S windows")
    grid = np.unique(np.round(np.geomspace(16, hi, 20)).astype(int))
    return grid[(grid >= 16) & (grid <= hi)]


@_overflow_checked
def hurst_regression(series, windows=None) -> HurstResult:
    """Multi-window R/S regression estimate of the Hurst index.

    For each block size w the R/S statistic is averaged over the floor(N/w)
    non-overlapping blocks, leaving out blocks with S == 0; a window with no
    usable block is dropped. H is the OLS slope of log(mean R/S) vs log(w),
    and h_r2 the R^2 of that fit.
    """
    x = np.asarray(series, dtype=float)
    if x.size < 64:
        raise ValueError("hurst_regression needs at least 64 points")
    if windows is None:
        windows = default_rs_windows(x.size)
    windows = np.unique(np.asarray(windows, dtype=int))
    if windows.size and (windows[0] < 2 or windows[-1] > x.size):
        raise ValueError("R/S windows must satisfy 2 <= w <= N")
    used_w: list[int] = []
    means: list[float] = []
    for w in windows:
        w = int(w)
        nblk = x.size // w
        vals = _rescaled_ranges(x[: nblk * w].reshape(nblk, w))
        if vals.size:
            used_w.append(w)
            means.append(float(np.mean(vals)))
    if len(used_w) < 4:
        raise DegenerateSeriesError("insufficient scaling range: fewer than 4 usable windows")
    w_arr = np.asarray(used_w, dtype=float)
    m_arr = np.asarray(means)
    h, _, r2 = _ols(np.log10(w_arr), np.log10(m_arr))
    return HurstResult(
        h_regression=h,
        fractal_dim=2.0 - h,
        rs_windows=w_arr,
        rs_means=m_arr,
        h_r2=r2,
    )
