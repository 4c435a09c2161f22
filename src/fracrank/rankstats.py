"""Rank-decay fits of sorted relevance curves and lag-1 return-map occupancy stats."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from fracrank.fractal import _ols
from fracrank.table import format_pairs


# 2^24 int64 cell counts are 128 MiB.
MAX_GRID_CELLS = 1 << 24
# Largest share of ranks zipf_fit may trim from each end.
MAX_TRIM = 0.25


class RankStatsError(ValueError):
    """Raised on inadmissible inputs to rank/return-map statistics."""


@dataclass(frozen=True)
class ZipfFit:
    """Two-way fit of a sorted positive sequence against rank.

    ``semilog``: ln(value) vs rank (exponential decay model);
    ``loglog``: ln(value) vs ln(rank) (power-law model).
    ``trim_fraction`` ranks are dropped from each end before fitting.
    """

    trim_fraction: float
    semilog_slope: float
    semilog_r2: float
    loglog_slope: float
    loglog_r2: float
    n_used: int


@dataclass(frozen=True)
class PoincarePoints:
    """Lag-1 return map: points (x_i, x_{i+1}) in series order."""

    points: np.ndarray  # shape (N-1, 2)

    def to_csv(self) -> Iterator[str]:
        """poincare.csv as text chunks; each value of the sequence is formatted once."""
        return format_pairs(("x", "y"), np.append(self.points[:, 0], self.points[-1, 1]))


@dataclass(frozen=True)
class OccupancyReport:
    """Cell occupancy of return-map points on a G x G grid over (0,1]^2."""

    grid_size: int
    occupied_cells: int
    occupied_fraction: float
    chi2_uniform: float


def zipf_fit(sequence, trim_fraction: float = 0.05) -> ZipfFit:
    """Fit ln(value) against rank and against ln(rank) after trimming both ends.

    The sequence must be sorted non-increasing; floor(trim_fraction * N) ranks
    are dropped from each end and at least 4 strictly positive values must
    remain. Rank numbering keeps the original 1-based positions.
    """
    vals = np.asarray(sequence, dtype=float)
    n = vals.size
    if not 0.0 <= trim_fraction <= MAX_TRIM:
        raise RankStatsError(f"trim_fraction must be in [0, {MAX_TRIM}]")
    if np.any(np.diff(vals) > 0):
        raise RankStatsError("sequence must be sorted non-increasing")
    t = int(np.floor(trim_fraction * n))
    window = vals[t : n - t] if t > 0 else vals
    n_used = window.size
    if n_used < 4:
        raise RankStatsError("too few points after trimming (need >= 4)")
    if np.any(window <= 0):
        raise RankStatsError("nonpositive value inside the trimmed window")
    ranks = np.arange(t + 1, t + n_used + 1, dtype=float)
    ln_v = np.log(window)
    semi_slope, _, semi_r2 = _ols(ranks, ln_v)
    log_slope, _, log_r2 = _ols(np.log(ranks), ln_v)
    return ZipfFit(
        trim_fraction=trim_fraction,
        semilog_slope=semi_slope,
        semilog_r2=semi_r2,
        loglog_slope=log_slope,
        loglog_r2=log_r2,
        n_used=n_used,
    )


def poincare_map(sequence) -> PoincarePoints:
    """All N-1 consecutive pairs (x_i, x_{i+1}) of the sequence."""
    vals = np.asarray(sequence, dtype=float)
    if vals.size < 2:
        raise RankStatsError("poincare_map needs at least 2 values")
    return PoincarePoints(points=np.column_stack([vals[:-1], vals[1:]]))


def occupancy_stats(points: PoincarePoints, grid_size: int) -> OccupancyReport:
    """Bin return-map points into a G x G grid and compare counts to uniform.

    A coordinate v lands in cell ceil(v*G), clamped to [1, G]; chi2_uniform is
    the chi-square statistic of the G^2 cell counts against the uniform
    expectation P / G^2. G^2 may not exceed ``MAX_GRID_CELLS``, and every
    coordinate must lie in [0, 1].
    """
    if grid_size < 1:
        raise RankStatsError("grid_size must be >= 1")
    if grid_size**2 > MAX_GRID_CELLS:
        raise RankStatsError(f"grid_size^2 must be <= {MAX_GRID_CELLS} cells")
    pts = points.points
    if pts.shape[0] < 1:
        raise RankStatsError("need at least one point")
    if not (pts.min() >= 0.0 and pts.max() <= 1.0):  # also false for NaN
        raise RankStatsError("coordinates must lie in [0, 1]")
    g = grid_size
    ix = np.clip(np.ceil(pts[:, 0] * g).astype(int), 1, g) - 1
    iy = np.clip(np.ceil(pts[:, 1] * g).astype(int), 1, g) - 1
    counts = np.bincount(ix * g + iy, minlength=g * g)
    occupied = int(np.count_nonzero(counts))
    expected = pts.shape[0] / (g * g)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return OccupancyReport(
        grid_size=g,
        occupied_cells=occupied,
        occupied_fraction=occupied / (g * g),
        chi2_uniform=chi2,
    )


def empirical_cdf_map(sequence) -> np.ndarray:
    """Rank-transform values to (0, 1]: value i maps to rank_i / N (ordinal ranks)."""
    vals = np.asarray(sequence, dtype=float)
    order = np.argsort(vals, kind="stable")
    ranks = np.empty(vals.size, dtype=float)
    ranks[order] = np.arange(1, vals.size + 1)
    return ranks / vals.size
