"""Rank-decay fits of sorted relevance curves and lag-1 return-map occupancy stats."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from fracrank.fractal import _ols
from fracrank.table import as_written, format_pairs


# 2^24 int64 cell counts are 128 MiB.
MAX_GRID_CELLS = 1 << 24
# Largest share of ranks zipf_fit may trim from each end.
MAX_TRIM = 0.25


class RankStatsError(ValueError):
    """Raised on inadmissible inputs to rank/return-map statistics."""


@dataclass(frozen=True)
class ZipfFit:
    """Two-way fit of positive values against their rank.

    ``semilog``: ln(value) vs rank (exponential decay model);
    ``loglog``: ln(value) vs ln(rank) (power-law model).
    ``n_used`` values are left after trimming both ends.
    ``analyze`` writes each field to ``summary.json`` as ``zipf_<field>``.
    """

    semilog_slope: float
    semilog_r2: float
    loglog_slope: float
    loglog_r2: float
    n_used: int


@dataclass(frozen=True)
class PoincarePoints:
    """Lag-1 return map held as its sequence: point i is ``(values[i], values[i+1])``."""

    values: np.ndarray  # shape (N,)

    def to_csv(self) -> Iterator[str]:
        """poincare.csv as text chunks; each value of the sequence is formatted once."""
        return format_pairs(("x", "y"), self.values)


@dataclass(frozen=True)
class OccupancyReport:
    """Cell occupancy of return-map points on a G x G grid over (0,1]^2.

    ``analyze`` writes each field to ``summary.json`` under its own name.
    """

    occupied_cells: int
    occupied_fraction: float
    chi2_uniform: float


def zipf_fit(sequence, trim_fraction: float) -> ZipfFit:
    """Fit ln(value) against rank and against ln(rank) after trimming both ends.

    The sequence must be finite, in any order: value i of it sorted
    non-increasing has rank i (1-based). floor(trim_fraction * N) ranks are
    dropped from each end and at least 4 strictly positive values must remain,
    not all written alike (``fracrank.table.as_written``).
    """
    vals = np.asarray(sequence, dtype=float)
    n = vals.size
    if not 0.0 <= trim_fraction <= MAX_TRIM:
        raise RankStatsError(f"trim_fraction must be in [0, {MAX_TRIM}]")
    if not np.isfinite(vals).all():
        raise RankStatsError("non-finite value in the sequence")
    t = int(np.floor(trim_fraction * n))
    n_used = n - 2 * t
    if n_used < 4:
        raise RankStatsError("too few points after trimming (need >= 4)")
    # Ranks t + 1..n - t are all positive iff n - t values are.
    if np.count_nonzero(vals > 0) < n - t:
        raise RankStatsError("nonpositive value inside the trimmed window")
    window = np.sort(vals)[::-1][t : n - t]
    if as_written(window[0]) == as_written(window[-1]):
        # Sorted, so all values are written alike: R² is noise.
        raise RankStatsError("no spread in the trimmed window")
    ranks = np.arange(t + 1, t + n_used + 1, dtype=float)
    ln_v = np.log(window)
    semi_slope, _, semi_r2 = _ols(ranks, ln_v)
    log_slope, _, log_r2 = _ols(np.log(ranks), ln_v)
    return ZipfFit(
        semilog_slope=semi_slope,
        semilog_r2=semi_r2,
        loglog_slope=log_slope,
        loglog_r2=log_r2,
        n_used=n_used,
    )


def poincare_map(sequence) -> PoincarePoints:
    """The return map of all N-1 consecutive pairs (x_i, x_{i+1}) of the sequence."""
    vals = np.asarray(sequence, dtype=float)
    if vals.size < 2:
        raise RankStatsError("poincare_map needs at least 2 values")
    return PoincarePoints(values=vals)


def occupancy_stats(points: PoincarePoints, grid_size: int) -> OccupancyReport:
    """Bin return-map points into a G x G grid and compare counts to uniform.

    A value v has the cell index ceil(v*G), clamped to [1, G], computed once per
    value, and point i lands in cell (cell_i, cell_{i+1}); chi2_uniform is the
    chi-square statistic of the G^2 cell counts against the uniform expectation
    P / G^2. G^2 may not exceed ``MAX_GRID_CELLS``; every value must lie in [0, 1].
    """
    if grid_size < 1:
        raise RankStatsError("grid_size must be >= 1")
    if grid_size**2 > MAX_GRID_CELLS:
        raise RankStatsError(f"grid_size^2 must be <= {MAX_GRID_CELLS} cells")
    vals = points.values
    if vals.size < 2:
        raise RankStatsError("need at least one point")
    if not (vals.min() >= 0.0 and vals.max() <= 1.0):  # also false for NaN
        raise RankStatsError("coordinates must lie in [0, 1]")
    g = grid_size
    cell = np.clip(np.ceil(vals * g).astype(int), 1, g) - 1
    counts = np.bincount(cell[:-1] * g + cell[1:], minlength=g * g)
    occupied = int(np.count_nonzero(counts))
    expected = (vals.size - 1) / (g * g)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return OccupancyReport(
        occupied_cells=occupied,
        occupied_fraction=occupied / (g * g),
        chi2_uniform=chi2,
    )


def empirical_cdf_map(sequence) -> np.ndarray:
    """Rank-transform values to (0, 1]: value i maps to rank_i / N (ordinal ranks).

    Equal values (0.0 and -0.0 too) are ranked in series order, as a stable
    sort ranks them; an inf has its rank. A NaN has none and raises
    RankStatsError. N must be below 3e9.
    """
    vals = np.asarray(sequence, dtype=float)
    n = vals.size
    # Ties are read from a sort of the values, which is faster than gathering them
    # in argsort's order; the flags agree, as == does not tell -0.0 from 0.0.
    sorted_vals = np.sort(vals)
    if n and np.isnan(sorted_vals[-1]):  # a NaN sorts last
        raise RankStatsError("NaN in the sequence: it has no rank")
    order = np.argsort(vals)  # several times faster than a stable sort, but not stable
    ties = sorted_vals[1:] == sorted_vals[:-1]
    if ties.any():
        # Put each run of equal values back in series order by sorting the keys
        # run * N + index: unique, and below N^2 < 2^63 while N < 3e9.
        run = np.concatenate(([0], np.cumsum(~ties))) * n
        order = np.sort(order + run) - run
    ranks = np.empty(n)
    ranks[order] = np.arange(1, n + 1) / n
    return ranks
