import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from fracrank.rankstats import (
    MAX_GRID_CELLS,
    PoincarePoints,
    RankStatsError,
    empirical_cdf_map,
    occupancy_stats,
    poincare_map,
    zipf_fit,
)
from fracrank.synth import power_law_ranks


def stable_cdf_map(values) -> np.ndarray:
    """The CDF map by one stable argsort: equal values ranked in series order."""
    x = np.asarray(values, dtype=float)
    ranks = np.empty(x.size)
    ranks[np.argsort(x, kind="stable")] = np.arange(1, x.size + 1)
    return ranks / x.size


def pairs(pmap) -> np.ndarray:
    """The points (values[i], values[i+1]) of a return map, one row each."""
    return np.column_stack([pmap.values[:-1], pmap.values[1:]])


def chi2_of(counts, n_points: int, g: int) -> float:
    """chi2_uniform of G^2 cell counts, by the formula occupancy_stats documents."""
    expected = n_points / (g * g)
    return float(((np.asarray(counts) - expected) ** 2 / expected).sum())


def loop_counts(values, g: int) -> list[int]:
    """Cell counts by a loop over the points: v lands in ceil(v*G), clamped to [1, G]."""
    counts = [0] * (g * g)
    for x, y in zip(values[:-1], values[1:]):
        ix = min(max(math.ceil(float(x) * g), 1), g) - 1
        iy = min(max(math.ceil(float(y) * g), 1), g) - 1
        counts[ix * g + iy] += 1
    return counts


def column_stack_counts(values, g: int) -> np.ndarray:
    """Cell counts as an (N-1) x 2 point array binned column by column."""
    pts = np.column_stack([values[:-1], values[1:]])
    ix = np.clip(np.ceil(pts[:, 0] * g).astype(int), 1, g) - 1
    iy = np.clip(np.ceil(pts[:, 1] * g).astype(int), 1, g) - 1
    return np.bincount(ix * g + iy, minlength=g * g)


@st.composite
def unit_sequences(draw):
    """A grid size and a sequence in [0, 1] rich in 0.0, 1.0 and exact cell edges k/G."""
    g = draw(st.sampled_from([1, 2, 3, 7, 32, 64]))
    element = (st.sampled_from([0.0, -0.0, 1.0]) | st.integers(0, g).map(lambda k: k / g)
               | st.floats(min_value=0.0, max_value=1.0))
    values = draw(st.lists(element, min_size=2, max_size=200)
                  | st.tuples(element, st.integers(2, 50)).map(lambda t: [t[0]] * t[1]))
    return np.array(values), g


# Few distinct values, so that hypothesis draws many ties, ±0.0 among them.
TIED_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e300, -np.inf])


@pytest.mark.parametrize("call, message", [
    (lambda: empirical_cdf_map([0.1, np.nan, 0.3]), "NaN in the sequence: it has no rank"),
    (lambda: zipf_fit([5.0, 4.0, np.nan, 2.0, 1.0], trim_fraction=0.0),
     "non-finite value in the sequence"),
    (lambda: zipf_fit([np.inf, 4.0, 3.0, 2.0, 1.0], trim_fraction=0.0),
     "non-finite value in the sequence"),
], ids=["cdf_nan", "zipf_nan", "zipf_inf"])
def test_non_finite_named(call, message):
    """Not a NaN rank, a NaN slope or a RuntimeWarning: a RankStatsError that names it."""
    with pytest.raises(RankStatsError, match=message):
        call()


class TestZipfFit:
    def test_exact_exponential(self):
        r = np.arange(1, 1001)
        fit = zipf_fit(np.exp(-0.01 * r), trim_fraction=0.0)
        assert fit.semilog_slope == pytest.approx(-0.01, abs=1e-12)
        assert fit.semilog_r2 == pytest.approx(1.0, abs=1e-9)

    def test_exact_power_law(self):
        r = np.arange(1, 1001, dtype=float)
        fit = zipf_fit(r**-0.8, trim_fraction=0.0)
        assert fit.loglog_slope == pytest.approx(-0.8, abs=1e-12)
        assert fit.loglog_r2 == pytest.approx(1.0, abs=1e-9)

    def test_noisy_power_law_recovery(self):
        slopes = [
            zipf_fit(power_law_ranks(1000, 1.0, 0.01, s), trim_fraction=0.05).loglog_slope
            for s in range(50)
        ]
        assert np.mean(slopes) == pytest.approx(-1.0, abs=0.05)

    def test_trim_counts(self):
        fit = zipf_fit(np.arange(100, 0, -1, dtype=float), trim_fraction=0.1)
        assert fit.n_used == 80

    def test_unsorted_rejected(self):
        with pytest.raises(RankStatsError, match="non-increasing"):
            zipf_fit([1.0, 2.0, 1.0, 0.5], trim_fraction=0.05)

    def test_nonpositive_inside_window(self):
        with pytest.raises(RankStatsError, match="nonpositive"):
            zipf_fit([3.0, 2.0, 1.0, 0.0], trim_fraction=0.0)

    def test_too_few_points(self):
        with pytest.raises(RankStatsError, match="too few"):
            zipf_fit([2.0, 1.0, 0.5], trim_fraction=0.0)

    @pytest.mark.parametrize("trim", [0.3, -0.1])
    def test_trim_fraction_out_of_range(self, trim):
        with pytest.raises(RankStatsError, match=r"trim_fraction must be in \[0, 0.25\]"):
            zipf_fit(np.arange(100, 0, -1, dtype=float), trim_fraction=trim)

    @pytest.mark.parametrize("values, trim", [(np.full(5, 0.9), 0.0),
                                              (np.r_[[2.0] * 5, [0.9] * 90, [0.1] * 5], 0.05),
                                              # A spread of one ulp is rounding noise.
                                              (np.r_[[np.nextafter(0.9, 1)] * 50,
                                                     [0.9] * 50], 0.05)])
    def test_no_spread_rejected(self, values, trim):
        with pytest.raises(RankStatsError, match="no spread in the trimmed window"):
            zipf_fit(values, trim_fraction=trim)

    @given(st.floats(min_value=0.2, max_value=2.0), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25)
    def test_scale_invariance_of_slopes(self, beta, scale):
        r = np.arange(1, 201, dtype=float)
        vals = r**-beta
        a = zipf_fit(vals, trim_fraction=0.05)
        b = zipf_fit(scale * vals, trim_fraction=0.05)
        assert b.loglog_slope == pytest.approx(a.loglog_slope, abs=1e-9)
        assert b.semilog_slope == pytest.approx(a.semilog_slope, abs=1e-9)


class TestPoincareMap:
    def test_definition(self):
        pts = pairs(poincare_map([0.2, 0.5, 0.9]))
        np.testing.assert_allclose(pts, [[0.2, 0.5], [0.5, 0.9]])

    def test_constant(self):
        pts = pairs(poincare_map([0.3] * 5))
        assert np.all(pts == 0.3)

    def test_micro_mutual_sequence(self):
        pts = pairs(poincare_map([0.75, 1.0, 0.25]))
        np.testing.assert_allclose(pts, [[0.75, 1.0], [1.0, 0.25]])

    def test_too_short(self):
        with pytest.raises(RankStatsError):
            poincare_map([0.5])

    @given(npst.arrays(np.float64, st.integers(min_value=2, max_value=100),
                       elements=st.floats(min_value=0, max_value=1)))
    def test_chaining(self, values):
        # The map holds the sequence itself, so consecutive points chain.
        np.testing.assert_array_equal(poincare_map(values).values, values)


class TestOccupancy:
    def test_constant_sequence_one_cell(self):
        report = occupancy_stats(poincare_map([0.4] * 10), 8)
        assert report.occupied_cells == 1

    def test_grid_one(self):
        report = occupancy_stats(poincare_map([0.1, 0.9, 0.4]), 1)
        assert report.occupied_fraction == 1.0
        assert report.chi2_uniform == 0.0

    def test_occupied_fraction_definition(self):
        report = occupancy_stats(poincare_map([0.1, 0.9, 0.1, 0.9]), 4)
        assert report.occupied_fraction == report.occupied_cells / 16

    def test_out_of_range_rejected(self):
        with pytest.raises(RankStatsError, match="coordinates"):
            occupancy_stats(poincare_map([0.5, 1.5]), 4)

    @pytest.mark.parametrize("grid, message", [
        (0, "grid_size must be >= 1"),
        (4097, rf"grid_size\^2 must be <= {MAX_GRID_CELLS} cells"),  # 4097^2 > 2^24
    ], ids=["grid_0", "grid_4097"])
    def test_grid_size_out_of_range(self, grid, message):
        with pytest.raises(RankStatsError, match=message):
            occupancy_stats(poincare_map([0.1, 0.9, 0.4]), grid)

    def test_one_value_has_no_point(self):
        with pytest.raises(RankStatsError, match="need at least one point"):
            occupancy_stats(PoincarePoints(values=np.array([0.5])), 4)

    def test_boundary_values_clamped(self):
        report = occupancy_stats(poincare_map([0.0, 1.0, 0.0]), 4)
        assert report.occupied_cells >= 1

    @settings(max_examples=300, deadline=None)
    @given(unit_sequences())
    @example((np.array([0.0, 1.0]), 1))
    @example((np.array([0.5, 0.5]), 2))
    @example((np.full(9, 1 / 3), 3))
    @example((np.array([k / 7 for k in range(8)] * 3), 7))
    def test_equals_loop_and_column_stack_references(self, case):
        values, g = case
        report = occupancy_stats(poincare_map(values), g)
        for counts in (loop_counts(values, g), column_stack_counts(values, g)):
            assert report.occupied_cells == np.count_nonzero(counts)
            assert report.chi2_uniform == chi2_of(counts, values.size - 1, g)


class TestEmpiricalCdfMap:
    def test_range_and_order(self):
        x = np.array([3.0, -1.0, 2.0])
        mapped = empirical_cdf_map(x)
        np.testing.assert_allclose(mapped, [1.0, 1 / 3, 2 / 3])

    def test_ties_break_by_position(self):
        np.testing.assert_array_equal(empirical_cdf_map([2, 1, 2, 1]), [0.75, 0.25, 1.0, 0.5])

    @settings(max_examples=300, deadline=None)
    @given(npst.arrays(np.float64, st.integers(min_value=1, max_value=300),
                       elements=TIED_VALUES | st.floats(allow_nan=False)))
    def test_same_bits_as_stable_sort(self, x):
        assert empirical_cdf_map(x).tobytes() == stable_cdf_map(x).tobytes()

    @pytest.mark.parametrize("x", [
        [7.0], [-0.0], np.full(1000, -2.5), np.tile([0.0, -0.0], 500),
        np.random.default_rng(1).standard_normal(1 << 16),  # no ties
        np.random.default_rng(2).integers(0, 5, 1 << 16) * 1.0,
        np.random.default_rng(3).integers(-500, 500, 1 << 16) * -0.0,  # all ±0.0
        np.repeat(np.random.default_rng(4).standard_normal(1 << 10), 64),
        # Ties are read from np.sort(x), whose ±0.0 may come in another order than
        # in x[np.argsort(x)]; == does not tell them apart, so the ranks agree.
        np.random.default_rng(5).choice([-0.0, 0.0, -1.0, 1.0, 2.0], 1 << 16),
    ], ids=["one", "minus_zero", "constant", "signed_zeros", "tie_free", "five_values",
            "zeros_mixed_sign", "runs", "signed_zeros_among_values"])
    def test_same_bits_as_stable_sort_at_size(self, x):
        assert empirical_cdf_map(x).tobytes() == stable_cdf_map(x).tobytes()

    @given(npst.arrays(np.float64, st.integers(min_value=1, max_value=200),
                       elements=st.floats(min_value=-1e6, max_value=1e6)))
    def test_always_in_unit_interval(self, x):
        mapped = empirical_cdf_map(x)
        assert mapped.min() > 0.0
        assert mapped.max() == 1.0
