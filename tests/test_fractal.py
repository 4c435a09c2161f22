import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from fracrank.fractal import (
    DegenerateSeriesError,
    _line_fit,
    default_dfa_windows,
    dfa,
    hurst_pointwise,
    hurst_regression,
    profile,
    rs_statistic,
)
from fracrank.synth import fgn, white_noise

finite_series = npst.arrays(
    np.float64,
    st.integers(min_value=2, max_value=64),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


def naive_dfa_d(series, window):
    """Reference D(n): materialize every segment, fit with np.polyfit, pool residuals."""
    x = np.asarray(series, dtype=float)
    prof = np.cumsum(x - x.mean())
    nseg = prof.size // window
    sq = []
    for s in range(nseg):
        seg = prof[s * window : (s + 1) * window]
        k = np.arange(1, window + 1, dtype=float)
        coeffs = np.polyfit(k, seg, 1)
        resid = seg - np.polyval(coeffs, k)
        sq.extend(resid**2)
    return math.sqrt(np.mean(sq))


def naive_rs_means(series, windows):
    """Reference R/S curve: rs_statistic on every block, degenerate blocks skipped.

    A window whose blocks are all degenerate is dropped, as is one with no block.
    """
    x = np.asarray(series, dtype=float)
    used, means = [], []
    for w in windows:
        vals = []
        for b in range(x.size // w):
            try:
                vals.append(rs_statistic(x[b * w : (b + 1) * w]))
            except DegenerateSeriesError:
                continue
        if vals:
            used.append(w)
            means.append(np.mean(vals))
    return np.asarray(used, dtype=float), np.asarray(means)


def assert_matches_naive_rs(x, windows):
    used, means = naive_rs_means(x, sorted(set(windows)))
    if used.size < 4:
        with pytest.raises(DegenerateSeriesError, match="insufficient scaling range"):
            hurst_regression(x, windows=windows)
        return
    res = hurst_regression(x, windows=windows)
    np.testing.assert_array_equal(res.rs_windows, used)
    np.testing.assert_allclose(res.rs_means, means, rtol=1e-12, atol=0)
    h = np.polyfit(np.log10(used), np.log10(means), 1)[0]
    np.testing.assert_allclose(res.h_regression, h, rtol=1e-12, atol=0)


@st.composite
def series_with_constant_stretches(draw):
    """Constant stretches alternating with random ones, starting with a constant one.

    Every stretch has at least 16 values, so any window <= 8 has degenerate blocks.
    """
    pieces = draw(st.lists(st.tuples(st.integers(16, 96), st.floats(-1e3, 1e3)),
                           min_size=4, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.concatenate([
        np.full(n, v) if i % 2 == 0 else v + rng.standard_normal(n)
        for i, (n, v) in enumerate(pieces)
    ])


def windows_for(data, n_points):
    """One short window (2..8) plus three to nine anywhere in [2, N]."""
    short = data.draw(st.integers(2, 8))
    rest = data.draw(st.lists(st.integers(2, n_points), min_size=3, max_size=9))
    return [short] + rest


class TestProfile:
    def test_constant_series(self):
        np.testing.assert_allclose(profile([5.0] * 4), [0, 0, 0, 0], atol=1e-15)

    def test_alternating(self):
        np.testing.assert_allclose(profile([1, -1, 1, -1]), [1, 0, 1, 0], atol=1e-15)

    def test_hand_computed(self):
        np.testing.assert_allclose(profile([1, 2, 3]), [-1, -1, 0], atol=1e-15)

    def test_too_short(self):
        with pytest.raises(ValueError):
            profile([1.0])

    @given(finite_series)
    def test_last_value_is_zero(self, x):
        y = profile(x)
        scale = max(1.0, np.abs(x).max())
        assert abs(y[-1]) <= x.size * 1e-9 * scale


class TestLocalTrend:
    """The DFA local trend of one segment: one-row cases of ``_line_fit``."""

    def test_exact_line(self):
        a, b = _line_fit(np.array([[3.0, 5.0, 7.0]]))
        assert a[0] == pytest.approx(2.0)
        assert b[0] == pytest.approx(1.0)

    def test_constant(self):
        a, b = _line_fit(np.full((1, 5), 4.0))
        assert a[0] == pytest.approx(0.0)
        assert b[0] == pytest.approx(4.0)

    def test_hand_ols(self):
        a, b = _line_fit(np.array([[0.0, 1.0, 0.0]]))
        assert a[0] == pytest.approx(0.0)
        assert b[0] == pytest.approx(1 / 3)

    @given(finite_series)
    def test_residuals_orthogonal_to_regressors(self, y):
        a, b = _line_fit(y[None, :])
        k = np.arange(1, y.size + 1, dtype=float)
        resid = y - (a[0] * k + b[0])
        scale = max(1.0, np.abs(y).max()) * y.size**2
        assert abs(resid.sum()) <= 1e-8 * scale
        assert abs((resid * k).sum()) <= 1e-8 * scale


class TestDfa:
    def test_constant_series_is_degenerate(self):
        with pytest.raises(DegenerateSeriesError, match="zero fluctuation"):
            dfa([1.0] * 64)

    def test_empty_window_grid(self):
        with pytest.raises(ValueError):
            dfa(white_noise(64, 0), windows=[])

    def test_window_bounds_enforced(self):
        with pytest.raises(ValueError):
            dfa(white_noise(64, 0), windows=[2])
        with pytest.raises(ValueError):
            dfa(white_noise(64, 0), windows=[40])

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(200)
        curve = dfa(x)
        for n, d in zip(curve.windows, curve.d):
            assert d == pytest.approx(naive_dfa_d(x, int(n)), abs=1e-9)

    def test_shift_invariance(self):
        x = white_noise(256, 3)
        a = dfa(x)
        b = dfa(x + 1000.0)
        np.testing.assert_allclose(a.d, b.d, rtol=1e-8)

    def test_positive_scaling(self):
        x = white_noise(256, 3)
        a = dfa(x)
        b = dfa(3.0 * x)
        np.testing.assert_allclose(b.d, 3.0 * a.d, rtol=1e-10)
        assert b.alpha == pytest.approx(a.alpha, abs=1e-10)

    def test_white_noise_alpha(self):
        alphas = [dfa(white_noise(8192, s)).alpha for s in range(50)]
        assert np.mean(alphas) == pytest.approx(0.5, abs=0.05)

    def test_fgn_alpha(self):
        alphas = [dfa(fgn(8192, 0.8, s)).alpha for s in range(50)]
        assert np.mean(alphas) == pytest.approx(0.8, abs=0.08)

    def test_default_windows_range(self):
        grid = default_dfa_windows(8192)
        assert grid.min() >= 4 and grid.max() <= 2048
        assert np.all(np.diff(grid) > 0)

    @pytest.mark.filterwarnings("error")
    @given(st.lists(st.integers(min_value=-2, max_value=140), min_size=1, max_size=8))
    def test_any_window_list_fits_or_named_error(self, windows):
        # Any integer list is a window list analyze accepts; 512 points allow 4..128.
        x = white_noise(512, 3)
        if min(windows) < 4 or max(windows) > 128:
            with pytest.raises(ValueError, match="windows must satisfy 4 <= n <= N/4"):
                dfa(x, windows=windows)
        elif len(set(windows)) < 4:
            with pytest.raises(DegenerateSeriesError, match="fewer than 4 distinct windows"):
                dfa(x, windows=windows)
        else:
            curve = dfa(x, windows=windows)
            assert curve.windows.size == len(set(windows))
            assert np.isfinite(curve.alpha) and np.isfinite(curve.alpha_r2)
            assert np.isfinite(curve.d).all()

    @pytest.mark.parametrize("n", [16, 20, 27])
    def test_short_series_default_grid_rejected(self, n):
        # The default grid on 16-27 points collapses to fewer than 4 windows.
        with pytest.raises(DegenerateSeriesError, match="fewer than 4 distinct windows"):
            dfa(white_noise(n, 0))

    def test_default_grid_from_28_points(self):
        assert np.isfinite(dfa(white_noise(28, 0)).alpha)


class TestRsStatistic:
    def test_alternating(self):
        assert rs_statistic([1, -1, 1, -1]) == pytest.approx(1.0, abs=1e-12)

    def test_two_points(self):
        assert rs_statistic([0, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        assert rs_statistic([1, 2, 3, 4]) == pytest.approx(2 / math.sqrt(1.25), abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateSeriesError, match="degenerate"):
            rs_statistic([2.0, 2.0, 2.0])

    @given(finite_series)
    def test_matches_textbook_formula(self, x):
        s = x.std()
        if s == 0.0:
            return
        cum = np.cumsum(x - x.mean())
        assert rs_statistic(x) == pytest.approx((cum.max() - cum.min()) / s, rel=1e-12)

    @given(finite_series, st.floats(min_value=-100, max_value=100),
           st.floats(min_value=0.01, max_value=100))
    @settings(max_examples=50)
    def test_shift_scale_negation_invariance(self, x, shift, scale):
        # skip inputs whose spread would vanish in float arithmetic after a shift
        if np.ptp(x) <= 1e-6 * max(1.0, np.abs(x).max(), abs(shift)):
            return
        base = rs_statistic(x)
        assert rs_statistic(x + shift) == pytest.approx(base, rel=1e-6)
        assert rs_statistic(x * scale) == pytest.approx(base, rel=1e-6)
        assert rs_statistic(-x) == pytest.approx(base, rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestHugeValues:
    """Squares and sums of ~1e200 leave the float range; ~1e100 still fits."""

    @pytest.mark.parametrize("estimator", [dfa, hurst_regression, hurst_pointwise])
    def test_overflow_named(self, estimator):
        with pytest.raises(DegenerateSeriesError, match="floating-point overflow"):
            estimator(white_noise(256, 1) * 1e200)

    def test_scale_invariance_at_1e100(self):
        x = white_noise(256, 1)
        assert dfa(x * 1e100).alpha == pytest.approx(dfa(x).alpha, abs=1e-9)
        assert (hurst_regression(x * 1e100).h_regression
                == pytest.approx(hurst_regression(x).h_regression, abs=1e-9))
        large, _ = hurst_pointwise(x * 1e100)
        plain, _ = hurst_pointwise(x)
        np.testing.assert_allclose(large, plain, rtol=0, atol=1e-9)


class TestHurstPointwise:
    def test_minimum_length(self):
        with pytest.raises(ValueError):
            hurst_pointwise(white_noise(8, 0))

    def test_rs_one_gives_zero(self):
        # Scaled alternating series: every even prefix has R/S == 1.
        x = np.tile([1.0, -1.0], 32)
        points, _ = hurst_pointwise(x)
        even = [h for n, h in points if n % 2 == 0]
        assert even and all(abs(h) < 1e-12 for h in even)

    def test_fgn_tail(self):
        tails = []
        for s in range(10):
            points, _ = hurst_pointwise(fgn(8192, 0.8, s))
            tails.append(points[-1][1])
        assert np.mean(tails) == pytest.approx(0.8, abs=0.08)

    def test_skipped_prefixes_reported(self):
        x = np.concatenate([np.zeros(16), white_noise(48, 1)])
        points, skipped = hurst_pointwise(x)
        assert 16 in skipped
        assert all(n != 16 for n, _ in points)


class TestHurstRegression:
    def test_minimum_length(self):
        with pytest.raises(ValueError):
            hurst_regression(white_noise(32, 0))

    def test_insufficient_scaling_range(self):
        with pytest.raises(DegenerateSeriesError, match="insufficient scaling range"):
            hurst_regression(white_noise(128, 0), windows=[16, 24])

    def test_white_noise(self):
        hs = [hurst_regression(white_noise(8192, s)).h_regression for s in range(50)]
        assert np.mean(hs) == pytest.approx(0.5, abs=0.05)

    def test_fgn(self):
        results = [hurst_regression(fgn(8192, 0.8, s)) for s in range(50)]
        assert np.mean([r.h_regression for r in results]) == pytest.approx(0.8, abs=0.08)
        assert np.mean([r.fractal_dim for r in results]) == pytest.approx(1.2, abs=0.08)

    def test_fractal_dim_identity(self):
        r = hurst_regression(white_noise(1024, 7))
        assert r.fractal_dim == 2.0 - r.h_regression

    def test_fit_r2_reported(self):
        r = hurst_regression(fgn(8192, 0.8, 0))
        assert 0.9 < r.h_r2 <= 1.0

    @pytest.mark.parametrize("bad", [0, -16, 1, 257])
    def test_window_bounds_enforced(self, bad):
        with pytest.raises(ValueError, match="2 <= w <= N"):
            hurst_regression(white_noise(256, 0), windows=[bad, 16, 32, 64, 128])

    def test_window_of_whole_series_allowed(self):
        r = hurst_regression(white_noise(256, 0), windows=[16, 32, 64, 256])
        np.testing.assert_array_equal(r.rs_windows, [16, 32, 64, 256])

    @given(npst.arrays(np.float64, st.integers(64, 600),
                       elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_on_random_series(self, x, data):
        assert_matches_naive_rs(x, windows_for(data, x.size))

    @given(series_with_constant_stretches(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_with_degenerate_blocks(self, x, data):
        assert_matches_naive_rs(x, windows_for(data, x.size))

    @given(st.sampled_from([2, 4, 8]),
           st.lists(st.floats(0.5, 10.0), min_size=32, max_size=64), st.data())
    @settings(max_examples=30, deadline=None)
    def test_all_degenerate_window_dropped(self, run, steps, data):
        # Constant runs of length `run` with strictly increasing levels: every
        # block of size `run` has S == 0, every longer block spans two levels.
        x = np.repeat(np.cumsum(steps), run)
        longer = [run * m for m in (2, 4, 8, 16)]
        extra = data.draw(st.lists(st.integers(run + 1, x.size), max_size=4))
        windows = [run] + longer + extra
        r = hurst_regression(x, windows=windows)
        assert run not in r.rs_windows
        assert set(longer) <= set(r.rs_windows)
        assert_matches_naive_rs(x, windows)
