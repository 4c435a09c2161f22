import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from fracrank.fractal import (
    DegenerateSeriesError,
    _geometric_grid,
    _line_fit,
    _ols,
    _ranges_and_sds,
    _rescaled_ranges,
    _window_basis,
    dfa,
    hurst_pointwise,
    hurst_regression,
    rs_statistic,
)
from fracrank.synth import fgn, white_noise

from conftest import (ROOT, estimator_digest, flat_sums_series, naive_dfa_d, run_at_simd_levels,
                      textbook_rs, traced_peak, unit_scaled)

finite_series = npst.arrays(
    np.float64,
    st.integers(min_value=2, max_value=64),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


def libm_log10(values):
    """log10 of each value by math.log10, as the estimators' fits take it."""
    return np.array([math.log10(v) for v in values])


def per_window_dfa(series, windows):
    """Reference D(n) and alpha: fresh arrays per window and np.mean; dfa matches its bits."""
    x = np.asarray(series, dtype=float)
    prof = np.cumsum(x - x.mean())
    d = np.empty(len(windows))
    for i, n in enumerate(windows):
        nseg = prof.size // n
        seg = prof[: nseg * n].reshape(nseg, n)
        k = np.arange(1, n + 1, dtype=float)
        kc = k - k.mean()
        a, b = _line_fit(kc, (kc * kc).sum(), k.mean(), seg)
        resid = seg - (a[:, None] * k + b[:, None])
        d[i] = np.sqrt(np.mean(resid**2))
    return d, _ols(libm_log10(windows), libm_log10(d))[0]


def per_window_rs(series, windows):
    """Reference R/S curve and H: fresh arrays per window and np.mean; matched bit for bit."""
    x = np.asarray(series, dtype=float)
    used, means = [], []
    for w in windows:
        blocks = x[: x.size // w * w].reshape(-1, w)
        dev = blocks - blocks.mean(axis=1, keepdims=True)
        s = np.sqrt(np.mean(dev * dev, axis=1))
        cum = np.cumsum(dev, axis=1)
        r = cum.max(axis=1) - cum.min(axis=1)
        vals = r[s != 0.0] / s[s != 0.0]
        if vals.size:
            used.append(w)
            means.append(float(np.mean(vals)))
    used, means = np.asarray(used, dtype=float), np.asarray(means)
    return used, means, _ols(libm_log10(used), libm_log10(means))[0]


def bit_pin_series(name, n):
    """fGn at H 0.5/0.75/0.95 (cut to length), white noise, or one with constant stretches."""
    if name == "stretches":
        x = white_noise(n, 3)
        x[: n // 8] = 1.0
        x[n // 2 : n // 2 + n // 16] = -2.0
        return x
    if name == "white":
        return white_noise(n, 1)
    return fgn(1 << (n - 1).bit_length(), name, 2)[:n]


def polyfit_ols(x, y):
    """Reference OLS: np.polyfit's line, with R^2 from its residuals."""
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = ((y - (slope * x + intercept)) ** 2).sum()
    ss_tot = ((y - y.mean()) ** 2).sum()
    return slope, intercept, 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def naive_rs_means(series, windows):
    """Reference R/S curve: textbook R/S of every block, degenerate blocks skipped.

    Blocks are cut from the series as given, and each is divided by the power of
    two of its own largest magnitude (exact), so no square underflows or
    overflows however far a block sits from the rest of the series.
    A window whose blocks are all degenerate is dropped, as is one with no block.
    """
    x = np.asarray(series, dtype=float)
    used, means = [], []
    for w in windows:
        vals = []
        for b in range(x.size // w):
            rs = textbook_rs(unit_scaled(x[b * w : (b + 1) * w]))
            if rs is not None:
                vals.append(rs)
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


def local_trend(y):
    """DFA's line fit of y's rows against k = 1..n, with the cached regressor terms."""
    _, kc, kc_ss, k_mean = _window_basis(y.shape[-1])
    return _line_fit(kc, kc_ss, k_mean, y)


class TestLocalTrend:
    """The DFA local trend of one segment: one-row cases of ``_line_fit``."""

    def test_exact_line(self):
        a, b = local_trend(np.array([[3.0, 5.0, 7.0]]))
        assert a[0] == pytest.approx(2.0)
        assert b[0] == pytest.approx(1.0)

    def test_constant(self):
        a, b = local_trend(np.full((1, 5), 4.0))
        assert a[0] == pytest.approx(0.0)
        assert b[0] == pytest.approx(4.0)

    def test_hand_ols(self):
        a, b = local_trend(np.array([[0.0, 1.0, 0.0]]))
        assert a[0] == pytest.approx(0.0)
        assert b[0] == pytest.approx(1 / 3)

    @given(finite_series)
    def test_residuals_orthogonal_to_regressors(self, y):
        k = np.arange(1, y.size + 1, dtype=float)
        a, b = local_trend(y[None, :])
        resid = y - (a[0] * k + b[0])
        scale = max(1.0, np.abs(y).max()) * y.size**2
        assert abs(resid.sum()) <= 1e-8 * scale
        assert abs((resid * k).sum()) <= 1e-8 * scale

    @given(npst.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(2, 80)),
                       elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)),
           st.data())
    def test_split_rows_fit_bit_identical(self, rows, data):
        # A row's fit must not depend on the rows fit with it, or DFA's bits
        # would depend on how a library splits the rows (e.g. across threads).
        cuts = sorted(data.draw(st.lists(st.integers(0, rows.shape[0]), max_size=5)))
        stacked = local_trend(rows)
        parts = [local_trend(part) for part in np.split(rows, cuts)]
        for whole, pieces in zip(stacked, zip(*parts)):
            np.testing.assert_array_equal(whole, np.concatenate(pieces))
        row = data.draw(st.integers(0, rows.shape[0] - 1))
        alone = local_trend(rows[row])
        assert (alone[0], alone[1]) == (stacked[0][row], stacked[1][row])


@st.composite
def distinct_xy(draw):
    """Distinct x values (integers scaled by a positive float) and matching finite y."""
    ints = draw(st.lists(st.integers(-10**4, 10**4), min_size=2, max_size=60, unique=True))
    x = np.array(ints, dtype=float) * draw(st.floats(1e-3, 1e3))
    y = draw(npst.arrays(np.float64, x.size,
                         elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)))
    return x, y


class TestOls:
    @given(distinct_xy())
    def test_matches_polyfit(self, xy):
        x, y = xy
        # Below this spread y is constant up to rounding, and R^2 is a ratio of
        # rounding errors in either fit.
        assume(np.ptp(y) > 1e-6 * np.abs(y).max())
        got = _ols(x, y)
        want = polyfit_ols(x, y)
        # rtol 1e-9, with an absolute floor at 1e-9 of each value's natural scale
        # for fits whose slope or intercept cancels to ~0.
        slope_scale = max(np.ptp(y), 1.0) / np.ptp(x)
        scales = (slope_scale, max(np.abs(y).max(), 1.0) + slope_scale * np.abs(x).max(), 1.0)
        for g, w, scale in zip(got, want, scales):
            np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-9 * scale)


class TestDfa:
    def test_constant_series_is_degenerate(self):
        with pytest.raises(DegenerateSeriesError, match="zero fluctuation"):
            dfa([1.0] * 64)

    def test_empty_window_grid(self):
        with pytest.raises(ValueError):
            dfa(white_noise(64, 0), windows=[])

    def test_zero_fluctuation_at_a_window_is_degenerate(self):
        # A period-8 square wave: its profile 1, 2, 3, 4, 3, 2, 1, 0 repeats, so it
        # is exactly linear in every window-4 segment, D(4) is 0 and its log undefined.
        wave = np.tile([1.0, 1, 1, 1, -1, -1, -1, -1], 64)
        with pytest.raises(DegenerateSeriesError,
                           match="zero fluctuation at some window; log fit undefined"):
            dfa(wave, windows=[4, 8, 16, 32])

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
        grid = dfa(white_noise(8192, 0)).windows
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

    @pytest.mark.parametrize("n", [1, 15])
    def test_fewer_than_16_points_rejected(self, n):
        with pytest.raises(ValueError, match="dfa needs at least 16 points"):
            dfa(np.arange(n, dtype=float))

    @pytest.mark.parametrize("n", [16, 20, 27])
    def test_short_series_default_grid_rejected(self, n):
        # The default grid on 16-27 points collapses to fewer than 4 windows.
        with pytest.raises(DegenerateSeriesError, match="fewer than 4 distinct windows"):
            dfa(white_noise(n, 0))

    def test_default_grid_from_28_points(self):
        assert np.isfinite(dfa(white_noise(28, 0)).alpha)


DFA_BYTES = """
import hashlib
from fracrank.fractal import dfa
from fracrank.synth import fgn
for seed in range(3):
    curve = dfa(fgn(2**20, 0.75, seed))
    data = curve.d.tobytes() + curve.windows.tobytes() + float(curve.alpha).hex().encode()
    print(seed, hashlib.sha256(data).hexdigest())
"""


def assert_bits_match_per_window_formulas(x):
    """dfa and hurst_regression on their default grids equal the references exactly."""
    curve = dfa(x)
    d, alpha = per_window_dfa(x, [int(w) for w in curve.windows])
    np.testing.assert_array_equal(curve.d, d)
    assert curve.alpha == alpha
    res = hurst_regression(x)
    used, means, h = per_window_rs(x, [int(w) for w in _geometric_grid(16, x.size // 4)])
    np.testing.assert_array_equal(res.rs_windows, used)
    np.testing.assert_array_equal(res.rs_means, means)
    assert res.h_regression == h
    return curve


@pytest.mark.parametrize("n", [1000, 8192, 2**16])
@pytest.mark.parametrize("name", [0.5, 0.75, 0.95, "white", "stretches"])
def test_estimator_bits_match_per_window_formulas(name, n):
    assert_bits_match_per_window_formulas(bit_pin_series(name, n))


def test_stretches_have_degenerate_rs_blocks():
    """The constant stretches of the bit-pin series leave some R/S blocks with S == 0."""
    for n in (1000, 8192, 2**16):
        blocks = bit_pin_series("stretches", n)[: n // 16 * 16].reshape(-1, 16)
        assert np.any(np.ptp(blocks, axis=1) == 0.0)


@st.composite
def block_arrays(draw):
    """(nblk, w) blocks with nblk >= 1 and w >= 2 (one row is the w = N case), each row
    random, drawn from a few values (ties), or constant, then scaled by 1, 2^600 or 2^-600."""
    nblk, w = draw(st.integers(1, 8)), draw(st.integers(2, 40))
    pool = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3))
    rows = []
    for _ in range(nblk):
        kind = draw(st.sampled_from(["random", "ties", "constant"]))
        if kind == "random":
            row = draw(npst.arrays(np.float64, w, elements=st.floats(-1e6, 1e6)))
        else:
            row = np.array(draw(st.lists(st.sampled_from(pool[:1] if kind == "constant" else pool),
                                         min_size=w, max_size=w)))
        rows.append(np.ldexp(row, draw(st.sampled_from([0, 600, -600]))))
    return np.array(rows)


@given(block_arrays())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_rs_kernel_matches_row_wise_reductions(blocks):
    """R from reduceat over the flat running sums equals their row-wise max - min, S is
    the population S, and the constancy test keeps exactly the rows with np.ptp != 0.

    Equal as floats is bit for bit here, except that a zero R may take either sign;
    such a row is left out either way.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r, s = _ranges_and_sds(blocks)
        dev = blocks - blocks.mean(axis=1, keepdims=True)
        cum = np.cumsum(dev, axis=1)
        np.testing.assert_array_equal(r, cum.max(axis=1) - cum.min(axis=1))
        assert s.tobytes() == np.sqrt(np.mean(dev * dev, axis=1)).tobytes()
        got = _rescaled_ranges(blocks, ties=True)
        keep = np.ptp(blocks, axis=1) != 0.0
        want = _rescaled_ranges(blocks[keep], ties=False) if keep.any() else np.empty(0)
    assert got.tobytes() == want.tobytes()


def test_estimator_bits_do_not_depend_on_the_simd_level():
    """dfa, hurst_regression and hurst_pointwise of fgn(2**16, 0.75, 7) hash alike with
    numpy's AVX-512 targets off, and with its AVX2 targets off too."""
    outputs = run_at_simd_levels(ROOT / "scripts" / "estimator_speed.py",
                                 "--length", "65536", "--repeat", "1")
    assert {out.splitlines()[-1] for out in outputs} == {f"sha256 {estimator_digest(2**16)}"}


def test_cached_grids_and_bases_are_read_only():
    grid = _geometric_grid(4, 2048)
    with pytest.raises(ValueError, match="read-only"):
        grid[0] = 0
    for arr in _window_basis(16)[:2]:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    curve = dfa(white_noise(8192, 0))
    curve.windows[0] = 0  # dfa hands out its own copy of the grid
    assert _geometric_grid(4, 2048)[0] == 4


class TestEstimatorCaches:
    """dfa and hurst_regression keep their bits whatever the grid and basis caches hold."""

    def assert_pinned(self):
        return assert_bits_match_per_window_formulas(bit_pin_series(0.75, 8192))

    def test_cold_cache(self):
        _geometric_grid.cache_clear()
        _window_basis.cache_clear()
        curve = self.assert_pinned()
        assert _window_basis.cache_info().misses == curve.windows.size

    def test_warm_cache(self):
        curve = self.assert_pinned()
        hits = _window_basis.cache_info().hits
        self.assert_pinned()
        assert _window_basis.cache_info().hits == hits + curve.windows.size

    def test_evicted_cache(self):
        grid = self.assert_pinned().windows
        other = [n for n in range(1024, 2048) if n not in grid]
        dfa(bit_pin_series(0.75, 8192), windows=other[: _window_basis.cache_info().maxsize])
        for hi in range(100, 101 + _geometric_grid.cache_info().maxsize):
            _geometric_grid(4, hi)
        misses = _window_basis.cache_info().misses
        curve = self.assert_pinned()
        assert _window_basis.cache_info().misses == misses + curve.windows.size


def test_dfa_bits_independent_of_blas_threads():
    """DFA on 2^20-value fGn gives the same bytes with one and two BLAS threads.

    On a host with one CPU both runs are single-threaded, so this passes trivially.
    """
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path,
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        digests.append(subprocess.run([sys.executable, "-c", DFA_BYTES], env=env, check=True,
                                      capture_output=True, text=True).stdout)
    assert digests[0] == digests[1]
    assert len(digests[0].splitlines()) == 3


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

    def test_one_value_rejected(self):
        with pytest.raises(ValueError, match="rs_statistic needs at least 2 points") as info:
            rs_statistic([1.0])
        assert info.type is ValueError  # a length error, not a degenerate series

    def test_constant_with_rounded_mean_is_degenerate(self):
        # The float mean of 64 copies of 0.1 is off by ~1e-17, so S is tiny but
        # not 0; scored, the block would read R/S = 63.
        x = np.full(64, 0.1)
        assert unit_scaled(x).std() != 0.0
        with pytest.raises(DegenerateSeriesError, match="degenerate"):
            rs_statistic(x)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_flat_running_sums_are_degenerate(self):
        # Each prefix's float mean rounds onto 1, so every deviation but the first is 0:
        # R == 0 while S > 0, which would read R/S 0.0 and make ln(R/S) -inf.
        x = flat_sums_series()
        for n in (168_201, 290_001):
            assert unit_scaled(x[:n]).std() != 0.0
            with pytest.raises(DegenerateSeriesError, match="degenerate.*flat running sums"):
                rs_statistic(x[:n])

    @given(finite_series)
    def test_matches_textbook_formula(self, x):
        want = textbook_rs(unit_scaled(x))
        if want is None:
            with pytest.raises(DegenerateSeriesError, match="degenerate"):
                rs_statistic(x)
        else:
            assert rs_statistic(x) == pytest.approx(want, rel=1e-12)

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


ESTIMATORS = [dfa, hurst_regression, hurst_pointwise, rs_statistic]


def scale_free_outputs(estimator, x, scale):
    """Every output of estimator(x * scale) as one flat array, D(n) divided back by scale."""
    y = x * scale
    if estimator is dfa:
        curve = dfa(y)
        return np.concatenate([curve.windows, curve.d / scale, [curve.alpha, curve.alpha_r2]])
    if estimator is hurst_regression:
        r = hurst_regression(y)
        return np.concatenate([r.rs_windows, r.rs_means, [r.h_regression, r.h_regression_r2]])
    if estimator is hurst_pointwise:
        points, skipped = hurst_pointwise(y)
        return np.concatenate([points.ravel(), skipped])
    return np.array([rs_statistic(y)])


class TestHugeValues:
    """Squares and sums of ~1e200 would leave the float range, but DFA divides the
    series by a power of two and R/S measures each such block or prefix again at its
    own; only a D(n) beyond the float range is named."""

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_overflow_named(self, estimator):
        x = white_noise(256, 1)
        want = scale_free_outputs(estimator, x, 1.0)
        np.testing.assert_allclose(scale_free_outputs(estimator, x, 1e200), want, rtol=1e-12)
        if estimator is dfa:
            # D(n) of this fGn reaches 45, so D(n) * 1e307 is not a float.
            with pytest.raises(DegenerateSeriesError, match="values too large: D\\(n\\)"):
                dfa(fgn(8192, 0.75, 3) * 1e307)
        else:
            np.testing.assert_allclose(scale_free_outputs(estimator, x, 1e307), want,
                                       rtol=1e-12)

    def test_scale_invariance_at_1e100(self):
        x = white_noise(256, 1)
        assert dfa(x * 1e100).alpha == pytest.approx(dfa(x).alpha, abs=1e-9)
        assert (hurst_regression(x * 1e100).h_regression
                == pytest.approx(hurst_regression(x).h_regression, abs=1e-9))
        large, _ = hurst_pointwise(x * 1e100)
        plain, _ = hurst_pointwise(x)
        np.testing.assert_allclose(large, plain, rtol=0, atol=1e-9)


SWEEP_SERIES = {
    "fgn-8192": lambda: fgn(8192, 0.75, 3),
    "white-4096": lambda: white_noise(4096, 1),
    "fgn-65536": lambda: fgn(2**16, 0.95, 2),
}
SWEEP_SCALES = ([2.0**k for k in range(-1000, 1001, 50)]
                + [1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300])


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("name", SWEEP_SERIES)
def test_scale_sweep_matches_unscaled(name, estimator):
    """x * 2^k (k = -1000..1000, step 50) and x * 1e+-160/200/300 give x's outputs.

    Below ~1e-155 squares underflow and above ~1e154 they overflow, unless the
    estimators first divide by a power of two. No D(n) here leaves the float range.
    """
    x = SWEEP_SERIES[name]()
    want = scale_free_outputs(estimator, x, 1.0)
    for scale in SWEEP_SCALES:
        np.testing.assert_allclose(scale_free_outputs(estimator, x, scale), want,
                                   rtol=1e-12, atol=0, err_msg=f"scale {scale!r}")


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_callers_array_never_written(estimator):
    """R/S reads every series as given, and DFA one whose largest magnitude lies in
    [1/2, 2^400), not a copy, so no estimator may write into it, here through a tiny
    block too, and at 2^-600 and 2^600, where DFA works on a scaled copy. That DFA
    makes no copy of such a series shows in its traced peak: at least base.nbytes
    below its peak on base * 2^-600, which it must scale."""
    base = np.concatenate([white_noise(512, 1), np.ldexp(white_noise(256, 5), -531),
                           np.zeros(256)])
    if estimator is dfa:
        tiny = base * 2.0**-600
        dfa(base)  # fills the window caches both calls share
        assert traced_peak(lambda: dfa(base)) + base.nbytes <= traced_peak(lambda: dfa(tiny))
    for scale in (1.0, 2.0**-600, 2.0**600):
        x = base * scale
        want = x.copy()
        x.flags.writeable = False
        estimator(x)
        np.testing.assert_array_equal(x, want, err_msg=f"scale {scale!r}")


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("estimator", [dfa, hurst_regression, hurst_pointwise, rs_statistic])
def test_non_finite_value_named(estimator, value):
    """Every estimator names an inf or NaN from the series' min and max, before any
    arithmetic."""
    x = white_noise(1024, 1)
    x[700] = value
    with pytest.raises(DegenerateSeriesError, match="non-finite value in the series"):
        estimator(x)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_value_in_no_block_named(value):
    """The last of 1027 values lies in no block of the default R/S grid (w <= 256),
    but it is still part of the series."""
    x = white_noise(1027, 1)
    x[-1] = value
    with pytest.raises(DegenerateSeriesError, match="non-finite value in the series: R/S"):
        hurst_regression(x)


def test_subnormal_d_named():
    # At 2^-1030 the values are subnormal, and so would be D(n) * 2**e.
    with pytest.raises(DegenerateSeriesError, match="values too small: D\\(n\\)"):
        dfa(fgn(8192, 0.75, 3) * 2.0**-1030)


class TestMixedScales:
    """A block or prefix far below the series' largest magnitude is measured at its own
    scale: at the series' scale its squares would be subnormal (2^-531) or 0 (2^-565)."""

    @pytest.mark.parametrize("k", [-531, -565])
    def test_tiny_block_rs_equals_block_alone(self, k):
        tiny = np.ldexp(white_noise(64, 5), k)
        x = unit_scaled(np.concatenate([white_noise(64, 1), tiny]))
        rs = _rescaled_ranges(x.reshape(2, 64))
        assert rs.size == 2
        assert rs[1] == rs_statistic(tiny)

    def test_huge_and_tiny_blocks_each_equal_block_alone(self):
        """At 2^1000 a block's squares overflow and at 2^-1000 they are 0: one call
        measures both blocks again, each at its own power of two."""
        blocks = np.stack([np.ldexp(white_noise(64, 1), 1000), np.ldexp(white_noise(64, 5), -1000)])
        with np.errstate(over="ignore", invalid="ignore"):
            _, s = _ranges_and_sds(blocks)
            rs = _rescaled_ranges(blocks)
        assert not s[0] <= 2.0**500 and s[1] < 2.0**-500
        np.testing.assert_array_equal(rs, [rs_statistic(blocks[0]), rs_statistic(blocks[1])])
        assert rs[0] == rs_statistic(white_noise(64, 1))
        assert rs[1] == rs_statistic(white_noise(64, 5))

    @pytest.mark.parametrize("k", [-531, -565])
    def test_tiny_prefixes_equal_tiny_part_alone(self, k):
        tiny = np.ldexp(white_noise(1024, 5), k)
        mixed, mixed_skipped = hurst_pointwise(np.concatenate([tiny, white_noise(7168, 1)]))
        alone, _ = hurst_pointwise(tiny)
        shared = np.intersect1d(mixed[:, 0], alone[:, 0])
        assert shared.size >= 5 and not mixed_skipped
        np.testing.assert_array_equal(mixed[np.isin(mixed[:, 0], shared)],
                                      alone[np.isin(alone[:, 0], shared)])

    @pytest.mark.parametrize("k", [-531, -565])
    def test_dfa_of_tiny_block_equals_zeroed_block(self, k):
        """The profile's mean slope dominates the tiny block, whose share of D(n) is
        far below rounding: D(n) is that of the series with the block set to 0."""
        x = white_noise(4096, 1)
        zeroed = dfa(np.concatenate([x, np.zeros(4096)]))
        np.testing.assert_array_equal(dfa(np.concatenate([x, np.ldexp(x, k)])).d, zeroed.d)

    def test_block_flushed_by_scaling_down_kept(self):
        """Scaled down by 2^-402, as DFA scales it, a series of 2^401 would flush a
        block at 2^-700 to zero; R/S reads the series as given and keeps that block."""
        x = np.concatenate([np.ldexp(white_noise(64, 1), 401), np.ldexp(white_noise(64, 5), -700)])
        windows = [8, 16, 32, 64]
        r = hurst_regression(x, windows=windows)
        used, means = naive_rs_means(x, windows)
        np.testing.assert_array_equal(r.rs_windows, used)
        np.testing.assert_array_equal(r.rs_means, means)
        np.testing.assert_allclose(r.rs_means, [2.639, 4.066, 6.111, 8.596], atol=5e-4)

    def test_prefixes_flushed_by_scaling_down_equal_tiny_part_alone(self):
        tiny = np.ldexp(white_noise(1024, 5), -700)
        mixed, mixed_skipped = hurst_pointwise(
            np.concatenate([tiny, np.ldexp(white_noise(7168, 1), 401)]))
        alone, _ = hurst_pointwise(tiny)
        shared = np.intersect1d(mixed[:, 0], alone[:, 0])
        assert shared.size >= 5 and not mixed_skipped
        np.testing.assert_array_equal(mixed[np.isin(mixed[:, 0], shared)],
                                      alone[np.isin(alone[:, 0], shared)])


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

    def test_constant_prefixes_with_rounded_mean_skipped(self):
        # Most constant prefixes of 0.1s have a float mean that rounds, so S is not 0.
        x = np.concatenate([np.full(64, 0.1), white_noise(192, 1)])
        constant = [n for n in _geometric_grid(16, 256) if n <= 64]
        assert sum(unit_scaled(x)[:n].std() != 0.0 for n in constant) > len(constant) // 2
        points, skipped = hurst_pointwise(x)
        assert skipped == constant
        assert points[:, 0].min() > 64

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_flat_running_sum_prefixes_skipped(self):
        points, skipped = hurst_pointwise(flat_sums_series())
        assert skipped == [168_201, 290_001]
        assert points.shape == (18, 2) and np.isfinite(points).all()

    @pytest.mark.parametrize("case", ["fgn", "constant_head", "rounded"])
    def test_each_prefix_is_rs_statistic(self, case):
        """Each point is ln(rs_statistic(x[:n])) / ln(n/2) by libm, bit for bit, and skipped
        holds exactly the prefixes where rs_statistic raises."""
        x = {
            "fgn": lambda: fgn(4096, 0.75, 3),
            "constant_head": lambda: np.concatenate([np.full(100, 0.25), white_noise(4000, 1)]),
            "rounded": lambda: np.round(white_noise(4096, 2), 1),
        }[case]()
        want, want_skipped = [], []
        for n in _geometric_grid(16, x.size).tolist():
            try:
                want.append((n, math.log(rs_statistic(x[:n])) / math.log(n / 2.0)))
            except DegenerateSeriesError:
                want_skipped.append(n)
        points, skipped = hurst_pointwise(x)
        assert skipped == want_skipped
        assert bool(skipped) == (case == "constant_head")
        assert points.tobytes() == np.array(want).tobytes()


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
        assert 0.9 < r.h_regression_r2 <= 1.0

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

    def test_block_of_a_subnormal_value_kept(self):
        """[5e-324, 0, 0] is not constant: its block counts, at its own power of two.

        The series is used as given (its largest value is 2), so 5e-324 is not
        flushed to zero."""
        x = np.zeros(256)
        x[0] = 5e-324
        x[128:130] = 1.0, 2.0
        x[140:200] = white_noise(60, 3)
        windows = range(3, 49)
        r = hurst_regression(x, windows=windows)
        used, means = naive_rs_means(x, windows)
        np.testing.assert_array_equal(r.rs_windows, used)
        np.testing.assert_array_equal(r.rs_means, means)
        assert r.rs_means[0] == 1.3635938040170554

    def test_constant_blocks_with_rounded_mean_left_out(self):
        # The 64- and 128-blocks of 0.1s have a float mean off by ~1e-17 and would
        # score R/S = w - 1; only the white-noise blocks count.
        x = np.concatenate([np.full(128, 0.1), white_noise(128, 2)])
        windows = [16, 32, 64, 128]
        r = hurst_regression(x, windows=windows)
        want = [np.mean([textbook_rs(b) for b in unit_scaled(x)[128:].reshape(-1, w)])
                for w in windows]
        np.testing.assert_allclose(r.rs_means, want, rtol=1e-12)
        assert_matches_naive_rs(x, windows)

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
