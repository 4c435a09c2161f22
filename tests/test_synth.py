import numpy as np
import pytest

from fracrank.fractal import _line_fit
from fracrank.synth import (
    SynthError,
    fgn,
    fgn_autocovariance,
    linear_trend,
    power_law_ranks,
    read_series_csv,
    white_noise,
    write_series_csv,
)
from fracrank.table import TableError, write_atomic


def sample_autocov(x, lag):
    xc = x - x.mean()
    return float(np.mean(xc[: x.size - lag] * xc[lag:])) if lag else float(np.mean(xc**2))


class TestWhiteNoise:
    def test_deterministic(self):
        np.testing.assert_array_equal(white_noise(4, 123), white_noise(4, 123))

    def test_mean(self):
        x = white_noise(10**6, 0)
        assert abs(x.mean()) < 0.01

    def test_lag1_autocorrelation(self):
        x = white_noise(10**6, 1)
        assert abs(sample_autocov(x, 1) / sample_autocov(x, 0)) < 0.01


class TestFgn:
    def test_h_half_is_uncorrelated(self):
        x = fgn(2**20, 0.5, 0)
        assert abs(sample_autocov(x, 1)) < 0.01

    def test_h08_lag1_ratio(self):
        x = fgn(2**20, 0.8, 0)
        ratio = sample_autocov(x, 1) / sample_autocov(x, 0)
        # closed form: gamma(1)/gamma(0) = 2^(2H-1) - 1 ~= 0.5157 at H=0.8
        assert ratio == pytest.approx(2**0.6 - 1, abs=0.02)

    def test_deterministic(self):
        np.testing.assert_array_equal(fgn(64, 0.7, 9), fgn(64, 0.7, 9))

    def test_bad_h(self):
        with pytest.raises(SynthError):
            fgn(64, 1.2, 0)
        with pytest.raises(SynthError):
            fgn(64, 0.0, 0)

    def test_length_must_be_power_of_two(self):
        with pytest.raises(SynthError):
            fgn(100, 0.7, 0)
        with pytest.raises(SynthError):
            fgn(32, 0.7, 0)

    @pytest.mark.parametrize("h", [0.3, 0.6, 0.9])
    def test_autocov_matches_closed_form(self, h):
        n = 2**20
        x = fgn(n, h, 3)
        for lag in range(6):
            got = sample_autocov(x, lag)
            want = float(fgn_autocovariance(h, lag))
            # 3 standard errors of the lag-covariance estimator, conservatively.
            se = 3 * np.sqrt(2.0 / n) * max(1.0, abs(want))
            assert abs(got - want) < max(se, 0.02)


class TestLinearTrend:
    def test_values(self):
        np.testing.assert_array_equal(linear_trend(3, 2, 1), [3, 5, 7])

    def test_zero_slope_constant(self):
        assert np.ptp(linear_trend(10, 0, 4.5)) == 0

    def test_local_trend_recovers_coefficients(self):
        a, b = _line_fit(linear_trend(50, -0.25, 3.0)[None, :])
        assert a[0] == pytest.approx(-0.25, abs=1e-12)
        assert b[0] == pytest.approx(3.0, abs=1e-10)


class TestPowerLawRanks:
    def test_exact_power_law_sorted(self):
        vals = power_law_ranks(100, 0.8, 0.0, 0)
        r = np.arange(1, 101, dtype=float)
        np.testing.assert_allclose(vals, r**-0.8)

    def test_noisy_still_sorted(self):
        vals = power_law_ranks(500, 1.0, 0.1, 5)
        assert np.all(np.diff(vals) <= 0)
        assert np.all(vals > 0)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            power_law_ranks(100, 1.0, 0.05, 7), power_law_ranks(100, 1.0, 0.05, 7)
        )


class TestSeriesCsv:
    def test_roundtrip(self, tmp_path):
        x = white_noise(100, 2)
        write_atomic(tmp_path / "series.csv", write_series_csv(x))
        back = read_series_csv(tmp_path / "series.csv")
        np.testing.assert_allclose(back, x, rtol=1e-11)

    def test_header_optional(self, tmp_path):
        (tmp_path / "series.csv").write_text("1.5\n2.5\n")
        np.testing.assert_array_equal(read_series_csv(tmp_path / "series.csv"), [1.5, 2.5])

    def test_empty_rejected(self, tmp_path):
        (tmp_path / "series.csv").write_text("value\n")
        with pytest.raises(TableError):
            read_series_csv(tmp_path / "series.csv")
