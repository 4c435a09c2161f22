import decimal
import hashlib
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracrank.fractal import _line_fit, _window_basis
from fracrank.synth import (
    SynthError,
    _sqrt_spectrum,
    fgn,
    fgn_autocovariance,
    linear_trend,
    power_law_ranks,
    read_series_csv,
    white_noise,
    write_series_csv,
)
from fracrank.table import TableError

from conftest import run_at_simd_levels, traced_peak, write_table


def sample_autocov(x, lag):
    xc = x - x.mean()
    return float(np.mean(xc[: x.size - lag] * xc[lag:])) if lag else float(np.mean(xc**2))


def reference_fgn(length, target_h, seed):
    """Textbook Davies-Harte: complex FFTs of the full 2N-point embedding and draws.

    It shares only the autocovariance with fgn, which takes real FFTs instead,
    so the two agree to rounding, not bit for bit.
    """
    n = length
    m = 2 * n
    gamma = fgn_autocovariance(target_h, n)
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eig = np.fft.fft(row).real
    assert eig.min() >= -1e-8
    eig = np.clip(eig, 0.0, None)
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(n + 1)
    im = rng.standard_normal(n - 1)
    w = np.zeros(m, dtype=complex)
    w[0] = np.sqrt(eig[0]) * re[0]
    w[n] = np.sqrt(eig[n]) * re[n]
    half = np.sqrt(eig[1:n] / 2.0)
    w[1:n] = half * (re[1:n] + 1j * im)
    w[n + 1 :] = np.conj(w[1:n][::-1])
    x = np.fft.fft(w) / np.sqrt(m)
    return x.real[:n]


def assert_near_reference(got, want):
    """fgn within 1e-14 * max|x| of reference_fgn (measured: 6.1e-16 at 2^20)."""
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


def cold_fgn(length, target_h, seed):
    """fgn with its spectrum computed afresh."""
    _sqrt_spectrum.cache_clear()
    return fgn(length, target_h, seed)


def decimal_autocovariance(h, lag):
    """gamma(lag) as written, in 50-digit decimal arithmetic, rounded once to a float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, k = Decimal(2 * h), Decimal(lag)
        power = lambda x: x**a if x else Decimal(0)
        return float((power(k + 1) - 2 * power(k) + power(abs(k - 1))) / 2)


def assert_same_bits(got, want):
    """Equal values and equal signs, so that -0.0 and +0.0 count as different."""
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


# Twelve (length, H) pairs, more than the spectrum cache holds, with H
# changing on every call so that consecutive calls never share a spectrum.
FGN_PAIRS = [(n, h) for n in (64, 8192, 2**16) for h in (0.3, 0.5, 0.75, 0.95)]


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

    def test_cold_cache_matches_uncached_reference(self):
        for seed in (0, 1, 17):
            _sqrt_spectrum.cache_clear()
            for n, h in FGN_PAIRS:
                assert_near_reference(fgn(n, h, seed), reference_fgn(n, h, seed))

    def test_warm_cache_matches_uncached_reference(self):
        want = {seed: cold_fgn(8192, 0.75, seed) for seed in (1, 2, 3)}
        _sqrt_spectrum.cache_clear()
        fgn(8192, 0.75, 0)
        for seed in (1, 2, 3):
            hits = _sqrt_spectrum.cache_info().hits
            assert_same_bits(fgn(8192, 0.75, seed), want[seed])
            assert _sqrt_spectrum.cache_info().hits == hits + 1

    def test_evicted_spectrum_matches_uncached_reference(self):
        want = cold_fgn(64, 0.3, 5)
        _sqrt_spectrum.cache_clear()
        fgn(64, 0.3, 0)
        for n, h in FGN_PAIRS[1:]:  # eleven other pairs push (64, 0.3) out
            fgn(n, h, 0)
        misses = _sqrt_spectrum.cache_info().misses
        assert_same_bits(fgn(64, 0.3, 5), want)
        assert _sqrt_spectrum.cache_info().misses == misses + 1

    def test_writing_a_series_leaves_the_next_call_alone(self):
        want = cold_fgn(8192, 0.95, 4)
        x = fgn(8192, 0.95, 4)
        x[:] = 0.0
        assert_same_bits(fgn(8192, 0.95, 4), want)
        roots = _sqrt_spectrum(8192, 0.95)
        assert not roots.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            roots[0] = 0.0

    def test_long_series_matches_uncached_reference(self):
        assert_near_reference(fgn(2**20, 0.75, 6), reference_fgn(2**20, 0.75, 6))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.integers(6, 14),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.integers(0, 2**64 - 1))
    def test_any_length_h_and_seed_match_uncached_reference(self, k, h, seed):
        x = fgn(2**k, h, seed)
        assert_same_bits(x, cold_fgn(2**k, h, seed))
        assert_near_reference(x, reference_fgn(2**k, h, seed))

    def test_peak_memory_is_the_real_transform_buffers(self):
        # A warm call holds the (N+1)-point complex coefficients, the 2N-point
        # irfft output and the N-value result. The output and numpy's own FFT
        # scratch are budgeted together, as the peak of one irfft after a call
        # has planned it. A cold call adds the cached N+1 roots. N is large
        # enough that the autocovariance's blocks stay small beside these.
        n = 2**17
        coefficients, result = 16 * (n + 1), 8 * n
        fgn(n, 0.75, 0)
        c = np.zeros(n + 1, dtype=complex)
        irfft = traced_peak(lambda: np.fft.irfft(c, 2 * n))
        warm = traced_peak(lambda: fgn(n, 0.75, 1))
        _sqrt_spectrum.cache_clear()
        cold = traced_peak(lambda: fgn(n, 0.75, 1))
        budget = coefficients + irfft + result
        assert warm < budget, f"warm peak {warm / n:.1f} bytes per value"
        assert cold < budget + 8 * (n + 1), f"cold peak {cold / n:.1f} bytes per value"

    def test_bits_do_not_depend_on_the_simd_level(self):
        script = ("import hashlib; from fracrank.synth import fgn; "
                  "print(hashlib.sha256(fgn(2**16, 0.75, 7).tobytes()).hexdigest())")
        digests = {out.strip() for out in run_at_simd_levels("-c", script)}
        assert digests == {hashlib.sha256(fgn(2**16, 0.75, 7).tobytes()).hexdigest()}

    @pytest.mark.parametrize("n", [64, 2**16])
    def test_series_owns_its_values(self, n):
        x = fgn(n, 0.75, 0)
        assert x.base is None
        assert x.nbytes == 8 * n

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
        gamma = fgn_autocovariance(h, 5)
        for lag in range(6):
            got = sample_autocov(x, lag)
            want = float(gamma[lag])
            # 3 standard errors of the lag-covariance estimator, conservatively.
            se = 3 * np.sqrt(2.0 / n) * max(1.0, abs(want))
            assert abs(got - want) < max(se, 0.02)

    @pytest.mark.parametrize("h", [0.05, 0.3, 0.5, 0.75, 0.95])
    def test_autocovariance_matches_decimal_reference(self, h):
        lags = sorted({0, 1, 2, 3, 63, 64, 65, 2**20}
                      | {int(v) for v in np.geomspace(2, 2**20, 42)})
        got = fgn_autocovariance(h, 2**20)[lags]
        want = np.array([decimal_autocovariance(h, k) for k in lags])
        np.testing.assert_allclose(got, want, rtol=2e-15, atol=0)

    @pytest.mark.parametrize("h", [0.05, 0.5, 0.95])
    def test_autocovariance_is_a_prefix_of_a_longer_one(self, h):
        # Lags 0, 1 by the formula, 2..63 by 30 terms, 64.. by 6, and the block edge.
        full = fgn_autocovariance(h, 2**16)
        assert full.shape == (2**16 + 1,) and full[0] == 1.0
        for m in (0, 1, 2, 63, 64, 65, 2**15 + 1, 2**15 + 2):
            assert fgn_autocovariance(h, m).tobytes() == full[: m + 1].tobytes(), m


class TestLinearTrend:
    def test_values(self):
        np.testing.assert_array_equal(linear_trend(3, 2, 1), [3, 5, 7])

    def test_zero_slope_constant(self):
        assert np.ptp(linear_trend(10, 0, 4.5)) == 0

    def test_local_trend_recovers_coefficients(self):
        _, kc, kc_ss, k_mean = _window_basis(50)
        a, b = _line_fit(kc, kc_ss, k_mean, linear_trend(50, -0.25, 3.0)[None, :])
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


@pytest.mark.parametrize("call, message", [
    (lambda: white_noise(1, 0), "length must be >= 2"),
    (lambda: linear_trend(1, 1.0, 0.0), "length must be >= 2"),
    (lambda: power_law_ranks(1, 1.0, 0.0, 0), "length must be >= 2"),
    (lambda: power_law_ranks(100, 0.0, 0.0, 0), "beta must be > 0"),
    (lambda: power_law_ranks(100, 1.0, -1.0, 0), "noise must be >= 0"),
], ids=["white_noise_length", "linear_trend_length", "power_length", "power_beta",
        "power_noise"])
def test_generator_argument_named(call, message):
    with pytest.raises(SynthError, match=message):
        call()


class TestSeriesCsv:
    def test_roundtrip(self, tmp_path):
        x = white_noise(100, 2)
        write_table(tmp_path / "series.csv", write_series_csv(x))
        back = read_series_csv(tmp_path / "series.csv")
        np.testing.assert_allclose(back, x, rtol=1e-11)

    def test_header_optional(self, tmp_path):
        (tmp_path / "series.csv").write_text("1.5\n2.5\n")
        np.testing.assert_array_equal(read_series_csv(tmp_path / "series.csv"), [1.5, 2.5])

    def test_empty_rejected(self, tmp_path):
        (tmp_path / "series.csv").write_text("value\n")
        with pytest.raises(TableError):
            read_series_csv(tmp_path / "series.csv")
