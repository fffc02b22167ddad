import math
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import exponential_series, ols_oracle, series_from_closes
from marketreg.benchmarks import INDEX_BENCHMARKS, benchmark_columns
from marketreg.errors import (
    DegenerateFit,
    DegenerateInput,
    DegenerateX,
    FluctuationOverflow,
    InsufficientData,
    NonFinitePrice,
    NonPositivePrice,
    NoVolumeData,
)
from marketreg.estimators import (
    FitResult,
    GaussianOffsetFit,
    Histogram,
    analyze_index,
    build_histogram,
    daily_fluctuations,
    detect_variance_spike,
    fit_daily_growth,
    fit_gaussian_offset,
    fit_monthly_growth,
    fit_variance_decline,
    fit_volume_growth,
    fluctuation_moments,
    linear_least_squares,
    pearson_correlation,
)
from marketreg.series import MonthlyTable, log_series, monthly_aggregates
from marketreg.simulate import (
    GbmParams,
    VolatilitySchedule,
    simulate_gbm,
    simulate_volume,
    wiener_increments,
)

GAUSS_PEAK = 1.0 / math.sqrt(2.0 * math.pi)  # standard normal density at 0


def monthly_table(taus, means, stds):
    """A MonthlyTable of 21-day months whose calendar key is the month index."""
    return MonthlyTable(taus, taus, means, stds, [21] * len(taus))


def aggregates_from_var(variances, means=None):
    means = means if means is not None else [0.0] * len(variances)
    stds = [math.sqrt(v) for v in variances]
    return monthly_table(list(range(len(variances))), means, stds)


def fit_pairs(points, through_origin=False):
    """``linear_least_squares`` over a list of (x, y) pairs."""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    return linear_least_squares(xs, ys, through_origin=through_origin)


class TestLinearLeastSquares:
    def test_exact_line(self):
        fit = fit_pairs([(0, 0), (1, 1), (2, 2)])
        assert fit.slope == pytest.approx(1.0, abs=1e-15)
        assert fit.intercept == pytest.approx(0.0, abs=1e-15)
        assert fit.r_squared == 1.0
        assert fit.stderr_slope == pytest.approx(0.0, abs=1e-12)

    def test_constant_y(self):
        fit = fit_pairs([(0, 1), (1, 1), (2, 1)])
        assert fit.slope == pytest.approx(0.0, abs=1e-15)
        assert fit.intercept == pytest.approx(1.0, abs=1e-15)

    def test_hand_solved_normal_equations(self):
        # Oracle by hand: n=3, Sx=3, Sxx=5, Sy=2, Sxy=3 gives slope
        # (9-6)/(15-9) = 1/2 and intercept (2 - 3/2)/3 = 1/6; residuals
        # (-1/6, 1/3, -1/6) give SSE = 1/6, SST = 2/3, so r2 = 3/4 and
        # stderr = sqrt((1/6)/1/2) = sqrt(1/12).
        fit = fit_pairs([(0, 0), (1, 1), (2, 1)])
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(1 / 6, abs=1e-12)
        assert fit.r_squared == pytest.approx(0.75, abs=1e-12)
        assert fit.stderr_slope == pytest.approx(math.sqrt(1 / 12), abs=1e-12)

    def test_degenerate_x(self):
        with pytest.raises(DegenerateX):
            fit_pairs([(1, 0), (1, 1)])

    def test_needs_two_points(self):
        with pytest.raises(InsufficientData):
            fit_pairs([(0, 0)])

    def test_x_and_y_must_match(self):
        with pytest.raises(ValueError, match="equal length"):
            linear_least_squares([0.0, 1.0, 2.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="1-D"):
            linear_least_squares([[0.0, 1.0]], [[0.0, 1.0]])

    def test_through_origin(self):
        fit = fit_pairs([(1, 2), (2, 4), (3, 6)], through_origin=True)
        assert fit.slope == pytest.approx(2.0, abs=1e-15)
        assert fit.intercept == 0.0
        assert fit.r_squared == 1.0

    def test_two_points_have_zero_stderr(self):
        fit = fit_pairs([(0, 1), (1, 3)])
        assert fit.stderr_slope == 0.0

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-9, max_value=9),
                st.integers(min_value=-9, max_value=9),
            ),
            min_size=2,
            max_size=5,
        )
    )
    def test_matches_exact_rational_oracle(self, points):
        oracle = ols_oracle(points)
        if oracle is None:
            with pytest.raises(DegenerateX):
                fit_pairs(points)
            return
        slope, intercept, r2, stderr = oracle
        fit = fit_pairs(points)
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.intercept == pytest.approx(intercept, abs=1e-9)
        assert fit.r_squared == pytest.approx(r2, abs=1e-9)
        if fit.n > 2:
            assert fit.stderr_slope == pytest.approx(stderr, abs=1e-9)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10000),
                st.integers(min_value=-1000, max_value=1000),
            ),
            min_size=2,
            max_size=12,
            unique_by=lambda p: p[0],
        ),
        st.integers(min_value=-10**6, max_value=10**6),
    )
    def test_slope_invariant_under_time_shift(self, points, shift):
        # Re-indexing t from any origin must not move the slope.
        base = fit_pairs(points)
        shifted = fit_pairs([(x + shift, y) for x, y in points])
        assert shifted.slope == pytest.approx(base.slope, rel=1e-9, abs=1e-9)

    def test_fit_result_invariants(self):
        with pytest.raises(ValueError):
            FitResult(1.0, 0.0, 0.0, 1.5, 3)
        with pytest.raises(ValueError):
            FitResult(1.0, 0.0, -0.1, 0.5, 3)
        with pytest.raises(ValueError):
            FitResult(1.0, 0.0, 0.0, 0.5, 1)


class TestDailyGrowth:
    def test_noiseless_exponential_is_exact(self):
        series = exponential_series(5e-4, 1000)
        a, fit = fit_daily_growth(series)
        assert a == pytest.approx(0.05, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_gbm_recovery_within_three_stderr(self):
        series = simulate_gbm(GbmParams(a=3e-4, b=0.01, s0=1000.0, n_days=5000, seed=285))
        a, fit = fit_daily_growth(series)
        assert abs(a - 0.03) <= 3 * 100 * fit.stderr_slope

    def test_nonpositive_close_rejected(self):
        with pytest.raises(NonPositivePrice):
            fit_daily_growth(series_from_closes([1.0, -1.0, 2.0]))


class TestNonFiniteCloses:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize(
        "step", [analyze_index, fit_daily_growth, daily_fluctuations, monthly_aggregates, log_series]
    )
    def test_rejected_with_a_named_error(self, step, bad):
        # Infinite and NaN closes are NonFinitePrice, zero and negative ones
        # NonPositivePrice; either way the message names the day.
        closes = [100.0 * 1.001**k for k in range(63)]
        closes[30] = bad
        error = NonFinitePrice if not math.isfinite(bad) else NonPositivePrice
        with pytest.raises(error, match=rf"close at t=30 \(2019-02-10\) is {bad}"):
            step(series_from_closes(closes))


class TestFluctuations:
    def test_one_percent_step(self):
        fluct = daily_fluctuations(series_from_closes([100.0, 101.0]))
        assert fluct.tolist() == [1.0]

    def test_constant_series(self):
        fluct = daily_fluctuations(series_from_closes([5.0] * 10))
        assert all(v == 0.0 for v in fluct)

    def test_hand_computed_values(self):
        fluct = daily_fluctuations(series_from_closes([100.0, 150.0, 75.0]))
        assert fluct.tolist() == [50.0, -50.0]

    def test_length_one_short_of_source(self):
        series = series_from_closes(range(1, 30))
        assert len(daily_fluctuations(series)) == len(series) - 1

    def test_nonpositive_divisor_rejected(self):
        with pytest.raises(NonPositivePrice):
            daily_fluctuations(series_from_closes([-1.0, 1.0]))

    def test_needs_two_records(self):
        with pytest.raises(InsufficientData):
            daily_fluctuations(series_from_closes([100.0]))

    def test_overflow_is_named_without_a_warning(self):
        closes = [100.0 * 1.001**k for k in range(63)]
        closes[40:42] = [1e-300, 1e300]
        days = r"t=40 \(2019-02-20\) is 1e-300, close at t=41 \(2019-02-21\) is 1e\+300"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FluctuationOverflow, match=days):
                analyze_index(series_from_closes(closes))


class TestMoments:
    def test_symmetric_triple(self):
        mu, sigma = fluctuation_moments(np.array([-1.0, 0.0, 1.0]))
        assert mu == pytest.approx(0.0, abs=1e-15)
        assert sigma == pytest.approx(math.sqrt(2 / 3), abs=1e-12)

    def test_zeros(self):
        assert fluctuation_moments(np.array([0.0, 0.0, 0.0])) == (0.0, 0.0)

    def test_too_short(self):
        with pytest.raises(InsufficientData):
            fluctuation_moments(np.array([1.0]))

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=50,
        )
    )
    def test_moment_identity(self, values):
        # sigma^2 + mu^2 must equal the mean of delta^2; this is the
        # definition restated.
        mu, sigma = fluctuation_moments(np.array(values, dtype=float))
        mean_sq = float(np.mean(np.square(values)))
        assert sigma**2 + mu**2 == pytest.approx(mean_sq, rel=1e-12, abs=1e-12)

    def test_matches_stdlib_oracle(self):
        values = [0.3, -1.2, 2.5, 0.0, -0.7, 1.1]
        mu, sigma = fluctuation_moments(np.array(values, dtype=float))
        assert mu == pytest.approx(statistics.fmean(values), rel=1e-12)
        assert sigma == pytest.approx(statistics.pstdev(values), rel=1e-12)


class TestHistogram:
    def test_single_value(self):
        hist = build_histogram(np.array([0.05]), 0.1)
        assert sum(hist.counts) == 1
        assert np.count_nonzero(hist.counts) == 1

    def test_two_known_bins(self):
        hist = build_histogram(np.array([0.0, 0.0, 1.0]), 0.5)
        edges = np.asarray(hist.bin_edges)
        bin_of_zero = int(np.searchsorted(edges, 0.0, side="right")) - 1
        bin_of_one = int(np.searchsorted(edges, 1.0, side="right")) - 1
        assert hist.counts[bin_of_zero] == 2
        assert hist.counts[bin_of_one] == 1

    def test_center_bin_matches_gaussian_density(self):
        draws = wiener_increments(100_000, dt=1.0, seed=123)
        hist = build_histogram(draws, 0.1)
        edges = np.asarray(hist.bin_edges)
        center_bin = int(np.searchsorted(edges, 0.0, side="right")) - 1
        expected = 100_000 * 0.1 * GAUSS_PEAK
        assert abs(hist.counts[center_bin] - expected) <= 0.05 * expected

    def test_empty_rejected(self):
        with pytest.raises(InsufficientData):
            build_histogram(np.array([]), 0.1)
        with pytest.raises(ValueError):
            build_histogram(np.array([1.0]), 0.0)

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        st.floats(min_value=0.01, max_value=5.0),
    )
    @settings(max_examples=80)
    def test_counts_partition_every_value(self, values, width):
        hist = build_histogram(np.array(values, dtype=float), width)
        assert sum(hist.counts) == len(values)
        assert min(values) >= hist.bin_edges[0]
        assert max(values) < hist.bin_edges[-1]

    def test_type_invariants(self):
        with pytest.raises(ValueError):
            Histogram((0.0, 1.0, 1.5), (1, 1))  # non-uniform
        with pytest.raises(ValueError):
            Histogram((0.0, 1.0), (-1,))
        with pytest.raises(ValueError):
            Histogram((0.0, 1.0), (1, 2))


class TestGaussianOffsetFit:
    def manufactured(self, f0=100.0, step=0.5, half_span=3.0):
        edges = np.arange(-half_span - step / 2, half_span + step, step)
        centers = 0.5 * (edges[:-1] + edges[1:])
        counts = 1.0 + f0 * np.exp(-(centers**2) / 2.0)
        return Histogram(tuple(edges), tuple(counts))

    def test_exact_amplitude_recovery(self):
        fit = fit_gaussian_offset(self.manufactured(), mu=0.0, sigma=1.0)
        assert fit.f0 == pytest.approx(100.0, abs=1e-9)

    def test_far_tail_converges_to_unity(self):
        fit = fit_gaussian_offset(self.manufactured(), mu=0.0, sigma=1.0)
        for delta in (6.5, 8.0, 50.0, -50.0):
            value = float(fit.evaluate(delta))
            assert 1.0 <= value <= 1.0 + fit.f0 * math.exp(-18.0)

    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=8.0, max_value=100.0),
    )
    def test_model_asymptote_interval(self, f0, mu, sigma, k):
        # At |delta - mu| >= 8 sigma the model sits in [1, 1 + f0 e^-32].
        model = GaussianOffsetFit(mu, sigma, f0)
        for side in (-1.0, 1.0):
            value = float(model.evaluate(mu + side * k * sigma))
            assert 1.0 <= value <= 1.0 + f0 * math.exp(-32.0) + 1e-15

    def test_sampled_gaussian_amplitude(self):
        draws = wiener_increments(100_000, dt=1.0, seed=123)
        mu, sigma = fluctuation_moments(draws)
        fit = fit_gaussian_offset(build_histogram(draws, 0.1), mu, sigma)
        expected = 100_000 * 0.1 * GAUSS_PEAK
        assert abs(fit.f0 - expected) <= 0.10 * expected

    def test_zero_sigma_refused(self):
        with pytest.raises(DegenerateFit):
            fit_gaussian_offset(self.manufactured(), mu=0.0, sigma=0.0)

    def test_too_few_occupied_bins(self):
        hist = Histogram((0.0, 1.0, 2.0, 3.0), (5, 0, 5))
        with pytest.raises(InsufficientData):
            fit_gaussian_offset(hist, mu=0.0, sigma=1.0)

    def test_negative_amplitude_clamped(self):
        hist = Histogram((0.0, 1.0, 2.0, 3.0), (0.5, 0.5, 0.5))
        fit = fit_gaussian_offset(hist, mu=1.5, sigma=1.0)
        assert fit.f0 == 0.0

    def test_interior_zero_bins_enter_the_window(self):
        # Occupied range spans first..last nonzero, including gaps.
        edges = tuple(float(i) for i in range(7))
        hist = Histogram(edges, (0, 3, 0, 3, 3, 0))
        fit = fit_gaussian_offset(hist, mu=3.0, sigma=1.0)
        centers = np.array([1.5, 2.5, 3.5, 4.5])
        counts = np.array([3.0, 0.0, 3.0, 3.0])
        g = np.exp(-((centers - 3.0) ** 2) / 2.0)
        f0_oracle = float(g @ (counts - 1.0) / (g @ g))
        assert fit.f0 == pytest.approx(f0_oracle, rel=1e-12)


class TestMonthlyFits:
    def test_identity_line(self):
        taus = list(range(10))
        m, fit = fit_monthly_growth(monthly_table(taus, [float(t) for t in taus], [0.0] * 10))
        assert m == pytest.approx(1.0, abs=1e-12)

    def test_noiseless_exponential_identity(self):
        # With d trading days per month, m = (a/100) * d exactly.
        for d in (18, 21, 23):
            series = exponential_series(5e-4, d * 24, days_per_month=d)
            report = analyze_index(series)
            assert report.m == pytest.approx((report.a / 100.0) * d, abs=1e-12)

    def test_needs_two_aggregates(self):
        with pytest.raises(InsufficientData):
            fit_monthly_growth(monthly_table([0], [1.0], [0.0]))

    def test_variance_decline_exact_line(self):
        variances = [0.01 - 1e-6 * t for t in range(200)]
        w, fit = fit_variance_decline(aggregates_from_var(variances))
        assert w == pytest.approx(-1e-6, abs=1e-12)
        assert fit.intercept == pytest.approx(0.01, abs=1e-9)

    def test_variance_decline_origin_mode(self):
        variances = [5e-4 * t for t in range(1, 100)]
        stds = [math.sqrt(v) for v in variances]
        aggs = monthly_table(list(range(1, 100)), [0.0] * 99, stds)
        w, fit = fit_variance_decline(aggs, mode="origin")
        assert w == pytest.approx(5e-4, rel=1e-9)
        assert fit.intercept == 0.0

    def test_variance_mode_validated(self):
        with pytest.raises(ValueError):
            fit_variance_decline(aggregates_from_var([0.1, 0.2]), mode="bogus")

    def test_constant_volatility_gbm_has_flat_variance(self):
        series = simulate_gbm(GbmParams(a=3e-4, b=0.012, s0=1000.0, n_days=5500, seed=251))
        w, fit = fit_variance_decline(monthly_aggregates(series))
        assert abs(w) <= 3 * fit.stderr_slope


class TestVarianceSpike:
    def test_spike_location_and_value(self):
        tau, value = detect_variance_spike(aggregates_from_var([1.0, 5.0, 2.0]))
        assert tau == 1
        assert value == pytest.approx(5.0, rel=1e-12)

    def test_tie_breaks_earliest(self):
        tau, value = detect_variance_spike(aggregates_from_var([2.0, 2.0, 2.0]))
        assert tau == 0

    def test_empty_rejected(self):
        with pytest.raises(InsufficientData):
            detect_variance_spike(aggregates_from_var([]))


class TestVolumeGrowth:
    def test_noiseless_exponential(self):
        n = 2000
        volumes = [round(1e6 * math.exp(4e-4 * k)) for k in range(n)]
        series = series_from_closes([100.0] * n, volumes=volumes)
        nu, fit = fit_volume_growth(series)
        assert nu == pytest.approx(0.04, abs=1e-9)

    def test_no_volume_column(self):
        with pytest.raises(NoVolumeData):
            fit_volume_growth(series_from_closes([1.0, 2.0, 3.0]))

    def test_one_usable_volume_is_not_enough(self):
        series = series_from_closes([1.0, 2.0, 3.0], volumes=[5, None, None])
        with pytest.raises(NoVolumeData):
            fit_volume_growth(series)

    def test_zero_volumes_excluded_from_fit(self):
        volumes = [1000, 0, 1000, 1000]
        series = series_from_closes([1.0] * 4, volumes=volumes)
        nu, fit = fit_volume_growth(series)
        assert fit.n == 3
        assert nu == pytest.approx(0.0, abs=1e-12)


class TestPearson:
    def test_benchmark_columns(self):
        a = benchmark_columns("a")
        m = benchmark_columns("m")
        assert pearson_correlation(a, m) == pytest.approx(0.987, abs=0.002)

    def test_perfect_correlation(self):
        xs = [1.0, 2.0, 5.0]
        assert pearson_correlation(xs, xs) == 1.0
        assert pearson_correlation(xs, [-x for x in xs]) == -1.0

    def test_constant_vector_rejected(self):
        with pytest.raises(DegenerateInput):
            pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DegenerateInput):
            pearson_correlation([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_short_input_rejected(self):
        with pytest.raises(InsufficientData):
            pearson_correlation([1.0], [2.0])

    @given(
        st.lists(st.integers(min_value=-100, max_value=100), min_size=3, max_size=20),
        st.lists(st.integers(min_value=-100, max_value=100), min_size=3, max_size=20),
    )
    def test_matches_stdlib_and_bounds(self, xs, ys):
        n = min(len(xs), len(ys))
        xs, ys = [float(v) for v in xs[:n]], [float(v) for v in ys[:n]]
        assume(len(set(xs)) > 1 and len(set(ys)) > 1)
        r = pearson_correlation(xs, ys)
        assert -1.0 <= r <= 1.0
        assert r == pytest.approx(statistics.correlation(xs, ys), rel=1e-9, abs=1e-9)

    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=3, max_size=15),
        st.lists(st.integers(min_value=-50, max_value=50), min_size=3, max_size=15),
        st.floats(min_value=-100, max_value=100).filter(lambda a: abs(a) > 1e-6),
        st.floats(min_value=-100, max_value=100),
    )
    def test_affine_equivariance(self, xs, ys, alpha, beta):
        n = min(len(xs), len(ys))
        xs, ys = [float(v) for v in xs[:n]], [float(v) for v in ys[:n]]
        assume(len(set(xs)) > 1 and len(set(ys)) > 1)
        r = pearson_correlation(xs, ys)
        r_affine = pearson_correlation([alpha * x + beta for x in xs], ys)
        assert r_affine == pytest.approx(math.copysign(1.0, alpha) * r, abs=1e-9)


class TestAnalyzeIndex:
    def test_noiseless_exponential_report(self):
        report = analyze_index(exponential_series(5e-4, 21 * 48))
        assert report.a == pytest.approx(0.05, abs=1e-9)
        # constant delta: mean is the one-day percent step, dispersion vanishes
        assert report.mu == pytest.approx(100 * (math.exp(5e-4) - 1), abs=1e-9)
        assert report.sigma <= 1e-9
        assert report.m == pytest.approx(0.0105, abs=1e-9)
        assert report.w == pytest.approx(0.0, abs=1e-12)
        assert report.nu is None and "nu" in report.errors
        # sigma ~ 0 leaves every fluctuation in too few bins for the amplitude
        assert report.f0 is None and "f0" in report.errors

    def test_full_recovery_on_pinned_gbm(self):
        # Every estimated parameter within 3 standard errors of the value
        # that generated the path (the simulator is the oracle here).
        a_true, b_true = 3e-4, 0.012
        series = simulate_gbm(GbmParams(a=a_true, b=b_true, s0=1000.0, n_days=5500, seed=251))
        rep = analyze_index(series)
        assert abs(rep.a - 100 * a_true) <= 3 * 100 * rep.diagnostics["daily_growth"].stderr_slope
        assert abs(rep.mu - 100 * a_true) <= 3 * rep.sigma / math.sqrt(5499)
        assert abs(rep.sigma - 100 * b_true) <= 0.05 * 100 * b_true
        assert abs(rep.m - a_true * 21) <= 3 * rep.diagnostics["monthly_growth"].stderr_slope
        assert abs(rep.w) <= 3 * rep.diagnostics["variance_decline"].stderr_slope
        assert rep.f0 is not None and rep.f0 > 0
        assert rep.b_hat == pytest.approx(b_true, rel=0.05)

    def test_volume_round_trip_through_report(self):
        series = simulate_gbm(GbmParams(a=3e-4, b=0.01, s0=1000.0, n_days=2100, seed=9))
        series = series.with_volumes(simulate_volume(4e-4, 1e6, 0.0, 2100, 10))
        rep = analyze_index(series)
        assert rep.nu == pytest.approx(0.04, abs=1e-6)
        assert "volume_growth" in rep.diagnostics

    def test_spike_month_reported(self):
        series = simulate_gbm(GbmParams(a=3e-4, b=0.012, s0=1000.0, n_days=5500, seed=251))
        rep = analyze_index(series)
        assert rep.spike_tau is not None
        assert rep.spike_month is not None
        assert rep.spike_value == pytest.approx(
            max(monthly_aggregates(series).var_log), rel=1e-12
        )

    def test_intermediates_are_read_only(self):
        series = simulate_gbm(GbmParams(a=3e-4, b=0.01, s0=1000.0, n_days=2100, seed=9))
        rep = analyze_index(series.with_volumes(simulate_volume(4e-4, 1e6, 0.1, 2100, 10)))
        monthly = rep.monthly
        columns = [rep.ln_close, rep.fluctuations, rep.volume_t, rep.ln_volume,
                   rep.histogram.bin_edges, rep.histogram.counts, monthly.tau, monthly.month,
                   monthly.mean_log, monthly.std_log, monthly.var_log, monthly.n_days]
        assert all(len(column) > 0 for column in columns)
        for column in columns:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[-1]

    def test_monthly_variance_is_python_pow_of_std(self):
        # float(s) ** 2 calls libm pow; numpy's s**2 and s*s multiply, which
        # rounds differently in the last bit for about 1 value in 1,000.
        # var_log must keep the pow value the plot files have always shown.
        series = simulate_gbm(GbmParams(a=3e-4, b=0.012, s0=1000.0, n_days=100_000, seed=5))
        table = monthly_aggregates(series)
        expected = np.array([s**2 for s in table.std_log.tolist()])
        assert np.any(table.std_log**2 != expected)  # the path tells the two apart
        assert table.var_log.tolist() == expected.tolist()

    def test_insufficient_months_raises(self):
        with pytest.raises(InsufficientData):
            analyze_index(series_from_closes([100.0 + k for k in range(30)]))

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance_of_all_slopes(self, c):
        base = simulate_gbm(
            GbmParams(a=3e-4, b=0.02, s0=1000.0, n_days=1260, seed=17),
            schedule=VolatilitySchedule.linear_decay(0.02, 0.005),
        )
        scaled = series_from_closes(base.close * c, days_per_month=21)
        r1, r2 = analyze_index(base), analyze_index(scaled)
        assert r2.a == pytest.approx(r1.a, rel=1e-10, abs=1e-12)
        assert r2.mu == pytest.approx(r1.mu, rel=1e-10, abs=1e-12)
        assert r2.sigma == pytest.approx(r1.sigma, rel=1e-10, abs=1e-12)
        assert r2.m == pytest.approx(r1.m, rel=1e-10, abs=1e-14)
        assert r2.w == pytest.approx(r1.w, rel=1e-10, abs=1e-16)

    def test_benchmark_self_similarity_ratio_span(self):
        # The m/(a/100) ratio is the implied trading days per month; on the
        # published six-index table it sits at 20 for four rows, 22.5 for
        # one, and 30 for the coarsely printed Nikkei row.
        ratios = [
            row["m"] / (row["a"] / 100.0) for row in INDEX_BENCHMARKS.values()
        ]
        assert sorted(set(round(r, 1) for r in ratios)) == [20.0, 22.5, 30.0]
