import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_simulate_gbm
from marketreg.errors import MarketRegError, NonFinitePrice, PathRejectionLimit, VolumeOverflow
from marketreg.estimators import (
    analyze_index,
    daily_fluctuations,
    fit_daily_growth,
    fluctuation_moments,
    fit_volume_growth,
)
from marketreg.series import monthly_aggregates
from marketreg.simulate import (
    GbmParams,
    VolatilitySchedule,
    _ndtri,
    simulate_gbm,
    simulate_volume,
    synthetic_days,
    wiener_increments,
)

WIENER_SEED = 20190419  # pinned; all statistical bounds below verified to hold
GBM_SEED = 20190421
DECAY_SEED = 20190422
NDTRI_SEED = 20190423


class TestWienerIncrements:
    def test_same_seed_is_bit_identical(self):
        a = wiener_increments(1000, dt=1.0, seed=7)
        b = wiener_increments(1000, dt=1.0, seed=7)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            wiener_increments(100, seed=1), wiener_increments(100, seed=2)
        )

    def test_moments_at_unit_dt(self):
        dw = wiener_increments(100_000, dt=1.0, seed=WIENER_SEED)
        assert abs(dw.mean()) < 3 / math.sqrt(100_000)
        assert abs(dw.std() - 1.0) <= 0.01

    def test_sqrt_dt_scaling(self):
        dw = wiener_increments(100_000, dt=4.0, seed=WIENER_SEED + 1)
        assert abs(dw.std() - 2.0) <= 0.02

    def test_lag1_independence(self):
        dw = wiener_increments(100_000, dt=1.0, seed=WIENER_SEED)
        lag1 = float(np.corrcoef(dw[:-1], dw[1:])[0, 1])
        assert abs(lag1) < 3 / math.sqrt(100_000)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            wiener_increments(0, dt=1.0, seed=0)
        with pytest.raises(ValueError):
            wiener_increments(10, dt=0.0, seed=0)

    @given(st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=25)
    def test_determinism_over_seeds(self, seed):
        assert np.array_equal(
            wiener_increments(64, seed=seed), wiener_increments(64, seed=seed)
        )


def assert_same_bits_as_scipy(u: np.ndarray) -> None:
    ndtri = pytest.importorskip("scipy.special").ndtri
    port, reference = _ndtri(u), ndtri(u)
    differ = np.flatnonzero(port.view(np.int64) != reference.view(np.int64))
    assert differ.size == 0, f"{differ.size} of {u.size} differ, first at u = {u[differ[0]]!r}"


class TestNdtriPort:
    """The numpy port of Cephes ndtri returns the bits of scipy.special.ndtri."""

    def test_pinned_53_bit_uniforms(self):
        u = np.maximum(np.random.default_rng(NDTRI_SEED).random(1_000_000), 2.0**-54)
        assert_same_bits_as_scipy(u)

    def test_powers_of_two_reach_both_far_tails(self):
        lower = np.ldexp(1.0, -np.arange(1, 1075))  # down to the smallest subnormal
        upper = 1.0 - np.ldexp(1.0, -np.arange(1, 54))
        # The third approximation takes over below exp(-32), on either side.
        far = math.exp(-32)
        assert lower.min() < far and 1.0 - upper.max() < far
        assert_same_bits_as_scipy(np.concatenate([lower, upper]))

    def test_clamp_and_branch_edges(self):
        u = [2.0**-54]
        for edge in (math.exp(-2), 1.0 - math.exp(-2)):
            u += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
        assert_same_bits_as_scipy(np.array(u))


class TestGbmParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GbmParams(a=0.0, b=0.01, s0=0.0, n_days=10, seed=1)
        with pytest.raises(ValueError):
            GbmParams(a=0.0, b=-0.01, s0=1.0, n_days=10, seed=1)
        with pytest.raises(ValueError):
            GbmParams(a=0.0, b=0.01, s0=1.0, n_days=0, seed=1)
        with pytest.raises(ValueError):
            GbmParams(a=0.0, b=0.01, s0=1.0, n_days=10, seed=1, dt=0.0)

    @pytest.mark.parametrize("field", ["a", "b", "s0", "dt"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_is_named(self, field, value):
        kwargs = dict(a=0.0, b=0.01, s0=1.0, n_days=10, seed=1, dt=1.0)
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            GbmParams(**{**kwargs, field: value})


class TestVolatilitySchedule:
    def test_constant_levels(self):
        sched = VolatilitySchedule.constant(0.02)
        assert np.all(sched.levels(5) == 0.02)

    def test_decay_endpoints(self):
        sched = VolatilitySchedule.linear_decay(0.02, 0.005)
        levels = sched.levels(240)
        assert levels[0] == pytest.approx(0.02)
        assert levels[-1] == pytest.approx(0.005)
        assert np.all(np.diff(levels) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            VolatilitySchedule("banana", 0.1)
        with pytest.raises(ValueError):
            VolatilitySchedule.linear_decay(0.005, 0.02)
        with pytest.raises(ValueError):
            VolatilitySchedule.linear_decay(0.02, -0.001)

    @pytest.mark.parametrize("field", ["b_start", "b_end"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_level_is_named(self, field, value):
        levels = {"b_start": 0.02, "b_end": 0.005, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            VolatilitySchedule("linear-decay", **levels)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_constant_level_is_refused(self, value):
        with pytest.raises(ValueError, match="^b_start must be finite$"):
            VolatilitySchedule.constant(value)


class TestSyntheticCalendar:
    def test_21_days_per_month_from_epoch(self):
        dates = synthetic_days(43).tolist()
        assert dates[0] == date(2000, 1, 1)
        assert dates[20] == date(2000, 1, 21)
        assert dates[21] == date(2000, 2, 1)
        assert dates[42] == date(2000, 3, 1)
        assert all(d1 < d2 for d1, d2 in zip(dates, dates[1:]))

    def test_year_rollover(self):
        dates = synthetic_days(21 * 12 + 1).tolist()
        assert dates[-1] == date(2001, 1, 1)


class TestSimulateGbm:
    def test_zero_volatility_is_compound_growth(self):
        params = GbmParams(a=5e-4, b=0.0, s0=1000.0, n_days=500, seed=1)
        series = simulate_gbm(params)
        closes = series.close
        expected = 1000.0 * (1.0 + 5e-4) ** np.arange(500)
        assert np.allclose(closes, expected, rtol=1e-10)
        # the estimator sees ln(1 + a*dt) per day
        a_hat, _ = fit_daily_growth(series)
        assert a_hat == pytest.approx(100 * math.log(1.0 + 5e-4), abs=1e-9)

    def test_zero_drift_zero_volatility_is_constant(self):
        series = simulate_gbm(GbmParams(a=0.0, b=0.0, s0=42.0, n_days=50, seed=1))
        assert np.all(series.close == 42.0)

    def test_single_day_path(self):
        series = simulate_gbm(GbmParams(a=1e-3, b=0.01, s0=5.0, n_days=1, seed=1))
        assert len(series) == 1
        assert series.close[0] == 5.0

    def test_fluctuation_moments_match_generating_params(self):
        # E[delta] = 100*a*dt and sd[delta] = 100*b*sqrt(dt) by construction.
        series = simulate_gbm(GbmParams(a=5e-4, b=0.015, s0=1000.0, n_days=5000, seed=100))
        mu, sigma = fluctuation_moments(daily_fluctuations(series))
        assert abs(mu - 0.05) <= 3 * 1.5 / math.sqrt(5000)
        assert abs(sigma - 1.5) <= 0.03 * 1.5

    def test_determinism(self):
        params = GbmParams(a=3e-4, b=0.02, s0=100.0, n_days=300, seed=77)
        sched = VolatilitySchedule.linear_decay(0.02, 0.001)
        s1 = simulate_gbm(params, sched)
        s2 = simulate_gbm(params, sched)
        assert s1 == s2

    def test_positivity_under_heavy_noise(self):
        # b = 0.9 rejects roughly one step in eight, so redraws are exercised.
        series = simulate_gbm(GbmParams(a=0.0, b=0.9, s0=1.0, n_days=2000, seed=5))
        assert np.all(series.close > 0)

    def test_rejection_limit(self):
        with pytest.raises(PathRejectionLimit):
            simulate_gbm(GbmParams(a=-1.5, b=0.0, s0=1.0, n_days=3, seed=1))

    def test_price_past_float64_raises_at_its_day(self):
        # 1.01**70640 * 1000 passes 1.8e308 on day 70640 of this path.
        with pytest.raises(NonFinitePrice, match="day 70640 is inf"):
            simulate_gbm(GbmParams(a=0.01, b=0.001, s0=1000.0, n_days=80_000, seed=1))

    def test_dates_follow_synthetic_calendar(self):
        series = simulate_gbm(GbmParams(a=0.0, b=0.01, s0=1.0, n_days=50, seed=3))
        assert [r.date for r in series.records] == synthetic_days(50).tolist()


def _gbm_closes(params, schedule):
    return simulate_gbm(params, schedule).close


def _closes_or_error(simulate, params, schedule):
    """The close bytes, or the type and message of the error raised instead."""
    try:
        return simulate(params, schedule).tobytes()
    except MarketRegError as error:
        return type(error), str(error)


# (a, b, s0, n_days, seed, dt, decay_to, what the path ends in)
STEP_LOOP_GRID = [
    *[
        (3e-4, 0.012, 1000.0, n_days, 11, dt, decay_to, "closes")
        for n_days in (1, 2, 5500)
        for dt in (1.0, 0.5)
        for decay_to in (None, 0.004)
    ],
    pytest.param(0.0, 0.9, 1.0, 2000, 5, 1.0, None, "closes", id="redraws-from-step-4"),
    pytest.param(3e-4, 0.3, 1000.0, 5500, 14, 1.0, None, "closes", id="first-redraw-at-step-4901"),
    pytest.param(-0.5, 0.0, 5e-324, 10, 1, 1.0, None, "redraws at step 0",
                 id="underflow-to-zero-at-step-0"),
    pytest.param(0.01, 0.001, 1000.0, 80_000, 1, 1.0, None, "day 70640 is inf",
                 id="overflow-at-day-70640"),
    pytest.param(-1.5, 0.0, 1.0, 3, 1, 1.0, None, "redraws at step 0", id="rejection-limit"),
]


class TestStepLoopReference:
    """simulate_gbm's cumulative product against the one-step-at-a-time loop:
    the same close bytes, or the same error type and message."""

    @pytest.mark.parametrize("a, b, s0, n_days, seed, dt, decay_to, ends_in", STEP_LOOP_GRID)
    def test_pinned_grid_matches_the_step_loop(self, a, b, s0, n_days, seed, dt, decay_to, ends_in):
        params = GbmParams(a=a, b=b, s0=s0, n_days=n_days, seed=seed, dt=dt)
        schedule = None if decay_to is None else VolatilitySchedule.linear_decay(b, decay_to)
        expected = _closes_or_error(reference_simulate_gbm, params, schedule)
        got = _closes_or_error(_gbm_closes, params, schedule)
        assert got == expected
        assert isinstance(got, bytes) if ends_in == "closes" else ends_in in got[1]

    @pytest.mark.parametrize("a, b, n_days, seed, first", [
        (0.0, 0.9, 2000, 5, 4),
        (3e-4, 0.3, 5500, 14, 4901),
    ])
    def test_grid_redraws_start_where_its_ids_say(self, a, b, n_days, seed, first):
        factors = 1.0 + a + b * wiener_increments(n_days - 1, 1.0, seed)
        assert np.flatnonzero(factors <= 0)[0] == first

    @given(
        a=st.floats(-0.6, 0.6),
        b=st.floats(0.0, 1.5),
        s0=st.floats(1e-300, 1e300),
        n_days=st.integers(1, 400),
        seed=st.integers(0, 2**32),
        dt=st.sampled_from([1.0, 0.5]),
        decay=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_parameters_match_the_step_loop(self, a, b, s0, n_days, seed, dt, decay):
        params = GbmParams(a=a, b=b, s0=s0, n_days=n_days, seed=seed, dt=dt)
        schedule = VolatilitySchedule.linear_decay(b, b / 4) if decay else None
        expected = _closes_or_error(reference_simulate_gbm, params, schedule)
        assert _closes_or_error(_gbm_closes, params, schedule) == expected


class TestSimulateVolume:
    def test_noiseless_counts_are_rounded_exponential(self):
        vols = simulate_volume(4e-4, 1e6, 0.0, 100, seed=1)
        expected = np.rint(1e6 * np.exp(4e-4 * np.arange(100))).astype(np.int64)
        assert np.array_equal(vols, expected)

    def test_flat_parameters_give_constant_volume(self):
        vols = simulate_volume(0.0, 1e6, 0.0, 50, seed=1)
        assert np.all(vols == 1_000_000)

    def test_nonnegative_under_large_noise(self):
        vols = simulate_volume(0.0, 1.0, 3.0, 5000, seed=9)
        assert vols.min() >= 0

    def test_determinism(self):
        assert np.array_equal(
            simulate_volume(4e-4, 1e6, 0.2, 500, seed=11),
            simulate_volume(4e-4, 1e6, 0.2, 500, seed=11),
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_volume(0.0, 0.5, 0.0, 10, seed=1)
        with pytest.raises(ValueError):
            simulate_volume(0.0, 1e6, -0.1, 10, seed=1)
        with pytest.raises(ValueError):
            simulate_volume(0.0, 1e6, 0.0, 0, seed=1)

    @pytest.mark.parametrize("n0, noise_sd, message", [
        (math.nan, 0.0, "^n0 must be finite and >= 1$"),
        (math.inf, 0.0, "^n0 must be finite and >= 1$"),
        (1e6, math.nan, "^noise_sd must be finite and >= 0$"),
        (1e6, math.inf, "^noise_sd must be finite and >= 0$"),
    ], ids=["nan-n0", "inf-n0", "nan-noise_sd", "inf-noise_sd"])
    def test_non_finite_level_or_noise_is_refused(self, n0, noise_sd, message):
        with pytest.raises(ValueError, match=message):
            simulate_volume(4e-4, n0, noise_sd, 10, seed=1)

    def test_int64_overflow_raises_instead_of_wrapping(self):
        # 1e6*exp(4e-4*k) passes 2**63 near k = 74,600, where an unchecked
        # int64 cast wraps and a clamp at zero turns the counts into zeros.
        with pytest.raises(VolumeOverflow, match="day 74"):
            simulate_volume(4e-4, 1e6, 0.0, 100_000, seed=1)
        with pytest.raises(VolumeOverflow):
            simulate_volume(float("nan"), 1e6, 0.0, 10, seed=1)
        assert simulate_volume(4e-4, 1e6, 0.0, 74_000, seed=1).min() == 1_000_000

    def test_count_past_float64_raises_without_a_warning(self):
        # exp(nu*k) passes float64 at k = 710; under error::RuntimeWarning a
        # numpy overflow warning would surface before VolumeOverflow.
        with pytest.raises(VolumeOverflow, match="at day 30 "):
            simulate_volume(1.0, 1e6, 0.0, 1000, seed=1)
        with pytest.raises(VolumeOverflow, match="at day 0 "):
            simulate_volume(float("inf"), 1e6, 0.0, 10, seed=1)

    def test_noisy_recovery_within_three_stderr(self):
        vols = simulate_volume(4e-4, 1e6, 0.2, 5000, seed=WIENER_SEED + 6)
        series = simulate_gbm(
            GbmParams(a=3e-4, b=0.01, s0=1000.0, n_days=5000, seed=1)
        ).with_volumes(vols)
        nu, fit = fit_volume_growth(series)
        assert abs(nu - 0.04) <= 3 * 100 * fit.stderr_slope


class TestEstimatorClosure:
    """The module's reason to exist: analyze_index must recover what simulate
    generated, at the statistical tolerances the path length supports."""

    def test_constant_volatility_closure(self):
        series = simulate_gbm(GbmParams(a=3e-4, b=0.012, s0=1000.0, n_days=5500, seed=GBM_SEED))
        rep = analyze_index(series)
        assert abs(rep.a - 0.03) <= 3 * 100 * rep.diagnostics["daily_growth"].stderr_slope
        assert abs(rep.sigma - 1.2) <= 0.05 * 1.2
        assert abs(rep.w) <= 3 * rep.diagnostics["variance_decline"].stderr_slope

    def test_declining_volatility_shows_negative_w(self):
        params = GbmParams(a=3e-4, b=0.02, s0=1000.0, n_days=240 * 21, seed=DECAY_SEED)
        series = simulate_gbm(params, VolatilitySchedule.linear_decay(0.02, 0.005))
        rep = analyze_index(series)
        stderr = rep.diagnostics["variance_decline"].stderr_slope
        assert rep.w < 0
        assert abs(rep.w) > 3 * stderr

    def test_monthly_dispersion_tracks_schedule(self):
        # Early months must be visibly more dispersed than late ones under decay.
        params = GbmParams(a=3e-4, b=0.02, s0=1000.0, n_days=240 * 21, seed=DECAY_SEED)
        series = simulate_gbm(params, VolatilitySchedule.linear_decay(0.02, 0.005))
        var_log = monthly_aggregates(series).var_log
        first_quarter = np.mean(var_log[:60])
        last_quarter = np.mean(var_log[-60:])
        assert first_quarter > 4 * last_quarter
