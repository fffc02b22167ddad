import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import month_dates, monthly_oracle, series_from_closes
from marketreg.errors import InsufficientData, NonPositivePrice
from marketreg.ingest import parse_daily_file
from marketreg.series import (
    DailyRecord,
    DailySeries,
    FluctuationSeries,
    MonthlyAggregate,
    log_series,
    monthly_aggregates,
)
from marketreg.simulate import GbmParams, simulate_gbm

LN_1000 = 6.907755278982137  # hand value of ln(1000)


class TestTypes:
    def test_record_rejects_negative_volume(self):
        with pytest.raises(ValueError):
            DailyRecord(date(2019, 1, 1), 100.0, -1)

    def test_record_allows_zero_volume(self):
        assert DailyRecord(date(2019, 1, 1), 100.0, 0).volume == 0

    def test_series_requires_increasing_dates(self):
        recs = (
            DailyRecord(date(2019, 1, 2), 100.0),
            DailyRecord(date(2019, 1, 1), 101.0),
        )
        with pytest.raises(ValueError):
            DailySeries(recs)

    def test_series_rejects_duplicate_dates(self):
        recs = (
            DailyRecord(date(2019, 1, 1), 100.0),
            DailyRecord(date(2019, 1, 1), 101.0),
        )
        with pytest.raises(ValueError):
            DailySeries(recs)

    def test_series_rejects_empty(self):
        with pytest.raises(ValueError):
            DailySeries(())

    def test_t_origin_is_first_date(self):
        s = series_from_closes([1.0, 2.0, 3.0])
        assert s.t_origin == s.records[0].date

    def test_columns_are_read_only_arrays(self):
        s = series_from_closes([1.0, 2.0, 3.0], volumes=[5, None, 7])
        assert s.dates.dtype == np.dtype("datetime64[D]")
        assert s.close.dtype == np.float64 and s.volume.dtype == np.int64
        assert s.volume_mask.tolist() == [True, False, True]
        assert s.volume.tolist() == [5, 0, 7]
        for column in (s.dates, s.close, s.volume, s.volume_mask):
            with pytest.raises(ValueError):
                column[0] = column[1]

    def test_from_columns_equals_records_constructor(self):
        s = series_from_closes([1.0, 2.0, 3.0], name="x", volumes=[5, None, 7])
        again = DailySeries.from_columns(s.dates, s.close, [5, None, 7], "x")
        assert again == s
        assert again.records == s.records
        assert DailySeries(s.records, "y") != s

    def test_order_error_names_both_dates(self):
        with pytest.raises(ValueError, match="2019-01-01 follows 2019-01-02"):
            DailySeries.from_columns(
                np.array(["2019-01-02", "2019-01-01"], dtype="datetime64[D]"), [1.0, 2.0]
            )

    def test_fluctuations_must_be_finite(self):
        with pytest.raises(ValueError):
            FluctuationSeries((1.0, float("nan")))

    def test_aggregate_invariants(self):
        with pytest.raises(ValueError):
            MonthlyAggregate(0, 1.0, -0.1, 21)
        with pytest.raises(ValueError):
            MonthlyAggregate(0, 1.0, 0.1, 0)

    def test_with_volumes_roundtrip(self):
        s = series_from_closes([1.0, 2.0, 3.0])
        s2 = s.with_volumes([10, None, 30])
        assert s2.volumes() == [10, None, 30]
        assert s2.closes().tolist() == s.closes().tolist()
        with pytest.raises(ValueError):
            s.with_volumes([1, 2])


class TestLogSeries:
    def test_exact_exponential(self):
        s = series_from_closes([1.0, math.e, math.e**2])
        pts = log_series(s)
        assert [p[0] for p in pts] == [0, 1, 2]
        assert np.allclose([p[1] for p in pts], [0.0, 1.0, 2.0], atol=1e-15)

    def test_constant_1000(self):
        s = series_from_closes([1000.0] * 3)
        for _, v in log_series(s):
            assert abs(v - LN_1000) < 1e-12

    def test_nonpositive_price_raises(self):
        s = series_from_closes([1.0, -1.0])
        with pytest.raises(NonPositivePrice):
            log_series(s)
        with pytest.raises(NonPositivePrice):
            log_series(series_from_closes([1.0, 0.0]))

    def test_length_preserved(self):
        s = series_from_closes(range(1, 100))
        assert len(log_series(s)) == len(s)

    @given(
        st.lists(
            st.floats(min_value=1e-9, max_value=1e9, allow_nan=False),
            min_size=2,
            max_size=40,
        )
    )
    def test_monotone_preserving(self, closes):
        s = series_from_closes(closes)
        logs = [v for _, v in log_series(s)]
        for i in range(len(closes)):
            for j in range(len(closes)):
                a, b = closes[i], closes[j]
                if a == b:
                    assert logs[i] == logs[j]
                elif abs(a - b) / max(a, b) > 1e-9:
                    assert (a < b) == (logs[i] < logs[j])


class TestMonthlyAggregates:
    def test_single_constant_month(self):
        s = series_from_closes([100.0] * 15)
        aggs = monthly_aggregates(s)
        assert len(aggs) == 1
        agg = aggs[0]
        assert agg.tau == 0
        assert abs(agg.mean_log - math.log(100.0)) < 1e-12
        assert agg.std_log == 0.0
        assert agg.n_days == 15

    def test_two_piecewise_constant_months(self):
        closes = [math.e] * 21 + [math.e**2] * 21
        aggs = monthly_aggregates(series_from_closes(closes))
        assert [(a.tau, a.n_days) for a in aggs] == [(0, 21), (1, 21)]
        assert abs(aggs[0].mean_log - 1.0) < 1e-12
        assert abs(aggs[1].mean_log - 2.0) < 1e-12
        assert aggs[0].std_log < 1e-15 and aggs[1].std_log < 1e-15

    def test_partial_month_dropped(self):
        closes = [100.0] * 26  # 21-day month plus a 5-day stub
        aggs = monthly_aggregates(series_from_closes(closes))
        assert len(aggs) == 1
        assert aggs[0].n_days == 21

    def test_no_qualifying_month(self):
        with pytest.raises(InsufficientData):
            monthly_aggregates(series_from_closes([100.0] * 9))

    def test_too_short(self):
        with pytest.raises(InsufficientData):
            monthly_aggregates(series_from_closes([100.0]))

    def test_min_days_parameter(self):
        aggs = monthly_aggregates(series_from_closes([100.0] * 26), min_days=5)
        assert [a.n_days for a in aggs] == [21, 5]

    def test_against_bruteforce_oracle_on_gbm(self):
        # 24 simulated months; the oracle regroups the raw path by calendar
        # month and recomputes both statistics with the stdlib.
        series = simulate_gbm(GbmParams(a=5e-4, b=0.015, s0=1000.0, n_days=504, seed=42))
        aggs = monthly_aggregates(series)
        oracle = monthly_oracle(series)
        assert len(aggs) == len(oracle) == 24
        for agg, (key, mean_ref, std_ref, n_ref) in zip(aggs, oracle):
            assert agg.month == key
            assert agg.n_days == n_ref
            assert abs(agg.mean_log - mean_ref) < 1e-12
            assert abs(agg.std_log - std_ref) < 1e-12

    def test_gbm_dispersion_matches_volatility(self):
        # Within a 21-day month the population std of ln S is close to
        # b * sqrt((n^2-1)/(6n)); check the monthly mean against 3 standard
        # errors estimated from the sample itself.
        b, n_days = 0.015, 21
        series = simulate_gbm(GbmParams(a=5e-4, b=b, s0=1000.0, n_days=504, seed=42))
        stds = np.array([a.std_log for a in monthly_aggregates(series)])
        expected = b * math.sqrt((n_days**2 - 1) / (6 * n_days))
        se = stds.std(ddof=1) / math.sqrt(len(stds))
        assert abs(stds.mean() - expected) < 3 * se

    def test_tau_sequential_over_retained_months(self):
        # A 9-day stub sandwiched between full months is dropped without
        # leaving a gap in tau.
        dates = month_dates(21)
        dates += [date(2019, 2, d) for d in range(1, 10)]
        dates += [date(2019, 3, d) for d in range(1, 22)]
        recs = tuple(DailyRecord(d, 100.0) for d in dates)
        aggs = monthly_aggregates(DailySeries(recs))
        assert [a.tau for a in aggs] == [0, 1]
        assert [a.month for a in aggs] == [(2019, 1), (2019, 3)]

    @given(st.floats(min_value=1e-3, max_value=1e3).filter(lambda c: c > 0))
    @settings(max_examples=40)
    def test_scale_invariance(self, c):
        base = simulate_gbm(GbmParams(a=5e-4, b=0.01, s0=500.0, n_days=126, seed=7))
        scaled = series_from_closes(base.closes() * c)
        for a1, a2 in zip(monthly_aggregates(base), monthly_aggregates(scaled)):
            assert abs((a2.mean_log - a1.mean_log) - math.log(c)) < 1e-12
            assert abs(a2.std_log - a1.std_log) < 1e-12
            assert a1.n_days == a2.n_days

    def test_calendar_keys_over_four_centuries(self):
        # Dates far before and after 1970 must land in the calendar month
        # that date.year/date.month give; day numbers counted from
        # 0001-01-01 read as days from 1970-01-01 would slip every key.
        start = date(1650, 1, 1).toordinal()
        days = [date.fromordinal(start + 3 * k + k % 2) for k in range(52_000)]
        assert (days[-1] - days[0]).days > 400 * 365
        closes = (100.0 + np.arange(len(days)) % 37).tolist()
        text = "Date,Close\n" + "".join(f"{d.isoformat()},{c!r}\n" for d, c in zip(days, closes))
        records = [DailyRecord(d, c) for d, c in zip(days, closes)]
        for series in (parse_daily_file(text), DailySeries(records)):
            aggs = monthly_aggregates(series, min_days=1)
            oracle = monthly_oracle(series, min_days=1)
            assert [(a.month, a.n_days) for a in aggs] == [(k, n) for k, _, _, n in oracle]
            assert aggs[0].month == (1650, 1) and aggs[-1].month[0] >= 2050

    def test_partition_recovers_every_retained_day(self):
        series = simulate_gbm(GbmParams(a=5e-4, b=0.01, s0=500.0, n_days=130, seed=3))
        aggs = monthly_aggregates(series)
        retained_months = {a.month for a in aggs}
        n_retained = sum(
            1
            for rec in series.records
            if (rec.date.year, rec.date.month) in retained_months
        )
        assert sum(a.n_days for a in aggs) == n_retained
