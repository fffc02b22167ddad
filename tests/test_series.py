import math
import re
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import month_dates, monthly_oracle, series_from_closes, series_from_records
from marketreg.errors import FluctuationOverflow, InsufficientData, NonPositivePrice
from marketreg.estimators import daily_fluctuations
from marketreg.ingest import parse_daily_file
from marketreg.series import (
    DailyRecord,
    DailySeries,
    MonthlyTable,
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
            series_from_records(recs)

    def test_series_rejects_duplicate_dates(self):
        recs = (
            DailyRecord(date(2019, 1, 1), 100.0),
            DailyRecord(date(2019, 1, 1), 101.0),
        )
        with pytest.raises(ValueError):
            series_from_records(recs)

    def test_series_rejects_dates_past_year_9999(self):
        dates = np.array(["9999-12-31", "10000-01-01"], dtype="datetime64[D]")
        message = "dates must lie within 0001-01-01 .. 9999-12-31"
        with pytest.raises(ValueError, match=re.escape(message)):
            DailySeries(dates, [1.0, 2.0])

    def test_series_rejects_empty(self):
        with pytest.raises(ValueError):
            series_from_records(())

    def test_columns_are_read_only_arrays(self):
        s = series_from_closes([1.0, 2.0, 3.0], volumes=[5, None, 7])
        assert s.dates.dtype == np.dtype("datetime64[D]")
        assert s.close.dtype == np.float64 and s.volume.dtype == np.int64
        assert s.volume_mask.tolist() == [True, False, True]
        assert s.volume.tolist() == [5, 0, 7]
        for column in (s.dates, s.close, s.volume, s.volume_mask):
            with pytest.raises(ValueError):
                column[0] = column[1]

    def test_columns_equal_records(self):
        s = series_from_closes([1.0, 2.0, 3.0], name="x", volumes=[5, None, 7])
        again = series_from_records(s.records, "x")
        assert again == s
        assert again.records == s.records
        assert series_from_records(s.records, "y") != s
        assert DailySeries(s.dates, s.close, s.volume, "x", s.volume_mask) == s

    def test_order_error_names_both_dates(self):
        with pytest.raises(ValueError, match="2019-01-01 follows 2019-01-02"):
            DailySeries(np.array(["2019-01-02", "2019-01-01"], dtype="datetime64[D]"), [1.0, 2.0])

    def test_fluctuations_must_be_finite(self):
        days = r"t=0 \(2019-01-01\) is 1e-300, close at t=1 \(2019-01-02\) is 1e\+300"
        with pytest.raises(FluctuationOverflow, match=days):
            daily_fluctuations(series_from_closes([1e-300, 1e300]))

    def test_aggregate_invariants(self):
        with pytest.raises(ValueError):
            MonthlyTable([0], [0], [1.0], [-0.1], [21])
        with pytest.raises(ValueError):
            MonthlyTable([0], [0], [1.0], [0.1], [0])
        with pytest.raises(ValueError):
            MonthlyTable([0, 1], [0], [1.0], [0.1], [21])

    def test_with_volumes_roundtrip(self):
        s = series_from_closes([1.0, 2.0, 3.0])
        s2 = s.with_volumes([10, 0, 30])
        assert s2.volumes() == [10, 0, 30]
        assert s2.volume_mask.tolist() == [True, True, True]
        assert s2.close.tolist() == s.close.tolist()
        with pytest.raises(ValueError):
            s.with_volumes([1, 2])

    def test_whole_float_volumes_are_counts(self):
        s = series_from_closes([1.0, 2.0, 3.0]).with_volumes([10.0, 0.0, 2.0**62])
        assert s.volume.dtype == np.int64 and s.volumes() == [10, 0, 2**62]

    @pytest.mark.parametrize("volume, shown", [([10, 1.5, 2.7], "1.5"), ([10, 1e19, 30], "1e+19"),
                                               ([10, float("nan"), 30], "nan"),
                                               ([10, None, 30], "None")])
    def test_volume_must_be_a_finite_integer_below_2_63(self, volume, shown):
        s = series_from_closes([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=rf"finite integer below 2\*\*63, got {re.escape(shown)}$"):
            s.with_volumes(volume)

    def test_negative_volume_count_rejected(self):
        # An int64 column skips the float check; the sign check still runs.
        s = series_from_closes([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"^volume must be >= 0$"):
            s.with_volumes(np.array([10, -1, 30], dtype=np.int64))


class TestLogSeries:
    def test_exact_exponential(self):
        s = series_from_closes([1.0, math.e, math.e**2])
        ln_close = log_series(s)
        assert ln_close.shape == (3,) and not ln_close.flags.writeable
        assert np.allclose(ln_close, [0.0, 1.0, 2.0], atol=1e-15)

    def test_constant_1000(self):
        s = series_from_closes([1000.0] * 3)
        for v in log_series(s):
            assert abs(v - LN_1000) < 1e-12

    def test_nonpositive_price_raises(self):
        with pytest.raises(NonPositivePrice):
            log_series(series_from_closes([1.0, -1.0]))
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
        logs = log_series(s).tolist()
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
        table = monthly_aggregates(s)
        assert len(table) == 1
        assert table.tau[0] == 0
        assert abs(table.mean_log[0] - math.log(100.0)) < 1e-12
        assert table.std_log[0] == 0.0
        assert table.n_days[0] == 15

    def test_two_piecewise_constant_months(self):
        closes = [math.e] * 21 + [math.e**2] * 21
        table = monthly_aggregates(series_from_closes(closes))
        assert table.tau.tolist() == [0, 1] and table.n_days.tolist() == [21, 21]
        assert abs(table.mean_log[0] - 1.0) < 1e-12
        assert abs(table.mean_log[1] - 2.0) < 1e-12
        assert table.std_log[0] < 1e-15 and table.std_log[1] < 1e-15

    def test_partial_month_dropped(self):
        closes = [100.0] * 26  # 21-day month plus a 5-day stub
        table = monthly_aggregates(series_from_closes(closes))
        assert len(table) == 1
        assert table.n_days[0] == 21

    def test_no_qualifying_month(self):
        with pytest.raises(InsufficientData):
            monthly_aggregates(series_from_closes([100.0] * 9))

    def test_too_short(self):
        with pytest.raises(InsufficientData):
            monthly_aggregates(series_from_closes([100.0]))

    def test_against_bruteforce_oracle_on_gbm(self):
        # 24 simulated months; the oracle regroups the raw path by calendar
        # month and recomputes both statistics with the stdlib.
        series = simulate_gbm(GbmParams(a=5e-4, b=0.015, s0=1000.0, n_days=504, seed=42))
        table = monthly_aggregates(series)
        oracle = monthly_oracle(series)
        assert len(table) == len(oracle) == 24
        for row, (key, mean_ref, std_ref, n_ref) in enumerate(oracle):
            assert table.calendar_month(row) == key
            assert table.n_days[row] == n_ref
            assert abs(table.mean_log[row] - mean_ref) < 1e-12
            assert abs(table.std_log[row] - std_ref) < 1e-12

    def test_gbm_dispersion_matches_volatility(self):
        # Within a 21-day month the population std of ln S is close to
        # b * sqrt((n^2-1)/(6n)); check the monthly mean against 3 standard
        # errors estimated from the sample itself.
        b, n_days = 0.015, 21
        series = simulate_gbm(GbmParams(a=5e-4, b=b, s0=1000.0, n_days=504, seed=42))
        stds = monthly_aggregates(series).std_log
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
        table = monthly_aggregates(series_from_records(recs))
        assert table.tau.tolist() == [0, 1]
        assert [table.calendar_month(row) for row in range(2)] == [(2019, 1), (2019, 3)]

    @given(st.floats(min_value=1e-3, max_value=1e3).filter(lambda c: c > 0))
    @settings(max_examples=40)
    def test_scale_invariance(self, c):
        base = simulate_gbm(GbmParams(a=5e-4, b=0.01, s0=500.0, n_days=126, seed=7))
        scaled = series_from_closes(base.close * c)
        t1, t2 = monthly_aggregates(base), monthly_aggregates(scaled)
        assert len(t1) == len(t2)
        for row in range(len(t1)):
            assert abs((t2.mean_log[row] - t1.mean_log[row]) - math.log(c)) < 1e-12
            assert abs(t2.std_log[row] - t1.std_log[row]) < 1e-12
            assert t1.n_days[row] == t2.n_days[row]

    def test_calendar_keys_over_four_centuries(self):
        # Dates far before and after 1970 must land in the calendar month
        # that date.year/date.month give; day numbers counted from
        # 0001-01-01 read as days from 1970-01-01 would slip every key.
        # Days 3 and 1 apart alternately put at least 14 in every month.
        start = date(1650, 1, 1).toordinal()
        days = [date.fromordinal(start + 2 * k + k % 2) for k in range(74_000)]
        assert (days[-1] - days[0]).days > 400 * 365
        closes = (100.0 + np.arange(len(days)) % 37).tolist()
        text = "Date,Close\n" + "".join(f"{d.isoformat()},{c!r}\n" for d, c in zip(days, closes))
        records = [DailyRecord(d, c) for d, c in zip(days, closes)]
        for series in (parse_daily_file(text), series_from_records(records)):
            table = monthly_aggregates(series)
            oracle = monthly_oracle(series)
            months = [table.calendar_month(row) for row in range(len(table))]
            assert list(zip(months, table.n_days.tolist())) == [(k, n) for k, _, _, n in oracle]
            assert months[0] == (1650, 1) and months[-1][0] >= 2050
            assert len(months) == 12 * (months[-1][0] - 1650) + months[-1][1]  # none dropped

    def test_partition_recovers_every_retained_day(self):
        series = simulate_gbm(GbmParams(a=5e-4, b=0.01, s0=500.0, n_days=130, seed=3))
        table = monthly_aggregates(series)
        retained_months = {table.calendar_month(row) for row in range(len(table))}
        n_retained = sum(
            1
            for rec in series.records
            if (rec.date.year, rec.date.month) in retained_months
        )
        assert table.n_days.sum() == n_retained
