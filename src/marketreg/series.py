"""Core daily time-series types, log transform and calendar-month aggregation.

Time is measured in trading days: record k sits at t = k no matter how many
calendar days separate it from record k-1. Monthly quantities group records
by calendar (year, month) and keep only months with enough trading days to
give a usable dispersion estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date as Date

import numpy as np

from .errors import InsufficientData, NonFinitePrice, NonPositivePrice

# Partial first/last months below this many trading days are dropped so that
# per-month standard deviations are not dominated by tiny samples.
MIN_DAYS_PER_MONTH = 10


@dataclass(frozen=True)
class DailyRecord:
    """One trading day: closing price and, optionally, traded volume.

    A close must be positive for any estimation to make sense. Violations are
    surfaced by ``ingest.validate_series`` and rejected with NonPositivePrice
    by the operations that take logarithms or divide by the previous close,
    so that programmatically built series can still be inspected.
    """

    date: Date
    close: float
    volume: int | None = None

    def __post_init__(self):
        if self.volume is not None and self.volume < 0:
            raise ValueError(f"volume must be >= 0, got {self.volume}")


# date.toordinal() counts days from 0001-01-01, datetime64[D] from 1970-01-01.
_EPOCH_ORDINAL = Date(1970, 1, 1).toordinal()
_DAY_RANGE = np.array([Date.min, Date.max], dtype="datetime64[D]")


def day_column(ordinals) -> np.ndarray:
    """``datetime64[D]`` column of the dates with the given ``toordinal()`` values."""
    return (np.asarray(ordinals, dtype=np.int64) - _EPOCH_ORDINAL).astype("datetime64[D]")


def _volume_column(volumes) -> tuple[np.ndarray, np.ndarray]:
    """int64 counts, 0 where a volume is None, and the mask of reported volumes."""
    volumes = np.asarray(volumes)
    if volumes.dtype.kind in "iu":
        return volumes, np.ones(len(volumes), dtype=bool)
    mask = np.not_equal(volumes, None)
    return np.where(mask, volumes, 0).astype(np.int64), mask


@dataclass(frozen=True, init=False, eq=False)
class DailySeries:
    """Ordered daily closes, and optionally volumes, of one index as read-only columns.

    ``dates`` is ``datetime64[D]``, ``close`` float64, ``volume`` int64 and
    ``volume_mask`` false (with ``volume`` 0) where no volume was reported.
    Row k is trading day t = k; dates must be strictly increasing.
    ``DailySeries(records, index_name)`` converts DailyRecord values.
    """

    dates: np.ndarray
    close: np.ndarray
    volume: np.ndarray
    volume_mask: np.ndarray
    index_name: str

    def __init__(self, records, index_name: str = "unnamed"):
        records = tuple(records)
        dates = day_column([r.date.toordinal() for r in records])
        volume, mask = _volume_column([r.volume for r in records])
        self._set(dates, [r.close for r in records], volume, mask, index_name)

    @classmethod
    def from_columns(
        cls, dates, close, volumes=None, index_name: str = "unnamed", volume_mask=None
    ) -> "DailySeries":
        """Series from its columns. ``volumes`` holds None where no volume was
        reported or, when ``volume_mask`` is given, is the int64 count column
        with 0 wherever the mask is false."""
        if volume_mask is None:
            volumes, volume_mask = _volume_column([None] * len(dates) if volumes is None else volumes)
        series = cls.__new__(cls)
        series._set(dates, close, volumes, volume_mask, index_name)
        return series

    def _set(self, dates, close, volume, mask, index_name: str) -> None:
        dates = np.array(dates, dtype="datetime64[D]")
        columns = {"dates": dates, "close": np.array(close, dtype=float),
                   "volume": np.array(volume, dtype=np.int64),
                   "volume_mask": np.array(mask, dtype=bool)}
        if len(dates) == 0:
            raise ValueError("a DailySeries needs at least one record")
        if any(len(column) != len(dates) for column in columns.values()):
            raise ValueError("every column must have one entry per date")
        later = np.flatnonzero(dates[1:] <= dates[:-1])
        if later.size:
            prev, cur = dates[later[0]].item(), dates[later[0] + 1].item()
            raise ValueError(f"dates must be strictly increasing, {cur} follows {prev}")
        if dates[0] < _DAY_RANGE[0] or dates[-1] > _DAY_RANGE[1]:
            raise ValueError(f"dates must lie within {Date.min} .. {Date.max}")
        if np.any(columns["volume"] < 0):
            raise ValueError("volume must be >= 0")
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "index_name", index_name)

    def __len__(self) -> int:
        return len(self.dates)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DailySeries):
            return NotImplemented
        names = ("dates", "close", "volume", "volume_mask")
        return self.index_name == other.index_name and all(
            np.array_equal(getattr(self, n), getattr(other, n)) for n in names
        )

    @property
    def records(self) -> tuple[DailyRecord, ...]:
        """The rows as DailyRecord values, built on each access."""
        rows = zip(self.dates.tolist(), self.close.tolist(), self.volumes())
        return tuple(DailyRecord(*row) for row in rows)

    @property
    def t_origin(self) -> Date:
        """Calendar date of trading day t = 0."""
        return self.dates[0].item()

    def closes(self) -> np.ndarray:
        return self.close

    def volumes(self) -> list[int | None]:
        return np.where(self.volume_mask, self.volume.astype(object), None).tolist()

    def has_volume(self) -> bool:
        return bool(self.volume_mask.any())

    def with_volumes(self, volumes) -> "DailySeries":
        """Copy of the series with the volume column replaced; None marks a
        volume that was not reported."""
        return DailySeries.from_columns(self.dates, self.close, volumes, self.index_name)


@dataclass(frozen=True)
class FluctuationSeries:
    """Day-over-day percentage changes, one per record pair of the source.

    Element k-1 is the percentage change from day k-1 to day k, so the
    series is one shorter than the price series it came from.
    """

    values: tuple[float, ...]
    source: str = "unnamed"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", tuple(vals.tolist()))
        if not np.all(np.isfinite(vals)):
            raise ValueError("every fluctuation must be finite")

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)


@dataclass(frozen=True)
class MonthlyAggregate:
    """Mean and population standard deviation of ln(close) over one calendar month.

    ``tau`` counts retained months from 0; ``month`` is the (year, month)
    the aggregate was computed from, kept so that spikes can be located on
    the calendar.
    """

    tau: int
    mean_log: float
    std_log: float
    n_days: int
    month: tuple[int, int] | None = None

    def __post_init__(self):
        if self.std_log < 0:
            raise ValueError("std_log must be >= 0")
        if self.n_days < 1:
            raise ValueError("n_days must be >= 1")

    @property
    def var_log(self) -> float:
        return self.std_log**2


def _close_at(series: DailySeries, t: int) -> str:
    return f"close at t={t} ({series.dates[t].item().isoformat()}) is {series.close[t].item()}"


def finite_closes(series: DailySeries) -> np.ndarray:
    """The close column. Raises NonFinitePrice at the first infinite or NaN close."""
    bad = np.flatnonzero(~np.isfinite(series.close))
    if bad.size:
        raise NonFinitePrice(_close_at(series, int(bad[0])))
    return series.close


def log_series(series: DailySeries) -> np.ndarray:
    """Natural log of each close against its trading-day index, as an
    (n, 2) array of (t, ln close) rows.

    Raises NonFinitePrice if any close is infinite or NaN and
    NonPositivePrice if any close is <= 0.
    """
    close = finite_closes(series)
    bad = np.flatnonzero(close <= 0)
    if bad.size:
        raise NonPositivePrice(_close_at(series, int(bad[0])))
    return np.column_stack((np.arange(len(series), dtype=float), np.log(close)))


def log_volumes(series: DailySeries) -> tuple[np.ndarray, np.ndarray]:
    """Trading-day index and natural log of every reported positive volume."""
    t = np.flatnonzero(series.volume_mask & (series.volume > 0))
    return t, np.log(series.volume[t].astype(float))


def monthly_aggregates(
    series: DailySeries, min_days: int = MIN_DAYS_PER_MONTH
) -> list[MonthlyAggregate]:
    """Aggregate ln(close) by calendar month.

    Each retained month yields the arithmetic mean and the population
    (divide-by-n) standard deviation of ln(close) over its trading days.
    Months with fewer than ``min_days`` trading days are dropped and tau is
    assigned sequentially over the months that remain.

    Raises InsufficientData when the series is shorter than 2 records or no
    month qualifies.
    """
    if len(series) < 2:
        raise InsufficientData("need at least 2 records to aggregate monthly")
    ln_close = log_series(series)[:, 1]
    # Months since 1970-01.
    months = series.dates.astype("datetime64[M]").astype(np.int64)
    keys, group, n_days = np.unique(months, return_inverse=True, return_counts=True)
    mean = np.bincount(group, weights=ln_close) / n_days
    dev = ln_close - mean[group]
    std = np.sqrt(np.bincount(group, weights=dev * dev) / n_days)  # population, ddof=0

    kept = np.flatnonzero(n_days >= min_days)
    if not kept.size:
        raise InsufficientData(f"no calendar month has at least {min_days} trading days")
    columns = (keys[kept].tolist(), mean[kept].tolist(), std[kept].tolist(), n_days[kept].tolist())
    return [
        MonthlyAggregate(tau, mean_log, std_log, n, month=(1970 + key // 12, key % 12 + 1))
        for tau, (key, mean_log, std_log, n) in enumerate(zip(*columns))
    ]
