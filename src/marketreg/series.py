"""Core daily time-series types, log transform and calendar-month aggregation.

Time is measured in trading days: record k sits at t = k no matter how many
calendar days separate it from record k-1. Monthly quantities group records
by calendar (year, month) and keep only months with enough trading days to
give a usable dispersion estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def read_only(array: np.ndarray) -> np.ndarray:
    """``array`` with its writeable flag cleared."""
    array.flags.writeable = False
    return array


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

    ``volumes`` holds None where no volume was reported or, when
    ``volume_mask`` is given, is the int64 count column with 0 wherever the
    mask is false; without either, no day has a volume.
    """

    dates: np.ndarray
    close: np.ndarray
    volume: np.ndarray
    volume_mask: np.ndarray
    index_name: str

    def __init__(self, dates, close, volumes=None, index_name: str = "unnamed", volume_mask=None):
        if volumes is None and volume_mask is None:
            volumes, volume_mask = np.zeros(len(dates), dtype=np.int64), np.zeros(len(dates), dtype=bool)
        elif volume_mask is None:
            volumes, volume_mask = _volume_column(volumes)
        dates = np.array(dates, dtype="datetime64[D]")
        columns = {"dates": dates, "close": np.array(close, dtype=float),
                   "volume": np.array(volumes, dtype=np.int64),
                   "volume_mask": np.array(volume_mask, dtype=bool)}
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
            object.__setattr__(self, name, read_only(column))
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

    def volumes(self) -> list[int | None]:
        return np.where(self.volume_mask, self.volume.astype(object), None).tolist()

    def has_volume(self) -> bool:
        return bool(self.volume_mask.any())

    def with_volumes(self, volumes) -> "DailySeries":
        """Copy of the series with the volume column replaced; None marks a
        volume that was not reported."""
        return DailySeries(self.dates, self.close, volumes, self.index_name)


@dataclass(frozen=True, eq=False)
class MonthlyTable:
    """Mean and population standard deviation of ln(close) per calendar month:
    read-only columns, one row per retained month.

    ``tau`` counts retained months from 0 (from ``monthly_aggregates``, it is
    the row number); ``month`` is the calendar month as months since 1970-01.
    ``var_log`` squares by ``pow``, as ``float(s) ** 2`` does: numpy's
    ``s**2`` differs from it in the last bit for about 1 value in 1,000.
    """

    tau: np.ndarray
    month: np.ndarray
    mean_log: np.ndarray
    std_log: np.ndarray
    n_days: np.ndarray
    var_log: np.ndarray = field(init=False)

    def __post_init__(self):
        columns = {"tau": np.int64, "month": np.int64, "mean_log": float,
                   "std_log": float, "n_days": np.int64}
        for name, dtype in columns.items():
            object.__setattr__(self, name, read_only(np.array(getattr(self, name), dtype=dtype)))
        if any(len(getattr(self, name)) != len(self.tau) for name in columns):
            raise ValueError("every column must have one entry per month")
        if np.any(self.std_log < 0):
            raise ValueError("std_log must be >= 0")
        if np.any(self.n_days < 1):
            raise ValueError("n_days must be >= 1")
        object.__setattr__(self, "var_log", read_only(np.float_power(self.std_log, 2)))

    def __len__(self) -> int:
        return len(self.tau)

    def calendar_month(self, row: int) -> tuple[int, int]:
        """(year, month) of one row."""
        key = int(self.month[row])
        return 1970 + key // 12, key % 12 + 1


def _close_at(series: DailySeries, t: int) -> str:
    return f"close at t={t} ({series.dates[t].item().isoformat()}) is {series.close[t].item()}"


def finite_closes(series: DailySeries) -> np.ndarray:
    """The close column. Raises NonFinitePrice at the first infinite or NaN close."""
    bad = np.flatnonzero(~np.isfinite(series.close))
    if bad.size:
        raise NonFinitePrice(_close_at(series, int(bad[0])))
    return series.close


def log_series(series: DailySeries) -> np.ndarray:
    """Natural log of each close, as a read-only column; row k is trading day t = k.

    Raises NonFinitePrice if any close is infinite or NaN and
    NonPositivePrice if any close is <= 0.
    """
    close = finite_closes(series)
    bad = np.flatnonzero(close <= 0)
    if bad.size:
        raise NonPositivePrice(_close_at(series, int(bad[0])))
    return read_only(np.log(close))


def log_volumes(series: DailySeries) -> tuple[np.ndarray, np.ndarray]:
    """Trading-day index and natural log of every reported positive volume, read-only."""
    t = np.flatnonzero(series.volume_mask & (series.volume > 0))
    return read_only(t), read_only(np.log(series.volume[t].astype(float)))


def monthly_aggregates(series: DailySeries, min_days: int = MIN_DAYS_PER_MONTH) -> MonthlyTable:
    """Aggregate ln(close) by calendar month.

    Each retained month is one row of the table: the arithmetic mean and the
    population (divide-by-n) standard deviation of ln(close) over its days.
    Months with fewer than ``min_days`` trading days are dropped and tau is
    assigned sequentially over the months that remain.

    Raises InsufficientData when the series is shorter than 2 records or no
    month qualifies.
    """
    if len(series) < 2:
        raise InsufficientData("need at least 2 records to aggregate monthly")
    ln_close = log_series(series)
    # Months since 1970-01.
    months = series.dates.astype("datetime64[M]").astype(np.int64)
    keys, group, n_days = np.unique(months, return_inverse=True, return_counts=True)
    mean = np.bincount(group, weights=ln_close) / n_days
    dev = ln_close - mean[group]
    std = np.sqrt(np.bincount(group, weights=dev * dev) / n_days)  # population, ddof=0

    kept = np.flatnonzero(n_days >= min_days)
    if not kept.size:
        raise InsufficientData(f"no calendar month has at least {min_days} trading days")
    return MonthlyTable(np.arange(kept.size), keys[kept], mean[kept], std[kept], n_days[kept])
