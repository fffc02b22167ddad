"""Core daily time-series types, log transform and calendar-month aggregation.

Time is measured in trading days: record k sits at t = k no matter how many
calendar days separate it from record k-1. Monthly quantities group records
by calendar (year, month) and keep only months with enough trading days to
give a usable dispersion estimate.
"""

from __future__ import annotations

import functools
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

    ``DailySeries`` refuses a close that is not finite and positive, so every
    record read from a series has one.
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


@dataclass(frozen=True, init=False, eq=False)
class DailySeries:
    """Ordered daily closes, and optionally volumes, of one index as read-only columns.

    ``dates`` is ``datetime64[D]``, ``close`` float64, ``volume`` int64 and
    ``volume_mask`` false (with ``volume`` 0) where no volume was reported.
    Row k is trading day t = k; dates must be strictly increasing, and every
    close finite (else NonFinitePrice) and positive (else NonPositivePrice).

    ``volume`` is the column of counts. ``volume_mask`` defaults to every day
    reported when ``volume`` is given, and to no day when it is not.
    ``ln_close`` and ``log_volumes`` are computed on first use and kept.
    """

    dates: np.ndarray
    close: np.ndarray
    volume: np.ndarray
    volume_mask: np.ndarray
    index_name: str

    def __init__(self, dates, close, volume=None, index_name: str = "unnamed", volume_mask=None):
        if volume_mask is None:
            volume_mask = np.full(len(dates), volume is not None)
        volume = np.zeros(len(dates), dtype=np.int64) if volume is None else np.asarray(volume)
        if volume.dtype.kind != "i":  # an integer column is taken as is
            value = volume.astype(float)
            bad = np.flatnonzero(~((np.floor(value) == value) & (abs(value) < 2.0**63)))
            if bad.size:
                raise ValueError(f"volume must be a finite integer below 2**63, got {volume[bad[0]]}")
        dates = np.array(dates, dtype="datetime64[D]")
        columns = {"dates": dates, "close": np.array(close, dtype=float),
                   "volume": np.array(volume, dtype=np.int64),
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
        for error, bad in ((NonFinitePrice, ~np.isfinite(self.close)),
                           (NonPositivePrice, self.close <= 0)):
            if bad.any():
                raise error(_close_at(self, int(np.argmax(bad))))

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

    def volumes(self) -> list[int | None]:
        return np.where(self.volume_mask, self.volume.astype(object), None).tolist()

    def has_volume(self) -> bool:
        return bool(self.volume_mask.any())

    def with_volumes(self, volume) -> "DailySeries":
        """Copy of the series with ``volume`` as its counts, every day reported."""
        return DailySeries(self.dates, self.close, volume, self.index_name)

    # The frozen dataclass has no slots, so cached_property can keep each
    # column in the instance __dict__ on first use.
    @functools.cached_property
    def ln_close(self) -> np.ndarray:
        """``log_series(self)``, computed on first use and kept."""
        return log_series(self)

    @functools.cached_property
    def log_volumes(self) -> tuple[np.ndarray, np.ndarray]:
        """Trading-day index and natural log of every reported positive volume,
        read-only, computed on first use and kept."""
        t = np.flatnonzero(self.volume_mask & (self.volume > 0))
        return read_only(t), read_only(np.log(self.volume[t].astype(float)))


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


def log_series(series: DailySeries) -> np.ndarray:
    """Natural log of each close, as a read-only column; row k is trading day t = k."""
    return read_only(np.log(series.close))


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
    ln_close = series.ln_close
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
