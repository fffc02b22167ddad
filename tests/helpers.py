"""Builders and independent oracles shared across the test modules.

The oracles here deliberately avoid the library's own code paths: the line
fit solves the normal equations in exact rational arithmetic, the monthly
statistics use the stdlib statistics module over a plain groupby, the
reference writers format one row at a time with ``str``, and the reference
simulator advances a price path one step at a time.
"""

from __future__ import annotations

import math
import statistics
from datetime import date as Date
from fractions import Fraction
from pathlib import Path

import numpy as np

from marketreg.errors import NonFinitePrice, PathRejectionLimit
from marketreg.series import DailySeries, day_column
from marketreg.simulate import REDRAW_LIMIT, GbmParams, _standard_normals


def month_dates(n_days: int, days_per_month: int = 21, start_year: int = 2019) -> list[Date]:
    """Consecutive dates with exactly ``days_per_month`` per calendar month."""
    assert days_per_month <= 28
    out = []
    for k in range(n_days):
        month_index, day = divmod(k, days_per_month)
        year, month = divmod(month_index, 12)
        out.append(Date(start_year + year, month + 1, day + 1))
    return out


def volume_columns(volumes) -> dict:
    """The ``volume`` and ``volume_mask`` arguments of DailySeries for a list
    that holds None where no volume was reported."""
    return {"volume": [v or 0 for v in volumes], "volume_mask": [v is not None for v in volumes]}


def series_from_records(records, name: str = "unnamed") -> DailySeries:
    """DailySeries of DailyRecord values, one row per record in order."""
    records = list(records)
    return DailySeries(
        day_column([r.date.toordinal() for r in records]),
        [r.close for r in records],
        index_name=name,
        **volume_columns([r.volume for r in records]),
    )


def series_from_closes(
    closes,
    name: str = "test",
    days_per_month: int = 21,
    volumes=None,
) -> DailySeries:
    """Closes on a calendar of ``days_per_month`` trading days a month;
    ``volumes`` holds None where no volume was reported."""
    closes = [float(c) for c in closes]
    volumes = [None] * len(closes) if volumes is None else volumes
    return DailySeries(month_dates(len(closes), days_per_month), closes, index_name=name,
                       **volume_columns(volumes))


def exponential_series(alpha: float, n_days: int, s0: float = 1000.0,
                       days_per_month: int = 21, name: str = "exp") -> DailySeries:
    return series_from_closes(
        (s0 * math.exp(alpha * k) for k in range(n_days)),
        name=name,
        days_per_month=days_per_month,
    )


def ols_oracle(points):
    """Least squares with intercept via exact rational normal equations.

    Returns (slope, intercept, r_squared, stderr_slope) as floats, or None
    when all x coincide. Independent of the numpy implementation under test.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    n = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    det = n * sxx - sx * sx
    if det == 0:
        return None
    slope = Fraction(n * sxy - sx * sy, det)
    intercept = Fraction(sy - slope * sx, n)
    sse = sum((y - (intercept + slope * x)) ** 2 for x, y in pts)
    y_mean = Fraction(sy, n)
    sst = sum((y - y_mean) ** 2 for _, y in pts)
    r2 = 1.0 if sst == 0 else float(1 - Fraction(sse, sst))
    stderr = 0.0
    if n > 2:
        sxx_centered = sxx - Fraction(sx * sx, n)
        stderr = math.sqrt(float(Fraction(sse, n - 2) / sxx_centered))
    return float(slope), float(intercept), r2, stderr


def monthly_oracle(series: DailySeries, min_days: int = 10):
    """Brute-force recomputation of the per-month mean/std of ln(close)."""
    groups: dict[tuple[int, int], list[float]] = {}
    for rec in series.records:
        groups.setdefault((rec.date.year, rec.date.month), []).append(math.log(rec.close))
    out = []
    for key in sorted(groups):
        vals = groups[key]
        if len(vals) >= min_days:
            out.append((key, statistics.fmean(vals), statistics.pstdev(vals), len(vals)))
    return out


def reference_write_tsv(path: Path, comments: list[str], header: list[str], columns: list) -> None:
    """``report._write_tsv`` one row at a time. A column is a numpy array, or
    a str that is the cell of every row."""
    n_rows = max(len(c) for c in columns if not isinstance(c, str))
    columns = [[c] * n_rows if isinstance(c, str) else c.tolist() for c in columns]
    lines = [f"# {c}" for c in comments] + ["\t".join(header)]
    lines += ["\t".join(map(str, row)) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_write_daily_file(series: DailySeries, dest) -> None:
    """``ingest.write_daily_file`` one row at a time, joined before one write."""
    header = "Date,Close"
    columns = [
        [day.isoformat() for day in series.dates.tolist()],
        [repr(close) for close in series.close.tolist()],
    ]
    if series.has_volume():
        header += ",Volume"
        columns.append(["" if v is None else str(v) for v in series.volumes()])
    payload = "\n".join([header, *map(",".join, zip(*columns))]) + "\n"

    if hasattr(dest, "write"):
        dest.write(payload)
        return
    Path(dest).write_text(payload, encoding="utf-8")


def reference_simulate_gbm(params: GbmParams) -> np.ndarray:
    """The closes of ``simulate.simulate_gbm``, one Python-level step at a time,
    with the same random stream, redraws and errors."""
    n_steps = params.n_days - 1
    rng = np.random.default_rng(params.seed)
    sqrt_dt = math.sqrt(params.dt)
    if params.b_end is None or n_steps <= 1:
        b_levels = np.full(n_steps, params.b).tolist()
    else:
        b_levels = np.linspace(params.b, params.b_end, n_steps).tolist()
    dws = (_standard_normals(rng, n_steps) * sqrt_dt).tolist() if n_steps > 0 else []

    # Python floats round exactly as float64 does, and overflow to inf without a warning.
    prices = np.empty(params.n_days)
    prices[0] = price = float(params.s0)
    drift = params.a * params.dt
    for k, (b, dw) in enumerate(zip(b_levels, dws)):
        nxt = price * (1.0 + drift + b * dw)
        redraws = 0
        while nxt <= 0:
            redraws += 1
            if redraws > REDRAW_LIMIT:
                raise PathRejectionLimit(
                    f"{REDRAW_LIMIT} consecutive redraws at step {k}; parameters are absurd"
                )
            dw = float(_standard_normals(rng, 1)[0]) * sqrt_dt
            nxt = price * (1.0 + drift + b * dw)
        if not math.isfinite(nxt):
            raise NonFinitePrice(
                f"simulated price at day {k + 1} is {nxt}, past the float64 range"
            )
        prices[k + 1] = price = nxt
    return prices
