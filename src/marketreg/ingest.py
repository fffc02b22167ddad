"""Parsing and validation of delimiter-separated daily market data.

Canonical format: UTF-8 text, one header row, comma delimiter, ISO-8601
dates, period decimal separator, columns Date and Close plus an optional
integer Volume. ``IngestConfig`` remaps provider-specific layouts onto that
shape. Parsing is total: it either returns a series or raises a structured
error, never a silently truncated result.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date as Date
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import DuplicateDate, EmptySeries, MalformedRow, UnknownColumn
from .series import DailySeries, day_column

DEFAULT_VOLUME_COLUMN = "Volume"
ISO_DATE_FORMAT = "%Y-%m-%d"


@dataclass(frozen=True)
class IngestConfig:
    """Column mapping and dialect for a daily data file.

    ``volume_column=None`` picks up a column named "Volume" when one exists
    and otherwise leaves volumes empty; an explicitly configured name must be
    present in the header or parsing fails with UnknownColumn.
    """

    date_column: str = "Date"
    price_column: str = "Close"
    volume_column: str | None = None
    date_format: str = ISO_DATE_FORMAT
    delimiter: str = ","
    decimal_comma: bool = False

    def __post_init__(self):
        if self.date_column == self.price_column:
            raise ValueError("date_column and price_column must differ")
        if len(self.delimiter) != 1 or not self.delimiter.isprintable():
            raise ValueError("delimiter must be a single printable character")


@dataclass(frozen=True)
class ValidationSummary:
    """Pure diagnostic snapshot of a series; computing it never mutates anything."""

    n: int
    first_date: Date | None
    last_date: Date | None
    bad_prices: int
    missing_volumes: int
    max_abs_delta: float | None


def _as_text(source) -> str:
    if isinstance(source, str):
        return source
    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise MalformedRow(1, f"stream is not valid UTF-8 ({exc.reason})") from None
    return data


def _column_index(header: list[str], name: str) -> int:
    try:
        return header.index(name)
    except ValueError:
        raise UnknownColumn(name) from None


def _parse_price(cell: str, config: IngestConfig, line_no: int) -> float:
    text = cell.strip()
    if not text:
        raise MalformedRow(line_no, "empty price cell")
    if config.decimal_comma:
        text = text.replace(",", ".")
    try:
        value = float(text)
    except ValueError:
        raise MalformedRow(line_no, f"unparseable price {cell!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(line_no, f"non-finite price {cell!r}")
    if value <= 0:
        raise MalformedRow(line_no, f"nonpositive price {value}")
    return value


def _parse_volume(cell: str, line_no: int) -> int | None:
    text = cell.strip()
    if not text:
        return None  # missing volume is allowed, zero volume is data
    try:
        value = int(text)
    except ValueError:
        try:
            as_float = float(text)
        except ValueError:
            raise MalformedRow(line_no, f"unparseable volume {cell!r}") from None
        if not as_float.is_integer():
            raise MalformedRow(line_no, f"non-integer volume {cell!r}")
        value = int(as_float)
    if value < 0:
        raise MalformedRow(line_no, f"negative volume {value}")
    if value >= 2**63:
        raise MalformedRow(line_no, f"volume {value} does not fit a 64-bit integer")
    return value


def _parse_date(text: str, date_format: str) -> Date:
    """``strptime(text, date_format)``. With the default format, a cell that is
    exactly ASCII YYYY-MM-DD goes through the much faster ``date.fromisoformat``,
    which agrees with strptime on that shape; fromisoformat alone would also
    accept 20190401 and 2019-W14-1."""
    iso_shaped = len(text) == 10 and text[4] == text[7] == "-" and text.isascii()
    if date_format == ISO_DATE_FORMAT and iso_shaped:
        try:
            return Date.fromisoformat(text)
        except ValueError:
            pass
    return datetime.strptime(text, date_format).date()


def parse_daily_file(
    source, config: IngestConfig | None = None, index_name: str = "unnamed"
) -> DailySeries:
    """Parse one delimiter-separated stream into a DailySeries.

    ``source`` may be bytes, text, or a readable file object. Rows are sorted
    ascending by date on ingest. Unparseable cells, empty or nonpositive
    prices and negative volumes raise MalformedRow with the 1-based line
    number; repeated dates raise DuplicateDate; a file without data rows
    raises EmptySeries; a configured column missing from the header raises
    UnknownColumn.
    """
    config = config or IngestConfig()
    text = _as_text(source)
    reader = csv.reader(io.StringIO(text), delimiter=config.delimiter)

    header: list[str] | None = None
    ordinals, closes, volumes = [], [], []
    try:
        for row in reader:
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue  # tolerate blank lines, they are not data rows
            line_no = reader.line_num
            if header is None:
                header = cells
                date_idx = _column_index(header, config.date_column)
                price_idx = _column_index(header, config.price_column)
                if config.volume_column is not None:
                    volume_idx = _column_index(header, config.volume_column)
                else:
                    lowered = [h.lower() for h in header]
                    volume_idx = (
                        lowered.index(DEFAULT_VOLUME_COLUMN.lower())
                        if DEFAULT_VOLUME_COLUMN.lower() in lowered
                        else None
                    )
                needed = max(date_idx, price_idx, volume_idx if volume_idx is not None else 0)
                continue

            if len(cells) <= needed:
                raise MalformedRow(
                    line_no, f"expected at least {needed + 1} fields, got {len(cells)}"
                )
            try:
                ordinals.append(_parse_date(cells[date_idx], config.date_format).toordinal())
            except ValueError:
                raise MalformedRow(line_no, f"unparseable date {cells[date_idx]!r}") from None
            closes.append(_parse_price(cells[price_idx], config, line_no))
            volumes.append(
                _parse_volume(cells[volume_idx], line_no) if volume_idx is not None else None
            )
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, f"csv error: {exc}") from None

    if header is None or not ordinals:
        raise EmptySeries("no data rows found")

    dates = day_column(ordinals)
    order = np.argsort(dates, kind="stable")
    dates = dates[order]
    repeated = np.flatnonzero(dates[1:] == dates[:-1])
    if repeated.size:
        raise DuplicateDate(dates[repeated[0]].item())

    return DailySeries.from_columns(
        dates, np.array(closes)[order], np.asarray(volumes)[order], index_name
    )


def parse_daily_path(
    path, config: IngestConfig | None = None, index_name: str | None = None
) -> DailySeries:
    """Parse a file on disk; the index name defaults to the file stem."""
    path = Path(path)
    with path.open("rb") as fh:
        return parse_daily_file(fh, config, index_name or path.stem)


def write_daily_file(series: DailySeries, dest) -> None:
    """Serialize to the canonical comma-delimited format.

    The output round-trips through ``parse_daily_file``: closes use the
    shortest decimal that reproduces the float exactly, and the Volume
    column is emitted only when at least one record carries a volume.
    """
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


def validate_series(series: DailySeries) -> ValidationSummary:
    """Report record count, date span, bad prices, missing volumes and the
    largest single-day percentage move. Never raises on bad data: that is
    what it exists to count."""
    close = series.close
    good = np.isfinite(close) & (close > 0)
    prev, cur = close[:-1], close[1:]
    pair = good[:-1] & np.isfinite(cur)
    deltas = np.abs(100.0 * (cur[pair] - prev[pair]) / prev[pair])
    return ValidationSummary(
        n=len(series),
        first_date=series.dates[0].item(),
        last_date=series.dates[-1].item(),
        bad_prices=int(np.count_nonzero(~good)),
        missing_volumes=int(np.count_nonzero(~series.volume_mask)),
        max_abs_delta=float(deltas.max()) if deltas.size else None,
    )
