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


def _header_columns(header: list[str], config: IngestConfig) -> tuple[int, int, int | None]:
    """Indices of the date, price and (optional) volume columns in ``header``."""
    date_idx = _column_index(header, config.date_column)
    price_idx = _column_index(header, config.price_column)
    if config.volume_column is not None:
        return date_idx, price_idx, _column_index(header, config.volume_column)
    lowered = [h.lower() for h in header]
    volume_name = DEFAULT_VOLUME_COLUMN.lower()
    return date_idx, price_idx, lowered.index(volume_name) if volume_name in lowered else None


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

    Plain files in the default dialect are converted a column at a time;
    every other input, and any file that fails a column check, goes through
    the row loop, which accepts the same inputs and raises every error.
    """
    config = config or IngestConfig()
    text = _as_text(source)
    columns = _parse_columns(text, config)
    if columns is None:
        return _parse_rows(text, config, index_name)
    dates, close, volume, volume_mask = columns
    return DailySeries.from_columns(dates, close, volume, index_name, volume_mask)


# Characters that make csv.reader read a line differently from a plain split
# on commas and newlines.
_CSV_SPECIAL = ('"', "\r", "\0")
_BLOCK_CHARS = 1 << 18  # about 8,000 lines of a Date,Close,Volume file


def _parse_columns(text: str, config: IngestConfig):
    """Columns (dates, close, volume, volume_mask) of a plain file, or None.

    The file must be ASCII comma-separated text with an ISO date format and
    no quotes, carriage returns or NUL characters; its first line is the
    header and every data line has exactly the header's number of cells. The
    body is read in blocks of whole lines: dates must be exactly YYYY-MM-DD,
    closes go through ``float`` and volumes through ``int`` over each block's
    cells, and every check the row loop makes is an array operation. None
    means the row loop must read the file; it then raises whatever error it
    would raise anyway.
    """
    if (config.date_format != ISO_DATE_FORMAT or config.delimiter != "," or config.decimal_comma
            or not text.isascii() or any(ch in text for ch in _CSV_SPECIAL)):
        return None
    head_end = text.find("\n")
    raw_header = text[:max(head_end, 0)].split(",")
    header = [cell.strip() for cell in raw_header]
    if head_end < 0 or not any(header) or max(map(len, raw_header)) > csv.field_size_limit():
        return None
    try:
        date_idx, price_idx, volume_idx = _header_columns(header, config)
    except UnknownColumn:
        return None
    body_end = len(text) - text.endswith("\n")
    blocks = []
    start = head_end + 1
    while start < body_end:
        end = text.find("\n", start + _BLOCK_CHARS, body_end)
        end = body_end if end < 0 else end
        block = _parse_block(text[start:end], len(header), date_idx, price_idx, volume_idx)
        if block is None:
            return None
        blocks.append(block)
        start = end + 1
    if not blocks:
        return None
    dates, close, volume, volume_mask = (np.concatenate(column) for column in zip(*blocks))
    if not np.all(dates[1:] > dates[:-1]):
        order = np.argsort(dates, kind="stable")
        dates, close, volume, volume_mask = (c[order] for c in (dates, close, volume, volume_mask))
        if np.any(dates[1:] == dates[:-1]):
            return None
    return dates, close, volume, volume_mask


def _parse_block(block: str, n_cols: int, date_idx: int, price_idx: int, volume_idx):
    """Columns of the lines in ``block`` (no trailing newline), or None."""
    raw = np.frombuffer(block.encode("ascii"), dtype=np.uint8)
    ends = np.append(np.flatnonzero((raw == ord(",")) | (raw == ord("\n"))), raw.size)
    n_rows = ends.size // n_cols
    # Every n_cols-th cell, and no other, must end its line.
    line_ends = raw[ends[:-1]] == ord("\n")
    if np.count_nonzero(line_ends) != n_rows - 1 or not line_ends[n_cols - 1::n_cols].all():
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts
    if lengths.max() > csv.field_size_limit():
        return None

    if not np.all(lengths[date_idx::n_cols] == 10):
        return None
    chars = raw[starts[date_idx::n_cols, None] + np.arange(10)]
    digits = chars[:, [0, 1, 2, 3, 5, 6, 8, 9]] - np.uint8(ord("0"))
    if np.any(digits > 9) or np.any(chars[:, [4, 7]] != ord("-")):
        return None
    digits = digits.astype(np.int64)
    year = digits[:, 0] * 1000 + digits[:, 1] * 100 + digits[:, 2] * 10 + digits[:, 3]
    month = digits[:, 4] * 10 + digits[:, 5]
    day = digits[:, 6] * 10 + digits[:, 7]
    if np.any(year < 1) or np.any((month < 1) | (month > 12)):
        return None
    months = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    dates = months.astype("datetime64[D]") + (day - 1)
    if np.any(dates.astype("datetime64[M]") != months):
        return None  # day 00, or a day past the end of its month

    cells = block.replace("\n", ",").split(",")
    try:
        close = np.fromiter(map(float, cells[price_idx::n_cols]), dtype=float, count=n_rows)
        volume = np.zeros(n_rows, dtype=np.int64)
        if volume_idx is None:
            volume_mask = np.zeros(n_rows, dtype=bool)
        else:
            volume_mask = lengths[volume_idx::n_cols] > 0
            volume[volume_mask] = np.fromiter(
                map(int, filter(None, cells[volume_idx::n_cols])), dtype=np.int64
            )
    except (ValueError, OverflowError):
        return None
    if not np.all(np.isfinite(close) & (close > 0)) or np.any(volume < 0):
        return None
    return dates, close, volume, volume_mask


def _parse_rows(text: str, config: IngestConfig, index_name: str) -> DailySeries:
    """``parse_daily_file`` one csv row at a time: every dialect, every error."""
    reader = csv.reader(io.StringIO(text), delimiter=config.delimiter)

    header: list[str] | None = None
    ordinals, closes, volumes, volume_mask = [], [], [], []
    try:
        for row in reader:
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue  # tolerate blank lines, they are not data rows
            line_no = reader.line_num
            if header is None:
                header = cells
                date_idx, price_idx, volume_idx = _header_columns(header, config)
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
            volume = _parse_volume(cells[volume_idx], line_no) if volume_idx is not None else None
            volumes.append(volume or 0)
            volume_mask.append(volume is not None)
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
        dates, np.array(closes)[order], np.array(volumes, dtype=np.int64)[order], index_name,
        np.array(volume_mask)[order],
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
