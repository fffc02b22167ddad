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
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import date as Date
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import DuplicateDate, EmptySeries, MalformedRow, UnknownColumn
from .series import DailySeries, calendar_months

DEFAULT_VOLUME_COLUMN = "Volume"
ISO_DATE_FORMAT = "%Y-%m-%d"
_EPOCH_ORDINAL = Date(1970, 1, 1).toordinal()


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
        if self.volume_column in (self.date_column, self.price_column):
            raise ValueError("volume_column must not be date_column or price_column")
        if len(self.delimiter) != 1 or not self.delimiter.isprintable():
            raise ValueError("delimiter must be a single printable character")


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


def _parse_price(text: str, config: IngestConfig, line_no: int) -> float:
    """The close in ``text``, a stripped cell."""
    if not text:
        raise MalformedRow(line_no, "empty price cell")
    try:
        value = float(text.replace(",", ".") if config.decimal_comma else text)
    except ValueError:
        raise MalformedRow(line_no, f"unparseable price {text!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(line_no, f"non-finite price {text!r}")
    if value <= 0:
        raise MalformedRow(line_no, f"nonpositive price {value}")
    return value


def _parse_volume(text: str, line_no: int) -> int | None:
    """The volume in ``text``, a stripped cell, or None when it is empty."""
    if not text:
        return None  # missing volume is allowed, zero volume is data
    try:
        value = int(text)
    except ValueError:
        try:
            as_float = float(text)
        except ValueError:
            raise MalformedRow(line_no, f"unparseable volume {text!r}") from None
        if not as_float.is_integer():
            raise MalformedRow(line_no, f"non-integer volume {text!r}")
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
    the row loop, which accepts the same inputs and raises every cell error.
    Either way, ``_in_date_order`` then sorts the rows and refuses a repeat.
    """
    config = config or IngestConfig()
    text = _as_text(source)
    columns = _parse_columns(text, config) or _parse_rows(text, config)
    dates, close, volume, volume_mask = _in_date_order(*columns)
    return DailySeries(dates, close, volume, index_name, volume_mask)


def _in_date_order(dates: np.ndarray, *columns: np.ndarray) -> tuple:
    """``dates`` and the ``columns`` read beside them, sorted stably by date
    when the dates are not already increasing. Raises DuplicateDate naming
    the first date, in date order, that appears twice."""
    if np.all(dates[1:] > dates[:-1]):
        return dates, *columns
    order = np.argsort(dates, kind="stable")
    dates = dates[order]
    repeated = np.flatnonzero(dates[1:] == dates[:-1])
    if repeated.size:
        raise DuplicateDate(dates[repeated[0]].item())
    return dates, *(column[order] for column in columns)


# Characters that make csv.reader read a line differently from a plain split
# on commas and newlines; a carriage return is plain only right before "\n".
_CSV_SPECIAL = ('"', "\0")
_BLOCK_CHARS = 1 << 18  # about 8,000 lines of a Date,Close,Volume file


def _parse_columns(text: str, config: IngestConfig):
    """Columns (dates, close, volume, volume_mask) of a plain file in file order, or None.

    The file must be ASCII comma-separated text with an ISO date format and
    no quotes, NUL characters or carriage returns other than CRLF line
    endings, which are read as LF; its first line is the header and every
    data line has exactly the header's number of cells. The body is read in
    blocks of whole lines: dates shaped exactly YYYY-MM-DD, year 0001 on, go
    through numpy's ISO parser, closes through ``float`` and volumes through
    ``int``, and every check the row loop makes is an array operation. None
    means the row loop must read the file; it then raises whatever error it
    would raise anyway.
    """
    if (config.date_format != ISO_DATE_FORMAT or config.delimiter != "," or config.decimal_comma
            or not text.isascii() or any(ch in text for ch in _CSV_SPECIAL)):
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
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
    return tuple(np.concatenate(column) for column in zip(*blocks))


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
    if not digits[:, :4].any(axis=1).all():
        return None  # year 0000, which numpy reads and Python's date cannot hold

    cells = block.replace("\n", ",").split(",")
    try:
        dates = np.array(cells[date_idx::n_cols], dtype="datetime64[D]")
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


def _parse_rows(text: str, config: IngestConfig) -> tuple:
    """Columns of any file in file order, one csv row at a time: every dialect, every cell error."""
    reader = csv.reader(io.StringIO(text), delimiter=config.delimiter)

    header: list[str] | None = None
    dates, closes, volumes, volume_mask = [], [], [], []
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
                dates.append(_parse_date(cells[date_idx], config.date_format))
            except ValueError:
                raise MalformedRow(line_no, f"unparseable date {cells[date_idx]!r}") from None
            closes.append(_parse_price(cells[price_idx], config, line_no))
            volume = _parse_volume(cells[volume_idx], line_no) if volume_idx is not None else None
            volumes.append(volume or 0)
            volume_mask.append(volume is not None)
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, f"csv error: {exc}") from None

    if header is None or not dates:
        raise EmptySeries("no data rows found")
    days = np.fromiter(map(Date.toordinal, dates), np.int64, len(dates)) - _EPOCH_ORDINAL
    return (days.astype("datetime64[D]"), np.array(closes),
            np.array(volumes, dtype=np.int64), np.array(volume_mask))


def parse_daily_path(
    path, config: IngestConfig | None = None, index_name: str | None = None
) -> DailySeries:
    """Parse a file on disk; the index name defaults to the file stem."""
    path = Path(path)
    with path.open("rb") as fh:
        return parse_daily_file(fh, config, index_name or path.stem)


_BLOCK_ROWS = 8192  # rows formatted by one % operation
_DAY_CELLS = np.array([f"{day:02d}" for day in range(1, 32)], dtype=object)


def format_rows(row_format: str, columns):
    """Text of the rows of ``columns`` (equal-length numpy arrays), one block
    of rows at a time: each block's cells, as Python values, fill
    ``row_format`` repeated once per row, so a ``%s`` float prints as its
    shortest round-trip repr."""
    n_cols = len(columns)
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [column[start:start + _BLOCK_ROWS].tolist() for column in columns]
        n_rows = len(block[0])
        cells = [None] * (n_rows * n_cols)
        for i, column in enumerate(block):
            cells[i::n_cols] = column
        yield (row_format * n_rows) % tuple(cells)


def _date_cells(dates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Object columns of "YYYY-MM-" and "DD" strings that together spell each
    of ``dates`` in ISO form. Each calendar month is cast to text once; every
    row takes its month's prefix and one of 31 day strings."""
    keys, group, _ = calendar_months(dates)
    months = keys.astype("datetime64[M]")
    prefixes = np.array([m + "-" for m in months.astype(str).tolist()], dtype=object)
    return prefixes[group], _DAY_CELLS[(dates - months[group]).astype(np.int64)]


def write_daily_file(series: DailySeries, dest) -> None:
    """Serialize to the canonical comma-delimited format.

    The output round-trips through ``parse_daily_file``: closes use the
    shortest decimal that reproduces the float exactly, and the Volume
    column is emitted only when at least one record carries a volume.
    """
    header, row_format = "Date,Close", "%s%s,%s"
    columns = [*_date_cells(series.dates), series.close]
    if series.has_volume():
        header, row_format = header + ",Volume", row_format + ",%s"
        volume = series.volume
        if not series.volume_mask.all():
            volume = np.where(series.volume_mask, volume.astype(object), "")
        columns.append(volume)

    opened = nullcontext(dest) if hasattr(dest, "write") else Path(dest).open("w", encoding="utf-8")
    with opened as fh:
        fh.write(header + "\n")
        fh.writelines(format_rows(row_format + "\n", columns))

