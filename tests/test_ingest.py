import io
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import series_from_records, volume_columns
from marketreg import ingest
from marketreg.errors import (
    DuplicateDate,
    EmptySeries,
    MalformedRow,
    MarketRegError,
    UnknownColumn,
)
from marketreg.ingest import (
    IngestConfig,
    parse_daily_file,
    parse_daily_path,
    write_daily_file,
)
from marketreg.series import DailyRecord, DailySeries
from marketreg.simulate import GbmParams, simulate_gbm, simulate_volume

MINIMAL = "Date,Close,Volume\n2019-04-01,100.5,1200000\n2019-04-02,101.0,1250000\n"


class TestParse:
    def test_minimal_file(self):
        s = parse_daily_file(MINIMAL, index_name="mini")
        assert len(s) == 2
        assert s.index_name == "mini"
        assert s.records[0] == DailyRecord(date(2019, 4, 1), 100.5, 1200000)
        assert s.records[1] == DailyRecord(date(2019, 4, 2), 101.0, 1250000)

    def test_accepts_bytes_and_streams(self):
        assert parse_daily_file(MINIMAL.encode()) == parse_daily_file(MINIMAL)
        assert parse_daily_file(io.BytesIO(MINIMAL.encode())) == parse_daily_file(
            io.StringIO(MINIMAL)
        )

    def test_rows_sorted_on_ingest(self):
        reversed_rows = (
            "Date,Close,Volume\n2019-04-02,101.0,1250000\n2019-04-01,100.5,1200000\n"
        )
        assert parse_daily_file(reversed_rows) == parse_daily_file(MINIMAL)

    def test_malformed_price_cell(self):
        text = "Date,Close,Volume\n2019-04-01,abc,5\n"
        with pytest.raises(MalformedRow) as exc:
            parse_daily_file(text)
        assert exc.value.line_no == 2

    def test_empty_price_cell_rejected(self):
        text = "Date,Close\n2019-04-01,100\n2019-04-02,\n"
        with pytest.raises(MalformedRow) as exc:
            parse_daily_file(text)
        assert exc.value.line_no == 3

    def test_nonpositive_price_rejected(self):
        for bad in ("0", "-5.2"):
            with pytest.raises(MalformedRow):
                parse_daily_file(f"Date,Close\n2019-04-01,{bad}\n")

    def test_bad_date_cell(self):
        with pytest.raises(MalformedRow):
            parse_daily_file("Date,Close\n01/04/2019,100\n")

    def test_short_row(self):
        with pytest.raises(MalformedRow):
            parse_daily_file("Date,Close\n2019-04-01\n")

    def test_volume_variants(self):
        text = "Date,Close,Volume\n2019-04-01,1,0\n2019-04-02,1,\n2019-04-03,1,2.0\n"
        s = parse_daily_file(text)
        assert s.volumes() == [0, None, 2]

    def test_bad_volume_cells(self):
        for bad in ("-3", "x", "2.5"):
            with pytest.raises(MalformedRow):
                parse_daily_file(f"Date,Close,Volume\n2019-04-01,1,{bad}\n")

    @pytest.mark.parametrize("row, config, reason", [
        ("2019-04-01, abc ,5", IngestConfig(), "unparseable price 'abc'"),
        ("2019-04-01, nan ,5", IngestConfig(), "non-finite price 'nan'"),
        ("2019-04-01; 1,5x ;5", IngestConfig(delimiter=";", decimal_comma=True),
         "unparseable price '1,5x'"),
        ("2019-04-01,1, x ", IngestConfig(), "unparseable volume 'x'"),
        ("2019-04-01,1, 2.5 ", IngestConfig(), "non-integer volume '2.5'"),
    ])
    def test_cell_errors_quote_the_cell_as_stripped(self, row, config, reason):
        header = config.delimiter.join(["Date", "Close", "Volume"])
        with pytest.raises(MalformedRow) as exc:
            parse_daily_file(f"{header}\n{row}\n", config)
        assert str(exc.value) == f"line 2: {reason}"

    def test_duplicate_date(self):
        text = "Date,Close\n2019-04-01,100\n2019-04-01,101\n"
        with pytest.raises(DuplicateDate) as exc:
            parse_daily_file(text)
        assert exc.value.date == date(2019, 4, 1)

    def test_empty_inputs(self):
        with pytest.raises(EmptySeries):
            parse_daily_file("Date,Close\n")
        with pytest.raises(EmptySeries):
            parse_daily_file(b"")
        with pytest.raises(EmptySeries):
            parse_daily_file("\n\n")

    def test_unknown_columns(self):
        with pytest.raises(UnknownColumn):
            parse_daily_file(MINIMAL, IngestConfig(price_column="close"))
        with pytest.raises(UnknownColumn):
            parse_daily_file(
                "Date,Close\n2019-04-01,1\n", IngestConfig(volume_column="Turnover")
            )

    def test_missing_volume_column_is_fine_by_default(self):
        s = parse_daily_file("Date,Close\n2019-04-01,1\n2019-04-02,2\n")
        assert s.volumes() == [None, None]
        assert not s.has_volume()

    def test_volume_header_found_case_insensitively(self):
        s = parse_daily_file("Date,Close,volume\n2019-04-01,1,5\n")
        assert s.volumes() == [5]

    def test_config_overrides(self):
        text = "When;Price\n01/04/2019;1,5\n02/04/2019;2,5\n"
        cfg = IngestConfig(
            date_column="When",
            price_column="Price",
            date_format="%d/%m/%Y",
            delimiter=";",
            decimal_comma=True,
        )
        s = parse_daily_file(text, cfg)
        assert s.close.tolist() == [1.5, 2.5]

    def test_header_whitespace_tolerated(self):
        s = parse_daily_file("Date, Close\n2019-04-01, 3.5\n")
        assert s.close.tolist() == [3.5]

    def test_invalid_utf8_is_structured(self):
        with pytest.raises(MalformedRow):
            parse_daily_file(b"Date,Close\n\xff\xfe,1\n")

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            IngestConfig(date_column="Same", price_column="Same")
        with pytest.raises(ValueError):
            IngestConfig(delimiter=",,")
        with pytest.raises(ValueError):
            IngestConfig(delimiter="\t")

    @pytest.mark.parametrize(
        "cell, expected",
        [
            ("2019-04-01", date(2019, 4, 1)),
            ("2019-4-1", date(2019, 4, 1)),
            ("2019-04-1", date(2019, 4, 1)),
            ("2019-4-01", date(2019, 4, 1)),
            ("0001-01-01", date(1, 1, 1)),
        ],
    )
    def test_iso_dates_accepted_as_strptime_does(self, cell, expected):
        s = parse_daily_file(f"Date,Close\n{cell},2\n")
        assert s.dates[0].item() == expected

    @pytest.mark.parametrize(
        "cell", ["20190401", "2019-W14-1", "2019-02-30", "2019-04-01T00:00", "2019-04-0\u0661"]
    )
    def test_non_strptime_dates_rejected_on_their_line(self, cell):
        # date.fromisoformat alone would accept the first two.
        with pytest.raises(MalformedRow) as exc:
            parse_daily_file(f"Date,Close\n2019-04-01,1\n\n{cell},2\n")
        assert exc.value.line_no == 4
        assert "unparseable date" in str(exc.value)

    def test_custom_date_format_still_uses_strptime(self):
        s = parse_daily_file("Date,Close\n01/04/2019,1\n2/4/2019,2\n",
                             IngestConfig(date_format="%d/%m/%Y"))
        assert [r.date for r in s.records] == [date(2019, 4, 1), date(2019, 4, 2)]
        with pytest.raises(MalformedRow) as exc:
            parse_daily_file("Date,Close\n01/04/2019,1\n2019-04-02,2\n",
                             IngestConfig(date_format="%d/%m/%Y"))
        assert exc.value.line_no == 3

    def test_volume_beyond_int64_rejected(self):
        with pytest.raises(MalformedRow) as exc:
            parse_daily_file(f"Date,Close,Volume\n2019-04-01,1,{2**63}\n")
        assert exc.value.line_no == 2
        largest = parse_daily_file(f"Date,Close,Volume\n2019-04-01,1,{2**63 - 1}\n")
        assert largest.volumes() == [2**63 - 1]

    def test_parse_path_uses_stem(self, tmp_path):
        p = tmp_path / "NIFTY.csv"
        p.write_text(MINIMAL)
        assert parse_daily_path(p).index_name == "NIFTY"


dates_strategy = st.lists(
    st.integers(min_value=0, max_value=20000), min_size=1, max_size=60, unique=True
).map(lambda days: sorted(date(1970, 1, 1) + timedelta(d) for d in days))


@st.composite
def series_strategy(draw):
    dates = draw(dates_strategy)
    closes = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1e9, allow_nan=False),
            min_size=len(dates),
            max_size=len(dates),
        )
    )
    with_volume = draw(st.booleans())
    volumes = [None] * len(dates)
    if with_volume:
        volumes = draw(
            st.lists(
                st.one_of(st.none(), st.integers(min_value=0, max_value=10**12)),
                min_size=len(dates),
                max_size=len(dates),
            )
        )
    records = tuple(
        DailyRecord(d, c, v) for d, c, v in zip(dates, closes, volumes)
    )
    return series_from_records(records, "roundtrip")


class TestRoundTrip:
    @given(series_strategy())
    @settings(max_examples=60)
    def test_write_then_parse_is_identity(self, series):
        buf = io.StringIO()
        write_daily_file(series, buf)
        again = parse_daily_file(buf.getvalue(), index_name=series.index_name)
        assert again == series

    def test_write_to_path(self, tmp_path):
        series = parse_daily_file(MINIMAL, index_name="mini")
        out = tmp_path / "out.csv"
        write_daily_file(series, out)
        assert parse_daily_path(out, index_name="mini") == series

    @given(st.binary(max_size=400))
    @settings(max_examples=120)
    def test_parse_is_total_over_byte_streams(self, blob):
        # Any byte stream either parses or raises one structured error.
        try:
            series = parse_daily_file(blob)
        except MarketRegError:
            return
        assert isinstance(series, DailySeries)


def _outcome(parse, source):
    """A parsed series, or the type, message and line number of the error."""
    try:
        return parse(source)
    except MarketRegError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


def _parse(source):
    return parse_daily_file(source, index_name="x")


def _row_loop(text):
    dates, close, volume, volume_mask = ingest._in_date_order(
        *ingest._parse_rows(text, IngestConfig()))
    return DailySeries(dates, close, volume, "x", volume_mask)


LAYOUTS = [
    ["Date", "Close"],
    ["Date", "Close", "Volume"],
    ["Date", "Open", "High", "Low", "Close", "Adj Close", "Volume"],
]
ODD_DATES = ["2019-4-1", "2019-02-30", "0000-01-01", "2019-04-0\u0661", "2020-02-29",
             "1900-02-29", "2000-02-29", "2019-13-01", "2019-00-10", "9999-12-31", "20190401",
             " 2019-04-01", "2019/04/01", "", "0001-01-01", "1969-12-31"]
ODD_CLOSES = ["nan", "-0.0", "1e3", "1_000", "inf", "0", "", " 5", "abc", "1e400", "+2.5"]
ODD_VOLUMES = ["1e6", "-1", str(2**63), str(2**63 - 1), "", "null", "2.0", " 7", "+5",
               "1_000", "-0", " "]
ODD_CELLS = {"Date": ODD_DATES, "Close": ODD_CLOSES, "Volume": ODD_VOLUMES}


@st.composite
def mutated_daily_texts(draw):
    """A canonical daily file in one of three layouts, then up to four edits
    that the column path must either handle or hand to the row loop."""
    header = list(draw(st.sampled_from(LAYOUTS)))
    days = sorted(draw(st.lists(st.integers(0, 3000), min_size=1, max_size=8, unique=True)))
    rows = []
    for day in days:
        row = []
        for name in header:
            if name == "Date":
                row.append((date(2018, 1, 1) + timedelta(day)).isoformat())
            elif name == "Volume":
                row.append(draw(st.sampled_from(["", "0", "1250000", str(2**63 - 1)])))
            else:
                row.append(repr(draw(st.floats(min_value=1e-6, max_value=1e9))))
        rows.append(row)

    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from([*ODD_CELLS, "pad", "quote", "ragged", "duplicate", "swap",
                                     "blank", "extra"]))
        r = draw(st.integers(0, len(rows) - 1))
        other = draw(st.integers(0, len(rows) - 1))
        c = header.index(edit) if edit in header else draw(st.integers(0, len(header) - 1))
        if edit in ODD_CELLS and edit in header and c < len(rows[r]):
            rows[r][c] = draw(st.sampled_from(ODD_CELLS[edit]))
        elif edit == "pad" and c < len(rows[r]):
            rows[r][c] = f" {rows[r][c]} "
        elif edit == "quote" and c < len(rows[r]):
            rows[r][c] = f'"{rows[r][c]}"'
        elif edit == "ragged":
            rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["9"]
        elif edit == "duplicate" and rows[r] and rows[other]:
            rows[r][0] = rows[other][0]
        elif edit == "swap":
            rows[r], rows[other] = rows[other], rows[r]
        elif edit == "blank":
            rows.insert(r, draw(st.sampled_from([[], [""] * len(header), ["  "]])))
        elif edit == "extra":
            header = header + ["Extra"]
            rows = [row + ["x"] for row in rows]

    eol = "\r\n" if draw(st.booleans()) else "\n"
    text = eol.join(",".join(row) for row in [header, *rows])
    if draw(st.booleans()):
        text += eol
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text


class TestColumnPath:
    """Plain files are read a column at a time; the row loop is the reference."""

    @given(mutated_daily_texts())
    @settings(max_examples=400)
    def test_same_series_or_same_error_as_the_row_loop(self, text):
        assert _outcome(_parse, text) == _outcome(_row_loop, text)
        data = text.encode("utf-8")
        assert _outcome(_parse, data) == _outcome(_row_loop, data.decode("utf-8-sig"))

    @pytest.mark.parametrize(
        "column, cell", [(column, cell) for column, cells in ODD_CELLS.items() for cell in cells]
    )
    def test_each_odd_cell_as_the_row_loop_reads_it(self, column, cell):
        rows = [["2018-01-02", "100.5", "1200"], ["2018-01-03", "101", "1250"], ["2018-01-04", "99", ""]]
        rows[1][["Date", "Close", "Volume"].index(column)] = cell
        text = "Date,Close,Volume\n" + "".join(",".join(row) + "\n" for row in rows)
        assert _outcome(_parse, text) == _outcome(_row_loop, text)

    def test_short_and_long_rows_that_balance_out(self):
        text = "Date,Close,Volume\n2019-04-01,100.5\n5,2019-04-02,101.0,7\n"
        assert _outcome(_parse, text) == _outcome(_row_loop, text)
        assert isinstance(_outcome(_parse, text), tuple)

    def test_errors_in_later_blocks_keep_their_line_numbers(self):
        lines = [f"{date(1900, 1, 1) + timedelta(k)},{1 + k / 7},{k}" for k in range(30_000)]
        good = "Date,Close,Volume\n" + "\n".join(lines) + "\n"
        assert _parse(good) == _row_loop(good)
        for k, row in [(25_000, "x,1,1"), (29_999, lines[0]), (17_000, lines[17_000] + ",")]:
            bad = lines.copy()
            bad[k] = row
            text = "Date,Close,Volume\n" + "\n".join(bad)
            assert _outcome(_parse, text) == _outcome(_row_loop, text)
        shuffled = "Date,Close,Volume\n" + "\n".join(lines[15_000:] + lines[:15_000])
        assert _parse(shuffled) == _row_loop(good)

    def test_a_cell_past_the_csv_field_limit_goes_to_the_row_loop(self):
        text = "Date,Close\n2019-04-01,1\n2019-04-02," + "1" * 200_000 + "\n"
        assert ingest._parse_columns(text, IngestConfig()) is None
        with pytest.raises(MalformedRow) as exc:
            parse_daily_file(text)
        assert str(exc.value) == "line 3: csv error: field larger than field limit (131072)"

    @pytest.fixture
    def without_row_loop(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the row loop read a plain file")

        monkeypatch.setattr(ingest, "_parse_rows", refuse)

    @pytest.fixture(scope="class")
    def long_path(self):
        return simulate_gbm(GbmParams(a=3e-4, b=0.012, s0=1000.0, n_days=50_000, seed=4),
                            index_name="x")

    def test_written_file_with_volumes(self, long_path, without_row_loop):
        series = long_path.with_volumes(simulate_volume(2e-4, 1e6, 0.1, 50_000, 5))
        buf = io.StringIO()
        write_daily_file(series, buf)
        assert parse_daily_file(buf.getvalue(), index_name="x") == series

    def test_written_file_without_volumes(self, long_path, without_row_loop):
        buf = io.StringIO()
        write_daily_file(long_path, buf)
        assert parse_daily_file(buf.getvalue().encode(), index_name="x") == long_path

    def test_repeated_date_is_refused_without_the_row_loop(self, without_row_loop):
        text = "Date,Close\n2019-04-02,101\n2019-04-01,100\n2019-04-02,102\n"
        with pytest.raises(DuplicateDate) as exc:
            parse_daily_file(text)
        assert exc.value.date == date(2019, 4, 2)

    def test_yahoo_layout(self, long_path, without_row_loop):
        volumes = [None if k % 7 == 3 else 1000 + k for k in range(len(long_path))]
        series = DailySeries(long_path.dates, long_path.close, index_name=long_path.index_name,
                             **volume_columns(volumes))
        rows = [
            f"{day},1.0,2.0,0.5,{close!r},{close!r},{'' if volume is None else volume}"
            for day, close, volume in zip(series.dates.tolist(), series.close.tolist(), volumes)
        ]
        text = "Date,Open,High,Low,Close,Adj Close,Volume\n" + "\n".join(rows) + "\n"
        assert parse_daily_file(text, index_name="x") == series

    def test_crlf_file_reads_as_its_lf_form(self, long_path, without_row_loop):
        series = long_path.with_volumes(simulate_volume(2e-4, 1e6, 0.1, 50_000, 5))
        buf = io.StringIO()
        write_daily_file(series, buf)
        crlf = buf.getvalue().replace("\n", "\r\n")
        assert parse_daily_file(crlf, index_name="x") == series
        assert parse_daily_file(crlf.encode(), index_name="x") == series
        assert parse_daily_file(crlf[:-2], index_name="x") == series

    @pytest.mark.parametrize("text", [
        "Date,Close\r2019-04-01,1\r2019-04-02,2\r",
        "Date,Close\r\n2019-04-01,1\r2019-04-02,2\r\n",
        "Date,Close\r\n2019-04-01,1\r\n2019-04-02,2\r",
        "Date,Close\r\n2019-04-01,1\r\r\n2019-04-02,2\r\n",
        "Date,Close\n2019-04-01,1\r,\n2019-04-02,2\n",
    ])
    def test_lone_carriage_return_goes_to_the_row_loop(self, text):
        assert ingest._parse_columns(text, IngestConfig()) is None
        assert _outcome(_parse, text) == _outcome(_row_loop, text)
