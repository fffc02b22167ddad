import io
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    validate_series,
    write_daily_file,
)
from marketreg.series import DailyRecord, DailySeries

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
        assert s.closes().tolist() == [1.5, 2.5]

    def test_header_whitespace_tolerated(self):
        s = parse_daily_file("Date, Close\n2019-04-01, 3.5\n")
        assert s.closes().tolist() == [3.5]

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
        assert s.t_origin == expected

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
    return DailySeries(records, "roundtrip")


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


class TestValidate:
    def test_clean_records(self):
        s = parse_daily_file(MINIMAL)
        summary = validate_series(s)
        assert summary.n == 2
        assert summary.bad_prices == 0
        assert summary.missing_volumes == 0
        assert summary.first_date == date(2019, 4, 1)
        assert summary.last_date == date(2019, 4, 2)

    def test_counts_bad_prices(self):
        recs = (
            DailyRecord(date(2019, 1, 1), 100.0),
            DailyRecord(date(2019, 1, 2), 0.0),
            DailyRecord(date(2019, 1, 3), 100.0),
        )
        assert validate_series(DailySeries(recs)).bad_prices == 1

    def test_largest_single_day_move(self):
        recs = (
            DailyRecord(date(2019, 1, 1), 100.0),
            DailyRecord(date(2019, 1, 2), 150.0),
        )
        assert validate_series(DailySeries(recs)).max_abs_delta == 50.0

    def test_single_record_has_no_delta(self):
        recs = (DailyRecord(date(2019, 1, 1), 100.0),)
        assert validate_series(DailySeries(recs)).max_abs_delta is None

    def test_missing_volume_count(self):
        s = parse_daily_file("Date,Close,Volume\n2019-04-01,1,\n2019-04-02,1,5\n")
        assert validate_series(s).missing_volumes == 1
