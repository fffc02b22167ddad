"""The block writers produce the same bytes as the row-by-row references.

``report._write_tsv`` and ``ingest.write_daily_file`` format a block of rows
with one ``%`` operation; ``helpers.reference_write_tsv`` and
``helpers.reference_write_daily_file`` join one row at a time with ``str``.
"""

import io
import tracemalloc
from datetime import date

import numpy as np
import pytest
from helpers import exponential_series, reference_write_daily_file, reference_write_tsv

from marketreg import ingest, report
from marketreg.estimators import analyze_index
from marketreg.ingest import write_daily_file
from marketreg.report import write_plot_files
from marketreg.series import DailySeries
from marketreg.simulate import GbmParams, simulate_gbm, simulate_volume


def gbm_path(n_days: int, seed: int, name: str = "idx", with_volume: bool = True) -> DailySeries:
    series = simulate_gbm(GbmParams(a=3e-4, b=0.012, s0=1000.0, n_days=n_days, seed=seed),
                          index_name=name)
    if with_volume:
        series = series.with_volumes(simulate_volume(2e-4, 1e6, 0.1, n_days, seed + 1))
    return series


def plot_bytes(series, tmp_path, monkeypatch) -> tuple[dict, dict]:
    """Plot files of ``series`` from the block writer and from the reference."""
    rep = analyze_index(series)
    written = {}
    for kind in ("block", "reference"):
        if kind == "reference":
            monkeypatch.setattr(report, "_write_tsv", reference_write_tsv)
        paths = write_plot_files(rep, tmp_path / kind)
        written[kind] = {p.name: p.read_bytes() for p in paths}
    return written["block"], written["reference"]


def daily_bytes(series, tmp_path) -> tuple[bytes, bytes]:
    write_daily_file(series, tmp_path / "block.csv")
    reference_write_daily_file(series, tmp_path / "reference.csv")
    buf = io.StringIO()
    write_daily_file(series, buf)
    block = (tmp_path / "block.csv").read_bytes()
    assert buf.getvalue().encode() == block
    return block, (tmp_path / "reference.csv").read_bytes()


def rows(data: bytes) -> list[list[str]]:
    """The data rows of a plot file, split into cells."""
    lines = data.decode().splitlines()
    return [line.split("\t") for line in lines if not line.startswith("#")][1:]


class TestSameBytesAsRowByRow:
    def test_path_with_volumes(self, tmp_path, monkeypatch):
        series = gbm_path(5500, 11)
        block, reference = plot_bytes(series, tmp_path, monkeypatch)
        assert len(block) == 6
        assert block == reference
        new, old = daily_bytes(series, tmp_path)
        assert new == old

    def test_path_without_volumes(self, tmp_path, monkeypatch):
        series = gbm_path(5500, 11, with_volume=False)
        block, reference = plot_bytes(series, tmp_path, monkeypatch)
        assert len(block) == 5
        assert block == reference
        new, old = daily_bytes(series, tmp_path)
        assert new == old
        assert new.startswith(b"Date,Close\n")

    def test_missing_and_zero_volumes(self, tmp_path, monkeypatch):
        series = gbm_path(5500, 12)
        volumes = [None if k % 5 == 1 else (0 if k % 7 == 2 else int(v))
                   for k, v in enumerate(series.volume)]
        series = series.with_volumes(volumes)
        block, reference = plot_bytes(series, tmp_path, monkeypatch)
        assert block == reference
        kept = sum(1 for v in volumes if v)
        assert len(rows(block["idx_daily_log_volume.tsv"])) == kept
        new, old = daily_bytes(series, tmp_path)
        assert new == old
        assert sum(line.endswith(",") for line in new.decode().splitlines()) == volumes.count(None)

    def test_amplitude_fit_unavailable(self, tmp_path, monkeypatch):
        series = exponential_series(0.0005, 600)
        assert analyze_index(series).gaussian is None
        block, reference = plot_bytes(series, tmp_path, monkeypatch)
        assert block == reference
        histogram = rows(block["exp_fluctuation_histogram.tsv"])
        assert histogram and all(row[2] == "" for row in histogram)
        new, old = daily_bytes(series, tmp_path)
        assert new == old

    def test_rows_across_block_boundaries(self, tmp_path, monkeypatch):
        n_days = 2 * ingest._BLOCK_ROWS + 3617
        assert n_days >= 20_000
        series = gbm_path(n_days, 13)
        block, reference = plot_bytes(series, tmp_path, monkeypatch)
        assert block == reference
        assert len(rows(block["idx_daily_log_price.tsv"])) == n_days
        new, old = daily_bytes(series, tmp_path)
        assert new == old

    def test_dates_before_year_1000(self, tmp_path, monkeypatch):
        base = gbm_path(800, 14)
        for start in ("0001-01-01", "0998-06-15"):
            dates = np.datetime64(start) + np.arange(800)
            series = DailySeries(dates, base.close, base.volume, "early", base.volume_mask)
            new, old = daily_bytes(series, tmp_path)
            assert new == old
            assert new.split(b"\n")[1].startswith(start.encode())
            block, reference = plot_bytes(series, tmp_path / start, monkeypatch)
            assert block == reference

    @pytest.mark.parametrize("partial_volume", [False, True], ids=["volume", "gapped-volume"])
    def test_dates_at_calendar_edges(self, tmp_path, partial_volume):
        days = [date(1, 1, 1), date(1, 1, 31), date(1, 2, 1), date(999, 12, 31), date(1000, 1, 1),
                date(1999, 12, 31), date(2000, 2, 28), date(2000, 2, 29), date(2000, 3, 1),
                date(2001, 4, 30), date(2001, 5, 31), date(9999, 11, 30), date(9999, 12, 1),
                date(9999, 12, 31)]
        volumes = [None if partial_volume and k % 3 == 1 else 10 * k for k in range(len(days))]
        series = DailySeries(days, np.linspace(1.0, 2.0, len(days)), volumes, "edges")
        new, old = daily_bytes(series, tmp_path)
        assert new == old
        lines = new.decode().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == [d.isoformat() for d in days]
        assert sum(line.endswith(",") for line in lines) == volumes.count(None)

    def test_index_name_with_percent(self, tmp_path, monkeypatch):
        series = gbm_path(1200, 15, name="100% S&P %s %d")
        block, reference = plot_bytes(series, tmp_path, monkeypatch)
        assert block == reference
        assert b"# index: 100% S&P %s %d\n" in block["100__S_P__s__d_daily_log_price.tsv"]

    def test_constant_mean_column_is_the_report_mean(self, tmp_path, monkeypatch):
        series = gbm_path(5500, 16)
        block, _ = plot_bytes(series, tmp_path, monkeypatch)
        mean = repr(analyze_index(series).mu)
        cells = rows(block["idx_fluctuation_series.tsv"])
        assert len(cells) == 5499
        assert all(row[2] == mean for row in cells)

    def test_constant_cell_with_percent_is_escaped(self, tmp_path):
        path = tmp_path / "c.tsv"
        report._write_tsv(path, ["%d"], ["x", "c"], [np.arange(3), "5%s"])
        reference_write_tsv(tmp_path / "r.tsv", ["%d"], ["x", "c"], [np.arange(3), "5%s"])
        assert path.read_bytes() == (tmp_path / "r.tsv").read_bytes()
        assert path.read_text() == "# %d\nx\tc\n0\t5%s\n1\t5%s\n2\t5%s\n"


def test_daily_file_memory_stays_below_10_mib(tmp_path):
    series = gbm_path(100_000, 17)
    tracemalloc.start()
    try:
        write_daily_file(series, tmp_path / "long.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "long.csv").stat().st_size > 3_000_000
    assert peak < 10 * 2**20


@pytest.mark.parametrize("n_rows", [0, 1, ingest._BLOCK_ROWS, ingest._BLOCK_ROWS + 1])
def test_format_rows_block_edges(n_rows):
    a = np.arange(n_rows)
    b = np.linspace(0.0, 1.0, n_rows)
    text = "".join(ingest.format_rows("%s|%s\n", [a, b]))
    assert text == "".join(f"{x}|{y!r}\n" for x, y in zip(a.tolist(), b.tolist()))
