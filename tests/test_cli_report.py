import argparse
import dataclasses
import errno
import hashlib
import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
import tempfile
import warnings
from datetime import date, timedelta
from pathlib import Path

import pytest

import marketreg
from marketreg import cli, estimators, report, series
from marketreg.cli import main
from marketreg.errors import MarketRegError
from marketreg.estimators import DEFAULT_BIN_WIDTH, VARIANCE_FIT_MODES, analyze_index
from marketreg.ingest import IngestConfig, parse_daily_path, write_daily_file
from marketreg.simulate import GbmParams
from marketreg.report import (
    _display,
    render_report_json,
    report_payload,
    write_plot_files,
)


def simulate_file(tmp_path, name="sim.csv", seed=321, days=2520, with_volume=True, extra=()):
    out = tmp_path / name
    argv = [
        "simulate", "--a", "0.0005", "--b", "0.015", "--s0", "1000",
        "--days", str(days), "--seed", str(seed), "--out", str(out),
    ]
    if with_volume:
        argv += ["--volume-nu", "0.0004", "--volume-noise", "0.1"]
    argv += list(extra)
    assert main(argv) == 0
    return out


class TestDisplayFormatting:
    def test_fixed_decimals(self):
        assert _display(0.05123, ".2f") == "0.05"
        assert _display(1.4949, ".3f") == "1.495"
        assert _display(0.0, ".3f") == "0.000"
        assert _display(None, ".2f") == "-"

    def test_scientific_below_milli(self):
        assert _display(0.0005, ".3f") == "5.00e-04"
        assert _display(-3.412e-6, ".3g") == "-3.41e-06"
        assert _display(0.00341, ".3g") == "0.00341"
        assert _display(None, ".3g") == "-"


class TestReportPayload:
    def test_payload_fields_and_determinism(self, tmp_path):
        path = simulate_file(tmp_path)
        series = parse_daily_path(path)
        rep = analyze_index(series)
        p1 = render_report_json(report_payload([rep]))
        p2 = render_report_json(report_payload([analyze_index(series)]))
        assert p1 == p2
        payload = json.loads(p1)
        row = payload["indices"][0]
        assert row["index_name"] == "sim"
        assert row["nu_pct_per_day"] is not None
        assert set(row["display"]) == {"a", "mu", "sigma", "m", "w", "nu"}
        assert "cross_index" not in payload

    def test_missing_volume_is_null_not_zero(self, tmp_path):
        path = simulate_file(tmp_path, with_volume=False)
        rep = analyze_index(parse_daily_path(path))
        row = report_payload([rep])["indices"][0]
        assert row["nu_pct_per_day"] is None
        assert row["display"]["nu"] == "-"
        assert "nu" in row["field_errors"]

    def test_three_equal_growth_rates_give_no_correlation(self, tmp_path, capsys):
        # One path under three names: a is the same for each, so r(a, m) is undefined.
        paths = [simulate_file(tmp_path, name=f"in{k}.csv", days=1200) for k in range(3)]
        out_dir = tmp_path / "out"
        assert main(["analyze", "--input", *map(str, paths), "--out", str(out_dir)]) == 0
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["cross_index"] == {"pearson_a_m": None, "n_indices": 3}
        assert "cross-index" not in capsys.readouterr().out

    def test_cross_index_present_from_three(self, tmp_path):
        reports = []
        for i, a in enumerate(("0.0002", "0.0004", "0.0006")):
            out = tmp_path / f"s{i}.csv"
            main(["simulate", "--a", a, "--b", "0.01", "--s0", "1000",
                  "--days", "1260", "--seed", str(40 + i), "--out", str(out)])
            reports.append(analyze_index(parse_daily_path(out)))
        payload = report_payload(reports)
        r = payload["cross_index"]["pearson_a_m"]
        assert r is not None and -1.0 <= r <= 1.0


def full_disk_on_third_file(monkeypatch) -> list:
    """Make the third plot file of the process fail part-way, as on a full
    disk, after its rows were formatted; returns the list of format calls."""
    calls, format_rows = [], report.format_rows

    def rows_then_full_disk(row_format, columns):
        calls.append(row_format)
        yield from format_rows(row_format, columns)
        if len(calls) == 3:
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(report, "format_rows", rows_then_full_disk)
    return calls


class TestPlotFiles:
    def test_monthly_rows_follow_the_report_month_filter(self, tmp_path):
        # The synthetic calendar has 21 trading days a month, so the path
        # ends in a 5-day month that the report's month filter drops.
        path = simulate_file(tmp_path, days=21 * 12 + 5, with_volume=False)
        rep = analyze_index(parse_daily_path(path))
        assert rep.n_months == 12
        files = {f.name: f for f in write_plot_files(rep, tmp_path / "plots")}
        for name in ("sim_monthly_mean_log.tsv", "sim_monthly_variance.tsv"):
            lines = files[name].read_text().splitlines()
            rows = [line for line in lines[1:] if not line.startswith("#")]
            assert len(rows) - 1 == rep.n_months  # less the column header
        assert "min_days" not in render_report_json(report_payload([rep]))

    def test_six_files_with_volume(self, tmp_path):
        path = simulate_file(tmp_path)
        series = parse_daily_path(path)
        rep = analyze_index(series)
        files = write_plot_files(rep, tmp_path / "plots")
        names = sorted(f.name.split("sim_", 1)[1] for f in files)
        assert names == sorted(
            [
                "daily_log_price.tsv",
                "fluctuation_series.tsv",
                "fluctuation_histogram.tsv",
                "monthly_mean_log.tsv",
                "monthly_variance.tsv",
                "daily_log_volume.tsv",
            ]
        )

    def test_a_failed_write_removes_every_file_of_the_call(self, tmp_path, monkeypatch):
        # The third file fails part-way, as on a full disk: it, the two files
        # written before it and the earlier run's file the first overwrote all go.
        rep = analyze_index(parse_daily_path(simulate_file(tmp_path)))
        out_dir = tmp_path / "plots"
        out_dir.mkdir()
        (out_dir / "sim_daily_log_price.tsv").write_text("an earlier run\n")
        calls = full_disk_on_third_file(monkeypatch)
        with pytest.raises(OSError, match="No space left"):
            write_plot_files(rep, out_dir)
        assert len(calls) == 3
        assert list(out_dir.iterdir()) == []

    def test_a_failed_analyze_write_names_its_file_and_keeps_the_earlier_one(
            self, tmp_path, monkeypatch, capsys):
        path = simulate_file(tmp_path)
        plots_dir = tmp_path / "out" / "plots"
        plots_dir.mkdir(parents=True)
        failing = plots_dir / "sim_fluctuation_histogram.tsv"
        failing.write_text("an earlier run\n")
        calls = full_disk_on_third_file(monkeypatch)
        capsys.readouterr()
        assert main(["analyze", "--input", str(path), "--out", str(tmp_path / "out"),
                     "--plots"]) == 2
        assert len(calls) == 3
        assert capsys.readouterr() == ("", f"error: {failing}: No space left on device\n")
        # The failing view's earlier file is never opened; no temporary name is left.
        assert [p.name for p in plots_dir.iterdir()] == [failing.name]
        assert failing.read_text() == "an earlier run\n"
        assert not (tmp_path / "out" / "report.json").exists()

    def test_a_symlink_at_a_plot_path_is_replaced(self, tmp_path):
        rep = analyze_index(parse_daily_path(simulate_file(tmp_path)))
        target = tmp_path / "elsewhere.tsv"
        target.write_text("not a plot file\n")
        link = tmp_path / "plots" / "sim_daily_log_price.tsv"
        link.parent.mkdir()
        link.symlink_to(target)
        assert link in write_plot_files(rep, tmp_path / "plots")
        assert not link.is_symlink()
        assert target.read_text() == "not a plot file\n"

    def test_volume_file_skipped_without_volume(self, tmp_path):
        path = simulate_file(tmp_path, with_volume=False)
        series = parse_daily_path(path)
        files = write_plot_files(analyze_index(series), tmp_path / "plots")
        assert len(files) == 5
        assert not any("volume" in f.name for f in files)

    def test_embedded_slopes_equal_report_exactly(self, tmp_path):
        path = simulate_file(tmp_path)
        series = parse_daily_path(path)
        rep = analyze_index(series)
        files = {f.name: f for f in write_plot_files(rep, tmp_path / "plots")}

        def embedded(fname, key):
            for line in files[fname].read_text().splitlines():
                if line.startswith("#") and key in line:
                    return float(line.split(key + " = ", 1)[1].split(";", 1)[0])
            raise AssertionError(f"{key} not found in {fname}")

        assert embedded("sim_daily_log_price.tsv", "slope_pct_per_day") == rep.a
        assert embedded("sim_monthly_mean_log.tsv", "slope_per_month") == rep.m
        assert embedded("sim_monthly_variance.tsv", "slope_per_month") == rep.w
        assert embedded("sim_daily_log_volume.tsv", "slope_pct_per_day") == rep.nu

    def test_written_from_the_report_alone(self, tmp_path, monkeypatch):
        # analyze_index is the only place intermediates are computed: with
        # every function that computes one made to raise, wherever it is
        # looked up, the plot files still come out byte for byte the same.
        rep = analyze_index(parse_daily_path(simulate_file(tmp_path)))
        before = {f.name: f.read_bytes() for f in write_plot_files(rep, tmp_path / "before")}
        assert len(before) == 6

        def recomputed(*_args, **_kwargs):
            raise AssertionError("an intermediate was computed again")

        names = ["log_series", "daily_fluctuations", "build_histogram", "monthly_aggregates",
                 "log_volumes"]
        for module in (series, estimators, report):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, recomputed)
        after = {f.name: f.read_bytes() for f in write_plot_files(rep, tmp_path / "after")}
        assert after == before

    def test_fitted_column_consistent_with_fit(self, tmp_path):
        path = simulate_file(tmp_path, with_volume=False)
        series = parse_daily_path(path)
        rep = analyze_index(series)
        files = {f.name: f for f in write_plot_files(rep, tmp_path / "plots")}
        body = [
            line.split("\t")
            for line in files["sim_daily_log_price.tsv"].read_text().splitlines()
            if line and not line.startswith("#")
        ]
        header, rows = body[0], body[1:]
        assert header == ["t_days", "ln_close", "fit_ln_close"]
        fit = rep.diagnostics["daily_growth"]
        for t, _, fitted in rows[:10]:
            assert float(fitted) == pytest.approx(
                fit.intercept + fit.slope * int(t), rel=1e-12
            )


class TestAnalyzeCommand:
    def test_report_written_and_exit_zero(self, tmp_path, capsys):
        path = simulate_file(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["analyze", "--input", str(path), "--out", str(out_dir)]) == 0
        payload = json.loads((out_dir / "report.json").read_text())
        assert len(payload["indices"]) == 1
        assert "report written" in capsys.readouterr().out

    def test_plots_flag_emits_tsv(self, tmp_path):
        path = simulate_file(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["analyze", "--input", str(path), "--out", str(out_dir), "--plots"]) == 0
        plots = list((out_dir / "plots").glob("*.tsv"))
        assert len(plots) == 6

    def test_an_inputs_report_keeps_no_plot_arrays(self, tmp_path):
        # A worker sends its reports back through a pipe; it writes the plot
        # files itself, so nothing reads the arrays after it.
        path = simulate_file(tmp_path)
        full = analyze_index(parse_daily_path(path))
        arrays = ["ln_close", "fluctuations", "histogram", "monthly", "volume_t", "ln_volume"]
        assert all(getattr(full, name) is not None for name in arrays)
        for flags, n_files in (([], 0), (["--plots"], 6)):
            args = cli.build_parser().parse_args(["analyze", "--input", str(path), *flags])
            stripped, staged = cli._analyze_input(path, IngestConfig(), args, tmp_path / "stage")
            assert all(getattr(stripped, name) is None for name in arrays)
            assert report_payload([stripped]) == report_payload([full])
            assert len(staged) == n_files

    def test_the_option_defaults_are_the_librarys(self):
        parser = cli.build_parser()
        args = parser.parse_args(["analyze", "--input", "in.csv"])
        config = {f.name: getattr(args, f.name) for f in dataclasses.fields(IngestConfig)}
        assert IngestConfig(**config) == IngestConfig()
        assert (args.variance_fit, args.bin_width) == (VARIANCE_FIT_MODES[0], DEFAULT_BIN_WIDTH)
        args = parser.parse_args(["simulate", "--a", "0", "--b", "0", "--s0", "1", "--days", "1",
                                  "--seed", "0", "--out", "sim.csv"])
        assert (args.dt, args.decay_to) == (GbmParams.dt, GbmParams.b_end)

    def test_missing_file_exits_2_without_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        rc = main(["analyze", "--input", str(tmp_path / "nope.csv"), "--out", str(out_dir)])
        assert rc == 2
        assert not (out_dir / "report.json").exists()
        assert "nope.csv" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("Date,Close\n2019-01-01,abc\n")
        rc = main(["analyze", "--input", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.csv" in err and "line 2" in err

    def test_non_finite_close_exits_2_on_its_line(self, tmp_path, capsys):
        bad = tmp_path / "inf.csv"
        bad.write_text("Date,Close\n2019-01-01,1.5\n2019-01-02,inf\n")
        rc = main(["analyze", "--input", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line 3: non-finite price 'inf'" in capsys.readouterr().err

    def test_fluctuation_overflow_exits_2_naming_both_days(self, tmp_path, capsys):
        bad = tmp_path / "tiny.csv"
        bad.write_text("Date,Close\n2019-01-01,1.5\n2019-01-02,1e-300\n2019-01-03,1e300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["analyze", "--input", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "t=1 (2019-01-02) is 1e-300, close at t=2 (2019-01-03) is 1e+300" in err
        assert "RuntimeWarning" not in err and "overflow encountered" not in err

    @pytest.mark.parametrize("factor, reason", [
        (1e6, "need more than 4194304 bins of 0.1%"),
        (1e13, "need more than 4194304 bins of 0.1%"),
        (1e200, "the mean square of the fluctuations overflows float64"),
    ])
    def test_a_jump_too_wide_to_bin_exits_2_in_bounded_memory(self, tmp_path, factor, reason):
        # Every close from row 500 on is multiplied by factor, so the histogram
        # would need from 1e9 to 1e202 bins; the child may map at most 1 GiB.
        parsed = parse_daily_path(simulate_file(tmp_path, days=1300, with_volume=False))
        close = parsed.close.copy()
        close[500:] *= factor
        path = tmp_path / "jump.csv"
        write_daily_file(series.DailySeries(parsed.dates, close), path)
        out_dir = tmp_path / "out"
        # One BLAS thread keeps numpy's own reservation small under the cap.
        proc = subprocess.run(
            [sys.executable, "-c", LIMITED_CLI, "analyze", "--input", str(path),
             "--out", str(out_dir)],
            capture_output=True, text=True, timeout=60,
            env={**child_env(), "OPENBLAS_NUM_THREADS": "1"})
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ") and reason in lines[0]
        assert not (out_dir / "report.json").exists()

    @pytest.mark.parametrize("factor", [1e4, 1e13])
    def test_bins_finer_than_float64_spacing_exit_2_naming_the_input(self, tmp_path, capsys,
                                                                     factor):
        # Every close is factor times the last, so every change is the same
        # huge percentage, and 0.1% bins near it round unevenly (1e4) or onto
        # each other (1e13). The 23 calendar days fill two months.
        path = tmp_path / "jump.csv"
        days = [date(2000, 1, 19) + timedelta(days=k) for k in range(23)]
        path.write_text("Date,Close\n" + "".join(f"{d},{factor**k!r}\n" for k, d in enumerate(days)))
        out_dir = tmp_path / "out"
        assert main(["analyze", "--input", str(path), "--out", str(out_dir)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: {path}: fluctuations from ")
        assert errors[0].endswith(" are too large for float64 to space bins of 0.1%")
        assert not (out_dir / "report.json").exists()

    def test_estimation_error_exits_3_without_report(self, tmp_path, capsys):
        short = simulate_file(tmp_path, name="short.csv", days=30, with_volume=False)
        out_dir = tmp_path / "out"
        rc = main(["analyze", "--input", str(short), "--out", str(out_dir)])
        assert rc == 3
        assert not (out_dir / "report.json").exists()
        assert "short" in capsys.readouterr().err

    def test_unknown_column_override_exits_2(self, tmp_path):
        path = simulate_file(tmp_path)
        rc = main(["analyze", "--input", str(path), "--price-column", "Prix",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_short_series_warns(self, tmp_path, capsys):
        path = simulate_file(tmp_path, name="tiny.csv", days=500, with_volume=False)
        assert main(["analyze", "--input", str(path), "--out", str(tmp_path / "o")]) == 0
        assert "warning" in capsys.readouterr().err

    def test_multiple_inputs_in_order(self, tmp_path):
        p1 = simulate_file(tmp_path, name="one.csv", seed=1)
        p2 = simulate_file(tmp_path, name="two.csv", seed=2)
        out_dir = tmp_path / "out"
        assert main(["analyze", "--input", str(p1), str(p2), "--out", str(out_dir)]) == 0
        payload = json.loads((out_dir / "report.json").read_text())
        assert [r["index_name"] for r in payload["indices"]] == ["one", "two"]

    @pytest.mark.parametrize("names", [("x/a b.csv", "y/a_b.csv"), ("x/sp.csv", "y/sp.csv")])
    def test_plot_name_collision_exits_2_without_files(self, tmp_path, capsys, names):
        paths = [simulate_file(tmp_path, name=name, seed=k + 1) for k, name in enumerate(names)]
        out_dir = tmp_path / "out"
        capsys.readouterr()
        rc = main(["analyze", "--input", *map(str, paths), "--out", str(out_dir), "--plots"])
        assert rc == 2
        assert not out_dir.exists()
        err = capsys.readouterr().err
        assert f"error: {paths[0]} and {paths[1]} would both write plot files named" in err
        # Without --plots nothing is overwritten, so the same inputs are fine.
        assert main(["analyze", "--input", *map(str, paths), "--out", str(out_dir)]) == 0

    @pytest.mark.parametrize("width", ["nan", "inf"])
    def test_a_non_finite_bin_width_exits_2(self, tmp_path, capsys, width):
        path = simulate_file(tmp_path, days=1200)
        out_dir = tmp_path / "out"
        capsys.readouterr()
        rc = main(["analyze", "--input", str(path), "--bin-width", width, "--out", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr().err == "error: bin_width must be finite and > 0\n"
        assert not out_dir.exists()

    def test_variance_fit_origin_mode(self, tmp_path):
        path = simulate_file(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["analyze", "--input", str(path), "--out", str(out_dir),
                     "--variance-fit", "origin"]) == 0
        payload = json.loads((out_dir / "report.json").read_text())
        row = payload["indices"][0]
        assert row["variance_fit_mode"] == "origin"
        assert row["diagnostics"]["variance_decline"]["intercept"] == 0.0


def force_cpus(monkeypatch, n: int) -> None:
    """Make ``analyze`` see ``n`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def per_process(in_parent, in_children):
    """A function that calls ``in_parent`` in this process and ``in_children``
    in the children forked from it."""
    parent_pid = os.getpid()
    return lambda *args, **kwargs: (
        in_parent if os.getpid() == parent_pid else in_children)(*args, **kwargs)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")


def fork_failing_at(position: int):
    """A stand-in ``os.fork`` whose ``position``-th call fails as on a full process table."""
    real_fork, forks = os.fork, []

    def fork():
        forks.append(1)
        if len(forks) == position:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()
    return fork


def stage_then_die(*args):
    """A plot writer that writes its files, then ends its process without a result."""
    write_plot_files(*args)
    os._exit(1)


def full_disk_on_histogram_of(monkeypatch, stem: str) -> None:
    """Make the histogram file of index ``stem`` fail part-way, as on a full disk."""
    write_atomic = report._write_atomic

    def then_full_disk(chunks):
        yield from chunks
        raise OSError(errno.ENOSPC, "No space left on device")

    def write_or_fail(path, chunks):
        if path.name == f"{stem}_fluctuation_histogram.tsv":
            chunks = then_full_disk(chunks)
        write_atomic(path, chunks)

    monkeypatch.setattr(report, "_write_atomic", write_or_fail)


def die_on(stem: str):
    """A stand-in ``analyze_index`` that ends a child process without a
    result when it reaches index ``stem``."""
    def analyze_or_die(series, **kwargs):
        if series.index_name == stem:
            os._exit(1)
        return analyze_index(series, **kwargs)
    return per_process(analyze_index, analyze_or_die)


def failure_cases() -> list:
    """(workers, failure, position) of each failed run: the position of the
    failing input among three, or for a failed fork, which fork fails. A dead
    worker is placed on the first or the last input a child handles."""
    cases = []
    for workers in (1, 2, 3):
        for failure in ("parse", "analysis", "full disk"):
            cases += [(workers, failure, 0), (workers, failure, 2)]
        if workers > 1:
            children = [k for k in range(3) if k % workers]
            cases += [pytest.param(workers, "fork", k, marks=needs_fork)
                      for k in sorted({1, workers - 1})]
            cases += [pytest.param(workers, "dead worker", k, marks=needs_fork)
                      for k in sorted({children[0], children[-1]})]
    return cases


def analyze_through_a_plots_link(tmp_path, capsys, target):
    """Run ``analyze --plots`` into an ``out/plots`` that links to ``target``
    and into a plain one, and check that both write the same files and print
    the same lines."""
    paths = [simulate_file(tmp_path, name=f"in{k}.csv", seed=k + 1, days=1200) for k in range(2)]
    runs = []
    for name in ("plain", "linked"):
        out_dir = tmp_path / name
        if name == "linked":
            out_dir.mkdir()
            (out_dir / "plots").symlink_to(target, target_is_directory=True)
        capsys.readouterr()
        assert main(["analyze", "--input", *map(str, paths), "--out", str(out_dir),
                     "--plots"]) == 0
        files = {p.name: p.read_bytes() for p in (out_dir / "plots").iterdir()}
        files["report.json"] = (out_dir / "report.json").read_bytes()
        captured = capsys.readouterr()
        runs.append((files, captured.out.replace(str(out_dir), "OUT"), captured.err))
    assert len(runs[0][0]) == 2 * 6 + 1
    assert runs[0] == runs[1]
    assert (tmp_path / "linked" / "plots").is_symlink()


class TestWorkerProcesses:
    def test_outputs_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch, capsys):
        # The second input is short enough to be warned about.
        paths = [simulate_file(tmp_path, name=f"in{k}.csv", seed=k + 1, days=900 if k == 1 else 1200,
                               with_volume=k % 2 == 0) for k in range(4)]
        forks = []
        real_fork = getattr(os, "fork", None)
        if real_fork:
            monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        runs = {}
        for workers in (1, 2, 3):
            force_cpus(monkeypatch, workers)
            forks.clear()
            capsys.readouterr()
            out_dir = tmp_path / f"out{workers}"
            assert main(["analyze", "--input", *map(str, paths), "--out", str(out_dir),
                         "--plots"]) == 0
            if real_fork:
                assert len(forks) == workers - 1  # one phase
            files = {p.relative_to(out_dir): p.read_bytes() for p in out_dir.rglob("*.tsv")}
            files["report.json"] = (out_dir / "report.json").read_bytes()
            captured = capsys.readouterr()
            runs[workers] = (files, captured.out.replace(str(out_dir), "OUT"), captured.err)
        assert len(runs[1][0]) == 4 * 6 - 2 + 1  # two inputs without volume
        assert runs[1][2] == "warning: in1: only 900 trading days; estimates are noisy below 1000\n"
        assert runs[1] == runs[2] == runs[3]

    def test_one_process_per_usable_cpu_and_input(self, monkeypatch):
        force_cpus(monkeypatch, 3)
        assert [cli._process_count(n) for n in (1, 2, 3, 6)] == [1, 2, 3, 3]
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert cli._process_count(6) == 2
        monkeypatch.delattr(os, "fork", raising=False)
        assert cli._process_count(6) == 1

    @pytest.mark.parametrize("workers", [2, 3])
    def test_an_earlier_analysis_error_beats_a_later_parse_error(self, tmp_path, monkeypatch,
                                                                 capsys, workers):
        short = simulate_file(tmp_path, name="short.csv", days=30, with_volume=False)
        good = simulate_file(tmp_path, name="good.csv", days=1200)
        bad = tmp_path / "bad.csv"
        bad.write_text("Date,Close\n2019-01-01,abc\n")
        force_cpus(monkeypatch, workers)
        out_dir = tmp_path / "out"
        rc = main(["analyze", "--input", *map(str, [short, good, good, bad]), "--out", str(out_dir)])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {short}: need at least 2 monthly aggregates\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers, failure, position", failure_cases(),
                             ids=lambda v: str(v).replace(" ", "-"))
    def test_the_first_failing_input_names_the_error(self, tmp_path, monkeypatch, capsys,
                                                     workers, failure, position):
        # An earlier run from other paths under the same names fills out/.
        out_dir = tmp_path / "out"
        earlier = [simulate_file(tmp_path / "earlier", name=f"in{k}.csv", seed=11 + k, days=1200)
                   for k in range(3)]
        assert main(["analyze", "--input", *map(str, earlier), "--out", str(out_dir),
                     "--plots"]) == 0
        before = {p: p.read_bytes() if p.is_file() else None for p in out_dir.rglob("*")}
        # The failing input goes to its place. Where it is not last, the last
        # input fails in another way; input 1, where free, is short enough to
        # be warned about.
        kinds = ["good", "short", "analysis" if failure == "parse" else "parse"]
        if failure != "fork":
            kinds[position] = failure
        paths = [tmp_path / "now" / f"in{k}.csv" for k in range(3)]
        paths[0].parent.mkdir()
        for k, (path, kind) in enumerate(zip(paths, kinds)):
            if kind == "parse":
                path.write_text("Date,Close\n2019-01-01,abc\n")
            else:
                days = {"analysis": 30, "short": 900}.get(kind, 1200)
                simulate_file(tmp_path / "now", name=path.name, seed=k + 1, days=days)
        if failure == "fork":
            monkeypatch.setattr(os, "fork", fork_failing_at(position))
        elif failure == "full disk":
            full_disk_on_histogram_of(monkeypatch, f"in{position}")
        elif failure == "dead worker":
            monkeypatch.setattr(cli, "analyze_index", die_on(f"in{position}"))
        force_cpus(monkeypatch, workers)
        capsys.readouterr()
        try:
            rc = main(["analyze", "--input", *map(str, paths), "--out", str(out_dir), "--plots"])
        except ChildProcessError:
            rc = "dead worker"
        refused = out_dir / "plots" / f"in{position}_fluctuation_histogram.tsv"
        code, message = {
            "parse": (2, f"error: {paths[position]}: line 2: unparseable price 'abc'\n"),
            "analysis": (3, f"error: {paths[position]}: need at least 2 monthly aggregates\n"),
            "full disk": (2, f"error: {refused}: No space left on device\n"),
            "fork": (2, "error: Resource temporarily unavailable\n"),
            "dead worker": ("dead worker", ""),
        }[failure]
        assert (rc, capsys.readouterr()) == (code, ("", message))
        after = {p: p.read_bytes() if p.is_file() else None for p in out_dir.rglob("*")}
        assert after == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_analysis_error_names_its_input_by_path(self, tmp_path, monkeypatch, capsys,
                                                       workers):
        paths = [simulate_file(tmp_path, name="x/sp.csv", seed=1, days=1200),
                 simulate_file(tmp_path, name="y/sp.csv", seed=2, days=30, with_volume=False)]
        force_cpus(monkeypatch, workers)
        out_dir = tmp_path / "out"
        capsys.readouterr()
        rc = main(["analyze", "--input", *map(str, paths), "--out", str(out_dir)])
        assert (rc, capsys.readouterr()) == (
            3, ("", f"error: {paths[1]}: need at least 2 monthly aggregates\n"))
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_bad_out_is_refused_before_any_input_is_read(self, tmp_path, monkeypatch, capsys,
                                                           workers):
        bad = [tmp_path / f"bad{k}.csv" for k in range(2)]
        for path in bad:
            path.write_text("Date,Close\n2019-01-01,abc\n")
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "plots").write_text("kept\n")
        monkeypatch.setattr(cli, "parse_daily_path", lambda *args: pytest.fail("an input was read"))
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("analyze forked"), raising=False)
        force_cpus(monkeypatch, workers)
        for out_dir, refused, reason in ((taken / "out", taken / "out", "Not a directory"),
                                         (tmp_path / "out", tmp_path / "out" / "plots", "File exists")):
            rc = main(["analyze", "--input", *map(str, bad), "--out", str(out_dir), "--plots"])
            assert (rc, capsys.readouterr()) == (2, ("", f"error: {refused}: {reason}\n"))
        assert taken.read_text() == (tmp_path / "out" / "plots").read_text() == "kept\n"
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["plots"]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_plot_name_collision_beats_an_analysis_error(self, tmp_path, monkeypatch, capsys,
                                                           workers):
        first = simulate_file(tmp_path, name="x/sp.csv", seed=1, days=1200)
        short = simulate_file(tmp_path, name="short.csv", days=30, with_volume=False)
        second = simulate_file(tmp_path, name="y/sp.csv", seed=2, days=1200)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("analyze forked"), raising=False)
        force_cpus(monkeypatch, workers)
        out_dir = tmp_path / "out"
        capsys.readouterr()
        rc = main(["analyze", "--input", *map(str, [first, short, second]), "--out", str(out_dir),
                   "--plots"])
        assert rc == 2
        # Refused before any input is read: no warning about the short one.
        assert capsys.readouterr().err == (
            f"error: {first} and {second} would both write plot files named sp_*.tsv\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("option, message", [
        (["--delimiter", ";;"], "delimiter must be a single printable character"),
        (["--date-column", "Close"], "date_column and price_column must differ"),
        (["--volume-column", "Close"], "volume_column must not be date_column or price_column"),
        (["--volume-column", "Date"], "volume_column must not be date_column or price_column"),
        (["--bin-width", "0"], "bin_width must be finite and > 0"),
        (["--bin-width", "nan"], "bin_width must be finite and > 0"),
    ], ids=["delimiter", "date-column", "volume-column-close", "volume-column-date", "bin-width-0",
            "bin-width-nan"])
    def test_a_bad_ingest_config_is_refused_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                            workers, option, message):
        paths = [simulate_file(tmp_path, name=f"in{k}.csv", seed=k + 1, days=1200) for k in range(2)]
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("analyze forked"), raising=False)
        force_cpus(monkeypatch, workers)
        out_dir = tmp_path / "out"
        capsys.readouterr()
        rc = main(["analyze", "--input", *map(str, paths), "--out", str(out_dir), *option])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_unreadable_input_exits_2_in_input_order(self, tmp_path, monkeypatch, capsys,
                                                         workers):
        good = simulate_file(tmp_path, name="good.csv", days=1200)
        folder = tmp_path / "folder.csv"
        folder.mkdir()
        # File modes do not stop a superuser, so a stand-in parse refuses this one.
        locked = tmp_path / "locked.csv"
        parse = cli.parse_daily_path

        def refuse_locked(path, config):
            if path == locked:
                raise PermissionError(13, "Permission denied", str(path))
            return parse(path, config)

        monkeypatch.setattr(cli, "parse_daily_path", refuse_locked)
        force_cpus(monkeypatch, workers)
        out_dir = tmp_path / "out"
        capsys.readouterr()
        for inputs, message in (([good, folder, locked], f"{folder}: Is a directory"),
                                ([good, locked, folder], f"{locked}: Permission denied")):
            rc = main(["analyze", "--input", *map(str, inputs), "--out", str(out_dir)])
            assert rc == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_a_failed_fork_exits_2(self, tmp_path, monkeypatch, capsys):
        paths = [simulate_file(tmp_path, name=f"in{k}.csv", seed=k + 1, days=1200) for k in range(2)]

        def no_more_processes():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", no_more_processes, raising=False)
        force_cpus(monkeypatch, 2)
        out_dir = tmp_path / "out"
        capsys.readouterr()
        rc = main(["analyze", "--input", *map(str, paths), "--out", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: Resource temporarily unavailable\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_output_path_that_is_not_a_directory_exits_2(self, tmp_path, monkeypatch, capsys,
                                                            workers):
        paths = [simulate_file(tmp_path, name=f"in{k}.csv", seed=k + 1, days=1200) for k in range(2)]
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        (tmp_path / "out" / "plots").parent.mkdir()
        (tmp_path / "out" / "plots").write_text("kept\n")
        force_cpus(monkeypatch, workers)
        capsys.readouterr()
        for out_dir, refused, reason in ((taken, taken, "File exists"),
                                         (taken / "out", taken / "out", "Not a directory"),
                                         (tmp_path / "out", tmp_path / "out" / "plots", "File exists")):
            rc = main(["analyze", "--input", *map(str, paths), "--out", str(out_dir), "--plots"])
            assert rc == 2
            assert capsys.readouterr().err == f"error: {refused}: {reason}\n"
        assert taken.read_text() == (tmp_path / "out" / "plots").read_text() == "kept\n"
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["plots"]

    @needs_fork
    def test_an_error_in_a_childs_plot_share_reaches_the_parent(self, tmp_path, monkeypatch,
                                                                 capsys):
        paths = [simulate_file(tmp_path, name=f"in{k}.csv", seed=k + 1, days=1200) for k in range(2)]

        def refuse(rep, out_dir):
            raise PermissionError(13, "refused in the child", str(out_dir))

        monkeypatch.setattr(cli, "write_plot_files",
                            per_process(cli.write_plot_files, refuse))
        force_cpus(monkeypatch, 2)
        out_dir = tmp_path / "out"
        capsys.readouterr()
        rc = main(["analyze", "--input", *map(str, paths), "--out", str(out_dir), "--plots"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {out_dir / 'plots'}: refused in the child\n"
        assert not (out_dir / "report.json").exists()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_plot_file_that_cannot_be_written_exits_2_in_input_order(self, tmp_path, monkeypatch,
                                                                       capsys, workers):
        paths = [simulate_file(tmp_path, name=f"in{k}.csv", seed=k + 1, days=1200) for k in range(3)]
        out_dir = tmp_path / "out"
        for k in (1, 2):
            (out_dir / "plots" / f"in{k}_daily_log_price.tsv").mkdir(parents=True)
        force_cpus(monkeypatch, workers)
        capsys.readouterr()
        rc = main(["analyze", "--input", *map(str, paths), "--out", str(out_dir), "--plots"])
        assert rc == 2
        refused = out_dir / "plots" / "in1_daily_log_price.tsv"
        assert capsys.readouterr().err == f"error: {refused}: Is a directory\n"
        assert not (out_dir / "report.json").exists()
        # No plot file of the failed run is left, only the two blocking directories.
        assert sorted(p.name for p in (out_dir / "plots").iterdir()) == [
            "in1_daily_log_price.tsv", "in2_daily_log_price.tsv"]

    def test_a_report_path_that_cannot_be_written_exits_2(self, tmp_path, capsys):
        path = simulate_file(tmp_path, days=1200)
        out_dir = tmp_path / "out"
        (out_dir / "report.json").mkdir(parents=True)
        capsys.readouterr()
        assert main(["analyze", "--input", str(path), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {out_dir / 'report.json'}: Is a directory\n"
        assert [p.name for p in out_dir.iterdir()] == ["report.json"]

    def test_a_report_that_cannot_be_written_leaves_no_plot_file(self, tmp_path, capsys):
        path = simulate_file(tmp_path, days=1200)
        out_dir = tmp_path / "out"
        (out_dir / "report.json").mkdir(parents=True)
        capsys.readouterr()
        assert main(["analyze", "--input", str(path), "--out", str(out_dir), "--plots"]) == 2
        assert capsys.readouterr().err == f"error: {out_dir / 'report.json'}: Is a directory\n"
        assert [p.name for p in out_dir.iterdir()] == ["report.json"]  # no plots/ it made

    @needs_fork
    @pytest.mark.parametrize("end, status", [
        (lambda *args, **kwargs: os._exit(1), 1),
        (lambda *args, **kwargs: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
        (lambda *args, **kwargs: dataclasses.replace(
            analyze_index(*args, **kwargs), errors={"f0": lambda: "pickle cannot carry this"}), 1),
    ], ids=["exit-1", "killed", "unpicklable"])
    def test_a_child_without_a_result_raises(self, tmp_path, monkeypatch, end, status):
        paths = [simulate_file(tmp_path, name=f"in{k}.csv", seed=k + 1, days=1200) for k in range(3)]
        monkeypatch.setattr(cli, "analyze_index", per_process(cli.analyze_index, end))
        force_cpus(monkeypatch, 3)
        out_dir = tmp_path / "out"
        with pytest.raises(ChildProcessError, match=rf"ended without a result \(exit status {status}\)"):
            main(["analyze", "--input", *map(str, paths), "--out", str(out_dir), "--plots"])
        assert not out_dir.exists()

    @needs_fork
    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_dead_plot_worker_leaves_no_plot_file(self, tmp_path, monkeypatch, workers):
        paths = [simulate_file(tmp_path, name=f"in{k}.csv", seed=k + 1, days=1200) for k in range(3)]
        monkeypatch.setattr(cli, "write_plot_files",
                            per_process(cli.write_plot_files, lambda *args: os._exit(1)))
        force_cpus(monkeypatch, workers)
        out_dir = tmp_path / "out"
        with pytest.raises(ChildProcessError, match=r"ended without a result \(exit status 1\)"):
            main(["analyze", "--input", *map(str, paths), "--out", str(out_dir), "--plots"])
        # in0's share ran in this process; its files go with the failed run.
        assert list(out_dir.rglob("*.tsv")) == []
        assert not (out_dir / "report.json").exists()

    @needs_fork
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failed_run_changes_no_file(self, tmp_path, monkeypatch, capsys, workers):
        # An earlier run from other paths under the same names fills out/.
        def inputs(folder, first_seed):
            return [str(simulate_file(tmp_path / folder, name=f"in{k}.csv", seed=first_seed + k,
                                      days=1200)) for k in range(3)]

        out_dir = tmp_path / "out"
        assert main(["analyze", "--input", *inputs("earlier", 11), "--out", str(out_dir),
                     "--plots"]) == 0
        paths = inputs("now", 1)
        before = {p: p.read_bytes() if p.is_file() else None for p in out_dir.rglob("*")}
        assert len(before) == 3 * 6 + 2  # the plot files, plots/ and report.json
        failures = [("fork", position) for position in range(1, workers)]
        failures += [("full disk", None)] + [("dead worker", None)] * (workers > 1)
        force_cpus(monkeypatch, workers)
        for failure, position in failures:
            capsys.readouterr()
            with monkeypatch.context() as patch:
                if failure == "fork":
                    patch.setattr(os, "fork", fork_failing_at(position))
                elif failure == "full disk":
                    full_disk_on_third_file(patch)
                else:
                    patch.setattr(cli, "write_plot_files",
                                  per_process(write_plot_files, stage_then_die))
                try:
                    rc = main(["analyze", "--input", *paths, "--out", str(out_dir), "--plots"])
                except ChildProcessError:
                    rc = "dead worker"
            refused = out_dir / "plots" / "in0_fluctuation_histogram.tsv"
            assert (rc, capsys.readouterr().err) == {
                "fork": (2, "error: Resource temporarily unavailable\n"),
                "full disk": (2, f"error: {refused}: No space left on device\n"),
                "dead worker": ("dead worker", ""),
            }[failure]
            after = {p: p.read_bytes() if p.is_file() else None for p in out_dir.rglob("*")}
            assert after == before, (failure, position)

    @needs_fork
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failed_run_leaves_no_plots_directory_it_made(self, tmp_path, monkeypatch, workers):
        paths = [str(simulate_file(tmp_path, name=f"in{k}.csv", seed=k + 1, days=1200))
                 for k in range(3)]
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        failures = [("fork", position) for position in range(1, workers)]
        failures += [("full disk", None)] + [("dead worker", None)] * (workers > 1)
        failures += [("report", None)]
        force_cpus(monkeypatch, workers)
        for failure, position in failures:
            with monkeypatch.context() as patch:
                if failure == "fork":
                    patch.setattr(os, "fork", fork_failing_at(position))
                elif failure == "full disk":
                    full_disk_on_third_file(patch)
                elif failure == "dead worker":
                    patch.setattr(cli, "write_plot_files",
                                  per_process(write_plot_files, stage_then_die))
                else:
                    (out_dir / "report.json").mkdir()
                try:
                    rc = main(["analyze", "--input", *paths, "--out", str(out_dir), "--plots"])
                except ChildProcessError:
                    rc = "dead worker"
            assert rc == ("dead worker" if failure == "dead worker" else 2)
            left = ["report.json"] if failure == "report" else []
            assert [p.name for p in out_dir.iterdir()] == left, (failure, position)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_plots_linked_across_devices_are_written_through_the_link(
            self, tmp_path, monkeypatch, capsys, workers):
        # A stand-in rename refuses, as the kernel does, to move a file between
        # the link's target and anywhere else.
        target = tmp_path / "elsewhere"
        target.mkdir()
        replace = os.replace

        def replace_within_one_device(src, dst):
            if sum(target in Path(p).resolve().parents for p in (src, dst)) == 1:
                raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, None, dst)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_within_one_device)
        force_cpus(monkeypatch, workers)
        analyze_through_a_plots_link(tmp_path, capsys, target)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_plots_linked_to_a_tmpfs_are_written_through_the_link(
            self, tmp_path, monkeypatch, capsys, workers):
        shm = Path("/dev/shm")
        if not shm.is_dir() or shm.stat().st_dev == tmp_path.stat().st_dev:
            pytest.skip("needs /dev/shm on another file system than the temporary directory")
        target = Path(tempfile.mkdtemp(dir=shm))
        try:
            force_cpus(monkeypatch, workers)
            analyze_through_a_plots_link(tmp_path, capsys, target)
        finally:
            shutil.rmtree(target)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failed_run_leaves_no_directory_it_made(self, tmp_path, monkeypatch, capsys,
                                                      workers):
        paths = [simulate_file(tmp_path, name=f"in{k}.csv", seed=k + 1, days=1200) for k in range(2)]
        full_disk_on_third_file(monkeypatch)
        force_cpus(monkeypatch, workers)
        capsys.readouterr()
        rc = main(["analyze", "--input", *map(str, paths), "--out", str(tmp_path / "a" / "b"),
                   "--plots"])
        assert rc == 2
        assert capsys.readouterr().err.endswith(": No space left on device\n")
        assert not (tmp_path / "a").exists()

    @needs_fork
    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_parse_error_beats_a_later_dead_worker(self, tmp_path, monkeypatch, capsys,
                                                     workers):
        good = simulate_file(tmp_path, name="good.csv", days=1200)
        bad = tmp_path / "bad.csv"
        bad.write_text("Date,Close\n2019-01-01,abc\n")
        monkeypatch.setattr(cli, "analyze_index",
                            per_process(cli.analyze_index, lambda *args, **kwargs: os._exit(1)))
        force_cpus(monkeypatch, workers)
        out_dir = tmp_path / "out"
        capsys.readouterr()
        rc = main(["analyze", "--input", *map(str, [bad, good, good]), "--out", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: line 2: unparseable price 'abc'\n"
        assert not out_dir.exists()

    @needs_fork
    def test_children_are_reaped_when_the_parents_share_raises(self, tmp_path, monkeypatch):
        paths = [simulate_file(tmp_path, name=f"in{k}.csv", seed=k + 1, days=1200) for k in range(2)]

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "analyze_index", per_process(interrupt, cli.analyze_index))
        force_cpus(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            main(["analyze", "--input", *map(str, paths), "--out", str(tmp_path / "out")])

    def test_report_json_takes_the_mode_of_a_plot_file(self, tmp_path):
        path = simulate_file(tmp_path, days=1200)
        out_dir = tmp_path / "out"
        old = os.umask(0o022)
        try:
            assert main(["analyze", "--input", str(path), "--out", str(out_dir), "--plots"]) == 0
        finally:
            os.umask(old)
        plot_mode = (out_dir / "plots" / "sim_daily_log_price.tsv").stat().st_mode
        assert (out_dir / "report.json").stat().st_mode == plot_mode
        assert plot_mode & 0o777 == 0o644
        assert sorted(p.name for p in out_dir.iterdir()) == ["plots", "report.json"]


class TestSimulateCommand:
    def test_an_output_under_a_regular_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        rc = main(["simulate", "--a", "3e-4", "--b", "0.012", "--s0", "1000", "--days", "100",
                   "--seed", "1", "--out", str(taken / "x.csv")])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {taken}: File exists\n")
        assert taken.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_volume_overflow_exits_2_without_file(self, tmp_path, capsys):
        out = tmp_path / "big.csv"
        rc = main(["simulate", "--a", "0.0005", "--b", "0.015", "--s0", "1000",
                   "--days", "1000", "--seed", "1", "--volume-nu", "0.05", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "64-bit" in capsys.readouterr().err

    def test_price_overflow_exits_2_without_file(self, tmp_path, capsys):
        out = tmp_path / "inf.csv"
        rc = main(["simulate", "--a", "0.01", "--b", "0.001", "--s0", "1000",
                   "--days", "80000", "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "day 70640 is inf" in capsys.readouterr().err

    def test_volume_past_float64_prints_only_the_error(self, tmp_path):
        # exp(nu*k) passes float64 on day 710; numpy's overflow warning stays off stderr.
        out = tmp_path / "huge.csv"
        argv = ["simulate", "--a", "0.0005", "--b", "0.015", "--s0", "1000", "--days", "1000",
                "--seed", "1", "--volume-nu", "1.0", "--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "marketreg", *argv], capture_output=True,
                              text=True, env=child_env())
        assert proc.returncode == 2
        assert not out.exists()
        assert proc.stderr.splitlines() == [
            "error: n0*exp(nu*k + eta) = 1.069e+19 at day 30 does not fit a 64-bit count"
        ]

    @pytest.mark.parametrize("flag, value, name", [
        ("--s0", "nan", "s0"), ("--a", "nan", "a"), ("--b", "inf", "b"), ("--dt", "nan", "dt"),
        ("--decay-to", "nan", "b_end"),
    ])
    def test_non_finite_parameter_exits_2_naming_it(self, tmp_path, capsys, flag, value, name):
        params = {"--a": "0.0005", "--b": "0.015", "--s0": "1000", "--dt": "1.0"}
        params[flag] = value
        out = tmp_path / "x.csv"
        rc = main(["simulate", *[x for pair in params.items() for x in pair],
                   "--days", "100", "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {name} must be finite\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag, message", [
        ("--volume-noise", "noise_sd must be finite and >= 0"),
        ("--volume-n0", "n0 must be finite and >= 1"),
        ("--volume-nu", "nu must be finite"),
    ], ids=["noise", "n0", "nu"])
    def test_non_finite_volume_parameter_exits_2_without_file(self, tmp_path, capsys, flag,
                                                              message, value):
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--a", "0.0005", "--b", "0.015", "--s0", "1000", "--days", "100",
                   "--seed", "1", "--volume-nu", "0.0004", flag, value, "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    # sha256 of the files written by the one-step-at-a-time simulator: any change
    # to the random stream, the step arithmetic or the redraws moves them.
    @pytest.mark.parametrize("args, sha256", [
        ("--a 0.0003 --b 0.012 --s0 1000 --days 5500 --seed 11 --volume-nu 0.0004 "
         "--volume-noise 0.1",
         "aa095d0dcfe5a87d2c64d050405446922e436013017115baeb4d7dd245e244ac"),
        ("--a 0.0003 --b 0.02 --s0 1000 --days 5040 --seed 20190422 --dt 0.5 --decay-to 0.005",
         "30aeb33c261aa2bc46cda76e8348c05a11593b45d314bd321e193efaa24398f0"),
        ("--a 0 --b 0.9 --s0 1 --days 2000 --seed 5",
         "ef65f709aacf362d43736afb5e6c87f2a4848d3f0d5a41e24a24aafe27888df6"),
    ], ids=["constant-with-volume", "decay-half-day-steps", "heavy-noise-redraws"])
    def test_output_bytes_are_pinned(self, tmp_path, args, sha256):
        out = tmp_path / "golden.csv"
        assert main(["simulate", *args.split(), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_byte_identical_for_same_seed(self, tmp_path):
        p1 = simulate_file(tmp_path, name="a.csv", seed=99)
        p2 = simulate_file(tmp_path, name="b.csv", seed=99)
        assert p1.read_bytes() == p2.read_bytes()

    def test_prints_generating_parameters(self, tmp_path, capsys):
        simulate_file(tmp_path, name="c.csv", seed=5, with_volume=False)
        out = capsys.readouterr().out
        assert "a=0.0005" in out and "seed=5" in out

    def test_zero_volatility_round_trip(self, tmp_path):
        out = tmp_path / "det.csv"
        assert main(["simulate", "--a", "0.0005", "--b", "0", "--s0", "1000",
                     "--days", "2520", "--seed", "1", "--out", str(out)]) == 0
        rep = analyze_index(parse_daily_path(out))
        # growth of the compound path: 100*ln(1 + a)
        assert rep.a == pytest.approx(0.049988, abs=1e-4)

    def test_decay_flag_produces_negative_w(self, tmp_path):
        out = tmp_path / "decay.csv"
        assert main(["simulate", "--a", "0.0003", "--b", "0.02", "--s0", "1000",
                     "--days", str(240 * 21), "--seed", "20190422",
                     "--decay-to", "0.005", "--out", str(out)]) == 0
        rep = analyze_index(parse_daily_path(out))
        assert rep.w < 0

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        rc = main(["simulate", "--a", "0.0005", "--b", "-1", "--s0", "1000",
                   "--days", "100", "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--a", "0.0005", "--b", "0.01", "--s0", "1000",
                   "--days", "100", "--seed", "-1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()


# The whole report of `selftest` and `selftest --strict` at the default seed.
SELFTEST_STDOUT = """\
wiener_mean                            -0.00004  |x| < 0.00950              PASS
wiener_std                              0.99932  |x - 1| <= 0.01000         PASS
wiener_lag1_autocorr                   -0.00268  |x| < 0.00950              PASS
wiener_dt4_std                          1.99916  |x - 2| <= 0.02000         PASS
gbm_drift                         0.03008 %/day  |x - 0.03| <= 0.00063      PASS
gbm_delta_mean                        0.03891 %  |x - 0.03| <= 0.04808      PASS
gbm_delta_std                         1.18836 %  |x/1.2 - 1| <= 0.05000     PASS
variance_flat                 +6.858e-07 /month  |x| <= 1.154e-06           PASS
variance_decline_sign         -5.050e-06 /month  x < 0 and |x| > 1.625e-06  PASS
exact_daily_growth         0.050000000000 %/day  |x - 0.05| <= 1.0e-09      PASS
exact_monthly_growth      0.010500000000 /month  |x - 0.0105| <= 1.0e-09    PASS
gaussian_amplitude_exact       100.000000000000  |x - 100| <= 1.0e-09       PASS
volume_exact               0.039999999727 %/day  |x - 0.04| <= 1.0e-09      PASS
volume_noisy                      0.04010 %/day  |x - 0.04| <= 0.00060      PASS
pipeline_determinism                  identical  byte-identical reports     PASS
15/15 checks passed
"""
STRICT_SELFTEST_STDOUT = """\
wiener_mean                            -0.00004  |x| < 0.00095              PASS
wiener_std                              0.99932  |x - 1| <= 0.00100         PASS
wiener_lag1_autocorr                   -0.00268  |x| < 0.00095              FAIL
wiener_dt4_std                          1.99916  |x - 2| <= 0.00200         PASS
gbm_drift                         0.03008 %/day  |x - 0.03| <= 0.00006      FAIL
gbm_delta_mean                        0.03891 %  |x - 0.03| <= 0.00481      FAIL
gbm_delta_std                         1.18836 %  |x/1.2 - 1| <= 0.00500     FAIL
variance_flat                 +6.858e-07 /month  |x| <= 1.154e-07           FAIL
variance_decline_sign         -5.050e-06 /month  x < 0 and |x| > 1.625e-05  FAIL
exact_daily_growth         0.050000000000 %/day  |x - 0.05| <= 1.0e-10      PASS
exact_monthly_growth      0.010500000000 /month  |x - 0.0105| <= 1.0e-10    PASS
gaussian_amplitude_exact       100.000000000000  |x - 100| <= 1.0e-10       PASS
volume_exact               0.039999999727 %/day  |x - 0.04| <= 1.0e-10      FAIL
volume_noisy                      0.04010 %/day  |x - 0.04| <= 0.00006      FAIL
pipeline_determinism                  identical  byte-identical reports     PASS
7/15 checks passed
"""


class TestSelftestCommand:
    def test_default_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_strict_fails_as_designed(self, capsys):
        assert main(["selftest", "--strict"]) == 4
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("args, status, expected", [
        ([], 0, SELFTEST_STDOUT), (["--strict"], 4, STRICT_SELFTEST_STDOUT)],
        ids=["default", "strict"])
    def test_default_seed_prints_every_bound(self, monkeypatch, capsys, args, status, expected):
        monkeypatch.delenv("MARKETREG_SEED", raising=False)
        assert main(["selftest", *args]) == status
        assert capsys.readouterr().out == expected

    def test_env_seed_override(self, monkeypatch, capsys):
        # 777000 is a seed where the drift check misses its 3-stderr band.
        monkeypatch.setenv("MARKETREG_SEED", "777000")
        assert main(["selftest"]) == 4
        assert "gbm_drift" in capsys.readouterr().out

    def test_env_seed_must_be_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("MARKETREG_SEED", "abc")
        assert main(["selftest"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: MARKETREG_SEED must be an integer, got 'abc'\n")

    def test_env_seed_must_not_be_negative(self, monkeypatch, capsys):
        monkeypatch.setenv("MARKETREG_SEED", "-5")
        assert main(["selftest"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: seed must be a non-negative integer, got -5\n")

    def test_injected_drift_mismatch_fails_named_check(self, monkeypatch):
        from marketreg import selftest

        def drift_offset(series, **kwargs):
            # Only the 5,500-day constant-volatility path recovers a wrong drift.
            rep = analyze_index(series, **kwargs)
            return dataclasses.replace(rep, a=rep.a + 0.5) if len(series) == 5500 else rep

        monkeypatch.setattr(selftest, "analyze_index", drift_offset)
        failed = [r.name for r in selftest.run_selftest() if not r.passed]
        assert failed == ["gbm_drift"]


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


ALL_ERRORS = sorted(_all_subclasses(MarketRegError), key=lambda c: c.__name__)


@pytest.mark.parametrize("error", ALL_ERRORS)
def test_every_error_maps_to_a_documented_exit_code(error):
    estimation = {"EstimationError", "NonPositivePrice", "InsufficientData", "DegenerateX",
                  "DegenerateInput", "DegenerateFit", "NoVolumeData", "PathRejectionLimit"}
    assert error.exit_code == (3 if error.__name__ in estimation else 2)
    assert f"{error.exit_code} " in cli.__doc__


# Arguments of the errors whose constructor takes more than a message.
ERROR_ARGS = {
    "DuplicateDate": (date(2019, 1, 2),),
    "MalformedRow": (3, "bad"),
    "PlotNameCollision": ("x/sp.csv", "y/sp.csv", "sp"),
    "UnknownColumn": ("X",),
}


@pytest.mark.parametrize("error", [MarketRegError, *ALL_ERRORS])
def test_every_error_survives_pickle(error):
    original = error(*ERROR_ARGS.get(error.__name__, ("a message",)))
    copy = pickle.loads(pickle.dumps(original))
    assert type(copy) is error
    assert str(copy) == str(original) and copy.args == original.args
    assert vars(copy) == vars(original)


LONG_REPORTS = """
import numpy as np
from marketreg.estimators import analyze_index
from marketreg.report import render_report_json, report_payload
from marketreg.series import DailySeries
from marketreg.simulate import synthetic_days

n = 120_000
reports = []
for seed in (1, 2):
    rng = np.random.default_rng(seed)
    close = 1000.0 * np.cumprod(1.0 + 3e-4 + 0.012 * rng.standard_normal(n))
    eta = 0.1 * rng.standard_normal(n)
    volume = np.rint(1e6 * np.exp(2e-4 * np.arange(n) + eta)).astype(np.int64)
    series = DailySeries(synthetic_days(n), close, volume, f"path{seed}")
    reports.append(analyze_index(series))
print(render_report_json(report_payload(reports)))
"""


def test_report_does_not_depend_on_the_blas_thread_count():
    src = str(Path(marketreg.__file__).parents[1])
    texts = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", LONG_REPORTS], capture_output=True,
                             text=True, check=True, env=env)
        texts.append(out.stdout)
    assert texts[0] == texts[1]


LIMITED_CLI = """
import resource, runpy
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
runpy.run_module("marketreg", run_name="__main__")
"""


def child_env() -> dict:
    """This environment with the package's source directory first on PYTHONPATH."""
    src = str(Path(marketreg.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


DRAW_WITHOUT_SCIPY = """
import sys
from marketreg import cli
print('scipy' in sys.modules)
assert cli.main(["simulate", "--a", "0.0003", "--b", "0.012", "--s0", "1000", "--days", "600",
                 "--seed", "3", "--volume-nu", "0.0004", "--volume-noise", "0.1",
                 "--out", sys.argv[1]]) == 0
from marketreg.selftest import run_selftest
run_selftest()
print('scipy' in sys.modules)
"""


def test_importing_the_cli_does_not_load_scipy(tmp_path):
    # Normals come from the package's own port of ndtri; scipy is only its
    # reference in the tests.
    out = subprocess.run([sys.executable, "-c", DRAW_WITHOUT_SCIPY, str(tmp_path / "x.csv")],
                         capture_output=True, text=True, check=True, env=child_env())
    lines = out.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "False")
    assert (tmp_path / "x.csv").exists()


def test_every_exported_name_resolves_once():
    assert len(set(marketreg.__all__)) == len(marketreg.__all__)
    for name in marketreg.__all__:
        assert hasattr(marketreg, name), name


def test_importing_the_cli_does_not_load_process_pools():
    # analyze forks its workers itself; these modules would add to every start.
    code = ("import sys, marketreg.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=child_env())
    assert out.stdout.strip() == "[]"


def test_importing_the_cli_does_not_load_selftest():
    # Only the selftest command needs the oracle suite.
    code = "import sys, marketreg.cli; print('marketreg.selftest' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=child_env())
    assert out.stdout.strip() == "False"


SCRIPTS = Path(__file__).parents[1] / "scripts"


def run_script(name: str, *args: str) -> str:
    out = subprocess.run([sys.executable, str(SCRIPTS / name), *args], capture_output=True,
                         text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_synthetic_recovery_script_runs():
    assert "held on" in run_script("synthetic_recovery.py", "--paths", "3", "--days", "2000")


def test_volatility_decline_demo_script_writes_plot_files(tmp_path):
    stdout = run_script("volatility_decline_demo.py", "--months", "60", "--out", str(tmp_path))
    assert "verdict" in stdout
    views = ["daily_log_price", "fluctuation_histogram", "fluctuation_series",
             "monthly_mean_log", "monthly_variance"]
    expected = sorted(f"{stem}_{view}.tsv" for stem in ("constant_b", "decaying_b") for view in views)
    assert sorted(p.name for p in tmp_path.glob("*.tsv")) == expected


class TestArgparseBehaviour:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_analyze_requires_input(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])
        assert exc.value.code == 2

    def test_every_option_has_help(self):
        parser = cli.build_parser()
        [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(commands.choices) == ["analyze", "selftest", "simulate"]
        assert [(name, action.dest) for name, command in commands.choices.items()
                for action in command._actions if not action.help] == []
        text = " ".join(commands.choices["simulate"].format_help().split())
        assert "before noise (default 1000000.0)" in text and "ln(volume) (default 0.0)" in text
