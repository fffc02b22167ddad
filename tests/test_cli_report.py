import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
import warnings
from datetime import date
from pathlib import Path

import pytest

import marketreg
from marketreg import cli, estimators, report, series
from marketreg.cli import main
from marketreg.errors import MarketRegError
from marketreg.estimators import analyze_index
from marketreg.ingest import IngestConfig, parse_daily_path
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

    def test_without_plots_the_report_keeps_no_plot_arrays(self, tmp_path):
        # A worker sends its reports back through a pipe; without --plots
        # nothing reads the arrays, so they are not sent.
        path = simulate_file(tmp_path)
        reports = {}
        for flags in ([], ["--plots"]):
            args = cli.build_parser().parse_args(["analyze", "--input", str(path), *flags])
            _, _, reports[bool(flags)] = cli._analyze_input(path, IngestConfig(), args)
        arrays = ["ln_close", "fluctuations", "histogram", "monthly", "volume_t", "ln_volume"]
        assert all(getattr(reports[False], name) is None for name in arrays)
        assert all(getattr(reports[True], name) is not None for name in arrays)
        assert report_payload([reports[False]]) == report_payload([reports[True]])

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


class TestWorkerProcesses:
    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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
                assert len(forks) == 2 * (workers - 1)  # children of both phases
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
    def test_a_later_parse_error_beats_an_earlier_analysis_error(self, tmp_path, monkeypatch,
                                                                 capsys, workers):
        short = simulate_file(tmp_path, name="short.csv", days=30, with_volume=False)
        good = simulate_file(tmp_path, name="good.csv", days=1200)
        bad = tmp_path / "bad.csv"
        bad.write_text("Date,Close\n2019-01-01,abc\n")
        force_cpus(monkeypatch, workers)
        out_dir = tmp_path / "out"
        rc = main(["analyze", "--input", *map(str, [short, good, good, bad]), "--out", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: line 2: unparseable price 'abc'\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_plot_name_collision_beats_an_analysis_error(self, tmp_path, monkeypatch, capsys,
                                                           workers):
        first = simulate_file(tmp_path, name="x/sp.csv", seed=1, days=1200)
        short = simulate_file(tmp_path, name="short.csv", days=30, with_volume=False)
        second = simulate_file(tmp_path, name="y/sp.csv", seed=2, days=1200)
        force_cpus(monkeypatch, workers)
        out_dir = tmp_path / "out"
        capsys.readouterr()
        rc = main(["analyze", "--input", *map(str, [first, short, second]), "--out", str(out_dir),
                   "--plots"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("warning: short: only 30 trading days")
        assert err[1:] == [f"error: {first} and {second} would both write plot files named sp_*.tsv"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("option, message", [
        (["--delimiter", ";;"], "delimiter must be a single printable character"),
        (["--date-column", "Close"], "date_column and price_column must differ"),
    ], ids=["delimiter", "date-column"])
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

    def test_a_report_path_that_cannot_be_written_exits_2(self, tmp_path, capsys):
        path = simulate_file(tmp_path, days=1200)
        out_dir = tmp_path / "out"
        (out_dir / "report.json").mkdir(parents=True)
        capsys.readouterr()
        assert main(["analyze", "--input", str(path), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {out_dir / 'report.json'}: Is a directory\n"
        assert [p.name for p in out_dir.iterdir()] == ["report.json"]

    @needs_fork
    @pytest.mark.parametrize("end, status", [
        (lambda *args, **kwargs: os._exit(1), 1),
        (lambda *args, **kwargs: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
        (lambda *args, **kwargs: lambda: "a result pickle cannot carry", 1),
    ], ids=["exit-1", "killed", "unpicklable"])
    def test_a_child_without_a_result_raises(self, tmp_path, monkeypatch, end, status):
        paths = [simulate_file(tmp_path, name=f"in{k}.csv", seed=k + 1, days=1200) for k in range(3)]
        monkeypatch.setattr(cli, "analyze_index", per_process(cli.analyze_index, end))
        force_cpus(monkeypatch, 3)
        out_dir = tmp_path / "out"
        # With --plots the child sends analyze_index's result back as it is.
        with pytest.raises(ChildProcessError, match=rf"ended without a result \(exit status {status}\)"):
            main(["analyze", "--input", *map(str, paths), "--out", str(out_dir), "--plots"])
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

    def test_injected_drift_mismatch_fails_named_check(self):
        from marketreg.selftest import run_selftest

        results = run_selftest(drift_injection=0.5)
        failed = [r.name for r in results if not r.passed]
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
