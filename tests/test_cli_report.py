import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import marketreg
from marketreg import cli, estimators, report, series
from marketreg.cli import main
from marketreg.errors import MarketRegError
from marketreg.estimators import analyze_index
from marketreg.ingest import parse_daily_path
from marketreg.report import (
    _display_number,
    _display_sig3,
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
        assert _display_number(0.05123, 2) == "0.05"
        assert _display_number(1.4949, 3) == "1.495"
        assert _display_number(0.0, 3) == "0.000"
        assert _display_number(None, 2) == "-"

    def test_scientific_below_milli(self):
        assert _display_number(0.0005, 3) == "5.00e-04"
        assert _display_sig3(-3.412e-6) == "-3.41e-06"
        assert _display_sig3(0.00341) == "0.00341"
        assert _display_sig3(None) == "-"


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
        # ends in a 5-day month that only min_days_per_month=5 keeps.
        path = simulate_file(tmp_path, days=21 * 12 + 5, with_volume=False)
        series = parse_daily_path(path)
        rep = analyze_index(series, min_days_per_month=5)
        assert rep.n_months != analyze_index(series).n_months
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

    def test_variance_fit_origin_mode(self, tmp_path):
        path = simulate_file(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["analyze", "--input", str(path), "--out", str(out_dir),
                     "--variance-fit", "origin"]) == 0
        payload = json.loads((out_dir / "report.json").read_text())
        row = payload["indices"][0]
        assert row["variance_fit_mode"] == "origin"
        assert row["diagnostics"]["variance_decline"]["intercept"] == 0.0


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


class TestSelftestCommand:
    def test_default_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_strict_fails_as_designed(self, capsys):
        assert main(["selftest", "--strict"]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_env_seed_override(self, monkeypatch, capsys):
        # 777000 is a seed where the drift check misses its 3-stderr band.
        monkeypatch.setenv("MARKETREG_SEED", "777000")
        assert main(["selftest"]) == 4
        assert "gbm_drift" in capsys.readouterr().out

    def test_injected_drift_mismatch_fails_named_check(self):
        from marketreg.selftest import run_selftest

        results = run_selftest(drift_injection=0.5)
        failed = [r.name for r in results if not r.passed]
        assert failed == ["gbm_drift"]


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


@pytest.mark.parametrize("error", sorted(_all_subclasses(MarketRegError), key=lambda c: c.__name__))
def test_every_error_maps_to_a_documented_exit_code(error):
    estimation = {"EstimationError", "NonPositivePrice", "InsufficientData", "DegenerateX",
                  "DegenerateInput", "DegenerateFit", "NoVolumeData", "PathRejectionLimit"}
    assert error.exit_code == (3 if error.__name__ in estimation else 2)
    assert f"{error.exit_code} " in cli.__doc__


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
    series = DailySeries.from_columns(synthetic_days(n), close, volume, f"path{seed}")
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


def test_importing_the_cli_does_not_load_scipy():
    # scipy is needed only to draw random numbers, which analyze never does.
    src = str(Path(marketreg.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, marketreg.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def child_env() -> dict:
    """This environment with the package's source directory first on PYTHONPATH."""
    src = str(Path(marketreg.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


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
