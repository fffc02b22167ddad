"""Command-line entry point: analyze data files, simulate paths, self-test.

Exit codes: 0 success, 2 input error (bad data, columns or simulate parameters,
including a simulated price past float64 or volume past int64, a day-over-day
change past float64, and two inputs whose plot files would share a name),
3 estimation error, 4 selftest failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import MarketRegError
from .estimators import DEFAULT_BIN_WIDTH, analyze_index
from .ingest import IngestConfig, parse_daily_path, write_daily_file
from .report import (
    check_plot_stems,
    display_row,
    report_payload,
    write_plot_files,
    write_report_atomic,
)
from .simulate import GbmParams, VolatilitySchedule, simulate_gbm, simulate_volume

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SELFTEST = 4

# Parameters drift with window length; two decades is the intended regime.
SHORT_SERIES_WARNING = 1000


@dataclass
class RunConfig:
    """Everything one invocation needs, regardless of subcommand."""

    command: str
    input_paths: list[Path] = field(default_factory=list)
    date_column: str = "Date"
    price_column: str = "Close"
    volume_column: str | None = None
    date_format: str = "%Y-%m-%d"
    delimiter: str = ","
    decimal_comma: bool = False
    bin_width: float = DEFAULT_BIN_WIDTH
    variance_fit_mode: str = "intercept"
    output_dir: Path = Path(".")
    emit_plots: bool = False
    gbm: GbmParams | None = None
    decay_to: float | None = None
    out_file: Path | None = None
    volume_nu: float | None = None
    volume_n0: float = 1e6
    volume_noise: float = 0.0
    strict: bool = False

    def __post_init__(self):
        if self.command == "analyze" and not self.input_paths:
            raise ValueError("analyze requires at least one input path")
        if self.command == "simulate" and (self.gbm is None or self.out_file is None):
            raise ValueError("simulate requires path parameters and an output file")

    def ingest_config(self) -> IngestConfig:
        return IngestConfig(
            date_column=self.date_column,
            price_column=self.price_column,
            volume_column=self.volume_column,
            date_format=self.date_format,
            delimiter=self.delimiter,
            decimal_comma=self.decimal_comma,
        )


def run_analyze(config: RunConfig) -> int:
    """Parse and analyze every input, then write report.json (atomically) and,
    on request, the six plot-ready TSV files per index."""
    ingest_cfg = config.ingest_config()
    series_list = []
    for path in config.input_paths:
        try:
            series_list.append(parse_daily_path(path, ingest_cfg))
        except FileNotFoundError:
            raise _CliFailure(EXIT_INPUT, f"{path}: file not found") from None
        except MarketRegError as exc:
            raise _CliFailure(exc.exit_code, f"{path}: {exc}") from None

    for series in series_list:
        if len(series) < SHORT_SERIES_WARNING:
            print(
                f"warning: {series.index_name}: only {len(series)} trading days; "
                f"estimates are noisy below {SHORT_SERIES_WARNING}",
                file=sys.stderr,
            )

    if config.emit_plots:
        check_plot_stems(config.input_paths, [series.index_name for series in series_list])

    reports = []
    for series in series_list:
        try:
            reports.append(
                analyze_index(
                    series,
                    bin_width=config.bin_width,
                    variance_fit_mode=config.variance_fit_mode,
                )
            )
        except MarketRegError as exc:
            raise _CliFailure(exc.exit_code, f"{series.index_name}: {exc}") from None

    payload = report_payload(reports)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    if config.emit_plots:
        for rep in reports:
            write_plot_files(rep, config.output_dir / "plots")
    report_path = config.output_dir / "report.json"
    write_report_atomic(payload, report_path)

    header = f"{'index':<20} {'a':>10} {'mu':>8} {'sigma':>8} {'m':>8} {'w':>10} {'nu':>8}"
    print(header)
    for rep in reports:
        row = display_row(rep)
        print(
            f"{rep.index_name:<20} {row['a']:>10} {row['mu']:>8} {row['sigma']:>8} "
            f"{row['m']:>8} {row['w']:>10} {row['nu']:>8}"
        )
    cross = payload.get("cross_index")
    if cross and cross["pearson_a_m"] is not None:
        print(f"cross-index r(a, m) = {cross['pearson_a_m']:.3f}")
    print(f"report written to {report_path}")
    return EXIT_OK


def run_simulate(config: RunConfig) -> int:
    """Write one simulated path (and optional volume column) in the canonical format."""
    params = config.gbm
    schedule = (
        VolatilitySchedule.linear_decay(params.b, config.decay_to)
        if config.decay_to is not None
        else None
    )
    series = simulate_gbm(params, schedule, index_name=config.out_file.stem)
    if config.volume_nu is not None:
        # The volume stream is seeded one past the price stream.
        volumes = simulate_volume(
            config.volume_nu, config.volume_n0, config.volume_noise, params.n_days, params.seed + 1
        )
        series = series.with_volumes(volumes)
    config.out_file.parent.mkdir(parents=True, exist_ok=True)
    write_daily_file(series, config.out_file)
    decay_note = "" if config.decay_to is None else f" decay_to={config.decay_to!r}"
    print(
        f"simulated a={params.a!r} b={params.b!r} s0={params.s0!r} "
        f"days={params.n_days} seed={params.seed} dt={params.dt!r}{decay_note} "
        f"-> {config.out_file}"
    )
    return EXIT_OK


def run_selftest_command(config: RunConfig) -> int:
    from .selftest import format_results, run_selftest

    results = run_selftest(tolerance_scale=0.1 if config.strict else 1.0)
    print(format_results(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_SELFTEST


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketreg",
        description="Estimate long-run stock-index regularities from daily data, "
        "or simulate paths with known parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one or more daily data files")
    pa.add_argument("--input", nargs="+", action="extend", required=True, metavar="FILE",
                    help="daily data file(s); repeatable")
    pa.add_argument("--bin-width", type=float, default=DEFAULT_BIN_WIDTH,
                    help="histogram bin width in percent (default 0.1)")
    pa.add_argument("--variance-fit", choices=["intercept", "origin"], default="intercept",
                    help="monthly variance trend fit mode")
    pa.add_argument("--out", type=Path, default=Path("."), metavar="DIR",
                    help="output directory for report.json and plot files")
    pa.add_argument("--plots", action="store_true", help="emit plot-ready TSV files")
    pa.add_argument("--date-column", default="Date")
    pa.add_argument("--price-column", default="Close")
    pa.add_argument("--volume-column", default=None)
    pa.add_argument("--date-format", default="%Y-%m-%d")
    pa.add_argument("--delimiter", default=",")
    pa.add_argument("--decimal-comma", action="store_true",
                    help="prices use a comma as the decimal separator")

    ps = sub.add_parser("simulate", help="simulate a price path with known parameters")
    ps.add_argument("--a", type=float, required=True, help="drift, fraction per day")
    ps.add_argument("--b", type=float, required=True, help="volatility, fraction per sqrt(day)")
    ps.add_argument("--s0", type=float, required=True, help="initial price")
    ps.add_argument("--days", type=int, required=True, help="path length in trading days")
    ps.add_argument("--seed", type=int, required=True, help="64-bit generator seed")
    ps.add_argument("--dt", type=float, default=1.0, help="day fraction per step")
    ps.add_argument("--decay-to", type=float, default=None,
                    help="end volatility of a linear decay schedule")
    ps.add_argument("--out", type=Path, required=True, metavar="FILE")
    ps.add_argument("--volume-nu", type=float, default=None,
                    help="also emit a volume column growing at this fraction per day")
    ps.add_argument("--volume-n0", type=float, default=1e6)
    ps.add_argument("--volume-noise", type=float, default=0.0)

    pt = sub.add_parser("selftest", help="run the simulator-backed oracle suite")
    pt.add_argument("--strict", action="store_true",
                    help="shrink tolerances 10x (statistical checks are expected to fail)")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.command == "analyze":
        return RunConfig(
            command="analyze",
            input_paths=[Path(p) for p in args.input],
            date_column=args.date_column,
            price_column=args.price_column,
            volume_column=args.volume_column,
            date_format=args.date_format,
            delimiter=args.delimiter,
            decimal_comma=args.decimal_comma,
            bin_width=args.bin_width,
            variance_fit_mode=args.variance_fit,
            output_dir=args.out,
            emit_plots=args.plots,
        )
    if args.command == "simulate":
        gbm = GbmParams(a=args.a, b=args.b, s0=args.s0, n_days=args.days,
                        seed=args.seed, dt=args.dt)
        return RunConfig(
            command="simulate",
            gbm=gbm,
            decay_to=args.decay_to,
            out_file=args.out,
            volume_nu=args.volume_nu,
            volume_n0=args.volume_n0,
            volume_noise=args.volume_noise,
        )
    return RunConfig(command="selftest", strict=args.strict)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        if config.command == "analyze":
            return run_analyze(config)
        if config.command == "simulate":
            return run_simulate(config)
        return run_selftest_command(config)
    except _CliFailure as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MarketRegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def entrypoint() -> None:
    sys.exit(main())
