"""Command-line entry point: analyze data files, simulate paths, self-test.

Exit codes: 0 success, 2 input error (bad data, columns or simulate parameters,
including a simulated price past float64 or volume past int64, a day-over-day
change past float64, and two inputs whose plot files would share a name),
3 estimation error, 4 selftest failure.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
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


def _process_count(n_inputs: int) -> int:
    """Processes for ``n_inputs`` inputs: one per usable CPU, at most one per input."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(n_inputs, cpus)


def _in_processes(work, items: list, n: int) -> list:
    """``[work(item) for item in items]``, with ``items[k::n]`` run in a forked
    child for each k >= 1 and ``items[0::n]`` in this process.

    An exception raised in a child's share is raised here, after every child
    has been reaped; a child that ends without a result raises
    ChildProcessError naming its exit status.
    """
    if n == 1:
        return [work(item) for item in items]
    pipes = {}  # child pid -> read end of the pipe its result comes through
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                # The child ends here on every path: it never returns into the
                # caller's stack or flushes the stdio buffers it inherited.
                code = 1
                try:
                    os.close(r)
                    for fh in pipes.values():
                        fh.close()
                    try:
                        result = [work(item) for item in items[k::n]]
                    except Exception as exc:
                        result = exc
                    with open(w, "wb") as out:  # protocol 5 keeps arrays read-only
                        pickle.dump(result, out, protocol=pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            pipes[pid] = open(r, "rb")
        shares = [[work(item) for item in items[0::n]]]
        data = [fh.read() for fh in pipes.values()]
    finally:
        # Closing a read end first lets a child still writing fail instead of
        # blocking, so that every wait below returns.
        for fh in pipes.values():
            fh.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pipes]
    for pid, code in zip(pipes, codes):
        if code != 0:
            raise ChildProcessError(f"worker process {pid} ended without a result "
                                    f"(exit status {code})")
    for blob in data:
        shares.append(pickle.loads(blob))
        if isinstance(shares[-1], Exception):
            raise shares[-1]
    return [shares[i % n][i // n] for i in range(len(items))]


def _analyze_input(path: Path, ingest_config: IngestConfig, args: argparse.Namespace) -> tuple:
    """(index name, length, report) of one input. On an error the report's
    place holds the exception, and a parse error also leaves the name and
    length None, so that the caller can raise errors in input order."""
    try:
        series = parse_daily_path(path, ingest_config)
    except Exception as exc:
        return None, None, exc
    try:
        report = analyze_index(
            series, bin_width=args.bin_width, variance_fit_mode=args.variance_fit
        )
    except Exception as exc:
        report = exc
    return series.index_name, len(series), report


def run_analyze(args: argparse.Namespace) -> int:
    """Parse and analyze every input, then write report.json (atomically) and,
    on request, the six plot-ready TSV files per index.

    The inputs are shared round-robin between this process and forked
    children, one process per usable CPU; errors, warnings and files come out
    as they would from a single process working through the inputs in order.
    """
    ingest_config = IngestConfig(
        date_column=args.date_column,
        price_column=args.price_column,
        volume_column=args.volume_column,
        date_format=args.date_format,
        delimiter=args.delimiter,
        decimal_comma=args.decimal_comma,
    )
    n = _process_count(len(args.input))
    outcomes = _in_processes(lambda path: _analyze_input(path, ingest_config, args), args.input, n)

    for path, (name, _, error) in zip(args.input, outcomes):
        if name is None:
            if isinstance(error, FileNotFoundError):
                raise _CliFailure(EXIT_INPUT, f"{path}: file not found") from None
            if isinstance(error, MarketRegError):
                raise _CliFailure(error.exit_code, f"{path}: {error}") from None
            raise error

    for name, length, _ in outcomes:
        if length < SHORT_SERIES_WARNING:
            print(
                f"warning: {name}: only {length} trading days; "
                f"estimates are noisy below {SHORT_SERIES_WARNING}",
                file=sys.stderr,
            )

    if args.plots:
        check_plot_stems(args.input, [name for name, _, _ in outcomes])

    for name, _, report in outcomes:
        if isinstance(report, MarketRegError):
            raise _CliFailure(report.exit_code, f"{name}: {report}") from None
        if isinstance(report, Exception):
            raise report
    reports = [report for _, _, report in outcomes]

    payload = report_payload(reports)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.plots:
        plots_dir = args.out / "plots"
        plots_dir.mkdir(exist_ok=True)
        _in_processes(lambda rep: write_plot_files(rep, plots_dir), reports, n)
    report_path = args.out / "report.json"
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


def run_simulate(args: argparse.Namespace) -> int:
    """Write one simulated path (and optional volume column) in the canonical format."""
    params = GbmParams(
        a=args.a, b=args.b, s0=args.s0, n_days=args.days, seed=args.seed, dt=args.dt
    )
    schedule = (
        VolatilitySchedule.linear_decay(params.b, args.decay_to)
        if args.decay_to is not None
        else None
    )
    series = simulate_gbm(params, schedule, index_name=args.out.stem)
    if args.volume_nu is not None:
        # The volume stream is seeded one past the price stream.
        volumes = simulate_volume(
            args.volume_nu, args.volume_n0, args.volume_noise, params.n_days, params.seed + 1
        )
        series = series.with_volumes(volumes)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_daily_file(series, args.out)
    decay_note = "" if args.decay_to is None else f" decay_to={args.decay_to!r}"
    print(
        f"simulated a={params.a!r} b={params.b!r} s0={params.s0!r} "
        f"days={params.n_days} seed={params.seed} dt={params.dt!r}{decay_note} "
        f"-> {args.out}"
    )
    return EXIT_OK


def run_selftest_command(args: argparse.Namespace) -> int:
    from .selftest import format_results, run_selftest

    results = run_selftest(tolerance_scale=0.1 if args.strict else 1.0)
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
    pa.add_argument("--input", type=Path, nargs="+", action="extend", required=True, metavar="FILE",
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return run_analyze(args)
        if args.command == "simulate":
            return run_simulate(args)
        return run_selftest_command(args)
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
