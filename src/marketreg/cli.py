"""Command-line entry point: analyze data files, simulate paths, self-test.

Exit codes: 0 success, 2 input error (bad data, columns, paths or simulate parameters,
including a simulated price past float64 or volume past int64, a day-over-day
change or its mean square past float64, a histogram past MAX_BINS bins or
with bins finer than float64 can space, and two inputs whose plot files
would share a name),
3 estimation error, 4 selftest failure.

Every command maps an OSError (an unreadable input, an unwritable output, a
failed fork) to exit 2 in ``main`` alone, printing ``error: <file>: <reason>``
(of two files, a rename's destination), or ``error: <reason>`` when it names no
file; a dead worker's ChildProcessError is raised. A failed ``analyze`` prints
one error, of its first failing input in input order, and leaves ``--out`` as it was.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import pickle
import shutil
import sys
from pathlib import Path

from .errors import MarketRegError
from .estimators import DEFAULT_BIN_WIDTH, VARIANCE_FIT_MODES, analyze_index, check_bin_width
from .ingest import IngestConfig, parse_daily_path, write_daily_file
from .report import check_plot_stems, report_payload, write_plot_files, write_report_atomic
from .simulate import GbmParams, simulate_gbm, simulate_volume

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SELFTEST = 4

# Parameters drift with window length; two decades is the intended regime.
SHORT_SERIES_WARNING = 1000

# The summary table: a format spec per column, keyed by the header cell.
_TABLE = {"index": "<20", "a": ">10", "mu": ">8", "sigma": ">8", "m": ">8", "w": ">10", "nu": ">8"}


def _process_count(n_inputs: int) -> int:
    """Processes for ``n_inputs`` inputs: one per usable CPU, at most one per input."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(n_inputs, cpus)


def _outcome(work, item):
    """``work(item)``, or the exception it raised."""
    try:
        return work(item)
    except Exception as exc:
        return exc


def _in_processes(work, items: list, n: int) -> list:
    """``work(item)``, or the exception it raised, for each item in order,
    with ``items[k::n]`` run in a forked child for each k >= 1 and
    ``items[0::n]`` in this process. Each item of a child that ends without
    a result gets a ChildProcessError naming the child's exit status.
    """
    pipes = {}  # child pid -> read end of the pipe its result comes through
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
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
                    result = [_outcome(work, item) for item in items[k::n]]
                    with open(w, "wb") as out:
                        pickle.dump(result, out)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            pipes[pid] = open(r, "rb")
        shares = [[_outcome(work, item) for item in items[0::n]]]
        data = [fh.read() for fh in pipes.values()]
    finally:
        # Closing a read end first lets a child still writing fail instead of
        # blocking, so that every wait below returns.
        for fh in pipes.values():
            fh.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pipes]
    for k, (pid, code, blob) in enumerate(zip(pipes, codes, data), start=1):
        shares.append(pickle.loads(blob) if code == 0 else [
            ChildProcessError(f"worker process {pid} ended without a result (exit status {code})")
            for _ in items[k::n]])
    return [shares[i % n][i // n] for i in range(len(items))]


def _checked(path, outcome):
    """``outcome``, unless it is an exception, which is raised; a MarketRegError's
    message first gets ``path``, the input it came from, in front."""
    if isinstance(outcome, MarketRegError):
        outcome.args = (f"{path}: {outcome}",)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _analyze_input(path: Path, ingest_config: IngestConfig, args: argparse.Namespace,
                   stage: Path) -> tuple:
    """(report, plot files) of one input, raising whatever error it meets. The
    report carries no plot arrays, since the plot files are written here, into
    ``stage``; a write error names the path it would have in ``plots``, the stage's parent."""
    report = analyze_index(parse_daily_path(path, ingest_config),
                           bin_width=args.bin_width, variance_fit_mode=args.variance_fit)
    try:
        staged = write_plot_files(report, stage) if args.plots else []
    except OSError as exc:
        if exc.filename is not None:
            exc.filename = os.fspath(exc.filename).replace(
                os.fspath(stage), os.fspath(stage.parent), 1)
        raise
    return report.without_arrays(), staged


def run_analyze(args: argparse.Namespace) -> int:
    """Parse and analyze every input, then write report.json (atomically) and,
    on request, the six plot-ready TSV files per index.

    The options and ``--out`` are checked first. The inputs are then shared
    round-robin between this process and forked children, one process per
    usable CPU: each parses, analyzes and writes its inputs' plot files into a
    private directory ``plots/.stage-<hex>`` of ``--out``. The first input, in
    input order, that fails ends the run, naming its path. Only when every
    input has succeeded are the plot files renamed into ``plots``, in input
    order, report.json written and warnings printed; a failed run removes
    them and every directory it made, ``plots`` too.
    """
    ingest_config = IngestConfig(**{f.name: getattr(args, f.name)
                                    for f in dataclasses.fields(IngestConfig)})
    check_bin_width(args.bin_width)
    if args.plots:
        check_plot_stems(args.input)
    plots_dir = args.out / "plots"
    created = [p for p in (plots_dir, args.out, *args.out.parents) if not os.path.exists(p)]
    stage = plots_dir / f".stage-{os.urandom(8).hex()}"
    report_path = args.out / "report.json"
    renamed = []  # this run's files in plots_dir, removed if the run fails
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        if args.plots:
            plots_dir.mkdir(exist_ok=True)
        outcomes = _in_processes(lambda path: _analyze_input(path, ingest_config, args, stage),
                                 args.input, _process_count(len(args.input)))
        results = [_checked(path, outcome) for path, outcome in zip(args.input, outcomes)]
        payload = report_payload([report for report, _ in results])
        for _, staged in results:
            for path in staged:
                os.replace(path, plots_dir / path.name)
                renamed.append(plots_dir / path.name)
        write_report_atomic(payload, report_path)
    except BaseException:
        for path in renamed:
            path.unlink(missing_ok=True)
        for directory in created[-1:]:  # the outermost one this run created
            shutil.rmtree(directory, ignore_errors=True)
        raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)

    for report, _ in results:
        if report.n_records < SHORT_SERIES_WARNING:
            print(f"warning: {report.index_name}: only {report.n_records} trading days; "
                  f"estimates are noisy below {SHORT_SERIES_WARNING}", file=sys.stderr)
    rows = [{"index": entry["index_name"], **entry["display"]} for entry in payload["indices"]]
    for cells in [{column: column for column in _TABLE}, *rows]:
        print(" ".join(format(cells[column], spec) for column, spec in _TABLE.items()))
    cross = payload.get("cross_index")
    if cross and cross["pearson_a_m"] is not None:
        print(f"cross-index r(a, m) = {cross['pearson_a_m']:.3f}")
    print(f"report written to {report_path}")
    return EXIT_OK


def run_simulate(args: argparse.Namespace) -> int:
    """Write one simulated path (and optional volume column) in the canonical format."""
    params = GbmParams(a=args.a, b=args.b, s0=args.s0, n_days=args.days, seed=args.seed,
                       dt=args.dt, b_end=args.decay_to)
    series = simulate_gbm(params, index_name=args.out.stem)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketreg",
        description="Estimate long-run stock-index regularities from daily data, "
        "or simulate paths with known parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one or more daily data files")
    pa.set_defaults(run=run_analyze)
    pa.add_argument("--input", type=Path, nargs="+", action="extend", required=True, metavar="FILE",
                    help="daily data file(s); repeatable")
    pa.add_argument("--bin-width", type=float, default=DEFAULT_BIN_WIDTH,
                    help="histogram bin width in percent (default %(default)s)")
    pa.add_argument("--variance-fit", choices=VARIANCE_FIT_MODES, default=VARIANCE_FIT_MODES[0],
                    help="monthly variance trend fit mode")
    pa.add_argument("--out", type=Path, default=Path("."), metavar="DIR",
                    help="output directory for report.json and plot files")
    pa.add_argument("--plots", action="store_true", help="emit plot-ready TSV files")
    pa.add_argument("--date-column", default=IngestConfig.date_column,
                    help="header of the date column (default: %(default)s)")
    pa.add_argument("--price-column", default=IngestConfig.price_column,
                    help="header of the closing-price column (default: %(default)s)")
    pa.add_argument("--volume-column", default=IngestConfig.volume_column,
                    help="header of the traded-volume column; None takes a column named "
                         "Volume if there is one (default: %(default)s)")
    pa.add_argument("--date-format", default=IngestConfig.date_format,
                    help="strptime format of the dates (default: %(default)s)")
    pa.add_argument("--delimiter", default=IngestConfig.delimiter,
                    help="field separator, one character (default: %(default)s)")
    pa.add_argument("--decimal-comma", action="store_true", default=IngestConfig.decimal_comma,
                    help="prices use a comma as the decimal separator (default: %(default)s)")

    ps = sub.add_parser("simulate", help="simulate a price path with known parameters")
    ps.set_defaults(run=run_simulate)
    ps.add_argument("--a", type=float, required=True, help="drift, fraction per day")
    ps.add_argument("--b", type=float, required=True, help="volatility, fraction per sqrt(day)")
    ps.add_argument("--s0", type=float, required=True, help="initial price")
    ps.add_argument("--days", type=int, required=True, help="path length in trading days")
    ps.add_argument("--seed", type=int, required=True, help="64-bit generator seed")
    ps.add_argument("--dt", type=float, default=GbmParams.dt, help="day fraction per step")
    ps.add_argument("--decay-to", type=float, default=GbmParams.b_end,
                    help="end volatility of a linear decline from --b")
    ps.add_argument("--out", type=Path, required=True, metavar="FILE",
                    help="daily data file to write; its file stem names the index")
    ps.add_argument("--volume-nu", type=float, default=None,
                    help="also emit a volume column growing at this fraction per day")
    ps.add_argument("--volume-n0", type=float, default=1e6,
                    help="volume on day 0, before noise (default %(default)s)")
    ps.add_argument("--volume-noise", type=float, default=0.0,
                    help="standard deviation of the noise on ln(volume) (default %(default)s)")

    pt = sub.add_parser("selftest", help="run the simulator-backed oracle suite")
    pt.set_defaults(run=run_selftest_command)
    pt.add_argument("--strict", action="store_true",
                    help="shrink tolerances 10x (statistical checks are expected to fail, and "
                         "volume_exact, whose integer volume counts put nu 2.7e-10 off)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ChildProcessError:
        raise  # a dead worker is a fault of the program, not of its input
    except OSError as exc:
        name = exc.filename if exc.filename2 is None else exc.filename2  # a rename's destination
        where = "" if name is None else f"{name}: "
        reason = "file not found" if isinstance(exc, FileNotFoundError) else exc.strerror or exc
        print(f"error: {where}{reason}", file=sys.stderr)
        return EXIT_INPUT
    except (MarketRegError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_INPUT)  # a ValueError is bad input


def entrypoint() -> None:
    sys.exit(main())
