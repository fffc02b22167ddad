"""The layer boundaries the traced run wraps, and the per-layer metrics
derived from its spans.

Layers are the package modules: cli, ingest, series, estimators, report and
simulate. A boundary is named once per module that looks the function up,
because wrapping ``marketreg.estimators.daily_fluctuations`` does not change
the name ``marketreg.report`` imported.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from pathlib import Path

from spans import Boundary, Span, Tracer, ancestors, self_times


def _count_parse(tracer: Tracer, args, series) -> None:
    tracer.add("ingest.bytes_read", Path(args[0]).stat().st_size)
    tracer.add("ingest.rows_parsed", len(series))


def _count_write_daily(tracer: Tracer, args, _result) -> None:
    tracer.add("ingest.bytes_written", args[1].tell())  # a fresh text buffer of ASCII


def _count_report(tracer: Tracer, args, _result) -> None:
    tracer.add("report.bytes_written", Path(args[1]).stat().st_size)


def _count_plots(tracer: Tracer, _args, paths) -> None:
    tracer.add("report.bytes_written", sum(Path(p).stat().st_size for p in paths))


def _count_steps(tracer: Tracer, args, _result) -> None:
    tracer.add("simulate.steps", args[0].n_days - 1)


BOUNDARIES = [
    Boundary("marketreg.cli", "main", "cli.main"),
    Boundary("marketreg.cli", "parse_daily_path", "ingest.parse_daily_path", _count_parse),
    Boundary("marketreg.cli", "analyze_index", "estimators.analyze_index"),
    Boundary("marketreg.cli", "report_payload", "report.report_payload"),
    Boundary("marketreg.cli", "write_plot_files", "report.write_plot_files", _count_plots),
    Boundary("marketreg.cli", "write_report_atomic", "report.write_report_atomic", _count_report),
    Boundary("marketreg.estimators", "analyze_index", "estimators.analyze_index"),
    Boundary("marketreg.estimators", "fit_daily_growth", "estimators.fit_daily_growth"),
    Boundary("marketreg.estimators", "daily_fluctuations", "estimators.daily_fluctuations"),
    Boundary("marketreg.estimators", "build_histogram", "estimators.build_histogram"),
    Boundary("marketreg.estimators", "fit_volume_growth", "estimators.fit_volume_growth"),
    Boundary("marketreg.estimators", "monthly_aggregates", "series.monthly_aggregates"),
    Boundary("marketreg.report", "log_series", "series.log_series"),
    Boundary("marketreg.report", "daily_fluctuations", "estimators.daily_fluctuations"),
    Boundary("marketreg.report", "build_histogram", "estimators.build_histogram"),
    Boundary("marketreg.report", "monthly_aggregates", "series.monthly_aggregates"),
    Boundary("marketreg.series", "log_series", "series.log_series"),
    Boundary("marketreg.series:DailySeries", "with_volumes", "series.with_volumes"),
    Boundary("marketreg.ingest", "write_daily_file", "ingest.write_daily_file", _count_write_daily),
    Boundary("marketreg.simulate", "simulate_gbm", "simulate.simulate_gbm", _count_steps),
    Boundary("marketreg.simulate", "simulate_volume", "simulate.simulate_volume"),
]

_ANALYSIS = [
    "estimators.analyze_index",
    "estimators.fit_daily_growth",
    "estimators.daily_fluctuations",
    "estimators.build_histogram",
    "estimators.fit_volume_growth",
    "series.monthly_aggregates",
    "series.log_series",
]
_CLI = ["cli.main", "ingest.parse_daily_path", "report.report_payload", "report.write_report_atomic"]
# Spans and counters each workload must record; a missing one fails the run.
REQUIRED = {
    "paper-six": (
        _CLI + _ANALYSIS + ["report.write_plot_files"],
        ["ingest.bytes_read", "ingest.rows_parsed", "report.bytes_written"],
    ),
    "long-history": (
        _CLI + _ANALYSIS,
        ["ingest.bytes_read", "ingest.rows_parsed", "report.bytes_written"],
    ),
    "oracle-sweep": (
        _ANALYSIS
        + [
            "simulate.simulate_gbm",
            "simulate.simulate_volume",
            "series.with_volumes",
            "ingest.write_daily_file",
        ],
        ["ingest.bytes_written", "simulate.steps"],
    ),
}

# Intermediates that analyze_index computes and write_plot_files computes again.
RECOMPUTED = {
    "series.log_series",
    "estimators.daily_fluctuations",
    "estimators.build_histogram",
    "series.monthly_aggregates",
}
LAYERS = ["cli", "ingest", "series", "estimators", "report", "simulate"]

BUSY = [
    "ingest.parse_daily_path",
    "ingest.write_daily_file",
    "series.monthly_aggregates",
    "series.with_volumes",
    "estimators.analyze_index",
    "estimators.fit_daily_growth",
    "estimators.daily_fluctuations",
    "estimators.build_histogram",
    "estimators.fit_volume_growth",
    "report.report_payload",
    "report.write_report_atomic",
    "simulate.simulate_gbm",
    "simulate.simulate_volume",
]
CALLS = [
    "ingest.parse_daily_path",
    "series.monthly_aggregates",
    "series.log_series",
    "estimators.fit_daily_growth",
    "estimators.daily_fluctuations",
    "estimators.build_histogram",
    "estimators.fit_volume_growth",
]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _phase_walls(spans: list[Span], by_id: dict[int, Span]) -> float:
    """Total wall time, summed over operations, of the CLI's two pooled phases:
    first parse start to last parse end, and likewise for analysis."""
    phases = defaultdict(list)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.name == "cli.main" and s.name in (
            "ingest.parse_daily_path",
            "estimators.analyze_index",
        ):
            phases[(s.op, s.name)].append(s)
    return sum(max(s.end for s in p) - min(s.start for s in p) for p in phases.values())


def layer_metrics(tracer: Tracer, n_ops: int, sequential_s: float) -> dict[str, float]:
    """Per-operation layer figures from a traced run of ``n_ops`` operations.

    ``busy_s`` and the rates derived from it are CPU time, so that pool
    threads waiting for the GIL do not count as layer work. Wall time is
    used only where one thread's time is meant: the pooled phase walls behind
    ``cli.pool_gain`` and the self times of ``cli.main`` and
    ``write_plot_files``, which run on the operation's thread.

    ``sequential_s`` is the time the same parse and analyze calls take one
    after another in process; 0 where the workload has no pooled phase.
    """
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    busy, calls = defaultdict(float), defaultdict(int)
    for s in spans:
        busy[s.name] += s.cpu
        calls[s.name] += 1

    up = ancestors(spans)
    redone = sum(1 for s in spans if s.name in RECOMPUTED and "report.write_plot_files" in up[s.id])
    first = sum(1 for s in spans if s.name in RECOMPUTED and "estimators.analyze_index" in up[s.id])
    pooled = _phase_walls(spans, by_id) / n_ops

    m = {
        "cli.pool_gain": _ratio(sequential_s, pooled),
        "cli.other_s": sum(selfs[s.id] for s in spans if s.name == "cli.main") / n_ops,
    }
    for name in BUSY:
        m[f"{name}.busy_s"] = busy[name] / n_ops
    for name in CALLS:
        m[f"{name}.calls"] = calls[name] / n_ops
    m["ingest.parse_daily_path.rows_per_s"] = _ratio(
        tracer.counters["ingest.rows_parsed"], busy["ingest.parse_daily_path"]
    )
    m["ingest.bytes_read"] = tracer.counters["ingest.bytes_read"] / n_ops
    m["ingest.bytes_written"] = tracer.counters["ingest.bytes_written"] / n_ops
    m["report.write_plot_files.self_s"] = (
        sum(selfs[s.id] for s in spans if s.name == "report.write_plot_files") / n_ops
    )
    m["report.bytes_written"] = tracer.counters["report.bytes_written"] / n_ops
    m["report.recompute_ratio"] = _ratio(redone, first)
    m["simulate.steps_per_s"] = _ratio(
        tracer.counters["simulate.steps"], busy["simulate.simulate_gbm"]
    )
    for layer in LAYERS:
        m[f"{layer}.errors"] = float(tracer.errors[layer])
    return m


def overhead_ratio(traced: list[float], untraced: list[float]) -> float:
    return statistics.median(traced) / statistics.median(untraced)
