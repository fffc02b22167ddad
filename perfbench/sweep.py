"""The oracle-sweep operation, and a worker process that measures it.

One operation simulates a 5,500-day path with a noiseless volume column,
writes it in the canonical format to a buffer and analyzes it, as
``marketreg simulate`` followed by ``analyze_index`` would, but in process.
Each path has its own seed. The package functions are looked up through
their modules so that a traced run sees every call.

Run as a script (with ``src`` on PYTHONPATH) it measures untraced in a
fresh process, so that the caller can read that process's peak RSS. With
``--serve`` it runs one warm-up path, then for every line of stdin (a number
of seconds) measures a closed loop that long and answers with one JSON line;
paths are numbered on across slices. The caller can do other work, such as
timing set-up, between slices while the worker waits.

    echo 10 | python perfbench/sweep.py --seed 1 --serve   # one JSON line per slice
    python perfbench/sweep.py --warmup                     # import and one path only
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import sys
from time import perf_counter

from marketreg import estimators, ingest, report

import gate
import inputs
import measure


def sweep_op(spec: inputs.PathSpec):
    series = inputs.simulate_series(spec)
    buf = io.StringIO()
    ingest.write_daily_file(series, buf)
    return series, estimators.analyze_index(series), buf.getvalue()


def sweep_problems(spec: inputs.PathSpec, series, rep, text: str) -> list[str]:
    """Gate for one oracle-sweep operation: volumes unwrapped, the oracle
    checks pass, and the written file has every row."""
    problems = []
    try:
        inputs.check_volumes(series)
    except gate.GateFailure as exc:
        problems.append(str(exc))
    index = report.report_payload([rep])["indices"][0]
    problems += gate.oracle_problems(index, *inputs.truth(spec))
    lines = text.splitlines()
    last = series.records[-1]
    if len(lines) != spec.n_days + 1 or lines[0] != "Date,Close,Volume":
        problems.append(f"written file has {len(lines)} lines, expected {spec.n_days + 1}")
    elif lines[-1] != f"{last.date.isoformat()},{last.close!r},{last.volume}":
        problems.append(f"written file ends with {lines[-1]!r}")
    return problems


def checked_op(spec: inputs.PathSpec, run) -> tuple[float, list[str]]:
    """Time ``run(spec)`` (which calls sweep_op) and gate its output; an
    exception counts as a failed operation."""
    start = perf_counter()
    try:
        result = run(spec)
    except Exception as exc:  # the loop keeps measuring; the failure is counted
        return perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    elapsed = perf_counter() - start
    return elapsed, sweep_problems(spec, *result)


def serve(seed: int) -> None:
    sweep_op(inputs.sweep_spec(seed, 0))  # warm-up path, not measured
    paths = itertools.count(1)
    for line in sys.stdin:
        times, problems = [], []

        def op():
            elapsed, bad = checked_op(inputs.sweep_spec(seed, next(paths)), sweep_op)
            times.append(elapsed)
            problems.append(bad)
            return elapsed

        measure.closed_loop(float(line), op)
        failed = [p for p in problems if p]
        first = failed[0][0] if failed else None
        print(json.dumps({"times": times, "failed": len(failed), "first_problem": first}),
              flush=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--serve", action="store_true", help="measure slices read from stdin")
    mode.add_argument("--warmup", action="store_true", help="run one path and exit")
    args = ap.parse_args()
    if args.warmup:
        sweep_op(inputs.sweep_spec(args.seed, 0))
    else:
        serve(args.seed)


if __name__ == "__main__":
    main()
