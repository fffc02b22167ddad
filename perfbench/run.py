#!/usr/bin/env python3
"""marketreg benchmark: one seeded command per workload and mode.

    python3 perfbench/run.py --workload paper-six --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
Workloads (BENCHMARK.json records why each one exists):

  paper-six     one subprocess `marketreg analyze --plots` over six 5,500-row files
  long-history  one subprocess `marketreg analyze` over two 100,000-row files
  oracle-sweep  in process: simulate one 5,500-day path, write it, analyze it

Inputs come from the seed and are made before timing. One client runs
operations back to back (a closed loop, one in flight) for --seconds and
gates every output (gate.py). ``--trace 0`` prints the end-to-end metrics;
set-up is timed in fresh interpreters after every operation (or slice of
oracle-sweep operations), outside the measured window.
``--trace 1`` runs the operations in process, alternating untraced and
traced ones, and prints the per-layer metrics; its spans are written to
``.perfbench-out/``. A layer figure of a boundary the workload never
crosses (simulate on paper-six, the pool on oracle-sweep) reads 0. The
last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from contextlib import contextmanager, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "marketreg" / "__init__.py").is_file():
    sys.exit(f"error: no package source at {SRC / 'marketreg'}")
sys.path.insert(0, str(SRC))

from marketreg import cli, estimators, ingest, report  # noqa: E402

import gate  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
import sweep  # noqa: E402

WORKLOADS = ("paper-six", "long-history", "oracle-sweep")
SETUP_EVERY_S = 3.0  # one set-up sample per this much operation time, at least one per op
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 150  # a hung child is killed so that the run still ends in time
IMPORT_CLI = "import marketreg.cli"
TIME_IMPORT_CLI = (
    "import time; t = time.perf_counter(); import marketreg.cli; "
    "print(time.perf_counter() - t)"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@contextmanager
def child(argv: list[str], cwd: Path, **popen):
    """Start a child, killed if it outlives CHILD_TIMEOUT_S; its stderr is
    this process's. Leaving the block closes its stdin, waits for it and sets
    ``peak_rss_mb``; on an error in the block the child is killed and reaped."""
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), **popen)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        yield proc
        if proc.stdin:
            proc.stdin.close()
        # wait4 rather than wait: it returns this child's own peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.peak_rss_mb = usage.ru_maxrss / 1024
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        for pipe in (proc.stdin, proc.stdout):
            if pipe:
                pipe.close()


def run_child(argv: list[str], cwd: Path, capture: bool = False):
    """Run one child to completion: (wall s, exit code, peak RSS MiB, stdout)."""
    start = perf_counter()
    with child(argv, cwd, stdout=subprocess.PIPE if capture else subprocess.DEVNULL) as proc:
        out = proc.stdout.read() if capture else b""
    wall = perf_counter() - start
    return wall, proc.returncode, proc.peak_rss_mb, out.decode()


def setup_samples(argv: list[str], cwd: Path, n: int) -> list[float]:
    """Wall times of ``n`` fresh interpreters running ``argv``."""
    runs = [run_child(argv, cwd) for _ in range(n)]
    if any(rc != 0 for _, rc, _, _ in runs):
        raise RuntimeError(f"set-up command failed: {argv}")
    return [wall for wall, _, _, _ in runs]


class CliWorkload:
    """paper-six or long-history: input files, the reference report and the gate."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.work = work
        self.plots = name == "paper-six"
        specs = inputs.specs_for(name, seed)
        paths = inputs.write_inputs(name, seed, work / "in")
        self.out = work / "out"
        self.argv = ["analyze", "--input", *map(str, paths), "--out", str(self.out)]
        if self.plots:
            self.argv.append("--plots")
        self.rows = sum(spec.n_days for spec in specs)
        # The reference is computed once, with the same calls run one after
        # another; their time is the sequential base of cli.pool_gain.
        start = perf_counter()
        reports = [estimators.analyze_index(ingest.parse_daily_path(p)) for p in paths]
        self.sequential_s = perf_counter() - start
        self.reference = report.render_report_json(report.report_payload(reports))
        self.truths = {spec.name: inputs.truth(spec) for spec in specs}

    def setup_argv(self) -> list[str]:
        return [sys.executable, "-c", IMPORT_CLI]

    def problems(self, code: int) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        return gate.cli_problems(self.out, self.reference, self.truths, self.plots)

    def subprocess_op(self, record) -> float:
        shutil.rmtree(self.out, ignore_errors=True)
        wall, code, rss, _ = run_child([sys.executable, "-m", "marketreg", *self.argv], self.work)
        record(wall, self.problems(code), rss)
        return wall

    def measure(self, seconds: float, res: Results, between) -> None:
        measure.closed_loop(seconds, lambda: self.subprocess_op(res), between)

    def in_process_op(self, record, call=None) -> float:
        """Run ``cli.main`` in this process; ``call`` lets a tracer wrap it."""
        shutil.rmtree(self.out, ignore_errors=True)
        start = perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                code = call(cli.main, self.argv) if call else cli.main(self.argv)
        except Exception as exc:  # counted as a failed operation
            wall = perf_counter() - start
            record(wall, [f"{type(exc).__name__}: {exc}"])
            return wall
        wall = perf_counter() - start
        record(wall, self.problems(code))
        return wall


class SweepWorkload:
    """oracle-sweep: one simulated path per operation, each with its own seed."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.work = work
        self.rows = inputs.PAPER_DAYS
        self.sequential_s = 0.0
        self._paths = itertools.count(1)  # path 0 is the warm-up

    def worker_argv(self, *args: str) -> list[str]:
        return [sys.executable, str(Path(sweep.__file__)), "--seed", str(self.seed), *args]

    def setup_argv(self) -> list[str]:
        return self.worker_argv("--warmup")

    def measure(self, seconds: float, res: Results, between) -> None:
        """Untraced ops in one worker process, whose peak RSS is the op's.
        The window is cut into slices; ``between`` runs after each."""
        n = max(1, round(seconds / SETUP_EVERY_S))
        argv = self.worker_argv("--serve")
        with child(argv, self.work, stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
            for _ in range(n):
                proc.stdin.write(f"{seconds / n!r}\n".encode())
                proc.stdin.flush()
                line = proc.stdout.readline()
                if not line:
                    raise RuntimeError("oracle-sweep worker ended early")
                data = json.loads(line)
                res.times += data["times"]
                res.failed += data["failed"]
                res.first_problem = res.first_problem or data["first_problem"]
                between(seconds / n)
        if proc.returncode != 0:
            raise RuntimeError(f"oracle-sweep worker exited with {proc.returncode}")
        res.rss.append(proc.peak_rss_mb)

    def in_process_op(self, record, call=None) -> float:
        spec = inputs.sweep_spec(self.seed, next(self._paths))
        run = (lambda s: call(sweep.sweep_op, s)) if call else sweep.sweep_op
        wall, problems = sweep.checked_op(spec, run)
        record(wall, problems)
        return wall


class Results:
    def __init__(self):
        self.times: list[float] = []
        self.rss: list[float] = []
        self.failed = 0
        self.first_problem = None

    def __call__(self, wall: float, problems: list[str], rss: float | None = None) -> None:
        self.times.append(wall)
        if rss is not None:
            self.rss.append(rss)
        if problems:
            self.failed += 1
            self.first_problem = self.first_problem or problems[0]


def end_to_end(w, seconds: float) -> tuple[dict, Results, str]:
    # Set-up is sampled after every operation (several times after a long
    # one), so that host speed drifting during a run moves ops and set-up
    # alike. The first set-up run only writes bytecode caches and is not
    # counted.
    setup_samples(w.setup_argv(), w.work, 1)
    setups = []

    def between(last: float) -> None:
        n = max(1, round(last / SETUP_EVERY_S))
        setups.extend(setup_samples(w.setup_argv(), w.work, n))

    res = Results()
    w.measure(seconds, res, between)
    tail, pct, beyond = measure.tail(res.times)
    ok = len(res.times) - res.failed
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(res.times),
        "op_tail_s": tail,
        "rows_per_s": ok * w.rows / sum(res.times),
        "peak_rss_mb": statistics.median(res.rss),
    }
    note = f"op_tail_s is p{pct:.1f} of {len(res.times)} ops with {beyond} beyond"
    if beyond == 0:
        note += f" (fewer than {2 * measure.TAIL_SUPPORT} ops: maximum reported)"
    return metrics, res, note


def per_layer(w, seconds: float, seed: int) -> tuple[dict, Results, str]:
    tracer = spans.Tracer()
    res, untraced, traced = Results(), [], []

    def pair() -> float:
        untraced.append(w.in_process_op(res))
        with spans.traced(tracer, layers.BOUNDARIES):
            op_id = len(traced) + 1
            traced.append(w.in_process_op(res, lambda fn, arg: tracer.run_op(op_id, fn, arg)))
        return untraced[-1] + traced[-1]

    measure.closed_loop(seconds, pair)
    tracer.write(ROOT / ".perfbench-out" / f"spans-{w.name}-seed{seed}.jsonl")
    tracer.require(*layers.REQUIRED[w.name])
    metrics = layers.layer_metrics(tracer, len(traced), w.sequential_s)
    imports = [run_child([sys.executable, "-c", TIME_IMPORT_CLI], w.work, capture=True)
               for _ in range(IMPORT_REPEATS)]
    metrics["cli.import_s"] = statistics.median(float(out) for _, _, _, out in imports)
    metrics["trace.overhead_ratio"] = layers.overhead_ratio(traced, untraced)
    return metrics, res, f"{len(untraced)} untraced and {len(traced)} traced in-process ops"


def declared_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        kind = SweepWorkload if args.workload == "oracle-sweep" else CliWorkload
        w = kind(args.workload, args.seed, work)
        ref_kernel = measure.reference_kernel_s()
        if args.trace:
            metrics, res, note = per_layer(w, args.seconds, args.seed)
            metrics["host.ref_kernel_s"] = ref_kernel
        else:
            metrics, res, note = end_to_end(w, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    attempted = len(res.times)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(f"fail_ratio = {res.failed / attempted!r} ratio ({res.failed} of {attempted} ops failed)")
    info = {"workload": args.workload, "seed": args.seed, "note": note,
            "host.ref_kernel_s": ref_kernel, "machine": measure.machine_info()}
    print(json.dumps(info))
    if res.first_problem:
        print(f"first failed check: {res.first_problem}", file=sys.stderr)
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": attempted,
        "failed": res.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
