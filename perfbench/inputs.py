"""Seeded inputs for the benchmark workloads, made with marketreg's own simulator.

Every input is a pure function of the workload seed: the same seed gives
byte-identical files. Prices follow a GBM at a row of the published
reference table (``marketreg.benchmarks.INDEX_BENCHMARKS``); volumes are
noiseless, so the volume growth rate is recovered exactly.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from marketreg import ingest, simulate
from marketreg.benchmarks import INDEX_BENCHMARKS
from marketreg.simulate import GbmParams

import gate

S0 = 1000.0
VOLUME_N0 = 1e6
# 0.02 %/day keeps n0*exp(nu*k) below 2**63 up to k = 100,000 (max ~4.9e14).
# simulate_volume wraps silently on int64 overflow, so every generated column
# still goes through check_volumes rather than trusting this margin.
VOLUME_NU = 2e-4
PAPER_DAYS = 5500
LONG_DAYS = 100_000
LONG_ROWS = ("S&P 500", "SSE Composite")


@dataclass(frozen=True)
class PathSpec:
    """Generating parameters of one simulated index."""

    name: str
    a: float  # drift, fraction per day
    b: float  # volatility, fraction per sqrt(day)
    n_days: int
    seed: int

    def gbm(self) -> GbmParams:
        return GbmParams(a=self.a, b=self.b, s0=S0, n_days=self.n_days, seed=self.seed)


def path_seed(seed: int, workload: str, k: int) -> int:
    """64-bit simulator seed of the k-th path of a workload run; any integer
    ``seed`` works, a negative one is taken modulo 2**64."""
    key = [seed % 2**64, zlib.crc32(workload.encode()), k]
    return int(np.random.SeedSequence(key).generate_state(1, dtype=np.uint64)[0])


def file_stem(index_name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in index_name)


def table_spec(index_name: str, n_days: int, seed: int) -> PathSpec:
    row = INDEX_BENCHMARKS[index_name]
    return PathSpec(file_stem(index_name), row["a"] / 100, row["sigma"] / 100, n_days, seed)


def specs_for(workload: str, seed: int) -> list[PathSpec]:
    """The indices whose files a CLI workload analyzes."""
    names = list(INDEX_BENCHMARKS) if workload == "paper-six" else list(LONG_ROWS)
    n_days = PAPER_DAYS if workload == "paper-six" else LONG_DAYS
    return [table_spec(name, n_days, path_seed(seed, workload, k)) for k, name in enumerate(names)]


def sweep_spec(seed: int, k: int) -> PathSpec:
    """The k-th oracle-sweep path: table rows in turn, each path with its own seed."""
    names = list(INDEX_BENCHMARKS)
    return table_spec(names[k % len(names)], PAPER_DAYS, path_seed(seed, "oracle-sweep", k))


def simulate_series(spec: PathSpec):
    """The path with its volume column, seeded one past the price stream as
    ``marketreg simulate`` does. Modules are looked up at call time so that a
    traced run sees each call."""
    series = simulate.simulate_gbm(spec.gbm(), index_name=spec.name)
    volumes = simulate.simulate_volume(VOLUME_NU, VOLUME_N0, 0.0, spec.n_days, spec.seed + 1)
    return series.with_volumes(volumes)


def check_volumes(series) -> None:
    gate.check_volume_column(np.array(series.volumes()), VOLUME_NU, VOLUME_N0)


def write_inputs(workload: str, seed: int, dest: Path) -> list[Path]:
    """Write one CSV per index of a CLI workload; returns the paths in order."""
    dest.mkdir(parents=True, exist_ok=True)
    paths = []
    for spec in specs_for(workload, seed):
        path = dest / f"{spec.name}.csv"
        series = simulate_series(spec)
        check_volumes(series)
        ingest.write_daily_file(series, path)
        paths.append(path)
    return paths


def truth(spec: PathSpec) -> tuple[float, float, float]:
    """The oracle's (mu, sigma, nu) for a path, in percent and percent per day.

    mu and sigma are the mean and population s.d. of the fluctuations the
    simulator drew: simulate_gbm applies 1 + a + b*dW with dW from the same
    seeded stream as wiener_increments.
    """
    dw = simulate.wiener_increments(spec.n_days - 1, 1.0, spec.seed)
    mu = 100.0 * (spec.a + spec.b * float(dw.mean()))
    return mu, 100.0 * spec.b * float(dw.std()), 100.0 * VOLUME_NU
