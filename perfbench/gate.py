"""Correctness gate applied to the output of every benchmark operation.

An operation passes only when its report matches the in-process reference
byte for byte, every index passes the oracle checks and, with plots, every
index has its six plot files whose embedded slopes equal the report.

The oracle's truth is the mean and population s.d. of the fluctuations the
simulator actually drew, not the generating a and b. A correct estimator
recomputes exactly those fluctuations from the closes, so it must match the
truth to rounding error, and the gate holds it to that. (The selftest's
3-sigma check against the generating drift fails on 0.27% of correct paths;
oracle-sweep analyzes hundreds of paths per run, so that check would fail
about one operation per run with nothing wrong.)
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

PLOT_SLOPES = {
    "daily_log_price": ("slope_pct_per_day", "a_pct_per_day"),
    "fluctuation_series": ("mean_pct", "mu_pct"),
    "fluctuation_histogram": ("f0", "f0"),
    "monthly_mean_log": ("slope_per_month", "m_per_month"),
    "monthly_variance": ("slope_per_month", "w_per_month"),
    "daily_log_volume": ("slope_pct_per_day", "nu_pct_per_day"),
}
# Rounding-level agreement with the drawn-sample truth: mu to within this
# share of sigma (mu itself may be near 0), sigma to within this share of itself.
EXACT_REL_TOL = 1e-9
NU_EXACT_TOL = 1e-9  # %/day; integer volume counts round the log-volume slope


class GateFailure(Exception):
    """An input or output that the benchmark must not accept."""


def check_volume_column(counts: np.ndarray, nu: float, n0: float) -> None:
    """Raise unless ``counts`` is round(n0*exp(nu*k)) for every day k.

    simulate_volume casts to int64 without an overflow check and clamps at
    zero, so a count past 2**63 turns into a zero or a wrong value silently.
    """
    expected = n0 * np.exp(nu * np.arange(len(counts)))
    if not np.all(expected < 2.0**63):
        raise GateFailure(f"volume model exceeds int64 (max {expected.max():.3e})")
    bad = np.flatnonzero(counts.astype(float) != np.rint(expected))
    if bad.size:
        k = int(bad[0])
        raise GateFailure(
            f"{bad.size} volume counts wrapped or wrong; day {k}: {int(counts[k])} "
            f"!= {np.rint(expected[k]):.0f}"
        )


def oracle_problems(index: dict, mu_true: float, sigma_true: float, nu_true: float) -> list[str]:
    """The oracle checks on one index of a report payload.

    ``mu`` within EXACT_REL_TOL*sigma of truth, ``sigma`` within EXACT_REL_TOL
    of truth relative, and ``nu`` exact to 1e-9 on noiseless volumes. The mu
    and sigma checks are stricter than, and imply, the selftest's
    mu-within-3*sigma/sqrt(n) and sigma-within-5% checks. The iid-stderr
    drift check is left out: its stated coverage is far from what it achieves.
    """
    name = index["index_name"]
    problems = []
    mu, sigma, nu = index["mu_pct"], index["sigma_pct"], index["nu_pct_per_day"]
    if not abs(mu - mu_true) <= EXACT_REL_TOL * sigma_true:
        problems.append(f"{name}: mu {mu!r} != truth {mu_true!r}")
    if not abs(sigma - sigma_true) <= EXACT_REL_TOL * sigma_true:
        problems.append(f"{name}: sigma {sigma!r} != truth {sigma_true!r}")
    if nu is None or not abs(nu - nu_true) <= NU_EXACT_TOL:
        problems.append(f"{name}: nu {nu!r} != truth {nu_true!r}")
    return problems


def embedded_value(path: Path, key: str) -> float:
    """The ``key = value`` number in a plot file's ``#`` header."""
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            marker = f"{key} = "
            if marker in line:
                return float(line.split(marker, 1)[1].split(";", 1)[0])
    raise GateFailure(f"{path.name}: no '{key} = ' in header")


def plot_problems(plot_dir: Path, index: dict, stem: str) -> list[str]:
    problems = []
    for kind, (key, field) in PLOT_SLOPES.items():
        path = plot_dir / f"{stem}_{kind}.tsv"
        if not path.is_file():
            problems.append(f"missing plot file {path.name}")
            continue
        try:
            value = embedded_value(path, key)
        except (GateFailure, ValueError) as exc:
            problems.append(str(exc))
            continue
        if value != index[field]:
            problems.append(f"{path.name}: {key} {value!r} != report {field} {index[field]!r}")
    return problems


def cli_problems(out_dir: Path, reference: str, truths: dict, plots: bool) -> list[str]:
    """Everything wrong with one `marketreg analyze` output directory.

    ``truths`` maps index name to its (mu, sigma, nu) truth. Index names are
    file stems of letters, digits and ``_``, so they are also the plot stems.
    """
    try:
        text = (out_dir / "report.json").read_text(encoding="utf-8")
    except OSError as exc:
        return [f"report.json unreadable: {exc}"]
    problems = [] if text == reference else ["report.json differs from the in-process reference"]
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return problems + [f"report.json is not JSON: {exc}"]
    indices = payload["indices"]
    if {ix["index_name"] for ix in indices} != set(truths):
        return problems + ["report indices differ from the inputs"]
    if len(indices) >= 3 and payload.get("cross_index", {}).get("pearson_a_m") is None:
        problems.append("cross_index.pearson_a_m missing")
    for index in indices:
        problems += oracle_problems(index, *truths[index["index_name"]])
        if plots:
            problems += plot_problems(out_dir / "plots", index, index["index_name"])
    return problems
