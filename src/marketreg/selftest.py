"""Self-contained oracle suite: simulate with known parameters, re-estimate,
compare at statistical tolerances.

Every check is deterministic given the master seed (overridable through the
MARKETREG_SEED environment variable). ``tolerance_scale`` multiplies the
closeness tolerances; scaling them down by 10x pushes the statistical checks
beyond feasibility on purpose, which is how one demonstrates the shipped
tolerances are real rather than slack. ``volume_exact`` fails at 10x too, at
every seed: its noiseless volume counts are rounded to integers, so ``nu``
reads 2.7e-10 %/day below 0.04, inside the shipped 1e-9 but not 1e-10.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .estimators import Histogram, analyze_index, fit_gaussian_offset, fit_volume_growth
from .ingest import parse_daily_file, write_daily_file
from .report import render_report_json, report_payload
from .series import DailySeries
from .simulate import GbmParams, simulate_gbm, simulate_volume, synthetic_days, wiener_increments

DEFAULT_SEED = 20190419


def default_seed() -> int:
    text = os.environ.get("MARKETREG_SEED", str(DEFAULT_SEED))
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"MARKETREG_SEED must be an integer, got {text!r}") from None


@dataclass(frozen=True)
class CheckResult:
    name: str
    observed: str
    bound: str
    passed: bool


def _within(name: str, x: float, shown: str, target: float, tol: float, tol_shown: str,
            *, strict: bool = False, relative: bool = False) -> CheckResult:
    """Check that ``x`` lies within ``tol`` of ``target``, printing the bound
    it was judged by: ``|x - t| <= tol``, ``|x| <= tol`` for a zero target, or
    ``|x/t - 1| <= tol`` when ``relative``; ``strict`` makes ``<=`` a ``<``.
    ``shown`` formats the observed value, ``tol_shown`` is the tolerance's
    format spec."""
    if relative:
        term, gap = f"x/{target:g} - 1", x / target - 1.0
    elif target:
        term, gap = f"x - {target:g}", x - target
    else:
        term, gap = "x", x
    passed = abs(gap) < tol if strict else abs(gap) <= tol
    bound = f"|{term}| {'<' if strict else '<='} {tol:{tol_shown}}"
    return CheckResult(name, shown.format(x), bound, bool(passed))


def _exact_exponential_series(alpha: float, n_days: int, s0: float = 1000.0) -> DailySeries:
    closes = [s0 * math.exp(alpha * k) for k in range(n_days)]
    return DailySeries(synthetic_days(n_days), closes, index_name="exact-exponential")


def run_selftest(seed: int | None = None, tolerance_scale: float = 1.0) -> list[CheckResult]:
    """Run every oracle check and return one result per check."""
    seed = default_seed() if seed is None else seed
    scale = tolerance_scale
    results: list[CheckResult] = []

    # Wiener increment contract: zero mean, sqrt(dt) deviation, independence.
    n = 100_000
    dw = wiener_increments(n, dt=1.0, seed=seed)
    lag1 = float(np.corrcoef(dw[:-1], dw[1:])[0, 1])
    dw4 = wiener_increments(n, dt=4.0, seed=seed + 1)
    results += [
        _within("wiener_mean", dw.mean(), "{:+.5f}", 0.0, 0.0095 * scale, ".5f", strict=True),
        _within("wiener_std", dw.std(), "{:.5f}", 1.0, 0.01 * scale, ".5f"),
        _within("wiener_lag1_autocorr", lag1, "{:+.5f}", 0.0, 0.0095 * scale, ".5f", strict=True),
        _within("wiener_dt4_std", dw4.std(), "{:.5f}", 2.0, 0.02 * scale, ".5f"),
    ]

    # Constant-volatility path: drift, fluctuation moments, flat variance trend.
    params = GbmParams(a=3e-4, b=0.012, s0=1000.0, n_days=5500, seed=seed + 2)
    rep = analyze_index(simulate_gbm(params))
    stderr_pct = 100.0 * rep.diagnostics["daily_growth"].stderr_slope
    delta_mean_tol = 3.0 * rep.sigma / math.sqrt(params.n_days - 1) * scale
    w_stderr = rep.diagnostics["variance_decline"].stderr_slope
    results += [
        _within("gbm_drift", rep.a, "{:.5f} %/day", 0.03, 3.0 * stderr_pct * scale, ".5f"),
        _within("gbm_delta_mean", rep.mu, "{:.5f} %", 0.03, delta_mean_tol, ".5f"),
        _within("gbm_delta_std", rep.sigma, "{:.5f} %", 1.2, 0.05 * scale, ".5f", relative=True),
        _within("variance_flat", rep.w, "{:+.3e} /month", 0.0, 3.0 * w_stderr * scale, ".3e"),
    ]

    # Declining volatility must show up as a significantly negative trend.
    decay_params = GbmParams(a=3e-4, b=0.02, s0=1000.0, n_days=240 * 21, seed=seed + 3,
                             b_end=0.005)
    decay_rep = analyze_index(simulate_gbm(decay_params))
    needed = 3.0 / scale * decay_rep.diagnostics["variance_decline"].stderr_slope
    results.append(CheckResult(
        "variance_decline_sign",
        f"{decay_rep.w:+.3e} /month",
        f"x < 0 and |x| > {needed:.3e}",
        bool(decay_rep.w < 0 and abs(decay_rep.w) > needed),
    ))

    # Noiseless exponential: both growth estimators are exact.
    exact = analyze_index(_exact_exponential_series(5e-4, 48 * 21))
    tol = 1e-9 * scale
    results += [
        _within("exact_daily_growth", exact.a, "{:.12f} %/day", 0.05, tol, ".1e"),
        _within("exact_monthly_growth", exact.m, "{:.12f} /month", 0.0105, tol, ".1e"),
    ]

    # Amplitude recovery on counts manufactured exactly from the model.
    edges = tuple(-3.25 + 0.5 * i for i in range(14))
    centers = [0.5 * (edges[i] + edges[i + 1]) for i in range(13)]
    counts = tuple(1.0 + 100.0 * math.exp(-(c**2) / 2.0) for c in centers)
    fit = fit_gaussian_offset(Histogram(edges, counts), mu=0.0, sigma=1.0)
    results.append(_within("gaussian_amplitude_exact", fit.f0, "{:.12f}", 100.0, tol, ".1e"))

    # Volume growth: exact on noiseless counts, statistical under noise.
    base = simulate_gbm(GbmParams(a=3e-4, b=0.01, s0=1000.0, n_days=5000, seed=seed + 4))
    clean = base.with_volumes(simulate_volume(4e-4, 1e6, 0.0, 5000, seed + 5))
    nu_clean, _ = fit_volume_growth(clean)
    noisy = base.with_volumes(simulate_volume(4e-4, 1e6, 0.2, 5000, seed + 6))
    nu_noisy, fit_noisy = fit_volume_growth(noisy)
    results += [
        _within("volume_exact", nu_clean, "{:.12f} %/day", 0.04, tol, ".1e"),
        _within("volume_noisy", nu_noisy, "{:.5f} %/day", 0.04,
                3.0 * 100.0 * fit_noisy.stderr_slope * scale, ".5f"),
    ]

    # Full pipeline determinism: simulate -> serialize -> parse -> analyze twice.
    renders = []
    for _ in range(2):
        sim = simulate_gbm(GbmParams(a=5e-4, b=0.015, s0=1000.0, n_days=1260, seed=seed + 7))
        sim = sim.with_volumes(simulate_volume(4e-4, 1e6, 0.1, 1260, seed + 8))
        buf = io.StringIO()
        write_daily_file(sim, buf)
        parsed = parse_daily_file(buf.getvalue(), index_name="pipeline")
        renders.append(render_report_json(report_payload([analyze_index(parsed)])))
    same = renders[0] == renders[1]
    results.append(CheckResult("pipeline_determinism", "identical" if same else "mismatch",
                               "byte-identical reports", same))

    return results


def format_results(results: list[CheckResult]) -> str:
    name_w = max(len(r.name) for r in results)
    obs_w = max(len(r.observed) for r in results)
    bound_w = max(len(r.bound) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{name_w}}  {r.observed:>{obs_w}}  {r.bound:<{bound_w}}  {status}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)
