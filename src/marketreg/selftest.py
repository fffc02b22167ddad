"""Self-contained oracle suite: simulate with known parameters, re-estimate,
compare at statistical tolerances.

Every check is deterministic given the master seed (overridable through the
MARKETREG_SEED environment variable). ``tolerance_scale`` multiplies the
closeness tolerances; scaling them down by 10x pushes the statistical checks
beyond feasibility on purpose, which is how one demonstrates the shipped
tolerances are real rather than slack.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .estimators import (
    Histogram,
    analyze_index,
    fit_gaussian_offset,
    fit_volume_growth,
)
from .ingest import parse_daily_file, write_daily_file
from .report import render_report_json, report_payload
from .series import DailySeries
from .simulate import (
    GbmParams,
    VolatilitySchedule,
    simulate_gbm,
    simulate_volume,
    synthetic_days,
    wiener_increments,
)

DEFAULT_SEED = 20190419


def default_seed() -> int:
    return int(os.environ.get("MARKETREG_SEED", DEFAULT_SEED))


@dataclass(frozen=True)
class CheckResult:
    name: str
    observed: str
    bound: str
    passed: bool


def _check(name: str, observed: str, bound: str, passed: bool) -> CheckResult:
    return CheckResult(name, observed, bound, bool(passed))


def _exact_exponential_series(alpha: float, n_days: int, s0: float = 1000.0) -> DailySeries:
    closes = [s0 * math.exp(alpha * k) for k in range(n_days)]
    return DailySeries(synthetic_days(n_days), closes, index_name="exact-exponential")


def run_selftest(
    seed: int | None = None,
    tolerance_scale: float = 1.0,
    drift_injection: float = 0.0,
) -> list[CheckResult]:
    """Run every oracle check and return one result per check.

    ``drift_injection`` is a test hook: it offsets the recovered daily growth
    before comparison so that a deliberate mismatch fails the named check.
    """
    seed = default_seed() if seed is None else seed
    scale = tolerance_scale
    results: list[CheckResult] = []

    # Wiener increment contract: zero mean, sqrt(dt) deviation, independence.
    n = 100_000
    dw = wiener_increments(n, dt=1.0, seed=seed)
    tol = 0.0095 * scale
    results.append(
        _check("wiener_mean", f"{dw.mean():+.5f}", f"|x| < {tol:.5f}", abs(dw.mean()) < tol)
    )
    tol = 0.01 * scale
    results.append(
        _check(
            "wiener_std",
            f"{dw.std():.5f}",
            f"|x - 1| <= {tol:.5f}",
            abs(dw.std() - 1.0) <= tol,
        )
    )
    lag1 = float(np.corrcoef(dw[:-1], dw[1:])[0, 1])
    tol = 0.0095 * scale
    results.append(
        _check("wiener_lag1_autocorr", f"{lag1:+.5f}", f"|x| < {tol:.5f}", abs(lag1) < tol)
    )
    dw4 = wiener_increments(n, dt=4.0, seed=seed + 1)
    tol = 0.02 * scale
    results.append(
        _check(
            "wiener_dt4_std",
            f"{dw4.std():.5f}",
            f"|x - 2| <= {tol:.5f}",
            abs(dw4.std() - 2.0) <= tol,
        )
    )

    # Constant-volatility path: drift, fluctuation moments, flat variance trend.
    params = GbmParams(a=3e-4, b=0.012, s0=1000.0, n_days=5500, seed=seed + 2)
    rep = analyze_index(simulate_gbm(params))
    a_hat = rep.a + drift_injection
    stderr_pct = 100.0 * rep.diagnostics["daily_growth"].stderr_slope
    tol = 3.0 * stderr_pct * scale
    results.append(
        _check(
            "gbm_drift",
            f"{a_hat:.5f} %/day",
            f"|x - 0.03| <= {tol:.5f}",
            abs(a_hat - 0.03) <= tol,
        )
    )
    tol = 3.0 * rep.sigma / math.sqrt(params.n_days - 1) * scale
    results.append(
        _check(
            "gbm_delta_mean",
            f"{rep.mu:.5f} %",
            f"|x - 0.03| <= {tol:.5f}",
            abs(rep.mu - 0.03) <= tol,
        )
    )
    tol = 0.05 * scale
    results.append(
        _check(
            "gbm_delta_std",
            f"{rep.sigma:.5f} %",
            f"|x/1.2 - 1| <= {tol:.5f}",
            abs(rep.sigma / 1.2 - 1.0) <= tol,
        )
    )
    w_fit = rep.diagnostics["variance_decline"]
    tol = 3.0 * w_fit.stderr_slope * scale
    results.append(
        _check(
            "variance_flat",
            f"{rep.w:+.3e} /month",
            f"|x| <= {tol:.3e}",
            abs(rep.w) <= tol,
        )
    )

    # Declining volatility must show up as a significantly negative trend.
    decay_params = GbmParams(a=3e-4, b=0.02, s0=1000.0, n_days=240 * 21, seed=seed + 3)
    schedule = VolatilitySchedule.linear_decay(0.02, 0.005)
    decay_rep = analyze_index(simulate_gbm(decay_params, schedule))
    needed = 3.0 / scale * decay_rep.diagnostics["variance_decline"].stderr_slope
    results.append(
        _check(
            "variance_decline_sign",
            f"{decay_rep.w:+.3e} /month",
            f"x < 0 and |x| > {needed:.3e}",
            decay_rep.w < 0 and abs(decay_rep.w) > needed,
        )
    )

    # Noiseless exponential: both growth estimators are exact.
    exact = analyze_index(_exact_exponential_series(5e-4, 48 * 21))
    tol = 1e-9 * scale
    results.append(
        _check(
            "exact_daily_growth",
            f"{exact.a:.12f} %/day",
            f"|x - 0.05| <= {tol:.1e}",
            abs(exact.a - 0.05) <= tol,
        )
    )
    results.append(
        _check(
            "exact_monthly_growth",
            f"{exact.m:.12f} /month",
            f"|x - 0.0105| <= {tol:.1e}",
            abs(exact.m - 0.0105) <= tol,
        )
    )

    # Amplitude recovery on counts manufactured exactly from the model.
    edges = tuple(-3.25 + 0.5 * i for i in range(14))
    centers = [0.5 * (edges[i] + edges[i + 1]) for i in range(13)]
    counts = tuple(1.0 + 100.0 * math.exp(-(c**2) / 2.0) for c in centers)
    fit = fit_gaussian_offset(Histogram(edges, counts), mu=0.0, sigma=1.0)
    tol = 1e-9 * scale
    results.append(
        _check(
            "gaussian_amplitude_exact",
            f"{fit.f0:.12f}",
            f"|x - 100| <= {tol:.1e}",
            abs(fit.f0 - 100.0) <= tol,
        )
    )

    # Volume growth: exact on noiseless counts, statistical under noise.
    base = simulate_gbm(GbmParams(a=3e-4, b=0.01, s0=1000.0, n_days=5000, seed=seed + 4))
    clean = base.with_volumes(simulate_volume(4e-4, 1e6, 0.0, 5000, seed + 5))
    nu_clean, _ = fit_volume_growth(clean)
    tol = 1e-9 * scale
    results.append(
        _check(
            "volume_exact",
            f"{nu_clean:.12f} %/day",
            f"|x - 0.04| <= {tol:.1e}",
            abs(nu_clean - 0.04) <= tol,
        )
    )
    noisy = base.with_volumes(simulate_volume(4e-4, 1e6, 0.2, 5000, seed + 6))
    nu_noisy, fit_noisy = fit_volume_growth(noisy)
    tol = 3.0 * 100.0 * fit_noisy.stderr_slope * scale
    results.append(
        _check(
            "volume_noisy",
            f"{nu_noisy:.5f} %/day",
            f"|x - 0.04| <= {tol:.5f}",
            abs(nu_noisy - 0.04) <= tol,
        )
    )

    # Full pipeline determinism: simulate -> serialize -> parse -> analyze twice.
    renders = []
    for _ in range(2):
        sim = simulate_gbm(GbmParams(a=5e-4, b=0.015, s0=1000.0, n_days=1260, seed=seed + 7))
        sim = sim.with_volumes(simulate_volume(4e-4, 1e6, 0.1, 1260, seed + 8))
        buf = io.StringIO()
        write_daily_file(sim, buf)
        parsed = parse_daily_file(buf.getvalue(), index_name="pipeline")
        renders.append(render_report_json(report_payload([analyze_index(parsed)])))
    results.append(
        _check(
            "pipeline_determinism",
            "identical" if renders[0] == renders[1] else "mismatch",
            "byte-identical reports",
            renders[0] == renders[1],
        )
    )

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
