"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints one `[acceptance] criterion N: PASS/FAIL` line (visible
under `pytest -s` or in the captured output of a failing run) and then
asserts.

Criterion 2 reads `a` and `m` from the published table, where `a` is printed
to 2 decimals and `m` to 3. The printed digits fix each value only to within
half a unit in the last place, so the check computes the interval of
m/(a/100) that the printed values allow and requires every row's interval to
meet the [18, 23] trading-days band. On the coarsely printed Nikkei row the
point ratio is 30 but the interval is [16.7, 70]. `printed_ratio_interval`,
the helper behind the check, is tested directly below it, including rows the
check must reject.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from helpers import exponential_series
from marketreg.benchmarks import INDEX_BENCHMARKS, benchmark_columns
from marketreg.cli import main
from marketreg.estimators import (
    Histogram,
    analyze_index,
    fit_daily_growth,
    fit_gaussian_offset,
    fit_monthly_growth,
    pearson_correlation,
)
from marketreg.ingest import parse_daily_path
from marketreg.series import monthly_aggregates
from marketreg.simulate import (
    GbmParams,
    simulate_gbm,
    wiener_increments,
)

# Pinned seeds; the statistical bounds below were verified to hold for them.
WIENER_SEED = 20190419
GBM_SEED = 20190421
DECAY_SEED = 20190422


def _report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number}: {status} - {detail}")


def test_criterion_1_pearson_from_printed_values():
    r = pearson_correlation(benchmark_columns("a"), benchmark_columns("m"))
    ok = abs(r - 0.987) <= 0.002
    _report(1, ok, f"r(a, m) = {r:.6f}, required 0.987 +/- 0.002")
    assert ok, f"r = {r}"


# Criterion 2's band of implied trading days per month, m/(a/100).
RATIO_BAND = (18.0, 23.0)


def printed_ratio_interval(a: float, m: float) -> tuple[float, float]:
    """Closed interval of m/(a/100) allowed by `a` printed to 2 decimals and
    `m` printed to 3, the precision of `report.display_row`.

    PAPER.md does not say whether the published digits were rounded or
    truncated; like `display_row`, this assumes rounding. Each true value
    then lies in v +/- h, h being half a unit in the last printed digit; the
    closed bounds cover round-half-up and round-half-even alike. The ratio
    counts trading days, so both rates are taken as non-negative: a lower
    bound below zero is clamped to zero, and when `a` may be zero the ratio
    is unbounded above (math.inf).
    """
    a_lo, a_hi = max(a - 0.005, 0.0), a + 0.005
    m_lo, m_hi = max(m - 0.0005, 0.0), m + 0.0005
    lo = m_lo / (a_hi / 100.0)
    hi = math.inf if a_lo == 0.0 else m_hi / (a_lo / 100.0)
    return lo, hi


def meets_ratio_band(interval: tuple[float, float]) -> bool:
    lo, hi = interval
    return lo <= RATIO_BAND[1] and hi >= RATIO_BAND[0]


def test_criterion_2_self_similarity_ratio_from_printed_values():
    rows = {
        name: (row["m"] / (row["a"] / 100.0), printed_ratio_interval(row["a"], row["m"]))
        for name, row in INDEX_BENCHMARKS.items()
    }
    ok = all(meets_ratio_band(interval) for _, interval in rows.values())
    detail = ", ".join(
        f"{name}={point:.1f} in [{lo:.1f}, {hi:.1f}]"
        for name, (point, (lo, hi)) in rows.items()
    )
    _report(
        2,
        ok,
        f"m/(a/100) at printed precision meets [18, 23] for every row; got {detail}",
    )
    assert ok, f"intervals missing [18, 23]: {rows}"


@pytest.mark.parametrize(
    "a, m, lo, hi, meets",
    [
        (0.03, 0.006, 15.7, 26.0, True),  # S&P 500, DAX
        (0.04, 0.009, 18.9, 27.1, True),  # SSE Composite
        (0.01, 0.003, 16.7, 70.0, True),  # Nikkei
        (0.01, 0.002, 10.0, 50.0, True),  # FTSE 100
        (0.05, 0.010, 17.3, 23.3, True),  # NIFTY
        (0.01, 0.004, 23.3, 90.0, False),
        (0.05, 0.003, 4.5, 7.8, False),
        (0.03, 0.009, 24.3, 38.0, False),
    ],
)
def test_printed_ratio_interval_accepts_and_rejects(a, m, lo, hi, meets):
    interval = printed_ratio_interval(a, m)
    assert interval == pytest.approx((lo, hi), abs=0.05)
    assert meets_ratio_band(interval) is meets


def test_printed_ratio_interval_zero_a_is_unbounded_above():
    lo, hi = printed_ratio_interval(0.0, 0.003)
    assert lo == pytest.approx(50.0)
    assert hi == math.inf
    assert not meets_ratio_band((lo, hi))


def test_criterion_3_noiseless_exponential_exactness():
    series = exponential_series(5e-4, 21 * 48)
    a, _ = fit_daily_growth(series)
    m, _ = fit_monthly_growth(monthly_aggregates(series))
    ok = abs(a - 0.05) <= 1e-9 and abs(m - 0.01050) <= 1e-9
    _report(3, ok, f"a = {a:.12f} (0.05 +/- 1e-9), m = {m:.12f} (0.01050 +/- 1e-9)")
    assert ok


def test_criterion_4_gbm_drift_and_volatility_recovery():
    series = simulate_gbm(GbmParams(a=3e-4, b=0.012, s0=1000.0, n_days=5500, seed=GBM_SEED))
    rep = analyze_index(series)
    a_tol = 3 * 100 * rep.diagnostics["daily_growth"].stderr_slope
    mu_tol = 3 * rep.sigma / math.sqrt(5500)
    ok_a = abs(rep.a - 0.03) <= a_tol
    ok_sigma = abs(rep.sigma - 1.2) <= 0.05 * 1.2
    ok_mu = abs(rep.mu - 0.03) <= mu_tol
    ok = ok_a and ok_sigma and ok_mu
    _report(
        4,
        ok,
        f"a = {rep.a:.5f} (0.03 +/- {a_tol:.5f}), sigma = {rep.sigma:.4f} "
        f"(1.2 +/- 5%), mu = {rep.mu:.5f} (0.03 +/- {mu_tol:.5f})",
    )
    assert ok


def test_criterion_5_wiener_contract():
    dw = wiener_increments(100_000, dt=1.0, seed=WIENER_SEED)
    mean, std = float(dw.mean()), float(dw.std())
    lag1 = float(np.corrcoef(dw[:-1], dw[1:])[0, 1])
    std4 = float(wiener_increments(100_000, dt=4.0, seed=WIENER_SEED + 1).std())
    ok = (
        abs(mean) < 0.0095
        and 0.99 <= std <= 1.01
        and abs(lag1) < 0.0095
        and 1.98 <= std4 <= 2.02
    )
    _report(
        5,
        ok,
        f"mean = {mean:+.5f} (<0.0095), std = {std:.5f} ([0.99, 1.01]), "
        f"lag1 = {lag1:+.5f} (<0.0095), std(dt=4) = {std4:.5f} ([1.98, 2.02])",
    )
    assert ok


def test_criterion_6_volatility_decline_sign():
    flat = analyze_index(
        simulate_gbm(GbmParams(a=3e-4, b=0.012, s0=1000.0, n_days=5500, seed=GBM_SEED))
    )
    flat_stderr = flat.diagnostics["variance_decline"].stderr_slope
    ok_flat = abs(flat.w) < 3 * flat_stderr

    decay = analyze_index(
        simulate_gbm(
            GbmParams(a=3e-4, b=0.02, s0=1000.0, n_days=240 * 21, seed=DECAY_SEED, b_end=0.005)
        )
    )
    decay_stderr = decay.diagnostics["variance_decline"].stderr_slope
    ok_decay = decay.w < 0 and abs(decay.w) > 3 * decay_stderr
    ok = ok_flat and ok_decay
    _report(
        6,
        ok,
        f"constant-b: |w| = {abs(flat.w):.2e} < 3*stderr = {3 * flat_stderr:.2e}; "
        f"decay: w = {decay.w:.2e} < 0 with |w| > 3*stderr = {3 * decay_stderr:.2e}",
    )
    assert ok


def test_criterion_7_offset_gaussian_fit():
    edges = tuple(-3.25 + 0.5 * i for i in range(14))
    centers = [0.5 * (edges[i] + edges[i + 1]) for i in range(13)]
    counts = tuple(1.0 + 100.0 * math.exp(-(c**2) / 2.0) for c in centers)
    fit = fit_gaussian_offset(Histogram(edges, counts), mu=0.0, sigma=1.0)
    tail = float(fit.evaluate(8.0))
    ok = abs(fit.f0 - 100.0) <= 1e-9 and abs(tail - 1.0) <= 1e-10
    _report(
        7,
        ok,
        f"f0 = {fit.f0:.12f} (100 +/- 1e-9), f(8 sigma) - 1 = {tail - 1.0:.2e} (<= 1e-10)",
    )
    assert ok


def test_criterion_8_end_to_end_pipeline_determinism(tmp_path):
    payloads = []
    for run in ("one", "two"):
        sim = tmp_path / run / "sim.csv"
        out = tmp_path / run / "out"
        assert (
            main(
                ["simulate", "--a", "0.0004", "--b", "0.014", "--s0", "1500",
                 "--days", "3360", "--seed", "271828",
                 "--volume-nu", "0.0004", "--volume-noise", "0.15",
                 "--out", str(sim)]
            )
            == 0
        )
        assert main(["analyze", "--input", str(sim), "--out", str(out), "--plots"]) == 0
        payloads.append((out / "report.json").read_bytes())
    ok = payloads[0] == payloads[1]
    _report(8, ok, f"two full runs, report.json byte-identical: {ok}")
    assert ok


NIFTY_PATH = None
for candidate in ("data/NIFTY.csv", "data/nifty.csv"):
    p = Path(__file__).resolve().parent.parent / candidate
    if p.exists():
        NIFTY_PATH = p
        break
if os.environ.get("MARKETREG_NIFTY_CSV"):
    NIFTY_PATH = Path(os.environ["MARKETREG_NIFTY_CSV"])


@pytest.mark.skipif(NIFTY_PATH is None, reason="no user-supplied NIFTY daily file")
def test_criterion_9_nifty_reproduction():
    rep = analyze_index(parse_daily_path(NIFTY_PATH))
    checks = {
        "a": abs(rep.a - 0.05) <= 0.01,
        "mu": abs(rep.mu - 0.057) <= 0.005,
        "sigma": abs(rep.sigma - 1.495) <= 0.01,
        "m": abs(rep.m - 0.010) <= 0.001,
        "w": abs(rep.w - (-3.41e-6)) <= 0.5e-6,
        "nu": rep.nu is not None and abs(rep.nu - 0.04) <= 0.01,
        "spike": rep.spike_month is not None and rep.spike_month[0] in (2008, 2009),
    }
    ok = all(checks.values())
    _report(
        9,
        ok,
        f"a={rep.a:.3f} mu={rep.mu:.3f} sigma={rep.sigma:.3f} m={rep.m:.4f} "
        f"w={rep.w:.3e} nu={rep.nu} spike={rep.spike_month}; checks={checks}",
    )
    assert ok
