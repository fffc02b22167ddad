"""Estimators for the long-run regularities of a stock index.

Units follow the usual tabulation conventions:
  * daily growth ``a`` and volume growth ``nu`` are percent per day,
  * monthly growth ``m`` and variance slope ``w`` are natural-log units per month,
  * fluctuations ``delta`` are simple day-over-day percentage changes
    (not log returns).

The daily fluctuation histogram is modelled by a Gaussian with a constant
floor of one, f(delta) = 1 + f0 * exp(-(delta - mu)^2 / (2 sigma^2)), which
reconciles the continuous bell with a discrete unnormalized frequency count
whose tail cannot drop below a single observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateFit,
    DegenerateInput,
    DegenerateX,
    FluctuationOverflow,
    InsufficientData,
    NoVolumeData,
)
from .series import (
    DailySeries,
    MonthlyTable,
    _close_at,
    monthly_aggregates,
    read_only,
)

DEFAULT_BIN_WIDTH = 0.1  # percent; resolves sigma in the 1-3 range with 20-60 bins


@dataclass(frozen=True)
class FitResult:
    """One ordinary-least-squares line: slope, intercept and diagnostics."""

    slope: float
    intercept: float
    stderr_slope: float
    r_squared: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("a fit needs n >= 2")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError(f"r_squared out of [0, 1]: {self.r_squared}")
        if self.stderr_slope < 0:
            raise ValueError("stderr_slope must be >= 0")

    def predict(self, x) -> np.ndarray:
        return self.intercept + self.slope * np.asarray(x, dtype=float)


@dataclass(frozen=True, eq=False)
class Histogram:
    """Unnormalized frequency counts over uniform, left-closed right-open bins,
    as read-only float arrays.

    ``build_histogram`` always produces integer counts; the type itself
    tolerates real-valued counts so that exactly manufactured model data can
    be fitted without rounding.
    """

    bin_edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        edges = read_only(np.array(self.bin_edges, dtype=float))
        counts = read_only(np.array(self.counts, dtype=float))
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)
        if len(edges) < 2:
            raise ValueError("need at least one bin")
        if len(counts) != len(edges) - 1:
            raise ValueError("counts must have one entry per bin")
        widths = np.diff(edges)
        if np.any(widths <= 0):
            raise ValueError("bin edges must be strictly increasing")
        if not np.allclose(widths, widths[0], rtol=1e-9, atol=0.0):
            raise ValueError("bins must have uniform width")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")

    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


@dataclass(frozen=True)
class GaussianOffsetFit:
    """Fitted parameters of the unity-floored Gaussian frequency model."""

    mu: float
    sigma: float
    f0: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")
        if self.f0 < 0:
            raise ValueError("f0 must be >= 0")

    def evaluate(self, delta) -> np.ndarray:
        d = np.asarray(delta, dtype=float)
        return 1.0 + self.f0 * np.exp(-((d - self.mu) ** 2) / (2.0 * self.sigma**2))


@dataclass(frozen=True)
class RegularityReport:
    """One index's full set of regularity parameters plus fit diagnostics.

    ``nu`` is None exactly when the source has no usable volume column, and
    ``f0`` is None when the amplitude fit legitimately refuses (a constant
    price series has sigma = 0); the reason is recorded in ``errors``.
    The fields from ``ln_close`` on hold, read-only, what the fits were made
    from, so that the plot files need not compute it again.
    """

    index_name: str
    a: float
    mu: float
    sigma: float
    f0: float | None
    m: float
    w: float
    nu: float | None
    spike_tau: int
    spike_value: float
    spike_month: tuple[int, int]
    n_records: int
    n_months: int
    bin_width: float
    variance_fit_mode: str
    diagnostics: dict[str, FitResult] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    ln_close: np.ndarray | None = field(default=None, compare=False, repr=False)
    fluctuations: np.ndarray | None = field(default=None, compare=False, repr=False)
    histogram: Histogram | None = field(default=None, compare=False, repr=False)
    monthly: MonthlyTable | None = field(default=None, compare=False, repr=False)
    volume_t: np.ndarray | None = field(default=None, compare=False, repr=False)
    ln_volume: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for name in ("a", "mu", "sigma", "m", "w"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def b_hat(self) -> float:
        """Volatility coefficient implied by sigma, in fraction per sqrt(day)."""
        return self.sigma / 100.0


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """Sum of x*y by numpy's pairwise summation. np.dot would hand long vectors
    to BLAS, whose rounding depends on its thread count and whose threads keep
    spinning after the call."""
    return float(np.sum(x * y))


def linear_least_squares(x, y, through_origin: bool = False) -> FitResult:
    """Ordinary least squares of y on x, two equal-length 1-D sequences.

    The default fit carries an intercept; ``through_origin`` forces the line
    through (0, 0), in which case r_squared is the uncentered version.
    ``stderr_slope`` is the usual OLS slope standard error (defined as 0 when
    there are no residual degrees of freedom).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-D and of equal length")
    n = x.shape[0]
    if n < 2:
        raise InsufficientData("a line fit needs at least 2 points")

    if through_origin:
        sxx = _dot(x, x)
        if sxx == 0.0:
            raise DegenerateX("all x values are zero")
        slope = _dot(x, y) / sxx
        intercept = 0.0
        resid = y - slope * x
        sse = _dot(resid, resid)
        syy = _dot(y, y)
        r2 = 1.0 if syy == 0.0 else 1.0 - sse / syy
        dof = n - 1
    else:
        xm, ym = x.mean(), y.mean()
        dx, dy = x - xm, y - ym
        sxx = _dot(dx, dx)
        if sxx == 0.0:
            raise DegenerateX("all x values are identical")
        slope = _dot(dx, dy) / sxx
        intercept = float(ym - slope * xm)
        resid = y - (intercept + slope * x)
        sse = _dot(resid, resid)
        sst = _dot(dy, dy)
        r2 = 1.0 if sst == 0.0 else 1.0 - sse / sst
        dof = n - 2

    stderr = math.sqrt(max(sse, 0.0) / dof / sxx) if dof > 0 else 0.0
    r2 = min(max(r2, 0.0), 1.0)
    return FitResult(slope=slope, intercept=intercept, stderr_slope=stderr, r_squared=r2, n=n)


def fit_daily_growth(series: DailySeries) -> tuple[float, FitResult]:
    """Mean relative daily growth rate, percent per day.

    Fits ln(close) against the trading-day index; the slope times 100 is the
    growth rate. Exact exponential input is recovered exactly.
    """
    ln_close = series.ln_close
    fit = linear_least_squares(np.arange(len(ln_close), dtype=float), ln_close)
    return 100.0 * fit.slope, fit


def daily_fluctuations(series: DailySeries) -> np.ndarray:
    """Daily percentage change of the close with respect to the previous day,
    as a read-only array one shorter than the series.

    Raises FluctuationOverflow where a change does not fit a float64.
    """
    if len(series) < 2:
        raise InsufficientData("need at least 2 records for fluctuations")
    prev = series.close[:-1]
    with np.errstate(over="ignore"):
        values = 100.0 * (series.close[1:] - prev) / prev
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        k = int(bad[0])
        raise FluctuationOverflow(
            f"fluctuation overflows float64: {_close_at(series, k)}, {_close_at(series, k + 1)}"
        )
    return read_only(values)


def fluctuation_moments(fluct: np.ndarray) -> tuple[float, float]:
    """Mean and population standard deviation of the fluctuation distribution.

    sigma is computed as sqrt(<delta^2> - mu^2), the population convention.
    """
    if len(fluct) < 2:
        raise InsufficientData("need at least 2 fluctuations for moments")
    d = np.asarray(fluct, dtype=float)
    mu = float(d.mean())
    variance = max(float(np.mean(d * d)) - mu * mu, 0.0)
    return mu, math.sqrt(variance)


def build_histogram(fluct: np.ndarray, bin_width: float = DEFAULT_BIN_WIDTH) -> Histogram:
    """Unnormalized frequency distribution of the fluctuations.

    Uniform bins span [min - width, max + width] so the extreme observations
    sit strictly inside the binned range; bins are left-closed right-open.
    """
    if not 0 < bin_width < math.inf:
        raise ValueError("bin_width must be finite and > 0")
    if len(fluct) < 1:
        raise InsufficientData("cannot bin an empty fluctuation series")
    d = np.asarray(fluct, dtype=float)
    lo = float(d.min()) - bin_width
    hi = float(d.max()) + bin_width
    n_bins = max(1, math.ceil((hi - lo) / bin_width))
    while lo + n_bins * bin_width <= d.max():  # fp guard: last edge must exceed max
        n_bins += 1
    edges = lo + bin_width * np.arange(n_bins + 1)
    counts, _ = np.histogram(d, bins=edges)
    return Histogram(edges, counts)


def fit_gaussian_offset(hist: Histogram, mu: float, sigma: float) -> GaussianOffsetFit:
    """Amplitude of the unity-floored Gaussian, with mu and sigma held fixed.

    Only f0 is free, so least squares against the bin counts has the closed
    form f0 = sum(g_i * (c_i - 1)) / sum(g_i^2) over the occupied bin range,
    where g_i is the unit Gaussian factor at the bin center. A negative
    closed-form amplitude is clamped to 0, the boundary of the admissible
    region.
    """
    if sigma <= 0:
        raise DegenerateFit("sigma must be positive to shape the Gaussian")
    occupied = np.flatnonzero(hist.counts > 0)
    if occupied.size < 3:
        raise InsufficientData("need at least 3 occupied bins")
    window = slice(occupied[0], occupied[-1] + 1)  # first to last occupied bin
    centers = hist.centers()[window]
    counts = hist.counts[window]
    g = np.exp(-((centers - mu) ** 2) / (2.0 * sigma**2))
    denom = _dot(g, g)
    if denom == 0.0:
        raise DegenerateFit("Gaussian factor vanishes on every occupied bin")
    f0 = _dot(g, counts - 1.0) / denom
    return GaussianOffsetFit(mu=mu, sigma=sigma, f0=max(f0, 0.0))


def fit_monthly_growth(monthly: MonthlyTable) -> tuple[float, FitResult]:
    """Slope of the monthly mean of ln(close) against the month index.

    Natural-log units per month, not percent.
    """
    if len(monthly) < 2:
        raise InsufficientData("need at least 2 monthly aggregates")
    fit = linear_least_squares(monthly.tau, monthly.mean_log)
    return fit.slope, fit


def fit_variance_decline(monthly: MonthlyTable, mode: str = "intercept") -> tuple[float, FitResult]:
    """Slope of the within-month variance of ln(close) against the month index.

    ``mode="intercept"`` (default) fits var = w * tau + var0; a strictly
    positive variance with a negative trend is impossible through the origin,
    but ``mode="origin"`` is available to reproduce the literal var = w * tau
    reading.
    """
    if mode not in ("intercept", "origin"):
        raise ValueError(f"unknown variance fit mode {mode!r}")
    if len(monthly) < 2:
        raise InsufficientData("need at least 2 monthly aggregates")
    fit = linear_least_squares(monthly.tau, monthly.var_log, through_origin=(mode == "origin"))
    return fit.slope, fit


def detect_variance_spike(monthly: MonthlyTable) -> tuple[int, float]:
    """Month index and value of the largest within-month variance.

    Ties break toward the earliest month. Tall spikes mark market
    disruptions, such as the 2008 recession.
    """
    if not len(monthly):
        raise InsufficientData("no aggregates to scan")
    best = int(np.argmax(monthly.var_log))  # argmax returns the first maximum
    return int(monthly.tau[best]), float(monthly.var_log[best])


def fit_volume_growth(series: DailySeries) -> tuple[float, FitResult]:
    """Mean relative growth rate of the daily traded volume, percent per day.

    Only records with a positive volume enter the fit; their x coordinate is
    the trading-day index in the full series.
    """
    t, ln_volume = series.log_volumes
    if len(t) < 2:
        raise NoVolumeData("fewer than 2 records with positive volume")
    fit = linear_least_squares(t, ln_volume)
    return 100.0 * fit.slope, fit


def pearson_correlation(xs, ys) -> float:
    """Sample Pearson product-moment correlation, clamped into [-1, 1]."""
    x = np.asarray(list(xs), dtype=float)
    y = np.asarray(list(ys), dtype=float)
    if x.shape != y.shape:
        raise DegenerateInput("vectors must have equal length")
    if x.size < 2:
        raise InsufficientData("correlation needs at least 2 pairs")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = _dot(dx, dx)
    syy = _dot(dy, dy)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInput("correlation undefined for a constant vector")
    r = _dot(dx, dy) / math.sqrt(sxx * syy)
    return min(max(r, -1.0), 1.0)


def analyze_index(
    series: DailySeries,
    bin_width: float = DEFAULT_BIN_WIDTH,
    variance_fit_mode: str = "intercept",
) -> RegularityReport:
    """Run the full estimation pipeline on one index.

    The price-based parameters (a, mu, sigma, m, w) must all be computable
    or the call raises; the amplitude f0 and the volume rate nu may be
    legitimately absent, in which case the reason lands in ``errors``.
    """
    a, fit_a = fit_daily_growth(series)
    fluct = daily_fluctuations(series)
    mu, sigma = fluctuation_moments(fluct)
    monthly = monthly_aggregates(series)
    m, fit_m = fit_monthly_growth(monthly)
    w, fit_w = fit_variance_decline(monthly, variance_fit_mode)
    spike_tau, spike_value = detect_variance_spike(monthly)

    errors: dict[str, str] = {}
    diagnostics = {
        "daily_growth": fit_a,
        "monthly_growth": fit_m,
        "variance_decline": fit_w,
    }

    f0: float | None = None
    histogram = build_histogram(fluct, bin_width)
    try:
        f0 = fit_gaussian_offset(histogram, mu, sigma).f0
    except (DegenerateFit, InsufficientData) as exc:
        errors["f0"] = str(exc)

    nu: float | None = None
    try:
        nu, fit_nu = fit_volume_growth(series)
        diagnostics["volume_growth"] = fit_nu
    except NoVolumeData as exc:
        errors["nu"] = str(exc)

    return RegularityReport(
        index_name=series.index_name,
        a=a,
        mu=mu,
        sigma=sigma,
        f0=f0,
        m=m,
        w=w,
        nu=nu,
        spike_tau=spike_tau,
        spike_value=spike_value,
        spike_month=monthly.calendar_month(spike_tau),  # tau is the row number
        n_records=len(series),
        n_months=len(monthly),
        bin_width=bin_width,
        variance_fit_mode=variance_fit_mode,
        diagnostics=diagnostics,
        errors=errors,
        ln_close=series.ln_close,
        fluctuations=fluct,
        histogram=histogram,
        monthly=monthly,
        volume_t=series.log_volumes[0],
        ln_volume=series.log_volumes[1],
    )
