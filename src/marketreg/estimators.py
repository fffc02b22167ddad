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
    InsufficientData,
    NonPositivePrice,
    NoVolumeData,
)
from .series import (
    MIN_DAYS_PER_MONTH,
    DailySeries,
    FluctuationSeries,
    MonthlyAggregate,
    finite_closes,
    log_volumes,
    monthly_aggregates,
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


@dataclass(frozen=True)
class Histogram:
    """Unnormalized frequency counts over uniform, left-closed right-open bins.

    ``build_histogram`` always produces integer counts; the type itself
    tolerates real-valued counts so that exactly manufactured model data can
    be fitted without rounding.
    """

    bin_edges: tuple[float, ...]
    counts: tuple[float, ...]

    def __post_init__(self):
        edges = tuple(float(e) for e in self.bin_edges)
        counts = tuple(float(c) for c in self.counts)
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
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")

    @property
    def width(self) -> float:
        return self.bin_edges[1] - self.bin_edges[0]

    def centers(self) -> np.ndarray:
        edges = np.asarray(self.bin_edges)
        return 0.5 * (edges[:-1] + edges[1:])

    def occupied_range(self) -> slice:
        """Slice from the first to the last nonzero-count bin, inclusive."""
        nonzero = [i for i, c in enumerate(self.counts) if c > 0]
        if not nonzero:
            return slice(0, 0)
        return slice(nonzero[0], nonzero[-1] + 1)

    @property
    def n_occupied(self) -> int:
        return sum(1 for c in self.counts if c > 0)


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
    """

    index_name: str
    a: float
    mu: float
    sigma: float
    f0: float | None
    m: float
    w: float
    nu: float | None
    spike_tau: int | None
    spike_value: float | None
    spike_month: tuple[int, int] | None
    n_records: int
    n_months: int
    bin_width: float
    variance_fit_mode: str
    min_days_per_month: int = MIN_DAYS_PER_MONTH
    gaussian: GaussianOffsetFit | None = None
    diagnostics: dict[str, FitResult] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)

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


def linear_least_squares(points, through_origin: bool = False) -> FitResult:
    """Ordinary least squares over (x, y) pairs.

    The default fit carries an intercept; ``through_origin`` forces the line
    through (0, 0), in which case r_squared is the uncentered version.
    ``stderr_slope`` is the usual OLS slope standard error (defined as 0 when
    there are no residual degrees of freedom).
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (x, y) pairs")
    return _fit_line(pts[:, 0], pts[:, 1], through_origin)


def _fit_line(x: np.ndarray, y: np.ndarray, through_origin: bool = False) -> FitResult:
    """``linear_least_squares`` over the float arrays of x and y."""
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
    closes = finite_closes(series)
    if np.any(closes <= 0):
        raise NonPositivePrice("series contains a nonpositive close")
    fit = _fit_line(np.arange(len(series), dtype=float), np.log(closes))
    return 100.0 * fit.slope, fit


def daily_fluctuations(series: DailySeries) -> FluctuationSeries:
    """Daily percentage change of the close with respect to the previous day."""
    if len(series) < 2:
        raise InsufficientData("need at least 2 records for fluctuations")
    closes = finite_closes(series)
    prev = closes[:-1]
    if np.any(prev <= 0):
        raise NonPositivePrice("previous-day close <= 0, fluctuation undefined")
    values = 100.0 * (closes[1:] - prev) / prev
    return FluctuationSeries(values, series.index_name)


def fluctuation_moments(fluct: FluctuationSeries) -> tuple[float, float]:
    """Mean and population standard deviation of the fluctuation distribution.

    sigma is computed as sqrt(<delta^2> - mu^2), the population convention.
    """
    if len(fluct) < 2:
        raise InsufficientData("need at least 2 fluctuations for moments")
    d = fluct.as_array()
    mu = float(d.mean())
    variance = max(float(np.mean(d * d)) - mu * mu, 0.0)
    return mu, math.sqrt(variance)


def build_histogram(fluct: FluctuationSeries, bin_width: float = DEFAULT_BIN_WIDTH) -> Histogram:
    """Unnormalized frequency distribution of the fluctuations.

    Uniform bins span [min - width, max + width] so the extreme observations
    sit strictly inside the binned range; bins are left-closed right-open.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be > 0")
    if len(fluct) < 1:
        raise InsufficientData("cannot bin an empty fluctuation series")
    d = fluct.as_array()
    lo = float(d.min()) - bin_width
    hi = float(d.max()) + bin_width
    n_bins = max(1, math.ceil((hi - lo) / bin_width))
    while lo + n_bins * bin_width <= d.max():  # fp guard: last edge must exceed max
        n_bins += 1
    edges = lo + bin_width * np.arange(n_bins + 1)
    counts, _ = np.histogram(d, bins=edges)
    return Histogram(tuple(edges), tuple(int(c) for c in counts))


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
    if hist.n_occupied < 3:
        raise InsufficientData("need at least 3 occupied bins")
    window = hist.occupied_range()
    centers = hist.centers()[window]
    counts = np.asarray(hist.counts)[window]
    g = np.exp(-((centers - mu) ** 2) / (2.0 * sigma**2))
    denom = _dot(g, g)
    if denom == 0.0:
        raise DegenerateFit("Gaussian factor vanishes on every occupied bin")
    f0 = _dot(g, counts - 1.0) / denom
    return GaussianOffsetFit(mu=mu, sigma=sigma, f0=max(f0, 0.0))


def fit_monthly_growth(aggregates: list[MonthlyAggregate]) -> tuple[float, FitResult]:
    """Slope of the monthly mean of ln(close) against the month index.

    Natural-log units per month, not percent.
    """
    if len(aggregates) < 2:
        raise InsufficientData("need at least 2 monthly aggregates")
    fit = linear_least_squares((agg.tau, agg.mean_log) for agg in aggregates)
    return fit.slope, fit


def fit_variance_decline(
    aggregates: list[MonthlyAggregate], mode: str = "intercept"
) -> tuple[float, FitResult]:
    """Slope of the within-month variance of ln(close) against the month index.

    ``mode="intercept"`` (default) fits var = w * tau + var0; a strictly
    positive variance with a negative trend is impossible through the origin,
    but ``mode="origin"`` is available to reproduce the literal var = w * tau
    reading.
    """
    if mode not in ("intercept", "origin"):
        raise ValueError(f"unknown variance fit mode {mode!r}")
    if len(aggregates) < 2:
        raise InsufficientData("need at least 2 monthly aggregates")
    fit = linear_least_squares(
        ((agg.tau, agg.var_log) for agg in aggregates),
        through_origin=(mode == "origin"),
    )
    return fit.slope, fit


def detect_variance_spike(aggregates: list[MonthlyAggregate]) -> tuple[int, float]:
    """Month index and value of the largest within-month variance.

    Ties break toward the earliest month. Tall spikes mark market
    disruptions, such as the 2008 recession.
    """
    if not aggregates:
        raise InsufficientData("no aggregates to scan")
    variances = [agg.var_log for agg in aggregates]
    best = int(np.argmax(variances))  # argmax returns the first maximum
    return aggregates[best].tau, variances[best]


def fit_volume_growth(series: DailySeries) -> tuple[float, FitResult]:
    """Mean relative growth rate of the daily traded volume, percent per day.

    Only records with a positive volume enter the fit; their x coordinate is
    the trading-day index in the full series.
    """
    t, ln_volume = log_volumes(series)
    if len(t) < 2:
        raise NoVolumeData("fewer than 2 records with positive volume")
    fit = _fit_line(t.astype(float), ln_volume)
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
    min_days_per_month: int = MIN_DAYS_PER_MONTH,
) -> RegularityReport:
    """Run the full estimation pipeline on one index.

    The price-based parameters (a, mu, sigma, m, w) must all be computable
    or the call raises; the amplitude f0 and the volume rate nu may be
    legitimately absent, in which case the reason lands in ``errors``.
    """
    a, fit_a = fit_daily_growth(series)
    fluct = daily_fluctuations(series)
    mu, sigma = fluctuation_moments(fluct)
    aggregates = monthly_aggregates(series, min_days_per_month)
    m, fit_m = fit_monthly_growth(aggregates)
    w, fit_w = fit_variance_decline(aggregates, variance_fit_mode)
    spike_tau, spike_value = detect_variance_spike(aggregates)
    spike_month = next(agg.month for agg in aggregates if agg.tau == spike_tau)

    errors: dict[str, str] = {}
    diagnostics = {
        "daily_growth": fit_a,
        "monthly_growth": fit_m,
        "variance_decline": fit_w,
    }

    gaussian: GaussianOffsetFit | None = None
    f0: float | None = None
    try:
        gaussian = fit_gaussian_offset(build_histogram(fluct, bin_width), mu, sigma)
        f0 = gaussian.f0
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
        spike_month=spike_month,
        n_records=len(series),
        n_months=len(aggregates),
        bin_width=bin_width,
        variance_fit_mode=variance_fit_mode,
        min_days_per_month=min_days_per_month,
        gaussian=gaussian,
        diagnostics=diagnostics,
        errors=errors,
    )
