"""Seeded Wiener increments, geometric-Brownian price paths and synthetic volumes.

The relative price change per step is a*dt + b*dW with dW = eps*sqrt(dt) and
eps standard normal, applied directly in its finite-difference form so that
simulated daily fluctuations match the estimators' definition without any
transformation bias.

Randomness is pinned for reproducibility: a PCG64 stream supplies 53-bit
uniforms and standard normals come from the inverse CDF (scipy's ndtri), so
identical seeds give bit-identical sequences on every platform.

The synthetic calendar packs exactly 21 trading days into every calendar
month, which makes the monthly-growth identity m = (a) * 21 exact on
noiseless input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as Date

import numpy as np

from .errors import NonFinitePrice, PathRejectionLimit, VolumeOverflow
from .series import DailySeries

TRADING_DAYS_PER_MONTH = 21
EPOCH_YEAR = 2000
REDRAW_LIMIT = 1000


@dataclass(frozen=True)
class GbmParams:
    """Generating parameters of one price path.

    ``a`` is the drift in fraction per day, ``b`` the volatility in fraction
    per sqrt(day); ``dt`` defaults to one trading day.
    """

    a: float
    b: float
    s0: float
    n_days: int
    seed: int
    dt: float = 1.0

    def __post_init__(self):
        if self.s0 <= 0:
            raise ValueError("s0 must be > 0")
        if self.b < 0:
            raise ValueError("b must be >= 0")
        if self.n_days < 1:
            raise ValueError("n_days must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")


@dataclass(frozen=True)
class VolatilitySchedule:
    """Per-step volatility level: constant, or declining linearly over the path."""

    mode: str
    b_start: float
    b_end: float = 0.0

    def __post_init__(self):
        if self.mode not in ("constant", "linear-decay"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.b_start < 0:
            raise ValueError("b_start must be >= 0")
        if self.mode == "linear-decay" and not self.b_start >= self.b_end >= 0:
            raise ValueError("linear-decay needs b_start >= b_end >= 0")

    @classmethod
    def constant(cls, b: float) -> "VolatilitySchedule":
        return cls("constant", b, b)

    @classmethod
    def linear_decay(cls, b_start: float, b_end: float) -> "VolatilitySchedule":
        return cls("linear-decay", b_start, b_end)

    def levels(self, n_steps: int) -> np.ndarray:
        """Volatility coefficient for each of ``n_steps`` increments."""
        if self.mode == "constant" or n_steps <= 1:
            return np.full(n_steps, self.b_start)
        return np.linspace(self.b_start, self.b_end, n_steps)


def _standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    # Inverse-CDF over the generator's 53-bit uniforms; the clamp only guards
    # the measure-zero u == 0 draw. scipy is imported here, not at module
    # level, so that commands which never draw a number do not load it.
    from scipy.special import ndtri

    u = np.maximum(rng.random(n), 2.0**-54)
    return ndtri(u)


def wiener_increments(n: int, dt: float = 1.0, seed: int = 0) -> np.ndarray:
    """n independent Wiener increments eps*sqrt(dt), eps standard normal.

    The same seed always yields the same sequence, bit for bit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    rng = np.random.default_rng(seed)
    return _standard_normals(rng, n) * math.sqrt(dt)


def synthetic_days(n: int) -> np.ndarray:
    """Consecutive synthetic trading days, 21 per calendar month, from a fixed
    epoch, as a ``datetime64[D]`` column."""
    month_index, day = np.divmod(np.arange(n), TRADING_DAYS_PER_MONTH)
    months = np.datetime64(f"{EPOCH_YEAR}-01", "M") + month_index
    return months.astype("datetime64[D]") + day


def synthetic_dates(n: int) -> list[Date]:
    """``synthetic_days`` as a list of dates."""
    return synthetic_days(n).tolist()


def simulate_gbm(
    params: GbmParams,
    schedule: VolatilitySchedule | None = None,
    index_name: str = "simulated",
) -> DailySeries:
    """Simulate one price path S_{k+1} = S_k * (1 + a*dt + b_k*dW_k).

    ``schedule`` overrides the constant volatility ``params.b`` when given.
    A step that would drive the price nonpositive is rejected and its
    increment redrawn from the same stream; clamping instead would bias the
    drift this module exists to verify. More than REDRAW_LIMIT consecutive
    redraws raise PathRejectionLimit, which signals absurd parameters; a
    price that overflows float64 raises NonFinitePrice.
    """
    schedule = schedule or VolatilitySchedule.constant(params.b)
    n_steps = params.n_days - 1
    rng = np.random.default_rng(params.seed)
    sqrt_dt = math.sqrt(params.dt)
    b_levels = schedule.levels(n_steps).tolist() if n_steps > 0 else []
    dws = (_standard_normals(rng, n_steps) * sqrt_dt).tolist() if n_steps > 0 else []

    # Python floats round exactly as float64 does, and overflow to inf without a warning.
    prices = np.empty(params.n_days)
    prices[0] = price = float(params.s0)
    drift = params.a * params.dt
    for k, (b, dw) in enumerate(zip(b_levels, dws)):
        nxt = price * (1.0 + drift + b * dw)
        redraws = 0
        while nxt <= 0:
            redraws += 1
            if redraws > REDRAW_LIMIT:
                raise PathRejectionLimit(
                    f"{REDRAW_LIMIT} consecutive redraws at step {k}; parameters are absurd"
                )
            dw = float(_standard_normals(rng, 1)[0]) * sqrt_dt
            nxt = price * (1.0 + drift + b * dw)
        if not math.isfinite(nxt):
            raise NonFinitePrice(
                f"simulated price at day {k + 1} is {nxt}, past the float64 range"
            )
        prices[k + 1] = price = nxt

    return DailySeries.from_columns(synthetic_days(params.n_days), prices, index_name=index_name)


def simulate_volume(
    nu: float, n0: float, noise_sd: float, n_days: int, seed: int
) -> np.ndarray:
    """Synthetic daily transaction counts N_k = round(n0 * exp(nu*k + eta_k)).

    eta_k is zero-mean normal with standard deviation ``noise_sd``; counts
    are nonnegative integers by construction. Raises VolumeOverflow when a
    count would not fit a 64-bit integer.
    """
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    if noise_sd < 0:
        raise ValueError("noise_sd must be >= 0")
    if n_days < 1:
        raise ValueError("n_days must be >= 1")
    rng = np.random.default_rng(seed)
    eta = _standard_normals(rng, n_days) * noise_sd if noise_sd > 0 else np.zeros(n_days)
    counts = n0 * np.exp(nu * np.arange(n_days) + eta)
    too_big = np.flatnonzero(~(counts < 2.0**63))
    if too_big.size:
        k = int(too_big[0])
        raise VolumeOverflow(
            f"n0*exp(nu*k + eta) = {counts[k]:.3e} at day {k} does not fit a 64-bit count"
        )
    return np.rint(counts).astype(np.int64)
