"""Seeded Wiener increments, geometric-Brownian price paths and synthetic volumes.

The relative price change per step is a*dt + b*dW with dW = eps*sqrt(dt) and
eps standard normal, applied directly in its finite-difference form so that
simulated daily fluctuations match the estimators' definition without any
transformation bias.

Randomness is pinned for reproducibility: a PCG64 stream supplies 53-bit
uniforms and standard normals come from the inverse normal CDF, so identical
seeds give bit-identical sequences on every platform. The inverse CDF is a
numpy port of ``ndtri`` from Moshier's Cephes library, the function behind
``scipy.special.ndtri``, and returns the same bits wherever both use the same
libm ``log``. Its two tail logarithms therefore go through ``math.log``,
which is that libm ``log``; ``np.log`` has its own SIMD kernels, which can
differ from it in the last bit.

The synthetic calendar packs exactly 21 trading days into every calendar
month, which makes the monthly-growth identity m = (a) * 21 exact on
noiseless input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        for name in ("a", "b", "s0", "dt"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
        for name in ("b_start", "b_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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


# Cephes ndtri: sqrt(2 pi), exp(-2), and the coefficients of its three
# rational approximations, highest power first (Q* omit their leading 1).
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
# Central range, in y2 = (y - 1/2)**2, for exp(-2) < y <= 1 - exp(-2).
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# Tails, in z = 1/x with x = sqrt(-2 ln y): 2 <= x < 8, then x >= 8.
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    # Horner's rule in Cephes polevl order: multiply, then add, never fused.
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    # polevl with an implied leading coefficient of 1.
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of each u in (0, 1), operation for operation
    as Cephes ndtri computes it."""
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    central = y > _EXP_M2
    out = np.empty_like(y)
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    tail = ~central
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    far = np.flatnonzero(x >= 8.0)  # y <= exp(-32): about one draw in 4e13
    if far.size:
        zf = z[far]
        x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


def _standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    # Inverse-CDF over the generator's 53-bit uniforms; the clamp only guards
    # the measure-zero u == 0 draw.
    return _ndtri(np.maximum(rng.random(n), 2.0**-54))


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
    b_levels = schedule.levels(n_steps)
    dws = _standard_normals(rng, n_steps) * sqrt_dt
    drift = params.a * params.dt

    # The path is one cumulative product. Accumulate multiplies in step order,
    # so each price is the product the step loop below forms, up to the first
    # price that is not positive and finite: the loop takes over from there.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        prices = np.cumprod(np.concatenate(([float(params.s0)], 1.0 + drift + b_levels * dws)))
        stops = np.flatnonzero(~((prices[1:] > 0) & (prices[1:] < math.inf)))
    if stops.size:
        # One step at a time, so that redraws take from the stream in step
        # order. Python floats round exactly as float64 does, and overflow to
        # inf without a warning.
        first = int(stops[0])
        price = float(prices[first])
        steps = zip(b_levels[first:].tolist(), dws[first:].tolist())
        for k, (b, dw) in enumerate(steps, start=first):
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
    return DailySeries(synthetic_days(params.n_days), prices, index_name=index_name)


def simulate_volume(
    nu: float, n0: float, noise_sd: float, n_days: int, seed: int
) -> np.ndarray:
    """Synthetic daily transaction counts N_k = round(n0 * exp(nu*k + eta_k)).

    eta_k is zero-mean normal with standard deviation ``noise_sd``; counts
    are nonnegative integers by construction. Raises VolumeOverflow when a
    count would not fit a 64-bit integer.
    """
    if not 1 <= n0 < math.inf:  # also refuses nan
        raise ValueError("n0 must be finite and >= 1")
    if not 0 <= noise_sd < math.inf:
        raise ValueError("noise_sd must be finite and >= 0")
    if n_days < 1:
        raise ValueError("n_days must be >= 1")
    rng = np.random.default_rng(seed)
    eta = _standard_normals(rng, n_days) * noise_sd if noise_sd > 0 else np.zeros(n_days)
    # A count past float64 is caught below as past int64, so its warning is noise.
    with np.errstate(over="ignore", invalid="ignore"):
        counts = n0 * np.exp(nu * np.arange(n_days) + eta)
    too_big = np.flatnonzero(~(counts < 2.0**63))
    if too_big.size:
        k = int(too_big[0])
        raise VolumeOverflow(
            f"n0*exp(nu*k + eta) = {counts[k]:.3e} at day {k} does not fit a 64-bit count"
        )
    return np.rint(counts).astype(np.int64)
