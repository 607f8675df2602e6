"""Amazon EC2 spot-instance market model and the paper's bid ladder.

Paper §4.1.1 builds the ``spot10`` / ``spot100`` traces from the EC2
``c1.large`` price history (Jan–Mar 2011) with this strategy: to spend a
constant total of ``S`` dollars per hour, place persistent bids at
prices ``S/i`` for ``i = 1..n``.  Bid *i* runs an instance whenever the
market price is at most ``S/i``, so the number of live instances at
price ``p`` is ``floor(S/p)`` and the total spend is ``floor(S/p)*p <=
S``.  A price spike therefore terminates the *top of the ladder at
once* — spot traces exhibit correlated mass failures, unlike the
independent churn of desktop grids.  That correlation is the behaviour
the experiments exercise, and the model below preserves it.

The price history itself is not redistributable, so we synthesize it:
a mean-reverting log-price (Ornstein–Uhlenbeck in log space) pinned
above a reserve floor, plus a Poisson process of demand spikes with
log-uniform magnitude and bounded duration.  Defaults are calibrated so
the ladder statistics match Table 2 (spot10: mean ~82 instances,
min 29, max 87; spot100: mean ~824, min 196, max 877).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = ["SpotMarket", "spot_columns", "spot_intervals", "ladder_counts"]


@dataclass(frozen=True)
class SpotMarketParams:
    """Calibration of the synthetic price process (dollars, seconds).

    The price is piecewise constant: it holds a level for an
    exponentially distributed time (EC2 spot prices of the 2011 era
    moved in steps lasting hours), then jumps to a fresh level drawn
    log-normally around ``base`` and clamped at the reserve ``floor``.
    Independent demand spikes push the price to several times ``base``
    for bounded windows — these are what terminate the whole top of a
    bid ladder at once.
    """

    floor: float = 0.114        # reserve price: caps the ladder at S/floor
    base: float = 0.118         # typical quiet-market price
    sigma: float = 0.030        # log-price dispersion of fresh levels
    hold_mean: float = 3600.0   # mean holding time of a price level (s)
    step: float = 300.0         # rasterization grid of the series (s)
    spike_rate: float = 1.0 / (86400.0 * 2.0)  # ~1 spike every 2 days
    spike_levels: tuple[float, float] = (0.25, 0.52)  # absolute $ range
    spike_duration: tuple[float, float] = (1800.0, 14400.0)  # 30 min – 4 h


class SpotMarket:
    """Synthetic spot price series on a fixed grid.

    The series is generated once over ``[0, horizon)`` with step
    ``params.step`` and shared by every bid of the ladder, which is what
    couples instance terminations together.
    """

    def __init__(self, rng: np.random.Generator, horizon: float,
                 params: SpotMarketParams | None = None):
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.params = params or SpotMarketParams()
        p = self.params
        n = int(math.ceil(horizon / p.step)) + 1
        self.times = np.arange(n) * p.step
        self.prices = self._generate(rng, n)
        self.horizon = float(horizon)

    def _generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        p = self.params
        horizon = n * p.step
        # Piecewise-constant quiet-market level: exponential holding
        # times, fresh log-normal levels around base.
        n_epochs = max(4, int(horizon / p.hold_mean * 2) + 8)
        holds = rng.exponential(p.hold_mean, n_epochs)
        while holds.sum() < horizon:  # pragma: no cover - margin covers
            holds = np.concatenate([holds,
                                    rng.exponential(p.hold_mean, n_epochs)])
        levels = p.base * np.exp(rng.normal(0.0, p.sigma, holds.shape[0]))
        epochs = np.concatenate([[0.0], np.cumsum(holds)])
        grid = np.arange(n) * p.step
        idx = np.searchsorted(epochs, grid, side="right") - 1
        price = levels[np.clip(idx, 0, levels.shape[0] - 1)]
        # Demand spikes: price jumps to a high level for a bounded window.
        n_spikes = rng.poisson(p.spike_rate * horizon)
        for _ in range(n_spikes):
            t0 = rng.random() * horizon
            dur = rng.uniform(*p.spike_duration)
            level = rng.uniform(*p.spike_levels)
            i0 = int(t0 / p.step)
            i1 = min(n, int((t0 + dur) / p.step) + 1)
            price[i0:i1] = np.maximum(price[i0:i1], level)
        return np.maximum(price, p.floor)

    # ------------------------------------------------------------------
    def price_at(self, t: float) -> float:
        """Market price at time ``t`` (step function)."""
        i = min(int(t / self.params.step), self.prices.shape[0] - 1)
        return float(self.prices[i])

    def instance_counts(self, budget: float) -> np.ndarray:
        """``floor(budget / price)`` over the grid — the ladder size."""
        return np.floor(budget / self.prices).astype(int)


def ladder_counts(market: SpotMarket, budget: float) -> np.ndarray:
    """Live-instance count series for a budget-S bid ladder."""
    return market.instance_counts(budget)


def spot_intervals(market: SpotMarket, budget: float,
                   max_instances: int | None = None) -> List[tuple[np.ndarray, np.ndarray]]:
    """Availability intervals of every bid slot of the ladder.

    Bid slot ``i`` (1-based) is live while ``price <= budget / i``.
    Returns one ``(starts, ends)`` pair per slot, slots ordered from the
    most robust (i=1, dies only at extreme prices) to the most fragile.

    ``max_instances`` optionally truncates the ladder (used to cap
    simulation size); the truncation keeps the *most fragile* end
    realistic by dropping only slots beyond the cap.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    n_max = int(budget / market.params.floor)
    if max_instances is not None:
        n_max = min(n_max, max_instances)
    step = market.params.step
    out: List[tuple[np.ndarray, np.ndarray]] = []
    prices = market.prices
    n_grid = prices.shape[0]
    for i in range(1, n_max + 1):
        live = prices <= (budget / i)
        if not live.any():
            out.append((np.empty(0), np.empty(0)))
            continue
        # Run-length encode the boolean series into intervals.
        d = np.diff(live.astype(np.int8))
        starts_idx = np.flatnonzero(d == 1) + 1
        ends_idx = np.flatnonzero(d == -1) + 1
        if live[0]:
            starts_idx = np.concatenate(([0], starts_idx))
        if live[-1]:
            ends_idx = np.concatenate((ends_idx, [n_grid]))
        starts = starts_idx * step
        ends = np.minimum(ends_idx * step, market.horizon)
        keep = ends > starts
        out.append((starts[keep], ends[keep]))
    return out


def spot_columns(rng: np.random.Generator, market: SpotMarket,
                 budget: float, power_mean: float, power_std: float,
                 max_instances: int | None = None
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The bid ladder as columns ``(starts, ends, offsets, power)``: slot
    ``i`` (0-based, most robust first) owns ``starts[offsets[i]:
    offsets[i+1]]``."""
    intervals = spot_intervals(market, budget, max_instances)
    n = len(intervals)
    if power_std > 0:
        powers = np.maximum(rng.normal(power_mean, power_std, n), 50.0)
    else:
        powers = np.full(n, float(power_mean))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([s.shape[0] for s, _e in intervals], out=offsets[1:])
    return (np.concatenate([np.empty(0), *(s for s, _e in intervals)]),
            np.concatenate([np.empty(0), *(e for _s, e in intervals)]),
            offsets, powers)
