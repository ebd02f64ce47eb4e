"""Synthetic minute-bar universes with planted lead-lag couplings.

Prices follow geometric random walks. A planted coupling makes a follower's
log-return at time t equal to ``coupling`` times the leader's return at
t - lag plus Gaussian noise scaled by ``noise`` times the base volatility,
which gives the graph stage a known directed link to recover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .market_data import MS_PER_MINUTE, PricePanel, write_price_files

__all__ = ["PlantedCoupling", "SyntheticSpec", "synthetic_returns", "synthetic_panel", "generate_synthetic"]

MINUTES_PER_DAY = 1440
START_MS = 1_609_459_200_000  # 2021-01-01T00:00:00Z, the first price row of every universe


@dataclass(frozen=True)
class PlantedCoupling:
    leader: str
    follower: str
    lag: int  # in base-period rows
    coupling: float
    noise: float  # noise sigma as a multiple of the base volatility

    def __post_init__(self) -> None:
        if self.lag < 0:
            raise ValueError(f"lag must be nonnegative, got {self.lag}")
        if self.noise < 0.0:
            raise ValueError(f"noise must be nonnegative, got {self.noise}")
        if self.leader == self.follower:
            raise ValueError("leader and follower must be distinct assets")


@dataclass(frozen=True)
class SyntheticSpec:
    """Universe description; ``days`` counts usable daily windows, one extra day warms up."""

    n_assets: int = 10
    days: int = 30
    base_price: float = 100.0
    volatility: float = 0.001  # per-minute log-return sigma
    asset_prefix: str = "A"
    couplings: tuple[PlantedCoupling, ...] = field(
        default_factory=lambda: (PlantedCoupling("A00", "A01", 1, 0.8, 0.5),)
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "couplings", tuple(self.couplings))
        if self.n_assets < 2:
            raise ValueError(f"need at least 2 assets, got {self.n_assets}")
        if self.days < 1:
            raise ValueError(f"days must be positive, got {self.days}")
        if self.base_price <= 0.0 or self.volatility <= 0.0:
            raise ValueError("base_price and volatility must be positive")
        universe = set(self.asset_names())
        for c in self.couplings:
            for name in (c.leader, c.follower):
                if name not in universe:
                    raise ValueError(f"coupling references unknown asset {name!r}")

    def asset_names(self) -> tuple[str, ...]:
        return tuple(f"{self.asset_prefix}{i:02d}" for i in range(self.n_assets))


def synthetic_returns(spec: SyntheticSpec, seed: int) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """Timestamps, asset names, and the minute log-return matrix."""
    assets = spec.asset_names()
    index = {a: i for i, a in enumerate(assets)}
    n_prices = (spec.days + 1) * MINUTES_PER_DAY
    n_returns = n_prices - 1
    rng = np.random.default_rng(seed)
    returns = spec.volatility * rng.standard_normal((n_returns, spec.n_assets))
    for c in spec.couplings:
        li, fi = index[c.leader], index[c.follower]
        noise = c.noise * spec.volatility * rng.standard_normal(n_returns)
        coupled = np.zeros(n_returns)
        if c.lag == 0:
            coupled = c.coupling * returns[:, li]
        elif c.lag < n_returns:
            coupled[c.lag :] = c.coupling * returns[: n_returns - c.lag, li]
        returns[:, fi] = coupled + noise
    timestamps = START_MS + MS_PER_MINUTE * np.arange(n_prices, dtype=np.int64)
    return timestamps, assets, returns


def synthetic_panel(spec: SyntheticSpec, seed: int) -> PricePanel:
    """Price panel implied by the synthetic returns (geometric random walk)."""
    timestamps, assets, returns = synthetic_returns(spec, seed)
    log_prices = np.vstack([np.zeros((1, spec.n_assets)), np.cumsum(returns, axis=0)])
    return PricePanel(
        timestamps=timestamps,
        assets=assets,
        prices=spec.base_price * np.exp(log_prices),
        period_minutes=1,
    )


def generate_synthetic(spec: SyntheticSpec, seed: int, out_dir: str | Path) -> list[Path]:
    """Write one ``timestamp,price`` CSV per asset; deterministic per seed."""
    return write_price_files(synthetic_panel(spec, seed), out_dir)
