"""Price ingestion, grid alignment, resampling, and log-return matrices.

Input files are one CSV per asset with header ``timestamp,price``; timestamps
are epoch milliseconds on a uniform base-period grid. Assets are aligned on
the intersection of their covered time ranges, interior gaps are filled with
the last observed price, and assets are ordered lexicographically.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

MS_PER_MINUTE = 60_000

__all__ = [
    "MS_PER_MINUTE",
    "PricePanel",
    "ReturnMatrix",
    "load_prices",
    "resample",
    "log_returns",
    "write_panel_csv",
    "load_panel_csv",
]


@dataclass(frozen=True)
class PricePanel:
    """Aligned per-asset prices on a shared, uniformly spaced timestamp grid."""

    timestamps: np.ndarray  # (p + 1,) epoch ms, strictly increasing, uniform step
    assets: tuple[str, ...]
    prices: np.ndarray  # (p + 1, n) strictly positive
    period_minutes: int

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=np.int64)
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "assets", tuple(self.assets))
        if self.period_minutes < 1:
            raise ValueError(f"period_minutes must be positive, got {self.period_minutes}")
        if ts.ndim != 1 or ts.size < 2:
            raise ValueError("panel needs at least two timestamps")
        step = self.period_minutes * MS_PER_MINUTE
        diffs = np.diff(ts)
        if not np.all(diffs == step):
            bad = int(np.argmax(diffs != step))
            raise ValueError(
                f"timestamps must be strictly increasing with a constant {step} ms step; "
                f"violation after index {bad} (t={ts[bad]})"
            )
        if prices.shape != (ts.size, len(self.assets)):
            raise ValueError(f"prices shape {prices.shape} does not match {(ts.size, len(self.assets))}")
        if not np.all(np.isfinite(prices)) or np.any(prices <= 0.0):
            raise ValueError("all prices must be finite and strictly positive")

    @property
    def n_assets(self) -> int:
        return len(self.assets)


@dataclass(frozen=True)
class ReturnMatrix:
    """Log-returns per asset; row i covers the interval ending at timestamps[i]."""

    period_minutes: int
    timestamps: np.ndarray  # (p,)
    assets: tuple[str, ...]
    returns: np.ndarray  # (p, n)

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=np.int64)
        ret = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "returns", ret)
        object.__setattr__(self, "assets", tuple(self.assets))
        if ret.shape != (ts.size, len(self.assets)):
            raise ValueError(f"returns shape {ret.shape} does not match {(ts.size, len(self.assets))}")
        if not np.all(np.isfinite(ret)):
            raise ValueError("all returns must be finite")

    @property
    def n_assets(self) -> int:
        return len(self.assets)


_PRICE_ROW = np.dtype([("timestamp", np.int64), ("price", np.float64)])


def _read_header(path: Path) -> tuple[list[str], bool]:
    """The header fields of a CSV file, and whether a non-blank line follows them."""
    with open(path, encoding="utf-8") as fh:
        header = next(csv.reader([fh.readline()]), [])
        return header, any(not line.isspace() for line in fh)


def _read_body(path: Path, row: np.dtype, usecols: tuple[int, ...] | None = None) -> np.ndarray:
    """The rows after the header, parsed by numpy's C reader; empty lines are skipped."""
    try:
        return np.loadtxt(
            path,
            delimiter=",",
            dtype=row,
            usecols=usecols,
            ndmin=1,
            skiprows=1,
            comments=None,
            quotechar='"',
            encoding="utf-8",
        )
    except ValueError as exc:
        raise ValueError(f"{path.name}: malformed or unparseable row: {exc}") from exc


def _read_price_file(path: Path) -> tuple[np.ndarray, np.ndarray]:
    header, has_rows = _read_header(path)
    if [h.strip().lower() for h in header[:2]] != ["timestamp", "price"]:
        raise ValueError(f"{path.name}: expected header 'timestamp,price'")
    if not has_rows:
        raise ValueError(f"{path.name}: file contains no price rows")
    rows = _read_body(path, _PRICE_ROW, usecols=(0, 1))
    ts_arr, px_arr = rows["timestamp"], rows["price"]
    bad = ~(np.isfinite(px_arr) & (px_arr > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"{path.name}: price {px_arr[i]} at row {i + 1} (timestamp {ts_arr[i]}) is not finite and positive"
        )
    order = np.argsort(ts_arr, kind="stable")
    ts_arr, px_arr = ts_arr[order], px_arr[order]
    dup = np.nonzero(np.diff(ts_arr) == 0)[0]
    if dup.size:
        raise ValueError(f"{path.name}: duplicate timestamp {ts_arr[dup[0]]}")
    return ts_arr, px_arr


def load_prices(
    sources: Iterable[str | Path],
    base_period_minutes: int = 1,
    min_rows: int = 2,
) -> PricePanel:
    """Load per-asset price CSVs and align them on a common base-period grid.

    The panel covers the intersection of all assets' time ranges; interior
    gaps are forward-filled from the last observed price. Rejects files with
    no rows, non-positive prices, off-grid timestamps, or an overlap shorter
    than ``min_rows`` grid points.
    """
    paths = sorted((Path(p) for p in sources), key=lambda p: p.stem)
    if len(paths) < 2:
        raise ValueError(f"need at least 2 assets, got {len(paths)}")
    names = [p.stem for p in paths]
    if len(set(names)) != len(names):
        raise ValueError("duplicate asset names among input files")
    if base_period_minutes < 1:
        raise ValueError(f"base_period_minutes must be positive, got {base_period_minutes}")

    step = base_period_minutes * MS_PER_MINUTE
    series = [_read_price_file(p) for p in paths]
    phase = int(series[0][0][0] % step)
    for name, (ts, _) in zip(names, series):
        off = ts % step
        if np.any(off != phase):
            bad = int(np.argmax(off != phase))
            raise ValueError(f"{name}: timestamp {ts[bad]} is off the {step} ms grid")

    start = max(int(ts[0]) for ts, _ in series)
    end = min(int(ts[-1]) for ts, _ in series)
    if end < start or (end - start) // step + 1 < min_rows:
        raise ValueError(
            f"common overlap [{start}, {end}] is shorter than {min_rows} grid points"
        )
    grid = np.arange(start, end + 1, step, dtype=np.int64)

    prices = np.empty((grid.size, len(paths)), dtype=float)
    for j, (ts, px) in enumerate(series):
        idx = np.searchsorted(ts, grid, side="right") - 1
        prices[:, j] = px[idx]  # last observation at or before each grid point
    return PricePanel(timestamps=grid, assets=tuple(names), prices=prices, period_minutes=base_period_minutes)


def resample(panel: PricePanel, period_minutes: int) -> PricePanel:
    """Keep the last price of each period bucket, aligned to the panel end.

    ``period_minutes`` must be a positive multiple of the panel period; the
    retained timestamps are those congruent to the final timestamp modulo the
    new period, i.e. each bucket contributes its last observed price.
    """
    if period_minutes < 1 or period_minutes % panel.period_minutes != 0:
        raise ValueError(
            f"period {period_minutes} is not a positive multiple of the base period {panel.period_minutes}"
        )
    k = period_minutes // panel.period_minutes
    if k == 1:
        return panel
    rows = panel.timestamps.size
    first = (rows - 1) % k
    idx = np.arange(first, rows, k)
    if idx.size < 2:
        raise ValueError(f"resampling to {period_minutes} minutes leaves fewer than 2 prices")
    return PricePanel(
        timestamps=panel.timestamps[idx],
        assets=panel.assets,
        prices=panel.prices[idx],
        period_minutes=period_minutes,
    )


def log_returns(panel: PricePanel) -> ReturnMatrix:
    """Natural-log returns; row i is ln P(t_{i+1}) - ln P(t_i), stamped t_{i+1}."""
    rets = np.diff(np.log(panel.prices), axis=0)
    return ReturnMatrix(
        period_minutes=panel.period_minutes,
        timestamps=panel.timestamps[1:],
        assets=panel.assets,
        returns=rets,
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def write_panel_csv(panel: PricePanel, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["timestamp", *panel.assets])
        # One row at a time: converting the whole matrix with tolist() at once
        # holds a Python float per cell and raises peak memory.
        for t, row in zip(panel.timestamps.tolist(), panel.prices):
            fh.write(f"{t}," + ",".join(map(repr, row.tolist())) + "\r\n")


def load_panel_csv(path: str | Path) -> PricePanel:
    path = Path(path)
    header, has_rows = _read_header(path)
    if not header or header[0] != "timestamp" or len(header) < 3:
        raise ValueError(f"{path.name}: expected header 'timestamp,<asset>,...' with >= 2 assets")
    assets = tuple(header[1:])
    row = np.dtype([("timestamp", np.int64), ("prices", np.float64, (len(assets),))])
    rows = _read_body(path, row) if has_rows else np.empty(0, dtype=row)
    if rows.size < 2:
        raise ValueError(f"{path.name}: panel cache has fewer than 2 rows")
    ts = rows["timestamp"]
    steps = np.diff(ts)
    step = int(steps[0])
    if step <= 0 or step % MS_PER_MINUTE != 0 or not np.all(steps == step):
        raise ValueError(f"{path.name}: timestamps are not a uniform minute-multiple grid")
    return PricePanel(
        timestamps=np.ascontiguousarray(ts),
        assets=assets,
        prices=np.ascontiguousarray(rows["prices"]),
        period_minutes=step // MS_PER_MINUTE,
    )
