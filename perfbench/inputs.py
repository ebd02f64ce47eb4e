"""Workloads of the leadlag-fuse benchmark and their seeded price inputs.

Every workload is a universe of one-minute price bars: geometric random walks
with volatility 0.001 per minute and one planted lead-lag link, A00 -> A01 at
lag 1 (follower return = 0.8 x leader return one minute earlier + noise of
0.5 x the volatility). This is the paper's fixture model. The inputs are made
here, from the workload seed, so they do not depend on the program's own
synthetic-data module.

``staged-illiquid-50x10`` also makes some assets illiquid: 80% of their
minutes have a return of exactly zero, as real minute bars of thinly traded
assets do. The ties this creates are kept on purpose. The program breaks ties
by time index when it discretizes returns, which links independent illiquid
assets (ROADMAP Open item 2); the benchmark shows that defect rather than
hiding it. The planted pair is never made illiquid, so planted-link recall
stays a measure of real dependence.

Run as a script, this module is the benchmark's set-up step: it imports
``leadlag_fuse`` from the checkout's ``src`` (so that import time counts) and
writes one ``timestamp,price`` CSV per asset, an empty run config (program
defaults) and ``inputs.json``, which names the planted pair and the illiquid
assets.

    python3 perfbench/inputs.py --workload wide-200x3 --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MS_PER_MINUTE = 60_000
MINUTES_PER_DAY = 1440
START_MS = 1_609_459_200_000  # 2021-01-01T00:00:00Z
BASE_PRICE = 100.0
VOLATILITY = 0.001
LEADER, FOLLOWER, LAG, COUPLING, NOISE = "A00", "A01", 1, 0.8, 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    n_assets: int
    days: int  # usable daily windows; one extra day warms up the first window
    threads: int  # the program's --threads for the graph stage
    staged: bool  # four separate cli.main calls per pass instead of one run-all
    illiquid: int = 0  # assets with zero-return minutes
    zero_share: float = 0.0  # share of an illiquid asset's minutes with zero return


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide-200x3", n_assets=200, days=3, threads=2, staged=False),
        Workload(
            "staged-illiquid-50x10",
            n_assets=50,
            days=10,
            threads=1,
            staged=True,
            illiquid=10,
            zero_share=0.8,
        ),
    )
}


def make_prices(workload: Workload, seed: int):
    """Timestamps, asset names, prices (rows x assets) and the illiquid assets."""
    import numpy as np

    names = [f"A{i:02d}" for i in range(workload.n_assets)]
    n_prices = (workload.days + 1) * MINUTES_PER_DAY
    n_returns = n_prices - 1
    rng = np.random.default_rng([seed, 0])
    returns = VOLATILITY * rng.standard_normal((n_returns, workload.n_assets))
    leader, follower = names.index(LEADER), names.index(FOLLOWER)
    returns[:, follower] = NOISE * VOLATILITY * rng.standard_normal(n_returns)
    returns[LAG:, follower] += COUPLING * returns[: n_returns - LAG, leader]

    illiquid: list[str] = []
    if workload.illiquid:
        flaky = np.random.default_rng([seed, 1])
        candidates = [j for j in range(workload.n_assets) if j not in (leader, follower)]
        picked = sorted(flaky.choice(candidates, size=workload.illiquid, replace=False).tolist())
        for j in picked:
            returns[flaky.random(n_returns) < workload.zero_share, j] = 0.0
        illiquid = [names[j] for j in picked]

    log_prices = np.vstack([np.zeros((1, workload.n_assets)), np.cumsum(returns, axis=0)])
    prices = BASE_PRICE * np.exp(log_prices)
    timestamps = START_MS + MS_PER_MINUTE * np.arange(n_prices, dtype=np.int64)
    return timestamps, names, prices, illiquid


def write_inputs(workload: Workload, seed: int, out: Path) -> None:
    timestamps, names, prices, illiquid = make_prices(workload, seed)
    prices_dir = out / "prices"
    prices_dir.mkdir(parents=True, exist_ok=True)
    stamps = timestamps.tolist()
    for j, name in enumerate(names):
        lines = "".join(map("{},{!r}\n".format, stamps, prices[:, j].tolist()))
        (prices_dir / f"{name}.csv").write_text("timestamp,price\n" + lines, encoding="utf-8")
    (out / "config.json").write_text("{}\n", encoding="utf-8")
    manifest = {
        "workload": workload.name,
        "seed": seed,
        "assets": names,
        "planted": {"leader": LEADER, "follower": FOLLOWER, "lag": LAG},
        "illiquid": illiquid,
    }
    (out / "inputs.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def import_program():
    """Import leadlag_fuse from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import leadlag_fuse

    if not Path(leadlag_fuse.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"leadlag_fuse was imported from {leadlag_fuse.__file__}, not from {SRC}")
    return leadlag_fuse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    write_inputs(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
