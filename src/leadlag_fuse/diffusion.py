"""Random-walk-with-restart node features and their PPMI transform.

Each binary adjacency matrix is turned into a dense node representation by
iterating the restart recurrence

    p_i(t) = alpha * p_i(t-1) @ A_hat + (1 - alpha) * p_i(0)

from one-hot starts and accumulating the K step distributions, then into a
positive pointwise mutual information matrix computed column-wise from the
accumulated visit mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "RwrConfig",
    "NodeFeatureSet",
    "row_normalize",
    "rwr_steps",
    "rwr_accumulate",
    "ppmi",
    "node_features",
]


@dataclass(frozen=True)
class RwrConfig:
    """Walk parameters: keep-walking probability and number of accumulated steps."""

    restart_keep: float = 0.98
    steps: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.restart_keep < 1.0:
            raise ValueError(f"restart_keep must lie in [0, 1), got {self.restart_keep}")
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")


@dataclass
class NodeFeatureSet:
    """Accumulated RWR matrix and its PPMI transform for one graph."""

    rwr: np.ndarray
    ppmi: np.ndarray
    graph_id: str

    def __post_init__(self) -> None:
        row_sums = self.rwr.sum(axis=1)
        k = float(row_sums.max()) if self.rwr.size else 0.0
        if np.any(np.abs(row_sums - row_sums[0]) > 1e-9 * max(1.0, k)):
            raise ValueError("RWR rows must all sum to the step count K")
        if np.any(self.ppmi < 0.0):
            raise ValueError("PPMI entries must be nonnegative")


def row_normalize(adjacency: np.ndarray) -> np.ndarray:
    """Row-stochastic transition matrix of a binary adjacency matrix."""
    a = np.asarray(adjacency, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    row_sums = a.sum(axis=1, keepdims=True)
    if np.any(row_sums == 0.0):
        bad = int(np.argmax(row_sums.ravel() == 0.0))
        raise ValueError(f"row {bad} has no outgoing edges; isolated nodes need a self-loop")
    return a / row_sums


def rwr_steps(adjacency: np.ndarray, cfg: RwrConfig) -> Iterator[np.ndarray]:
    """Yield the stacked step distributions p(1), ..., p(K); row i starts at node i."""
    transition = row_normalize(adjacency)
    n = transition.shape[0]
    start = np.eye(n)
    current = start
    for _ in range(cfg.steps):
        current = cfg.restart_keep * (current @ transition) + (1.0 - cfg.restart_keep) * start
        yield current


def rwr_accumulate(adjacency: np.ndarray, cfg: RwrConfig) -> np.ndarray:
    """Sum of the K step distributions; each row sums to K."""
    total = None
    for step in rwr_steps(adjacency, cfg):
        total = step if total is None else total + step
    return total


def ppmi(v: np.ndarray) -> np.ndarray:
    """Positive PMI of accumulated visit mass: max(0, ln(n * v_ij / colsum_j)).

    Cells with v_ij = 0 (or an all-zero column) are 0; the output is invariant
    under any global rescaling of v because only column shares enter the log.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {v.shape}")
    if np.any(v < 0.0):
        raise ValueError("v must be nonnegative")
    n = v.shape[0]
    col_sums = v.sum(axis=0, keepdims=True)
    mask = (v > 0.0) & (col_sums > 0.0)
    out = np.zeros_like(v)
    ratio = np.divide(n * v, np.broadcast_to(col_sums, v.shape), out=np.ones_like(v), where=mask)
    np.log(ratio, out=out, where=mask)
    return np.maximum(out, 0.0)


def node_features(adjacency: np.ndarray, cfg: RwrConfig, graph_id: str) -> NodeFeatureSet:
    """RWR + PPMI feature pair for one graph."""
    v = rwr_accumulate(adjacency, cfg)
    return NodeFeatureSet(rwr=v, ppmi=ppmi(v), graph_id=graph_id)

