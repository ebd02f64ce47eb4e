"""Lagged mutual-information matrices filtered into lead-lag graphs.

For a lag T the return matrix is split into a past block (last T rows
dropped) and a future block (first T rows dropped); entry (m, q) of the raw
matrix is the plug-in MI between the discretized past of asset m and the
discretized future of asset q. Entries failing the Gamma significance test
are zeroed, the diagonal is excluded, and the validated matrix is averaged
with its transpose to give a symmetric weighted graph.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .infotheory import (
    MiTestConfig,
    _mi_bits_from_counts,
    discretize_equal_frequency,
    significance_threshold,
)
from .market_data import ReturnMatrix, _fmt

__all__ = [
    "LagSpec",
    "LeadLagGraph",
    "shift_split",
    "lagged_mi_matrix",
    "validate_links",
    "count_validated_links",
    "symmetrize",
    "binarize",
    "build_graph",
    "constant_columns",
    "write_graph",
    "load_graph",
]


@dataclass(frozen=True)
class LagSpec:
    """One (sampling period, lag) combination; lag is in units of the period."""

    period_minutes: int
    lag: int
    window_rows: int | None = None  # override of the rows-per-window rule

    def __post_init__(self) -> None:
        if self.period_minutes < 1:
            raise ValueError(f"period_minutes must be positive, got {self.period_minutes}")
        if self.lag < 0:
            raise ValueError(f"lag must be nonnegative, got {self.lag}")
        if self.window_rows is not None and self.window_rows < 2:
            raise ValueError(f"window_rows must be at least 2, got {self.window_rows}")

    @property
    def tag(self) -> str:
        return f"d{self.period_minutes}_T{self.lag}"


@dataclass
class LeadLagGraph:
    """Validated, symmetrized MI graph for one (spec, window-end) pair."""

    spec: LagSpec
    window_end: int
    assets: tuple[str, ...]
    weights: np.ndarray  # symmetric nonnegative, zero diagonal
    adjacency: np.ndarray  # binary; self-loop only on isolated nodes
    validated_link_count: int  # directed count, before symmetrization
    sample_size: int
    threshold_bits: float

    @property
    def n_assets(self) -> int:
        return len(self.assets)


def shift_split(returns: ReturnMatrix, lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Past/future row blocks of the return matrix for a given lag."""
    p = returns.returns.shape[0]
    if lag < 0:
        raise ValueError(f"lag must be nonnegative, got {lag}")
    if lag >= p:
        raise ValueError(f"lag {lag} leaves no overlap for {p} return rows")
    if lag == 0:
        return returns.returns, returns.returns
    return returns.returns[:-lag], returns.returns[lag:]


# Contingency counts are float32 sums of 0/1 products. float32 holds every
# integer up to 2**24 exactly, so the counts are exact up to that many rows.
_EXACT_COUNT_ROWS = 2**24
# Source assets whose counts one GEMM takes: bounds the per-graph transient
# to _SOURCE_BLOCK x n x states**2 counts and their MI terms.
_SOURCE_BLOCK = 32


def _one_hot(codes: np.ndarray, states: int) -> np.ndarray:
    """(rows, (states - 1) * assets) float32 indicator of states 0..states-2, state-major.

    Column ``k * assets + a`` marks the rows where asset ``a`` is in state
    ``k``; the last state has no column, since its counts follow from the
    others'.
    """
    hot = np.empty((codes.shape[0], states - 1, codes.shape[1]), dtype=np.float32)
    for k in range(states - 1):
        hot[:, k] = codes == k
    return hot.reshape(codes.shape[0], -1)


def lagged_mi_matrix(returns: ReturnMatrix, lag: int, states: int = 4) -> np.ndarray:
    """n x n matrix of plug-in MI (bits) between past and lag-shifted future columns.

    Each block (past, future) is discretized with one equal-frequency binning
    of the whole block, so each asset's past and future are separately reduced
    to states; at lag 0 both are the same block, binned once. The counts of
    every (source, target) contingency table come from one-hot GEMMs over
    the states 0..S-2 only: with Y the (rows, n * (S - 1)) one-hot matrix of
    the future and X_b that of a block of past columns, ``X_b^T @ Y`` holds
    the (S - 1) x (S - 1) leading cells of every table of a source in the
    block against every target, 9 of 16 at S = 4. The last row and column of
    each table follow exactly from the per-column state counts, the column
    sums of the same one-hots: cell (i, S-1) is the source's count of state
    i minus the table's other cells in row i, and likewise for the last row;
    the corner is the target's count of state S-1 minus the last column's
    other cells. This holds for any binning, whatever its marginals.

    Sources go in fixed blocks of ``_SOURCE_BLOCK``, one GEMM and one MI
    evaluation per block, so the full n x n x S x S tensor never exists at
    once. The counts are accumulated in float32, which is exact up to
    ``_EXACT_COUNT_ROWS`` (2**24) overlapping rows; longer windows are
    rejected.
    """
    past, future = shift_split(returns, lag)
    rows, n = past.shape
    if rows < states:
        raise ValueError(f"{rows} overlapping rows cannot support {states}-state discretization")
    if rows > _EXACT_COUNT_ROWS:
        raise ValueError(
            f"{rows} overlapping rows exceed {_EXACT_COUNT_ROWS}, the longest window whose "
            "float32 contingency counts are exact"
        )
    head = states - 1  # states with a one-hot column
    xs = discretize_equal_frequency(past, states).states
    y = _one_hot(xs if lag == 0 else discretize_equal_frequency(future, states).states, states)
    target_counts = y.sum(axis=0).reshape(head, n)
    target_last = rows - target_counts.sum(axis=0)
    mi = np.empty((n, n), dtype=float)
    for lo in range(0, n, _SOURCE_BLOCK):
        hi = min(lo + _SOURCE_BLOCK, n)
        x = _one_hot(xs[:, lo:hi], states)
        source_counts = x.sum(axis=0).reshape(head, hi - lo)
        inner = (x.T @ y).reshape(head, hi - lo, head, n)  # (source state, source, target state, target)
        last_col = source_counts[:, :, np.newaxis] - inner.sum(axis=2)  # (source state, source, target)
        last_row = target_counts - inner.sum(axis=0)  # (source, target state, target)
        counts = np.empty((hi - lo, n, states, states), dtype=np.float32)
        counts[:, :, :head, :head] = inner.transpose(1, 3, 0, 2)
        counts[:, :, :head, head] = last_col.transpose(1, 2, 0)
        counts[:, :, head, :head] = last_row.transpose(0, 2, 1)
        counts[:, :, head, head] = target_last - last_col.sum(axis=0)
        mi[lo:hi] = _mi_bits_from_counts(counts)
    return np.maximum(mi, 0.0)


def validate_links(mi_matrix: np.ndarray, threshold_bits: float) -> np.ndarray:
    """Zero out entries not above the significance threshold, and the diagonal."""
    c = np.asarray(mi_matrix, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {c.shape}")
    if np.any(c < 0.0):
        raise ValueError("MI matrix entries must be nonnegative")
    validated = np.where(c > threshold_bits, c, 0.0)
    np.fill_diagonal(validated, 0.0)
    return validated


def count_validated_links(validated: np.ndarray) -> int:
    """Number of nonzero off-diagonal entries of the directed validated matrix."""
    v = np.asarray(validated)
    off = v != 0.0
    np.fill_diagonal(off, False)
    return int(off.sum())


def symmetrize(validated: np.ndarray) -> np.ndarray:
    return (validated + validated.T) / 2.0


def binarize(weights: np.ndarray) -> np.ndarray:
    """Binary adjacency of a symmetric weight matrix; isolated nodes get a self-loop.

    Guarantees every row contains at least one 1, which row-stochastic
    normalization downstream relies on.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if np.any(np.diag(w) != 0.0):
        raise ValueError("weights must have a zero diagonal")
    adjacency = (w > 0.0).astype(np.int64)
    isolated = adjacency.sum(axis=1) == 0
    adjacency[isolated, isolated] = 1
    return adjacency


def constant_columns(returns: ReturnMatrix) -> list[str]:
    """Assets whose returns are constant over the window (e.g. flat quotes)."""
    r = returns.returns
    flat = np.all(r == r[0:1, :], axis=0)
    return [a for a, f in zip(returns.assets, flat) if f]


def build_graph(
    window: ReturnMatrix,
    spec: LagSpec,
    window_end: int,
    uncorrected_p: float,
    states: int = 4,
) -> LeadLagGraph:
    """Construct the validated lead-lag graph for one windowed return matrix.

    The significance test uses the post-shift sample size N = rows - lag and
    Bonferroni m = n^2 tests.
    """
    p = window.returns.shape[0]
    n = window.n_assets
    cfg = MiTestConfig(
        states_x=states,
        states_y=states,
        sample_size=p - spec.lag,
        uncorrected_p=uncorrected_p,
        num_tests=n * n,
    )
    threshold = significance_threshold(cfg)
    raw = lagged_mi_matrix(window, spec.lag, states)
    validated = validate_links(raw, threshold)
    weights = symmetrize(validated)
    return LeadLagGraph(
        spec=spec,
        window_end=window_end,
        assets=window.assets,
        weights=weights,
        adjacency=binarize(weights),
        validated_link_count=count_validated_links(validated),
        sample_size=cfg.sample_size,
        threshold_bits=threshold,
    )


def _iso_utc(ms: int) -> str:
    return datetime.fromtimestamp(ms / 1000.0, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def write_graph(graph: LeadLagGraph, csv_path: str | Path, json_path: str | Path) -> None:
    """Persist a graph as an upper-triangle edge list plus a JSON sidecar."""
    csv_path, json_path = Path(csv_path), Path(json_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "target", "weight"])
        rows, cols = np.nonzero(np.triu(graph.weights, 1) > 0.0)  # row-major, as the pair loop
        for i, j, w in zip(rows.tolist(), cols.tolist(), graph.weights[rows, cols].tolist()):
            writer.writerow([graph.assets[i], graph.assets[j], _fmt(w)])
    sidecar = {
        "spec": {
            "period_minutes": graph.spec.period_minutes,
            "lag": graph.spec.lag,
            "window_rows": graph.spec.window_rows,
        },
        "window_end": int(graph.window_end),
        "window_end_iso": _iso_utc(int(graph.window_end)),
        "n": graph.n_assets,
        "assets": list(graph.assets),
        "validated_link_count": graph.validated_link_count,
        "sample_size": graph.sample_size,
        "threshold_bits": graph.threshold_bits,
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_graph(csv_path: str | Path, json_path: str | Path) -> LeadLagGraph:
    """Rebuild a graph from its edge list and sidecar; adjacency is recomputed."""
    with open(json_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    assets = tuple(meta["assets"])
    index = {a: i for i, a in enumerate(assets)}
    n = len(assets)
    weights = np.zeros((n, n), dtype=float)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["source", "target", "weight"]:
            raise ValueError(f"{Path(csv_path).name}: expected header 'source,target,weight'")
        for row in reader:
            if not row:
                continue
            i, j, w = index[row[0]], index[row[1]], float(row[2])
            weights[i, j] = w
            weights[j, i] = w
    spec = LagSpec(
        period_minutes=meta["spec"]["period_minutes"],
        lag=meta["spec"]["lag"],
        window_rows=meta["spec"].get("window_rows"),
    )
    return LeadLagGraph(
        spec=spec,
        window_end=int(meta["window_end"]),
        assets=assets,
        weights=weights,
        adjacency=binarize(weights),
        validated_link_count=int(meta["validated_link_count"]),
        sample_size=int(meta["sample_size"]),
        threshold_bits=float(meta["threshold_bits"]),
    )
