"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the library's own vectorized paths: the MI oracle is
a pure-python double loop over the contingency table, the RWR oracle applies
the restart recurrence one scalar at a time, and the finite-difference helper
perturbs one parameter entry at a time; the similarity oracle takes one
``np.dot`` per pair and date and writes with ``csv.writer``.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np


def mi_bits_oracle(xs, ys, states_x: int, states_y: int) -> float:
    """Plug-in mutual information in bits via explicit relative frequencies."""
    n = len(xs)
    assert n == len(ys)
    mi = 0.0
    for a in range(states_x):
        p_a = sum(1 for v in xs if v == a) / n
        for b in range(states_y):
            p_ab = sum(1 for u, v in zip(xs, ys) if u == a and v == b) / n
            p_b = sum(1 for v in ys if v == b) / n
            if p_ab > 0.0:
                mi += p_ab * math.log2(p_ab / (p_a * p_b))
    return mi


def rwr_oracle(adjacency: np.ndarray, alpha: float, steps: int) -> np.ndarray:
    """Accumulated restart-walk mass via the literal per-node scalar recurrence."""
    adjacency = np.asarray(adjacency, dtype=float)
    n = adjacency.shape[0]
    transition = np.empty_like(adjacency)
    for i in range(n):
        row_sum = adjacency[i].sum()
        for j in range(n):
            transition[i, j] = adjacency[i, j] / row_sum
    total = np.zeros((n, n))
    for i in range(n):
        p0 = np.zeros(n)
        p0[i] = 1.0
        p = p0.copy()
        for _ in range(steps):
            nxt = np.zeros(n)
            for k in range(n):
                acc = 0.0
                for j in range(n):
                    acc += p[j] * transition[j, k]
                nxt[k] = alpha * acc + (1.0 - alpha) * p0[k]
            p = nxt
            total[i] += p
    return total


def central_difference_grads(loss_fn, params, h: float = 1e-5) -> list[np.ndarray]:
    """Numeric gradient of loss_fn() w.r.t. each array in params, one entry at a time."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = p[idx]
            p[idx] = original + h
            up = loss_fn()
            p[idx] = original - h
            down = loss_fn()
            p[idx] = original
            g[idx] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor: float = 1e-8) -> float:
    """Worst relative disagreement, ignoring entries where both are below floor."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        a = np.asarray(a)
        n = np.asarray(n)
        scale = np.maximum(np.abs(a), np.abs(n))
        mask = scale > floor
        if np.any(mask):
            worst = max(worst, float((np.abs(a - n)[mask] / scale[mask]).max()))
    return worst


def similarity_csv_oracle(embeddings_csv, a: str, b: str) -> bytes:
    """Bytes of the ``similarity/<a>_<b>.csv`` file for an ``embeddings.csv``, pair by pair."""
    vectors = {}
    with open(embeddings_csv, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            vectors[(row[0], int(row[1]))] = np.array([float(v) for v in row[2:]])
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["window_end", "cosine"])
    for end in sorted({t for _, t in vectors}):
        if (a, end) not in vectors or (b, end) not in vectors:
            continue
        z_a, z_b = vectors[(a, end)], vectors[(b, end)]
        n_a, n_b = float(np.linalg.norm(z_a)), float(np.linalg.norm(z_b))
        if n_a == 0.0 or n_b == 0.0:
            writer.writerow([end, ""])
        else:
            writer.writerow([end, repr(min(1.0, max(-1.0, float(np.dot(z_a, z_b) / (n_a * n_b)))))])
    return buffer.getvalue().encode("utf-8")
