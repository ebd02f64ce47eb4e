"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the library's own vectorized paths: the MI oracle is
a pure-python double loop over the contingency table, the RWR oracle applies
the restart recurrence one scalar at a time, and the finite-difference helper
perturbs one parameter entry at a time; the similarity oracle takes one
``np.dot`` per pair and date and writes with ``csv.writer``; the fusion oracle
runs the autoencoder graph by graph with one 2-D product per graph and layer.

``discretize_reference``, ``mi_bits_from_counts_reference`` and
``lagged_mi_matrix_reference`` are the graph-stage kernels as direct formulas:
a min-rank per value from ``np.searchsorted`` on the sorted column, full
S-state one-hot GEMMs and the direct MI formula. The library's kernels must
match them bit for bit.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from leadlag_fuse.leadlag import _EXACT_COUNT_ROWS, shift_split

# Sources per GEMM of the lagged-MI reference: bounds its memory, not its values.
_REFERENCE_SOURCE_BLOCK = 32


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


def _copy_forward(layers, c, h):
    """Inputs, pre-activations and output of copy ``c`` of a layer list on a 2-D batch."""
    inputs, pre = [], []
    for layer in layers:
        inputs.append(h)
        z = h @ layer.weight[c].T + layer.bias[c]
        pre.append(z)
        h = np.maximum(z, 0.0) if layer.activation == "relu" else z
    return inputs, pre, h


def _copy_backward(layers, c, inputs, pre, g, grads):
    """Write copy ``c``'s (dW, db) into ``grads`` and return dL/dx."""
    for li in range(len(layers) - 1, -1, -1):
        gz = g * (pre[li] > 0.0).astype(float) if layers[li].activation == "relu" else g
        grads[li][0][c] = gz.T @ inputs[li]
        grads[li][1][c] = gz.sum(axis=0)
        g = gz @ layers[li].weight[c]
    return g


def fusion_loop_oracle(model, x):
    """(loss, grads, z) of a ``FusionModel`` on graph-major samples, composed graph by graph.

    Graph ``g``'s rows run through copy ``g`` of the graph encoder as
    ``x[g] @ W[g].T + b[g]``; the outputs are concatenated for the shared layers,
    and the shared decoder's output is split into per-graph chunks for the graph
    decoder. The loss is the mean over graphs of each graph's MSE. ``grads``
    follows ``model._mlps()``: per MLP and layer, a (dW, db) pair of stacks.
    """
    enc, shared_enc, shared_dec, dec = (mlp.layers for mlp in model._mlps())
    graphs = len(x)
    enc_runs = [_copy_forward(enc, g, x[g]) for g in range(graphs)]
    se = _copy_forward(shared_enc, 0, np.concatenate([run[2] for run in enc_runs], axis=1))
    sd = _copy_forward(shared_dec, 0, se[2])
    dec_runs = [_copy_forward(dec, g, chunk) for g, chunk in enumerate(np.split(sd[2], graphs, axis=1))]
    diffs = [run[2] - x[g] for g, run in enumerate(dec_runs)]
    loss = sum(float(np.mean(d * d)) for d in diffs) / graphs

    grads = [
        [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in layers] for layers in (enc, shared_enc, shared_dec, dec)
    ]
    chunk_grads = [
        _copy_backward(dec, g, *dec_runs[g][:2], 2.0 * d / d.size / graphs, grads[3]) for g, d in enumerate(diffs)
    ]
    g_z = _copy_backward(shared_dec, 0, *sd[:2], np.concatenate(chunk_grads, axis=1), grads[2])
    g_concat = _copy_backward(shared_enc, 0, *se[:2], g_z, grads[1])
    for g, chunk in enumerate(np.split(g_concat, graphs, axis=1)):
        _copy_backward(enc, g, *enc_runs[g][:2], chunk, grads[0])
    return loss, grads, se[2]


def discretize_reference(values, states: int = 4) -> np.ndarray:
    """States of an equal-frequency binning by min-rank: tied values share the state of their first sorted position."""
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    columns = v.reshape(n, -1).T
    min_ranks = np.stack([np.searchsorted(np.sort(col), col, "left") for col in columns], axis=1)
    return (min_ranks * states // n).reshape(v.shape)


def mi_bits_from_counts_reference(counts: np.ndarray) -> np.ndarray:
    """Plug-in MI in bits from contingency counts over the last two axes, by the direct formula."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum(axis=(-2, -1), keepdims=True)
    joint = counts / total
    px = joint.sum(axis=-1, keepdims=True)
    py = joint.sum(axis=-2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log2(joint) - np.log2(px) - np.log2(py)
        terms = np.where(joint > 0.0, joint * log_ratio, 0.0)
    return terms.sum(axis=(-2, -1))


def _one_hot_reference(codes: np.ndarray, states: int) -> np.ndarray:
    return (codes[:, :, np.newaxis] == np.arange(states)).reshape(codes.shape[0], -1).astype(np.float32)


def lagged_mi_matrix_reference(returns, lag: int, states: int = 4) -> np.ndarray:
    """The lagged MI matrix from all S x S cells of every table, one S-state GEMM per source block."""
    past, future = shift_split(returns, lag)
    rows, n = past.shape
    assert states <= rows <= _EXACT_COUNT_ROWS
    xs = discretize_reference(past, states)
    y = _one_hot_reference(xs if lag == 0 else discretize_reference(future, states), states)
    mi = np.empty((n, n), dtype=float)
    for lo in range(0, n, _REFERENCE_SOURCE_BLOCK):
        hi = min(lo + _REFERENCE_SOURCE_BLOCK, n)
        joint = _one_hot_reference(xs[:, lo:hi], states).T @ y
        counts = joint.reshape(hi - lo, states, n, states).transpose(0, 2, 1, 3)
        mi[lo:hi] = mi_bits_from_counts_reference(np.ascontiguousarray(counts, dtype=float))
    return np.maximum(mi, 0.0)
