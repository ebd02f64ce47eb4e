"""Multimodal autoencoder that fuses per-graph node features into one embedding.

Each graph's PPMI row for a node passes through its own encoder; the encoder
outputs are concatenated and compressed by a shared encoder into the fused
embedding. A mirrored shared decoder expands the embedding, its output is
split into per-graph chunks, and per-graph decoders reconstruct the original
rows. Training minimizes the mean of per-graph reconstruction MSEs with
full-batch Adam, an optional validation split, and patience-based early
stopping that restores the best validation weights. The weights, gradients,
Adam moments and best-epoch copy are float64 vectors in one layout.

The training data is one (rows, graph_count, input_dim) float array; in the
pipeline row ``d * n + a`` is asset ``a`` of ``n`` at usable date ``d``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import neural
from .neural import ForwardRecord, Mlp, adam_init, adam_step, backward, forward, mse, mse_grad

logger = logging.getLogger(__name__)

__all__ = [
    "ModelSettings",
    "FusionArchitecture",
    "TrainingSettings",
    "TrainReport",
    "TrainingDiverged",
    "FusionModel",
    "EmbeddingFrame",
    "train",
    "extract_embeddings",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ModelSettings:
    """Hidden layer widths of the autoencoder; the run config's ``model`` section."""

    per_graph_dims: tuple[int, ...] = (25, 10)
    shared_dims: tuple[int, ...] = (30,)
    embedding_dim: int = 15


@dataclass(frozen=True)
class FusionArchitecture:
    """Layer plan: per-graph encoders, shared bottleneck, mirrored decoders."""

    graph_count: int
    input_dim: int
    per_graph_dims: tuple[int, ...] = ModelSettings.per_graph_dims
    shared_dims: tuple[int, ...] = ModelSettings.shared_dims
    embedding_dim: int = ModelSettings.embedding_dim

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_graph_dims", tuple(self.per_graph_dims))
        object.__setattr__(self, "shared_dims", tuple(self.shared_dims))
        if self.graph_count < 1:
            raise ValueError(f"graph_count must be positive, got {self.graph_count}")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be positive, got {self.input_dim}")
        if not self.per_graph_dims:
            raise ValueError("per_graph_dims must not be empty")
        dims = (*self.per_graph_dims, *self.shared_dims, self.embedding_dim)
        if any(d < 1 for d in dims):
            raise ValueError(f"all dims must be positive, got {dims}")

    @property
    def per_graph_out(self) -> int:
        return self.per_graph_dims[-1]

    def per_graph_encoder_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.per_graph_dims)

    def shared_encoder_dims(self) -> tuple[int, ...]:
        return (self.graph_count * self.per_graph_out, *self.shared_dims, self.embedding_dim)

    def shared_decoder_dims(self) -> tuple[int, ...]:
        return tuple(reversed(self.shared_encoder_dims()))

    def per_graph_decoder_dims(self) -> tuple[int, ...]:
        return tuple(reversed(self.per_graph_encoder_dims()))


@dataclass(frozen=True)
class TrainingSettings:
    """Optimizer, stopping and validation-split settings of ``train``."""

    max_epochs: int = 500
    learning_rate: float = 0.001
    patience: int | None = 20
    min_delta: float = 1e-6
    validation_fraction: float = 0.3


@dataclass
class TrainReport:
    """Loss history and stopping metadata of one training run; the defaults are those before epoch 1."""

    split_seed: int
    config: dict = field(default_factory=dict)
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    stop_epoch: int = 0
    stop_reason: str = "max_epochs"
    best_epoch: int = 0
    best_val_loss: float | None = None


class TrainingDiverged(RuntimeError):
    def __init__(self, message: str, report: TrainReport):
        super().__init__(message)
        self.report = report


class FusionModel:
    """The assembled autoencoder; its MLPs' layers are views into ``params``.

    Every batch method takes samples as one (batch, graph_count, input_dim)
    array: row ``i`` holds one node's feature row in each graph.
    """

    def __init__(self, architecture: FusionArchitecture, seed: int = 0):
        self.architecture = architecture
        rng = np.random.default_rng(seed)
        n_graphs = architecture.graph_count
        enc_dims = architecture.per_graph_encoder_dims()
        dec_dims = architecture.per_graph_decoder_dims()
        shared_enc = architecture.shared_encoder_dims()
        shared_dec = architecture.shared_decoder_dims()
        relu = lambda dims: ["relu"] * (len(dims) - 1)
        self.graph_encoders = [neural.init_mlp(enc_dims, relu(enc_dims), rng) for _ in range(n_graphs)]
        self.shared_encoder = neural.init_mlp(shared_enc, relu(shared_enc), rng)
        self.shared_decoder = neural.init_mlp(shared_dec, relu(shared_dec), rng)
        # per-graph decoders end with an identity layer so reconstructions are unconstrained
        dec_acts = ["relu"] * (len(dec_dims) - 2) + ["identity"]
        self.graph_decoders = [neural.init_mlp(dec_dims, dec_acts, rng) for _ in range(n_graphs)]
        # move every layer into one vector; the layers become views of it
        mlps = self._mlps()
        self.params = np.empty(sum(mlp.parameter_count for mlp in mlps))
        for mlp, pairs in zip(mlps, neural.layer_views(mlps, self.params)):
            for layer, (weight, bias) in zip(mlp.layers, pairs):
                weight[:], bias[:] = layer.weight, layer.bias
                layer.weight, layer.bias = weight, bias

    def _mlps(self) -> list[Mlp]:
        """The MLPs in ``params`` order: graph encoders, shared encoder, shared decoder, graph decoders."""
        return [*self.graph_encoders, self.shared_encoder, self.shared_decoder, *self.graph_decoders]

    def _check_inputs(self, samples: np.ndarray) -> np.ndarray:
        arch = self.architecture
        x = np.asarray(samples, dtype=float)
        if x.ndim != 3 or x.shape[1:] != (arch.graph_count, arch.input_dim):
            raise ValueError(
                f"samples have shape {x.shape}, expected (batch, {arch.graph_count}, {arch.input_dim})"
            )
        return x

    def _encode(self, x: np.ndarray, records: list[ForwardRecord] | None = None) -> np.ndarray:
        """Fused embeddings z of a checked sample array."""
        encoded = [_output(enc, x[:, g, :], records) for g, enc in enumerate(self.graph_encoders)]
        return _output(self.shared_encoder, np.concatenate(encoded, axis=1), records)

    def _decode(self, z: np.ndarray, records: list[ForwardRecord] | None = None) -> list[np.ndarray]:
        """Per-graph reconstructions of embeddings z."""
        expanded = _output(self.shared_decoder, z, records)
        chunks = np.split(expanded, self.architecture.graph_count, axis=1)
        return [_output(dec, c, records) for dec, c in zip(self.graph_decoders, chunks)]

    def _loss(self, recons: Sequence[np.ndarray], x: np.ndarray) -> float:
        """Mean over graphs of the reconstruction MSE across the whole batch."""
        return sum(mse(r, x[:, g, :]) for g, r in enumerate(recons)) / len(recons)

    def encode_batch(self, samples: np.ndarray) -> np.ndarray:
        """Fused embeddings (batch, embedding_dim).

        Not batch-invariant in the last bits: the matrix products may sum in a
        different order for a different batch, so a row encoded alone or in
        another batch can differ by ~1e-16 from the same row in
        ``extract_embeddings``.
        """
        return self._encode(self._check_inputs(samples))

    def decode_batch(self, z: np.ndarray) -> np.ndarray:
        """Reconstructions (batch, graph_count, input_dim) of embeddings z."""
        z = np.asarray(z, dtype=float)
        if z.ndim != 2 or z.shape[1] != self.architecture.embedding_dim:
            raise ValueError(f"z has shape {z.shape}, expected (batch, {self.architecture.embedding_dim})")
        return np.stack(self._decode(z), axis=1)

    def reconstruction_loss(self, samples: np.ndarray) -> float:
        x = self._check_inputs(samples)
        return self._loss(self._decode(self._encode(x)), x)

    def loss_and_gradients(self, samples: np.ndarray) -> tuple[float, np.ndarray]:
        """Reconstruction loss and its gradient, one new vector laid out like ``params``."""
        x = self._check_inputs(samples)
        n = self.architecture.graph_count
        records: list[ForwardRecord] = []
        loss = self._loss(self._decode(self._encode(x, records), records), x)
        grad = np.empty_like(self.params)
        # records and gradient views both follow _mlps(): encoders, shared encoder, shared decoder, decoders
        views = neural.layer_views(self._mlps(), grad)
        chunk_grads = [
            backward(dec, rec, mse_grad(rec.output, x[:, i, :]) / n, view)
            for i, (dec, rec, view) in enumerate(zip(self.graph_decoders, records[n + 2 :], views[n + 2 :]))
        ]
        g_z = backward(self.shared_decoder, records[n + 1], np.concatenate(chunk_grads, axis=1), views[n + 1])
        g_concat = backward(self.shared_encoder, records[n], g_z, views[n])
        for enc, rec, g, view in zip(self.graph_encoders, records[:n], np.split(g_concat, n, axis=1), views[:n]):
            backward(enc, rec, g, view)
        return loss, grad


def _output(mlp: Mlp, x: np.ndarray, records: list[ForwardRecord] | None) -> np.ndarray:
    """``forward(mlp, x).output``, keeping the record in ``records`` when ``backward`` needs it.

    Gradient-free passes drop each record at once; holding them all made the
    decoder pass touch fresh memory on every call and run ~1.5x slower.
    """
    record = forward(mlp, x)
    if records is not None:
        records.append(record)
    return record.output


def _check_samples(model: FusionModel, samples: np.ndarray) -> np.ndarray:
    """The sample array where it enters training or embedding: shaped, nonempty, nonnegative."""
    x = model._check_inputs(samples)
    if x.shape[0] == 0:
        raise ValueError("need at least one sample")
    if np.any(x < 0.0):
        raise ValueError("feature rows must be nonnegative")
    return x


def train(
    model: FusionModel,
    samples: np.ndarray,
    split_seed: int,
    settings: TrainingSettings,
) -> TrainReport:
    """Full-batch Adam training with a seeded split and early stopping.

    ``samples`` is one (rows, graph_count, input_dim) array of nonnegative
    feature rows. Rows are shuffled with ``split_seed`` and split
    train/validation by ``settings.validation_fraction`` (default 70/30).
    Training stops at ``max_epochs`` or once the validation loss has not
    improved by at least ``min_delta`` for ``patience`` consecutive epochs;
    the parameters of the best validation epoch are restored.
    ``validation_fraction=0`` trains on all samples with no early stopping
    (for capacity checks).
    """
    x = _check_samples(model, samples)
    validation_fraction = settings.validation_fraction
    m = x.shape[0]
    if not 0.0 <= validation_fraction < 1.0:
        raise ValueError(f"validation_fraction must lie in [0, 1), got {validation_fraction}")
    if validation_fraction > 0.0 and m < 10:
        raise ValueError(f"need at least 10 samples for a validation split, got {m}")

    rng = np.random.default_rng(split_seed)
    perm = rng.permutation(m)
    n_val = int(round(m * validation_fraction))
    if validation_fraction > 0.0:
        n_val = min(max(n_val, 1), m - 1)
    train_idx, val_idx = perm[: m - n_val], perm[m - n_val :]
    train_inputs = x[train_idx]
    val_inputs = x[val_idx] if n_val else None

    report = TrainReport(
        split_seed=split_seed,
        config={**asdict(settings), "n_samples": m, "n_train": int(m - n_val), "n_val": int(n_val)},
    )

    params = model.params
    optimizer = adam_init(params, learning_rate=settings.learning_rate)
    best = np.empty_like(params)
    best_val = np.inf
    stall = 0
    for epoch in range(1, settings.max_epochs + 1):
        loss, grad = model.loss_and_gradients(train_inputs)
        if not np.isfinite(loss):
            report.stop_epoch = epoch
            report.stop_reason = "non_finite_loss"
            raise TrainingDiverged(f"non-finite training loss at epoch {epoch}", report)
        adam_step(optimizer, params, grad)
        report.train_losses.append(loss)
        report.stop_epoch = epoch
        if val_inputs is None:
            continue
        val_loss = model.reconstruction_loss(val_inputs)
        if not np.isfinite(val_loss):
            report.stop_reason = "non_finite_loss"
            raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}", report)
        report.val_losses.append(val_loss)
        if best_val - val_loss >= settings.min_delta:
            best_val = val_loss
            report.best_epoch = epoch
            best[:] = params
            stall = 0
        else:
            stall += 1
            if settings.patience is not None and stall >= settings.patience:
                report.stop_reason = "early_stop"
                break
    if report.best_epoch > 0:
        params[:] = best
        report.best_val_loss = float(best_val)
    logger.info(
        "training stopped at epoch %d (%s), best epoch %d",
        report.stop_epoch,
        report.stop_reason,
        report.best_epoch,
    )
    return report


@dataclass
class EmbeddingFrame:
    """Fused embeddings keyed by (asset id, window-end timestamp)."""

    asset_ids: tuple[str, ...]  # per record
    window_ends: tuple[int, ...]  # per record, epoch ms
    vectors: np.ndarray  # (records, embedding_dim)
    universe: tuple[str, ...]  # full asset ordering of the run

    def __post_init__(self) -> None:
        vectors = np.asarray(self.vectors, dtype=float)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "asset_ids", tuple(self.asset_ids))
        object.__setattr__(self, "window_ends", tuple(int(t) for t in self.window_ends))
        object.__setattr__(self, "universe", tuple(self.universe))
        if vectors.ndim != 2 or vectors.shape[0] != len(self.asset_ids) or len(self.window_ends) != len(self.asset_ids):
            raise ValueError("asset_ids, window_ends and vectors must have matching lengths")
        self._index = {(a, t): i for i, (a, t) in enumerate(zip(self.asset_ids, self.window_ends))}

    def __len__(self) -> int:
        return len(self.asset_ids)

    @property
    def embedding_dim(self) -> int:
        return self.vectors.shape[1]

    def dates(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.window_ends)))

    def lookup(self, asset: str, window_end: int) -> np.ndarray | None:
        i = self._index.get((asset, int(window_end)))
        return None if i is None else self.vectors[i]

    def assets_at(self, window_end: int) -> tuple[str, ...]:
        present = {a for a, t in self._index if t == int(window_end)}
        return tuple(a for a in self.universe if a in present)


def extract_embeddings(
    model: FusionModel,
    samples: np.ndarray,
    universe: Sequence[str],
    window_ends: Sequence[int],
) -> EmbeddingFrame:
    """One embedding per sample row; row ``d * len(universe) + a`` is asset ``a`` at date ``d``."""
    x = _check_samples(model, samples)
    n = len(universe)
    if x.shape[0] != len(window_ends) * n:
        raise ValueError(f"{x.shape[0]} sample rows, expected {len(window_ends)} dates x {n} assets")
    return EmbeddingFrame(
        asset_ids=tuple(universe) * len(window_ends),
        window_ends=tuple(t for t in window_ends for _ in range(n)),
        vectors=model.encode_batch(x),
        universe=tuple(universe),
    )


def save_model(model: FusionModel, path: str | Path) -> None:
    arch = model.architecture
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "architecture": {
            "graph_count": arch.graph_count,
            "input_dim": arch.input_dim,
            "per_graph_dims": list(arch.per_graph_dims),
            "shared_dims": list(arch.shared_dims),
            "embedding_dim": arch.embedding_dim,
        },
        "graph_encoders": [neural.mlp_to_dict(m) for m in model.graph_encoders],
        "shared_encoder": neural.mlp_to_dict(model.shared_encoder),
        "shared_decoder": neural.mlp_to_dict(model.shared_decoder),
        "graph_decoders": [neural.mlp_to_dict(m) for m in model.graph_decoders],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path: str | Path) -> FusionModel:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version: {payload.get('format_version')}")
    arch = FusionArchitecture(
        graph_count=payload["architecture"]["graph_count"],
        input_dim=payload["architecture"]["input_dim"],
        per_graph_dims=tuple(payload["architecture"]["per_graph_dims"]),
        shared_dims=tuple(payload["architecture"]["shared_dims"]),
        embedding_dim=payload["architecture"]["embedding_dim"],
    )
    model = FusionModel(arch, seed=0)
    shared = [payload["shared_encoder"], payload["shared_decoder"]]
    saved = [neural.mlp_from_dict(d) for d in (*payload["graph_encoders"], *shared, *payload["graph_decoders"])]
    plan = lambda mlps: [(mlp.dims, [layer.activation for layer in mlp.layers]) for mlp in mlps]
    if plan(saved) != plan(model._mlps()):
        raise ValueError(f"saved layers {plan(saved)} do not match the architecture's {plan(model._mlps())}")
    for mlp, loaded in zip(model._mlps(), saved):
        for layer, saved_layer in zip(mlp.layers, loaded.layers):
            layer.weight[:] = saved_layer.weight
            layer.bias[:] = saved_layer.bias
    return model
