"""Multimodal autoencoder that fuses per-graph node features into one embedding.

Each graph's PPMI row for a node passes through its own encoder; the encoder
outputs are concatenated and compressed by a shared encoder into the fused
embedding. A mirrored shared decoder expands the embedding, its output is
split into per-graph chunks, and per-graph decoders reconstruct the original
rows; the G encoders and the G decoders are each one MLP of G stacked copies.
Training minimizes the mean of per-graph reconstruction MSEs with
full-batch Adam, an optional validation split, and patience-based early
stopping that restores the best validation weights. The weights, gradients,
Adam moments and best-epoch copy are float64 vectors in one layout.

The training data is one graph-major (graph_count, rows, input_dim) float
array; in the pipeline row ``d * n + a`` is asset ``a`` of ``n`` at usable
date ``d``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import neural
from .neural import ForwardRecord, Mlp, adam_init, adam_step, backward, forward

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

    Every batch method takes samples as one graph-major (graph_count, batch,
    input_dim) array: column ``i`` of graph ``g`` holds node ``i``'s feature
    row in graph ``g``. ``graph_encoder`` and ``graph_decoder`` stack one copy
    per graph; the shared encoder and decoder are single copies.
    """

    def __init__(self, architecture: FusionArchitecture, seed: int = 0):
        self.architecture = architecture
        rng, n_graphs = np.random.default_rng(seed), architecture.graph_count
        enc_dims = architecture.per_graph_encoder_dims()
        dec_dims = architecture.per_graph_decoder_dims()
        shared_enc = architecture.shared_encoder_dims()
        shared_dec = architecture.shared_decoder_dims()
        relu = lambda dims: ["relu"] * (len(dims) - 1)
        self.graph_encoder = neural.init_mlp(enc_dims, relu(enc_dims), rng, count=n_graphs)
        self.shared_encoder = neural.init_mlp(shared_enc, relu(shared_enc), rng)
        self.shared_decoder = neural.init_mlp(shared_dec, relu(shared_dec), rng)
        # per-graph decoders end with an identity layer so reconstructions are unconstrained
        dec_acts = ["relu"] * (len(dec_dims) - 2) + ["identity"]
        self.graph_decoder = neural.init_mlp(dec_dims, dec_acts, rng, count=n_graphs)
        # move every layer into one vector; the layers become views of it
        mlps = self._mlps()
        self.params = np.empty(sum(mlp.parameter_count for mlp in mlps))
        for mlp, pairs in zip(mlps, neural.layer_views(mlps, self.params)):
            for layer, (weight, bias) in zip(mlp.layers, pairs):
                weight[:], bias[:] = layer.weight, layer.bias
                layer.weight, layer.bias = weight, bias

    def _mlps(self) -> list[Mlp]:
        """The MLPs in ``params`` order: graph encoders, shared encoder, shared decoder, graph decoders."""
        return [self.graph_encoder, self.shared_encoder, self.shared_decoder, self.graph_decoder]

    def _check_inputs(self, samples: np.ndarray) -> np.ndarray:
        arch = self.architecture
        x = np.asarray(samples, dtype=float)
        if x.ndim != 3 or x.shape[::2] != (arch.graph_count, arch.input_dim):
            raise ValueError(
                f"samples have shape {x.shape}, expected ({arch.graph_count}, batch, {arch.input_dim})"
            )
        return x

    def _encode(self, x: np.ndarray, records: list[ForwardRecord] | None = None) -> np.ndarray:
        """Fused embeddings z, (1, batch, embedding_dim), of a checked sample array."""
        return _output(self.shared_encoder, _joined(_output(self.graph_encoder, x, records)), records)

    def _decode(self, z: np.ndarray, records: list[ForwardRecord] | None = None) -> np.ndarray:
        """Reconstructions (G, batch, input_dim) of embeddings z, (1, batch, embedding_dim)."""
        expanded = _output(self.shared_decoder, z, records)
        return _output(self.graph_decoder, _graph_chunks(expanded, self.architecture.graph_count), records)

    def _loss(self, x: np.ndarray, records: list[ForwardRecord] | None = None) -> tuple[float, np.ndarray]:
        """Mean over graphs of the batch's reconstruction MSE, and the residual recon - x.

        The residual is formed in the graph decoder's output buffer (its last
        layer is the identity) and squared one graph at a time into one
        buffer: squaring the whole stack would hold a second (G, batch,
        input_dim) array, 4 MB on the wide benchmark workload. Each graph's
        MSE is the sum of its squares over their count, as ``np.mean`` forms it.
        """
        residual = self._decode(self._encode(x, records), records)
        residual -= x
        square = np.empty_like(residual[0])
        mse = (float(np.add.reduce(np.multiply(r, r, out=square), axis=None) / r.size) for r in residual)
        return sum(mse) / len(residual), residual

    def encode_batch(self, samples: np.ndarray) -> np.ndarray:
        """Fused embeddings (batch, embedding_dim).

        Not batch-invariant in the last bits: the matrix products may sum in a
        different order for a different batch, so a row encoded alone or in
        another batch can differ by ~1e-16 from the same row in
        ``extract_embeddings``.
        """
        return self._encode(self._check_inputs(samples))[0]

    def decode_batch(self, z: np.ndarray) -> np.ndarray:
        """Reconstructions (graph_count, batch, input_dim) of embeddings z, (batch, embedding_dim)."""
        z = np.asarray(z, dtype=float)
        if z.ndim != 2 or z.shape[1] != self.architecture.embedding_dim:
            raise ValueError(f"z has shape {z.shape}, expected (batch, {self.architecture.embedding_dim})")
        return self._decode(z[np.newaxis])

    def reconstruction_loss(self, samples: np.ndarray) -> float:
        return self._loss(self._check_inputs(samples))[0]

    def loss_and_gradients(self, samples: np.ndarray) -> tuple[float, np.ndarray]:
        """Reconstruction loss and its gradient, one new vector laid out like ``params``."""
        x = self._check_inputs(samples)
        records: list[ForwardRecord] = []
        loss, residual = self._loss(x, records)
        # dL/drecon in place: 2 (recon - x) / (batch * input_dim) / G. Dividing by half the size
        # (exact) rounds the quotient 2 (recon - x) / size once, as doubling (exact) and dividing would.
        residual /= residual[0].size / 2.0
        residual /= len(residual)
        grad = np.empty_like(self.params)
        enc_rec, shared_enc_rec, shared_dec_rec, dec_rec = records
        enc_grads, shared_enc_grads, shared_dec_grads, dec_grads = neural.layer_views(self._mlps(), grad)
        g_chunks = backward(self.graph_decoder, dec_rec, residual, dec_grads)
        g_z = backward(self.shared_decoder, shared_dec_rec, _joined(g_chunks), shared_dec_grads)
        g_concat = backward(self.shared_encoder, shared_enc_rec, g_z, shared_enc_grads)
        backward(self.graph_encoder, enc_rec, _graph_chunks(g_concat, len(x)), enc_grads, input_grad=False)
        return loss, grad


def _joined(chunks: np.ndarray) -> np.ndarray:
    """The G feature chunks of a (G, batch, k) array, concatenated into a new (1, batch, G * k) array."""
    graphs, batch, width = chunks.shape
    return chunks.transpose(1, 0, 2).reshape(1, batch, graphs * width)


def _graph_chunks(joined: np.ndarray, graph_count: int) -> np.ndarray:
    """The (G, batch, k) view of the G feature chunks of a (1, batch, G * k) array."""
    _, batch, width = joined.shape
    return joined.reshape(batch, graph_count, width // graph_count).transpose(1, 0, 2)


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
    if x.shape[1] == 0:
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

    ``samples`` is one graph-major (graph_count, rows, input_dim) array of
    nonnegative feature rows. Rows are shuffled with ``split_seed`` and split
    train/validation by ``settings.validation_fraction`` (default 70/30).
    Training stops at ``max_epochs`` or once the validation loss has not
    improved by at least ``min_delta`` for ``patience`` consecutive epochs;
    the parameters of the best validation epoch are restored.
    ``validation_fraction=0`` trains on all samples with no early stopping
    (for capacity checks).
    """
    x = _check_samples(model, samples)
    validation_fraction = settings.validation_fraction
    m = x.shape[1]
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
    # np.take keeps the rows contiguous per graph; x[:, idx] would not
    train_inputs = np.take(x, train_idx, axis=1)
    val_inputs = np.take(x, val_idx, axis=1) if n_val else None

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
    if x.shape[1] != len(window_ends) * n:
        raise ValueError(f"{x.shape[1]} sample rows, expected {len(window_ends)} dates x {n} assets")
    return EmbeddingFrame(
        asset_ids=tuple(universe) * len(window_ends),
        window_ends=tuple(t for t in window_ends for _ in range(n)),
        vectors=model.encode_batch(x),
        universe=tuple(universe),
    )


def save_model(model: FusionModel, path: str | Path) -> None:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "architecture": asdict(model.architecture),
        "graph_encoders": neural.mlp_to_dicts(model.graph_encoder),
        "shared_encoder": neural.mlp_to_dicts(model.shared_encoder)[0],
        "shared_decoder": neural.mlp_to_dicts(model.shared_decoder)[0],
        "graph_decoders": neural.mlp_to_dicts(model.graph_decoder),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # json.dumps uses the C encoder; json.dump always runs the pure-Python one. The text is the same.
    text = json.dumps(payload) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path: str | Path) -> FusionModel:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version: {payload.get('format_version')}")
    model = FusionModel(FusionArchitecture(**payload["architecture"]), seed=0)
    shared = [payload["shared_encoder"]], [payload["shared_decoder"]]
    saved = [neural.mlp_from_dicts(d) for d in (payload["graph_encoders"], *shared, payload["graph_decoders"])]
    plan = lambda mlps: [(mlp.count, mlp.dims, [layer.activation for layer in mlp.layers]) for mlp in mlps]
    if plan(saved) != plan(model._mlps()):
        raise ValueError(f"saved layers {plan(saved)} do not match the architecture's {plan(model._mlps())}")
    for mlp, loaded in zip(model._mlps(), saved):
        for layer, saved_layer in zip(mlp.layers, loaded.layers):
            layer.weight[:] = saved_layer.weight
            layer.bias[:] = saved_layer.bias
    return model
