"""Multimodal autoencoder that fuses per-graph node features into one embedding.

Each graph's PPMI row for a node passes through its own encoder; the encoder
outputs are concatenated and compressed by a shared encoder into the fused
embedding. A mirrored shared decoder expands the embedding, its output is
split into per-graph chunks, and per-graph decoders reconstruct the original
rows; the G encoders and the G decoders are each one MLP of G stacked copies.
Training minimizes the mean of per-graph reconstruction MSEs with
full-batch Adam, an optional validation split, and patience-based early
stopping that restores the best validation weights. The weights, gradients,
Adam moments and best-epoch copy are vectors in one layout and of one dtype,
that of ``params``: a model computes in the precision it was built with
(float64 by default; the pipeline builds float32 models).

The training data is one graph-major (graph_count, rows, input_dim) float
array, cast once to the model's dtype where it enters ``train`` or
``extract_embeddings``; in the pipeline row ``d * n + a`` is asset ``a`` of
``n`` at usable date ``d``. Both work on the distinct rows
(``distinct_rows``): ``train`` weights each by its count, so the loss and its
gradient are those of all rows in exact arithmetic, and ``extract_embeddings``
encodes each once and gives every copy its vector.
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
    "distinct_rows",
    "train",
    "extract_embeddings",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 3
_MODEL_DTYPES = {"float32": np.float32, "float64": np.float64}  # the precisions a model file may record


@dataclass(frozen=True)
class ModelSettings:
    """Hidden layer widths of the autoencoder; the run config's ``model`` section."""

    per_graph_dims: tuple[int, ...] = (25, 10)
    shared_dims: tuple[int, ...] = (30,)
    embedding_dim: int = 15

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_graph_dims", tuple(self.per_graph_dims))
        object.__setattr__(self, "shared_dims", tuple(self.shared_dims))
        if not self.per_graph_dims:
            raise ValueError("per_graph_dims must not be empty")
        if any(d < 1 for d in (*self.per_graph_dims, *self.shared_dims)):
            raise ValueError(f"layer widths must be positive, got {self.per_graph_dims} and {self.shared_dims}")
        if self.embedding_dim < 1:
            raise ValueError(f"embedding_dim must be positive, got {self.embedding_dim}")


@dataclass(frozen=True, kw_only=True)
class FusionArchitecture(ModelSettings):
    """Layer plan: per-graph encoders, shared bottleneck, mirrored decoders."""

    graph_count: int
    input_dim: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.graph_count < 1:
            raise ValueError(f"graph_count must be positive, got {self.graph_count}")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be positive, got {self.input_dim}")

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

    def __post_init__(self) -> None:
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.patience is not None and self.patience < 0:
            raise ValueError(f"patience must be nonnegative, got {self.patience}")
        if not self.min_delta >= 0.0:
            raise ValueError(f"min_delta must be nonnegative, got {self.min_delta}")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError(f"validation_fraction must lie in [0, 1), got {self.validation_fraction}")


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
    # share of validation rows with an exact copy among the training rows; None without a split
    validation_copy_share: float | None = None
    # distinct rows each part trains or validates on, {"train": k, "val": k}; None without a split
    distinct_rows: dict | None = None
    # how well the final model fits all samples; set by pipeline.fit, which knows their layout
    explained_share: dict | None = None
    one_hot_row_share: float | None = None


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

    ``params`` has the dtype given here, and every batch method computes in
    it: samples and embeddings are cast to ``params.dtype``, and gradients,
    residuals and reconstructions come out in it.
    """

    def __init__(self, architecture: FusionArchitecture, seed: int = 0, dtype=np.float64):
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
        self.params = np.empty(sum(mlp.parameter_count for mlp in mlps), dtype=dtype)
        for mlp, pairs in zip(mlps, neural.layer_views(mlps, self.params)):
            for layer, (weight, bias) in zip(mlp.layers, pairs):
                weight[:], bias[:] = layer.weight, layer.bias
                layer.weight, layer.bias = weight, bias

    def _mlps(self) -> list[Mlp]:
        """The MLPs in ``params`` order: graph encoders, shared encoder, shared decoder, graph decoders."""
        return [self.graph_encoder, self.shared_encoder, self.shared_decoder, self.graph_decoder]

    def _check_inputs(self, samples: np.ndarray) -> np.ndarray:
        arch = self.architecture
        x = np.asarray(samples, dtype=self.params.dtype)
        if x.ndim != 3 or x.shape[::2] != (arch.graph_count, arch.input_dim):
            raise ValueError(
                f"samples have shape {x.shape}, expected ({arch.graph_count}, batch, {arch.input_dim})"
            )
        return x

    def _check_weights(self, weights: np.ndarray | None, batch: int) -> np.ndarray | None:
        """Per-row loss weights in the model's dtype: finite, nonnegative, one per row, a positive sum.

        Unit weights are returned as None, so that rows that all occur once
        skip the weighting and cost what unweighted rows cost.
        """
        if weights is None:
            return None
        w = np.asarray(weights, dtype=self.params.dtype)
        if w.shape != (batch,):
            raise ValueError(f"weights have shape {w.shape}, expected ({batch},)")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0) or not w.sum() > 0.0:
            raise ValueError("weights must be finite and nonnegative, with a positive sum")
        return None if np.all(w == 1.0) else w

    def _encode(self, x: np.ndarray, records: list[ForwardRecord] | None = None) -> np.ndarray:
        """Fused embeddings z, (1, batch, embedding_dim), of a checked sample array."""
        return _output(self.shared_encoder, _joined(_output(self.graph_encoder, x, records)), records)

    def _decode(self, z: np.ndarray, records: list[ForwardRecord] | None = None) -> np.ndarray:
        """Reconstructions (G, batch, input_dim) of embeddings z, (1, batch, embedding_dim)."""
        expanded = _output(self.shared_decoder, z, records)
        return _output(self.graph_decoder, _graph_chunks(expanded, self.architecture.graph_count), records)

    def _loss(
        self, x: np.ndarray, w: np.ndarray | None, records: list[ForwardRecord] | None = None
    ) -> tuple[list[float], np.ndarray, float]:
        """Each graph's weighted reconstruction MSE, the residual recon - x, and the MSEs' divisor.

        A graph's MSE is sum_i w_i ||r_i||^2 / (sum(w) * input_dim); without
        weights every row weighs 1 and it is the sum of the squares over their
        count, as ``np.mean`` forms it. The residual is formed in the graph
        decoder's output buffer (its last layer is the identity) and squared
        one graph at a time into one buffer: squaring the whole stack would
        hold a second (G, batch, input_dim) array, 2 MB in float32 on the wide
        benchmark workload.
        """
        residual = self._decode(self._encode(x, records), records)
        residual -= x
        square = np.empty_like(residual[0])
        divisor = residual[0].size if w is None else float(w.sum()) * residual.shape[2]
        mse = []
        for r in residual:
            np.multiply(r, r, out=square)
            if w is not None:
                square *= w[:, np.newaxis]
            mse.append(float(np.add.reduce(square, axis=None) / divisor))
        return mse, residual, divisor

    def encode_batch(self, samples: np.ndarray) -> np.ndarray:
        """Fused embeddings (batch, embedding_dim).

        Not batch-invariant in the last bits: the matrix products may sum in a
        different order for a different batch, so a row encoded alone or in
        another batch can differ by about one unit in the last place of the
        model's dtype (~1e-16 in float64; up to 1.9e-6 was seen on float32
        embeddings of magnitude 13). ``extract_embeddings`` encodes each
        distinct row once, so there only rows that differ can be moved apart.
        """
        return self._encode(self._check_inputs(samples))[0]

    def decode_batch(self, z: np.ndarray) -> np.ndarray:
        """Reconstructions (graph_count, batch, input_dim) of embeddings z, (batch, embedding_dim)."""
        z = np.asarray(z, dtype=self.params.dtype)
        if z.ndim != 2 or z.shape[1] != self.architecture.embedding_dim:
            raise ValueError(f"z has shape {z.shape}, expected (batch, {self.architecture.embedding_dim})")
        return self._decode(z[np.newaxis])

    def graph_losses(self, samples: np.ndarray, weights: np.ndarray | None = None) -> list[float]:
        """Each graph's reconstruction MSE, each row weighted by ``weights`` (default 1 each).

        Rows of weight ``c`` count as ``c`` copies: the distinct rows weighted by
        their counts give the MSEs of all rows. ``reconstruction_loss`` is their mean.
        """
        x = self._check_inputs(samples)
        return self._loss(x, self._check_weights(weights, x.shape[1]))[0]

    def reconstruction_loss(self, samples: np.ndarray, weights: np.ndarray | None = None) -> float:
        mse = self.graph_losses(samples, weights)
        return sum(mse) / len(mse)

    def loss_and_gradients(self, samples: np.ndarray, weights: np.ndarray | None = None) -> tuple[float, np.ndarray]:
        """Reconstruction loss, rows weighted as in ``graph_losses``, and its gradient laid out like ``params``."""
        x = self._check_inputs(samples)
        w = self._check_weights(weights, x.shape[1])
        records: list[ForwardRecord] = []
        mse, residual, divisor = self._loss(x, w, records)
        # dL/drecon in place: 2 w (recon - x) / divisor / G. Dividing by half the divisor
        # (exact) rounds the quotient 2 w (recon - x) / divisor once, as doubling (exact) and dividing would.
        if w is not None:
            residual *= w[:, np.newaxis]
        residual /= divisor / 2.0
        residual /= len(residual)
        grad = np.empty_like(self.params)
        enc_rec, shared_enc_rec, shared_dec_rec, dec_rec = records
        enc_grads, shared_enc_grads, shared_dec_grads, dec_grads = neural.layer_views(self._mlps(), grad)
        g_chunks = backward(self.graph_decoder, dec_rec, residual, dec_grads)
        g_z = backward(self.shared_decoder, shared_dec_rec, _joined(g_chunks), shared_dec_grads)
        g_concat = backward(self.shared_encoder, shared_enc_rec, g_z, shared_enc_grads)
        backward(self.graph_encoder, enc_rec, _graph_chunks(g_concat, len(x)), enc_grads, input_grad=False)
        return sum(mse) / len(mse), grad


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


def distinct_rows(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a graph-major (G, rows, n) array, (G, distinct, n), and each row's index among them.

    A row is one sample's feature rows in all G graphs, compared byte for
    byte: two rows are one exactly when they are copies. Row ``i`` of
    ``samples`` is distinct row ``inverse[i]``; the distinct rows come in
    the byte order of their contents, a fixed order for fixed inputs. One
    ``np.unique`` sorts the rows viewed as opaque records: at the benchmark
    workloads' shapes that took 1-4 ms on a 2-core x86-64 host, where
    ``np.unique(axis=0)``, which compares float column by column, took 20-50 ms.
    """
    x = np.asarray(samples)
    graphs, rows, n = x.shape
    joined = np.ascontiguousarray(np.moveaxis(x, 1, 0)).reshape(rows, graphs * n)
    records = joined.view(np.dtype((np.void, joined.itemsize * graphs * n))).reshape(rows)
    _, first, inverse = np.unique(records, return_index=True, return_inverse=True)
    return np.take(x, first, axis=1), inverse.reshape(rows)


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

    Each part runs on its distinct rows (``distinct_rows``), each weighted by
    its count in the part, so every loss and gradient is that of the part's
    rows in exact arithmetic. The report's ``distinct_rows`` counts them, and
    its ``validation_copy_share`` is the share of validation rows that repeat
    a training row exactly, in every graph.
    """
    x = _check_samples(model, samples)
    validation_fraction = settings.validation_fraction
    m = x.shape[1]
    if validation_fraction > 0.0 and m < 10:
        raise ValueError(f"need at least 10 samples for a validation split, got {m}")

    rng = np.random.default_rng(split_seed)
    perm = rng.permutation(m)
    n_val = int(round(m * validation_fraction))
    if validation_fraction > 0.0:
        n_val = min(max(n_val, 1), m - 1)
    train_idx, val_idx = perm[: m - n_val], perm[m - n_val :]
    distinct, inverse = distinct_rows(x)
    train_counts = np.bincount(inverse[train_idx], minlength=distinct.shape[1])
    val_counts = np.bincount(inverse[val_idx], minlength=distinct.shape[1])

    def part(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct rows a part holds and their counts in it, in the model's dtype."""
        present = np.flatnonzero(counts)
        # np.take keeps the rows contiguous per graph; distinct[:, present] would not
        return np.take(distinct, present, axis=1), counts[present].astype(model.params.dtype)

    train_inputs, train_weights = part(train_counts)
    val_inputs, val_weights = part(val_counts)

    report = TrainReport(
        split_seed=split_seed,
        config={**asdict(settings), "n_samples": m, "n_train": int(m - n_val), "n_val": int(n_val)},
    )
    if n_val:
        report.validation_copy_share = float(np.mean(train_counts[inverse[val_idx]] > 0))
        report.distinct_rows = {"train": len(train_weights), "val": len(val_weights)}

    params = model.params
    optimizer = adam_init(params, learning_rate=settings.learning_rate)
    best = np.empty_like(params)
    best_val = np.inf
    stall = 0
    for epoch in range(1, settings.max_epochs + 1):
        loss, grad = model.loss_and_gradients(train_inputs, train_weights)
        if not np.isfinite(loss):
            report.stop_epoch = epoch
            report.stop_reason = "non_finite_loss"
            raise TrainingDiverged(f"non-finite training loss at epoch {epoch}", report)
        adam_step(optimizer, params, grad)
        report.train_losses.append(loss)
        report.stop_epoch = epoch
        if not n_val:
            continue
        val_loss = model.reconstruction_loss(val_inputs, val_weights)
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
    """Fused embeddings on a dense grid: ``vectors[d, a]`` is ``universe[a]`` at ``window_ends[d]``."""

    universe: tuple[str, ...]  # asset ordering of the run
    window_ends: tuple[int, ...]  # strictly increasing, epoch ms
    vectors: np.ndarray  # (dates, assets, embedding_dim)

    def __post_init__(self) -> None:
        self.universe = tuple(self.universe)
        self.window_ends = tuple(int(t) for t in self.window_ends)
        self.vectors = np.asarray(self.vectors, dtype=float)
        dates, assets = len(self.window_ends), len(self.universe)
        if self.vectors.ndim != 3 or self.vectors.shape[:2] != (dates, assets):
            raise ValueError(f"vectors have shape {self.vectors.shape}, expected ({dates}, {assets}, embedding_dim)")
        if any(b <= a for a, b in zip(self.window_ends, self.window_ends[1:])):
            raise ValueError("window_ends must be strictly increasing")

    @property
    def embedding_dim(self) -> int:
        return self.vectors.shape[2]


def extract_embeddings(
    model: FusionModel,
    samples: np.ndarray,
    universe: Sequence[str],
    window_ends: Sequence[int],
) -> EmbeddingFrame:
    """One embedding per sample row; row ``d * len(universe) + a`` becomes ``vectors[d, a]``.

    Each distinct row (``distinct_rows``) is encoded once and its vector given
    to every copy, so copies get bitwise-equal vectors.
    """
    x = _check_samples(model, samples)
    n = len(universe)
    if x.shape[1] != len(window_ends) * n:
        raise ValueError(f"{x.shape[1]} sample rows, expected {len(window_ends)} dates x {n} assets")
    distinct, inverse = distinct_rows(x)
    vectors = model.encode_batch(distinct)[inverse]
    return EmbeddingFrame(universe, window_ends, vectors.reshape(len(window_ends), n, -1))


def save_model(model: FusionModel, path: str | Path) -> None:
    """Write ``model`` as its architecture plus ``params``, laid out as ``neural.layer_views`` lays it out."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "dtype": model.params.dtype.name,
        "architecture": asdict(model.architecture),
        "params": model.params.tolist(),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # json.dumps uses the C encoder; json.dump always runs the pure-Python one. The text is the same.
    text = json.dumps(payload) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path: str | Path) -> FusionModel:
    """The model of a ``save_model`` file, in the stored dtype; any refusal is a ``ValueError`` naming the file."""
    name = Path(path).name
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{name}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{name}: expected a JSON object")
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"{name}: unsupported model format version {payload.get('format_version')!r}")
    dtype = _MODEL_DTYPES.get(payload.get("dtype"))
    if dtype is None:
        raise ValueError(f"{name}: unsupported dtype {payload.get('dtype')!r}; expected one of {sorted(_MODEL_DTYPES)}")
    try:
        model = FusionModel(FusionArchitecture(**payload["architecture"]), dtype=dtype)
        stored = np.array(payload["params"], dtype=dtype)
    except KeyError as exc:
        raise ValueError(f"{name}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from exc
    if stored.shape != model.params.shape:
        raise ValueError(f"{name}: {stored.size} stored parameters, the architecture has {model.params.size}")
    if not np.all(np.isfinite(stored)):
        raise ValueError(f"{name}: stored parameters must be finite")
    model.params[:] = stored
    return model
