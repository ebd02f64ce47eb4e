"""End-to-end orchestration: windowing, graph construction, fusion, post-processing.

For every selected window-end date and every (period, lag) spec, a lookback
window of return rows is sliced, a validated lead-lag graph is built, and the
graph's RWR/PPMI features become one training row per asset; the rows form
one (specs, dates * assets, assets) sample array. ``fit`` trains the single
fusion model over all (asset, date) samples and embeds them; the library
(``run_dynamic_fusion``) and the CLI ``fuse`` stage both train through it.
Pairwise cosine similarity series and a 2-D PCA projection are derived from
the embeddings.

The ``write_*`` and ``load_*`` functions here define the artifact formats.
Nothing in this module writes a run directory: the CLI stages call the
writers and are the only code that does.
"""

from __future__ import annotations

import csv
import logging
import os
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import compress
from pathlib import Path
from typing import Sequence

import numpy as np

from . import fusion, leadlag
from .diffusion import RwrConfig, node_features
from .fusion import (
    EmbeddingFrame,
    FusionArchitecture,
    FusionModel,
    ModelSettings,
    TrainingSettings,
    TrainReport,
)
from .leadlag import LagSpec, LeadLagGraph
from .market_data import PricePanel, ReturnMatrix, _fmt, log_returns, resample

logger = logging.getLogger(__name__)

__all__ = [
    "ConfigError",
    "TrainingSettings",
    "ModelSettings",
    "RunConfig",
    "SimilaritySeries",
    "PcaProjection",
    "RunResult",
    "select_window_ends",
    "build_graphs",
    "samples_from_graphs",
    "fit",
    "run_dynamic_fusion",
    "cosine_matrix",
    "cosine_similarity",
    "similarity_series",
    "similarity_series_batch",
    "similarity_matrix",
    "symmetric_eigh_jacobi",
    "pca_project",
    "link_count_summary",
    "write_embeddings_csv",
    "load_embeddings_csv",
    "write_similarity_csv",
    "write_similarity_dir",
    "write_pca_csv",
    "write_graph_artifacts",
    "load_graph_artifacts",
]

MS_PER_DAY = 86_400_000


class ConfigError(ValueError):
    """Invalid run configuration (bad value, unknown key, inconsistent specs)."""


def _default_specs() -> tuple[LagSpec, ...]:
    return tuple(LagSpec(d, t) for d in (1, 5) for t in (0, 1, 2))


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs besides the price panel itself."""

    specs: tuple[LagSpec, ...] = field(default_factory=_default_specs)
    window_minutes: int = 1440
    window_ends: str | tuple[int, ...] = "daily"  # rule or explicit timestamps
    states: int = 4
    uncorrected_p: float = 0.01
    rwr: RwrConfig = field(default_factory=RwrConfig)
    model: ModelSettings = field(default_factory=ModelSettings)
    training: TrainingSettings = field(default_factory=TrainingSettings)
    seed_split: int = 11
    seed_init: int = 13
    pca_components: int = 2
    similarity_pairs: str | tuple[tuple[str, str], ...] = "all"

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        if not self.specs:
            raise ConfigError("at least one (period, lag) spec is required")
        keys = [(s.period_minutes, s.lag) for s in self.specs]
        if len(set(keys)) != len(keys):
            raise ConfigError("duplicate (period, lag) specs in configuration")
        if self.window_minutes < 1:
            raise ConfigError(f"window_minutes must be positive, got {self.window_minutes}")
        if self.states < 2:
            raise ConfigError(f"states must be at least 2, got {self.states}")
        if not 0.0 < self.uncorrected_p < 1.0:
            raise ConfigError(f"uncorrected_p must lie in (0, 1), got {self.uncorrected_p}")
        if self.pca_components < 1:
            raise ConfigError(f"pca_components must be positive, got {self.pca_components}")
        for spec in self.specs:
            rows = self.window_rows(spec)
            if rows - spec.lag < self.states:
                raise ConfigError(
                    f"spec {spec.tag}: window of {rows} rows minus lag {spec.lag} cannot "
                    f"support {self.states}-state discretization"
                )
        if isinstance(self.window_ends, str):
            if self.window_ends != "daily":
                raise ConfigError(f"unknown window_ends rule {self.window_ends!r}")
        else:
            ends = tuple(int(t) for t in self.window_ends)
            if any(b <= a for a, b in zip(ends, ends[1:])):
                raise ConfigError("explicit window_ends must be strictly increasing")
            object.__setattr__(self, "window_ends", ends)

    def window_rows(self, spec: LagSpec) -> int:
        """Return rows per window for a spec: explicit override or minutes / period."""
        if spec.window_rows is not None:
            return spec.window_rows
        if self.window_minutes % spec.period_minutes != 0:
            raise ConfigError(
                f"window_minutes {self.window_minutes} is not a multiple of period {spec.period_minutes}"
            )
        return self.window_minutes // spec.period_minutes


@dataclass
class SimilaritySeries:
    """Cosine similarity of one asset pair through time; None marks undefined."""

    pair: tuple[str, str]
    entries: tuple[tuple[int, float | None], ...]


@dataclass
class PcaProjection:
    asset_ids: tuple[str, ...]
    window_ends: tuple[int, ...]
    coordinates: np.ndarray  # (records, components)
    components: np.ndarray  # (components, embedding_dim), orthonormal rows
    explained_variance: np.ndarray  # (components,), non-increasing


@dataclass
class RunResult:
    model: FusionModel
    frame: EmbeddingFrame
    graphs: list[LeadLagGraph]
    train_report: TrainReport
    usable_ends: list[int]
    skips: list[dict]
    flags: list[dict]


# --- windowing ---------------------------------------------------------------


def select_window_ends(base_returns: ReturnMatrix, rule: str | Sequence[int]) -> list[int]:
    """Window-end timestamps: last base return of each UTC day, or an explicit list."""
    if isinstance(rule, str):
        if rule != "daily":
            raise ConfigError(f"unknown window_ends rule {rule!r}")
        ts = base_returns.timestamps
        days = ts // MS_PER_DAY
        last_of_day = np.nonzero(np.diff(days) != 0)[0]
        ends = ts[last_of_day].tolist() + [int(ts[-1])]
        return [int(t) for t in ends]
    ends = [int(t) for t in rule]
    if any(b <= a for a, b in zip(ends, ends[1:])):
        raise ConfigError("window_ends must be strictly increasing")
    return ends


def _slice_window(returns: ReturnMatrix, window_end: int, rows: int) -> ReturnMatrix | None:
    """Last ``rows`` return rows at or before ``window_end``; None if not enough."""
    ts = returns.timestamps
    stop = int(np.searchsorted(ts, window_end, side="right"))
    if stop < rows:
        return None
    return ReturnMatrix(
        period_minutes=returns.period_minutes,
        timestamps=ts[stop - rows : stop],
        assets=returns.assets,
        returns=returns.returns[stop - rows : stop],
    )


# --- graph stage --------------------------------------------------------------


def build_graphs(
    config: RunConfig,
    panel: PricePanel,
    threads: int = 1,
) -> tuple[list[LeadLagGraph], list[int], list[dict], list[dict]]:
    """All (spec, date) graphs plus the usable dates, skip log and data flags.

    A date is usable only when every spec has a full window ending there, so
    each usable date contributes exactly len(specs) graphs.
    """
    returns_by_period: dict[int, ReturnMatrix] = {}
    for spec in config.specs:
        if spec.period_minutes not in returns_by_period:
            returns_by_period[spec.period_minutes] = log_returns(resample(panel, spec.period_minutes))

    base_period = min(returns_by_period)
    candidates = select_window_ends(returns_by_period[base_period], config.window_ends)

    skips: list[dict] = []
    usable_ends: list[int] = []
    windows: dict[tuple[str, int], ReturnMatrix] = {}
    for end in candidates:
        missing = None
        for spec in config.specs:
            rows = config.window_rows(spec)
            window = _slice_window(returns_by_period[spec.period_minutes], end, rows)
            if window is None:
                missing = f"spec {spec.tag} has fewer than {rows} return rows at {end}"
                break
            windows[(spec.tag, end)] = window
        if missing is None:
            usable_ends.append(end)
        else:
            skips.append({"window_end": end, "reason": missing})
            logger.warning("skipping window end %d: %s", end, missing)

    if not usable_ends:
        raise ValueError("no usable window-end dates: every candidate window is too short")

    flags: list[dict] = []
    tasks = [(spec, end) for end in usable_ends for spec in config.specs]

    def _build(task: tuple[LagSpec, int]) -> LeadLagGraph:
        spec, end = task
        return leadlag.build_graph(
            windows[(spec.tag, end)], spec, end, config.uncorrected_p, config.states
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            graphs = list(pool.map(_build, tasks))
    else:
        graphs = [_build(t) for t in tasks]

    for (spec, end), graph in zip(tasks, graphs):
        flat = leadlag.constant_columns(windows[(spec.tag, end)])
        if flat:
            flags.append({"window_end": end, "spec": spec.tag, "assets": flat, "issue": "constant_returns"})
    return graphs, usable_ends, skips, flags


def samples_from_graphs(
    graphs: Sequence[LeadLagGraph],
    specs: Sequence[LagSpec],
    usable_ends: Sequence[int],
    rwr_cfg: RwrConfig,
) -> np.ndarray:
    """The graph-major (specs, dates * n, n) sample array of ``fusion.train``.

    Row ``d * n + a`` of spec ``k`` holds asset ``a``'s PPMI row in spec
    ``k``'s graph at ``usable_ends[d]``.
    """
    by_key = {(g.spec.tag, g.window_end): g for g in graphs}
    n = len(graphs[0].assets)
    samples = np.empty((len(specs), len(usable_ends) * n, n))
    for d, end in enumerate(usable_ends):
        for k, spec in enumerate(specs):
            graph = by_key.get((spec.tag, end))
            if graph is None:
                raise ValueError(f"missing graph for spec {spec.tag} at window end {end}")
            samples[k, d * n : (d + 1) * n] = node_features(graph.adjacency, rwr_cfg, f"{spec.tag}@{end}").ppmi
    return samples


def fit(
    config: RunConfig, graphs: Sequence[LeadLagGraph], usable_ends: Sequence[int]
) -> tuple[FusionModel, TrainReport, EmbeddingFrame]:
    """Train one fusion model over every (asset, date) sample and embed every sample."""
    samples = samples_from_graphs(graphs, config.specs, usable_ends, config.rwr)
    universe = graphs[0].assets
    arch = FusionArchitecture(graph_count=len(config.specs), input_dim=len(universe), **asdict(config.model))
    model = FusionModel(arch, seed=config.seed_init)
    report = fusion.train(model, samples, config.seed_split, config.training)
    frame = fusion.extract_embeddings(model, samples, universe, usable_ends)
    return model, report, frame


def run_dynamic_fusion(config: RunConfig, panel: PricePanel, threads: int = 1) -> RunResult:
    """The full dynamic pipeline in memory: graphs for every date, one fusion training, embeddings.

    Nothing is written. To keep the artifacts, pass the result to the writers
    the CLI uses, e.g. ``fusion.save_model(result.model, path)`` and
    ``write_embeddings_csv(result.frame, path)``.
    """
    graphs, usable_ends, skips, flags = build_graphs(config, panel, threads=threads)
    model, report, frame = fit(config, graphs, usable_ends)
    return RunResult(
        model=model, frame=frame, graphs=graphs, train_report=report, usable_ends=usable_ends, skips=skips, flags=flags
    )


# --- similarity ----------------------------------------------------------------


def cosine_matrix(block: np.ndarray) -> np.ndarray:
    """Pairwise cosines of the rows of an ``(n, k)`` block; NaN where a row has zero norm.

    The one cosine kernel of the package: the Gram matrix ``G = Z @ Z.T``
    (numpy hands this product to BLAS ``syrk``), ``norms = sqrt(diag(G))``
    and ``clip(G / (norms[:, None] * norms[None, :]), -1, 1)``. The diagonal
    of a nonzero row is exactly 1.0. Rows are not normalized before the
    product: that rounds differently and changes last bits.

    ``Z`` is the block with zero rows appended up to a multiple of 8 rows.
    Measured with numpy 2.4 and OpenBLAS 0.3.31 on x86-64: from 12 rows on,
    ``syrk`` on a row count that is not a multiple of 8 rounded some entries
    differently from ``np.dot`` (14 of the 1,225 pair files of a 50-asset
    run changed in the last digit). Padded, every Gram entry equalled the
    per-pair ``np.dot(z_i, z_j)`` for k <= 15 at every row count from 2 to
    1,500, so the cosines are bitwise those of the per-pair
    ``np.dot(z_i, z_j) / (norm_i * norm_j)`` formula. For k = 16 to 64 a
    padded Gram entry still did not depend on the row count, so every reader
    of this kernel agrees bit for bit; but ``np.dot`` then sums in another
    order, and per-pair cosines differed from it by up to 4.4e-16.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 2:
        raise ValueError(f"expected an (n, k) block, got shape {block.shape}")
    n = block.shape[0]
    padded = np.zeros((-(-n // 8) * 8, block.shape[1]))
    padded[:n] = block
    gram = (padded @ padded.T)[:n, :n]
    norms = np.sqrt(np.diag(gram))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.clip(gram / (norms[:, None] * norms[None, :]), -1.0, 1.0)
    zero = norms == 0.0
    cos[zero, :] = np.nan
    cos[:, zero] = np.nan
    np.fill_diagonal(cos, np.where(zero, np.nan, 1.0))
    return cos


def cosine_similarity(z_i: np.ndarray, z_j: np.ndarray) -> float | None:
    """Cosine of two embeddings, or None when either has zero norm (a 2-row ``cosine_matrix``)."""
    z_i = np.asarray(z_i, dtype=float)
    z_j = np.asarray(z_j, dtype=float)
    if z_i.shape != z_j.shape:
        raise ValueError(f"dimension mismatch: {z_i.shape} vs {z_j.shape}")
    value = cosine_matrix(np.stack([z_i.ravel(), z_j.ravel()]))[0, 1]
    return None if np.isnan(value) else float(value)


def _date_blocks(frame: EmbeddingFrame, assets: Sequence[str]) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The frame's dates, each date's ``(len(assets), k)`` block and the presence mask.

    Rows are grouped by date in one pass; an asset without an embedding at a
    date has a zero row there and ``present[d, i]`` False.
    """
    dates = frame.dates()
    row_of = {a: i for i, a in enumerate(assets)}
    rows = np.array([row_of.get(a, -1) for a in frame.asset_ids], dtype=np.intp)
    days = np.searchsorted(np.array(dates, dtype=np.int64), np.array(frame.window_ends, dtype=np.int64))
    keep = rows >= 0
    blocks = np.zeros((len(dates), len(assets), frame.embedding_dim))
    present = np.zeros((len(dates), len(assets)), dtype=bool)
    blocks[days[keep], rows[keep]] = frame.vectors[keep]
    present[days[keep], rows[keep]] = True
    return dates, blocks, present


def _pair_cosines(
    frame: EmbeddingFrame, pairs: Sequence[tuple[str, str]]
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The frame's dates, the (pairs, dates) cosines and where both assets of a pair are present.

    The cosines are read from one ``cosine_matrix`` per date; NaN marks an
    undefined cosine (a zero-norm embedding). ``both[p, d]`` is False where
    either asset of pair ``p`` has no embedding at date ``d``.
    """
    known = set(frame.asset_ids)
    assets = list(dict.fromkeys(a for pair in pairs for a in pair))
    for asset in assets:
        if asset not in known:
            raise ValueError(f"unknown asset {asset!r}")
    position = {a: i for i, a in enumerate(assets)}
    first = np.array([position[a] for a, _ in pairs], dtype=np.intp)
    second = np.array([position[b] for _, b in pairs], dtype=np.intp)
    dates, blocks, present = _date_blocks(frame, assets)
    values = np.empty((len(pairs), len(dates)))
    for d, block in enumerate(blocks):
        values[:, d] = cosine_matrix(block)[first, second]
    both = present[:, first].T & present[:, second].T
    return dates, values, both


def similarity_series_batch(frame: EmbeddingFrame, pairs: Sequence[tuple[str, str]]) -> list[SimilaritySeries]:
    """The similarity series of every pair, read from one ``cosine_matrix`` per date.

    A pair's series skips the dates where either asset has no embedding.
    """
    dates, values, both = _pair_cosines(frame, pairs)
    cells = values.astype(object)
    cells[np.isnan(values)] = None
    return [
        SimilaritySeries(pair=(a, b), entries=tuple(compress(zip(dates, row), mask)))
        for (a, b), row, mask in zip(pairs, cells.tolist(), both.tolist())
    ]


def similarity_series(frame: EmbeddingFrame, pair: tuple[str, str]) -> SimilaritySeries:
    """Cosine similarity of one pair at every window end where both are present."""
    return similarity_series_batch(frame, [tuple(pair)])[0]


def similarity_matrix(frame: EmbeddingFrame, window_end: int) -> np.ndarray:
    """Symmetric pairwise-cosine matrix at one date; undefined entries are NaN."""
    assets = frame.assets_at(window_end)
    if not assets:
        raise ValueError(f"no embeddings at window end {window_end}")
    return cosine_matrix(np.stack([frame.lookup(a, window_end) for a in assets]))


# --- PCA ------------------------------------------------------------------------


def symmetric_eigh_jacobi(
    matrix: np.ndarray, tol: float = 1e-14, max_sweeps: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors of a symmetric matrix.

    Cyclic Jacobi rotations; deterministic and accurate to machine precision
    for the small matrices this pipeline produces.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-8 * max(1.0, float(np.abs(a).max()))):
        raise ValueError("matrix is not symmetric")
    a = (a + a.T) / 2.0
    n = a.shape[0]
    vectors = np.eye(n)
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return np.zeros(n), vectors
    others = np.ones(n, dtype=bool)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0)
        if off <= tol * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                others[:] = True
                others[p] = others[q] = False
                arp = a[others, p].copy()
                arq = a[others, q].copy()
                a[others, p] = a[p, others] = c * arp - s * arq
                a[others, q] = a[q, others] = s * arp + c * arq
                a[p, p] -= t * apq
                a[q, q] += t * apq
                a[p, q] = a[q, p] = 0.0
                vp = vectors[:, p].copy()
                vq = vectors[:, q].copy()
                vectors[:, p] = c * vp - s * vq
                vectors[:, q] = s * vp + c * vq
    values = np.diag(a).copy()
    order = np.argsort(-values, kind="stable")
    return values[order], vectors[:, order]


def pca_project(frame: EmbeddingFrame, components: int = 2) -> PcaProjection:
    """Center all embeddings jointly and project onto the top principal axes.

    Components are orthonormal, ordered by non-increasing explained variance,
    and sign-fixed so each component's largest-magnitude loading is positive.
    If fewer directions are supported by the data, the available ones are
    returned with a warning.
    """
    x = frame.vectors
    m, dim = x.shape
    if m < components + 1:
        raise ValueError(f"need at least {components + 1} samples for {components} components, got {m}")
    centered = x - x.mean(axis=0)
    cov = (centered.T @ centered) / (m - 1)
    values, vectors = symmetric_eigh_jacobi(cov)
    k = min(components, dim, m - 1)
    if k < components:
        logger.warning("only %d of %d requested components are supported by the data", k, components)
    basis = vectors[:, :k]
    for j in range(k):
        lead = int(np.argmax(np.abs(basis[:, j])))
        if basis[lead, j] < 0.0:
            basis[:, j] = -basis[:, j]
    return PcaProjection(
        asset_ids=frame.asset_ids,
        window_ends=frame.window_ends,
        coordinates=centered @ basis,
        components=basis.T.copy(),
        explained_variance=np.maximum(values[:k], 0.0),
    )


# --- artifacts -------------------------------------------------------------------


def link_count_summary(graphs: Sequence[LeadLagGraph]) -> dict:
    """Per-(period, lag) validated-link counts: per date plus quartile statistics."""
    by_spec: dict[str, dict] = {}
    for g in sorted(graphs, key=lambda g: (g.spec.period_minutes, g.spec.lag, g.window_end)):
        entry = by_spec.setdefault(
            g.spec.tag,
            {"period_minutes": g.spec.period_minutes, "lag": g.spec.lag, "per_date": {}},
        )
        entry["per_date"][str(g.window_end)] = g.validated_link_count
    for entry in by_spec.values():
        counts = np.array(list(entry["per_date"].values()), dtype=float)
        entry["summary"] = {
            "min": float(counts.min()),
            "q25": float(np.percentile(counts, 25)),
            "median": float(np.percentile(counts, 50)),
            "q75": float(np.percentile(counts, 75)),
            "max": float(counts.max()),
        }
    return by_spec


def write_graph_artifacts(graphs: Sequence[LeadLagGraph], graphs_dir: str | Path) -> None:
    """Replace ``graphs_dir`` with these graphs, so no graph of an earlier run is left."""
    graphs_dir = Path(graphs_dir)
    if graphs_dir.exists():
        shutil.rmtree(graphs_dir)
    for g in graphs:
        spec_dir = graphs_dir / g.spec.tag
        leadlag.write_graph(g, spec_dir / f"{g.window_end}.csv", spec_dir / f"{g.window_end}.json")


def load_graph_artifacts(graphs_dir: str | Path) -> list[LeadLagGraph]:
    graphs_dir = Path(graphs_dir)
    graphs = []
    for csv_path in sorted(graphs_dir.glob("*/*.csv")):
        graphs.append(leadlag.load_graph(csv_path, csv_path.with_suffix(".json")))
    if not graphs:
        raise FileNotFoundError(f"no graph artifacts found under {graphs_dir}")
    return graphs


def _write_records_csv(
    path: str | Path, asset_ids: Sequence[str], window_ends: Sequence[int], values: np.ndarray, columns: list[str]
) -> None:
    """``asset,window_end,<columns>`` rows sorted by (window_end, asset), one per record."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    order = sorted(range(len(asset_ids)), key=lambda i: (window_ends[i], asset_ids[i]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["asset", "window_end", *columns])
        for i in order:
            writer.writerow([asset_ids[i], window_ends[i], *(_fmt(v) for v in values[i])])


def write_embeddings_csv(frame: EmbeddingFrame, path: str | Path) -> None:
    columns = [f"z{i}" for i in range(frame.embedding_dim)]
    _write_records_csv(path, frame.asset_ids, frame.window_ends, frame.vectors, columns)


def load_embeddings_csv(path: str | Path, universe: Sequence[str] | None = None) -> EmbeddingFrame:
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:2] != ["asset", "window_end"]:
            raise ValueError(f"{path.name}: expected header 'asset,window_end,z0,...'")
        assets: list[str] = []
        ends: list[int] = []
        rows: list[list[float]] = []
        for row in reader:
            if not row:
                continue
            assets.append(row[0])
            ends.append(int(row[1]))
            rows.append([float(v) for v in row[2:]])
    if not rows:
        raise ValueError(f"{path.name}: no embedding rows")
    if universe is None:
        universe = tuple(sorted(set(assets)))
    return EmbeddingFrame(
        asset_ids=tuple(assets), window_ends=tuple(ends), vectors=np.asarray(rows), universe=tuple(universe)
    )


_SIMILARITY_HEADER = "window_end,cosine\r\n"


def _similarity_line(end: int, value: float | None) -> str:
    """One ``window_end,cosine`` row as ``csv.writer`` writes it: CRLF, a ``repr`` float, an empty field for None or NaN."""
    return f"{end},{'' if value is None or value != value else _fmt(value)}\r\n"


def _overwrite(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` in place: no ``O_TRUNC``, the file is cut to length after the write.

    On ext4 (with the default ``auto_da_alloc``) a close after truncating a
    file to zero waits for its data to reach the disk, which made every re-run
    of a 19,900-file postprocess block once per file.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_similarity_csv(series: SimilaritySeries, path: str | Path) -> None:
    """Write one series as ``window_end,cosine`` rows, overwriting ``path`` in place."""
    _overwrite(path, "".join([_SIMILARITY_HEADER, *(_similarity_line(*entry) for entry in series.entries)]).encode())


def write_similarity_dir(frame: EmbeddingFrame, pairs: Sequence[tuple[str, str]], directory: str | Path) -> None:
    """Write ``<A>_<B>.csv`` for each pair and delete every other ``*.csv`` in ``directory``.

    Each file holds the bytes ``write_similarity_csv`` writes for the pair's
    series, formatted straight from the cosine matrix of each date: no
    ``SimilaritySeries`` is built. Files of an earlier run are overwritten in
    place rather than removed and created anew, which is the slower of the
    two on ext4.
    """
    dates, values, both = _pair_cosines(frame, pairs)
    lines = [[_similarity_line(end, value) for value in column] for end, column in zip(dates, values.T.tolist())]
    prefix = os.path.join(os.fspath(directory), "")
    os.makedirs(prefix, exist_ok=True)
    written = set()
    for (a, b), pair_lines, there in zip(pairs, zip(*lines), both.tolist()):
        name = f"{a}_{b}.csv"
        _overwrite(prefix + name, "".join([_SIMILARITY_HEADER, *compress(pair_lines, there)]).encode())
        written.add(name)
    for name in os.listdir(prefix):
        if name.endswith(".csv") and name not in written:
            os.unlink(prefix + name)


def write_pca_csv(projection: PcaProjection, path: str | Path) -> None:
    columns = [f"pc{i + 1}" for i in range(projection.coordinates.shape[1])]
    _write_records_csv(path, projection.asset_ids, projection.window_ends, projection.coordinates, columns)
