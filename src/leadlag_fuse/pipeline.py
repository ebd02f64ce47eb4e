"""End-to-end orchestration: windowing, graph construction, fusion, post-processing.

For every selected window-end date and every (period, lag) spec, a lookback
window of return rows is sliced, a validated lead-lag graph is built, and the
graph's RWR/PPMI features become one training row per asset; the rows form
one (specs, dates * assets, assets) sample array. ``build_graphs`` builds
every graph in memory, and ``fit`` trains the single fusion model, in
float32, over all (asset, date) samples and embeds them: it is the one
training entry point, and the CLI ``fuse`` stage calls it too.
Pairwise cosine similarity series and a 2-D PCA projection are derived from
the embeddings.

The ``write_*`` and ``load_*`` functions here define the artifact formats,
the graph index ``graphs.json`` among them: it lists the run's graphs and the
settings that built them, and ``load_graph_artifacts`` reads those edge lists
and no others, for a config with those settings.
Nothing in this module writes a run directory: the CLI stages call the
writers and are the only code that does.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
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
from .synthetic import SyntheticSpec

logger = logging.getLogger(__name__)

__all__ = [
    "ConfigError",
    "TrainingSettings",
    "ModelSettings",
    "DataSettings",
    "Seeds",
    "RunConfig",
    "PcaProjection",
    "select_window_ends",
    "build_graphs",
    "samples_from_graphs",
    "fit",
    "cosine_matrix",
    "cosine_similarity",
    "similarity_series",
    "similarity_matrix",
    "symmetric_eigh_jacobi",
    "pca_project",
    "link_count_summary",
    "write_embeddings_csv",
    "load_embeddings_csv",
    "write_similarity_csv",
    "write_pca_csv",
    "write_graph_artifacts",
    "load_graph_artifacts",
]

MS_PER_DAY = 86_400_000
GRAPH_INDEX = "graphs.json"  # beside graphs/, which holds only the spec directories
# each index entry's fields besides its spec, in LeadLagGraph's order, with their types
_INDEX_FIELDS = {"window_end": int, "validated_link_count": int, "sample_size": int, "threshold_bits": float}


class ConfigError(ValueError):
    """Invalid run configuration (bad value, unknown key, inconsistent specs)."""


def _default_specs() -> tuple[LagSpec, ...]:
    return tuple(LagSpec(d, t) for d in (1, 5) for t in (0, 1, 2))


@dataclass(frozen=True)
class DataSettings:
    """Where the raw price CSVs live (relative to the config file) and their bar length."""

    prices_dir: str = "prices"
    base_period_minutes: int = 1

    def __post_init__(self) -> None:
        if self.base_period_minutes < 1:
            raise ValueError(f"base_period_minutes must be positive, got {self.base_period_minutes}")


@dataclass(frozen=True)
class Seeds:
    """The data seed of ``synth``, the train/validation split seed and the model init seed."""

    data: int = 7
    split: int = 11
    init: int = 13


@dataclass(frozen=True)
class RunConfig:
    """One run's settings; each field is a key of the config file, each nested dataclass a section.

    The library reads every field but ``data``, ``seeds.data`` and ``synth``,
    which only the CLI stages that find or generate the price files read.
    """

    data: DataSettings = field(default_factory=DataSettings)
    specs: tuple[LagSpec, ...] = field(default_factory=_default_specs)
    window_minutes: int = 1440
    window_ends: str | tuple[int, ...] = "daily"  # rule or explicit timestamps
    states: int = 4
    uncorrected_p: float = 0.01
    rwr: RwrConfig = field(default_factory=RwrConfig)
    model: ModelSettings = field(default_factory=ModelSettings)
    training: TrainingSettings = field(default_factory=TrainingSettings)
    seeds: Seeds = field(default_factory=Seeds)
    pca_components: int = 2
    similarity_pairs: str | tuple[tuple[str, str], ...] = "all"
    synth: SyntheticSpec = field(default_factory=SyntheticSpec)

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
        base = self.data.base_period_minutes
        for spec in self.specs:
            if spec.period_minutes % base != 0:
                raise ConfigError(
                    f"spec {spec.tag}: period {spec.period_minutes} is not a multiple of data.base_period_minutes {base}"
                )
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
class PcaProjection:
    universe: tuple[str, ...]
    window_ends: tuple[int, ...]
    coordinates: np.ndarray  # (dates, assets, components), on the frame's grid
    components: np.ndarray  # (components, embedding_dim), orthonormal rows
    explained_variance: np.ndarray  # (components,), non-increasing


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


def fit(config: RunConfig, graphs: Sequence[LeadLagGraph]) -> tuple[FusionModel, TrainReport, EmbeddingFrame]:
    """Train one float32 fusion model over every (asset, date) sample and embed every sample.

    The dates are the graphs' window ends, increasing; every spec needs a
    graph at each of them. The report also carries the model's fit quality over all samples:
    ``explained_share`` and ``one_hot_row_share``.
    """
    window_ends = sorted({g.window_end for g in graphs})
    samples = samples_from_graphs(graphs, config.specs, window_ends, config.rwr)
    universe = graphs[0].assets
    arch = FusionArchitecture(graph_count=len(config.specs), input_dim=len(universe), **asdict(config.model))
    # float32 halves the fit's time and keeps the fixture's claims (README, "Precision");
    # FusionModel's float64 default is the reference the gradient checks run on
    model = FusionModel(arch, seed=config.seeds.init, dtype=np.float32)
    report = fusion.train(model, samples, config.seeds.split, config.training)
    frame = fusion.extract_embeddings(model, samples, universe, window_ends)
    report.explained_share = _explained_share(model, samples, config.specs)
    report.one_hot_row_share = _one_hot_row_share(samples)
    return model, report, frame


def _explained_share(model: FusionModel, samples: np.ndarray, specs: Sequence[LagSpec]) -> dict:
    """1 - model MSE / mean-predictor MSE over all samples: ``overall`` and ``per_graph`` by spec tag.

    The mean predictor outputs each graph's column means, so its MSE is the
    mean of that graph's column variances. ``overall`` compares the means
    over graphs, as the training loss averages them. A share whose baseline
    MSE is 0 is None.
    """
    model_mse = model.graph_losses(samples)
    baseline = [float(np.var(graph, axis=0).mean()) for graph in samples]
    share = lambda model_part, base: 1.0 - model_part / base if base > 0.0 else None
    return {
        "overall": share(sum(model_mse), sum(baseline)),
        "per_graph": {spec.tag: share(m, b) for spec, m, b in zip(specs, model_mse, baseline)},
    }


def _one_hot_row_share(samples: np.ndarray) -> float:
    """The share of the (graph, row) sample rows that hold only their own asset's entry.

    That is the PPMI row of a node with nothing but its self-loop: row
    ``d * n + a`` of a graph, nonzero in column ``a`` alone.
    """
    _, rows, n = samples.shape
    nonzero = samples != 0.0
    own = nonzero[:, np.arange(rows), np.arange(rows) % n]
    return float(np.mean(own & (np.count_nonzero(nonzero, axis=2) == 1)))


# --- similarity ----------------------------------------------------------------


def cosine_matrix(block: np.ndarray) -> np.ndarray:
    """Pairwise cosines of the rows of an ``(n, k)`` block; NaN where a row has zero norm.

    The one cosine kernel of the package: the Gram matrix ``G = Z @ Z.T``
    (numpy hands this product to BLAS ``syrk``), ``norms = sqrt(diag(G))``
    and ``clip(G / (norms[:, None] * norms[None, :]), -1, 1)``. The cosine of
    two nonzero rows that are equal byte for byte, a row with itself among
    them, is exactly 1.0: the division can round it one unit below. Rows
    are not normalized before the product: that rounds differently and
    changes last bits.

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
    # two copies of a row have cosine 1.0, which the division can miss by a unit in the last place
    first_of = {}
    copy_of = np.array([first_of.setdefault(row.tobytes(), i) for i, row in enumerate(block)], dtype=np.int64)
    cos[copy_of[:, None] == copy_of[None, :]] = 1.0
    zero = norms == 0.0
    cos[zero, :] = np.nan
    cos[:, zero] = np.nan
    return cos


def cosine_similarity(z_i: np.ndarray, z_j: np.ndarray) -> float | None:
    """Cosine of two embeddings, or None when either has zero norm (a 2-row ``cosine_matrix``)."""
    z_i = np.asarray(z_i, dtype=float)
    z_j = np.asarray(z_j, dtype=float)
    if z_i.shape != z_j.shape:
        raise ValueError(f"dimension mismatch: {z_i.shape} vs {z_j.shape}")
    value = cosine_matrix(np.stack([z_i.ravel(), z_j.ravel()]))[0, 1]
    return None if np.isnan(value) else float(value)


def similarity_series(frame: EmbeddingFrame, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    """The (pairs, dates) cosines of each pair at each window end; NaN where a cosine is undefined.

    They are read from one ``cosine_matrix`` of the whole universe per date.
    """
    position = {a: i for i, a in enumerate(frame.universe)}
    for asset in (a for pair in pairs for a in pair):
        if asset not in position:
            raise ValueError(f"unknown asset {asset!r}")
    first = np.array([position[a] for a, _ in pairs], dtype=np.intp)
    second = np.array([position[b] for _, b in pairs], dtype=np.intp)
    values = np.empty((len(pairs), len(frame.window_ends)))
    for d, block in enumerate(frame.vectors):
        values[:, d] = cosine_matrix(block)[first, second]
    return values


def similarity_matrix(frame: EmbeddingFrame, window_end: int) -> np.ndarray:
    """Symmetric pairwise-cosine matrix of the universe at one date; undefined entries are NaN."""
    if window_end not in frame.window_ends:
        raise ValueError(f"no embeddings at window end {window_end}")
    return cosine_matrix(frame.vectors[frame.window_ends.index(window_end)])


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
    x = frame.vectors.reshape(-1, frame.embedding_dim)
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
        universe=frame.universe,
        window_ends=frame.window_ends,
        coordinates=(centered @ basis).reshape(*frame.vectors.shape[:2], k),
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


def _edge_list_path(run_dir: Path, spec: LagSpec, window_end: int) -> Path:
    return run_dir / "graphs" / spec.tag / f"{window_end}.csv"


def _graph_config(config: RunConfig) -> dict:
    """The settings besides ``specs`` that the graphs depend on, by config key, as ``graphs.json`` records them."""
    return json.loads(json.dumps({
        "data.base_period_minutes": config.data.base_period_minutes,
        "states": config.states,
        "uncorrected_p": config.uncorrected_p,
        "window_ends": config.window_ends,
        "window_minutes": config.window_minutes,
    }))


def write_graph_artifacts(graphs: Sequence[LeadLagGraph], run_dir: str | Path, config: RunConfig) -> None:
    """Replace the run's ``graphs/`` and its index ``graphs.json`` with these graphs, the index last.

    The index also records the settings of ``config`` that built the graphs.
    The old index goes first and the new one is renamed into place once every
    edge list it lists is whole, so a graph stage that crashes leaves none.
    """
    run_dir = Path(run_dir)
    (run_dir / GRAPH_INDEX).unlink(missing_ok=True)
    if (run_dir / "graphs").exists():
        shutil.rmtree(run_dir / "graphs")
    for g in graphs:
        leadlag.write_graph(g, _edge_list_path(run_dir, g.spec, g.window_end))
    entries = [{"spec": asdict(g.spec), **{key: getattr(g, key) for key in _INDEX_FIELDS}} for g in graphs]
    index = {"assets": list(graphs[0].assets), "config": _graph_config(config), "graphs": entries}
    text = json.dumps(index, indent=2, sort_keys=True)
    partial = run_dir / f"{GRAPH_INDEX}.partial"
    partial.write_text(text + "\n", encoding="utf-8")
    os.replace(partial, run_dir / GRAPH_INDEX)


def load_graph_artifacts(run_dir: str | Path, config: RunConfig) -> list[LeadLagGraph]:
    """The graphs that the run's ``graphs.json`` lists, each read from its edge list; nothing else.

    ``FileNotFoundError`` when no graph stage has finished, or when the index's
    specs are not ``config.specs`` or it records another value of a setting
    the graphs depend on; ``ValueError`` naming ``graphs.json`` when it is malformed.
    """
    index_path = Path(run_dir) / GRAPH_INDEX
    if not index_path.exists():
        raise FileNotFoundError(f"graph index not found: {index_path} (run 'graphs' first)")
    try:
        index = json.loads(index_path.read_text(encoding="utf-8"))
        assets = tuple(index["assets"])
        recorded = dict(index.get("config", {}))  # an index without the record predates it: stale, not malformed
        entries = [(LagSpec(**e["spec"]), *(kind(e[key]) for key, kind in _INDEX_FIELDS.items())) for e in index["graphs"]]
    except KeyError as exc:
        raise ValueError(f"{GRAPH_INDEX}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # malformed JSON, or a value of the wrong kind
        raise ValueError(f"{GRAPH_INDEX}: {exc}") from exc
    listed = {entry[0] for entry in entries}
    if listed != set(config.specs):
        names = lambda group: sorted(s.tag if s.window_rows is None else f"{s.tag}/{s.window_rows}rows" for s in group)
        raise FileNotFoundError(
            f"{GRAPH_INDEX} holds graphs of specs {names(listed)}, the config asks for {names(config.specs)} (run 'graphs' first)"
        )
    for key, wanted in _graph_config(config).items():
        if recorded.get(key) != wanted:
            raise FileNotFoundError(
                f"{GRAPH_INDEX} holds graphs built with {key} {json.dumps(recorded.get(key))}, "
                f"the config asks for {json.dumps(wanted)} (run 'graphs' first)"
            )
    graphs = []
    for spec, end, links, sample_size, threshold in entries:
        weights = leadlag.load_edge_list(_edge_list_path(index_path.parent, spec, end), assets)
        graphs.append(LeadLagGraph(spec, end, assets, weights, leadlag.binarize(weights), links, sample_size, threshold))
    return graphs


def _write_grid_csv(
    path: str | Path, universe: Sequence[str], window_ends: Sequence[int], values: np.ndarray, columns: list[str]
) -> None:
    """``asset,window_end,<columns>`` rows of a (dates, assets, columns) grid, date by date in universe order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["asset", "window_end", *columns])
        for end, block in zip(window_ends, values.tolist()):
            writer.writerows([asset, end, *map(_fmt, row)] for asset, row in zip(universe, block))


def write_embeddings_csv(frame: EmbeddingFrame, path: str | Path) -> None:
    columns = [f"z{i}" for i in range(frame.embedding_dim)]
    _write_grid_csv(path, frame.universe, frame.window_ends, frame.vectors, columns)


def load_embeddings_csv(path: str | Path) -> EmbeddingFrame:
    """The frame of an ``embeddings.csv``: a complete date-major grid, or ``ValueError`` naming the first bad row.

    The universe is the assets of the first date's rows, in file order; every
    later date lists the same assets in the same order, and the dates
    strictly increase.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:2] != ["asset", "window_end"]:
            raise ValueError(f"{path.name}: expected header 'asset,window_end,z0,...'")
        keys: list[tuple[int, str, int]] = []
        rows: list[list[float]] = []
        for number, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path.name}: row {number}: {len(row)} fields, the header has {len(header)}")
            try:
                keys.append((number, row[0], int(row[1])))
                rows.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise ValueError(f"{path.name}: row {number}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path.name}: no embedding rows")
    universe: list[str] = []
    for _, asset, end in keys:
        if end != keys[0][2] or asset in universe:
            break
        universe.append(asset)
    ends: list[int] = []
    for i, (number, asset, end) in enumerate(keys):
        a = i % len(universe)
        if a == 0 and ends and end <= ends[-1]:
            raise ValueError(f"{path.name}: row {number}: expected a date after {ends[-1]}, got {asset!r} at {end}")
        if a == 0:
            ends.append(end)
        if (asset, end) != (universe[a], ends[-1]):
            raise ValueError(
                f"{path.name}: row {number}: expected asset {universe[a]!r} at window end {ends[-1]}, "
                f"got {asset!r} at {end}"
            )
    missing = len(keys) % len(universe)
    if missing:
        raise ValueError(
            f"{path.name}: row {keys[-1][0] + 1}: missing asset {universe[missing]!r} at window end {ends[-1]}"
        )
    return EmbeddingFrame(universe, ends, np.reshape(rows, (len(ends), len(universe), -1)))


def _overwrite(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` in place: no ``O_TRUNC``, the file is cut to length after the write.

    On ext4 (with the default ``auto_da_alloc``) a close after truncating a
    file to zero waits for its data to reach the disk, which made every re-run
    of a 19,900-file postprocess block once per file.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_similarity_csv(frame: EmbeddingFrame, pairs: Sequence[tuple[str, str]], directory: str | Path) -> None:
    """Write ``<A>_<B>.csv`` for each pair and delete every other ``*.csv`` in ``directory``.

    Each file holds the pair's ``window_end,cosine`` row at every window end,
    formatted straight from the ``similarity_series`` array. Files of an
    earlier run are overwritten in place rather than removed and created
    anew, which is the slower of the two on ext4.
    """
    by_date = similarity_series(frame, pairs).T.tolist()
    # rows as csv.writer writes them: CRLF, a repr float, an empty field for an undefined (NaN) cosine
    lines = [[f"{end},{'' if v != v else _fmt(v)}\r\n" for v in row] for end, row in zip(frame.window_ends, by_date)]
    prefix = os.path.join(os.fspath(directory), "")
    os.makedirs(prefix, exist_ok=True)
    names = [f"{a}_{b}.csv" for a, b in pairs]
    for name, pair_lines in zip(names, zip(*lines)):
        _overwrite(prefix + name, "".join(["window_end,cosine\r\n", *pair_lines]).encode())
    for name in set(os.listdir(prefix)).difference(names):
        if name.endswith(".csv"):
            os.unlink(prefix + name)


def write_pca_csv(projection: PcaProjection, path: str | Path) -> None:
    columns = [f"pc{i + 1}" for i in range(projection.coordinates.shape[2])]
    _write_grid_csv(path, projection.universe, projection.window_ends, projection.coordinates, columns)
