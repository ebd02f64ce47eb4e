"""Spans around the program's layer boundaries, recorded from outside the program.

``Tracer.install`` replaces module attributes of ``leadlag_fuse`` with timing
wrappers, always under the name through which the program calls the function
(``leadlag.lagged_mi_matrix`` is looked up in the ``leadlag`` module, so that
is where it is wrapped). ``uninstall`` puts the originals back, so traced and
untraced passes can alternate in one process.

A span is (pass, id, parent, name, start, end, thread, info). Spans are kept
in memory and written out once, at the end of the run. Each thread keeps its
own stack of open spans; a span opened on a worker thread of the graph
stage's thread pool takes the innermost open span of the main thread as its
parent, which is ``pipeline.build_graphs``.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    pass_id: int
    span_id: int
    parent: int  # 0 for a span opened with no open span above it
    name: str
    start: float
    end: float
    thread: int
    info: Any

    @property
    def duration(self) -> float:
        return self.end - self.start


def _cells_of_prices(args, kwargs, panel) -> int:
    return 2 * panel.prices.size  # timestamp and price per row of each asset file


def _cells_of_panel(args, kwargs, panel) -> int:
    return panel.prices.size + panel.timestamps.size  # the panel CSV has one timestamp column


def _mi_cells(args, kwargs, result) -> int:
    return int(result.size)


def _threshold_key(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    return (cfg.states_x, cfg.states_y, cfg.sample_size, cfg.uncorrected_p, cfg.num_tests)


def _train_epochs(args, kwargs, report):
    return (report.stop_epoch, report.best_epoch)


def _wrap_plan(program) -> list[tuple[object, str, str, Callable | None]]:
    """(owner, attribute, span name, info) for every wrapped call site."""
    cli, pipeline, leadlag, fusion = program.cli, program.pipeline, program.leadlag, program.fusion
    return [
        (cli, "stage_ingest", "cli.stage_ingest", None),
        (cli, "stage_graphs", "cli.stage_graphs", None),
        (cli, "stage_fuse", "cli.stage_fuse", None),
        (cli, "stage_postprocess", "cli.stage_postprocess", None),
        (cli, "load_prices", "market_data.load_prices", _cells_of_prices),
        (cli, "write_panel_csv", "market_data.write_panel_csv", None),
        (cli, "load_panel_csv", "market_data.load_panel_csv", _cells_of_panel),
        (pipeline, "build_graphs", "pipeline.build_graphs", None),
        (leadlag, "build_graph", "leadlag.build_graph", None),
        (leadlag, "lagged_mi_matrix", "leadlag.lagged_mi_matrix", _mi_cells),
        (leadlag, "discretize_equal_frequency", "infotheory.discretize", None),
        (leadlag, "significance_threshold", "infotheory.significance_threshold", _threshold_key),
        (pipeline, "node_features", "diffusion.node_features", None),
        (fusion, "train", "fusion.train", _train_epochs),
        (fusion.FusionModel, "loss_and_gradients", "fusion.loss_and_gradients", None),
        (fusion.FusionModel, "reconstruction_loss", "fusion.validation_loss", None),
        (fusion, "forward", "neural.forward", None),
        (fusion, "backward", "neural.backward", None),
        (fusion, "adam_step", "neural.adam_step", None),
        (fusion, "extract_embeddings", "fusion.extract_embeddings", None),
        (fusion, "save_model", "fusion.save_model", None),
        (pipeline, "write_graph_artifacts", "pipeline.write_graph_artifacts", None),
        (pipeline, "load_graph_artifacts", "pipeline.load_graph_artifacts", None),
        (pipeline, "write_embeddings_csv", "pipeline.write_embeddings_csv", None),
        (pipeline, "load_embeddings_csv", "pipeline.load_embeddings_csv", None),
        (pipeline, "similarity_series", "pipeline.similarity_series", None),
        (pipeline, "write_similarity_csv", "pipeline.write_similarity_csv", None),
        (pipeline, "pca_project", "pipeline.pca_project", None),
        (pipeline, "write_pca_csv", "pipeline.write_pca_csv", None),
    ]


class Tracer:
    def __init__(self, program) -> None:
        self.program = program
        self.spans: list[Span] = []
        self.pass_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original: Callable, name: str, info: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            outer = stack if stack else tracer._main_stack
            parent = outer[-1] if outer else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            result = detail = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if info is not None and result is not None:
                    detail = info(args, kwargs, result)
                tracer.spans.append(
                    Span(tracer.pass_id, span_id, parent, name, start, end, threading.get_ident(), detail)
                )
            return result

        return traced

    def install(self, pass_id: int) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        self.pass_id = pass_id
        for owner, attr, name, info in _wrap_plan(self.program):
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, info))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def write(self, path: Path) -> None:
        """All spans as CSV; times are seconds on the process's perf_counter clock."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pass,span,parent,name,start,end,thread\n")
            for s in self.spans:
                fh.write(f"{s.pass_id},{s.span_id},{s.parent},{s.name},{s.start!r},{s.end!r},{s.thread}\n")


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def high_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and that percentile.

    With fewer than 20 samples no percentile above the median has ten samples
    beyond it, and the maximum is reported instead (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    q = 1.0 - 10.0 / n
    return ordered[int(q * n) - 1], round(100.0 * q, 2)


def pass_layer_metrics(spans: list[Span], threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def self_time(name: str) -> float:
        return sum(
            s.duration - covered([(c.start, c.end) for c in children.get(s.span_id, ())], s.start, s.end)
            for s in by_name.get(name, ())
        )

    m: dict[str, float] = {}
    for stage in ("ingest", "graphs", "fuse", "postprocess"):
        m[f"cli.stage_{stage}_s"] = total(f"cli.stage_{stage}")
        m[f"cli.stage_{stage}_self_s"] = self_time(f"cli.stage_{stage}")

    m["market_data.load_prices_s"] = total("market_data.load_prices")
    m["market_data.write_panel_csv_s"] = total("market_data.write_panel_csv")
    m["market_data.load_panel_csv_s"] = total("market_data.load_panel_csv")
    m["market_data.cells_parsed"] = sum(
        s.info or 0 for name in ("market_data.load_prices", "market_data.load_panel_csv") for s in by_name.get(name, ())
    )

    stage_wall = total("pipeline.build_graphs")
    graph_ms = [1000.0 * s.duration for s in by_name.get("leadlag.build_graph", ())]
    m["pipeline.build_graphs_s"] = stage_wall
    m["pipeline.build_graphs_parallel_efficiency"] = (
        sum(graph_ms) / 1000.0 / (threads * stage_wall) if stage_wall > 0 else 0.0
    )
    m["leadlag.build_graph_calls"] = len(graph_ms)
    m["leadlag.build_graph_ms"] = statistics.median(graph_ms) if graph_ms else 0.0
    m["leadlag.build_graph_ms_high"] = high_percentile(graph_ms)[0] if graph_ms else 0.0
    m["leadlag.lagged_mi_matrix_s"] = total("leadlag.lagged_mi_matrix")
    m["leadlag.lagged_mi_matrix_self_s"] = self_time("leadlag.lagged_mi_matrix")
    m["leadlag.mi_cells"] = sum(s.info or 0 for s in by_name.get("leadlag.lagged_mi_matrix", ()))
    m["infotheory.discretize_calls"] = calls("infotheory.discretize")
    m["infotheory.discretize_s"] = total("infotheory.discretize")
    thresholds = by_name.get("infotheory.significance_threshold", ())
    m["infotheory.significance_threshold_calls"] = len(thresholds)
    m["infotheory.significance_threshold_s"] = total("infotheory.significance_threshold")
    m["infotheory.threshold_distinct_share"] = (
        len({s.info for s in thresholds}) / len(thresholds) if thresholds else 0.0
    )

    m["diffusion.node_features_calls"] = calls("diffusion.node_features")
    m["diffusion.node_features_s"] = total("diffusion.node_features")

    train = by_name.get("fusion.train", ())
    epochs = calls("fusion.loss_and_gradients")
    m["fusion.train_s"] = total("fusion.train")
    m["fusion.epochs"] = epochs
    m["fusion.epoch_ms"] = 1000.0 * m["fusion.train_s"] / epochs if epochs else 0.0
    stop, best = train[-1].info if train and train[-1].info else (0, 0)
    m["fusion.wasted_epoch_share"] = (stop - best) / stop if stop else 0.0
    m["neural.forward_calls"] = calls("neural.forward")
    m["neural.forward_s"] = total("neural.forward")
    m["neural.backward_calls"] = calls("neural.backward")
    m["neural.backward_s"] = total("neural.backward")
    m["neural.adam_step_s"] = total("neural.adam_step")
    m["fusion.validation_loss_s"] = total("fusion.validation_loss")
    m["fusion.extract_embeddings_s"] = total("fusion.extract_embeddings")
    m["fusion.save_model_s"] = total("fusion.save_model")

    m["pipeline.similarity_series_calls"] = calls("pipeline.similarity_series")
    m["pipeline.similarity_series_s"] = total("pipeline.similarity_series")
    m["pipeline.pca_project_s"] = total("pipeline.pca_project")
    for name in (
        "write_similarity_csv",
        "write_graph_artifacts",
        "load_graph_artifacts",
        "write_embeddings_csv",
        "load_embeddings_csv",
        "write_pca_csv",
    ):
        m[f"pipeline.{name}_s"] = total(f"pipeline.{name}")
    m["trace.spans"] = len(spans)
    return m
