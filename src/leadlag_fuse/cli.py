"""Command-line entry point: staged execution of the lead-lag fusion pipeline.

Subcommands:
    synth        generate a synthetic planted-coupling price universe
    ingest       align raw price CSVs into the cached panel (panel.npy, panel.json)
                 and its CSV export panel.csv
    graphs       build validated lead-lag graphs for every window and spec from
                 the cached panel
    fuse         train the fusion autoencoder and export embeddings
    postprocess  similarity series and PCA projection from embeddings
    run-all      ingest, graphs, fuse and postprocess in turn, in one process

Every command first parses the whole config file, ``--set`` overrides
included, into one checked ``RunConfig`` (``load_config``), so a bad value
anywhere in the file stops any command with exit code 3 before it writes
anything. The stages take that ``RunConfig`` and never re-read the file.

Each stage reads its inputs from the run directory (``graphs`` the panel
cache, ``fuse`` the graph index ``graphs.json``, ``postprocess``
``embeddings.csv``), and ``run-all`` runs the four staged commands in turn,
so it writes the files the staged commands write. All stages are
deterministic given the config and seeds, and idempotent: re-running a stage
with unchanged inputs rewrites identical files.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, is_dataclass
from pathlib import Path
from types import NoneType, UnionType
from typing import Any, Sequence, get_args, get_origin, get_type_hints

from . import fusion, pipeline
from .market_data import PANEL_INDEX, load_panel, load_prices, write_panel, write_panel_csv

# No stage reads panel.csv back; the benchmark's tracer wraps ``cli.load_panel_csv`` by name,
# so the name stays here until the benchmark no longer expects the CSV panel.
from .market_data import load_panel_csv  # noqa: F401
from .pipeline import ConfigError, DataSettings, RunConfig
from .synthetic import generate_synthetic

logger = logging.getLogger(__name__)

OUT_ENV_VAR = "LEADLAG_FUSE_OUT"
CONFIG_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_MISSING_INPUT = 4

# run-all is these commands in turn; each reads its inputs back from the run directory
RUN_ALL = ("ingest", "graphs", "fuse", "postprocess")


def _json_tree(obj) -> dict:
    """A dataclass as the JSON-shaped dict a config file holds (tuples become lists)."""
    return json.loads(json.dumps(asdict(obj)))


def _config_tree(config: RunConfig) -> dict:
    return {"schema_version": CONFIG_SCHEMA_VERSION, **_json_tree(config)}


def default_config() -> dict:
    """Every key of the run configuration file with its default: ``RunConfig()`` as JSON.

    The file maps 1:1 onto ``RunConfig``: top-level keys are its fields, and
    the ``data``, ``seeds``, ``synth``, ``rwr``, ``model`` and ``training``
    sections are its nested settings dataclasses.
    """
    return _config_tree(RunConfig())


def _merge(tree: dict, patch: dict) -> None:
    """Merge ``patch`` into ``tree`` in place: objects merge key by key, anything else replaces."""
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(tree.get(key), dict):
            _merge(tree[key], value)
        else:
            tree[key] = value


def load_config(path: str | Path, assignments: Sequence[str] = ()) -> RunConfig:
    """The config file, with each ``--set a.b=v`` assignment merged in, as a checked ``RunConfig``.

    An assignment merges like a file holding ``{"a": {"b": v}}``; ``v`` is read
    as JSON, else as a string. Omitted keys take their defaults; an unknown
    key, a value of the wrong type or a failed check raises ``ConfigError``
    naming the key or section at fault.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            tree = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(tree, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"override {assignment!r} is not of the form key=value")
        key, raw = assignment.split("=", 1)
        try:
            value: Any = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for part in reversed(key.split(".")):
            value = {part: value}
        _merge(tree, value)
    version = tree.pop("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version {version}; expected {CONFIG_SCHEMA_VERSION}")
    return _from_tree(RunConfig, tree, "")


def _from_tree(kind: Any, value: Any, path: str) -> Any:
    """A config subtree as a value of the annotated type ``kind``; ``path`` names it in errors.

    Dataclasses take their fields by name, ``X | None`` lets ``None`` through and
    ``str | tuple[...]`` a string, tuples convert element by element, and scalars
    go through ``int``, ``float`` or ``str`` (which refuses a list or an object);
    a number key refuses ``true`` and ``false``, which ``int`` would take as 1 and 0,
    and a string key refuses them too, which ``str`` would take as ``'True'``.
    A settings dataclass that refuses its values is named by its path
    (``specs.1: lag must be nonnegative, got -1``).
    """
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'config'} must be an object, got {value!r}")
        hints = get_type_hints(kind)
        built = {}
        for key, item in value.items():
            here = f"{path}.{key}" if path else key
            if key not in hints:
                raise ConfigError(f"unknown key in config: {here}")
            built[key] = _from_tree(hints[key], item, here)
        try:
            return kind(**built)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path or 'config'}: {exc}") from exc
    args = get_args(kind)
    if isinstance(kind, UnionType):
        if (value is None and NoneType in args) or (isinstance(value, str) and str in args):
            return value
        (kind,) = [arm for arm in args if arm not in (NoneType, str)]
        return _from_tree(kind, value, path)
    if get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        kinds = [args[0]] * len(value) if args[-1] is Ellipsis else list(args)
        if len(kinds) != len(value):
            raise ConfigError(f"{path} must hold {len(kinds)} entries, got {len(value)}")
        return tuple(_from_tree(k, item, f"{path}.{i}") for i, (k, item) in enumerate(zip(kinds, value)))
    if kind in (int, float) and isinstance(value, bool):
        raise ConfigError(f"{path} must be a number, got {json.dumps(value)}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{path} must be a whole number, got {value!r}")
    if kind is str and isinstance(value, (dict, list, bool)):
        raise ConfigError(f"{path}: expected a string, got {json.dumps(value)}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# --- report -------------------------------------------------------------------


def _update_report(out_dir: Path, section: str, payload: dict, config: RunConfig) -> None:
    report_path = out_dir / "report.json"
    if report_path.exists():
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    else:
        report = {"schema_version": CONFIG_SCHEMA_VERSION}
    report["effective_config"] = _config_tree(config)
    report["seeds"] = _json_tree(config.seeds)
    report[section] = payload
    out_dir.mkdir(parents=True, exist_ok=True)
    # write beside the report, then rename: a crash never leaves a truncated report
    partial = report_path.with_name(report_path.name + ".partial")
    with open(partial, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(partial, report_path)


# --- stages -------------------------------------------------------------------


def _prices_dir(data: DataSettings, config_dir: Path) -> Path:
    raw = Path(data.prices_dir)
    return raw if raw.is_absolute() else config_dir / raw


def stage_synth(out_dir: Path, config: RunConfig, config_dir: Path) -> None:
    spec = config.synth
    prices_dir = _prices_dir(config.data, config_dir)
    paths = generate_synthetic(spec, seed=config.seeds.data, out_dir=prices_dir)
    logger.info("wrote %d synthetic price files to %s", len(paths), prices_dir)
    _update_report(out_dir, "synth", {"assets": spec.n_assets, "days": spec.days, "dir": str(prices_dir)}, config)


def stage_ingest(out_dir: Path, config: RunConfig, config_dir: Path) -> None:
    """Align the price files and cache the panel: ``panel.csv``, then ``panel.npy``, then the index ``panel.json``.

    The old index goes before anything is written, so an ingest that fails
    leaves no panel for ``graphs`` to read.
    """
    (out_dir / PANEL_INDEX).unlink(missing_ok=True)
    prices_dir = _prices_dir(config.data, config_dir)
    if not prices_dir.is_dir():
        raise FileNotFoundError(f"prices directory not found: {prices_dir} (run 'synth' or point data.prices_dir at your data)")
    files = sorted(prices_dir.glob("*.csv"))
    if not files:
        raise FileNotFoundError(f"no price CSV files in {prices_dir}")
    base = config.data.base_period_minutes
    longest = max(config.window_rows(spec) * (spec.period_minutes // base) for spec in config.specs)
    panel = load_prices(files, base_period_minutes=base, min_rows=longest + 1)
    write_panel_csv(panel, out_dir / "panel.csv")
    write_panel(panel, out_dir)
    logger.info("ingested %d assets x %d rows", panel.n_assets, panel.timestamps.size)
    _update_report(
        out_dir,
        "ingest",
        {"assets": list(panel.assets), "rows": int(panel.timestamps.size), "base_period_minutes": base},
        config,
    )


def stage_graphs(out_dir: Path, config: RunConfig, threads: int = 1) -> None:
    graphs, usable_ends, skips, flags = pipeline.build_graphs(config, load_panel(out_dir), threads=threads)
    pipeline.write_graph_artifacts(graphs, out_dir, config)
    payload = {
        "usable_window_ends": usable_ends,
        "skips": skips,
        "flags": flags,
        "link_counts": pipeline.link_count_summary(graphs),
    }
    _update_report(out_dir, "graphs", payload, config)
    logger.info("built %d graphs over %d dates", len(graphs), len(usable_ends))


def stage_fuse(out_dir: Path, config: RunConfig) -> None:
    model, report, frame = pipeline.fit(config, pipeline.load_graph_artifacts(out_dir, config))
    pipeline.write_embeddings_csv(frame, out_dir / "embeddings.csv")
    fusion.save_model(model, out_dir / "model.json")
    count = len(frame.window_ends) * len(frame.universe)
    payload = {**asdict(report), "embedding_count": count, "embedding_dim": frame.embedding_dim}
    _update_report(out_dir, "training", payload, config)
    logger.info("trained fusion model on %d samples; %d embeddings", report.config["n_samples"], count)


def stage_postprocess(out_dir: Path, config: RunConfig) -> None:
    embeddings_path = out_dir / "embeddings.csv"
    if not embeddings_path.exists():
        raise FileNotFoundError(f"embeddings not found: {embeddings_path} (run 'fuse' first)")
    frame = pipeline.load_embeddings_csv(embeddings_path)
    if config.similarity_pairs == "all":
        universe = frame.universe
        pairs = [(a, b) for i, a in enumerate(universe) for b in universe[i + 1 :]]
    else:
        pairs = list(config.similarity_pairs)
    pipeline.write_similarity_csv(frame, pairs, out_dir / "similarity")
    projection = pipeline.pca_project(frame, config.pca_components)
    pipeline.write_pca_csv(projection, out_dir / "pca.csv")
    payload = {
        "similarity_pairs": len(pairs),
        "pca_components": int(projection.coordinates.shape[2]),
        "pca_explained_variance": [float(v) for v in projection.explained_variance],
    }
    _update_report(out_dir, "postprocess", payload, config)
    logger.info("wrote %d similarity series and the PCA projection", len(pairs))


# --- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leadlag-fuse",
        description="Lead-lag dependency graphs from asset returns, fused into dynamic embeddings.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help=f"output directory (default: ${OUT_ENV_VAR} or ./out)")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (dotted path, JSON value); repeatable",
    )
    parser.add_argument("--threads", type=int, default=1, help="worker threads for graph construction (at least 1)")
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument("--quiet", action="store_true", help="warnings and errors only")
    verbosity.add_argument("--verbose", action="store_true", help="debug logging")
    parser.add_argument(
        "command",
        choices=["synth", "ingest", "graphs", "fuse", "postprocess", "run-all"],
        help="pipeline stage to execute",
    )
    return parser


def _resolve_out(args: argparse.Namespace) -> Path:
    out = args.out or os.environ.get(OUT_ENV_VAR) or "out"
    return Path(out)


def _dispatch(args: argparse.Namespace) -> int:
    out_dir = _resolve_out(args)
    config = load_config(args.config, args.overrides)
    config_dir = Path(args.config).resolve().parent

    for command in RUN_ALL if args.command == "run-all" else (args.command,):
        if command == "synth":
            stage_synth(out_dir, config, config_dir)
        elif command == "ingest":
            stage_ingest(out_dir, config, config_dir)
        elif command == "graphs":
            stage_graphs(out_dir, config, threads=args.threads)
        elif command == "fuse":
            stage_fuse(out_dir, config)
        elif command == "postprocess":
            stage_postprocess(out_dir, config)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch the requested stage, map failures to exit codes."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"argument --threads: must be at least 1, got {args.threads}")
    level = logging.WARNING if args.quiet else (logging.DEBUG if args.verbose else logging.INFO)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except Exception as exc:  # noqa: BLE001 - single-line diagnostic per contract
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
