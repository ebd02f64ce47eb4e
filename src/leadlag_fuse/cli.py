"""Command-line entry point: staged execution of the lead-lag fusion pipeline.

Subcommands:
    synth        generate a synthetic planted-coupling price universe
    ingest       align raw price CSVs into the cached panel
    graphs       build validated lead-lag graphs for every window and spec
    fuse         train the fusion autoencoder and export embeddings
    postprocess  similarity series and PCA projection from embeddings
    run-all      ingest + graphs + fuse + postprocess in one process

All stages are deterministic given the config and seeds, and idempotent:
re-running a stage with unchanged inputs rewrites identical files.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from types import NoneType, UnionType
from typing import Any, Sequence, get_args, get_origin, get_type_hints

from . import fusion, pipeline
from .market_data import PricePanel, load_panel_csv, load_prices, write_panel_csv
from .pipeline import ConfigError, RunConfig
from .synthetic import SyntheticSpec, generate_synthetic

logger = logging.getLogger(__name__)

OUT_ENV_VAR = "LEADLAG_FUSE_OUT"
CONFIG_SCHEMA_VERSION = 1
_CLI_SECTIONS = ("schema_version", "data", "seeds", "synth")  # config keys that are not RunConfig fields

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_MISSING_INPUT = 4


@dataclass(frozen=True)
class DataSettings:
    """Where the raw price CSVs live (relative to the config file) and their bar length."""

    prices_dir: str = "prices"
    base_period_minutes: int = 1


@dataclass(frozen=True)
class Seeds:
    """The data seed of ``synth`` and the split and init seeds of ``RunConfig``."""

    data: int = 7
    split: int = RunConfig.seed_split
    init: int = RunConfig.seed_init


def _json_tree(obj) -> dict:
    """A dataclass as the JSON-shaped dict a config file holds (tuples become lists)."""
    return json.loads(json.dumps(asdict(obj)))


def default_config() -> dict:
    """Schema and defaults of the run configuration file.

    Every section is a settings dataclass: ``data`` is ``DataSettings``,
    ``seeds`` is ``Seeds``, ``synth`` is ``SyntheticSpec`` and the top level
    is ``RunConfig``, whose two seeds live under ``seeds``.
    """
    run = _json_tree(RunConfig())
    del run["seed_split"], run["seed_init"]
    synth = _json_tree(SyntheticSpec())
    del synth["start_ms"]  # fixed by the generator, not configurable
    return {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "data": _json_tree(DataSettings()),
        **run,
        "seeds": _json_tree(Seeds()),
        "synth": synth,
    }


def _merge_onto_defaults(user: dict, defaults: dict, path: str = "") -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown key in config: {here}")
        if isinstance(defaults[key], dict) and isinstance(value, dict):
            merged[key] = _merge_onto_defaults(value, defaults[key], here)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def load_config(path: str | Path) -> dict:
    """Parse, validate against the schema, and fill defaults."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    version = user.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version {version}; expected {CONFIG_SCHEMA_VERSION}")
    return _merge_onto_defaults(user, default_config())


def apply_overrides(config: dict, assignments: Sequence[str]) -> dict:
    """Apply repeatable ``--set a.b=v`` assignments, each merged like ``{"a": {"b": v}}`` in a config file."""
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
        config = _merge_onto_defaults(value, config)
    return config


def _from_tree(kind: Any, value: Any, path: str) -> Any:
    """A config subtree as a value of the annotated type ``kind``; ``path`` names it in errors.

    Dataclasses take their fields by name, ``X | None`` lets ``None`` through and
    ``str | tuple[...]`` a string, tuples convert element by element, and scalars
    go through ``int``, ``float`` or ``str`` (which refuses a list or an object).
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
        return kind(**built)
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
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{path} must be a whole number, got {value!r}")
    if kind is str and isinstance(value, (dict, list)):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def build_run_config(config: dict) -> RunConfig:
    """The config tree as a validated RunConfig; ``seeds.split`` and ``seeds.init`` seed it."""
    tree = {key: value for key, value in config.items() if key not in _CLI_SECTIONS}
    try:
        seeds = _from_tree(Seeds, config["seeds"], "seeds")
        return _from_tree(RunConfig, {**tree, "seed_split": seeds.split, "seed_init": seeds.init}, "")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid configuration: {exc}") from exc


def build_synth_spec(config: dict) -> SyntheticSpec:
    try:
        return _from_tree(SyntheticSpec, config["synth"], "synth")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid synth configuration: {exc}") from exc


# --- report -------------------------------------------------------------------


def _update_report(out_dir: Path, section: str, payload: dict, config: dict) -> None:
    report_path = out_dir / "report.json"
    if report_path.exists():
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    else:
        report = {"schema_version": CONFIG_SCHEMA_VERSION}
    report["effective_config"] = config
    report["seeds"] = config["seeds"]
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


def stage_synth(out_dir: Path, config: dict, config_dir: Path) -> list[Path]:
    spec = build_synth_spec(config)
    seed = _from_tree(Seeds, config["seeds"], "seeds").data
    prices_dir = _prices_dir(_from_tree(DataSettings, config["data"], "data"), config_dir)
    paths = generate_synthetic(spec, seed=seed, out_dir=prices_dir)
    logger.info("wrote %d synthetic price files to %s", len(paths), prices_dir)
    _update_report(out_dir, "synth", {"assets": spec.n_assets, "days": spec.days, "dir": str(prices_dir)}, config)
    return paths


def stage_ingest(out_dir: Path, config: dict, config_dir: Path) -> PricePanel:
    data = _from_tree(DataSettings, config["data"], "data")
    prices_dir = _prices_dir(data, config_dir)
    if not prices_dir.is_dir():
        raise FileNotFoundError(f"prices directory not found: {prices_dir} (run 'synth' or point data.prices_dir at your data)")
    files = sorted(prices_dir.glob("*.csv"))
    if not files:
        raise FileNotFoundError(f"no price CSV files in {prices_dir}")
    run_config = build_run_config(config)
    base = data.base_period_minutes
    longest = max(
        run_config.window_rows(spec) * (spec.period_minutes // base) for spec in run_config.specs
    )
    panel = load_prices(files, base_period_minutes=base, min_rows=longest + 1)
    write_panel_csv(panel, out_dir / "panel.csv")
    logger.info("ingested %d assets x %d rows", panel.n_assets, panel.timestamps.size)
    _update_report(
        out_dir,
        "ingest",
        {"assets": list(panel.assets), "rows": int(panel.timestamps.size), "base_period_minutes": base},
        config,
    )
    return panel


def stage_graphs(out_dir: Path, config: dict, panel: PricePanel | None = None, threads: int = 1):
    if panel is None:
        panel_path = out_dir / "panel.csv"
        if not panel_path.exists():
            raise FileNotFoundError(f"panel cache not found: {panel_path} (run 'ingest' first)")
        panel = load_panel_csv(panel_path)
    run_config = build_run_config(config)
    graphs, usable_ends, skips, flags = pipeline.build_graphs(run_config, panel, threads=threads)
    pipeline.write_graph_artifacts(graphs, out_dir / "graphs")
    payload = {
        "usable_window_ends": usable_ends,
        "skips": skips,
        "flags": flags,
        "link_counts": pipeline.link_count_summary(graphs),
    }
    _update_report(out_dir, "graphs", payload, config)
    logger.info("built %d graphs over %d dates", len(graphs), len(usable_ends))
    return graphs, usable_ends


def stage_fuse(out_dir: Path, config: dict, graphs=None, usable_ends=None):
    run_config = build_run_config(config)
    if graphs is None:
        graphs = pipeline.load_graph_artifacts(out_dir / "graphs")
        usable_ends = sorted({g.window_end for g in graphs})
    model, report, frame = pipeline.fit(run_config, graphs, usable_ends)
    pipeline.write_embeddings_csv(frame, out_dir / "embeddings.csv")
    fusion.save_model(model, out_dir / "model.json")
    payload = {**asdict(report), "embedding_count": len(frame), "embedding_dim": frame.embedding_dim}
    _update_report(out_dir, "training", payload, config)
    logger.info("trained fusion model on %d samples; %d embeddings", report.config["n_samples"], len(frame))
    return frame


def stage_postprocess(out_dir: Path, config: dict, frame=None):
    run_config = build_run_config(config)
    if frame is None:
        embeddings_path = out_dir / "embeddings.csv"
        if not embeddings_path.exists():
            raise FileNotFoundError(f"embeddings not found: {embeddings_path} (run 'fuse' first)")
        frame = pipeline.load_embeddings_csv(embeddings_path)
    if run_config.similarity_pairs == "all":
        universe = frame.universe
        pairs = [(a, b) for i, a in enumerate(universe) for b in universe[i + 1 :]]
    else:
        pairs = list(run_config.similarity_pairs)
    pipeline.write_similarity_dir(frame, pairs, out_dir / "similarity")
    projection = pipeline.pca_project(frame, run_config.pca_components)
    pipeline.write_pca_csv(projection, out_dir / "pca.csv")
    payload = {
        "similarity_pairs": len(pairs),
        "pca_components": int(projection.coordinates.shape[1]),
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
    parser.add_argument("--threads", type=int, default=1, help="worker threads for graph construction")
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
    config = load_config(args.config)
    config = apply_overrides(config, args.overrides)
    config_dir = Path(args.config).resolve().parent

    if args.command == "synth":
        stage_synth(out_dir, config, config_dir)
    elif args.command == "ingest":
        stage_ingest(out_dir, config, config_dir)
    elif args.command == "graphs":
        stage_graphs(out_dir, config, threads=args.threads)
    elif args.command == "fuse":
        stage_fuse(out_dir, config)
    elif args.command == "postprocess":
        stage_postprocess(out_dir, config)
    elif args.command == "run-all":
        panel = stage_ingest(out_dir, config, config_dir)
        graphs, usable_ends = stage_graphs(out_dir, config, panel=panel, threads=args.threads)
        frame = stage_fuse(out_dir, config, graphs=graphs, usable_ends=usable_ends)
        stage_postprocess(out_dir, config, frame=frame)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch the requested stage, map failures to exit codes."""
    parser = build_parser()
    args = parser.parse_args(argv)
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
