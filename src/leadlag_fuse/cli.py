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
from dataclasses import asdict
from pathlib import Path
from typing import Any, Sequence

from . import fusion, pipeline
from .diffusion import RwrConfig
from .fusion import TrainingSettings
from .leadlag import LagSpec
from .market_data import PricePanel, load_panel_csv, load_prices, write_panel_csv
from .pipeline import ConfigError, ModelSettings, RunConfig
from .synthetic import PlantedCoupling, SyntheticSpec, generate_synthetic

logger = logging.getLogger(__name__)

OUT_ENV_VAR = "LEADLAG_FUSE_OUT"
CONFIG_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_MISSING_INPUT = 4


def _json_tree(obj) -> dict:
    """A dataclass as the JSON-shaped dict a config file holds (tuples become lists)."""
    return json.loads(json.dumps(asdict(obj)))


def default_config() -> dict:
    """Schema and defaults of the run configuration file.

    Run and synth defaults are those of ``RunConfig`` and ``SyntheticSpec``;
    only the data location, the base period and the data seed belong to the
    CLI alone.
    """
    run = _json_tree(RunConfig())
    seeds = {"data": 7, "split": run.pop("seed_split"), "init": run.pop("seed_init")}
    synth = _json_tree(SyntheticSpec())
    del synth["start_ms"]  # fixed by the generator, not configurable
    return {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "data": {"prices_dir": "prices", "base_period_minutes": 1},
        **run,
        "seeds": seeds,
        "synth": synth,
    }


def _merge_onto_defaults(user: dict, defaults: dict, path: str = "") -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {here}")
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
    """Apply repeatable ``--set key=value`` assignments; keys are dotted paths."""
    config = copy.deepcopy(config)
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"override {assignment!r} is not of the form key=value")
        key, raw = assignment.split("=", 1)
        try:
            value: Any = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"override references unknown key: {key}")
            node = node[part]
        if not isinstance(node, dict) or parts[-1] not in node:
            raise ConfigError(f"override references unknown key: {key}")
        node[parts[-1]] = value
    return config


def build_run_config(config: dict) -> RunConfig:
    """Translate the config tree into a validated RunConfig."""
    try:
        specs = tuple(
            LagSpec(
                period_minutes=int(s["period_minutes"]),
                lag=int(s["lag"]),
                window_rows=None if s.get("window_rows") is None else int(s["window_rows"]),
            )
            for s in config["specs"]
        )
        window_ends = config["window_ends"]
        if not isinstance(window_ends, str):
            window_ends = tuple(int(t) for t in window_ends)
        similarity_pairs = config["similarity_pairs"]
        if not isinstance(similarity_pairs, str):
            similarity_pairs = tuple((str(a), str(b)) for a, b in similarity_pairs)
        return RunConfig(
            specs=specs,
            window_minutes=int(config["window_minutes"]),
            window_ends=window_ends,
            states=int(config["states"]),
            uncorrected_p=float(config["uncorrected_p"]),
            rwr=RwrConfig(
                restart_keep=float(config["rwr"]["restart_keep"]),
                steps=int(config["rwr"]["steps"]),
            ),
            model=ModelSettings(
                per_graph_dims=tuple(int(d) for d in config["model"]["per_graph_dims"]),
                shared_dims=tuple(int(d) for d in config["model"]["shared_dims"]),
                embedding_dim=int(config["model"]["embedding_dim"]),
            ),
            training=TrainingSettings(
                max_epochs=int(config["training"]["max_epochs"]),
                learning_rate=float(config["training"]["learning_rate"]),
                patience=None
                if config["training"]["patience"] is None
                else int(config["training"]["patience"]),
                min_delta=float(config["training"]["min_delta"]),
                validation_fraction=float(config["training"]["validation_fraction"]),
            ),
            seed_split=int(config["seeds"]["split"]),
            seed_init=int(config["seeds"]["init"]),
            pca_components=int(config["pca_components"]),
            similarity_pairs=similarity_pairs,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid configuration: {exc}") from exc


def build_synth_spec(config: dict) -> SyntheticSpec:
    synth = config["synth"]
    try:
        return SyntheticSpec(
            n_assets=int(synth["n_assets"]),
            days=int(synth["days"]),
            base_price=float(synth["base_price"]),
            volatility=float(synth["volatility"]),
            asset_prefix=str(synth["asset_prefix"]),
            couplings=tuple(
                PlantedCoupling(
                    leader=str(c["leader"]),
                    follower=str(c["follower"]),
                    lag=int(c["lag"]),
                    coupling=float(c["coupling"]),
                    noise=float(c["noise"]),
                )
                for c in synth["couplings"]
            ),
        )
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
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- stages -------------------------------------------------------------------


def _prices_dir(config: dict, config_dir: Path) -> Path:
    raw = Path(config["data"]["prices_dir"])
    return raw if raw.is_absolute() else config_dir / raw


def stage_synth(out_dir: Path, config: dict, config_dir: Path) -> list[Path]:
    spec = build_synth_spec(config)
    prices_dir = _prices_dir(config, config_dir)
    paths = generate_synthetic(spec, seed=int(config["seeds"]["data"]), out_dir=prices_dir)
    logger.info("wrote %d synthetic price files to %s", len(paths), prices_dir)
    _update_report(out_dir, "synth", {"assets": spec.n_assets, "days": spec.days, "dir": str(prices_dir)}, config)
    return paths


def stage_ingest(out_dir: Path, config: dict, config_dir: Path) -> PricePanel:
    prices_dir = _prices_dir(config, config_dir)
    if not prices_dir.is_dir():
        raise FileNotFoundError(f"prices directory not found: {prices_dir} (run 'synth' or point data.prices_dir at your data)")
    files = sorted(prices_dir.glob("*.csv"))
    if not files:
        raise FileNotFoundError(f"no price CSV files in {prices_dir}")
    run_config = build_run_config(config)
    base = int(config["data"]["base_period_minutes"])
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
    payload = {
        "stop_epoch": report.stop_epoch,
        "stop_reason": report.stop_reason,
        "best_epoch": report.best_epoch,
        "best_val_loss": report.best_val_loss,
        "split_seed": report.split_seed,
        "config": report.config,
        "train_losses": report.train_losses,
        "val_losses": report.val_losses,
        "embedding_count": len(frame),
        "embedding_dim": frame.embedding_dim,
    }
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
    for pair in pairs:
        series = pipeline.similarity_series(frame, pair)
        pipeline.write_similarity_csv(series, out_dir / "similarity" / f"{pair[0]}_{pair[1]}.csv")
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
    parser.add_argument("--seed-data", type=int, default=None, help="override seeds.data")
    parser.add_argument("--seed-split", type=int, default=None, help="override seeds.split")
    parser.add_argument("--seed-init", type=int, default=None, help="override seeds.init")
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
    for flag, key in (("seed_data", "data"), ("seed_split", "split"), ("seed_init", "init")):
        value = getattr(args, flag)
        if value is not None:
            config["seeds"][key] = value
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
