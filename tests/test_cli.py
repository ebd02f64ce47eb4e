import hashlib
import json
import re
import shutil
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from oracles import similarity_csv_oracle
from leadlag_fuse import cli, fusion, leadlag
from leadlag_fuse.cli import (
    EXIT_CONFIG,
    EXIT_FAILURE,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    default_config,
    load_config,
    main,
)
from leadlag_fuse.diffusion import RwrConfig
from leadlag_fuse.fusion import ModelSettings, TrainingSettings
from leadlag_fuse.leadlag import LagSpec
from leadlag_fuse.market_data import load_panel, load_prices
from leadlag_fuse.pipeline import (
    ConfigError,
    DataSettings,
    RunConfig,
    Seeds,
    build_graphs,
    fit,
    load_embeddings_csv,
    load_graph_artifacts,
    write_similarity_csv,
)
from leadlag_fuse.synthetic import PlantedCoupling, SyntheticSpec, generate_synthetic, synthetic_returns


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A config plus generated prices for a tiny universe the full CLI can chew fast."""
    root = tmp_path_factory.mktemp("cli")
    config = {
        "schema_version": 1,
        "synth": {"n_assets": 4, "days": 3},
        "training": {"max_epochs": 40},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["--config", str(config_path), "--out", str(root / "seedrun"), "--quiet", "synth"]) == EXIT_OK
    return root, config_path


def fields_at_default(obj, default):
    """Names of the fields (nested settings included) where ``obj`` equals ``default``."""
    names = []
    for f in fields(obj):
        value, base = getattr(obj, f.name), getattr(default, f.name)
        if is_dataclass(value):
            names += [f"{f.name}.{name}" for name in fields_at_default(value, base)]
        elif value == base:
            names.append(f.name)
    return names


def parse(tmp_path, assignments=(), tree=None):
    """``load_config`` of a file holding ``tree`` (an empty object by default) with ``assignments``."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({} if tree is None else tree))
    return load_config(path, assignments)


def tree_bytes(base, pattern):
    return {p.relative_to(base).as_posix(): p.read_bytes() for p in sorted(base.glob(pattern)) if p.is_file()}


class TestSyntheticGeneration:
    def test_uncoupled_assets_are_independent(self):
        spec = SyntheticSpec(n_assets=3, days=2, couplings=(PlantedCoupling("A00", "A01", 1, 0.0, 1.0),))
        _, _, returns = synthetic_returns(spec, seed=5)
        lagged_corr = np.corrcoef(returns[:-1, 0], returns[1:, 1])[0, 1]
        assert abs(lagged_corr) < 0.1

    def test_full_coupling_no_noise_copies_exactly(self):
        spec = SyntheticSpec(n_assets=3, days=2, couplings=(PlantedCoupling("A00", "A01", 2, 1.0, 0.0),))
        _, _, returns = synthetic_returns(spec, seed=5)
        assert np.array_equal(returns[2:, 1], returns[:-2, 0])

    def test_deterministic_per_seed(self, tmp_path):
        spec = SyntheticSpec(n_assets=3, days=1)
        generate_synthetic(spec, seed=9, out_dir=tmp_path / "a")
        generate_synthetic(spec, seed=9, out_dir=tmp_path / "b")
        assert tree_bytes(tmp_path / "a", "*.csv") == tree_bytes(tmp_path / "b", "*.csv")

    def test_default_universe_files_are_pinned(self, tmp_path):
        """The price files of ``SyntheticSpec()`` at seed 7 are byte-identical to the pinned digest.

        Same recipe as ``digest_tree`` in ``perfbench/run.py``: files sorted by
        path, each hashed as relative POSIX path, NUL, bytes, NUL. The prices
        come from numpy's generator, ``cumsum`` and ``exp`` (numpy 2.4.6 here).
        """
        generate_synthetic(SyntheticSpec(), seed=7, out_dir=tmp_path)
        digest = hashlib.sha256()
        files = sorted(tmp_path.rglob("*"))
        for path in files:
            digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
        assert [p.name for p in files] == [f"A{i:02d}.csv" for i in range(10)]
        assert sum(p.stat().st_size for p in files) == 14_892_030
        assert digest.hexdigest() == "4db865d1ea448d93e6ac8e9ab0ad4162559baff1743b88c8c75a6166fd589f4e"

    def test_coupling_must_reference_known_assets(self):
        with pytest.raises(ValueError, match="unknown asset"):
            SyntheticSpec(n_assets=2, couplings=(PlantedCoupling("A00", "A09", 1, 0.5, 0.5),))


class TestConfigHandling:
    def test_defaults_filled_for_partial_config(self, workspace):
        _, config_path = workspace
        config = load_config(config_path)
        assert config.window_minutes == 1440
        assert config.synth.n_assets == 4  # user value kept
        assert config.training.max_epochs == 40
        assert config.training.learning_rate == 0.001  # default merged in

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not_a_key": 1}))
        with pytest.raises(ConfigError, match="not_a_key"):
            load_config(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_overrides_parse_json_values(self, tmp_path):
        config = parse(tmp_path, ["training.max_epochs=7", "window_ends=[60000,120000]"])
        assert config.training.max_epochs == 7
        assert config.window_ends == (60000, 120000)

    def test_override_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key in config: rwr.bogus"):
            parse(tmp_path, ["rwr.bogus=1"])

    def test_override_requires_equals(self, tmp_path):
        with pytest.raises(ConfigError, match="key=value"):
            parse(tmp_path, ["training.max_epochs"])

    def test_defaults_match_library_defaults(self, tmp_path):
        assert parse(tmp_path) == RunConfig()
        assert parse(tmp_path, tree=default_config()) == RunConfig()
        assert RunConfig().synth == SyntheticSpec()

    def test_every_field_round_trips_through_the_config_tree(self, tmp_path):
        run = RunConfig(
            specs=(LagSpec(6, 1, window_rows=50), LagSpec(3, 0)),
            window_minutes=60,
            window_ends=(60_000, 120_000),
            states=3,
            uncorrected_p=0.05,
            rwr=RwrConfig(restart_keep=0.9, steps=5),
            model=ModelSettings(per_graph_dims=(12, 6), shared_dims=(8, 4), embedding_dim=5),
            training=TrainingSettings(
                max_epochs=17, learning_rate=0.01, patience=None, min_delta=1e-4, validation_fraction=0.2
            ),
            seeds=Seeds(data=21, split=3, init=4),
            pca_components=3,
            similarity_pairs=(("X00", "X01"), ("X02", "X03")),
            data=DataSettings(prices_dir="elsewhere", base_period_minutes=3),
            synth=SyntheticSpec(
                n_assets=5,
                days=2,
                base_price=50.0,
                volatility=0.002,
                asset_prefix="X",
                couplings=(PlantedCoupling("X00", "X01", 2, 0.5, 0.1), PlantedCoupling("X02", "X03", 0, 0.3, 0.0)),
            ),
        )
        # every field, in every section, is away from its default, so each must travel through the file
        assert fields_at_default(run, RunConfig()) == []
        assert fields_at_default(run.synth, SyntheticSpec()) == []
        assert parse(tmp_path, tree={"schema_version": 1, **cli._json_tree(run)}) == run

    def test_unknown_key_in_spec_entry_rejected(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"specs": [{"period_minutes": 1, "lag": 0, "window_row": 60}]}))
        with pytest.raises(ConfigError, match="unknown key in config: specs.0.window_row"):
            load_config(path)

    def test_unknown_key_in_coupling_entry_rejected(self, tmp_path, capsys):
        coupling = {"leader": "A00", "follower": "A01", "lag": 1, "coupling": 0.8, "noise": 0.5, "nosie": 9}
        config = {"data": {"prices_dir": str(tmp_path / "prices")}, "synth": {"couplings": [coupling]}}
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet", "synth"]) == EXIT_CONFIG
        assert "synth.couplings.0.nosie" in capsys.readouterr().err
        assert not (tmp_path / "prices").exists()

    @pytest.mark.parametrize(
        "assignment, key",
        [
            ("states=4.9", "states"),
            ("training.max_epochs=10.5", "training.max_epochs"),
            ('specs=[{"period_minutes": 1, "lag": 0.5}]', "specs.0.lag"),
            ("synth.days=2.5", "synth.days"),
        ],
    )
    def test_integer_keys_reject_fractions(self, tmp_path, assignment, key):
        with pytest.raises(ConfigError, match=f"^{key} must be a whole number"):
            parse(tmp_path, [assignment])

    @pytest.mark.parametrize("assignment", ["states=4.0", 'states="4"'])
    def test_integer_keys_accept_whole_numbers(self, tmp_path, assignment):
        assert parse(tmp_path, [assignment]).states == 4

    def test_override_of_a_section_merges_onto_its_defaults(self, tmp_path):
        assert parse(tmp_path, ['rwr={"steps": 4}']).rwr == RwrConfig(steps=4)
        # and onto the file's section, key by key
        config = parse(tmp_path, ['rwr={"steps": 4}'], tree={"rwr": {"restart_keep": 0.9}})
        assert config.rwr == RwrConfig(restart_keep=0.9, steps=4)

    @pytest.mark.parametrize(
        "assignment, stage, key",
        [
            ("seeds.data=x", "synth", "seeds.data"),
            ("data.base_period_minutes=x", "ingest", "data.base_period_minutes"),
            ("seeds.split=x", "fuse", "seeds.split"),
            ("data.prices_dir=[1]", "synth", "data.prices_dir"),
        ],
    )
    def test_data_and_seeds_keys_are_typed(self, tmp_path, capsys, assignment, stage, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"synth": {"n_assets": 2, "days": 1}}))
        code = main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet", "--set", assignment, stage])
        assert code == EXIT_CONFIG
        assert f"error: {key}:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "assignment, stage, key",
        [
            ("training.max_epochs=true", "fuse", "training.max_epochs"),
            ("training.learning_rate=true", "fuse", "training.learning_rate"),
            ("training.patience=false", "fuse", "training.patience"),
            ("training.validation_fraction=false", "fuse", "training.validation_fraction"),
            ('specs=[{"period_minutes": true, "lag": 0}]', "fuse", "specs.0.period_minutes"),
            ("synth.days=true", "synth", "synth.days"),
            ("seeds.data=false", "synth", "seeds.data"),
        ],
    )
    def test_number_keys_reject_booleans(self, tmp_path, capsys, assignment, stage, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"synth": {"n_assets": 2, "days": 1}}))
        code = main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet", "--set", assignment, stage])
        assert code == EXIT_CONFIG
        literal = "true" if "true" in assignment else "false"
        assert f"{key} must be a number, got {literal}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("literal", ["true", "false"])
    def test_string_keys_reject_booleans(self, tmp_path, capsys, literal):
        with pytest.raises(ConfigError, match=f"data.prices_dir: expected a string, got {literal}"):
            cli._from_tree(cli.DataSettings, {"prices_dir": literal == "true"}, "data")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"synth": {"n_assets": 2, "days": 1}}))
        code = main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet", "--set", f"data.prices_dir={literal}", "synth"])
        assert code == EXIT_CONFIG
        assert f"error: data.prices_dir: expected a string, got {literal}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_numeric_prices_dir_is_a_directory_name(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"synth": {"n_assets": 2, "days": 1}}))
        assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet", "--set", "data.prices_dir=5", "synth"]) == EXIT_OK
        assert sorted(p.name for p in (tmp_path / "5").iterdir()) == ["A00.csv", "A01.csv"]

    def test_override_into_a_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="specs must be a list"):
            parse(tmp_path, ["specs.0.lag=2"])

    @pytest.mark.parametrize(
        "command, assignment, named",
        [
            ("synth", "states=4.9", "states must be a whole number"),
            ("synth", "training.max_epochs=true", "training.max_epochs must be a number"),
            ("ingest", "synth.days=2.5", "synth.days must be a whole number"),
            (
                "ingest",
                'synth.couplings=[{"leader": "A00", "follower": "A09", "lag": 1, "coupling": 0.5, "noise": 0.5}]',
                "unknown asset 'A09'",
            ),
            ("postprocess", "data.base_period_minutes=true", "data.base_period_minutes must be a number"),
            ("graphs", "seeds.data=x", "seeds.data: "),
            ("fuse", "data.prices_dir=[1]", "data.prices_dir: "),
            ("run-all", "synth.volatility=true", "synth.volatility must be a number"),
            ("run-all", "training.validation_fraction=1.5", "training: validation_fraction must lie in [0, 1)"),
            ("fuse", "training.max_epochs=0", "training: max_epochs must be at least 1"),
            ("run-all", "training.learning_rate=-1", "training: learning_rate must be finite and positive"),
            ("synth", "model.embedding_dim=0", "model: embedding_dim must be positive"),
            ("graphs", "model.per_graph_dims=[]", "model: per_graph_dims must not be empty"),
            ("ingest", "data.base_period_minutes=0", "data: base_period_minutes must be positive, got 0"),
            ("run-all", "data.base_period_minutes=-5", "data: base_period_minutes must be positive, got -5"),
            ("ingest", "data.base_period_minutes=5", "spec d1_T0: period 1 is not a multiple of data.base_period_minutes 5"),
            ("fuse", "data.base_period_minutes=2", "spec d1_T0: period 1 is not a multiple of data.base_period_minutes 2"),
        ],
    )
    def test_every_command_checks_the_whole_file_first(self, tmp_path, capsys, command, assignment, named):
        """A bad value in any section stops every command with exit 3 before it writes anything."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"synth": {"n_assets": 2, "days": 1}}))
        code = main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet", "--set", assignment, command])
        assert code == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "assignment, message",
        [
            ('specs=[{"period_minutes": 1, "lag": 0}, {"period_minutes": 1, "lag": -1}]', "specs.1: lag must be nonnegative, got -1"),
            (
                'synth.couplings=[{"leader": "A00", "follower": "A01", "lag": -2, "coupling": 0.5, "noise": 0.5}]',
                "synth.couplings.0: lag must be nonnegative, got -2",
            ),
            ("rwr.restart_keep=1.5", "rwr: restart_keep must lie in [0, 1), got 1.5"),
            ("model.shared_dims=[30, 0]", "model: layer widths must be positive, got (25, 10) and (30, 0)"),
            ("training.patience=-1", "training: patience must be nonnegative, got -1"),
            ("training.min_delta=-0.1", "training: min_delta must be nonnegative, got -0.1"),
            ("training.learning_rate=NaN", "training: learning_rate must be finite and positive, got nan"),
            # a check that already raises ConfigError keeps its own message: one prefix, never two
            ("states=1", "states must be at least 2, got 1"),
        ],
    )
    def test_refused_settings_name_their_key_path(self, tmp_path, assignment, message):
        with pytest.raises(ConfigError) as excinfo:
            parse(tmp_path, [assignment])
        assert str(excinfo.value) == message

    def test_readme_lists_every_key_with_its_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1]
        block = re.search(r"```jsonc\n(.*?)```", section, re.DOTALL).group(1)
        assert json.loads(re.sub(r"//[^\n]*", "", block)) == default_config()

    def test_report_records_the_parsed_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"synth": {"n_assets": 2, "days": 1}}))
        argv = ["--config", str(path), "--out", str(tmp_path / "out"), "--quiet", "--set", 'states="4"', "synth"]
        assert main(argv) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        expected = default_config()
        expected["states"] = 4
        expected["synth"].update(n_assets=2, days=1)
        assert report["effective_config"] == expected
        assert report["seeds"] == expected["seeds"]


class TestCliDispatch:
    def test_run_all_produces_layout(self, workspace):
        root, config_path = workspace
        out = root / "full"
        assert main(["--config", str(config_path), "--out", str(out), "--quiet", "run-all"]) == EXIT_OK
        assert (out / "panel.csv").exists()
        assert (out / "embeddings.csv").exists()
        assert (out / "model.json").exists()
        assert (out / "pca.csv").exists()
        assert (out / "report.json").exists()
        spec_dirs = sorted(p.name for p in (out / "graphs").iterdir())
        assert spec_dirs == ["d1_T0", "d1_T1", "d1_T2", "d5_T0", "d5_T1", "d5_T2"]
        assert len(list((out / "similarity").glob("*.csv"))) == 6  # 4 choose 2
        report = json.loads((out / "report.json").read_text())
        assert report["graphs"]["link_counts"]
        assert report["graphs"]["skips"]  # the warm-up day is skipped with a reason

    def test_ingest_copies_the_price_cells(self, workspace):
        root, config_path = workspace
        out = root / "ingest_text"
        assert main(["--config", str(config_path), "--out", str(out), "--quiet", "ingest"]) == EXIT_OK
        panel = load_panel(out)
        assert panel.prices.tobytes() == load_prices(sorted((root / "prices").glob("*.csv"))).prices.tobytes()
        columns = list(zip(*(line.split(b",") for line in (out / "panel.csv").read_bytes().split(b"\r\n")[:-1])))
        for asset, column in zip(panel.assets, columns[1:]):
            price_lines = (root / "prices" / f"{asset}.csv").read_bytes().split(b"\r\n")[:-1]
            assert column == (asset.encode(), *(line.split(b",")[1] for line in price_lines[1:]))

    def test_report_records_the_fit_quality(self, workspace):
        root, config_path = workspace
        out = root / "quality"
        assert main(["--config", str(config_path), "--out", str(out), "--quiet", "run-all"]) == EXIT_OK
        training = json.loads((out / "report.json").read_text())["training"]
        assert sorted(training["explained_share"]) == ["overall", "per_graph"]
        assert sorted(training["explained_share"]["per_graph"]) == ["d1_T0", "d1_T1", "d1_T2", "d5_T0", "d5_T1", "d5_T2"]
        assert training["explained_share"]["overall"] < 1.0
        assert 0.0 <= training["one_hot_row_share"] <= 1.0
        assert 0.0 <= training["validation_copy_share"] <= 1.0
        assert json.loads((out / "model.json").read_text())["dtype"] == "float32"

    def test_graphs_stage_idempotent(self, workspace):
        root, config_path = workspace
        out = root / "idem"
        for _ in range(2):
            assert main(["--config", str(config_path), "--out", str(out), "--quiet", "ingest"]) == EXIT_OK
            assert main(["--config", str(config_path), "--out", str(out), "--quiet", "graphs"]) == EXIT_OK
        first = tree_bytes(out, "graphs/*/*") | tree_bytes(out, "graphs.json")
        assert "graphs.json" in first and len(first) == 19  # the index and 3 dates x 6 specs
        assert main(["--config", str(config_path), "--out", str(out), "--quiet", "graphs"]) == EXIT_OK
        assert tree_bytes(out, "graphs/*/*") | tree_bytes(out, "graphs.json") == first

    def test_staged_equals_run_all(self, workspace):
        """The four staged commands and run-all write the same files, report.json included."""
        root, config_path = workspace
        staged, full = root / "staged", root / "staged_run_all"
        for stage in ("ingest", "graphs", "fuse", "postprocess"):
            assert main(["--config", str(config_path), "--out", str(staged), "--quiet", stage]) == EXIT_OK
        assert main(["--config", str(config_path), "--out", str(full), "--quiet", "run-all"]) == EXIT_OK
        files = tree_bytes(staged, "**/*")
        assert {"graphs.json", "model.json", "report.json", "panel.csv", "pca.csv"} <= set(files)
        assert len([name for name in files if name.startswith("similarity/")]) == 6
        assert files == tree_bytes(full, "**/*")

    def test_two_ingests_write_the_same_panel_cache(self, workspace):
        root, config_path = workspace
        outs = [root / f"ingest_twice{i}" for i in range(2)]
        for out in outs:
            assert main(["--config", str(config_path), "--out", str(out), "--quiet", "ingest"]) == EXIT_OK
        for name in ("panel.npy", "panel.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert json.loads((outs[0] / "panel.json").read_text())["assets"] == ["A00", "A01", "A02", "A03"]

    def test_failed_ingest_leaves_no_panel_for_graphs(self, workspace, monkeypatch, capsys):
        """An ingest that fails after writing panel.csv leaves no index, even where an earlier ingest wrote one."""
        root, config_path = workspace
        out = root / "failed_ingest"
        base = ["--config", str(config_path), "--out", str(out), "--quiet"]
        assert main([*base, "ingest"]) == EXIT_OK
        assert (out / "panel.json").exists()

        def crash(panel, run_dir):
            assert (out / "panel.csv").exists() and not (out / "panel.json").exists()
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_panel", crash)
        assert main([*base, "ingest"]) == EXIT_FAILURE
        assert not (out / "panel.json").exists()
        capsys.readouterr()
        assert main([*base, "graphs"]) == EXIT_MISSING_INPUT
        assert "run 'ingest' first" in capsys.readouterr().err

    def test_staged_graphs_read_the_binary_panel(self, workspace, monkeypatch):
        root, config_path = workspace
        out = root / "binary_panel"
        base = ["--config", str(config_path), "--out", str(out), "--quiet"]
        assert main([*base, "ingest"]) == EXIT_OK

        def refuse(path):
            raise AssertionError("graphs read panel.csv")

        monkeypatch.setattr(cli, "load_panel_csv", refuse)
        assert main([*base, "graphs"]) == EXIT_OK
        assert (out / "graphs.json").exists()

    def test_library_run_equals_run_all(self, workspace):
        """What run-all writes reads back bitwise equal to ``build_graphs`` and ``fit`` in memory."""
        root, config_path = workspace
        out = root / "equiv"
        assert main(["--config", str(config_path), "--out", str(out), "--quiet", "run-all"]) == EXIT_OK
        config = load_config(config_path)
        graphs, _, _, _ = build_graphs(config, load_prices(sorted((root / "prices").glob("*.csv"))))
        model, _, frame = fit(config, graphs)
        written = {(g.spec.tag, g.window_end): g for g in load_graph_artifacts(out, config)}
        assert sorted(written) == sorted((g.spec.tag, g.window_end) for g in graphs)
        for graph in graphs:
            assert np.array_equal(written[(graph.spec.tag, graph.window_end)].weights, graph.weights)
        read = load_embeddings_csv(out / "embeddings.csv")
        assert (read.universe, read.window_ends) == (frame.universe, frame.window_ends)
        assert np.array_equal(read.vectors, frame.vectors)
        assert np.array_equal(fusion.load_model(out / "model.json").params, model.params)

    def test_rerun_graphs_leaves_no_stale_graphs(self, workspace):
        root, config_path = workspace
        out = root / "stale"
        base = ["--config", str(config_path), "--out", str(out), "--quiet"]
        assert main([*base, "run-all"]) == EXIT_OK
        ends = json.loads((out / "report.json").read_text())["graphs"]["usable_window_ends"]
        fewer = ["--set", f"window_ends={json.dumps(ends[1:])}", "--set", "training.validation_fraction=0"]
        assert main([*base, *fewer, "graphs"]) == EXIT_OK
        assert main([*base, *fewer, "fuse"]) == EXIT_OK
        usable = json.loads((out / "report.json").read_text())["graphs"]["usable_window_ends"]
        assert usable == ends[1:]
        assert list(load_embeddings_csv(out / "embeddings.csv").window_ends) == usable

    def test_failed_report_write_keeps_previous_report(self, workspace, monkeypatch):
        root, config_path = workspace
        out = root / "atomic"
        base = ["--config", str(config_path), "--out", str(out), "--quiet", "ingest"]
        assert main(base) == EXIT_OK
        before = (out / "report.json").read_bytes()

        def crash_mid_write(obj, fh, **kwargs):
            fh.write('{"schema_version": ')
            raise OSError("disk full")

        monkeypatch.setattr(cli.json, "dump", crash_mid_write)
        assert main(base) == EXIT_FAILURE
        assert (out / "report.json").read_bytes() == before

    def test_overrides_round_trip_into_report(self, workspace):
        root, config_path = workspace
        out = root / "override"
        code = main(
            [
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--quiet",
                "--set",
                "training.max_epochs=11",
                "--set",
                "seeds.split=99",
                "ingest",
            ]
        )
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["effective_config"]["training"]["max_epochs"] == 11
        assert report["effective_config"]["seeds"]["split"] == 99

    def test_env_var_default_out_dir(self, workspace, monkeypatch, tmp_path):
        _, config_path = workspace
        monkeypatch.setenv("LEADLAG_FUSE_OUT", str(tmp_path / "envout"))
        assert main(["--config", str(config_path), "--quiet", "ingest"]) == EXIT_OK
        assert (tmp_path / "envout" / "panel.csv").exists()

    def test_similarity_pairs_subset(self, workspace, tmp_path):
        root, config_path = workspace
        out = root / "pairs"
        base = ["--config", str(config_path), "--out", str(out), "--quiet"]
        assert main([*base, "run-all"]) == EXIT_OK
        every = {p.name: p.read_bytes() for p in (out / "similarity").glob("*.csv")}
        assert len(every) == 6
        code = main([*base, "--set", 'similarity_pairs=[["A00","A01"]]', "run-all"])
        assert code == EXIT_OK
        assert sorted(p.name for p in (out / "similarity").glob("*.csv")) == ["A00_A01.csv"]
        # a subset's files are byte for byte those of the same name in the run of all pairs
        assert main([*base, "--set", 'similarity_pairs=[["A01","A03"],["A02","A03"]]', "postprocess"]) == EXIT_OK
        subset = {p.name: p.read_bytes() for p in (out / "similarity").glob("*.csv")}
        assert subset == {name: every[name] for name in ("A01_A03.csv", "A02_A03.csv")}

    def test_postprocess_overwrites_longer_file_exactly(self, workspace):
        root, config_path = workspace
        out = root / "overwrite"
        base = ["--config", str(config_path), "--out", str(out), "--quiet"]
        assert main([*base, "run-all"]) == EXIT_OK
        target = out / "similarity" / "A00_A01.csv"
        fresh = target.read_bytes()
        target.write_bytes(b"junk," * (2 * len(fresh)))
        assert main([*base, "postprocess"]) == EXIT_OK
        assert target.read_bytes() == fresh

    def test_similarity_files_match_oracle(self, workspace, capsys):
        root, config_path = workspace
        out = root / "oracle"
        base = ["--config", str(config_path), "--out", str(out), "--quiet"]
        assert main([*base, "run-all"]) == EXIT_OK
        embeddings = out / "embeddings.csv"
        lines = embeddings.read_text(encoding="utf-8").splitlines(keepends=True)
        ends = sorted({int(line.split(",")[1]) for line in lines[1:]})
        edited = [lines[0]]
        for line in lines[1:]:
            asset, end, *z = line.rstrip("\r\n").split(",")
            if (asset, int(end)) == ("A02", ends[0]):
                z = ["0.0"] * len(z)  # a zero-norm embedding
            edited.append(",".join([asset, end, *z]) + "\r\n")
        for stage_lines in (lines, edited):
            embeddings.write_text("".join(stage_lines), encoding="utf-8")
            assert main([*base, "postprocess"]) == EXIT_OK
            files = sorted((out / "similarity").glob("*.csv"))
            assert len(files) == 6
            frame = load_embeddings_csv(embeddings)
            for path in files:
                a, b = path.stem.split("_")
                expected = similarity_csv_oracle(embeddings, a, b)
                assert path.read_bytes() == expected, path.name
                # the library writer of one pair gives the same bytes as that of all pairs
                write_similarity_csv(frame, [(a, b)], root / "one_pair")
                assert (root / "one_pair" / path.name).read_bytes() == expected, path.name
        assert f"{ends[0]},\r\n".encode() in (out / "similarity" / "A00_A02.csv").read_bytes()
        # a missing (asset, date) is refused, naming the row where the grid breaks
        missing = [line for line in edited if not line.startswith(f"A03,{ends[1]},")]
        embeddings.write_text("".join(missing), encoding="utf-8")
        assert main([*base, "postprocess"]) == EXIT_FAILURE
        assert "error: embeddings.csv: row 8: " in capsys.readouterr().err


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.json"), "--out", str(tmp_path), "graphs"]) == EXIT_MISSING_INPUT
        assert "error:" in capsys.readouterr().err

    def test_missing_config_flag_shows_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run-all"])
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, workspace, capsys):
        _, config_path = workspace
        with pytest.raises(SystemExit) as excinfo:
            main(["--config", str(config_path), "--frobnicate", "run-all"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_a_usage_error(self, workspace, tmp_path, capsys, threads):
        _, config_path = workspace
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as excinfo:
            main(["--config", str(config_path), "--out", str(out), "--quiet", "--threads", threads, "run-all"])
        assert excinfo.value.code == 2
        assert f"argument --threads: must be at least 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_config_value(self, workspace, tmp_path, capsys):
        _, config_path = workspace
        code = main(
            ["--config", str(config_path), "--out", str(tmp_path), "--quiet", "--set", "states=1", "ingest"]
        )
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_stage_without_inputs(self, workspace, tmp_path):
        _, config_path = workspace
        assert main(["--config", str(config_path), "--out", str(tmp_path / "fresh"), "--quiet", "fuse"]) == EXIT_MISSING_INPUT

    def test_data_error_is_generic_failure(self, tmp_path, capsys):
        prices = tmp_path / "prices"
        prices.mkdir()
        (prices / "AAA.csv").write_text("timestamp,price\n60000,1.0\n")
        (prices / "BBB.csv").write_text("timestamp,price\n60000,1.0\n")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"data": {"prices_dir": "prices", "base_period_minutes": 1}}))
        code = main(["--config", str(config_path), "--out", str(tmp_path / "out"), "--quiet", "ingest"])
        assert code == EXIT_FAILURE
        assert "overlap" in capsys.readouterr().err


@pytest.fixture(scope="module")
def finished_run(workspace):
    root, config_path = workspace
    out = root / "finished"
    assert main(["--config", str(config_path), "--out", str(out), "--quiet", "run-all"]) == EXIT_OK
    return out


def append_line(path, line):
    with open(path, "a", newline="", encoding="utf-8") as fh:
        fh.write(line + "\r\n")


class TestArtifactReadersNameTheFile:
    """A malformed artifact stops the stage that reads it with exit 1 and names the file, and the row of a malformed line."""

    EDGE_ROWS = {
        "unknown_asset": "A99,A01,0.5",
        "bad_weight": "A00,A01,x",
        "self_edge": "A00,A00,0.5",
        "negative_weight": "A00,A02,-1",
        "nan_weight": "A00,A02,nan",
        "inf_weight": "A00,A02,inf",
        "zero_weight": "A00,A02,0",
    }

    @pytest.mark.parametrize(
        "case, stage, message",
        [
            ("unknown_asset", "fuse", "asset 'A99' is not in graphs.json's asset list"),
            ("bad_weight", "fuse", "could not convert string to float: 'x'"),
            ("short_embedding", "postprocess", "3 fields, the header has"),
            ("fractional_window_end", "postprocess", "invalid literal for int()"),
            ("self_edge", "fuse", "self-edge on asset 'A00'"),
            ("repeated_pair", "fuse", "repeated pair"),
            ("negative_weight", "fuse", "weight must be finite and above 0, got '-1'"),
            ("nan_weight", "fuse", "weight must be finite and above 0, got 'nan'"),
            ("inf_weight", "fuse", "weight must be finite and above 0, got 'inf'"),
            ("zero_weight", "fuse", "weight must be finite and above 0, got '0'"),
        ],
    )
    def test_malformed_row(self, workspace, finished_run, tmp_path, capsys, case, stage, message):
        _, config_path = workspace
        out = tmp_path / "run"
        shutil.copytree(finished_run, out)
        if stage == "fuse":
            target = sorted((out / "graphs" / "d1_T1").glob("*.csv"))[0]
            if case == "repeated_pair":  # the first edge again, its ends swapped
                source, other, weight = target.read_text(encoding="utf-8").splitlines()[1].split(",")
                append_line(target, f"{other},{source},{weight}")
            else:
                append_line(target, self.EDGE_ROWS[case])
        else:
            target = out / "embeddings.csv"
            lines = target.read_text(encoding="utf-8").splitlines()
            if case == "short_embedding":
                append_line(target, "A00,60000,0.1")
            else:
                asset, end, *values = lines[1].split(",")
                lines[1] = ",".join([asset, f"{end}.5", *values])
                target.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", newline="")
        rows = len(target.read_text(encoding="utf-8").splitlines()) - 1
        row = 1 if case == "fractional_window_end" else rows
        code = main(["--config", str(config_path), "--out", str(out), "--quiet", stage])
        assert code == EXIT_FAILURE
        err = capsys.readouterr().err
        assert f"error: {target.name}: row {row}: " in err
        assert message in err

    @pytest.mark.parametrize(
        "case, message",
        [
            ("missing_key", "missing key 'assets'"),
            ("malformed_json", "Expecting ',' delimiter"),
            ("not_an_object", "list indices must be integers"),
        ],
    )
    def test_malformed_index(self, workspace, finished_run, tmp_path, capsys, case, message):
        _, config_path = workspace
        out = tmp_path / "run"
        shutil.copytree(finished_run, out)
        target = out / "graphs.json"
        index = json.loads(target.read_text(encoding="utf-8"))
        if case == "missing_key":
            del index["assets"]
            target.write_text(json.dumps(index), encoding="utf-8")
        elif case == "malformed_json":
            target.write_text(json.dumps(index).replace(",", "", 1), encoding="utf-8")
        else:
            target.write_text(json.dumps(list(index.values())), encoding="utf-8")
        code = main(["--config", str(config_path), "--out", str(out), "--quiet", "fuse"])
        assert code == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "error: graphs.json: " in err
        assert message in err


class TestGraphIndexIsTheCommitPoint:
    """``fuse`` reads the graphs that ``graphs.json`` lists, and refuses with exit 4 when they are not the config's."""

    @pytest.mark.parametrize("earlier_graphs", [False, True], ids=["fresh", "over_finished_graphs"])
    def test_crashed_graph_stage_leaves_nothing_to_fuse(self, workspace, tmp_path, monkeypatch, capsys, earlier_graphs):
        _, config_path = workspace
        # no validation split, so that the 8 samples of two dates would train
        base = ["--config", str(config_path), "--out", str(tmp_path), "--quiet", "--set", "training.validation_fraction=0"]
        assert main([*base, "ingest"]) == EXIT_OK
        if earlier_graphs:
            assert main([*base, "graphs"]) == EXIT_OK
            assert len(list((tmp_path / "graphs").glob("*/*.csv"))) == 18
        write_graph, written = leadlag.write_graph, []

        def crash_after_12_graphs(*args):
            if len(written) == 12:
                raise OSError("disk full")
            written.append(args)
            write_graph(*args)

        monkeypatch.setattr(leadlag, "write_graph", crash_after_12_graphs)
        assert main([*base, "graphs"]) == EXIT_FAILURE
        monkeypatch.undo()
        assert len(list((tmp_path / "graphs").glob("*/*.csv"))) == 12  # two whole dates of three, six specs each
        capsys.readouterr()
        assert main([*base, "fuse"]) == EXIT_MISSING_INPUT
        assert "graphs.json (run 'graphs' first)" in capsys.readouterr().err
        assert not (tmp_path / "embeddings.csv").exists()

    @pytest.mark.parametrize(
        "specs, asked",
        [
            ([{"period_minutes": 1, "lag": 1}], "['d1_T1']"),
            (
                [{"period_minutes": d, "lag": t} for d in (1, 5) for t in (0, 1, 2, 3)],
                "['d1_T0', 'd1_T1', 'd1_T2', 'd1_T3', 'd5_T0', 'd5_T1', 'd5_T2', 'd5_T3']",
            ),
            (
                [{"period_minutes": d, "lag": t, "window_rows": 720 if (d, t) == (1, 1) else None} for d in (1, 5) for t in (0, 1, 2)],
                "['d1_T0', 'd1_T1/720rows', 'd1_T2', 'd5_T0', 'd5_T1', 'd5_T2']",
            ),
        ],
        ids=["fewer", "more", "other_window_rows"],
    )
    def test_fuse_refuses_an_index_of_other_specs(self, workspace, finished_run, tmp_path, capsys, specs, asked):
        _, config_path = workspace
        out = tmp_path / "run"
        shutil.copytree(finished_run, out)
        code = main(["--config", str(config_path), "--out", str(out), "--quiet", "--set", f"specs={json.dumps(specs)}", "fuse"])
        assert code == EXIT_MISSING_INPUT
        err = capsys.readouterr().err
        assert "graphs.json holds graphs of specs ['d1_T0', 'd1_T1', 'd1_T2', 'd5_T0', 'd5_T1', 'd5_T2']" in err
        assert f"the config asks for {asked}" in err
        assert (out / "embeddings.csv").read_bytes() == (finished_run / "embeddings.csv").read_bytes()

    @pytest.mark.parametrize(
        "assignment, key, built, asked",
        [
            ("states=3", "states", "4", "3"),
            ("uncorrected_p=0.05", "uncorrected_p", "0.01", "0.05"),
            ("window_minutes=720", "window_minutes", "1440", "720"),
            ("window_ends=[LAST]", "window_ends", '"daily"', "[LAST]"),
        ],
        ids=["states", "uncorrected_p", "window_minutes", "window_ends"],
    )
    def test_fuse_refuses_graphs_built_under_other_settings(
        self, workspace, finished_run, tmp_path, capsys, assignment, key, built, asked
    ):
        _, config_path = workspace
        out = tmp_path / "run"
        shutil.copytree(finished_run, out)
        last = str(json.loads((out / "report.json").read_text())["graphs"]["usable_window_ends"][-1])
        assignment, asked = assignment.replace("LAST", last), asked.replace("LAST", last)
        code = main(["--config", str(config_path), "--out", str(out), "--quiet", "--set", assignment, "fuse"])
        assert code == EXIT_MISSING_INPUT
        assert f"graphs.json holds graphs built with {key} {built}, the config asks for {asked}" in capsys.readouterr().err
        assert (out / "embeddings.csv").read_bytes() == (finished_run / "embeddings.csv").read_bytes()
        assert (out / "report.json").read_bytes() == (finished_run / "report.json").read_bytes()

    def test_fuse_refuses_an_index_without_the_settings_record(self, workspace, finished_run, tmp_path, capsys):
        # an index written before graphs.json recorded the settings is stale, not malformed
        _, config_path = workspace
        out = tmp_path / "run"
        shutil.copytree(finished_run, out)
        index = json.loads((out / "graphs.json").read_text(encoding="utf-8"))
        del index["config"]
        (out / "graphs.json").write_text(json.dumps(index), encoding="utf-8")
        code = main(["--config", str(config_path), "--out", str(out), "--quiet", "fuse"])
        assert code == EXIT_MISSING_INPUT
        err = capsys.readouterr().err
        assert "graphs.json holds graphs built with data.base_period_minutes null, the config asks for 1 (run 'graphs' first)" in err
        assert (out / "embeddings.csv").read_bytes() == (finished_run / "embeddings.csv").read_bytes()

    def test_graph_index_records_the_settings_that_built_the_graphs(self, finished_run):
        index = json.loads((finished_run / "graphs.json").read_text(encoding="utf-8"))
        assert index["config"] == {
            "data.base_period_minutes": 1,
            "states": 4,
            "uncorrected_p": 0.01,
            "window_ends": "daily",
            "window_minutes": 1440,
        }
