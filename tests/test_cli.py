import json
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from oracles import similarity_csv_oracle
from leadlag_fuse import cli, fusion
from leadlag_fuse.cli import (
    EXIT_CONFIG,
    EXIT_FAILURE,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    apply_overrides,
    build_run_config,
    build_synth_spec,
    default_config,
    load_config,
    main,
)
from leadlag_fuse.diffusion import RwrConfig
from leadlag_fuse.fusion import ModelSettings, TrainingSettings
from leadlag_fuse.leadlag import LagSpec
from leadlag_fuse.market_data import load_prices
from leadlag_fuse.pipeline import (
    ConfigError,
    RunConfig,
    load_embeddings_csv,
    load_graph_artifacts,
    run_dynamic_fusion,
    similarity_series,
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


def tree_bytes(base, pattern):
    return {p.relative_to(base).as_posix(): p.read_bytes() for p in sorted(base.glob(pattern))}


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

    def test_coupling_must_reference_known_assets(self):
        with pytest.raises(ValueError, match="unknown asset"):
            SyntheticSpec(n_assets=2, couplings=(PlantedCoupling("A00", "A09", 1, 0.5, 0.5),))


class TestConfigHandling:
    def test_defaults_filled_for_partial_config(self, workspace):
        _, config_path = workspace
        config = load_config(config_path)
        assert config["window_minutes"] == 1440
        assert config["synth"]["n_assets"] == 4  # user value kept
        assert config["training"]["max_epochs"] == 40
        assert config["training"]["learning_rate"] == 0.001  # default merged in

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

    def test_overrides_parse_json_values(self):
        config = default_config()
        out = apply_overrides(config, ["training.max_epochs=7", "window_ends=[60000,120000]"])
        assert out["training"]["max_epochs"] == 7
        assert out["window_ends"] == [60000, 120000]

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            apply_overrides(default_config(), ["rwr.bogus=1"])

    def test_override_requires_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(default_config(), ["training.max_epochs"])

    def test_defaults_match_library_defaults(self):
        assert build_run_config(default_config()) == RunConfig()
        assert build_synth_spec(default_config()) == SyntheticSpec()

    def test_every_field_round_trips_through_the_config_tree(self, tmp_path):
        run = RunConfig(
            specs=(LagSpec(2, 1, window_rows=50), LagSpec(3, 0)),
            window_minutes=60,
            window_ends=(60_000, 120_000),
            states=3,
            uncorrected_p=0.05,
            rwr=RwrConfig(restart_keep=0.9, steps=5),
            model=ModelSettings(per_graph_dims=(12, 6), shared_dims=(8, 4), embedding_dim=5),
            training=TrainingSettings(
                max_epochs=17, learning_rate=0.01, patience=None, min_delta=1e-4, validation_fraction=0.2
            ),
            seed_split=3,
            seed_init=4,
            pca_components=3,
            similarity_pairs=(("X00", "X01"), ("X02", "X03")),
        )
        synth = SyntheticSpec(
            n_assets=5,
            days=2,
            base_price=50.0,
            volatility=0.002,
            asset_prefix="X",
            couplings=(PlantedCoupling("X00", "X01", 2, 0.5, 0.1), PlantedCoupling("X02", "X03", 0, 0.3, 0.0)),
        )
        data = cli.DataSettings(prices_dir="elsewhere", base_period_minutes=5)
        seeds = cli.Seeds(data=21, split=run.seed_split, init=run.seed_init)
        # start_ms is fixed by the generator and has no config key
        assert fields_at_default(run, RunConfig()) == []
        assert fields_at_default(synth, SyntheticSpec()) == ["start_ms"]
        assert fields_at_default(data, cli.DataSettings()) == fields_at_default(seeds, cli.Seeds()) == []
        tree = cli._json_tree(run)
        del tree["seed_split"], tree["seed_init"]
        synth_tree = cli._json_tree(synth)
        del synth_tree["start_ms"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**tree, "data": cli._json_tree(data), "seeds": cli._json_tree(seeds), "synth": synth_tree}))
        config = load_config(path)
        assert build_run_config(config) == run
        assert build_synth_spec(config) == synth
        assert cli._from_tree(cli.DataSettings, config["data"], "data") == data
        assert cli._from_tree(cli.Seeds, config["seeds"], "seeds") == seeds

    def test_unknown_key_in_spec_entry_rejected(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"specs": [{"period_minutes": 1, "lag": 0, "window_row": 60}]}))
        with pytest.raises(ConfigError, match="unknown key in config: specs.0.window_row"):
            build_run_config(load_config(path))

    def test_unknown_key_in_coupling_entry_rejected(self, tmp_path, capsys):
        coupling = {"leader": "A00", "follower": "A01", "lag": 1, "coupling": 0.8, "noise": 0.5, "nosie": 9}
        config = {"data": {"prices_dir": str(tmp_path / "prices")}, "synth": {"couplings": [coupling]}}
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet", "synth"]) == EXIT_CONFIG
        assert "synth.couplings.0.nosie" in capsys.readouterr().err
        assert not (tmp_path / "prices").exists()

    @pytest.mark.parametrize(
        "assignment, build",
        [
            ("states=4.9", build_run_config),
            ("training.max_epochs=10.5", build_run_config),
            ('specs=[{"period_minutes": 1, "lag": 0.5}]', build_run_config),
            ("synth.days=2.5", build_synth_spec),
        ],
    )
    def test_integer_keys_reject_fractions(self, assignment, build):
        with pytest.raises(ConfigError, match="whole number"):
            build(apply_overrides(default_config(), [assignment]))

    @pytest.mark.parametrize("assignment", ["states=4.0", 'states="4"'])
    def test_integer_keys_accept_whole_numbers(self, assignment):
        assert build_run_config(apply_overrides(default_config(), [assignment])).states == 4

    def test_override_of_a_section_merges_onto_its_defaults(self):
        config = apply_overrides(default_config(), ['rwr={"steps": 4}'])
        assert build_run_config(config).rwr == RwrConfig(steps=4)

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

    def test_numeric_prices_dir_is_a_directory_name(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"synth": {"n_assets": 2, "days": 1}}))
        assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet", "--set", "data.prices_dir=5", "synth"]) == EXIT_OK
        assert sorted(p.name for p in (tmp_path / "5").iterdir()) == ["A00.csv", "A01.csv"]

    def test_override_into_a_list_rejected(self):
        config = apply_overrides(default_config(), ["specs.0.lag=2"])
        with pytest.raises(ConfigError, match="specs must be a list"):
            build_run_config(config)


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

    def test_graphs_stage_idempotent(self, workspace):
        root, config_path = workspace
        out = root / "idem"
        for _ in range(2):
            assert main(["--config", str(config_path), "--out", str(out), "--quiet", "ingest"]) == EXIT_OK
            assert main(["--config", str(config_path), "--out", str(out), "--quiet", "graphs"]) == EXIT_OK
        first = tree_bytes(out / "graphs", "*/*")
        assert main(["--config", str(config_path), "--out", str(out), "--quiet", "graphs"]) == EXIT_OK
        assert tree_bytes(out / "graphs", "*/*") == first

    def test_staged_equals_run_all(self, workspace):
        root, config_path = workspace
        staged = root / "staged"
        for stage in ("ingest", "graphs", "fuse", "postprocess"):
            assert main(["--config", str(config_path), "--out", str(staged), "--quiet", stage]) == EXIT_OK
        full = root / "full"
        for name in ("embeddings.csv", "pca.csv"):
            assert (staged / name).read_bytes() == (full / name).read_bytes()

    def test_library_run_equals_run_all(self, workspace):
        """What run-all writes reads back bitwise equal to the library's in-memory result."""
        root, config_path = workspace
        out = root / "equiv"
        assert main(["--config", str(config_path), "--out", str(out), "--quiet", "run-all"]) == EXIT_OK
        config = build_run_config(load_config(config_path))
        result = run_dynamic_fusion(config, load_prices(sorted((root / "prices").glob("*.csv"))))
        written = {(g.spec.tag, g.window_end): g for g in load_graph_artifacts(out / "graphs")}
        assert sorted(written) == sorted((g.spec.tag, g.window_end) for g in result.graphs)
        for graph in result.graphs:
            assert np.array_equal(written[(graph.spec.tag, graph.window_end)].weights, graph.weights)
        frame = load_embeddings_csv(out / "embeddings.csv")
        assert (frame.asset_ids, frame.window_ends) == (result.frame.asset_ids, result.frame.window_ends)
        assert np.array_equal(frame.vectors, result.frame.vectors)
        assert np.array_equal(fusion.load_model(out / "model.json").params, result.model.params)

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
        assert list(load_embeddings_csv(out / "embeddings.csv").dates()) == usable

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
        assert len(list((out / "similarity").glob("*.csv"))) == 6
        code = main([*base, "--set", 'similarity_pairs=[["A00","A01"]]', "run-all"])
        assert code == EXIT_OK
        assert sorted(p.name for p in (out / "similarity").glob("*.csv")) == ["A00_A01.csv"]

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

    def test_similarity_files_match_oracle(self, workspace):
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
            if (asset, int(end)) == ("A03", ends[1]):
                continue  # a missing (asset, date)
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
                # the library writer of one series gives the same bytes as the directory writer
                write_similarity_csv(similarity_series(frame, (a, b)), root / "series.csv")
                assert (root / "series.csv").read_bytes() == expected, path.name
        assert f"{ends[0]},\r\n".encode() in (out / "similarity" / "A00_A02.csv").read_bytes()
        assert str(ends[1]).encode() not in (out / "similarity" / "A00_A03.csv").read_bytes()


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
