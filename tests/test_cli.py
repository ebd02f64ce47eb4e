import json

import numpy as np
import pytest

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
from leadlag_fuse.market_data import load_prices
from leadlag_fuse.pipeline import ConfigError, RunConfig, run_dynamic_fusion
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
        root, config_path = workspace
        cli_out, lib_out = root / "equiv_cli", root / "equiv_lib"
        assert main(["--config", str(config_path), "--out", str(cli_out), "--quiet", "run-all"]) == EXIT_OK
        config = build_run_config(load_config(config_path))
        run_dynamic_fusion(config, load_prices(sorted((root / "prices").glob("*.csv"))), lib_out)
        for pattern in ("graphs/*/*", "embeddings.csv", "model.json"):
            written = tree_bytes(lib_out, pattern)
            assert written and written == tree_bytes(cli_out, pattern)

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
                "--seed-split",
                "99",
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
        code = main(
            [
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--quiet",
                "--set",
                'similarity_pairs=[["A00","A01"]]',
                "run-all",
            ]
        )
        assert code == EXIT_OK
        assert sorted(p.name for p in (out / "similarity").glob("*.csv")) == ["A00_A01.csv"]


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
