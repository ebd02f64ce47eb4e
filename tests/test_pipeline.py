import csv
import io
import logging
import math

import numpy as np
import pytest

from oracles import lagged_mi_matrix_reference, similarity_csv_oracle
from leadlag_fuse import leadlag, pipeline as pipeline_module
from leadlag_fuse.diffusion import node_features
from leadlag_fuse.fusion import EmbeddingFrame, extract_embeddings, load_model, save_model
from leadlag_fuse.leadlag import LagSpec
from leadlag_fuse.market_data import MS_PER_MINUTE, PricePanel, log_returns
from leadlag_fuse.pipeline import (
    ConfigError,
    ModelSettings,
    PcaProjection,
    RunConfig,
    TrainingSettings,
    build_graphs,
    cosine_matrix,
    cosine_similarity,
    fit,
    link_count_summary,
    load_embeddings_csv,
    pca_project,
    run_dynamic_fusion,
    samples_from_graphs,
    select_window_ends,
    similarity_matrix,
    similarity_series,
    symmetric_eigh_jacobi,
    write_embeddings_csv,
    write_pca_csv,
    write_similarity_csv,
)
from leadlag_fuse.synthetic import SyntheticSpec, synthetic_panel

T0 = 1_609_459_200_000


def tiny_panel(rows=40, assets=2, seed=0):
    rng = np.random.default_rng(seed)
    prices = 100.0 * np.exp(np.cumsum(0.001 * rng.standard_normal((rows, assets)), axis=0))
    ts = T0 + MS_PER_MINUTE * np.arange(rows)
    return PricePanel(
        timestamps=ts, assets=tuple(f"A{i}" for i in range(assets)), prices=prices, period_minutes=1
    )


def tiny_config(panel, n_dates=2, window_minutes=8):
    returns = log_returns(panel)
    step = (returns.timestamps.size - window_minutes) // n_dates
    ends = tuple(int(returns.timestamps[window_minutes + i * step - 1]) for i in range(1, n_dates + 1))
    return RunConfig(
        specs=(LagSpec(1, 0),),
        window_minutes=window_minutes,
        window_ends=ends,
        states=4,
        uncorrected_p=0.01,
        model=ModelSettings(per_graph_dims=(4, 3), shared_dims=(4,), embedding_dim=3),
        training=TrainingSettings(max_epochs=5, validation_fraction=0.0, patience=None),
    )


def frame_of(vectors, universe=None, ends=None):
    """The frame of a (dates, assets, dim) grid, or of one (assets, dim) date at T0."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim == 2:
        vectors = vectors[np.newaxis]
    dates, count = vectors.shape[:2]
    return EmbeddingFrame(
        universe or tuple(f"A{i}" for i in range(count)), ends or tuple(T0 + d for d in range(dates)), vectors
    )


class TestRunConfig:
    def test_duplicate_specs_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            RunConfig(specs=(LagSpec(1, 0), LagSpec(1, 0)))

    def test_window_must_support_discretization(self):
        with pytest.raises(ConfigError, match="discretization"):
            RunConfig(specs=(LagSpec(1, 2),), window_minutes=4)

    def test_window_rows_override(self):
        config = RunConfig(specs=(LagSpec(5, 0, window_rows=500),), window_minutes=1440)
        assert config.window_rows(LagSpec(5, 0, window_rows=500)) == 500
        assert RunConfig().window_rows(LagSpec(5, 2)) == 288

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError, match="rule"):
            RunConfig(window_ends="hourly")

    def test_decreasing_explicit_ends_rejected(self):
        with pytest.raises(ConfigError, match="increasing"):
            RunConfig(window_ends=(100, 50))


class TestWindowing:
    def test_daily_rule_picks_last_return_of_each_day(self):
        panel = synthetic_panel(SyntheticSpec(n_assets=2, days=2), seed=1)
        returns = log_returns(panel)
        ends = select_window_ends(returns, "daily")
        assert len(ends) == 3  # three calendar days of prices
        day_ms = 86_400_000
        for end in ends[:-1]:
            assert (end + MS_PER_MINUTE) % day_ms == 0  # last minute bar of its day

    def test_counting_contract(self):
        panel = tiny_panel()
        config = tiny_config(panel, n_dates=2)
        result = run_dynamic_fusion(config, panel)
        assert len(result.graphs) == 2  # |specs| x usable dates
        assert result.train_report.config["n_samples"] == 4  # assets x dates
        assert result.frame.vectors.shape[:2] == (2, 2)  # dates x assets
        assert result.model.architecture.graph_count == 1
        assert result.model.architecture.input_dim == 2

    def test_fit_takes_its_dates_from_the_graphs(self):
        panel = tiny_panel(rows=60, assets=3)
        config = tiny_config(panel, n_dates=3)
        graphs, usable_ends, _, _ = build_graphs(config, panel)
        _, _, frame = fit(config, graphs)
        _, _, reordered = fit(config, graphs[::-1])  # the graphs' order does not matter
        assert frame.window_ends == reordered.window_ends == tuple(usable_ends)
        assert np.array_equal(frame.vectors, reordered.vectors)

    def test_sample_rows_are_date_major(self):
        panel = tiny_panel(rows=60, assets=3)
        config = tiny_config(panel, n_dates=3)
        config = RunConfig(
            specs=(LagSpec(1, 0), LagSpec(1, 1)),
            window_minutes=config.window_minutes,
            window_ends=config.window_ends,
            model=config.model,
            training=config.training,
        )
        graphs, usable_ends, _, _ = build_graphs(config, panel)
        samples = samples_from_graphs(graphs, config.specs, usable_ends, config.rwr)
        assert samples.shape == (2, 3 * 3, 3)
        by_key = {(g.spec.tag, g.window_end): g for g in graphs}
        for d, end in enumerate(usable_ends):
            for k, spec in enumerate(config.specs):
                ppmi = node_features(by_key[(spec.tag, end)].adjacency, config.rwr, spec.tag).ppmi
                for a in range(3):
                    assert np.array_equal(samples[k, d * 3 + a], ppmi[a])

    def test_insufficient_window_skipped_with_reason(self, caplog):
        panel = tiny_panel(rows=40)
        returns = log_returns(panel)
        early = int(returns.timestamps[3])  # only 4 rows available
        late = int(returns.timestamps[-1])
        config = tiny_config(panel)
        config = RunConfig(
            specs=config.specs,
            window_minutes=config.window_minutes,
            window_ends=(early, late),
            model=config.model,
            training=config.training,
        )
        with caplog.at_level(logging.WARNING):
            result = run_dynamic_fusion(config, panel)
        assert result.frame.window_ends == (late,)
        assert len(result.skips) == 1
        assert "fewer than" in result.skips[0]["reason"]

    def test_no_usable_dates_aborts(self):
        panel = tiny_panel(rows=20)
        returns = log_returns(panel)
        config = tiny_config(panel)
        config = RunConfig(
            specs=config.specs,
            window_minutes=config.window_minutes,
            window_ends=(int(returns.timestamps[2]),),
            model=config.model,
            training=config.training,
        )
        with pytest.raises(ValueError, match="no usable window-end dates"):
            run_dynamic_fusion(config, panel)

    def test_deterministic_embeddings(self):
        panel = tiny_panel()
        config = tiny_config(panel)
        a = run_dynamic_fusion(config, panel)
        b = run_dynamic_fusion(config, panel)
        assert a.frame.universe == b.frame.universe and a.frame.window_ends == b.frame.window_ends
        assert np.array_equal(a.frame.vectors, b.frame.vectors)
        assert np.array_equal(a.model.params, b.model.params)

    def test_threads_do_not_change_results(self):
        panel = tiny_panel(rows=60)
        config = tiny_config(panel, n_dates=3)
        serial = run_dynamic_fusion(config, panel, threads=1)
        threaded = run_dynamic_fusion(config, panel, threads=4)
        for a, b in zip(serial.graphs, threaded.graphs):
            assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(serial.frame.vectors, threaded.frame.vectors)
        assert np.array_equal(serial.model.params, threaded.model.params)


class TestGraphStageMatchesReferences:
    def test_illiquid_panel_graphs_equal_reference_graphs(self, monkeypatch):
        # 12 assets, two daily windows after a day that warms up the first, A00 -> A01 at
        # lag 1, and six assets with 80% zero-return minutes: ties at every bin edge
        rng = np.random.default_rng(5)
        n, minutes = 12, 3 * 1440 - 1
        returns = 0.001 * rng.standard_normal((minutes, n))
        returns[1:, 1] = 0.8 * returns[:-1, 0] + 0.0005 * rng.standard_normal(minutes - 1)
        returns[:, 6:][rng.random((minutes, 6)) < 0.8] = 0.0
        prices = 100.0 * np.exp(np.vstack([np.zeros((1, n)), np.cumsum(returns, axis=0)]))
        panel = PricePanel(
            timestamps=T0 + MS_PER_MINUTE * np.arange(minutes + 1),
            assets=tuple(f"A{i:02d}" for i in range(n)),
            prices=prices,
            period_minutes=1,
        )
        config = RunConfig()
        graphs, ends, _, _ = build_graphs(config, panel)
        monkeypatch.setattr(leadlag, "lagged_mi_matrix", lagged_mi_matrix_reference)
        reference, reference_ends, _, _ = build_graphs(config, panel)
        assert ends == reference_ends and len(graphs) == len(config.specs) * 2
        for graph, expected in zip(graphs, reference):
            assert (graph.spec, graph.window_end) == (expected.spec, expected.window_end)
            assert np.array_equal(graph.weights, expected.weights), graph.spec.tag
        illiquid = slice(6, n)
        assert not any(g.weights[illiquid, illiquid].any() for g in graphs)  # tied zeros link nothing
        for graph in graphs:
            if graph.spec == LagSpec(1, 1):  # only the planted A00 -> A01
                assert graph.validated_link_count == 1
                assert np.argwhere(graph.weights).tolist() == [[0, 1], [1, 0]]


class TestFusedEmbeddingsCarryThePlantedLink:
    """The paper's static claim on the synthetic fixture (10 assets, 30 dates, A00 leads A01 at lag 1).

    With all six default graphs, A00-A01 is the most similar of the 45 pairs
    on every date. The pair is linked only in ``d1_T1`` and in ``d5_T0``,
    where the one-minute lag falls inside a five-minute bar; fusing
    ``d1_T0`` and ``d1_T2`` alone leaves it below the top on every date
    (rank 22 with numpy 2.4.6). The graphs that see the lag carry the link.
    """

    @staticmethod
    def planted_pair_ranks(specs):
        result = run_dynamic_fusion(RunConfig(specs=specs), synthetic_panel(SyntheticSpec(), seed=7))
        assert len(result.frame.window_ends) == 30
        ranks = []
        for end in result.frame.window_ends:
            assets = result.frame.universe
            cos = similarity_matrix(result.frame, end)
            planted = cos[assets.index("A00"), assets.index("A01")]
            ranks.append(int(np.sum(cos[np.triu_indices(len(assets), 1)] >= planted)))  # ties rank above
        return ranks

    def test_planted_pair_is_most_similar_with_default_specs(self):
        assert self.planted_pair_ranks(RunConfig().specs) == [1] * 30

    def test_planted_pair_is_not_most_similar_without_its_linking_graphs(self):
        assert min(self.planted_pair_ranks((LagSpec(1, 0), LagSpec(1, 2)))) > 1


class TestFloat32Fit:
    """``fit`` trains a float32 model; on the fixture it saves, loads and re-embeds bit for bit."""

    @pytest.fixture(scope="class")
    def fixture_fit(self):
        config = RunConfig()
        graphs, ends, _, _ = build_graphs(config, synthetic_panel(SyntheticSpec(), seed=7))
        samples = samples_from_graphs(graphs, config.specs, ends, config.rwr)
        return config, samples, *fit(config, graphs)

    def test_model_round_trips_and_reproduces_the_embeddings(self, fixture_fit, tmp_path):
        _, samples, model, _, frame = fixture_fit
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        assert loaded.params.dtype == np.float32
        assert np.array_equal(loaded.params, model.params)
        assert np.array_equal(extract_embeddings(loaded, samples, frame.universe, frame.window_ends).vectors, frame.vectors)

    def test_report_holds_the_fit_quality(self, fixture_fit):
        config, _, _, report, _ = fixture_fit
        shares = report.explained_share
        assert list(shares["per_graph"]) == [spec.tag for spec in config.specs]
        assert min(shares["per_graph"].values()) <= shares["overall"] <= max(shares["per_graph"].values())
        assert 0.999 < shares["overall"] < 1.0
        # only A00 and A01 are linked, in d1_T1 and d5_T0: on every date 4 of the 6 x 10 rows are not one-hot
        assert report.one_hot_row_share == 56 / 60
        # every asset's row repeats on other dates, so each validation row has a copy in training,
        # and both parts train or validate on the 10 distinct rows
        assert report.validation_copy_share == 1.0
        assert report.distinct_rows == {"train": 10, "val": 10}

    def test_one_hot_rows_are_rows_of_their_own_asset_alone(self):
        samples = np.zeros((1, 4, 2))  # two dates of two assets
        samples[0, 0, 0] = 1.0  # asset 0 alone: one-hot
        samples[0, 1, 0] = 1.0  # asset 1's row holds asset 0's entry: not one-hot
        samples[0, 2, :] = 1.0  # two entries: not one-hot
        samples[0, 3, 1] = 2.0  # asset 1 alone: one-hot
        assert pipeline_module._one_hot_row_share(samples) == 0.5


class TestLinkTimingFollowsTheCoupling:
    """The dynamic half of the paper's claim, at graph level.

    A 10-asset panel of 30 daily windows (plus a warm-up day) whose A01
    follows A00 at a one-minute lag on days 11-20 only, built here with numpy
    as the benchmark builds its inputs. The ``d1_T1`` graph of each date
    holds the A00-A01 link on exactly the coupled dates, and no other link on
    any date. The fused embeddings follow: the pair's cosine on every
    coupled date exceeds its cosine on every uncoupled one. Seeds 1-8 all
    give both; seed 5 is pinned.
    """

    COUPLED_DAYS = range(11, 21)

    @classmethod
    def panel(cls, seed):
        n_assets, n_prices = 10, 31 * 1440
        rng = np.random.default_rng(seed)
        returns = 0.001 * rng.standard_normal((n_prices - 1, n_assets))
        day = np.arange(1, n_prices) // 1440  # return row r is stamped at minute r + 1
        coupled = np.isin(day, cls.COUPLED_DAYS)
        returns[1:, 1] = np.where(coupled[1:], 0.8 * returns[:-1, 0] + 0.5 * returns[1:, 1], returns[1:, 1])
        prices = 100.0 * np.exp(np.vstack([np.zeros((1, n_assets)), np.cumsum(returns, axis=0)]))
        assets = tuple(f"A{i:02d}" for i in range(n_assets))
        return PricePanel(T0 + MS_PER_MINUTE * np.arange(n_prices), assets, prices, period_minutes=1)

    @pytest.fixture(scope="class")
    def seed5_graphs(self):
        graphs, usable_ends, _, _ = build_graphs(RunConfig(), self.panel(seed=5))
        return graphs, usable_ends

    def test_lagged_graph_links_the_pair_on_exactly_the_coupled_dates(self, seed5_graphs):
        graphs, usable_ends = seed5_graphs
        assert len(usable_ends) == 30
        lagged = [g for g in graphs if g.spec.tag == "d1_T1"]
        assert [g.window_end for g in lagged] == usable_ends
        links = {}
        for g in lagged:
            rows, cols = np.nonzero(np.triu(g.weights, 1))
            links[g.window_end // 86_400_000 - T0 // 86_400_000] = [(g.assets[i], g.assets[j]) for i, j in zip(rows, cols)]
        assert links == {d: [("A00", "A01")] if d in self.COUPLED_DAYS else [] for d in range(1, 31)}

    def test_pair_embeddings_are_closer_on_every_coupled_date(self, seed5_graphs):
        graphs, usable_ends = seed5_graphs
        _, _, frame = fit(RunConfig(), graphs)
        assert list(frame.window_ends) == usable_ends
        (cosines,) = similarity_series(frame, [("A00", "A01")])
        coupled = np.isin(np.arange(1, 31), self.COUPLED_DAYS)
        assert cosines[coupled].min() > cosines[~coupled].max()  # 0.8404 against 0.8253


class TestCosine:
    def test_identical_vector(self):
        z = np.array([1.0, 2.0, -3.0])
        assert cosine_similarity(z, z) == 1.0

    def test_opposite_vector(self):
        z = np.array([1.0, 2.0, -3.0])
        assert cosine_similarity(z, -z) == -1.0

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_norm_is_missing(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) is None

    def test_scale_invariance(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            zi, zj = rng.standard_normal(8), rng.standard_normal(8)
            base = cosine_similarity(zi, zj)
            scaled = cosine_similarity(3.7 * zi, 0.002 * zj)
            assert scaled == pytest.approx(base, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(3), np.ones(4))


class TestSimilaritySeries:
    def test_self_pair_is_constant_one(self):
        frame = frame_of(np.random.default_rng(1).standard_normal((2, 2, 3)), universe=("X", "Y"), ends=(1, 2))
        assert similarity_series(frame, [("X", "X")]).tolist() == [[1.0, 1.0]]

    def test_hand_computed_two_dates(self):
        zx1, zy1 = np.array([1.0, 0.0]), np.array([1.0, 1.0])
        zx2, zy2 = np.array([0.0, 2.0]), np.array([3.0, 0.0])
        frame = frame_of([[zx1, zy1], [zx2, zy2]], universe=("X", "Y"), ends=(1, 2))
        (series,) = similarity_series(frame, [("X", "Y")])
        assert series[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
        assert series[1] == pytest.approx(0.0, abs=1e-15)

    def test_missing_cell_rejected_and_zero_norm_recorded(self):
        # X and Y at date 1, X alone at date 2: not a grid
        with pytest.raises(ValueError, match="expected"):
            EmbeddingFrame(("X", "Y"), (1, 2), np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
        frame = frame_of([[[1.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [2.0, 0.0]]], universe=("X", "Y"), ends=(1, 2))
        (series,) = similarity_series(frame, [("X", "Y")])
        assert np.isnan(series[0])  # zero-norm Y at date 1 is recorded undefined
        assert series[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_unknown_asset_rejected(self):
        frame = frame_of(np.ones((2, 2)))
        with pytest.raises(ValueError, match="unknown asset"):
            similarity_series(frame, [("A0", "NOPE")])

    def test_csv_missing_values_are_empty_fields(self, tmp_path):
        frame = frame_of([[1.0, 0.0], [0.0, 0.0]], universe=("X", "Y"), ends=(5,))
        write_similarity_csv(frame, [("X", "Y")], tmp_path)
        assert (tmp_path / "X_Y.csv").read_text().splitlines()[1] == "5,"


class TestOneCosineKernel:
    """cosine_similarity, similarity_matrix and the series read one kernel, so they agree bit for bit."""

    @pytest.mark.parametrize("dim", [3, 15, 16, 32])
    def test_readers_are_bitwise_equal(self, dim):
        rng = np.random.default_rng(dim)
        n, ends = 13, (1, 2)  # 13 rows: an unpadded syrk rounded such blocks unlike 2-row ones
        vectors = rng.standard_normal((n * len(ends), dim)) * rng.uniform(0.01, 100.0, (n * len(ends), 1))
        vectors[::3] = np.maximum(vectors[::3], 0.0)  # rows like the encoder's nonnegative outputs
        assets = tuple(f"A{i}" for i in range(n))
        frame = frame_of(vectors.reshape(len(ends), n, dim), universe=assets, ends=ends)
        pairs = [(a, b) for i, a in enumerate(assets) for b in assets[i + 1 :]]
        series = similarity_series(frame, pairs)
        for d, end in enumerate(ends):
            matrix = similarity_matrix(frame, end)
            for p, (a, b) in enumerate(pairs):
                i, j = assets.index(a), assets.index(b)
                values = [
                    cosine_similarity(frame.vectors[d, i], frame.vectors[d, j]),
                    matrix[i, j],
                    matrix[j, i],
                    series[p, d],
                    similarity_series(frame, [(a, b)])[0, d],
                ]
                assert len({float(v).hex() for v in values}) == 1, (dim, a, b, values)

    def test_kernel_marks_zero_rows_and_keeps_unit_diagonal(self):
        block = np.array([[1.0, 2.0, -3.0], [0.0, 0.0, 0.0], [-1.0, -2.0, 3.0]])
        cos = cosine_matrix(block)
        assert np.isnan(cos[1]).all() and np.isnan(cos[:, 1]).all()
        assert cos[0, 0] == cos[2, 2] == 1.0
        assert cos[0, 2] == cos[2, 0] == -1.0

    @pytest.mark.parametrize("n", [13, 20])
    def test_files_match_per_pair_oracle(self, n, tmp_path):
        # Row counts that are not a multiple of 8 are where an unpadded BLAS syrk rounded differently.
        rng = np.random.default_rng(n)
        vectors = np.maximum(rng.standard_normal((2, n, 15)), 0.0) * rng.uniform(0.5, 20.0, (2, n, 1))
        assets = tuple(f"A{i:02d}" for i in range(n))
        frame = frame_of(vectors, universe=assets, ends=(1, 2))
        write_embeddings_csv(frame, tmp_path / "embeddings.csv")
        pairs = [(a, b) for i, a in enumerate(assets) for b in assets[i + 1 :]]
        write_similarity_csv(frame, pairs, tmp_path / "similarity")
        for a, b in pairs:
            written = (tmp_path / "similarity" / f"{a}_{b}.csv").read_bytes()
            assert written == similarity_csv_oracle(tmp_path / "embeddings.csv", a, b), (a, b)

    @pytest.mark.parametrize("dim", [15, 32])
    def test_pair_subsets_write_the_files_of_all_pairs(self, dim, tmp_path):
        # Every subset reads the whole universe's block of a date, so its files are those of the full run.
        rng = np.random.default_rng(dim)
        n = 21
        frame = frame_of(np.maximum(rng.standard_normal((3, n, dim)), 0.0), ends=(1, 2, 3))
        pairs = [(a, b) for i, a in enumerate(frame.universe) for b in frame.universe[i + 1 :]]
        write_similarity_csv(frame, pairs, tmp_path / "all")
        for size in (1, 2, 5, 13, 40):
            subset = [pairs[i] for i in sorted(rng.choice(len(pairs), size, replace=False))]
            write_similarity_csv(frame, subset, tmp_path / "subset")
            for a, b in subset:
                name = f"{a}_{b}.csv"
                assert (tmp_path / "subset" / name).read_bytes() == (tmp_path / "all" / name).read_bytes(), name

    def test_pairs_share_every_date_and_missing_cell_rejected(self, tmp_path):
        grid = np.array([[[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [[2.0, 0.0], [3.0, 3.0], [0.0, 0.0]]])
        frame = frame_of(grid, universe=("X", "Y", "Z"), ends=(1, 2))  # Z has zero norm at date 2
        xy, xz, yz = similarity_series(frame, [("X", "Y"), ("X", "Z"), ("Y", "Z")])
        assert xy.tolist() == pytest.approx([1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], abs=1e-15)
        assert xz[0] == 0.0 and np.isnan(xz[1])
        assert yz[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15) and np.isnan(yz[1])
        # without Y at date 2 the rows are not a grid
        write_embeddings_csv(frame, tmp_path / "e.csv")
        lines = (tmp_path / "e.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        (tmp_path / "e.csv").write_text("".join(lines[:5] + lines[6:]), encoding="utf-8", newline="")
        with pytest.raises(ValueError, match="e.csv: row 5: expected asset 'Y' at window end 2, got 'Z' at 2"):
            load_embeddings_csv(tmp_path / "e.csv")


class TestSimilarityMatrix:
    def test_single_asset(self):
        frame = frame_of(np.array([[2.0, 0.0]]), universe=("X",))
        assert np.array_equal(similarity_matrix(frame, T0), np.array([[1.0]]))

    def test_symmetric_bitwise(self):
        frame = frame_of(np.random.default_rng(2).standard_normal((5, 4)))
        matrix = similarity_matrix(frame, T0)
        assert np.array_equal(matrix, matrix.T)

    def test_three_vectors_brute_force(self):
        vectors = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        frame = frame_of(vectors)
        matrix = similarity_matrix(frame, T0)
        for i in range(3):
            for j in range(3):
                ni, nj = np.linalg.norm(vectors[i]), np.linalg.norm(vectors[j])
                assert matrix[i, j] == pytest.approx(float(vectors[i] @ vectors[j] / (ni * nj)), abs=1e-15)

    def test_unknown_date_rejected(self):
        frame = frame_of(np.ones((2, 2)))
        with pytest.raises(ValueError, match="no embeddings"):
            similarity_matrix(frame, 12345)


class TestJacobi:
    def test_hand_built_covariance(self):
        theta = 0.3
        rotation = np.array(
            [
                [math.cos(theta), -math.sin(theta), 0.0],
                [math.sin(theta), math.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        eigenvalues = np.array([4.0, 1.0, 0.25])
        cov = rotation @ np.diag(eigenvalues) @ rotation.T
        values, vectors = symmetric_eigh_jacobi(cov)
        assert np.abs(values - eigenvalues).max() < 1e-9
        for j in range(3):
            assert min(np.abs(vectors[:, j] - rotation[:, j]).max(), np.abs(vectors[:, j] + rotation[:, j]).max()) < 1e-9

    def test_matches_numpy_on_random_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            a = rng.standard_normal((n, n))
            s = (a + a.T) / 2.0
            values, vectors = symmetric_eigh_jacobi(s)
            assert np.abs(values - np.sort(np.linalg.eigvalsh(s))[::-1]).max() < 1e-10
            assert np.abs(vectors.T @ vectors - np.eye(n)).max() < 1e-10
            assert np.abs(vectors @ np.diag(values) @ vectors.T - s).max() < 1e-10

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_eigh_jacobi(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestPca:
    def test_collinear_data_has_negligible_second_variance(self):
        rng = np.random.default_rng(4)
        direction = rng.standard_normal(15)
        coeffs = rng.standard_normal(40)
        frame = frame_of(np.outer(coeffs, direction))
        projection = pca_project(frame, 2)
        total = projection.explained_variance.sum()
        assert projection.explained_variance[1] < 1e-10 * total

    def test_components_orthonormal_and_ordered(self):
        rng = np.random.default_rng(5)
        frame = frame_of(rng.standard_normal((30, 6)))
        projection = pca_project(frame, 3)
        gram = projection.components @ projection.components.T
        assert np.abs(gram - np.eye(3)).max() < 1e-10
        assert np.all(np.diff(projection.explained_variance) <= 1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(6)
        frame = frame_of(rng.standard_normal((25, 4)))
        projection = pca_project(frame, 2)
        for row in projection.components:
            assert row[np.argmax(np.abs(row))] > 0.0

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((40, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.1])
        theta = 0.7
        rotation = np.eye(5)
        rotation[0, 0] = rotation[1, 1] = math.cos(theta)
        rotation[0, 1], rotation[1, 0] = -math.sin(theta), math.sin(theta)
        base = pca_project(frame_of(data), 2)
        rotated = pca_project(frame_of(data @ rotation.T), 2)
        # coordinates agree up to the per-component sign convention
        for j in range(2):
            col, ref = rotated.coordinates[..., j], base.coordinates[..., j]
            assert min(np.abs(col - ref).max(), np.abs(col + ref).max()) < 1e-8

    def test_insufficient_rank_returns_fewer_components(self, caplog):
        frame = frame_of(np.random.default_rng(8).standard_normal((10, 3)))
        with caplog.at_level(logging.WARNING):
            projection = pca_project(frame, 4)
        assert projection.coordinates.shape[2] == 3  # clamped to the feature dimension
        assert "components" in caplog.text

    def test_too_few_samples_rejected(self):
        frame = frame_of(np.ones((2, 3)))
        with pytest.raises(ValueError, match="at least"):
            pca_project(frame, 2)


class TestArtifacts:
    def test_embeddings_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        for universe in (("A", "B", "C"), ("C", "A", "B")):  # the writer keeps an unsorted universe's order
            vectors = rng.standard_normal((2, 3, 3)) * 10.0 ** rng.integers(-300, 300, (2, 3, 3))
            frame = frame_of(vectors, universe=universe, ends=(1, 2))
            write_embeddings_csv(frame, tmp_path / "e.csv")
            loaded = load_embeddings_csv(tmp_path / "e.csv")
            assert (loaded.universe, loaded.window_ends) == (universe, (1, 2))
            assert np.array_equal(loaded.vectors, frame.vectors)

    @pytest.mark.parametrize(
        "edit, row, message",
        [
            ("missing", 5, "expected asset 'B' at window end 2, got 'C' at 2"),
            ("duplicated", 5, "expected asset 'B' at window end 2, got 'A' at 2"),
            ("duplicated_first_date", 2, "expected a date after 1, got 'A' at 1"),
            ("out_of_order", 4, "expected a date after 2, got 'A' at 1"),
            ("missing_last", 6, "missing asset 'C' at window end 2"),
        ],
    )
    def test_embeddings_csv_must_be_a_complete_date_major_grid(self, tmp_path, edit, row, message):
        write_embeddings_csv(frame_of(np.ones((2, 3, 2)), universe=("A", "B", "C"), ends=(1, 2)), tmp_path / "e.csv")
        header, *lines = (tmp_path / "e.csv").read_text(encoding="utf-8").splitlines()
        if edit == "missing":
            del lines[4]
        elif edit == "duplicated":
            lines.insert(4, lines[3])
        elif edit == "duplicated_first_date":
            lines.insert(1, lines[0])
        elif edit == "out_of_order":
            lines = lines[3:] + lines[:3]
        else:
            del lines[5]
        (tmp_path / "e.csv").write_text("\r\n".join([header, *lines]) + "\r\n", encoding="utf-8", newline="")
        with pytest.raises(ValueError) as excinfo:
            load_embeddings_csv(tmp_path / "e.csv")
        assert str(excinfo.value) == f"e.csv: row {row}: {message}"

    def test_embeddings_and_pca_csv_match_csv_writer_oracle(self, tmp_path):
        universe, ends = ("B,B", "A"), (1, 2)
        values = np.array([[[0.1, -2.0], [1e-05, 3.0]], [[2.0 / 3.0, 0.0], [-1.5, 7.0]]])

        def oracle(columns):
            expected = io.StringIO()
            writer = csv.writer(expected)
            writer.writerow(["asset", "window_end", *columns])
            for d, end in enumerate(ends):  # date by date, in universe order
                for a, asset in enumerate(universe):
                    writer.writerow([asset, end, *(repr(float(v)) for v in values[d, a])])
            return expected.getvalue().encode("utf-8")

        write_embeddings_csv(frame_of(values, universe=universe, ends=ends), tmp_path / "e.csv")
        assert (tmp_path / "e.csv").read_bytes() == oracle(["z0", "z1"])
        projection = PcaProjection(universe, ends, values, np.eye(2), np.ones(2))
        write_pca_csv(projection, tmp_path / "pca.csv")
        assert (tmp_path / "pca.csv").read_bytes() == oracle(["pc1", "pc2"])

    def test_link_count_summary_shape(self, tmp_path):
        panel = tiny_panel(rows=60)
        config = tiny_config(panel, n_dates=3)
        result = run_dynamic_fusion(config, panel)
        summary = link_count_summary(result.graphs)
        assert set(summary) == {"d1_T0"}
        entry = summary["d1_T0"]
        assert set(entry["summary"]) == {"min", "q25", "median", "q75", "max"}
        assert len(entry["per_date"]) == 3
