import csv
import io
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from oracles import lagged_mi_matrix_reference, mi_bits_oracle
from leadlag_fuse import leadlag
from leadlag_fuse.infotheory import MiTestConfig, discretize_equal_frequency, significance_threshold
from leadlag_fuse.leadlag import (
    LagSpec,
    LeadLagGraph,
    binarize,
    build_graph,
    constant_columns,
    count_validated_links,
    lagged_mi_matrix,
    shift_split,
    symmetrize,
    validate_links,
    write_graph,
)
from leadlag_fuse.market_data import MS_PER_MINUTE, ReturnMatrix
from leadlag_fuse.pipeline import RunConfig, load_graph_artifacts, write_graph_artifacts

T0 = 1_609_459_200_000


def make_returns(matrix, period_minutes=1):
    matrix = np.asarray(matrix, dtype=float)
    ts = T0 + period_minutes * MS_PER_MINUTE * np.arange(1, matrix.shape[0] + 1)
    assets = tuple(f"A{i:02d}" for i in range(matrix.shape[1]))
    return ReturnMatrix(period_minutes, ts, assets, matrix)


def planted_returns(seed, rows=1442, n=12, t_star=1, coupling=0.8, noise=0.5):
    """Follower (col 1) copies the leader (col 0) at lag t_star plus noise."""
    rng = np.random.default_rng(seed)
    r = 0.001 * rng.standard_normal((rows, n))
    r[t_star:, 1] = coupling * r[:-t_star, 0] + noise * 0.001 * rng.standard_normal(rows - t_star)
    return make_returns(r)


class TestShiftSplit:
    def test_zero_lag_is_identity(self):
        rm = make_returns(np.arange(10.0).reshape(5, 2))
        past, future = shift_split(rm, 0)
        assert np.array_equal(past, rm.returns)
        assert np.array_equal(future, rm.returns)

    def test_index_arithmetic(self):
        rm = make_returns(np.arange(10.0).reshape(5, 2))
        past, future = shift_split(rm, 2)
        assert np.array_equal(past, rm.returns[[0, 1, 2]])
        assert np.array_equal(future, rm.returns[[2, 3, 4]])

    def test_lag_too_large_rejected(self):
        rm = make_returns(np.arange(10.0).reshape(5, 2))
        with pytest.raises(ValueError, match="overlap"):
            shift_split(rm, 5)


class TestLaggedMiMatrix:
    def test_planted_copy_has_full_entropy(self):
        # follower is an exact lag-2 copy; overlap length 16 is divisible by 4
        rng = np.random.default_rng(8)
        leader = rng.standard_normal(18)
        follower = np.zeros(18)
        follower[2:] = leader[:-2]
        rm = make_returns(np.column_stack([leader, follower]))
        mi = lagged_mi_matrix(rm, 2, states=4)
        assert mi[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_diagonal_at_zero_lag_is_entropy(self):
        rng = np.random.default_rng(9)
        rm = make_returns(rng.standard_normal((16, 3)))
        mi = lagged_mi_matrix(rm, 0, states=4)
        assert np.allclose(np.diag(mi), 2.0, atol=1e-12)

    def test_matches_per_pair_oracle(self):
        rng = np.random.default_rng(10)
        rm = make_returns(rng.standard_normal((24, 3)))
        lag = 1
        mi = lagged_mi_matrix(rm, lag, states=4)
        past, future = shift_split(rm, lag)
        for m in range(3):
            xs = discretize_equal_frequency(past[:, m], 4).states.tolist()
            for q in range(3):
                ys = discretize_equal_frequency(future[:, q], 4).states.tolist()
                assert mi[m, q] == pytest.approx(mi_bits_oracle(xs, ys, 4, 4), abs=1e-12)

    def test_iid_noise_yields_no_links(self):
        rng = np.random.default_rng(12)
        rm = make_returns(rng.standard_normal((1441, 6)))
        cfg = MiTestConfig(4, 4, 1440, 0.01, 36)
        validated = validate_links(lagged_mi_matrix(rm, 1, 4), significance_threshold(cfg))
        assert count_validated_links(validated) == 0

    def test_zero_lag_graph_equals_transpose(self):
        rng = np.random.default_rng(13)
        rm = make_returns(rng.standard_normal((200, 4)))
        mi = lagged_mi_matrix(rm, 0, 4)
        assert np.allclose(mi, mi.T, atol=1e-12)
        graph = build_graph(rm, LagSpec(1, 0), int(rm.timestamps[-1]), 0.01)
        assert np.array_equal(graph.weights, graph.weights.T)


def oracle_mi_matrix(rm, lag, states=4):
    """Per-pair MI from per-column 1-D discretization and the pure-python oracle."""
    past, future = shift_split(rm, lag)
    n = past.shape[1]
    xs = [discretize_equal_frequency(past[:, m], states).states.tolist() for m in range(n)]
    ys = [discretize_equal_frequency(future[:, q], states).states.tolist() for q in range(n)]
    return np.array([[mi_bits_oracle(xs[m], ys[q], states, states) for q in range(n)] for m in range(n)])


def illiquid_returns(seed, rows, n, zero_share=0.8):
    """Gaussian returns; the first half of the columns are zero in ~zero_share of rows."""
    rng = np.random.default_rng(seed)
    r = 0.001 * rng.standard_normal((rows, n))
    flat = n // 2 + n % 2
    r[:, :flat][rng.random((rows, flat)) < zero_share] = 0.0
    return r


class TestBlockKernel:
    @pytest.mark.parametrize("lag", [0, 2])
    @pytest.mark.parametrize(
        "rows, n, constant",
        [(37, 6, None), (30, 4, 2), (18, leadlag._SOURCE_BLOCK + 1, None), (25, 1, None)],
        ids=["ties", "constant-column", "partial-source-block", "single-asset"],
    )
    def test_matches_per_pair_oracle(self, lag, rows, n, constant):
        r = illiquid_returns(20, rows, n)
        if constant is not None:
            r[:, constant] = 0.0
        rm = make_returns(r)
        mi = lagged_mi_matrix(rm, lag, 4)
        assert mi.shape == (n, n)
        assert np.allclose(mi, oracle_mi_matrix(rm, lag), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("lag", range(4))
    @pytest.mark.parametrize("n", [1, 32, 33, 200])
    @pytest.mark.parametrize("states", range(1, 10))
    def test_equals_full_table_reference(self, states, n, lag):
        # (S-1)-state GEMMs plus marginal fix-ups against all S x S cells from S-state GEMMs
        r = illiquid_returns(100 * states + n + lag, 5 * states + lag + 4, n)
        r[:, n // 2 :][np.random.default_rng(n).random((r.shape[0], n - n // 2)) < 0.3] = 0.0
        r[:, -1] = 0.0  # a constant column
        rm = make_returns(r)
        assert np.array_equal(lagged_mi_matrix(rm, lag, states), lagged_mi_matrix_reference(rm, lag, states))

    @pytest.mark.parametrize("lag, calls", [(0, 1), (1, 2), (2, 2)])
    def test_one_discretization_per_block(self, monkeypatch, lag, calls):
        seen = []

        def counting(values, states=4):
            seen.append(np.shape(values))
            return discretize_equal_frequency(values, states)

        monkeypatch.setattr(leadlag, "discretize_equal_frequency", counting)
        lagged_mi_matrix(make_returns(illiquid_returns(24, 40, 5)), lag, 4)
        assert seen == [(40 - lag, 5)] * calls

    def test_float32_counts_exact_to_the_row_bound(self):
        bound = leadlag._EXACT_COUNT_ROWS
        assert bound == 2**24
        assert np.float32(bound - 1) + np.float32(1) == np.float32(bound)
        assert np.float32(bound) + np.float32(1) == np.float32(bound)  # one past the bound is lost

    def test_window_beyond_exact_counts_rejected(self, monkeypatch):
        monkeypatch.setattr(leadlag, "_EXACT_COUNT_ROWS", 10)
        rm = make_returns(illiquid_returns(25, 12, 3))
        assert lagged_mi_matrix(rm, 2, 4).shape == (3, 3)  # 10 overlapping rows: at the bound
        with pytest.raises(ValueError, match="11 overlapping rows exceed 10"):
            lagged_mi_matrix(rm, 1, 4)

    def test_wide_graph_memory_budget(self):
        # One 200-asset graph over a day of minutes peaks at 11.7 MiB (11.4 MiB
        # with the earlier per-row bincount); taking all sources in one GEMM,
        # with the full n x n x S x S counts and MI terms, peaks at 37 MiB.
        rm = make_returns(illiquid_returns(26, 1441, 200, zero_share=0.0))
        tracemalloc.start()
        try:
            lagged_mi_matrix(rm, 1, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestValidation:
    def test_filter_then_symmetrize(self):
        cfg = MiTestConfig(4, 4, 1000, 0.01, 1)  # threshold ~= 0.015 bits
        threshold = significance_threshold(cfg)
        assert threshold < 0.9
        c = np.array([[0.5, 0.9], [0.0, 0.5]])
        weights = symmetrize(validate_links(c, significance_threshold(cfg)))
        assert np.array_equal(weights, np.array([[0.0, 0.45], [0.45, 0.0]]))

    def test_all_below_threshold_gives_empty_graph(self):
        cfg = MiTestConfig(4, 4, 100, 0.01, 1)
        c = np.full((3, 3), 1e-6)
        assert np.all(symmetrize(validate_links(c, significance_threshold(cfg))) == 0.0)

    def test_symmetric_significant_matrix_is_fixed_point(self):
        cfg = MiTestConfig(4, 4, 1000, 0.01, 1)
        c = np.array([[0.0, 0.8, 0.6], [0.8, 0.0, 0.7], [0.6, 0.7, 0.0]])
        assert np.array_equal(symmetrize(validate_links(c, significance_threshold(cfg))), c)

    def test_output_bitwise_symmetric(self):
        rng = np.random.default_rng(14)
        cfg = MiTestConfig(4, 4, 1000, 0.01, 1)
        for _ in range(10):
            c = rng.random((6, 6))
            weights = symmetrize(validate_links(c, significance_threshold(cfg)))
            assert np.array_equal(weights, weights.T)

    def test_directed_count(self):
        v = np.zeros((3, 3))
        assert count_validated_links(v) == 0
        v[0, 1] = v[1, 0] = 0.5
        assert count_validated_links(v) == 2

    def test_planted_one_way_link_counted_once(self):
        rm = planted_returns(123, rows=722, n=2, coupling=0.9, noise=0.2)
        counts = {}
        for lag in range(3):
            cfg = MiTestConfig(4, 4, 722 - lag, 0.01, 4)
            validated = validate_links(lagged_mi_matrix(rm, lag, 4), significance_threshold(cfg))
            counts[lag] = count_validated_links(validated)
        assert counts == {0: 0, 1: 1, 2: 0}


class TestBinarize:
    def test_all_isolated_gives_identity(self):
        assert np.array_equal(binarize(np.zeros((3, 3))), np.eye(3, dtype=int))

    def test_single_edge_with_isolated_node(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 0.4
        adjacency = binarize(w)
        expected = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert np.array_equal(adjacency, expected)

    def test_complete_weights(self):
        w = np.ones((4, 4)) - np.eye(4)
        adjacency = binarize(w)
        assert np.array_equal(adjacency, (np.ones((4, 4)) - np.eye(4)).astype(int))

    def test_every_row_has_an_edge(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            w = rng.random((5, 5)) * (rng.random((5, 5)) > 0.7)
            w = (w + w.T) / 2.0
            np.fill_diagonal(w, 0.0)
            assert np.all(binarize(w).sum(axis=1) >= 1)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            binarize(np.eye(3))


class TestPlantedLagPower:
    def test_detection_and_false_positives_over_seeds(self):
        # 12 assets, N=1440 post-shift samples, planted coupling at T*=1;
        # detection must hold for every seed and the other lags must be clean
        # in at least 95% of seeds.
        detections = 0
        clean_seeds = 0
        seeds = range(20)
        for seed in seeds:
            rm = planted_returns(seed)
            rows = rm.returns.shape[0]
            false_positives = 0
            detected = False
            for lag in range(4):
                cfg = MiTestConfig(4, 4, rows - lag, 0.01, 144)
                validated = validate_links(lagged_mi_matrix(rm, lag, 4), significance_threshold(cfg))
                count = count_validated_links(validated)
                if lag == 1:
                    detected = validated[0, 1] > 0.0
                    false_positives += count - int(detected)
                else:
                    false_positives += count
            detections += detected
            clean_seeds += false_positives == 0
        assert detections == len(list(seeds))
        assert clean_seeds >= 0.95 * len(list(seeds))


class TestGraphConstruction:
    def test_sample_size_excludes_lag(self):
        rng = np.random.default_rng(16)
        rm = make_returns(rng.standard_normal((100, 3)))
        for lag in (0, 1, 2):
            graph = build_graph(rm, LagSpec(1, lag), int(rm.timestamps[-1]), 0.01)
            assert graph.sample_size == 100 - lag

    def test_constant_column_flagged(self):
        rng = np.random.default_rng(17)
        r = rng.standard_normal((50, 3))
        r[:, 2] = 0.0
        rm = make_returns(r)
        assert constant_columns(rm) == ["A02"]
        # the estimator stays defined: graph construction does not raise
        build_graph(rm, LagSpec(1, 1), int(rm.timestamps[-1]), 0.01)

    def test_illiquid_and_constant_columns_are_not_linked(self):
        # two independent 80%-zero columns and a constant one: their ties must not read as dependence
        rng = np.random.default_rng(3)
        r = 0.001 * rng.standard_normal((1440, 3))
        r[:, :2][rng.random((1440, 2)) < 0.8] = 0.0
        r[:, 2] = 0.0
        rm = make_returns(r)
        mi = lagged_mi_matrix(rm, 1, 4)
        assert mi.max() <= 0.01
        assert not mi[2].any() and not mi[:, 2].any()
        assert build_graph(rm, LagSpec(1, 1), int(rm.timestamps[-1]), 0.01).validated_link_count == 0

    def test_write_load_round_trip(self, tmp_path):
        rm = planted_returns(5, rows=722, n=4, coupling=0.9, noise=0.2)
        end = int(rm.timestamps[-1])
        graphs = [build_graph(rm, LagSpec(1, 1), end, 0.01), build_graph(rm, LagSpec(1, 0, window_rows=722), end, 0.01)]
        assert graphs[0].validated_link_count > 0
        config = RunConfig(specs=[g.spec for g in graphs])
        write_graph_artifacts(graphs, tmp_path, config)
        loaded = load_graph_artifacts(tmp_path, config)
        assert len(loaded) == len(graphs)
        for graph, back in zip(graphs, loaded):
            for f in fields(LeadLagGraph):
                value, read = getattr(graph, f.name), getattr(back, f.name)
                assert np.array_equal(read, value) if isinstance(value, np.ndarray) else read == value, f.name

    def test_edge_list_matches_csv_writer_oracle(self, tmp_path):
        assets = ("A", "B,B", "C", "D")
        weights = np.zeros((4, 4))
        for i, j, w in [(0, 1, 1e-05), (0, 3, 0.5), (1, 2, 2.0 / 3.0), (2, 3, 1.25e-300)]:
            weights[i, j] = weights[j, i] = w
        graph = LeadLagGraph(LagSpec(1, 1), T0, assets, weights, weights > 0, 8, 99, 0.01)
        write_graph(graph, tmp_path / "g.csv")
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["source", "target", "weight"])
        for i in range(4):
            for j in range(i + 1, 4):
                if weights[i, j] > 0.0:
                    writer.writerow([assets[i], assets[j], repr(float(weights[i, j]))])
        assert (tmp_path / "g.csv").read_bytes() == expected.getvalue().encode("utf-8")
        assert b'"B,B"' in (tmp_path / "g.csv").read_bytes()

    def test_lag_spec_validation(self):
        with pytest.raises(ValueError):
            LagSpec(0, 1)
        with pytest.raises(ValueError):
            LagSpec(1, -1)
        assert LagSpec(5, 2).tag == "d5_T2"
