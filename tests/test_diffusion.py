import numpy as np
import pytest

from oracles import rwr_oracle
from leadlag_fuse.diffusion import (
    NodeFeatureSet,
    RwrConfig,
    node_features,
    ppmi,
    row_normalize,
    rwr_accumulate,
    rwr_steps,
)

RING4 = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])


class TestRowNormalize:
    def test_identity(self):
        assert np.array_equal(row_normalize(np.eye(3)), np.eye(3))

    def test_complete_graph(self):
        a = np.ones((3, 3)) - np.eye(3)
        expected = (np.ones((3, 3)) - np.eye(3)) / 2.0
        assert np.allclose(row_normalize(a), expected)

    def test_star_center(self):
        a = np.zeros((4, 4), dtype=int)
        a[0, 1:] = 1
        a[1:, 0] = 1
        t = row_normalize(a)
        assert np.allclose(t[0, 1:], 1.0 / 3.0)
        assert np.allclose(t[1:, 0], 1.0)

    def test_zero_row_rejected(self):
        a = np.array([[0, 1], [0, 0]])
        with pytest.raises(ValueError, match="row 1"):
            row_normalize(a)


class TestRwr:
    def test_isolated_node_accumulates_restarts(self):
        v = rwr_accumulate(np.array([[1]]), RwrConfig(0.5, 3))
        assert np.array_equal(v, np.array([[3.0]]))

    def test_two_node_single_step(self):
        v = rwr_accumulate(np.array([[0, 1], [1, 0]]), RwrConfig(0.5, 1))
        assert np.array_equal(v, np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_ring_matches_scalar_oracle(self):
        cfg = RwrConfig(0.8, 3)
        ours = rwr_accumulate(RING4, cfg)
        assert np.abs(ours - rwr_oracle(RING4, 0.8, 3)).max() <= 1e-12

    def test_steps_are_probability_vectors(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            w = (rng.random((n, n)) > 0.5).astype(int)
            w = np.maximum(w, w.T)
            np.fill_diagonal(w, 0)
            isolated = w.sum(axis=1) == 0
            w[isolated, isolated] = 1
            for p in rwr_steps(w, RwrConfig(0.9, 4)):
                assert np.all(p >= 0.0)
                assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12

    def test_rows_sum_to_step_count(self):
        for steps in (1, 3, 7):
            v = rwr_accumulate(RING4, RwrConfig(0.98, steps))
            assert np.abs(v.sum(axis=1) - steps).max() <= 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RwrConfig(1.0, 3)
        with pytest.raises(ValueError):
            RwrConfig(0.5, 0)


class TestPpmi:
    def test_uniform_mass_gives_zero_matrix(self):
        v = np.full((5, 5), 3.0 / 5.0)
        assert np.all(ppmi(v) == 0.0)

    def test_concentrated_mass_gives_log_n(self):
        n = 5
        p = ppmi(3.0 * np.eye(n))
        assert np.allclose(np.diag(p), np.log(n), atol=1e-12)
        off = p[~np.eye(n, dtype=bool)]
        assert np.all(off == 0.0)

    def test_equivalent_to_probabilistic_form(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            raw = rng.random((n, n)) + 0.01
            v = raw / raw.sum(axis=1, keepdims=True) * 3.0  # constant row sums
            normalized = v / v.sum()
            px = normalized.sum(axis=1, keepdims=True)
            py = normalized.sum(axis=0, keepdims=True)
            reference = np.maximum(0.0, np.log(normalized / (px * py)))
            assert np.abs(ppmi(v) - reference).max() <= 1e-12

    def test_invariant_under_rescaling(self):
        rng = np.random.default_rng(8)
        v = rng.random((6, 6))
        for c in (0.5, 3.0, 1e6):
            assert np.abs(ppmi(c * v) - ppmi(v)).max() <= 1e-12

    def test_nonnegative_output(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = rng.random((5, 5)) * (rng.random((5, 5)) > 0.4)
            assert np.all(ppmi(v) >= 0.0)

    def test_rejects_negative_input(self):
        with pytest.raises(ValueError):
            ppmi(np.array([[1.0, -0.1], [0.2, 0.3]]))


class TestNodeFeatures:
    def test_feature_set_invariants_enforced(self):
        features = node_features(RING4, RwrConfig(0.8, 3), "ring")
        assert features.graph_id == "ring"
        assert np.abs(features.rwr.sum(axis=1) - 3.0).max() <= 1e-9
        assert np.all(features.ppmi >= 0.0)
        with pytest.raises(ValueError, match="sum"):
            NodeFeatureSet(rwr=np.array([[1.0, 0.0], [5.0, 1.0]]), ppmi=np.zeros((2, 2)), graph_id="bad")
