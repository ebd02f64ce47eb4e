import math

import numpy as np
import pytest
from scipy import integrate, stats

from oracles import discretize_reference, mi_bits_from_counts_reference, mi_bits_oracle
from leadlag_fuse.infotheory import (
    DiscreteSeries,
    MiTestConfig,
    _chi2_isf,
    _mi_bits_from_counts,
    _sum_first_axis,
    discretize_equal_frequency,
    gamma_cdf,
    gamma_quantile,
    mutual_information_bits,
    significance_threshold,
)
from leadlag_fuse.leadlag import validate_links

# value computed once with mi_bits_oracle on the contingency table below
INTERLEAVED_COUNTS = [[2, 1, 0, 1], [0, 3, 1, 0], [1, 0, 2, 1], [1, 0, 1, 2]]
INTERLEAVED_MI_BITS = 0.6721804688852168


def series(values, cardinality):
    return DiscreteSeries(states=np.asarray(values), cardinality=cardinality)


class TestDiscretize:
    def test_rank_order(self):
        assert discretize_equal_frequency([3.0, 1.0, 4.0, 2.0], 4).states.tolist() == [2, 0, 3, 1]

    def test_constant_series_has_one_state(self):
        assert discretize_equal_frequency([5.0, 5.0, 5.0, 5.0], 4).states.tolist() == [0, 0, 0, 0]

    def test_equal_frequency_counts(self):
        d = discretize_equal_frequency(np.random.default_rng(0).random(8), 4)
        assert np.bincount(d.states, minlength=4).tolist() == [2, 2, 2, 2]

    @pytest.mark.parametrize("n", [5, 17, 100, 101, 102, 103])
    def test_counts_differ_by_at_most_one(self, n):
        d = discretize_equal_frequency(np.random.default_rng(n).random(n), 4)
        counts = np.bincount(d.states, minlength=4)
        assert counts.min() >= n // 4
        assert counts.max() <= -(-n // 4)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            discretize_equal_frequency([1.0, 2.0, 3.0], 4)

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError, match="cannot bin 2 non-finite values"):
            discretize_equal_frequency([1.0, np.nan, 0.5, 2.0, -1.0, np.inf, 3.0, 0.0], 4)
        block = np.ones((6, 3))
        block[4, 1] = -np.inf
        with pytest.raises(ValueError, match="cannot bin 1 non-finite values"):
            discretize_equal_frequency(block, 2)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            values = rng.standard_normal(37)
            base = discretize_equal_frequency(values, 4).states
            for transform in (np.exp, lambda v: v**3, lambda v: 5.0 * v - 2.0):
                assert np.array_equal(discretize_equal_frequency(transform(values), 4).states, base)


class TestDiscretizeBlock:
    def block(self):
        rng = np.random.default_rng(30)
        b = rng.standard_normal((61, 6))
        b[:, :3][rng.random((61, 3)) < 0.8] = 0.0  # illiquid columns: ties
        b[:, 3] = 2.5  # constant column
        b[:, 4] = np.repeat([1.0, -1.0, 0.5], [20, 21, 20])  # long runs of ties
        return b

    def test_block_equals_columns(self):
        b = self.block()
        d = discretize_equal_frequency(b, 4)
        assert d.states.shape == b.shape
        assert len(d) == b.shape[0]
        for j in range(b.shape[1]):
            assert np.array_equal(d.states[:, j], discretize_equal_frequency(b[:, j], 4).states)

    def test_single_column_block_equals_series(self):
        values = self.block()[:, 0]
        column = discretize_equal_frequency(values[:, np.newaxis], 4).states
        assert np.array_equal(column[:, 0], discretize_equal_frequency(values, 4).states)

    def test_block_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            discretize_equal_frequency(np.zeros((3, 5)), 4)

    def test_three_dimensional_rejected(self):
        with pytest.raises(ValueError, match="block"):
            discretize_equal_frequency(np.zeros((8, 2, 2)), 4)

    def test_mutual_information_rejects_blocks(self):
        d = discretize_equal_frequency(self.block(), 4)
        with pytest.raises(ValueError, match="two series"):
            mutual_information_bits(d, d)


def _reference_grid_blocks():
    """Blocks of the reference grid: N not divisible by S, 30% and 80% ties, a constant column, signed zeros."""
    rng = np.random.default_rng(2024)
    for states in range(1, 10):
        rows = 7 * states + 3  # never a multiple of states above 1
        for kind in ("distinct", "ties30", "ties80", "constant", "signed-zeros"):
            block = rng.standard_normal((rows, 6))
            if kind == "ties30":
                block[rng.random(block.shape) < 0.3] = 0.0
            elif kind == "ties80":
                block[rng.random(block.shape) < 0.8] = 0.0
            elif kind == "constant":
                block[:, 2] = 0.25
            elif kind == "signed-zeros":
                block = rng.integers(-2, 3, block.shape).astype(float)
                block[(block == 0.0) & (rng.random(block.shape) < 0.5)] = -0.0
            yield states, kind, block


class TestKernelsMatchReferences:
    """The binning and MI-from-counts kernels equal the direct formulas of ``oracles`` bit for bit."""

    @pytest.mark.parametrize("states, kind, block", list(_reference_grid_blocks()))
    def test_binning_equals_stable_rank_binning(self, states, kind, block):
        assert np.array_equal(discretize_equal_frequency(block, states).states, discretize_reference(block, states))
        for column in block.T:
            assert np.array_equal(discretize_equal_frequency(column, states).states, discretize_reference(column, states))

    def test_tied_values_share_a_state(self):
        values = [0.0, 1.0, 0.0, -1.0, 0.0, 0.0, -0.0, 2.0]  # -0.0 ties with 0.0
        assert discretize_equal_frequency(values, 4).states.tolist() == [0, 3, 0, 0, 0, 0, 0, 3]

    @pytest.mark.parametrize("kind", ["ties30", "ties80", "constant", "signed-zeros"])
    def test_states_follow_rows_under_permutation(self, kind):
        block = next(block for states, k, block in _reference_grid_blocks() if states == 4 and k == kind)
        rows = np.random.default_rng(7).permutation(block.shape[0])
        permuted = discretize_equal_frequency(block[rows], 4).states
        assert np.array_equal(permuted, discretize_equal_frequency(block, 4).states[rows])

    @pytest.mark.parametrize("states", [*range(1, 10), 12, 16])
    def test_mi_from_counts_equals_direct_formula(self, states):
        # S = 12 and 16 give tables of more than 128 cells, whose sums numpy splits in halves
        rng = np.random.default_rng(states)
        counts = rng.integers(0, 60, (5, 7, states, states)).astype(float)
        counts[..., 0, 0] += 1.0  # every table holds a count
        counts[0, 0, 1:] = 0.0  # every source state but the first is empty
        counts[1, 2, :, 1:] = 0.0  # every target state but the first is empty
        counts[2, 3] = rng.integers(1, 1000) * np.eye(states)  # fully dependent
        cells = np.moveaxis(counts, (-2, -1), (0, 1))
        totals = counts.sum(axis=(-2, -1))
        assert np.array_equal(_mi_bits_from_counts(cells, totals), mi_bits_from_counts_reference(counts))
        for table in counts[:, 0]:
            assert np.array_equal(_mi_bits_from_counts(table, table.sum()), mi_bits_from_counts_reference(table))

    def test_sum_first_axis_follows_numpy_reduction_order(self):
        # The MI kernel mirrors np.add.reduce's order over a contiguous axis; under a numpy that
        # adds in another order this fails first, ahead of the kernels' reference tests.
        rng = np.random.default_rng(31)
        for n in range(1, 301):
            values = rng.standard_normal((n, 40)) * 10.0 ** rng.uniform(-6.0, 6.0, (n, 40))
            expected = np.add.reduce(np.ascontiguousarray(values.T), axis=-1)
            assert np.array_equal(_sum_first_axis(values).view(np.int64), expected.view(np.int64)), n


class TestMutualInformation:
    def test_self_information_is_two_bits(self):
        x = discretize_equal_frequency(np.arange(8.0), 4)
        assert mutual_information_bits(x, x) == pytest.approx(2.0, abs=1e-12)

    def test_factorizing_joint_gives_zero(self):
        x = series([0, 0, 1, 1], 2)
        y = series([0, 1, 0, 1], 2)
        assert mutual_information_bits(x, y) == 0.0

    def test_interleaved_16_against_oracle(self):
        xs, ys = [], []
        for a in range(4):
            for b in range(4):
                xs += [a] * INTERLEAVED_COUNTS[a][b]
                ys += [b] * INTERLEAVED_COUNTS[a][b]
        ours = mutual_information_bits(series(xs, 4), series(ys, 4))
        assert ours == pytest.approx(INTERLEAVED_MI_BITS, abs=1e-12)
        assert ours == pytest.approx(mi_bits_oracle(xs, ys, 4, 4), abs=1e-12)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(8, 120))
            xs = rng.integers(0, 4, n)
            ys = rng.integers(0, 4, n)
            ours = mutual_information_bits(series(xs, 4), series(ys, 4))
            assert ours == pytest.approx(mi_bits_oracle(xs.tolist(), ys.tolist(), 4, 4), abs=1e-12)

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            xs = series(rng.integers(0, 4, 64), 4)
            ys = series(rng.integers(0, 3, 64), 3)
            forward = mutual_information_bits(xs, ys)
            backward = mutual_information_bits(ys, xs)
            assert forward >= 0.0
            assert forward == pytest.approx(backward, abs=1e-12)

    def test_invariant_under_state_relabeling(self):
        rng = np.random.default_rng(4)
        xs = rng.integers(0, 4, 80)
        ys = rng.integers(0, 4, 80)
        base = mutual_information_bits(series(xs, 4), series(ys, 4))
        perm = rng.permutation(4)
        relabeled = mutual_information_bits(series(perm[xs], 4), series(ys, 4))
        assert relabeled == pytest.approx(base, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            mutual_information_bits(series([0, 1], 2), series([0, 1, 0], 2))


class TestGammaCdf:
    def test_zero_is_zero(self):
        assert gamma_cdf(0.0, 4.5, 0.001) == 0.0

    def test_infinity_is_one(self):
        for alpha in (0.5, 1.0, 4.5):
            assert gamma_cdf(math.inf, alpha, 0.001) == 1.0
            assert gamma_cdf(1e308, alpha, 1.0) == 1.0

    def test_exponential_special_case(self):
        assert gamma_cdf(2.0, 1.0, 2.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_against_quadrature_oracle(self):
        alpha, beta, x = 4.5, 0.001, 0.0045
        density = lambda t: t ** (alpha - 1) * math.exp(-t / beta) / (math.gamma(alpha) * beta**alpha)
        expected, quad_err = integrate.quad(density, 0.0, x, epsabs=1e-13, limit=200)
        assert quad_err < 1e-8
        assert gamma_cdf(x, alpha, beta) == pytest.approx(expected, abs=1e-10)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 5.0, 200)
        values = [gamma_cdf(float(x), 2.5, 0.7) for x in xs]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_against_scipy_for_every_half_integer_shape(self):
        for alpha in np.arange(1, 65) / 2.0:
            for beta in (0.3, 1.0, 2.5):
                x = np.concatenate([[0.0], np.logspace(-3, 2.5, 40)])
                ours = [gamma_cdf(float(v), float(alpha), beta) for v in x]
                assert np.abs(np.subtract(ours, stats.gamma.cdf(x, alpha, scale=beta))).max() <= 1e-14

    @pytest.mark.parametrize("alpha", [0.7, 0.0, 1.25, math.nan])
    def test_shape_off_the_half_integers_rejected(self, alpha):
        with pytest.raises(ValueError, match="positive multiple of 1/2"):
            gamma_cdf(1.0, alpha, 1.0)
        with pytest.raises(ValueError, match="positive multiple of 1/2"):
            gamma_quantile(0.5, alpha, 1.0)

    @pytest.mark.parametrize("bad", [(-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0)])
    def test_domain_violations_rejected(self, bad):
        x, alpha, beta = bad
        with pytest.raises(ValueError):
            gamma_cdf(x, alpha, beta)


class TestGammaQuantile:
    def test_exponential_closed_form(self):
        assert gamma_quantile(0.95, 1.0, 1.0) == pytest.approx(-math.log(0.05), abs=1e-9)
        assert gamma_quantile(0.5, 1.0, 2.0) == pytest.approx(-2.0 * math.log(0.5), abs=1e-9)

    def test_round_trip(self):
        alpha, beta = 2.5, 0.7
        for x in np.logspace(-3, 1.0, 40):
            q = gamma_cdf(float(x), alpha, beta)
            assert gamma_quantile(q, alpha, beta) == pytest.approx(float(x), abs=1e-8)

    def test_paper_config_against_monte_carlo(self):
        # The corrected level is ~2.1e-6, so a 1e6-draw tail holds a handful of
        # exceedances: bound the count instead of the quantile itself.
        alpha, beta = 4.5, 1.0 / (1440.0 * math.log(2.0))
        q = 1.0 - 0.01 / 4761.0
        quantile = gamma_quantile(q, alpha, beta)
        rng = np.random.default_rng(314159)
        draws = rng.gamma(shape=alpha, scale=beta, size=1_000_000)
        exceedances = int((draws > quantile).sum())
        assert exceedances <= 12  # Poisson(2.1) upper tail
        # at a less extreme level the count is sharp: expect ~10000 +- 5 sigma
        q99 = gamma_quantile(0.99, alpha, beta)
        count_99 = int((draws > q99).sum())
        assert abs(count_99 - 10_000) < 500

    def test_invalid_q_rejected(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                gamma_quantile(bad, 1.0, 1.0)


class TestSignificance:
    def test_paper_corrected_level(self):
        cfg = MiTestConfig(states_x=4, states_y=4, sample_size=1440, uncorrected_p=0.01, num_tests=69 * 69)
        assert cfg.corrected_p == 0.01 / 4761

    def test_no_correction_is_plain_quantile(self):
        cfg = MiTestConfig(4, 4, 1000, 0.05, 1)
        direct = gamma_quantile(0.95, 4.5, 1.0 / (1000.0 * math.log(2.0)))
        assert significance_threshold(cfg) == pytest.approx(direct, abs=1e-15)

    def test_cached_threshold_equals_fresh_solve(self):
        for cfg in (MiTestConfig(4, 4, 1440, 0.01, 69 * 69), MiTestConfig(3, 5, 500, 0.05, 10)):
            dof = (cfg.states_x - 1) * (cfg.states_y - 1)
            fresh = _chi2_isf(cfg.corrected_p, dof) / (2.0 * cfg.sample_size * math.log(2.0))
            first = significance_threshold(cfg)
            again = significance_threshold(MiTestConfig(**vars(cfg)))
            assert first == fresh
            assert again == fresh

    def test_threshold_matches_null_simulation(self):
        cfg = MiTestConfig(4, 4, 1440, 0.05, 1)
        threshold = significance_threshold(cfg)
        rng = np.random.default_rng(99)
        sims = np.empty(5000)
        for i in range(5000):
            x = series(rng.integers(0, 4, 1440), 4)
            y = series(rng.integers(0, 4, 1440), 4)
            sims[i] = mutual_information_bits(x, y)
        empirical = float(np.percentile(sims, 95))
        assert abs(threshold - empirical) / empirical < 0.10

    def test_null_calibration(self):
        # module invariant: empirical rejection rate at p=0.05 within [0.03, 0.07]
        cfg = MiTestConfig(4, 4, 1440, 0.05, 1)
        threshold = significance_threshold(cfg)
        rng = np.random.default_rng(20240817)
        rejections = 0
        trials = 2000
        for _ in range(trials):
            x = series(rng.integers(0, 4, 1440), 4)
            y = series(rng.integers(0, 4, 1440), 4)
            rejections += mutual_information_bits(x, y) > threshold
        assert 0.03 <= rejections / trials <= 0.07

    def test_link_decisions(self):
        cfg = MiTestConfig(4, 4, 1440, 0.01, 4761)
        threshold = significance_threshold(cfg)
        mi = np.array([[2.0, 0.0, threshold], [threshold, 5.0, 2.0], [2.0, 0.0, 0.0]])
        # a link needs MI strictly above the threshold; the diagonal is never one
        expected = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0], [2.0, 0.0, 0.0]])
        assert np.array_equal(validate_links(mi, threshold), expected)

    @pytest.mark.parametrize("states", [(s, s) for s in (*range(2, 10), 16, 40, 100)] + [(3, 5)])
    def test_threshold_equals_scipy_chi2_tail_point(self, states):
        dof = (states[0] - 1) * (states[1] - 1)
        for n in (20, 286, 1439, 100_000):
            for m in (1, 100, 40_000, 1_000_000):
                threshold = significance_threshold(MiTestConfig(*states, n, 0.01, m))
                expected = stats.chi2.isf(0.01 / m, dof) / (2.0 * n * math.log(2.0))
                assert threshold == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MiTestConfig(4, 4, 0, 0.01, 1)
        with pytest.raises(ValueError):
            MiTestConfig(4, 4, 100, 1.5, 1)
        with pytest.raises(ValueError):
            MiTestConfig(1, 4, 100, 0.01, 1)
