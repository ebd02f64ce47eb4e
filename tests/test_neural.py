import numpy as np
import pytest

from oracles import central_difference_grads, max_relative_error
from leadlag_fuse.neural import (
    DenseLayer,
    Mlp,
    adam_init,
    adam_step,
    backward,
    forward,
    init_mlp,
    layer_views,
)


def mse(pred, target):
    return float(np.mean((pred - target) ** 2))


def mse_grad(pred, target):
    return 2.0 * (pred - target) / pred.size


class TestForward:
    def test_identity_layer_passes_through(self):
        layer = DenseLayer(weight=np.eye(3)[None], bias=np.zeros((1, 3)), activation="identity")
        x = np.array([[[1.0, -2.0, 0.5]]])
        assert np.array_equal(forward(Mlp([layer]), x).output, x)

    def test_relu_clips_negatives(self):
        layer = DenseLayer(weight=np.eye(2)[None], bias=np.zeros((1, 2)), activation="relu")
        out = forward(Mlp([layer]), np.array([[[-1.0, 2.0]]])).output
        assert np.array_equal(out, np.array([[[0.0, 2.0]]]))

    def test_two_layer_hand_computed(self):
        w1 = np.array([[1.0, 2.0], [0.0, -1.0], [0.5, 0.5]])
        b1 = np.array([0.1, 0.2, -0.3])
        w2 = np.array([[1.0, -1.0, 2.0]])
        b2 = np.array([0.05])
        mlp = Mlp([
            DenseLayer(weight=w1[None], bias=b1[None], activation="relu"),
            DenseLayer(weight=w2[None], bias=b2[None], activation="identity"),
        ])
        x = np.array([[0.4, -0.7]])
        hidden = np.maximum(x @ w1.T + b1, 0.0)
        expected = hidden @ w2.T + b2
        assert np.array_equal(forward(mlp, x[None]).output[0], expected)

    def test_shape_mismatch_rejected(self):
        mlp = init_mlp([3, 2], ["relu"], 0)
        with pytest.raises(ValueError, match="dim"):
            forward(mlp, np.zeros((1, 4, 5)))


def gradient_views(mlp):
    """Per-layer (dW, db) views of a new gradient vector for ``mlp``."""
    return layer_views([mlp], np.empty(mlp.parameter_count))[0]


class TestBackward:
    def test_zero_gradient_at_optimum(self):
        mlp = init_mlp([3, 2], ["identity"], 1)
        x = np.random.default_rng(2).standard_normal((1, 5, 3))
        record = forward(mlp, x)
        grads = gradient_views(mlp)
        backward(mlp, record, mse_grad(record.output, record.output), grads)
        for dw, db in grads:
            assert np.all(dw == 0.0)
            assert np.all(db == 0.0)

    def test_scalar_chain_rule(self):
        w = 1.7
        x_val, target = 0.8, 0.3
        mlp = Mlp([DenseLayer(weight=np.array([[[w]]]), bias=np.zeros((1, 1)), activation="identity")])
        record = forward(mlp, np.array([[[x_val]]]))
        grads = gradient_views(mlp)
        backward(mlp, record, mse_grad(record.output, np.array([[[target]]])), grads)
        assert grads[0][0][0, 0, 0] == pytest.approx(2.0 * (w * x_val - target) * x_val, abs=1e-14)

    def test_three_layer_against_finite_differences(self):
        rng = np.random.default_rng(42)
        mlp = init_mlp([4, 6, 5, 3], ["relu", "relu", "identity"], rng)
        x = rng.standard_normal((1, 7, 4))
        target = rng.standard_normal((1, 7, 3))
        record = forward(mlp, x)
        assert min(np.abs(z).min() for z in record.pre_activations) > 1e-6  # away from kinks
        grads = gradient_views(mlp)
        backward(mlp, record, mse_grad(record.output, target), grads)
        flat = [g for pair in grads for g in pair]

        def loss():
            return mse(forward(mlp, x).output, target)

        params = [p for layer in mlp.layers for p in (layer.weight, layer.bias)]
        numeric = central_difference_grads(loss, params, h=1e-5)
        assert max_relative_error(flat, numeric, floor=1e-6) < 1e-6

    def test_stale_record_rejected(self):
        mlp_a = init_mlp([3, 4, 2], ["relu", "identity"], 3)
        mlp_b = init_mlp([3, 5, 2], ["relu", "identity"], 4)
        record = forward(mlp_a, np.zeros((1, 2, 3)))
        with pytest.raises(ValueError, match="record"):
            backward(mlp_b, record, np.zeros((1, 2, 2)), gradient_views(mlp_b))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = np.array([1.0, -2.0])
        state = adam_init(params)
        adam_step(state, params, np.zeros(2))
        assert np.array_equal(params, np.array([1.0, -2.0]))
        assert state.step == 1

    def test_first_step_magnitude(self):
        params = np.array([1.0, -2.0, 0.5])
        state = adam_init(params, learning_rate=0.001)
        before = params.copy()
        adam_step(state, params, np.array([0.3, -4.0, 0.001]))
        delta = before - params
        assert np.allclose(delta, 0.001 * np.sign([0.3, -4.0, 0.001]), atol=1e-5)

    def test_quadratic_descent_is_monotone(self):
        params = np.array([0.0])
        state = adam_init(params, learning_rate=0.05)
        losses = []
        for _ in range(50):
            adam_step(state, params, 2.0 * (params - 3.0))
            losses.append(float((params[0] - 3.0) ** 2))
        assert all(later < earlier for earlier, later in zip(losses, losses[1:]))
        assert losses[-1] < 1.0  # moved most of the way to the optimum

    def test_steps_equal_the_direct_formula(self):
        rng = np.random.default_rng(30)
        params = rng.standard_normal(257)
        expected, m, v = params.copy(), np.zeros(257), np.zeros(257)
        state = adam_init(params, learning_rate=0.01)
        for t in range(1, 31):
            grad = rng.standard_normal(257) * 10.0 ** rng.integers(-8, 4, 257)
            adam_step(state, params, grad)
            m = 0.9 * m + (1.0 - 0.9) * grad
            v = 0.999 * v + (1.0 - 0.999) * (grad * grad)
            expected -= 0.01 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
            assert np.array_equal(params, expected)
            assert np.array_equal(state.first_moment, m) and np.array_equal(state.second_moment, v)

    def test_non_finite_gradient_rejected(self):
        params = np.zeros(2)
        state = adam_init(params)
        with pytest.raises(ValueError, match="non-finite"):
            adam_step(state, params, np.array([np.nan, 0.0]))


class TestInit:
    def test_same_seed_is_bitwise_identical(self):
        a = init_mlp([4, 8, 2], ["relu", "identity"], 77)
        b = init_mlp([4, 8, 2], ["relu", "identity"], 77)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_biases_zero_and_weights_bounded(self):
        mlp = init_mlp([10, 7, 3], ["relu", "identity"], 5)
        for layer in mlp.layers:
            assert np.all(layer.bias == 0.0)
            bound = np.sqrt(6.0 / (layer.in_dim + layer.out_dim))
            assert np.abs(layer.weight).max() <= bound

    def test_dims_must_chain(self):
        with pytest.raises(ValueError, match="chain"):
            Mlp([
                DenseLayer(weight=np.zeros((1, 3, 2)), bias=np.zeros((1, 3)), activation="relu"),
                DenseLayer(weight=np.zeros((1, 2, 4)), bias=np.zeros((1, 2)), activation="relu"),
            ])
