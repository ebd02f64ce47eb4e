"""Minimal dense feedforward stack with reverse-mode gradients and Adam.

Everything is double precision and deterministic: parameters come from a
seeded generator, there is no minibatching, and the ReLU subgradient at 0 is
defined as 0. Forward passes record every intermediate activation so that
``backward`` can return exact gradients of the recorded computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ACTIVATIONS",
    "DenseLayer",
    "Mlp",
    "ForwardRecord",
    "init_mlp",
    "forward",
    "backward",
    "mse",
    "mse_grad",
    "AdamState",
    "adam_init",
    "adam_step",
    "mlp_to_dict",
    "mlp_from_dict",
]

ACTIVATIONS = ("identity", "relu")
CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class DenseLayer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}; expected one of {ACTIVATIONS}")
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError(f"inconsistent layer shapes: weight {self.weight.shape}, bias {self.bias.shape}")
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise ValueError("layer parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


@dataclass
class Mlp:
    layers: list[DenseLayer]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("an MLP needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.layers[0].in_dim, *(layer.out_dim for layer in self.layers))

    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for layer in self.layers:
            params.append(layer.weight)
            params.append(layer.bias)
        return params


@dataclass
class ForwardRecord:
    """Intermediate values of one forward pass, consumed by ``backward``."""

    inputs: list[np.ndarray]  # input to each layer
    pre_activations: list[np.ndarray]
    output: np.ndarray


def init_mlp(dims: Sequence[int], activations: Sequence[str], seed_or_rng) -> Mlp:
    """Glorot-uniform weights and zero biases from a seeded generator."""
    if len(dims) < 2:
        raise ValueError("dims must list at least an input and an output size")
    if len(activations) != len(dims) - 1:
        raise ValueError(f"need {len(dims) - 1} activations for {len(dims)} dims, got {len(activations)}")
    if any(d < 1 for d in dims):
        raise ValueError(f"all dims must be positive, got {tuple(dims)}")
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
    layers = []
    for fan_in, fan_out, act in zip(dims, dims[1:], activations):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(DenseLayer(weight=weight, bias=np.zeros(fan_out), activation=act))
    return Mlp(layers=layers)


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    return np.maximum(z, 0.0) if activation == "relu" else z


def _activation_grad(z: np.ndarray, activation: str) -> np.ndarray:
    return (z > 0.0).astype(float) if activation == "relu" else np.ones_like(z)


def forward(mlp: Mlp, x: np.ndarray) -> ForwardRecord:
    """Run a (batch, features) input through the network, recording activations."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D batch, got shape {x.shape}")
    if x.shape[1] != mlp.layers[0].in_dim:
        raise ValueError(f"input dim {x.shape[1]} does not match first layer dim {mlp.layers[0].in_dim}")
    inputs, pre_activations = [], []
    current = x
    for layer in mlp.layers:
        inputs.append(current)
        z = current @ layer.weight.T + layer.bias
        pre_activations.append(z)
        current = _activate(z, layer.activation)
    return ForwardRecord(inputs=inputs, pre_activations=pre_activations, output=current)


def backward(
    mlp: Mlp,
    record: ForwardRecord,
    output_grad: np.ndarray,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Gradients of the recorded computation w.r.t. parameters and input.

    Returns ([(dW, db) per layer], dL/dx). The record must come from a
    matching ``forward`` call on the same network.
    """
    if len(record.inputs) != len(mlp.layers) or len(record.pre_activations) != len(mlp.layers):
        raise ValueError("forward record does not match this network")
    for layer, z in zip(mlp.layers, record.pre_activations):
        if z.shape[1] != layer.out_dim:
            raise ValueError("forward record does not match this network")
    grad = np.asarray(output_grad, dtype=float)
    if grad.shape != record.output.shape:
        raise ValueError(f"output_grad shape {grad.shape} does not match output {record.output.shape}")
    param_grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(mlp.layers)  # type: ignore[list-item]
    for li in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[li]
        gz = grad * _activation_grad(record.pre_activations[li], layer.activation)
        d_weight = gz.T @ record.inputs[li]
        d_bias = gz.sum(axis=0)
        grad = gz @ layer.weight
        param_grads[li] = (d_weight, d_bias)
    return param_grads, grad


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over all elements of the squared difference."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def mse_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d mse / d pred, matching ``mse``'s all-element mean."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return 2.0 * (pred - target) / pred.size


@dataclass
class AdamState:
    """Per-parameter moment accumulators plus hyperparameters."""

    first_moments: list[np.ndarray]
    second_moments: list[np.ndarray]
    step: int = 0
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def adam_init(params: Sequence[np.ndarray], learning_rate: float = 0.001, **kwargs) -> AdamState:
    return AdamState(
        first_moments=[np.zeros_like(p) for p in params],
        second_moments=[np.zeros_like(p) for p in params],
        learning_rate=learning_rate,
        **kwargs,
    )


def adam_step(state: AdamState, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
    """One bias-corrected Adam update, applied to ``params`` in place."""
    if len(params) != len(state.first_moments) or len(grads) != len(params):
        raise ValueError("params/grads do not match the optimizer state")
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {i} (max abs: {np.abs(g).max()})")
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    for p, g, m, v in zip(params, grads, state.first_moments, state.second_moments):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)


def mlp_to_dict(mlp: Mlp) -> dict:
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "dims": list(mlp.dims),
        "activations": [layer.activation for layer in mlp.layers],
        "weights": [layer.weight.ravel().tolist() for layer in mlp.layers],
        "biases": [layer.bias.tolist() for layer in mlp.layers],
    }


def mlp_from_dict(payload: dict) -> Mlp:
    version = payload.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version: {version}")
    dims = payload["dims"]
    layers = []
    for i, act in enumerate(payload["activations"]):
        out_dim, in_dim = dims[i + 1], dims[i]
        weight = np.asarray(payload["weights"][i], dtype=float).reshape(out_dim, in_dim)
        bias = np.asarray(payload["biases"][i], dtype=float)
        layers.append(DenseLayer(weight=weight, bias=bias, activation=act))
    return Mlp(layers=layers)

