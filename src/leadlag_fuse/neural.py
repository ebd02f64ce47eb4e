"""Minimal dense feedforward stack with reverse-mode gradients and Adam.

An MLP stacks ``count`` copies of one layer plan: (count, out, in) weights,
(count, out) biases, (count, batch, features) batches and one ``np.matmul``
per layer for all copies.

Everything is deterministic: parameters come from a seeded generator, there
is no minibatching, and the ReLU subgradient at 0 is defined as 0. A network
computes in the precision of its weights: ``forward`` and ``backward`` cast
their inputs to the weights' dtype, and Adam's vectors take the parameters'.
Forward passes record every intermediate activation so that ``backward`` can
return exact gradients of the recorded computation. Only ``layer_views``
knows the layout of a model's flat parameter vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "ACTIVATIONS",
    "DenseLayer",
    "Mlp",
    "ForwardRecord",
    "init_mlp",
    "layer_views",
    "forward",
    "backward",
    "AdamState",
    "adam_init",
    "adam_step",
]

ACTIVATIONS = ("identity", "relu")


@dataclass
class DenseLayer:
    weight: np.ndarray  # (count, out, in)
    bias: np.ndarray  # (count, out)
    activation: str

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}; expected one of {ACTIVATIONS}")
        if self.weight.ndim != 3 or self.bias.shape != self.weight.shape[:2]:
            raise ValueError(f"inconsistent layer shapes: weight {self.weight.shape}, bias {self.bias.shape}")
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise ValueError("layer parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[2]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]


@dataclass
class Mlp:
    layers: list[DenseLayer]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("an MLP needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim or len(prev.weight) != len(nxt.weight):
                raise ValueError(f"layer dims do not chain: {prev.weight.shape} -> {nxt.weight.shape}")

    @property
    def count(self) -> int:
        return len(self.layers[0].weight)

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.layers[0].in_dim, *(layer.out_dim for layer in self.layers))

    @property
    def parameter_count(self) -> int:
        return sum(layer.weight.size + layer.bias.size for layer in self.layers)


@dataclass
class ForwardRecord:
    """Intermediate values of one forward pass, consumed by ``backward``."""

    inputs: list[np.ndarray]  # input to each layer, (count, batch, in)
    pre_activations: list[np.ndarray]
    output: np.ndarray


def init_mlp(dims: Sequence[int], activations: Sequence[str], seed_or_rng, count: int = 1) -> Mlp:
    """Glorot-uniform weights and zero biases from a seeded generator, drawn copy by copy."""
    if len(dims) < 2:
        raise ValueError("dims must list at least an input and an output size")
    if len(activations) != len(dims) - 1:
        raise ValueError(f"need {len(dims) - 1} activations for {len(dims)} dims, got {len(activations)}")
    if any(d < 1 for d in dims):
        raise ValueError(f"all dims must be positive, got {tuple(dims)}")
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
    weights = [np.empty((count, fan_out, fan_in)) for fan_in, fan_out in zip(dims, dims[1:])]
    for c in range(count):
        for weight in weights:
            bound = np.sqrt(6.0 / (weight.shape[2] + weight.shape[1]))
            weight[c] = rng.uniform(-bound, bound, size=weight.shape[1:])
    return Mlp([DenseLayer(w, np.zeros(w.shape[:2]), act) for w, act in zip(weights, activations)])


def layer_views(mlps: Sequence[Mlp], buffer: np.ndarray) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """(weight, bias) views into ``buffer``, one list of layer pairs per MLP.

    The layout: MLPs in the given order, their layers in order, each layer's
    row-major (count, out, in) weight stack then its (count, out) bias stack,
    so the copies of one layer are contiguous; ``buffer`` holds exactly that.
    """
    views, offset = [], 0
    for mlp in mlps:
        pairs = []
        for layer in mlp.layers:
            weight = buffer[offset : offset + layer.weight.size].reshape(layer.weight.shape)
            offset += weight.size
            pairs.append((weight, buffer[offset : offset + layer.bias.size].reshape(layer.bias.shape)))
            offset += layer.bias.size
        views.append(pairs)
    if offset != buffer.size:
        raise ValueError(f"buffer holds {buffer.size} values, the layers {offset}")
    return views


def forward(mlp: Mlp, x: np.ndarray) -> ForwardRecord:
    """Run a (count, batch, features) input through the network, recording activations.

    An identity layer's output is its pre-activation array itself.
    """
    x = np.asarray(x, dtype=mlp.layers[0].weight.dtype)
    expected = (mlp.count, mlp.layers[0].in_dim)
    if x.ndim != 3 or x.shape[::2] != expected:
        raise ValueError(f"input shape {x.shape} is not (copies, batch, first layer dim) for {expected}")
    inputs, pre_activations = [], []
    current = x
    for layer in mlp.layers:
        inputs.append(current)
        # multiplying through the transposed view keeps each copy's BLAS call, and so its bits,
        # equal to ``x[c] @ weight[c].T``; a pre-transposed stack rounds differently
        z = np.matmul(current, layer.weight.transpose(0, 2, 1))
        z += layer.bias[:, None, :]
        pre_activations.append(z)
        current = np.maximum(z, 0.0) if layer.activation == "relu" else z
    return ForwardRecord(inputs=inputs, pre_activations=pre_activations, output=current)


def backward(
    mlp: Mlp,
    record: ForwardRecord,
    output_grad: np.ndarray,
    param_grads: Sequence[tuple[np.ndarray, np.ndarray]],
    input_grad: bool = True,
) -> np.ndarray | None:
    """Gradients of the recorded computation w.r.t. parameters and input.

    Writes each layer's (dW, db) into the matching pair of ``param_grads``,
    one ``layer_views`` entry of a gradient vector, and returns dL/dx, or
    None with ``input_grad=False``, which skips that product. The record must
    come from a matching ``forward`` call on the same network.
    """
    if len(record.inputs) != len(mlp.layers) or len(record.pre_activations) != len(mlp.layers):
        raise ValueError("forward record does not match this network")
    for layer, z in zip(mlp.layers, record.pre_activations):
        if z.shape[::2] != layer.bias.shape:
            raise ValueError("forward record does not match this network")
    grad = np.asarray(output_grad, dtype=mlp.layers[0].weight.dtype)
    if grad.shape != record.output.shape:
        raise ValueError(f"output_grad shape {grad.shape} does not match output {record.output.shape}")
    for li in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[li]
        d_weight, d_bias = param_grads[li]
        gz = grad * (record.pre_activations[li] > 0.0) if layer.activation == "relu" else grad
        np.matmul(gz.transpose(0, 2, 1), record.inputs[li], out=d_weight)
        gz.sum(axis=1, out=d_bias)
        if li == 0 and not input_grad:
            return None
        grad = np.matmul(gz, layer.weight)
    return grad


@dataclass
class AdamState:
    """Moment vectors, laid out like the parameter vector, plus hyperparameters."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    scratch: np.ndarray = field(init=False, repr=False)  # two vectors for a step's intermediates

    def __post_init__(self) -> None:
        self.scratch = np.empty((2, *self.first_moment.shape), dtype=self.first_moment.dtype)


def adam_init(params: np.ndarray, learning_rate: float = 0.001, **kwargs) -> AdamState:
    return AdamState(
        first_moment=np.zeros_like(params),
        second_moment=np.zeros_like(params),
        learning_rate=learning_rate,
        **kwargs,
    )


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray) -> None:
    """One bias-corrected Adam update, applied to the vector ``params`` in place."""
    if params.shape != state.first_moment.shape or grad.shape != params.shape:
        raise ValueError(f"params {params.shape} / grad {grad.shape} do not match the optimizer state")
    if not np.all(np.isfinite(grad)):
        bad = np.flatnonzero(~np.isfinite(grad))
        raise ValueError(f"non-finite gradient at {bad.size} entries, first at index {bad[0]}")
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    m, v = state.first_moment, state.second_moment
    step, denominator = state.scratch
    # params -= lr * (m / bc1) / (sqrt(v / bc2) + eps), the same operations in the same
    # order, with every intermediate in the two scratch vectors
    m *= state.beta1
    m += np.multiply(grad, 1.0 - state.beta1, out=step)
    v *= state.beta2
    v += np.multiply(np.multiply(grad, grad, out=step), 1.0 - state.beta2, out=step)
    np.multiply(np.divide(m, bc1, out=step), state.learning_rate, out=step)
    np.add(np.sqrt(np.divide(v, bc2, out=denominator), out=denominator), state.epsilon, out=denominator)
    params -= np.divide(step, denominator, out=step)

