"""Small feed-forward network shared by the emotion and churn models.

ReLU hidden layers, logistic output, binary cross-entropy with optional
L2 penalty, trained by seeded mini-batch gradient descent. Kept in plain
numpy so analytic gradients can be checked against finite differences.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import blob
from .errors import ShapeMismatch


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 64
    l2_penalty: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.l2_penalty < math.inf:
            raise ValueError("l2_penalty must be finite and non-negative")


@dataclass
class MLPParams:
    """Layer dimensions plus per-layer weight matrices and bias vectors."""

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray] = field(repr=False, default_factory=list)
    biases: list[np.ndarray] = field(repr=False, default_factory=list)

    def __post_init__(self):
        self.layer_dims = tuple(int(d) for d in self.layer_dims)
        if len(self.layer_dims) < 2 or self.layer_dims[-1] != 1:
            raise ValueError(f"layer_dims {self.layer_dims} must end in one output unit")
        if len(self.weights) != len(self.layer_dims) - 1:
            raise ValueError("one weight matrix per layer transition required")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            expect = (self.layer_dims[i], self.layer_dims[i + 1])
            if w.shape != expect or b.shape != (expect[1],):
                raise ValueError(f"layer {i} shapes inconsistent with layer_dims")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"non-finite parameters in layer {i}")

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]


def sigmoid(z: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument never overflows
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def init_params(layer_dims, seed: int) -> MLPParams:
    """He-style initialization, deterministic per seed.

    Hidden biases start slightly positive so no unit sits exactly on the
    ReLU kink at initialization (zero biases put fully-inactive samples at
    pre-activation 0, where finite differences and the subgradient
    convention disagree).
    """
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    transitions = list(zip(layer_dims[:-1], layer_dims[1:]))
    for i, (d_in, d_out) in enumerate(transitions):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_in, d_out)))
        biases.append(np.zeros(d_out) if i == len(transitions) - 1 else np.full(d_out, 0.01))
    return MLPParams(tuple(layer_dims), weights, biases)


def forward(params: MLPParams, X: np.ndarray) -> np.ndarray:
    """Probability of class 1 for each row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != params.input_dim:
        raise ShapeMismatch(f"input width {X.shape[1]} != model width {params.input_dim}")
    a = X
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a = np.maximum(0.0, a @ w + b)
    z = a @ params.weights[-1] + params.biases[-1]
    return sigmoid(z[:, 0])


def _backward(params: MLPParams, X: np.ndarray, y: np.ndarray, l2_penalty: float):
    """Output logits and the analytic gradients of the penalised mean cross-entropy."""
    n = X.shape[0]
    activations = [X]
    a = X
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a = np.maximum(0.0, a @ w + b)
        activations.append(a)
    z = (a @ params.weights[-1] + params.biases[-1])[:, 0]
    p = sigmoid(z)

    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    delta = ((p - y) / n)[:, None]
    for layer in range(len(params.weights) - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta + l2_penalty * params.weights[layer]
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ params.weights[layer].T) * (activations[layer] > 0)
    return z, grads_w, grads_b


def loss_and_grads(params: MLPParams, X: np.ndarray, y: np.ndarray, l2_penalty: float = 0.0):
    """Mean cross-entropy plus L2 penalty, with analytic gradients."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    z, grads_w, grads_b = _backward(params, X, y, l2_penalty)
    # log-loss via logaddexp keeps saturated probabilities finite
    ce = np.mean(np.logaddexp(0.0, z) - y * z)
    loss = ce + 0.5 * l2_penalty * sum(float(np.sum(w**2)) for w in params.weights)
    return loss, grads_w, grads_b


def train(
    X: np.ndarray, y: np.ndarray, hidden_dims: tuple[int, ...], cfg: TrainConfig
) -> tuple[MLPParams, float]:
    """Fit by mini-batch gradient descent; returns (params, final full-batch loss)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    dims = (X.shape[1],) + tuple(hidden_dims) + (1,)
    params = init_params(dims, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    n = X.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        X_epoch, y_epoch = X[order], y[order]
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            _, gw, gb = _backward(params, X_epoch[start:stop], y_epoch[start:stop], cfg.l2_penalty)
            for layer in range(len(params.weights)):
                params.weights[layer] -= cfg.learning_rate * gw[layer]
                params.biases[layer] -= cfg.learning_rate * gb[layer]
    final_loss, _, _ = loss_and_grads(params, X, y, cfg.l2_penalty)
    return params, float(final_loss)


def pack_params(params: MLPParams) -> bytes:
    """Little-endian blob: n_layers u16, dims u32..., float64 weights/biases."""
    dims = params.layer_dims
    parts = [struct.pack(f"<H{len(dims)}I", len(dims), *dims)]
    for w, b in zip(params.weights, params.biases):
        parts += [blob.floats(w), blob.floats(b)]
    return b"".join(parts)


def unpack_params(reader: blob.Reader) -> MLPParams:
    (n_layers,) = reader.unpack("<H")
    dims = reader.unpack(f"<{n_layers}I")
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(reader.floats(d_in, d_out))
        biases.append(reader.floats(d_out))
    return MLPParams(dims, weights, biases)
