"""Reference computations that only the tests use.

Finite-difference gradients check `mlp.loss_and_grads`, and Mel band
centres check where `mel_project` puts a pure tone.
"""

import numpy as np

from churnfusion.audio_features import hz_to_mel, mel_to_hz
from churnfusion.mlp import MLPParams, loss_and_grads


def flatten_params(params: MLPParams) -> np.ndarray:
    return np.concatenate([a.ravel() for pair in zip(params.weights, params.biases) for a in pair])


def unflatten_params(vector: np.ndarray, layer_dims) -> MLPParams:
    weights, biases = [], []
    offset = 0
    for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(vector[offset : offset + d_in * d_out].reshape(d_in, d_out).copy())
        offset += d_in * d_out
        biases.append(vector[offset : offset + d_out].copy())
        offset += d_out
    return MLPParams(tuple(layer_dims), weights, biases)


def numerical_gradient(params: MLPParams, X, y, l2_penalty: float = 0.0, h: float = 1e-6):
    """Central finite differences of the loss over all parameters."""
    theta = flatten_params(params)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = h
        lo, _, _ = loss_and_grads(unflatten_params(theta - bump, params.layer_dims), X, y, l2_penalty)
        hi, _, _ = loss_and_grads(unflatten_params(theta + bump, params.layer_dims), X, y, l2_penalty)
        grad[i] = (hi - lo) / (2 * h)
    return grad


def mel_band_centers(n_mels: int, f_min: float, f_max: float) -> np.ndarray:
    edges = mel_to_hz(np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_mels + 2))
    return edges[1:-1]
