"""Baseline churn classifier.

Pipeline: recursive feature elimination under a logistic scoring model,
per-feature normalization, minority oversampling by neighbor
interpolation, then a small MLP emitting churn propensity in (0, 1).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import blob, mlp
from .errors import DegenerateData, InvalidConfig, MissingModality, ShapeMismatch, TooFewExamples
from .neighbors import nearest

MAGIC = b"CHRN"
VERSION = 1
HIDDEN_DIMS = (32, 32)


@dataclass
class ChurnModel:
    selected_features: tuple[int, ...]
    params: mlp.MLPParams
    norm_mean: np.ndarray
    norm_std: np.ndarray
    final_loss: float = 0.0
    train_accuracy: float = 0.0

    def __post_init__(self):
        idx = tuple(int(i) for i in self.selected_features)
        if len(set(idx)) != len(idx) or any(i < 0 for i in idx):
            raise ValueError("selected_features must be unique non-negative indices")
        std = np.asarray(self.norm_std)
        if not (np.isfinite(self.norm_mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise ValueError("norm_mean must be finite and norm_std finite and positive")
        self.selected_features = idx


def _fit_logistic(X: np.ndarray, y: np.ndarray, iters: int = 200, lr: float = 0.5) -> np.ndarray:
    """Deterministic logistic fit (zero init, full-batch GD); returns coefficients."""
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(iters):
        p = mlp.sigmoid(X @ w + b)
        err = (p - y) / n
        w -= lr * (X.T @ err + 1e-4 * w)
        b -= lr * err.sum()
    return w


def rfe_select(X: np.ndarray, y: np.ndarray, target_k: int) -> list[int]:
    """Drop the weakest standardized logistic coefficient until k features remain.

    Returns the surviving column indices in their original order.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n, d = X.shape
    if len(np.unique(y)) < 2:
        raise DegenerateData("both classes must be present")
    if not 1 <= target_k <= d:
        raise InvalidConfig(f"target_k {target_k} outside [1, {d}]")

    remaining = list(range(d))
    while len(remaining) > target_k:
        sub = X[:, remaining]
        mean = sub.mean(axis=0)
        std = np.where(sub.std(axis=0) > 0, sub.std(axis=0), 1.0)
        coef = _fit_logistic((sub - mean) / std, y)
        weakest = int(np.argmin(np.abs(coef)))
        remaining.pop(weakest)
    return remaining


def smote_oversample(
    X: np.ndarray, y: np.ndarray, ratio: float = 1.0, k: int = 5, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Raise the minority count to ceil(ratio * majority count).

    Each synthetic point is a uniform draw on the segment between a random
    minority point and one of its k nearest minority neighbors.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).astype(int).ravel()
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2:
        raise DegenerateData("both classes must be present")
    minority = int(classes[np.argmin(counts)])
    min_idx = np.flatnonzero(y == minority)
    n_major = int(counts.max())
    deficit = int(np.ceil(ratio * n_major)) - min_idx.size
    if deficit <= 0:
        return X.copy(), y.copy()
    if min_idx.size < k + 1:
        raise TooFewExamples(f"minority class needs >= {k + 1} members, has {min_idx.size}")

    Xm = X[min_idx]
    neighbors, _ = nearest(Xm, Xm, k, exclude=np.arange(min_idx.size))

    rng = np.random.default_rng(seed)
    synth = np.empty((deficit, X.shape[1]))
    for s in range(deficit):
        a = int(rng.integers(Xm.shape[0]))
        b = int(neighbors[a][rng.integers(k)])
        t = rng.random()
        synth[s] = Xm[a] + t * (Xm[b] - Xm[a])
    return np.vstack([X, synth]), np.append(y, np.full(deficit, minority))


@dataclass(frozen=True)
class SmoteParams:
    ratio: float = 1.0
    k: int = 5

    def __post_init__(self):
        if not 0.0 < self.ratio < math.inf:
            raise InvalidConfig("smote ratio must be finite and positive")
        if self.k < 1:
            raise InvalidConfig("smote k must be >= 1")


def train_churn(
    X: np.ndarray,
    y: np.ndarray,
    rfe_k: int,
    smote: SmoteParams = SmoteParams(),
    hyper: mlp.TrainConfig = mlp.TrainConfig(),
) -> ChurnModel:
    """RFE -> normalize -> SMOTE -> MLP, deterministic per seed."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).astype(int).ravel()
    if not np.isin(y, (0, 1)).all():
        raise MissingModality("churn training needs a 0/1 outcome for every row")

    selected = rfe_select(X, y, rfe_k)
    sub = X[:, selected]
    mean = sub.mean(axis=0)
    std = np.where(sub.std(axis=0) > 0, sub.std(axis=0), 1.0)
    normed = (sub - mean) / std

    X_bal, y_bal = smote_oversample(normed, y, smote.ratio, smote.k, hyper.seed)
    params, final_loss = mlp.train(X_bal, y_bal, HIDDEN_DIMS, hyper)
    acc = float(np.mean((mlp.forward(params, X_bal) >= 0.5).astype(int) == y_bal))
    return ChurnModel(
        selected_features=tuple(selected),
        params=params,
        norm_mean=mean,
        norm_std=std,
        final_loss=final_loss,
        train_accuracy=acc,
    )


def predict_churn_batch(model: ChurnModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    needed = max(model.selected_features) + 1
    if X.shape[1] < needed:
        raise ShapeMismatch(f"need >= {needed} features, got {X.shape[1]}")
    sub = X[:, list(model.selected_features)]
    return mlp.forward(model.params, (sub - model.norm_mean) / model.norm_std)


def save_churn_model(model: ChurnModel) -> bytes:
    n_sel = len(model.selected_features)
    sel = struct.pack(f"<I{n_sel}I", n_sel, *model.selected_features)
    norms = blob.floats(model.norm_mean) + blob.floats(model.norm_std)
    return blob.header(MAGIC, VERSION) + sel + norms + mlp.pack_params(model.params)


def load_churn_model(data: bytes) -> ChurnModel:
    reader = blob.Reader(data, MAGIC, VERSION, "churn")
    (n_sel,) = reader.unpack("<I")
    selected = reader.unpack(f"<{n_sel}I")
    mean, std = reader.floats(n_sel), reader.floats(n_sel)
    params = mlp.unpack_params(reader)
    reader.end()
    return ChurnModel(selected_features=selected, params=params, norm_mean=mean, norm_std=std)
