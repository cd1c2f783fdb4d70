"""Binary emotion classifier on flattened acoustic feature maps.

A compact MLP stands in for a heavyweight pretrained image backbone: the
fusion layer only needs a positive/negative flag, and a small net keeps
the gradients checkable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import blob, mlp
from .audio_features import FeatureMap
from .errors import DegenerateData, ShapeMismatch

MAGIC = b"SERM"
VERSION = 1
HIDDEN_DIMS = (32,)


@dataclass
class EmotionModel:
    params: mlp.MLPParams
    n_mels: int
    final_loss: float = 0.0


def _flatten(maps: list[FeatureMap]) -> np.ndarray:
    return np.array([m.image.ravel() for m in maps])


def train_emotion(
    maps: list[FeatureMap],
    labels: list[int],
    hyper: mlp.TrainConfig = mlp.TrainConfig(),
) -> EmotionModel:
    """Fit on flattened maps by seeded mini-batch gradient descent."""
    if not maps:
        raise DegenerateData("no training examples")
    n_mels = maps[0].n_mels
    if any(m.n_mels != n_mels for m in maps):
        raise ShapeMismatch("all feature maps must share one shape")
    y = np.asarray(labels).astype(int).ravel()
    if y.size != len(maps):
        raise ShapeMismatch("one label per feature map required")
    if np.sum(y == 0) < 2 or np.sum(y == 1) < 2:
        raise DegenerateData("need >= 2 examples per class")
    params, final_loss = mlp.train(_flatten(maps), y, HIDDEN_DIMS, hyper)
    return EmotionModel(params=params, n_mels=n_mels, final_loss=final_loss)


def predict_proba(model: EmotionModel, feature_map: FeatureMap) -> float:
    """Probability of the negative class."""
    if feature_map.n_mels != model.n_mels:
        raise ShapeMismatch(
            f"feature map has {feature_map.n_mels} mel bands, model expects {model.n_mels}"
        )
    return float(mlp.forward(model.params, feature_map.image.ravel()[None, :])[0])


def predict_emotion(model: EmotionModel, feature_map: FeatureMap) -> int:
    """Negative-emotion flag: 1 when the negative class is at least as likely."""
    return int(predict_proba(model, feature_map) >= 0.5)


def save_emotion_model(model: EmotionModel) -> bytes:
    head = blob.header(MAGIC, VERSION) + struct.pack("<I", model.n_mels)
    return head + mlp.pack_params(model.params)


def load_emotion_model(data: bytes) -> EmotionModel:
    reader = blob.Reader(data, MAGIC, VERSION, "speech-emotion")
    (n_mels,) = reader.unpack("<I")
    params = mlp.unpack_params(reader)
    reader.end()
    return EmotionModel(params=params, n_mels=n_mels)
