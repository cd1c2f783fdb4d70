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
from .errors import DegenerateData, ShapeMismatch

MAGIC = b"SERM"
VERSION = 1
HIDDEN_DIMS = (32,)


@dataclass
class EmotionModel:
    params: mlp.MLPParams
    n_mels: int
    final_loss: float = 0.0


def train_emotion(
    images: np.ndarray, labels: list[int], hyper: mlp.TrainConfig = mlp.TrainConfig()
) -> EmotionModel:
    """Fit on flattened [n, 3, n_mels] feature maps by seeded mini-batch gradient descent."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3 or images.shape[1] != 3:
        raise ShapeMismatch(f"feature maps must be [n, 3, n_mels], got {images.shape}")
    y = np.asarray(labels).astype(int).ravel()
    if y.size != len(images):
        raise ShapeMismatch("one label per feature map required")
    if np.sum(y == 0) < 2 or np.sum(y == 1) < 2:
        raise DegenerateData("need >= 2 examples per class")
    params, final_loss = mlp.train(images.reshape(len(images), -1), y, HIDDEN_DIMS, hyper)
    return EmotionModel(params=params, n_mels=images.shape[2], final_loss=final_loss)


def predict_proba(model: EmotionModel, image: np.ndarray) -> float:
    """Probability of the negative class for one [3, n_mels] feature map."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape != (3, model.n_mels):
        raise ShapeMismatch(f"feature map has shape {image.shape}, expected (3, {model.n_mels})")
    return float(mlp.forward(model.params, image.reshape(1, -1))[0])


def predict_emotion(model: EmotionModel, image: np.ndarray) -> int:
    """Negative-emotion flag: 1 when the negative class is at least as likely."""
    return int(predict_proba(model, image) >= 0.5)


def save_emotion_model(model: EmotionModel) -> bytes:
    head = blob.header(MAGIC, VERSION) + struct.pack("<I", model.n_mels)
    return head + mlp.pack_params(model.params)


def load_emotion_model(data: bytes) -> EmotionModel:
    reader = blob.Reader(data, MAGIC, VERSION, "speech-emotion")
    (n_mels,) = reader.unpack("<I")
    params = mlp.unpack_params(reader)
    reader.end()
    return EmotionModel(params=params, n_mels=n_mels)
