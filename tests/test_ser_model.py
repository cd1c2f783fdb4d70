import numpy as np
import pytest

from churnfusion import ser_model
from churnfusion.errors import DegenerateData, ShapeMismatch
from churnfusion.mlp import TrainConfig


def blob_maps(n_per_class=30, n_mels=16, separation=3.0, seed=0):
    """Two Gaussian blobs in feature-map space, as one [n, 3, n_mels] stack."""
    rng = np.random.default_rng(seed)
    maps, labels = [], []
    for label in (0, 1):
        center = np.full((3, n_mels), separation * label)
        for _ in range(n_per_class):
            maps.append(center + rng.normal(0, 1.0, (3, n_mels)))
            labels.append(label)
    return np.stack(maps), labels


def nearest_centroid_accuracy(maps, labels):
    X = maps.reshape(len(maps), -1)
    y = np.array(labels)
    centroids = np.array([X[y == c].mean(axis=0) for c in (0, 1)])
    pred = np.argmin(
        np.linalg.norm(X[:, None, :] - centroids[None, :, :], axis=2), axis=1
    )
    return float(np.mean(pred == y))


def test_separable_blobs_reach_high_accuracy():
    maps, labels = blob_maps()
    # independent oracle first: the task really is separable
    assert nearest_centroid_accuracy(maps, labels) >= 0.95
    model = ser_model.train_emotion(maps, labels, TrainConfig(epochs=60, seed=0))
    preds = [ser_model.predict_emotion(model, m) for m in maps]
    assert np.mean(np.array(preds) == np.array(labels)) >= 0.95


def test_single_class_rejected():
    maps, _ = blob_maps(n_per_class=4)
    with pytest.raises(DegenerateData):
        ser_model.train_emotion(maps, [0] * len(maps), TrainConfig(epochs=2))


def test_training_is_deterministic():
    maps, labels = blob_maps(n_per_class=6)
    cfg = TrainConfig(epochs=10, seed=5)
    a = ser_model.train_emotion(maps, labels, cfg)
    b = ser_model.train_emotion(maps, labels, cfg)
    assert ser_model.save_emotion_model(a) == ser_model.save_emotion_model(b)


def test_prediction_contracts():
    maps, labels = blob_maps(n_per_class=5)
    model = ser_model.train_emotion(maps, labels, TrainConfig(epochs=10))
    for m in maps:
        pred = ser_model.predict_emotion(model, m)
        assert type(pred) is int and pred in (0, 1)
        assert pred == int(ser_model.predict_proba(model, m) >= 0.5)


def test_training_example_agrees_with_centroid_oracle():
    maps, labels = blob_maps(separation=4.0)
    model = ser_model.train_emotion(maps, labels, TrainConfig(epochs=60, seed=1))
    class1_example = maps[labels.index(1)]
    assert ser_model.predict_emotion(model, class1_example) == 1


def test_class_probabilities_sum_to_one():
    maps, labels = blob_maps(n_per_class=5)
    model = ser_model.train_emotion(maps, labels, TrainConfig(epochs=5))
    p_neg = ser_model.predict_proba(model, maps[0])
    assert abs(p_neg + (1 - p_neg) - 1.0) < 1e-9


def test_shape_mismatch():
    maps, labels = blob_maps(n_per_class=5, n_mels=16)
    model = ser_model.train_emotion(maps, labels, TrainConfig(epochs=2))
    for image in (np.zeros((3, 8)), np.zeros((2, 16)), maps[:1], maps[0].ravel()):
        with pytest.raises(ShapeMismatch):
            ser_model.predict_emotion(model, image)


def test_training_maps_must_be_a_stack_of_three_row_images():
    maps, labels = blob_maps(n_per_class=5, n_mels=16)
    for bad in (maps[:, :2], maps.reshape(len(maps), -1), maps[0], maps[None]):
        with pytest.raises(ShapeMismatch, match=r"\[n, 3, n_mels\]"):
            ser_model.train_emotion(bad, labels, TrainConfig(epochs=2))


def test_serialization_round_trip():
    maps, labels = blob_maps(n_per_class=5)
    model = ser_model.train_emotion(maps, labels, TrainConfig(epochs=3))
    blob = ser_model.save_emotion_model(model)
    assert blob[:4] == b"SERM"
    again = ser_model.load_emotion_model(blob)
    assert ser_model.save_emotion_model(again) == blob
    assert ser_model.predict_proba(again, maps[0]) == ser_model.predict_proba(model, maps[0])
