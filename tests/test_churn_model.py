import numpy as np
import pytest

from churnfusion import churn_model as cm
from churnfusion import mlp
from churnfusion.errors import BadK, DegenerateData, MissingModality, ShapeMismatch, TooFewMinority


def single_feature_accuracy(X, y, j):
    """Best threshold accuracy using feature j alone (brute force)."""
    vals = np.sort(np.unique(X[:, j]))
    cuts = np.concatenate([[vals[0] - 1], (vals[:-1] + vals[1:]) / 2, [vals[-1] + 1]])
    best = 0.0
    for c in cuts:
        for sign in (1, -1):
            pred = (sign * (X[:, j] - c) > 0).astype(int)
            best = max(best, float(np.mean(pred == y)))
    return best


class TestRfe:
    def test_identity_when_k_equals_width(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 5))
        y = (X[:, 0] > 0).astype(int)
        assert cm.rfe_select(X, y, 5) == [0, 1, 2, 3, 4]

    def test_informative_feature_survives(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 5))
        y = (X[:, 0] > 0).astype(int)
        # oracle: feature 0 alone is far more predictive than any other
        accs = [single_feature_accuracy(X, y, j) for j in range(5)]
        assert accs[0] == 1.0 and max(accs[1:]) < 0.8
        assert cm.rfe_select(X, y, 1) == [0]

    def test_survivors_keep_original_order(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 6))
        y = (X[:, 1] + X[:, 4] > 0).astype(int)
        selected = cm.rfe_select(X, y, 3)
        assert selected == sorted(selected)

    def test_errors(self):
        X = np.zeros((10, 3))
        with pytest.raises(DegenerateData):
            cm.rfe_select(X, np.zeros(10), 2)
        y = np.array([0, 1] * 5)
        with pytest.raises(BadK):
            cm.rfe_select(X, y, 0)
        with pytest.raises(BadK):
            cm.rfe_select(X, y, 4)


class TestSmote:
    def test_balanced_input_identity(self):
        X = np.arange(12, dtype=float).reshape(6, 2)
        y = np.array([0, 1, 0, 1, 0, 1])
        X2, y2 = cm.smote_oversample(X, y, ratio=1.0, k=1)
        assert np.array_equal(X2, X) and np.array_equal(y2, y)

    def test_two_point_minority_stays_on_segment(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]] + [[5.0 + i, -3.0] for i in range(8)])
        y = np.array([1, 1] + [0] * 8)
        X2, y2 = cm.smote_oversample(X, y, ratio=1.0, k=1, seed=3)
        synth = X2[len(X):]
        assert len(synth) == 8 - 2
        for pt in synth:
            t = pt[0]
            assert pt[1] == pytest.approx(t)
            assert -1e-9 <= t <= 1 + 1e-9
        assert np.all(y2[len(X):] == 1)

    def test_count_formula_exact(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 3))
        y = np.array([1] * 10 + [0] * 90)
        X2, y2 = cm.smote_oversample(X, y, ratio=1.0, k=5, seed=0)
        counts = np.bincount(y2)
        assert counts[0] == 90 and counts[1] == 90

    def test_originals_preserved(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 2))
        y = np.array([1] * 8 + [0] * 22)
        X2, _ = cm.smote_oversample(X, y, ratio=1.0, k=3, seed=1)
        assert np.array_equal(X2[:30], X)

    def test_synthetic_points_on_parent_segments(self):
        rng = np.random.default_rng(6)
        Xm = rng.normal(size=(12, 4))
        X = np.vstack([Xm, rng.normal(5, 1, size=(40, 4))])
        y = np.array([1] * 12 + [0] * 40)
        X2, _ = cm.smote_oversample(X, y, ratio=1.0, k=5, seed=7)
        for pt in X2[52:]:
            on_some_segment = False
            for a in range(12):
                for b in range(12):
                    if a == b:
                        continue
                    d = Xm[b] - Xm[a]
                    denom = float(d @ d)
                    if denom == 0:
                        continue
                    t = float((pt - Xm[a]) @ d) / denom
                    if -1e-9 <= t <= 1 + 1e-9 and np.allclose(Xm[a] + t * d, pt, atol=1e-9):
                        on_some_segment = True
            assert on_some_segment

    def test_errors(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(DegenerateData):
            cm.smote_oversample(X, np.ones(10, dtype=int))
        y = np.array([1] * 3 + [0] * 7)
        with pytest.raises(TooFewMinority):
            cm.smote_oversample(X, y, ratio=1.0, k=5)


def separable_data(seed=0, n=120):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    X = rng.normal(size=(n, 2)) + 4.0 * y[:, None]
    return X, y


def linear_oracle_accuracy(X, y):
    w = cm._fit_logistic((X - X.mean(0)) / X.std(0), y.astype(float), iters=500)
    pred = (((X - X.mean(0)) / X.std(0)) @ w > 0).astype(int)
    return float(np.mean(pred == y))


class TestTrainChurn:
    def test_separable_data_high_accuracy(self):
        X, y = separable_data()
        assert linear_oracle_accuracy(X, y) >= 0.95  # oracle: really separable
        model = cm.train_churn(X, y, rfe_k=2, hyper=mlp.TrainConfig(epochs=100, seed=0))
        assert model.train_accuracy >= 0.95

    def test_deterministic_bytes(self):
        X, y = separable_data(1)
        cfg = mlp.TrainConfig(epochs=20, seed=3)
        a = cm.train_churn(X, y, rfe_k=2, hyper=cfg)
        b = cm.train_churn(X, y, rfe_k=2, hyper=cfg)
        assert cm.save_churn_model(a) == cm.save_churn_model(b)

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        with pytest.raises(DegenerateData):
            cm.train_churn(X, np.zeros(20, dtype=int), rfe_k=2)

    def test_unknown_or_non_binary_outcome_rejected(self):
        # -1 marks an unknown outcome in a customer table
        X, y = separable_data()
        for bad in (-1, 2):
            labels = y.copy()
            labels[3] = bad
            with pytest.raises(MissingModality):
                cm.train_churn(X, labels, rfe_k=2)

    def test_records_loss_and_accuracy(self):
        X, y = separable_data(2)
        model = cm.train_churn(X, y, rfe_k=2, hyper=mlp.TrainConfig(epochs=30, seed=1))
        assert model.final_loss > 0
        assert 0.0 <= model.train_accuracy <= 1.0


class TestPredict:
    def test_zero_parameters_give_half(self):
        params = mlp.MLPParams((2, 1), [np.zeros((2, 1))], [np.zeros(1)])
        model = cm.ChurnModel((0, 1), params, np.zeros(2), np.ones(2))
        rows = np.array([[3.0, -1.0], [0.0, 2.0]])
        assert cm.predict_churn_batch(model, rows).tolist() == [0.5, 0.5]

    def test_output_in_open_unit_interval(self):
        X, y = separable_data(3)
        model = cm.train_churn(X, y, rfe_k=2, hyper=mlp.TrainConfig(epochs=20, seed=2))
        p = cm.predict_churn_batch(model, X[:20])
        assert p.shape == (20,)
        assert np.all((0.0 < p) & (p < 1.0))

    def test_deep_interior_point_confident(self):
        X, y = separable_data(4, n=200)
        model = cm.train_churn(X, y, rfe_k=2, hyper=mlp.TrainConfig(epochs=200, seed=0))
        # margin-distance oracle: pick the class-1 point farthest from class 0
        ones, zeros = X[y == 1], X[y == 0]
        margins = [np.min(np.linalg.norm(zeros - p, axis=1)) for p in ones]
        deep = ones[int(np.argmax(margins))]
        assert cm.predict_churn_batch(model, deep)[0] > 0.9

    def test_dimension_mismatch(self):
        X, y = separable_data(5)
        model = cm.train_churn(X, y, rfe_k=2, hyper=mlp.TrainConfig(epochs=5, seed=0))
        with pytest.raises(ShapeMismatch):
            cm.predict_churn_batch(model, np.array([[1.0], [2.0]]))

    def test_selection_and_normalization_applied(self):
        rng = np.random.default_rng(7)
        X = np.hstack([rng.normal(size=(150, 1)), rng.normal(0, 10, size=(150, 3))])
        y = (X[:, 0] > 0).astype(int)
        model = cm.train_churn(X, y, rfe_k=1, hyper=mlp.TrainConfig(epochs=100, seed=0))
        assert model.selected_features == (0,)
        # prediction must ignore the unselected noisy columns
        rows = X[:5].copy()
        rows[:, 1:] = 999.0
        expected = cm.predict_churn_batch(model, X[:5])
        assert np.array_equal(cm.predict_churn_batch(model, rows), expected)


def test_serialization_round_trip():
    X, y = separable_data(6)
    model = cm.train_churn(X, y, rfe_k=2, hyper=mlp.TrainConfig(epochs=10, seed=4))
    blob = cm.save_churn_model(model)
    assert blob[:4] == b"CHRN"
    again = cm.load_churn_model(blob)
    assert again.selected_features == model.selected_features
    q = X[:4]
    assert np.array_equal(cm.predict_churn_batch(again, q), cm.predict_churn_batch(model, q))
    assert cm.save_churn_model(again) == blob
