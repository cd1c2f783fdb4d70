import numpy as np
import pytest

from churnfusion import blob, mlp
from churnfusion.errors import ShapeMismatch
from reference import numerical_gradient


def random_instance(rng, dims=None):
    if dims is None:
        n_hidden = int(rng.integers(0, 3))
        dims = (int(rng.integers(2, 6)),) + tuple(
            int(rng.integers(2, 8)) for _ in range(n_hidden)
        ) + (1,)
    params = mlp.init_params(dims, int(rng.integers(1 << 30)))
    X = rng.normal(size=(int(rng.integers(3, 10)), dims[0]))
    y = rng.integers(0, 2, X.shape[0]).astype(float)
    return params, X, y


def gradient_relative_error(params, X, y, l2=0.0):
    _, gw, gb = mlp.loss_and_grads(params, X, y, l2)
    analytic = np.concatenate([a.ravel() for pair in zip(gw, gb) for a in pair])
    numeric = numerical_gradient(params, X, y, l2)
    return np.linalg.norm(analytic - numeric) / max(
        np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
    )


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(20):
        params, X, y = random_instance(rng)
        assert gradient_relative_error(params, X, y, l2=1e-3) < 1e-4


def test_forward_probability_range_and_complement():
    rng = np.random.default_rng(1)
    params, X, _ = random_instance(rng)
    p = mlp.forward(params, X)
    assert np.all((p > 0) & (p < 1))
    # the two class probabilities are p and 1-p by construction
    assert np.allclose(p + (1 - p), 1.0, atol=1e-9)


def test_zero_parameters_give_half():
    dims = (4, 1)
    params = mlp.MLPParams(dims, [np.zeros((4, 1))], [np.zeros(1)])
    assert np.all(mlp.forward(params, np.ones((3, 4))) == 0.5)


def test_train_is_deterministic():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(float)
    cfg = mlp.TrainConfig(epochs=20, seed=9)
    a, loss_a = mlp.train(X, y, (8,), cfg)
    b, loss_b = mlp.train(X, y, (8,), cfg)
    assert loss_a == loss_b
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_full_batch_training_invariant_under_input_order():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 3))
    y = (X[:, 1] > 0).astype(float)
    cfg = mlp.TrainConfig(epochs=15, batch_size=30, seed=4)
    perm = rng.permutation(30)
    a, _ = mlp.train(X, y, (6,), cfg)
    b, _ = mlp.train(X[perm], y[perm], (6,), cfg)
    for wa, wb in zip(a.weights, b.weights):
        assert np.allclose(wa, wb, atol=1e-10)


def test_shape_mismatch():
    params = mlp.init_params((4, 3, 1), 0)
    with pytest.raises(ShapeMismatch):
        mlp.forward(params, np.ones((2, 5)))


def test_pack_unpack_round_trip():
    params = mlp.init_params((5, 4, 1), 11)
    packed = mlp.pack_params(params)
    reader = blob.Reader(blob.header(b"TEST", 1) + packed, b"TEST", 1, "test")
    again = mlp.unpack_params(reader)
    reader.end()
    assert again.layer_dims == params.layer_dims
    for wa, wb in zip(again.weights, params.weights):
        assert np.array_equal(wa, wb)
    assert mlp.pack_params(again) == packed
