"""Model files: a cut, foreign or overlong blob is refused with ValueError."""

import struct

import numpy as np
import pytest

from churnfusion import blob, mlp
from churnfusion import churn_model as cm
from churnfusion import fl_model as flm
from churnfusion import ser_model as serm


def _fl_blob() -> bytes:
    rng = np.random.default_rng(0)
    return flm.save_fl_model(
        flm.FLModel(
            flm.KNNRegressor(rng.normal(size=(4, 3)), rng.random(4), 2, 2.0),
            flm.KNNRegressor(rng.normal(size=(5, 3)), rng.random(5), 3, 5.0),
        )
    )


def _ser_blob() -> bytes:
    return serm.save_emotion_model(serm.EmotionModel(mlp.init_params((12, 4, 1), 1), n_mels=4))


def _churn_blob() -> bytes:
    rng = np.random.default_rng(2)
    params = mlp.init_params((2, 3, 3, 1), 2)
    model = cm.ChurnModel((0, 2), params, rng.normal(size=2), rng.random(2) + 0.5)
    return cm.save_churn_model(model)


MODELS = {
    "fl": (_fl_blob, flm.load_fl_model),
    "ser": (_ser_blob, serm.load_emotion_model),
    "churn": (_churn_blob, cm.load_churn_model),
}


@pytest.mark.parametrize("name", MODELS)
def test_every_proper_prefix_is_refused(name):
    make, load = MODELS[name]
    data = make()
    for size in range(len(data)):
        with pytest.raises(ValueError):
            load(data[:size])


@pytest.mark.parametrize("name", MODELS)
def test_one_extra_byte_is_refused(name):
    make, load = MODELS[name]
    with pytest.raises(ValueError, match="^1 bytes past the end of the model$"):
        load(make() + b"\0")


@pytest.mark.parametrize("name", MODELS)
def test_foreign_magic_and_other_version_refused(name):
    make, load = MODELS[name]
    data = make()
    with pytest.raises(ValueError, match="^not a .* model file$"):
        load(b"XXXX" + data[4:])
    with pytest.raises(ValueError, match="^unsupported model version 2$"):
        load(data[:4] + blob.header(b"", 2) + data[6:])


@pytest.mark.parametrize(
    "offset, fmt, value", [(14, "<I", 0), (18, "<d", 0.0), (18, "<d", np.nan), (18, "<d", np.inf)]
)
def test_fl_learner_with_bad_k_or_p_refused(offset, fmt, value):
    # after magic and version, the first learner starts m, d, k (u32 each), p (f64)
    data = bytearray(_fl_blob())
    struct.pack_into(fmt, data, offset, value)
    with pytest.raises(ValueError, match="^(neighbor counts|Minkowski p)"):
        flm.load_fl_model(bytes(data))


# after n and two indices come the two means (offset 18), then the two deviations (34)
@pytest.mark.parametrize(
    "offset, value", [(18, np.nan), (18, np.inf), (34, np.nan), (34, np.inf), (34, 0.0)]
)
def test_churn_normalization_must_be_finite_with_positive_deviations(offset, value):
    data = bytearray(_churn_blob())
    struct.pack_into("<d", data, offset, value)
    with pytest.raises(ValueError, match="^norm_mean must be finite"):
        cm.load_churn_model(bytes(data))


@pytest.mark.parametrize("offset", [26, 26 + 8 * 12])  # the first point, the first target
def test_fl_learner_with_non_finite_data_refused(offset):
    data = bytearray(_fl_blob())
    struct.pack_into("<d", data, offset, np.nan)
    with pytest.raises(ValueError, match="^training points and targets must be finite"):
        flm.load_fl_model(bytes(data))


@pytest.mark.parametrize("dims", [(12,), (12, 2)])
def test_network_without_one_output_refused(dims):
    # a one-layer network used to load and then fail with IndexError in forward
    layers = zip(dims[:-1], dims[1:])
    params = b"".join(blob.floats(np.zeros((a, b))) + blob.floats(np.zeros(b)) for a, b in layers)
    fields = struct.pack(f"<IH{len(dims)}I", 4, len(dims), *dims) + params
    with pytest.raises(ValueError, match="one output unit"):
        serm.load_emotion_model(blob.header(b"SERM", 1) + fields)


def test_reader_reads_fields_in_order():
    fields = struct.pack("<IH", 7, 9) + blob.floats([[1.0, 2.0], [3.0, 4.0]])
    data = blob.header(b"TEST", 3) + fields
    reader = blob.Reader(data, b"TEST", 3, "test")
    assert reader.unpack("<IH") == (7, 9)
    assert np.array_equal(reader.floats(2, 2), [[1.0, 2.0], [3.0, 4.0]])
    reader.end()
    with pytest.raises(ValueError, match="cut short"):
        reader.floats(1)
