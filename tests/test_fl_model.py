import hashlib

import numpy as np
import pytest

from churnfusion import fl_model as flm
from churnfusion.errors import ShapeMismatch, TargetOutOfRange, TooFewExamples
from churnfusion.synth import SynthConfig, generate_cohort


def make_labeled(rng, n=40, d=3):
    X = rng.normal(size=(n, d))
    y = np.clip(0.5 + 0.3 * X[:, 0] + 0.1 * rng.normal(size=n), 0, 1)
    return X, y


class TestSmogn:
    def test_no_rare_cases_identity(self):
        # all targets equal the median: every relevance score is zero
        data = np.column_stack([np.arange(10.0), np.zeros(10), np.full(10, 0.5)])
        cfg = flm.SmognConfig(relevance_threshold=0.5, k_neighbors=2)
        out = flm.smogn_resample(data, cfg)
        assert len(out) == len(data)

    def test_interpolation_between_two_rare_parents(self):
        # rare pair near the origin, common-target mass far away
        data = np.array([
            [0.0, 0.0, 0.9],
            [1.0, 1.0, 1.0],
            [10.0, 10.0, 0.5],
            [11.0, 10.0, 0.5],
            [10.0, 11.0, 0.5],
        ])
        cfg = flm.SmognConfig(
            relevance_threshold=0.5, k_neighbors=2, oversample_ratio=2.0, seed=0
        )
        out = flm.smogn_resample(data, cfg)
        assert len(out) > 5
        for *feats, target in out[5:]:
            t = feats[0]
            assert feats[1] == pytest.approx(t)  # point lies on the (0,0)-(1,1) segment
            assert 0.0 - 1e-9 <= t <= 1.0 + 1e-9
            assert 0.9 - 1e-9 <= target <= 1.0 + 1e-9

    def test_rare_region_mass_increases(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 2))
        y = np.concatenate([rng.uniform(0.45, 0.55, 80), rng.uniform(0.9, 1.0, 20)])
        cfg = flm.SmognConfig(relevance_threshold=0.6, k_neighbors=5, oversample_ratio=1.0)
        out = flm.smogn_resample(np.column_stack([X, y]), cfg)
        before = np.mean(y > 0.8)
        after = np.mean(out[:, -1] > 0.8)
        assert after > before

    def test_originals_preserved_and_count_formula(self):
        rng = np.random.default_rng(1)
        X, y = make_labeled(rng, 30)
        data = np.column_stack([X, y])
        cfg = flm.SmognConfig(relevance_threshold=0.7, oversample_ratio=1.5, seed=2)
        out = flm.smogn_resample(data, cfg)
        # the row contract: the input rows first, unchanged, then only the draws
        assert out.shape[1] == data.shape[1]
        assert out[:30].tobytes() == data.tobytes()
        n_rare = int(np.sum(flm.relevance_scores(y) > 0.7))
        assert n_rare > 0
        assert len(out) == 30 + int(np.ceil(1.5 * n_rare))
        assert np.all((0.0 <= out[30:, -1]) & (out[30:, -1] <= 1.0))

    def test_errors(self):
        with pytest.raises(TooFewExamples):
            flm.smogn_resample(np.array([[0.0, 0.0, 0.5]]), flm.SmognConfig(k_neighbors=5))
        bad = np.column_stack([np.arange(7.0), np.arange(7.0), np.full(7, 0.5)])
        bad[0, -1] = 1.5
        with pytest.raises(TargetOutOfRange):
            flm.smogn_resample(bad, flm.SmognConfig(k_neighbors=2))


PINNED_TRANSCRIPT = [
    (0, 0, 131, 0.8728208897865927, 0.1331535802921288),
    (0, 0, 70, 0.4764966154968595, 0.07137324567382484),
    (0, 1, 32, 0.3381059743570372, 0.12830876832686888),
    (0, 1, 62, 0.38058021421067595, 0.04707922125374884),
    (1, 0, 88, 0.9596943998825193, 0.08105258048801119),
    (1, 0, 149, 0.38058021421067595, 0.0558123081023687),
    (1, 1, 19, 0.2521887374367271, 0.11933665117404713),
    (1, 1, 5, 0.20021303460927445, 0.11316090906228364),
    (2, 0, 52, 0.20021303460927442, 0.1440348627361167),
    (2, 0, 61, 0.9252535819431906, 0.05516798833663727),
    (2, 1, 46, 0.8728208897865927, 0.02830342447049219),
    (2, 1, 132, 0.8740196610448931, 0.021512305803638644),
    (3, 0, 147, 0.9017937337866356, 0.0433373863316535),
    (3, 0, 99, 0.4035898154889184, 0.03231656357994654),
    (3, 1, 90, 0.44575267875973296, 0.055955324654692495),
    (3, 1, 3, 0.9236350994083318, 0.0493250551420606),
    (4, 0, 123, 0.2076144904284858, 0.03941117415021522),
    (4, 0, 57, 0.8495890113072212, 0.019265347225884147),
    (4, 1, 68, 0.05638747391881412, 0.04494233482173157),
    (4, 1, 148, 0.9764534783247455, 0.04176864966505313),
    (5, 0, 145, 0.09373930631697425, 0.010538535847556811),
    (5, 0, 1, 0.12237838529041097, 0.008138600670394913),
    (5, 1, 141, 0.6617186799109014, 0.06699887715247152),
    (5, 1, 115, 0.2621125158933333, 0.012645581295439814),
]

PINNED_TIE_TRANSCRIPT = [
    (0, 0, 24, 0.43333333333333335, 0.07950617283950617),
    (0, 1, 28, 0.24444444444444446, 0.0979286694101509),
    (1, 0, 12, 0.4333333333333333, 0.06259259259259255),
    (1, 1, 1, 0.5, 0.06333333333333331),
    (2, 0, 8, 0.6333333333333333, 0.037037037037037285),
    (2, 1, 33, 0.4333333333333333, 0.06259259259259255),
    (3, 0, 23, 0.6333333333333334, 0.03703703703703702),
    (3, 1, 18, 0.6333333333333333, 0.037037037037037285),
    (4, 0, 2, 0.39999999999999997, 0.026666666666666783),
    (4, 1, 7, 0.43333333333333335, 0.029382716049382862),
    (5, 0, 39, 0.2333333333333333, 0.023703703703703692),
    (5, 1, 27, 0.24444444444444446, 0.026117969821673533),
    (6, 0, 6, 0.5333333333333333, 0.008395061728395069),
    (6, 1, 20, 0.43333333333333335, 0.0069135802469134375),
    (7, 0, 21, 0.4444444444444445, 0.005884773662551463),
    (7, 1, 14, 0.24444444444444446, 0.022935528120713304),
]


class TestCoreg:
    def test_empty_pool_equals_plain_knn_average(self):
        rng = np.random.default_rng(2)
        X, y = make_labeled(rng, 25)
        cfg = flm.CoregConfig(seed=0)
        model = flm.coreg_train(X, y, np.empty((0, 3)), smogn=None, cfg=cfg)
        k1 = flm.KNNRegressor(X, y, cfg.k1, cfg.p1)
        k2 = flm.KNNRegressor(X, y, cfg.k2, cfg.p2)
        queries = rng.normal(size=(10, 3))
        expected = np.clip(0.5 * (k1.predict(queries) + k2.predict(queries)), 0, 1)
        got = flm.predict_fl_batch(model, queries)
        assert np.array_equal(got, expected)
        assert model.transcript == []

    def test_deterministic_transcript(self):
        rng = np.random.default_rng(3)
        X, y = make_labeled(rng, 20)
        unlabeled = rng.normal(size=(40, 3))
        cfg = flm.CoregConfig(max_iterations=5, pool_size=10, seed=4)
        a = flm.coreg_train(X, y, unlabeled, smogn=None, cfg=cfg)
        b = flm.coreg_train(X, y, unlabeled, smogn=None, cfg=cfg)
        assert a.transcript == b.transcript

    def test_pinned_transcript_and_blob(self):
        # taken from the per-candidate gain loop before it was vectorized
        table = generate_cohort(
            SynthConfig(n_customers=200, n_features=6, clip_duration_s=0.5, seed=4)
        ).table
        known = ~np.isnan(table.fl_label)
        model = flm.coreg_train(
            table.features[known],
            table.fl_label[known],
            table.features[~known],
            flm.SmognConfig(seed=5),
            flm.CoregConfig(max_iterations=6, pool_size=30, batch_per_iter=2, seed=6),
        )
        assert model.transcript == PINNED_TRANSCRIPT
        blob = flm.save_fl_model(model)
        assert hashlib.sha256(blob).hexdigest() == (
            "967697b30d0755a717bd9eaf7deed1a7"
            "0bec8a3fee085d84b3941e348b462d17"
        )

    def test_pinned_transcript_with_distance_ties(self):
        # integer grid points tie on distance often; a tie keeps the incumbent neighbor
        rng = np.random.default_rng(11)
        X = rng.integers(-2, 3, size=(30, 2)).astype(float)
        y = rng.integers(0, 11, size=30) / 10.0
        unlabeled = rng.integers(-2, 3, size=(40, 2)).astype(float)
        model = flm.coreg_train(
            X,
            y,
            unlabeled,
            smogn=None,
            cfg=flm.CoregConfig(max_iterations=8, pool_size=20, seed=3),
        )
        assert model.transcript == PINNED_TIE_TRANSCRIPT

    def test_transcript_gains_strictly_positive(self):
        rng = np.random.default_rng(4)
        X, y = make_labeled(rng, 20)
        unlabeled = rng.normal(size=(60, 3))
        model = flm.coreg_train(
            X, y, unlabeled, smogn=None, cfg=flm.CoregConfig(max_iterations=8, seed=5)
        )
        for _, _, _, _, gain in model.transcript:
            assert gain > 0

    def test_leave_one_out_lists_follow_every_join(self, monkeypatch):
        # two labeled rows and k = 3: the peer lists grow before they shift
        joined = []

        def assert_fresh(lists, X, k, p):
            near, near_dist = flm.nearest(X, X, k, p, exclude=np.arange(len(X)))
            assert np.array_equal(lists[0], near) and np.array_equal(lists[1], near_dist)

        def checked_join(near, near_dist, points, new, k, p):
            assert_fresh((near, near_dist), points, k, p)
            out = real_join(near, near_dist, points, new, k, p)
            assert_fresh(out, np.vstack([points, new]), k, p)
            joined.append(len(points))
            return out

        real_join = flm.join_leave_one_out
        monkeypatch.setattr(flm, "join_leave_one_out", checked_join)
        rng = np.random.default_rng(12)
        X = rng.integers(-2, 3, size=(2, 2)).astype(float)
        unlabeled = rng.integers(-2, 3, size=(40, 2)).astype(float)
        model = flm.coreg_train(
            X,
            np.array([0.2, 0.9]),
            unlabeled,
            smogn=None,
            cfg=flm.CoregConfig(max_iterations=10, pool_size=10, batch_per_iter=2, seed=1),
        )
        assert len(joined) == len(model.transcript) and min(joined) < 3

    def test_empty_labeled_set_rejected(self):
        with pytest.raises(TooFewExamples):
            flm.coreg_train(np.empty((0, 2)), np.empty(0), np.zeros((1, 2)))

    def test_single_labeled_row_rejected(self):
        # one row leaves no neighbor for the leave-one-out error
        with pytest.raises(TooFewExamples, match="got 1"):
            flm.coreg_train(np.zeros((1, 2)), np.array([0.5]), np.ones((1, 2)), smogn=None)

    def test_labeled_rows_and_targets_must_pair_up(self):
        with pytest.raises(ShapeMismatch, match="3 labeled rows but 2 targets"):
            flm.coreg_train(np.zeros((3, 2)), np.array([0.1, 0.9]), np.ones((1, 2)))

    def test_unlabeled_width_must_match(self):
        X, y = make_labeled(np.random.default_rng(8), 10)
        with pytest.raises(ShapeMismatch):
            flm.coreg_train(X, y, np.ones((5, 2)))

    def test_pseudo_labels_help_on_coupled_cohort(self):
        rmse_coreg, rmse_baseline = [], []
        for seed in range(6):
            cohort = generate_cohort(
                SynthConfig(n_customers=400, coupling=0.9, labeled_fl_fraction=0.2, seed=seed)
            )
            train, test = cohort.table.take(slice(0, 300)), cohort.table.take(slice(300, None))
            known = ~np.isnan(train.fl_label)
            X, y = train.features[known], train.fl_label[known]
            cfg = flm.CoregConfig(max_iterations=30, seed=seed)
            model = flm.coreg_train(X, y, train.features[~known], flm.SmognConfig(seed=seed), cfg)
            baseline = flm.coreg_train(X, y, X[:0], flm.SmognConfig(seed=seed), cfg)
            Xt = test.features
            yt = cohort.true_fl[300:]
            rmse_coreg.append(np.sqrt(np.mean((flm.predict_fl_batch(model, Xt) - yt) ** 2)))
            rmse_baseline.append(
                np.sqrt(np.mean((flm.predict_fl_batch(baseline, Xt) - yt) ** 2))
            )
        assert np.mean(rmse_coreg) <= np.mean(rmse_baseline) + 1e-9


class TestPredict:
    def test_training_point_identity_with_k1(self):
        X = np.array([[0.0, 0.0], [3.0, 3.0], [6.0, 0.0]])
        y = np.array([0.2, 0.8, 0.4])
        model = flm.FLModel(
            learner1=flm.KNNRegressor(X, y, 1, 2.0), learner2=flm.KNNRegressor(X, y, 1, 5.0)
        )
        assert flm.predict_fl_batch(model, X[1]).tolist() == [0.8]

    def test_tie_break_lower_index_wins(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([0.2, 0.8])
        model = flm.FLModel(
            learner1=flm.KNNRegressor(X, y, 1, 2.0), learner2=flm.KNNRegressor(X, y, 1, 5.0)
        )
        # query at 1.0 is equidistant from both training points
        assert flm.predict_fl_batch(model, np.array([[1.0]])).tolist() == [0.2]

    def test_output_clipped_to_unit_interval(self):
        rng = np.random.default_rng(6)
        X, y = rng.normal(size=(15, 2)), rng.uniform(0, 1, 15)
        model = flm.FLModel(
            learner1=flm.KNNRegressor(X, y, 3, 2.0), learner2=flm.KNNRegressor(X, y, 3, 5.0)
        )
        pred = flm.predict_fl_batch(model, rng.normal(0, 10, size=(20, 2)))
        assert pred.shape == (20,)
        assert np.all((0.0 <= pred) & (pred <= 1.0))

    def test_dimension_mismatch(self):
        model = flm.FLModel(
            learner1=flm.KNNRegressor(np.zeros((3, 2)), np.zeros(3), 1, 2.0),
            learner2=flm.KNNRegressor(np.zeros((3, 2)), np.zeros(3), 1, 5.0),
        )
        with pytest.raises(ShapeMismatch):
            flm.predict_fl_batch(model, np.zeros((2, 4)))


def test_serialization_round_trip():
    rng = np.random.default_rng(7)
    X, y = make_labeled(rng, 15)
    model = flm.coreg_train(X, y, X[:0], smogn=None, cfg=flm.CoregConfig())
    blob = flm.save_fl_model(model)
    assert blob[:4] == b"FLKN"
    again = flm.load_fl_model(blob)
    assert flm.save_fl_model(again) == blob
    q = rng.normal(size=(5, 3))
    assert np.array_equal(flm.predict_fl_batch(again, q), flm.predict_fl_batch(model, q))


def test_learner_diversity_enforced():
    with pytest.raises(ValueError):
        flm.CoregConfig(k1=3, k2=3, p1=2.0, p2=2.0)
