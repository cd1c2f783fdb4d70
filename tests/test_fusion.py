import dataclasses
import itertools

import numpy as np
import pytest

from churnfusion import churn_model as cm
from churnfusion import fl_model as flm
from churnfusion import fusion, pipeline
from churnfusion import ser_model
from churnfusion.audio_features import FeatureParams, build_feature_map
from churnfusion.data_model import RISK_LABELS
from churnfusion.errors import InvalidTriple, MissingModality, ShapeMismatch
from churnfusion.mlp import TrainConfig
from churnfusion.synth import SynthConfig, generate_cohort, generate_ser_corpus

FIELDS = ("fl_score", "propensity", "emotion", "C", "F", "V", "risk", "rank_score")


def fuse_one(fl=0.8, churn=0.2, emotion=0, cfg=fusion.TranslationConfig()):
    return fusion.fuse(["a"], np.array([fl]), np.array([churn]), np.array([emotion]), cfg)


def triple(fl=0.8, churn=0.2, emotion=0, cfg=fusion.TranslationConfig()):
    """(C, F, V) of one customer's scores."""
    a = fuse_one(fl, churn, emotion, cfg)
    return int(a.C[0]), int(a.F[0]), int(a.V[0])


def decide_one(c, f, v):
    return str(fusion.decide(c, f, v))


def assert_same_columns(a, b):
    assert a.ids == b.ids
    for name in FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert np.array_equal(x, y), name


def reversed_rows(a):
    columns = (getattr(a, name) for name in FIELDS)
    return fusion.Assignments(a.ids[::-1], *(None if c is None else c[::-1] for c in columns))


class TestTranslate:
    def test_low_literacy_fires_f(self):
        assert triple(fl=0.3)[1] == 1

    def test_literacy_at_threshold_does_not_fire(self):
        assert triple(fl=0.5)[1] == 0

    def test_churn_at_threshold_keeps_c_zero(self):
        assert triple(churn=0.5)[0] == 0

    def test_churn_above_threshold_fires_weighted(self):
        assert triple(churn=0.51)[0] == 2

    def test_negative_emotion_fires_v(self):
        assert triple(emotion=1)[2] == 1
        assert triple(emotion=0)[2] == 0

    def test_custom_weights(self):
        cfg = fusion.TranslationConfig(weights=(4, 2, 2))
        assert triple(fl=0.1, churn=0.9, emotion=1, cfg=cfg) == (4, 2, 2)

    def test_weight_constraint_enforced(self):
        with pytest.raises(ValueError):
            fusion.TranslationConfig(weights=(2, 1, 0))
        with pytest.raises(ValueError):
            fusion.TranslationConfig(weights=(1, 2, 2))


EXPECTED_RISK = {
    (0, 0, 0): "low",
    (0, 1, 0): "low",
    (0, 0, 1): "low",
    (2, 0, 0): "mid",
    (0, 1, 1): "mid",
    (2, 1, 0): "high",
    (2, 0, 1): "high",
    (2, 1, 1): "high",
}


class TestDecisionFuse:
    @pytest.mark.parametrize("triple,expected", sorted(EXPECTED_RISK.items()))
    def test_exhaustive_mapping(self, triple, expected):
        c, f, v = triple
        assert decide_one(c, f, v) == expected

    def test_partition_exactly_one_class(self):
        for c, f, v in itertools.product((0, 2), (0, 1), (0, 1)):
            risk = decide_one(c, f, v)
            assert risk in RISK_LABELS
            assert [risk == r for r in RISK_LABELS].count(True) == 1

    def test_monotone_in_each_indicator(self):
        order = {r: i for i, r in enumerate(RISK_LABELS)}
        for c, f, v in itertools.product((0, 2), (0, 1), (0, 1)):
            base = order[decide_one(c, f, v)]
            for flipped in ((2, f, v), (c, 1, v), (c, f, 1)):
                assert order[decide_one(*flipped)] >= base

    def test_rank_score_adds_scaled_propensity(self):
        a = fuse_one(fl=0.3, churn=0.6, emotion=0)
        assert (triple(fl=0.3, churn=0.6), a.D[0], a.risk[0]) == ((2, 1, 0), 3, "high")
        assert a.rank_score[0] == pytest.approx(3.06)

    def test_invalid_triple(self):
        with pytest.raises(InvalidTriple):
            fusion.decide([1], [0], [0])
        with pytest.raises(InvalidTriple):
            fusion.decide([0], [3], [0])


@pytest.fixture(scope="module")
def small_world():
    cohort = generate_cohort(SynthConfig(n_customers=80, coupling=0.9, seed=11))
    table = cohort.table
    known = ~np.isnan(table.fl_label)
    labeled = list(zip(table.features[known], table.fl_label[known]))
    fl_model = flm.coreg_train(labeled, [], smogn=None, cfg=flm.CoregConfig())
    clips, labels = generate_ser_corpus(8, 1.0, seed=12)
    params = FeatureParams()
    maps = [build_feature_map(c, params) for c in clips]
    emo_model = ser_model.train_emotion(maps, labels, TrainConfig(epochs=60, seed=0))
    churn = cm.train_churn(
        table.features, table.churn_outcome, rfe_k=6, hyper=TrainConfig(epochs=60, seed=1)
    )
    cfg = pipeline.RunConfig(features=params)
    emotions = pipeline.compute_emotions(cohort.table, cohort.audio_clips, emo_model, cfg)
    return cohort, fl_model, emo_model, churn, emotions, cfg


class TestRunLateFusion:
    def test_composition_single_customer(self, small_world):
        cohort, fl_model, _, churn, emotions, _ = small_world
        one = cohort.table.take([0])
        out = fusion.run_late_fusion(one, fl_model, churn, emotions[:1])
        assert out.ids == (cohort.table.ids[0],)
        assert len(out.risk) == 1
        expected = fusion.fuse(out.ids, out.fl_score, out.propensity, out.emotion)
        assert_same_columns(out, expected)
        assert out.risk[0] == decide_one(out.C[0], out.F[0], out.V[0])

    def test_permutation_equivariance(self, small_world):
        cohort, fl_model, emo_model, churn, emotions, cfg = small_world
        fwd = fusion.run_late_fusion(cohort.table, fl_model, churn, emotions)
        flipped = cohort.table.take(slice(None, None, -1))
        flipped_emotions = pipeline.compute_emotions(flipped, cohort.audio_clips, emo_model, cfg)
        rev = fusion.run_late_fusion(flipped, fl_model, churn, flipped_emotions)
        assert_same_columns(rev, reversed_rows(fwd))

    def test_deterministic(self, small_world):
        cohort, fl_model, _, churn, emotions, _ = small_world
        a = fusion.run_late_fusion(cohort.table, fl_model, churn, emotions)
        b = fusion.run_late_fusion(cohort.table, fl_model, churn, emotions)
        assert_same_columns(a, b)

    def test_missing_audio_rejected(self, small_world):
        cohort, fl_model, emo_model, churn, emotions, cfg = small_world
        with pytest.raises(MissingModality):
            pipeline.compute_emotions(cohort.table, {}, emo_model, cfg)
        no_ref = dataclasses.replace(cohort.table.take([0]), audio_ref=(None,))
        with pytest.raises(MissingModality):
            pipeline.compute_emotions(no_ref, cohort.audio_clips, emo_model, cfg)
        with pytest.raises(MissingModality):
            fusion.run_late_fusion(cohort.table, fl_model, churn, emotions[:-1])

    def test_high_risk_enriched_in_true_high_tier(self, small_world):
        cohort, fl_model, _, churn, emotions, _ = small_world
        out = fusion.run_late_fusion(cohort.table, fl_model, churn, emotions)
        flagged = out.risk == "high"
        assert flagged.any()
        base_rate = np.mean(cohort.risk_tier == "high")
        hit_rate = np.mean(cohort.risk_tier[flagged] == "high")
        assert hit_rate > base_rate


class TestRunHybridFusion:
    def test_deterministic_assignments(self, small_world):
        cohort, fl_model, _, _, emotions, _ = small_world
        def run():
            hybrid = fusion.train_hybrid_churn(
                cohort.table, fl_model, emotions, rfe_k=6, hyper=TrainConfig(epochs=40, seed=2)
            )
            return fusion.run_hybrid_fusion(cohort.table, fl_model, hybrid, emotions)
        assert_same_columns(run(), run())

    def test_augmented_width_checked(self, small_world):
        cohort, fl_model, _, _, emotions, _ = small_world
        width = cohort.table.features.shape[1]
        bad = cm.ChurnModel(
            selected_features=(width + 2,),
            params=cm.mlp.init_params((1, 1), 0),
            norm_mean=np.zeros(1),
            norm_std=np.ones(1),
        )
        with pytest.raises(ShapeMismatch):
            fusion.run_hybrid_fusion(cohort.table, fl_model, bad, emotions)

    def test_augment_features_layout(self):
        X = np.arange(6, dtype=float).reshape(2, 3)
        out = fusion.augment_features(X, np.array([0.1, 0.2]), np.array([0, 1]))
        assert out.shape == (2, 5)
        assert np.array_equal(out[:, :3], X)
        assert np.array_equal(out[:, 3], [0.1, 0.2])
        assert np.array_equal(out[:, 4], [0.0, 1.0])

    def test_agrees_with_late_when_augmented_columns_constant(self, small_world):
        # degenerate check: constant FL/emotion columns add no signal, so a
        # churn model trained on them ranks customers like the plain model
        cohort = small_world[0]
        X = cohort.table.features
        y = cohort.table.churn_outcome
        cfg = TrainConfig(epochs=60, seed=5)
        plain = cm.train_churn(X, y, rfe_k=6, hyper=cfg)
        X_aug = fusion.augment_features(X, np.full(len(X), 0.5), np.zeros(len(X)))
        aug = cm.train_churn(X_aug, y, rfe_k=6, hyper=cfg)
        # constant columns can never survive elimination down to rfe_k
        assert max(aug.selected_features) < X.shape[1]
        p_plain = cm.predict_churn_batch(plain, X)
        p_aug = cm.predict_churn_batch(aug, X_aug)
        assert np.corrcoef(p_plain, p_aug)[0, 1] > 0.95


class TestRunNoneFusion:
    def test_banding(self, small_world):
        cohort, _, _, churn, _, _ = small_world
        out = fusion.run_none_fusion(cohort.table, churn)
        props = cm.predict_churn_batch(churn, cohort.table.features)
        for risk, c, rank, p in zip(out.risk, out.C, out.rank_score, props):
            if p <= 0.5:
                assert risk == "low" and c == 0
            elif p <= 0.75:
                assert risk == "mid" and c == 2
            else:
                assert risk == "high" and c == 2
            assert rank == pytest.approx(4.0 * p)
        assert out.fl_score is None and out.emotion is None
        # AUC ranks by propensity, which is the rank score over 4 bit for bit
        assert np.array_equal(out.propensity, props)
        assert np.array_equal(out.rank_score / 4.0, out.propensity)

    def test_triples_use_churn_only(self, small_world):
        cohort, _, _, churn, _, _ = small_world
        out = fusion.run_none_fusion(cohort.table, churn)
        assert np.all(out.F == 0) and np.all(out.V == 0)
        assert np.array_equal(out.D, out.C)


class TestSerializeAssignments:
    def test_header_and_row_shape(self, small_world):
        cohort, fl_model, _, churn, emotions, _ = small_world
        out = fusion.run_late_fusion(cohort.table, fl_model, churn, emotions)
        text = fusion.serialize_assignments(out).decode("utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(fusion.ASSIGNMENT_HEADER)
        assert len(lines) == len(out.ids) + 1
        first = lines[1].split(",")
        assert first[0] == out.ids[0]
        assert first[8] in RISK_LABELS
        assert first[1:4] == [repr(float(out.fl_score[0])), repr(float(out.propensity[0])),
                              str(out.emotion[0])]
        assert first[9] == repr(float(out.rank_score[0]))

    def test_none_strategy_blank_scores(self, small_world):
        cohort, _, _, churn, _, _ = small_world
        out = fusion.run_none_fusion(cohort.table, churn)
        lines = fusion.serialize_assignments(out).decode("utf-8").strip().split("\n")
        first = lines[1].split(",")
        assert first[1] == "" and first[2] == "" and first[3] == ""
