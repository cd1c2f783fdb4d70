"""Indicator translation and decision-level fusion, one column at a time.

Unimodal outputs become a nominal indicator triple (C, F, V) via three
threshold propositions, the triple's weighted sum D ranks churn risk, and
one lookup over the eight (C, F, V) firing patterns assigns exactly one of
low/mid/high per customer. Every function here takes and returns whole
columns: the FL model and the churn model score the table, and emotion
flags arrive as an array computed by the caller. Three strategies are
scored here: churn-only banding ("none"), pure decision fusion over
independent unimodals ("late"), and model-level augmentation of the churn
inputs followed by the same decision rule ("hybrid"). Choosing among them
happens in `pipeline.assign`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import churn_model as cm
from . import fl_model as fl
from .data_model import CustomerTable, csv_bytes
from .errors import InvalidTriple, MissingModality
from .mlp import TrainConfig


@dataclass(frozen=True)
class TranslationConfig:
    """Thresholds for the score propositions plus constant indicator weights."""

    fl_threshold: float = 0.5
    churn_threshold: float = 0.5
    weights: tuple[int, int, int] = (2, 1, 1)  # (w_C, w_F, w_V)

    def __post_init__(self):
        if not 0.0 < self.fl_threshold < 1.0 or not 0.0 < self.churn_threshold < 1.0:
            raise ValueError("thresholds must lie in (0, 1)")
        w_c, w_f, w_v = self.weights
        if not (w_c >= w_f == w_v >= 0):
            raise ValueError("weights must satisfy w_C >= w_F = w_V >= 0")


@dataclass(frozen=True, eq=False)
class Assignments:
    """One strategy's output as parallel columns, one entry per customer.

    `fl_score` and `emotion` (the 0/1 negative-emotion flag) are None for
    the churn-only baseline.
    """

    ids: tuple[str, ...]
    fl_score: np.ndarray | None
    propensity: np.ndarray
    emotion: np.ndarray | None
    C: np.ndarray
    F: np.ndarray
    V: np.ndarray
    risk: np.ndarray
    rank_score: np.ndarray

    @property
    def D(self) -> np.ndarray:
        return self.C + self.F + self.V


# band of each firing pattern, indexed by 4*(C fires) + 2*(F fires) + (V fires).
# Low: no indicator fires, or a single non-churn indicator fires.
# Mid: only the churn indicator, or both non-churn indicators.
# High: the churn indicator plus at least one other.
BANDS = np.array(["low", "low", "low", "mid", "mid", "high", "high", "high"])


def decide(C, F, V, cfg: TranslationConfig = TranslationConfig()) -> np.ndarray:
    """Risk band of each indicator triple, looked up in BANDS."""
    C, F, V = np.asarray(C), np.asarray(F), np.asarray(V)
    for column, weight in zip((C, F, V), cfg.weights):
        if not np.all((column == 0) | (column == weight)):
            raise InvalidTriple(f"indicator values outside weight domains {cfg.weights}")
    return BANDS[4 * (C > 0) + 2 * (F > 0) + (V > 0)]


def fuse(
    ids, fl_score, propensity, emotion, cfg: TranslationConfig = TranslationConfig()
) -> Assignments:
    """Translate score columns into indicators and band each customer.

    F fires on a low literacy score (strict '<'), C fires on churn
    propensity strictly above its threshold ('<=' keeps C at 0), and V
    fires on a negative emotion. The rank score D + propensity/10 keeps
    class order while breaking ties continuously.
    """
    w_c, w_f, w_v = cfg.weights
    C = np.where(propensity <= cfg.churn_threshold, 0, w_c)
    F = np.where(fl_score < cfg.fl_threshold, w_f, 0)
    V = np.where(emotion == 1, w_v, 0)
    rank_score = C + F + V + propensity / 10.0
    return Assignments(
        tuple(ids), fl_score, propensity, emotion, C, F, V, decide(C, F, V, cfg), rank_score
    )


def augment_features(X: np.ndarray, fl_scores: np.ndarray, emotion_binary: np.ndarray) -> np.ndarray:
    """Append the FL score and emotion flag as two extra churn-model inputs."""
    return np.column_stack([X, np.asarray(fl_scores, float), np.asarray(emotion_binary, float)])


def _score(table, fl_model, churn, emotions, cfg, augmented: bool) -> Assignments:
    X = table.features
    emotions = np.asarray(emotions)
    if emotions.shape != (len(table),):
        raise MissingModality("one emotion flag per row required")
    fl_score = fl.predict_fl_batch(fl_model, X)
    propensity = cm.predict_churn_batch(
        churn, augment_features(X, fl_score, emotions) if augmented else X
    )
    return fuse(table.ids, fl_score, propensity, emotions, cfg)


def run_late_fusion(
    table: CustomerTable,
    fl_model: fl.FLModel,
    churn: cm.ChurnModel,
    emotions: np.ndarray,
    cfg: TranslationConfig = TranslationConfig(),
) -> Assignments:
    """Each modality scores its own raw source; fusion happens at decision level only."""
    return _score(table, fl_model, churn, emotions, cfg, augmented=False)


def train_hybrid_churn(
    table: CustomerTable,
    fl_model: fl.FLModel,
    emotions: np.ndarray,
    rfe_k: int,
    smote: cm.SmoteParams = cm.SmoteParams(),
    hyper: TrainConfig = TrainConfig(),
) -> cm.ChurnModel:
    """Stage-1 hybrid fusion: retrain the churn model on augmented inputs."""
    X = table.features
    X_aug = augment_features(X, fl.predict_fl_batch(fl_model, X), emotions)
    return cm.train_churn(X_aug, table.churn_outcome, rfe_k, smote, hyper)


def run_hybrid_fusion(
    table: CustomerTable,
    fl_model: fl.FLModel,
    hybrid_churn: cm.ChurnModel,
    emotions: np.ndarray,
    cfg: TranslationConfig = TranslationConfig(),
) -> Assignments:
    """Stage-2 hybrid fusion: score with the augmented churn model, then fuse."""
    return _score(table, fl_model, hybrid_churn, emotions, cfg, augmented=True)


def run_none_fusion(
    table: CustomerTable,
    churn: cm.ChurnModel,
    cfg: TranslationConfig = TranslationConfig(),
) -> Assignments:
    """Unimodal baseline: churn propensity banded into three risk levels.

    Bands sit at the churn threshold and halfway between it and 1, the
    cut-points a propensity-only triple can express; the rank score maps
    propensity onto the same 0..4 scale as the fused D.
    """
    propensity = cm.predict_churn_batch(churn, table.features)
    low = propensity <= cfg.churn_threshold
    mid = propensity <= (1.0 + cfg.churn_threshold) / 2.0
    C = np.where(low, 0, cfg.weights[0])
    zeros = np.zeros_like(C)
    risk = np.where(low, "low", np.where(mid, "mid", "high"))
    return Assignments(table.ids, None, propensity, None, C, zeros, zeros, risk, 4.0 * propensity)


ASSIGNMENT_HEADER = (
    "id",
    "fl_score",
    "churn_propensity",
    "emotion_binary",
    "C",
    "F",
    "V",
    "D",
    "risk",
    "rank_score",
)


def serialize_assignments(assignments: Assignments) -> bytes:
    """CSV in ASSIGNMENT_HEADER order; the baseline leaves the three score cells blank."""
    a = assignments
    blank = [""] * len(a.ids)
    baseline = a.fl_score is None
    columns = (
        a.ids,
        blank if baseline else [repr(v) for v in a.fl_score.tolist()],
        blank if baseline else [repr(v) for v in a.propensity.tolist()],
        blank if baseline else a.emotion.tolist(),
        a.C.tolist(),
        a.F.tolist(),
        a.V.tolist(),
        a.D.tolist(),
        a.risk.tolist(),
        [repr(v) for v in a.rank_score.tolist()],
    )
    return csv_bytes([ASSIGNMENT_HEADER, *zip(*columns)])
