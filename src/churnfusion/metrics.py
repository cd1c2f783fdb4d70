"""Ranking and classification metrics for the risk-level output.

Mean average precision treats each risk level as a retrieval query over
the scored rows; macro F1 weighs the three classes equally; AUC is the
rank statistic over churn propensities. Every function takes arrays with
one entry per scored row, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .data_model import RISK_LABELS
from .errors import DegenerateData, ShapeMismatch
from .fusion import Assignments

MID_RANK_CENTER = 2.0  # D value of the mid-risk triples


@dataclass(frozen=True)
class MetricReport:
    map: float
    macro_f1: float
    accuracy: float
    auc: float | None
    per_class_f1: dict[str, float]
    correlations: dict[str, float] = field(default_factory=dict)
    risk_counts: dict[str, int] = field(default_factory=dict)


def average_precision(ranked_relevance, m: int) -> float:
    """Mean of precision-at-k over the relevant positions."""
    rel = np.asarray(ranked_relevance, dtype=np.float64)
    if m < 1:
        raise DegenerateData("average precision undefined with no relevant items")
    if not np.all((rel == 0) | (rel == 1)) or rel.sum() > m:
        raise ValueError("relevance must be binary with at most m ones")
    hits = np.cumsum(rel)
    precision_at_k = hits / np.arange(1, rel.size + 1)
    return float(np.sum(precision_at_k * rel) / m)


def mean_average_precision(rank_score, truth) -> float:
    """Unweighted mean AP of one retrieval query per risk level in `truth`.

    Each query ranks every row by affinity to its level: descending rank
    score for high, ascending for low, and closeness to the mid-band center
    for mid; ties keep row order. Levels absent from `truth` are skipped.
    """
    ranks, truth = _aligned(np.asarray(rank_score, dtype=np.float64), truth)
    sort_keys = {"low": ranks, "mid": np.abs(ranks - MID_RANK_CENTER), "high": -ranks}
    aps = []
    for level in RISK_LABELS:
        relevant = truth == level
        if relevant.any():
            order = np.argsort(sort_keys[level], kind="stable")
            aps.append(average_precision(relevant[order], int(relevant.sum())))
    if not aps:
        raise DegenerateData("truth holds no risk level")
    return float(np.mean(aps))


def _aligned(predicted, truth) -> tuple[np.ndarray, np.ndarray]:
    predicted, truth = np.asarray(predicted), np.asarray(truth)
    if predicted.shape != truth.shape or not truth.size:
        raise ShapeMismatch("predicted and truth must be equal-length and non-empty")
    return predicted, truth


def macro_f1(predicted, truth, classes=RISK_LABELS) -> float:
    """Unweighted mean of per-class F1; empty denominators count as 0."""
    return float(np.mean(list(per_class_f1(predicted, truth, classes).values())))


def per_class_f1(predicted, truth, classes=RISK_LABELS) -> dict[str, float]:
    predicted, truth = _aligned(predicted, truth)
    scores = {}
    for cls in classes:
        p, t = predicted == cls, truth == cls
        tp, fp, fn = int(np.sum(p & t)), int(np.sum(p & ~t)), int(np.sum(~p & t))
        scores[cls] = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else 0.0
    return scores


def accuracy(predicted, truth) -> float:
    predicted, truth = _aligned(predicted, truth)
    return int(np.sum(predicted == truth)) / truth.size


def roc_auc(scores, labels) -> float:
    """P(random positive outranks random negative), ties at 1/2.

    Mann-Whitney U from average ranks; ranks are half-integers, so it is exact.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(int).ravel()
    if scores.shape != labels.shape:
        raise ShapeMismatch("scores and labels must be equal-length")
    known = (labels == 0) | (labels == 1)
    positive = labels[known] == 1
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateData("both classes must be present")
    # a tie group ending at 1-based rank r with c members shares rank r - (c - 1) / 2
    _, group, counts = np.unique(scores[known], return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    rank_sum = ranks[positive].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def correlation_report(assignments: Assignments) -> dict[str, float]:
    """Pairwise Pearson among fl_score, churn_propensity, emotion_binary, D."""
    if len(assignments.ids) < 3:
        raise DegenerateData("need at least 3 customers")
    if assignments.fl_score is None:
        raise DegenerateData("assignments lack unimodal scores")
    columns = {
        "fl_score": assignments.fl_score,
        "churn_propensity": assignments.propensity,
        "emotion_binary": assignments.emotion.astype(float),
        "D": assignments.D.astype(float),
    }
    for name, col in columns.items():
        if np.std(col) == 0:
            raise DegenerateData(f"column {name!r} is constant")
    return {
        f"{a}~{b}": float(np.corrcoef(columns[a], columns[b])[0, 1])
        for a, b in combinations(columns, 2)
    }


def evaluate_assignments(assignments: Assignments, truth, churn_outcomes=None) -> MetricReport:
    """Full metric report for one strategy's assignments.

    `truth` (risk levels) and `churn_outcomes` (0/1, -1 unknown) hold one
    entry per assignment row. AUC is reported when the known outcomes hold
    both classes, and left blank otherwise.
    """
    predicted = assignments.risk
    auc = None
    if churn_outcomes is not None:
        outcomes = np.asarray(churn_outcomes)
        if np.any(outcomes == 0) and np.any(outcomes == 1):
            auc = roc_auc(assignments.propensity, outcomes)
    try:
        correlations = correlation_report(assignments)
    except DegenerateData:  # too few customers, a constant column, or the baseline
        correlations = {}
    return MetricReport(
        map=mean_average_precision(assignments.rank_score, truth),
        macro_f1=macro_f1(predicted, truth),
        accuracy=accuracy(predicted, truth),
        auc=auc,
        per_class_f1=per_class_f1(predicted, truth),
        correlations=correlations,
        risk_counts={level: int(np.sum(predicted == level)) for level in RISK_LABELS},
    )


def serialize_report(report: MetricReport) -> str:
    """Flat key=value text, one metric per line."""
    lines = [
        f"map={report.map!r}",
        f"macro_f1={report.macro_f1!r}",
        f"accuracy={report.accuracy!r}",
        f"auc={'' if report.auc is None else repr(report.auc)}",
    ]
    for cls, score in report.per_class_f1.items():
        lines.append(f"f1_{cls}={score!r}")
    for pair, value in report.correlations.items():
        lines.append(f"corr_{pair}={value!r}")
    for level, count in report.risk_counts.items():
        lines.append(f"risk_{level}={count}")
    return "\n".join(lines) + "\n"
