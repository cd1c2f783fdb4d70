"""Semi-supervised financial-literacy regression.

A rare-target oversampler (interpolation between rare neighbors, Gaussian
perturbation for isolated rare cases) feeds two diverse k-NN regressors
that co-train on an unlabeled pool: each learner offers the pseudo-labeled
point that most reduces its peer's leave-one-out squared error. The final
score is the clipped mean of both learners, in [0, 1].
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import blob
from .errors import ShapeMismatch, TargetOutOfRange, TooFewExamples
from .neighbors import join_leave_one_out, nearest

MAGIC = b"FLKN"
VERSION = 1


@dataclass(frozen=True)
class SmognConfig:
    relevance_threshold: float = 0.8
    k_neighbors: int = 5
    gaussian_perturbation: float = 0.05
    oversample_ratio: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.relevance_threshold < 1.0:
            raise ValueError("relevance_threshold must lie in (0, 1)")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if not 0.0 <= self.gaussian_perturbation < math.inf:
            raise ValueError("gaussian_perturbation must be finite and non-negative")
        if not 0.0 < self.oversample_ratio < math.inf:
            raise ValueError("oversample_ratio must be finite and positive")


def _check_learner(k: int, p: float) -> None:
    if k < 1:
        raise ValueError("neighbor counts must be >= 1")
    if not 1.0 <= p < math.inf:
        raise ValueError(f"Minkowski p must be finite and >= 1, got {p}")


@dataclass(frozen=True)
class CoregConfig:
    k1: int = 3
    k2: int = 3
    p1: float = 2.0
    p2: float = 5.0
    max_iterations: int = 15
    pool_size: int = 50
    batch_per_iter: int = 1
    seed: int = 0

    def __post_init__(self):
        _check_learner(self.k1, self.p1)
        _check_learner(self.k2, self.p2)
        if (self.k1, self.p1) == (self.k2, self.p2):
            raise ValueError("the two learners must differ in (k, p)")
        if self.max_iterations < 1 or self.pool_size < 1 or self.batch_per_iter < 1:
            raise ValueError("iteration, pool, and batch sizes must be >= 1")


@dataclass
class KNNRegressor:
    """Brute-force k-NN mean with Minkowski metric; ties go to lower index."""

    X: np.ndarray
    y: np.ndarray
    k: int
    p: float

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2 or self.X.shape[0] != self.y.size:
            raise ValueError("X must be [n, d] with matching targets")
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise ValueError("training points and targets must be finite")
        _check_learner(self.k, self.p)

    def predict(self, queries: np.ndarray) -> np.ndarray:
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.shape[1] != self.X.shape[1]:
            raise ShapeMismatch(
                f"query width {queries.shape[1]} != training width {self.X.shape[1]}"
            )
        order, _ = nearest(queries, self.X, self.k, self.p)
        return self.y[order].mean(axis=1)


@dataclass
class FLModel:
    learner1: KNNRegressor
    learner2: KNNRegressor
    transcript: list[tuple[int, int, int, float, float]] = field(default_factory=list)


def relevance_scores(targets: np.ndarray) -> np.ndarray:
    """Absolute deviation from the target median, rescaled to [0, 1]."""
    targets = np.asarray(targets, dtype=np.float64)
    dev = np.abs(targets - np.median(targets))
    peak = dev.max()
    return dev / peak if peak > 0 else np.zeros_like(dev)


def smogn_resample(
    labeled: list[tuple[np.ndarray, float]], cfg: SmognConfig
) -> list[tuple[np.ndarray, float]]:
    """Oversample rare-target examples; originals are kept unchanged.

    Rare examples with a rare point among their k nearest neighbors are
    interpolated toward it (target interpolated along the same segment);
    isolated rare examples get Gaussian feature perturbation instead.
    """
    if len(labeled) < cfg.k_neighbors + 1:
        raise TooFewExamples(
            f"need >= {cfg.k_neighbors + 1} labeled examples, got {len(labeled)}"
        )
    X = np.array([np.asarray(f, dtype=np.float64) for f, _ in labeled])
    y = np.array([t for _, t in labeled], dtype=np.float64)
    if np.any(y < 0) or np.any(y > 1):
        raise TargetOutOfRange("targets must lie in [0, 1]")

    rare = relevance_scores(y) > cfg.relevance_threshold
    rare_idx = np.flatnonzero(rare)
    out = [(X[i].copy(), float(y[i])) for i in range(len(labeled))]
    if rare_idx.size == 0:
        return out

    rng = np.random.default_rng(cfg.seed)
    n_synth = int(np.ceil(cfg.oversample_ratio * rare_idx.size))
    neighbors, _ = nearest(X[rare_idx], X, cfg.k_neighbors, exclude=rare_idx)
    feature_std = X.std(axis=0)

    for s in range(n_synth):
        row = s % rare_idx.size
        a = int(rare_idx[row])
        rare_neighbors = neighbors[row][rare[neighbors[row]]]
        if rare_neighbors.size:
            b = int(rare_neighbors[rng.integers(rare_neighbors.size)])
            t = rng.random()
            feats = X[a] + t * (X[b] - X[a])
            target = (1.0 - t) * y[a] + t * y[b]
        else:
            feats = X[a] + rng.normal(0.0, 1.0, X.shape[1]) * feature_std * cfg.gaussian_perturbation
            target = y[a]
        out.append((feats, float(np.clip(target, 0.0, 1.0))))
    return out


def coreg_train(
    labeled: list[tuple[np.ndarray, float]],
    unlabeled: list[np.ndarray],
    smogn: SmognConfig | None = None,
    cfg: CoregConfig = CoregConfig(),
) -> FLModel:
    """Co-train two k-NN learners with confident pseudo-labels.

    Each iteration, each learner scores a random pool of unlabeled points:
    a candidate's gain is the drop in the peer's leave-one-out squared
    error over the candidate's neighborhood when the pseudo-labeled point
    joins the peer's training set. Positive-gain candidates transfer (at
    most batch_per_iter per learner per iteration); training stops early
    once neither learner accepts anything.
    """
    if not labeled:
        raise TooFewExamples("co-training needs at least one labeled example")
    base = smogn_resample(labeled, smogn) if smogn is not None else list(labeled)
    if len(base) < 2:
        raise TooFewExamples(f"co-training needs >= 2 labeled examples, got {len(base)}")

    X0 = np.array([np.asarray(f, dtype=np.float64) for f, _ in base])
    y0 = np.array([t for _, t in base], dtype=np.float64)
    learners = [KNNRegressor(X0, y0, cfg.k1, cfg.p1), KNNRegressor(X0, y0, cfg.k2, cfg.p2)]
    pool = [np.asarray(f, dtype=np.float64) for f in unlabeled]
    remaining = list(range(len(pool)))
    # leave-one-out: each learner point's k nearest other points of that
    # learner, kept current from one distance row as each point joins it
    loo = [nearest(X0, X0, lrn.k, lrn.p, exclude=np.arange(y0.size)) for lrn in learners]
    rng = np.random.default_rng(cfg.seed)
    transcript: list[tuple[int, int, int, float, float]] = []

    for iteration in range(cfg.max_iterations):
        accepted_any = False
        for selector in (0, 1):
            if not remaining:
                break
            own, peer = learners[selector], learners[1 - selector]
            loo_near, nb_dist = loo[1 - selector]
            nb_targ = peer.y[loo_near]
            loo_pred = nb_targ.mean(axis=1)
            loo_err = (peer.y - loo_pred) ** 2
            k_eff = nb_dist.shape[1]

            pool_idx = rng.choice(
                len(remaining), size=min(cfg.pool_size, len(remaining)), replace=False
            )
            candidates = [remaining[int(i)] for i in pool_idx]
            cand_X = np.array([pool[i] for i in candidates])
            pseudo = own.predict(cand_X)
            # each candidate touches the k peer points nearest to it
            near, near_dist = nearest(cand_X, peer.X, k_eff, peer.p)
            # the new point replaces the farthest of the k current neighbors
            # when strictly closer; ties keep the incumbent
            closer = near_dist < nb_dist[near, -1]
            new_pred = loo_pred[near] + (pseudo[:, None] - nb_targ[near, -1]) / k_eff
            delta = loo_err[near] - (peer.y[near] - new_pred) ** 2
            gains = np.where(closer, delta, 0.0).sum(axis=1)

            for c in np.argsort(-gains, kind="stable")[: cfg.batch_per_iter]:
                if gains[c] <= 0.0:
                    break
                u = candidates[int(c)]
                loo[1 - selector] = join_leave_one_out(
                    *loo[1 - selector], peer.X, pool[u], peer.k, peer.p
                )
                peer.X = np.vstack([peer.X, pool[u][None, :]])
                peer.y = np.append(peer.y, pseudo[int(c)])
                remaining.remove(u)
                transcript.append(
                    (iteration, selector, u, float(pseudo[int(c)]), float(gains[c]))
                )
                accepted_any = True
        if not accepted_any:
            break

    return FLModel(*learners, transcript=transcript)


def predict_fl_batch(model: FLModel, X: np.ndarray) -> np.ndarray:
    """Mean of the two learners per row, clipped to [0, 1]."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return np.clip(0.5 * (model.learner1.predict(X) + model.learner2.predict(X)), 0.0, 1.0)


def _pack_learner(learner: KNNRegressor) -> bytes:
    m, d = learner.X.shape
    head = struct.pack("<IIId", m, d, learner.k, learner.p)
    return head + blob.floats(learner.X) + blob.floats(learner.y)


def _read_learner(reader: blob.Reader) -> KNNRegressor:
    m, d, k, p = reader.unpack("<IIId")
    return KNNRegressor(reader.floats(m, d), reader.floats(m), k, p)


def save_fl_model(model: FLModel) -> bytes:
    learners = _pack_learner(model.learner1) + _pack_learner(model.learner2)
    return blob.header(MAGIC, VERSION) + learners


def load_fl_model(data: bytes) -> FLModel:
    reader = blob.Reader(data, MAGIC, VERSION, "financial-literacy")
    learner1, learner2 = _read_learner(reader), _read_learner(reader)
    reader.end()
    return FLModel(learner1=learner1, learner2=learner2)
