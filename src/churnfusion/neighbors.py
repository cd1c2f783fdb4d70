"""Brute-force nearest-neighbour search shared by the k-NN learners, SMOGN and SMOTE."""

from __future__ import annotations

import numpy as np


def nearest(
    queries: np.ndarray, points: np.ndarray, k: int, p: float = 2.0, exclude=None
) -> tuple[np.ndarray, np.ndarray]:
    """The k points nearest each query by Minkowski-p distance, nearest first.

    Ties go to the lower point index. `exclude[i]` names the one point that
    query i may not pick, and k is cut to the points left to pick from.
    Returns (indices, distances), each of shape [n_queries, k].
    """
    diff = np.abs(queries[:, None, :] - points[None, :, :])
    dist = np.sqrt((diff**2).sum(axis=2)) if p == 2.0 else (diff**p).sum(axis=2) ** (1.0 / p)
    if exclude is not None:
        dist[np.arange(len(queries)), exclude] = np.inf
    k = min(k, points.shape[0] - (exclude is not None))
    # a copy, so the indices kept by a caller do not pin the full [n, m] sort
    order = np.argsort(dist, axis=1, kind="stable")[:, :k].copy()
    return order, np.take_along_axis(dist, order, axis=1)
