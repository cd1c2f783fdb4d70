"""Brute-force nearest-neighbour search shared by the k-NN learners, SMOGN and SMOTE."""

from __future__ import annotations

import numpy as np

# Queries are taken in chunks whose [chunk, m, d] difference array holds at
# most this many float64 elements (2 MB), so memory stays linear in the
# number of queries and points. Of 2**16 to 2**20, 2**18 was fastest at
# n=20,000 customers and within noise of the best at n=2000.
CHUNK_ELEMENTS = 2**18


def _distances(queries: np.ndarray, points: np.ndarray, p: float) -> np.ndarray:
    """Minkowski-p distance from each query to each point, [n_queries, n_points].

    Each entry depends only on its query row and point row, and
    |a - b| = |b - a|, so dist(a, b) is the same bytes whichever side a is on.
    """
    diff = np.subtract(queries[:, None, :], points[None, :, :])
    np.abs(diff, out=diff)
    return np.power(diff, p, out=diff).sum(axis=2) ** (1.0 / p)


def nearest(
    queries: np.ndarray, points: np.ndarray, k: int, p: float = 2.0, exclude=None
) -> tuple[np.ndarray, np.ndarray]:
    """The k points nearest each query by Minkowski-p distance, nearest first.

    Ties go to the lower point index. `exclude[i]` names the one point that
    query i may not pick, and k is cut to the points left to pick from.
    Returns (indices, distances), each of shape [n_queries, k].
    """
    n, m = len(queries), points.shape[0]
    k = min(k, m - (exclude is not None))
    near = np.empty((n, k), dtype=np.intp)
    near_dist = np.empty((n, k))
    exclude = None if exclude is None else np.asarray(exclude)
    step = max(1, CHUNK_ELEMENTS // max(1, m * points.shape[1]))
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        skip = None if exclude is None else exclude[rows]
        near[rows], near_dist[rows] = _select(_distances(queries[rows], points, p), k, skip)
    return near, near_dist


def _select(dist: np.ndarray, k: int, skip) -> tuple[np.ndarray, np.ndarray]:
    """Per row of `dist`, the k smallest entries other than `skip`, by (distance, index)."""
    rows = np.arange(dist.shape[0])
    if skip is not None:
        dist[rows, skip] = np.inf
    picked = dist.copy()
    near = np.empty((len(rows), k), dtype=np.intp)
    near_dist = np.empty((len(rows), k))
    # argmin gives a tie to the lower index; each pick is then masked out
    for j in range(k):
        near[:, j] = picked.argmin(axis=1)
        near_dist[:, j] = picked[rows, near[:, j]]
        picked[rows, near[:, j]] = np.inf
    # a masked pick and a true inf look alike, so rows that reach an
    # infinite (or NaN) distance are sorted instead
    odd = np.flatnonzero(~np.isfinite(near_dist).all(axis=1))
    for i in odd:
        order = np.argsort(dist[i], kind="stable")
        if skip is not None:
            order = order[order != skip[i]]
        near[i] = order[:k]
        near_dist[i] = dist[i, near[i]]
    return near, near_dist


def join_leave_one_out(
    near: np.ndarray, near_dist: np.ndarray, points: np.ndarray, new: np.ndarray, k: int, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out lists of `points` plus `new` as index m, from those of `points`.

    `(near, near_dist)` must equal `nearest(points, points, k, p,
    exclude=np.arange(m))`; the result equals the same search over the m + 1
    points, from one new distance row. The new point has the highest index,
    so it enters a row's list after every entry at most as far away.
    """
    m, width = points.shape[0], min(k, points.shape[0])
    row = _distances(new[None, :], points, p)[0]
    pos = (near_dist <= row[:, None]).sum(axis=1)
    # column j of an old row takes old column j before pos, the new point
    # (appended as the last candidate column) at pos, old column j - 1 after
    j = np.arange(width)
    src = np.where(j < pos[:, None], j, np.where(j == pos[:, None], near.shape[1], j - 1))
    cand = np.hstack([near, np.full((m, 1), m, dtype=np.intp)])
    cand_dist = np.hstack([near_dist, row[:, None]])
    own, own_dist = _select(row[None, :], width, None)
    return (
        np.vstack([np.take_along_axis(cand, src, axis=1), own]),
        np.vstack([np.take_along_axis(cand_dist, src, axis=1), own_dist]),
    )
