import numpy as np
import pytest

from churnfusion import neighbors
from churnfusion.neighbors import join_leave_one_out, nearest
from reference import nearest_reference


@pytest.mark.parametrize("p", [2.0, 5.0])
@pytest.mark.parametrize("exclusion", [None, "other", "self"])
def test_matches_brute_force_on_tied_grid(p, exclusion):
    # points on a 5x5 integer grid tie on distance often, and some repeat
    rng = np.random.default_rng(int(p))
    points = rng.integers(-2, 3, size=(12, 2)).astype(float)
    queries = rng.integers(-2, 3, size=(9, 2)).astype(float)
    exclude = None
    if exclusion == "other":
        exclude = rng.integers(0, len(points), size=len(queries))
    elif exclusion == "self":
        queries, exclude = points, np.arange(len(points))
    # k past the points left to pick from is cut to them
    for k in range(1, len(points) + 2):
        got_idx, got_dist = nearest(queries, points, k, p, exclude)
        want_idx, want_dist = nearest_reference(queries, points, k, p, exclude)
        assert got_idx.tolist() == want_idx.tolist()
        np.testing.assert_allclose(got_dist, want_dist, rtol=1e-12)


@pytest.mark.parametrize("p", [2.0, 5.0])
def test_overflowing_distances_never_pick_the_excluded_point(p):
    # every distance overflows to inf, so only the index order is left
    points = np.array([[1e200, 0.0], [2e200, 0.0], [-1e200, 0.0], [3e200, 0.0]])
    exclude = np.arange(len(points))
    with np.errstate(over="ignore"):
        got_idx, got_dist = nearest(points, points, 3, p, exclude)
        want_idx, want_dist = nearest_reference(points, points, 3, p, exclude)
    assert got_idx.tolist() == want_idx.tolist()
    assert got_idx[0].tolist() == [1, 2, 3]
    assert np.array_equal(got_dist, want_dist)


@pytest.mark.parametrize("rows_per_chunk", [1, 2, 4])
@pytest.mark.parametrize("exclusion", [None, "other", "self"])
@pytest.mark.parametrize("p", [2.0, 5.0])
def test_chunked_search_matches_brute_force(monkeypatch, rows_per_chunk, exclusion, p):
    # 9 and 11 queries are not a multiple of 2 or 4 rows
    rng = np.random.default_rng(rows_per_chunk)
    points = rng.integers(-2, 3, size=(11, 2)).astype(float)
    queries = rng.integers(-2, 3, size=(9, 2)).astype(float)
    exclude = None
    if exclusion == "other":
        exclude = rng.integers(0, len(points), size=len(queries))
    elif exclusion == "self":
        queries, exclude = points, np.arange(len(points))
    monkeypatch.setattr(neighbors, "CHUNK_ELEMENTS", rows_per_chunk * points.size)
    for k in range(1, len(points) + 2):
        got_idx, got_dist = nearest(queries, points, k, p, exclude)
        want_idx, want_dist = nearest_reference(queries, points, k, p, exclude)
        assert got_idx.tolist() == want_idx.tolist()
        np.testing.assert_allclose(got_dist, want_dist, rtol=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e200])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("p", [2.0, 5.0])
def test_joined_leave_one_out_lists_equal_a_fresh_search(scale, k, p):
    # from one point up: while m - 1 < k the lists grow, then they shift;
    # at scale 1e200 every distance between distinct points is inf
    rng = np.random.default_rng(k)
    X = rng.integers(-2, 3, size=(16, 2)).astype(float) * scale
    with np.errstate(over="ignore"):
        lists = nearest(X[:1], X[:1], k, p, exclude=np.arange(1))
        for m in range(1, len(X)):
            lists = join_leave_one_out(*lists, X[:m], X[m], k, p)
            fresh = nearest(X[: m + 1], X[: m + 1], k, p, exclude=np.arange(m + 1))
            assert lists[0].tolist() == fresh[0].tolist()
            assert np.array_equal(lists[1], fresh[1])
