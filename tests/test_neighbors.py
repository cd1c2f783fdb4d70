import numpy as np
import pytest

from churnfusion.neighbors import nearest
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
