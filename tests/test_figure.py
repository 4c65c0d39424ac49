"""SVG figure helpers checked against straightforward references."""

import numpy as np

from minmaxlp.figure import _intersections


def pairwise_intersections(A, b):
    """One 2x2 solve per pair of rows, skipping (nearly) parallel pairs."""
    points = []
    for i in range(len(b)):
        for j in range(i + 1, len(b)):
            M = A[[i, j]]
            scale = np.linalg.norm(A[i]) * np.linalg.norm(A[j])
            if abs(np.linalg.det(M)) > 1e-9 * max(scale, 1e-300):
                points.append(np.linalg.solve(M, b[[i, j]]))
    return points


def test_intersections_match_the_pair_loop():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(1, 25))
        A = rng.uniform(-1.0, 1.0, (n, 2))
        # parallel and antiparallel copies of some rows, nudged by less or
        # more than the threshold so that some pairs count as parallel
        # and some do not
        src, dst = rng.integers(0, n, size=(2, n // 3))
        factor = rng.choice([-2.0, 0.5, 1.0], src.size)[:, None]
        nudge = rng.uniform(-1.0, 1.0, (src.size, 2)) * 10.0 ** rng.integers(-12, -6, (src.size, 1))
        A[dst] = A[src] * factor + nudge
        b = rng.uniform(-2.0, 2.0, n)
        got = _intersections(A, b)
        want = pairwise_intersections(A, b)
        assert len(got) == len(want)
        np.testing.assert_array_equal(np.reshape(got, (-1, 2)), np.reshape(want, (-1, 2)))
