"""Duality involution, incidence, and same-side preservation tests."""

import numpy as np
import pytest

from dual_geometry import (
    Plane,
    Side,
    dual_of_plane,
    dual_of_point,
    is_feasible_dual_plane,
    same_side_as_origin,
    side_of,
    z_intercept,
)
from minmaxlp.errors import GeometryError


class TestDualMaps:
    def test_point_to_plane(self):
        plane = dual_of_point(np.array([2.0, 3.0]))
        np.testing.assert_array_equal(plane.normal, [2.0, 3.0])
        assert plane.offset == -1.0

    def test_plane_to_point(self):
        # x + y = 2 dualizes to (-1/2, -1/2)
        q = dual_of_plane(Plane([1.0, 1.0], 2.0))
        np.testing.assert_array_equal(q, [-0.5, -0.5])

    def test_constraint_boundary_example(self):
        # the boundary of x <= 1 dualizes to the point (-1, 0)
        q = dual_of_plane(Plane([1.0, 0.0], 1.0))
        np.testing.assert_array_equal(q, [-1.0, 0.0])

    def test_involution_on_points(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = rng.standard_normal(int(rng.integers(2, 8)))
            np.testing.assert_array_equal(dual_of_plane(dual_of_point(p)), p)

    def test_involution_on_planes_up_to_scale(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            normal = rng.standard_normal(3)
            offset = rng.standard_normal() + np.sign(rng.standard_normal()) * 0.5
            back = dual_of_point(dual_of_plane(Plane(normal, offset)))
            # same plane, coefficients scaled by -1/offset
            np.testing.assert_allclose(back.normal * offset, -normal, rtol=1e-12, atol=1e-12)
            assert back.offset == -1.0

    def test_zero_point_rejected(self):
        with pytest.raises(GeometryError):
            dual_of_point(np.zeros(3))

    def test_plane_through_origin_rejected(self):
        with pytest.raises(GeometryError):
            dual_of_plane(Plane([1.0, 1.0], 0.0))


class TestZIntercept:
    def test_horizontal_plane(self):
        assert z_intercept(Plane([0.0, 1.0], 5.0)) == 5.0

    def test_vertical_plane_rejected(self):
        with pytest.raises(GeometryError):
            z_intercept(Plane([1.0, 0.0], 1.0))

    def test_dual_plane_intercept_is_reciprocal(self):
        """The dual plane of p crosses the last axis at -1/p_d."""
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = rng.standard_normal(4)
            if abs(p[-1]) < 1e-3:
                continue
            assert z_intercept(dual_of_point(p)) == -1.0 / p[-1]


class TestSides:
    def test_side_of(self):
        plane = Plane([0.0, 1.0], 1.0)  # y = 1
        assert side_of(plane, np.array([0.0, 2.0])) is Side.POSITIVE
        assert side_of(plane, np.array([0.0, 0.0])) is Side.NEGATIVE
        assert side_of(plane, np.array([3.0, 1.0])) is Side.INCIDENT

    def test_same_side_as_origin(self):
        plane = Plane([0.0, 1.0], 1.0)
        assert same_side_as_origin(plane, np.array([0.0, 0.5]))
        assert not same_side_as_origin(plane, np.array([0.0, 2.0]))
        # on the plane counts as the origin's side
        assert same_side_as_origin(plane, np.array([5.0, 1.0]))

    def test_origin_on_plane_rejected(self):
        with pytest.raises(GeometryError):
            same_side_as_origin(Plane([1.0, 0.0], 0.0), np.array([1.0, 1.0]))


def test_duality_preserves_origin_side():
    """p is on the origin's side of T exactly when T's dual point is on the
    origin's side of p's dual plane."""
    rng = np.random.default_rng(6)
    trials = 0
    while trials < 300:
        d = int(rng.integers(2, 7))
        normal = rng.standard_normal(d)
        offset = rng.standard_normal()
        p = rng.standard_normal(d) * 10.0 ** rng.integers(-1, 3)
        # keep clear of the incidence bands so both predicates are crisp
        if abs(offset) < 1e-3 * np.linalg.norm(normal):
            continue
        if abs(normal @ p - offset) < 1e-6 * (1 + abs(offset) + np.linalg.norm(normal) * np.linalg.norm(p)):
            continue
        if np.linalg.norm(p) < 1e-6:
            continue
        plane = Plane(normal, offset)
        primal = same_side_as_origin(plane, p)
        dual = same_side_as_origin(dual_of_point(p), dual_of_plane(plane))
        assert primal == dual
        trials += 1


def test_dual_feasibility_matches_direct_check():
    """Checking every constraint directly agrees with the all-points-one-side
    test against the candidate's dual plane."""
    rng = np.random.default_rng(7)
    trials = 0
    while trials < 200:
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 10))
        A = rng.standard_normal((n, d))
        b = rng.random(n) + 0.1  # origin strictly inside, every offset nonzero
        p = rng.standard_normal(d) * 2.0
        margins = A @ p - b
        scale = 1 + np.abs(b) + np.linalg.norm(A, axis=1) * np.linalg.norm(p)
        if np.linalg.norm(p) < 1e-6 or np.any(np.abs(margins) < 1e-6 * scale):
            continue
        direct = bool(np.all(margins <= 0))
        dual_points = -A / b[:, None]
        assert is_feasible_dual_plane(dual_of_point(p), dual_points) == direct
        trials += 1


def test_dual_feasibility_square():
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.ones(4)
    dual_points = -A / b[:, None]
    assert is_feasible_dual_plane(dual_of_point(np.array([0.5, 0.5])), dual_points)
    assert not is_feasible_dual_plane(dual_of_point(np.array([2.0, 0.0])), dual_points)
    # a vertex of the square is feasible (incident to two dual-point planes)
    assert is_feasible_dual_plane(dual_of_point(np.array([1.0, 1.0])), dual_points)
