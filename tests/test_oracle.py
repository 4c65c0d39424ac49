"""Reference-solver tests on programs small enough to check by hand, plus
classification of the planted random families."""

import numpy as np
import pytest

from lpgen import bounded_lp, flat_lp, infeasible_lp, unbounded_lp
from minmaxlp.model import LinearProgram, SolutionStatus
from oracle import enumerate_vertices, oracle_solve

BOX = LinearProgram(
    dimension=2,
    A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
    b=[1.0, 1.0, 1.0, 1.0],
    c=[1.0, 1.0],
)


class TestEnumerateVertices:
    def test_box_corners(self):
        verts = enumerate_vertices(BOX)
        got = sorted(tuple(np.round(v.x, 9)) for v in verts)
        assert got == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]

    def test_active_rows_are_tight(self):
        for v in enumerate_vertices(BOX):
            rows = list(v.active_rows)
            assert len(rows) == 2
            np.testing.assert_allclose(BOX.A[rows] @ v.x, BOX.b[rows], atol=1e-9)

    def test_too_few_rows(self):
        lp = LinearProgram(dimension=2, A=[[1.0, 0.0]], b=[1.0], c=[1.0, 0.0])
        assert enumerate_vertices(lp) == []

    def test_parallel_rows_make_no_vertex(self):
        lp = LinearProgram(dimension=2, A=[[1.0, 0.0], [2.0, 0.0]], b=[1.0, 3.0], c=[1.0, 0.0])
        assert enumerate_vertices(lp) == []

    def test_duplicate_rows_collapse(self):
        lp = LinearProgram(
            dimension=2,
            A=np.vstack([BOX.A, [1.0, 0.0]]),
            b=np.append(BOX.b, 1.0),
            c=BOX.c,
        )
        assert len(enumerate_vertices(lp)) == 4

    def test_cut_corners_are_dropped(self):
        # triangle x >= 0, y >= 0, x + y <= 1 plus a slack row x + y <= 2:
        # intersections on the slack row violate the tight one
        lp = LinearProgram(
            dimension=2,
            A=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [1.0, 1.0]],
            b=[0.0, 0.0, 1.0, 2.0],
            c=[1.0, 0.0],
        )
        got = sorted(tuple(np.round(v.x, 9)) for v in enumerate_vertices(lp))
        assert got == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]


class TestOracleSolve:
    def test_box_corner(self):
        sol = oracle_solve(BOX)
        assert sol.status is SolutionStatus.OPTIMAL
        assert sol.objective == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-12)
        assert sol.residual <= 1e-9

    def test_box_corner_minimize(self):
        lp = LinearProgram(dimension=2, A=BOX.A, b=BOX.b, c=BOX.c, sense="minimize")
        sol = oracle_solve(lp)
        assert sol.objective == pytest.approx(-2.0, abs=1e-12)
        np.testing.assert_allclose(sol.x, [-1.0, -1.0], atol=1e-12)

    def test_halfplane_free_direction(self):
        lp = LinearProgram(dimension=2, A=[[0.0, 1.0]], b=[1.0], c=[1.0, 0.0])
        assert oracle_solve(lp).status is SolutionStatus.UNBOUNDED

    def test_cone_with_vertex_is_still_unbounded(self):
        lp = LinearProgram(
            dimension=2, A=[[-1.0, 0.0], [0.0, -1.0]], b=[0.0, 0.0], c=[1.0, 1.0]
        )
        assert oracle_solve(lp).status is SolutionStatus.UNBOUNDED

    def test_contradictory_slab_is_infeasible_not_unbounded(self):
        # a free direction exists formally, but there is nowhere to start
        lp = LinearProgram(
            dimension=2, A=[[1.0, 0.0], [-1.0, 0.0]], b=[-1.0, -1.0], c=[0.0, 1.0]
        )
        assert oracle_solve(lp).status is SolutionStatus.INFEASIBLE

    def test_slab_without_vertices_still_optimizes(self):
        lp = LinearProgram(
            dimension=2, A=[[0.0, 1.0], [0.0, -1.0]], b=[1.0, 1.0], c=[0.0, 1.0]
        )
        sol = oracle_solve(lp)
        assert sol.status is SolutionStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0, abs=1e-9)
        assert sol.residual <= 1e-9

    def test_zero_width_slab_is_feasible(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            assert oracle_solve(flat_lp(rng)).status is SolutionStatus.OPTIMAL

    def test_planted_families_classify(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            lp, _ = bounded_lp(rng)
            assert oracle_solve(lp).status is SolutionStatus.OPTIMAL
            assert oracle_solve(unbounded_lp(rng)).status is SolutionStatus.UNBOUNDED
            assert oracle_solve(infeasible_lp(rng)).status is SolutionStatus.INFEASIBLE

    def test_optimum_is_a_vertex_and_beats_the_rest(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            lp, _ = bounded_lp(rng)
            sol = oracle_solve(lp)
            assert sol.residual <= 1e-9
            verts = enumerate_vertices(lp)
            assert any(abs(lp.c @ v.x - sol.objective) <= 1e-9 for v in verts)
            for v in verts:
                assert lp.c @ v.x <= sol.objective + 1e-9
