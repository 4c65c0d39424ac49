"""End-to-end pipeline tests: interior search, dualization, support plane,
recovery, and the status map, checked against hand-solved programs and the
brute-force oracle."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from dual_geometry import Plane, is_feasible_dual_plane
from lpgen import bounded_lp, flat_lp, infeasible_lp, unbounded_lp
from minmaxlp import reduction
from minmaxlp.errors import DimensionCapError, ReductionError, TransformError
from minmaxlp.minmax import (
    MinMaxResult,
    MinMaxStatus,
    PiecewiseMaxProblem,
    solve_exact,
    solve_subgradient,
)
from minmaxlp.model import LinearProgram, Sense, SolutionStatus
from minmaxlp.reduction import (
    PhaseOneResult,
    PhaseOneStatus,
    SolveOptions,
    build_support_problem,
    classify_and_recover,
    phase1,
    prepare,
    solve,
)
from minmaxlp.transforms import EPS_STRICT, HouseholderRotation, rotation_to_last_axis
from oracle import oracle_solve
from transform_reference import (
    dual_constraint_points,
    make_origin_strictly_feasible,
    rotate_problem,
)

ROOF = LinearProgram(
    dimension=2,
    A=[[0.0, 1.0], [1.0, 1.0], [-1.0, 1.0], [0.0, -1.0]],
    b=[1.0, 2.0, 2.0, 1.0],
    c=[0.0, 1.0],
)  # ceiling plus two slanted walls and a floor; top edge at y = 1
ROOF_DUALS = [[0.0, -1.0], [-0.5, -0.5], [0.5, -0.5], [0.0, 1.0]]  # -A_i / b_i

# bounded programs whose phase-1 margin max(A p - b) has no minimum, with
# their optima: the ceiling y <= 1 and the quadrant x <= 1, y <= 1
NO_DEEPEST_POINT = [
    pytest.param(LinearProgram(dimension=2, A=[[0.0, 1.0]], b=[1.0], c=[0.0, 1.0]),
                 [0.0, 1.0], id="ceiling"),
    pytest.param(LinearProgram(dimension=2, A=[[1.0, 0.0], [0.0, 1.0]], b=[1.0, 1.0],
                               c=[1.0, 1.0]),
                 [1.0, 1.0], id="quadrant"),
]


class TestPhase1:
    def test_offcenter_box(self):
        # interior search on 1 <= margins: best is midway, one unit deep
        lp = LinearProgram(
            dimension=2,
            A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            b=[3.0, 1.0, 1.0, 1.0],
            c=[1.0, 0.0],
        )
        res = phase1(lp)
        assert res.status is PhaseOneStatus.STRICT_INTERIOR
        assert res.margin == pytest.approx(-1.0, abs=1e-9)
        # any p with x in [0, 2], y = 0 is a deepest point
        assert -1e-9 <= res.p0[0] <= 2 + 1e-9
        assert res.p0[1] == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_array_less(lp.A @ res.p0, lp.b)

    def test_positive_offsets_admit_origin(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            lp, _ = bounded_lp(rng)
            shifted = LinearProgram(
                dimension=lp.dimension, A=lp.A, b=np.abs(lp.b) + 0.5, c=lp.c
            )
            res = phase1(shifted)
            assert res.status is PhaseOneStatus.STRICT_INTERIOR
            # the origin alone already achieves -min(b); the optimum can only improve
            assert res.margin <= -float(np.min(shifted.b)) + 1e-9
            assert (shifted.A @ res.p0 < shifted.b).all()

    def test_zero_width_slab(self):
        lp = LinearProgram(
            dimension=2, A=[[1.0, 0.0], [-1.0, 0.0]], b=[0.0, 0.0], c=[0.0, 1.0]
        )
        res = phase1(lp)
        assert res.status is PhaseOneStatus.NO_STRICT_INTERIOR
        assert abs(res.margin) <= 1e-9

    def test_infeasible_slab(self):
        lp = LinearProgram(
            dimension=2, A=[[1.0, 0.0], [-1.0, 0.0]], b=[-1.0, -1.0], c=[0.0, 1.0]
        )
        res = phase1(lp)
        assert res.status is PhaseOneStatus.NO_STRICT_INTERIOR
        assert res.margin >= 1.0 - 1e-9

    def test_halfspace_has_arbitrarily_deep_interior(self):
        # one constraint: the margin program is unbounded below, and the
        # witness of that descent is still a valid interior point
        lp = LinearProgram(dimension=2, A=[[0.0, 1.0]], b=[1.0], c=[1.0, 0.0])
        res = phase1(lp)
        assert res.status is PhaseOneStatus.STRICT_INTERIOR
        assert (lp.A @ res.p0 < lp.b).all()

    def test_status_follows_the_margin(self):
        p0 = np.zeros(2)
        assert PhaseOneResult(p0, -2 * EPS_STRICT).status is PhaseOneStatus.STRICT_INTERIOR
        for margin in (-EPS_STRICT, 0.0, 1.0):
            assert PhaseOneResult(p0, margin).status is PhaseOneStatus.NO_STRICT_INTERIOR

    @pytest.mark.parametrize("lp, x_star", NO_DEEPEST_POINT)
    def test_exact_witness_is_the_backend_minimizer(self, lp, x_star):
        # the witness sits on the exact backend's doubled box, so it is
        # returned bit for bit, never pulled back
        res = phase1(lp)
        want = solve_exact(PiecewiseMaxProblem(G=lp.A, h=-lp.b))
        assert want.status is MinMaxStatus.UNBOUNDED_BELOW
        assert res.p0.tobytes() == want.x_star.tobytes()
        assert res.margin == want.value

    @pytest.mark.parametrize("lp, x_star", NO_DEEPEST_POINT)
    def test_runaway_witness_is_pulled_back(self, lp, x_star):
        # the iterative backend runs off to a margin near -1e12; phase 1
        # hands back the point of that ray whose margin is -(1 + max|b|)
        raw = solve_subgradient(PiecewiseMaxProblem(G=lp.A, h=-lp.b))
        assert raw.value < -1e11
        res = phase1(lp, SolveOptions(solver="subgradient"))
        assert res.status is PhaseOneStatus.STRICT_INTERIOR
        assert res.margin == pytest.approx(-2.0, rel=1e-12)
        assert res.margin == float((lp.A @ res.p0 - lp.b).max())
        # on the ray from the origin through the raw witness
        np.testing.assert_allclose(res.p0 / np.abs(res.p0).max(),
                                   raw.x_star / np.abs(raw.x_star).max(), rtol=1e-12)


class TestDualPoints:
    # ROOF's objective is e_d, so prepare around the origin only dualizes

    def test_roof_duals(self):
        prob, _ = prepare(ROOF, np.zeros(2))
        np.testing.assert_allclose(np.column_stack((prob.G, -prob.h)), ROOF_DUALS)

    def test_duals_are_readonly(self):
        prob, _ = prepare(ROOF, np.zeros(2))
        for pieces in (prob.G, prob.h):
            with pytest.raises(ValueError):
                pieces[0] = 5.0


class TestSupportProblem:
    def test_pieces_split_slope_and_height(self):
        prob = build_support_problem(np.array(ROOF_DUALS))
        np.testing.assert_allclose(prob.G, [[0.0], [-0.5], [0.5], [0.0]])
        np.testing.assert_allclose(prob.h, [1.0, 0.5, 0.5, -1.0])

    def test_rejects_degenerate_input(self):
        with pytest.raises(ReductionError):
            build_support_problem(np.empty((0, 2)))
        with pytest.raises(ReductionError):
            build_support_problem(np.array([[1.0], [2.0]]))

    def test_roof_intercept_and_recovery(self):
        prob = build_support_problem(np.array(ROOF_DUALS))
        result = solve_exact(prob, seed=0)
        assert result.value == pytest.approx(1.0, abs=1e-9)  # t* = -1
        status, point = classify_and_recover(prob, result)
        assert status is SolutionStatus.OPTIMAL
        np.testing.assert_allclose(point, [0.0, 1.0], atol=1e-9)

    def test_near_zero_intercept_means_unbounded(self):
        # ceiling at y <= 1 gives a single constant piece of height 1
        duals = np.array([[0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]])
        prob = build_support_problem(duals)
        result = solve_exact(prob, seed=0)
        status, point = classify_and_recover(prob, result)
        assert status is SolutionStatus.UNBOUNDED
        assert point is None

    def test_result_must_certify(self):
        prob = build_support_problem(np.array(ROOF_DUALS))
        fake = MinMaxResult(
            status=MinMaxStatus.MINIMIZED,
            x_star=np.zeros(1),
            value=123.0,
            active_set=(0,),
        )
        with pytest.raises(ReductionError, match="certify"):
            classify_and_recover(prob, fake)

    def test_supports_from_below_and_touches(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            lp, _ = bounded_lp(rng)
            ph = phase1(lp)
            translated = make_origin_strictly_feasible(lp, ph.p0)
            rotated = rotate_problem(translated, rotation_to_last_axis(lp.c))
            duals = dual_constraint_points(rotated)
            prob = build_support_problem(duals)
            result = solve_exact(prob, seed=3)
            if result.status is not MinMaxStatus.MINIMIZED:
                continue
            t_star = -result.value
            pieces = prob.G @ result.x_star + prob.h  # w . q' - q_z
            assert (pieces <= result.value + 1e-9).all()
            assert pieces.max() >= result.value - 1e-7  # some point is touched
            plane = Plane(np.append(result.x_star, -1.0), -t_star)  # w . x' - z = -t
            assert is_feasible_dual_plane(plane, duals)


def _chained_support_problem(lp, p0):
    """The support problem built through the reference steps, one program each."""
    if not lp.c.any():
        rotation = HouseholderRotation(lp.dimension, u_hat=None)
    else:
        rotation = rotation_to_last_axis(lp.c if lp.sense is Sense.MAXIMIZE else -lp.c)
    rotated = rotate_problem(make_origin_strictly_feasible(lp, p0), rotation)
    return build_support_problem(dual_constraint_points(rotated)), rotation


class TestPrepare:
    def test_matches_its_helpers_bit_for_bit(self):
        """prepare works on arrays; its pieces must carry the bits of chaining
        the reference steps, for both senses, a zero objective and an
        objective already along the last axis (no reflection)."""
        rng = np.random.default_rng(41)
        seen = Counter()
        for trial in range(200):
            lp, x0 = bounded_lp(rng, sense="minimize" if trial % 2 else "maximize")
            if trial % 5 == 3:
                lp = replace(lp, c=np.zeros(lp.dimension))
            elif trial % 5 == 4:
                # maximize along +e_d, or minimize along -e_d
                c = np.zeros(lp.dimension)
                c[-1] = -2.5 if trial % 2 else 2.5
                lp = replace(lp, c=c)
            p0 = x0 if trial % 4 else phase1(lp).p0
            prob, transform = prepare(lp, p0)
            want, rotation = _chained_support_problem(lp, p0)
            assert prob.G.shape == want.G.shape and prob.h.shape == want.h.shape
            assert prob.G.tobytes() == want.G.tobytes(), trial
            assert prob.h.tobytes() == want.h.tobytes(), trial
            if rotation.u_hat is None:
                assert transform.rotation.u_hat is None
                kind = "unrotated" if lp.c.any() else "zero objective"
            else:
                assert transform.rotation.u_hat.tobytes() == rotation.u_hat.tobytes()
                kind = "rotated"
            seen[kind, lp.sense.value] += 1
            np.testing.assert_array_equal(transform.p0, p0)
        assert len(seen) == 6 and min(seen.values()) >= 15, seen

    @pytest.mark.parametrize("p0, message", [
        ([0.0, 1.0], "row 0 has margin 0.000e+00"),  # on the ceiling
        ([1.5, 0.5 - 2.0**-40], "row 1 has margin -9.095e-13"),  # within EPS_STRICT of a wall
        ([0.0, 3.0], "row 0 has margin 2.000e+00"),
        ([0.0, -2.0], "row 3 has margin 1.000e+00"),
    ])
    def test_point_not_strictly_inside_is_rejected_as_before(self, p0, message):
        for step in (prepare, make_origin_strictly_feasible):
            with pytest.raises(TransformError) as exc:
                step(ROOF, np.array(p0))
            assert str(exc.value) == f"point is not strictly interior: {message}"

    @pytest.mark.parametrize("p0, message", [
        ([0.0, 0.0, 0.0], "interior point must have 2 coordinates"),
        ([0.0], "interior point must have 2 coordinates"),
        ([0.0, math.nan], "interior point must be finite"),
        ([-math.inf, 0.0], "interior point must be finite"),
    ])
    def test_malformed_point_is_rejected_as_before(self, p0, message):
        for step in (prepare, make_origin_strictly_feasible):
            with pytest.raises(TransformError) as exc:
                step(ROOF, np.array(p0))
            assert str(exc.value) == message


class TestSolveOptions:
    @pytest.mark.parametrize("field, value", [
        ("seed", -1),
        ("seed", 1.5),
        ("seed", "0"),
        ("seed", True),
        ("tolerance", -1.0),
        ("tolerance", 0.0),
        ("tolerance", math.nan),
        ("tolerance", math.inf),
        ("tolerance", "1e-9"),
        ("tolerance", True),
        ("solver", "newton"),
    ])
    def test_bad_field_is_named(self, field, value):
        with pytest.raises(ReductionError, match=f"^{field} must be"):
            SolveOptions(**{field: value})

    def test_good_fields_are_kept(self):
        options = SolveOptions(seed=np.int64(3), tolerance=1, solver="subgradient")
        assert (options.seed, options.tolerance, options.solver) == (3, 1, "subgradient")


class TestSolve:
    def test_roof_peak(self):
        sol = solve(ROOF)
        assert sol.status is SolutionStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0, abs=1e-9)
        assert sol.x[1] == pytest.approx(1.0, abs=1e-9)
        assert sol.residual <= 1e-9
        assert (ROOF.A @ sol.interior_point < ROOF.b).all()

    def test_open_corridor(self):
        lp = LinearProgram(
            dimension=2,
            A=[[0.0, -1.0], [1.0, 0.0], [-1.0, 0.0]],
            b=[1.0, 1.0, 1.0],
            c=[0.0, 1.0],
        )
        sol = solve(lp)
        assert sol.status is SolutionStatus.UNBOUNDED
        assert sol.x is None and sol.objective is None
        assert (lp.A @ sol.interior_point < lp.b).all()

    def test_single_ceiling(self):
        lp = LinearProgram(dimension=2, A=[[0.0, 1.0]], b=[1.0], c=[0.0, 1.0])
        sol = solve(lp)
        assert sol.status is SolutionStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_halfspace_sideways_objective(self):
        lp = LinearProgram(dimension=2, A=[[0.0, 1.0]], b=[1.0], c=[1.0, 0.0])
        assert solve(lp).status is SolutionStatus.UNBOUNDED

    def test_box_corner_with_rotation(self):
        # diagonal objective forces a genuinely non-axis rotation
        lp = LinearProgram(
            dimension=2,
            A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            b=[1.0, 1.0, 1.0, 1.0],
            c=[1.0, 1.0],
        )
        sol = solve(lp)
        assert sol.status is SolutionStatus.OPTIMAL
        assert sol.objective == pytest.approx(2.0, abs=1e-8)
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-6)

    def test_minimize_hits_opposite_corner(self):
        lp = LinearProgram(
            dimension=2,
            A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            b=[1.0, 1.0, 1.0, 1.0],
            c=[1.0, 1.0],
            sense="minimize",
        )
        sol = solve(lp)
        assert sol.status is SolutionStatus.OPTIMAL
        assert sol.objective == pytest.approx(-2.0, abs=1e-8)
        np.testing.assert_allclose(sol.x, [-1.0, -1.0], atol=1e-6)

    def test_zero_objective_returns_any_interior_point(self):
        lp = LinearProgram(
            dimension=2, A=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], b=[2.0, 0.0, 0.0], c=[0.0, 0.0]
        )
        sol = solve(lp)
        assert sol.status is SolutionStatus.OPTIMAL
        assert sol.objective == 0.0
        assert sol.residual <= 1e-9
        np.testing.assert_array_equal(sol.x, sol.interior_point)

    def test_empty_interior_reports_infeasible(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            assert solve(flat_lp(rng)).status is SolutionStatus.INFEASIBLE
            assert solve(infeasible_lp(rng)).status is SolutionStatus.INFEASIBLE

    def test_invalid_program_is_an_input_error(self):
        lp = LinearProgram(dimension=2, A=[[1.0, 0.0]], b=[1.0, 2.0], c=[1.0, 0.0])
        assert solve(lp).status is SolutionStatus.INPUT_ERROR

    def test_unknown_solver_raises(self):
        with pytest.raises(ReductionError, match="solver"):
            solve(ROOF, options=SolveOptions(solver="newton"))

    def test_loose_tolerance_rounds_intercept_to_unbounded(self):
        # optimum exists at y = 1e5 but its support plane intercept -1e-5 is
        # inside a 1e-4 tolerance band around zero
        lp = LinearProgram(dimension=2, A=[[0.0, 1.0], [0.0, -1.0]], b=[1e5, 1.0], c=[0.0, 1.0])
        assert solve(lp).status is SolutionStatus.OPTIMAL
        assert solve(lp, options=SolveOptions(tolerance=1e-4)).status is SolutionStatus.UNBOUNDED


class TestInteriorHint:
    def test_good_hint_is_used_verbatim(self):
        sol = solve(ROOF, interior_hint=np.array([0.25, 0.0]))
        assert sol.status is SolutionStatus.OPTIMAL
        np.testing.assert_array_equal(sol.interior_point, [0.25, 0.0])
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_boundary_hint_is_rejected_without_fallback(self):
        sol = solve(ROOF, interior_hint=np.array([0.0, 1.0]))
        assert sol.status is SolutionStatus.ORIGIN_NOT_INTERIOR
        assert sol.x is None

    def test_exterior_hint_is_rejected(self):
        assert (
            solve(ROOF, interior_hint=np.array([5.0, 5.0])).status
            is SolutionStatus.ORIGIN_NOT_INTERIOR
        )

    def test_malformed_hint_is_an_input_error(self):
        assert solve(ROOF, interior_hint=np.zeros(3)).status is SolutionStatus.INPUT_ERROR
        assert (
            solve(ROOF, interior_hint=np.array([np.nan, 0.0])).status
            is SolutionStatus.INPUT_ERROR
        )
        # complex and bool entries are not coordinates, though numpy casts them
        for hint in (["a", "b"], [object(), 0], [0, None], np.array([0.5 + 3j, 0]),
                     np.array([True, False])):
            assert solve(ROOF, interior_hint=hint).status is SolutionStatus.INPUT_ERROR, hint


class TestAgainstOracle:
    def test_bounded_random_programs(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            lp, _ = bounded_lp(rng, sense="maximize" if trial % 2 else "minimize")
            sol = solve(lp, options=SolveOptions(seed=trial))
            ref = oracle_solve(lp)
            assert ref.status is SolutionStatus.OPTIMAL
            assert sol.status is SolutionStatus.OPTIMAL
            assert abs(sol.objective - ref.objective) <= 1e-6 * (1 + abs(ref.objective))
            assert sol.residual <= 1e-7

    def test_unbounded_random_programs(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            lp = unbounded_lp(rng)
            assert solve(lp, options=SolveOptions(seed=trial)).status is SolutionStatus.UNBOUNDED

    def test_repeat_runs_are_bit_identical(self):
        rng = np.random.default_rng(17)
        lp, _ = bounded_lp(rng)
        a = solve(lp, options=SolveOptions(seed=5))
        b = solve(lp, options=SolveOptions(seed=5))
        assert a.x.tobytes() == b.x.tobytes()
        assert a.objective == b.objective


class TestSubgradientBackend:
    def test_roof_peak(self):
        sol = solve(ROOF, options=SolveOptions(solver="subgradient"))
        assert sol.status is SolutionStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0, abs=1e-5)
        assert sol.residual <= 1e-7

    def test_bounded_random_programs(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            lp, _ = bounded_lp(rng, d=2)
            sol = solve(lp, options=SolveOptions(solver="subgradient"))
            ref = oracle_solve(lp)
            assert sol.status is SolutionStatus.OPTIMAL
            assert abs(sol.objective - ref.objective) <= 1e-3 * (1 + abs(ref.objective))
            assert sol.residual <= 1e-7

    def test_tolerance_reaches_the_backend(self, monkeypatch):
        received = []

        def recorded(prob, tolerance):
            received.append(tolerance)
            return solve_subgradient(prob, tolerance)

        monkeypatch.setattr(reduction, "solve_subgradient", recorded)
        lp, _ = bounded_lp(np.random.default_rng(29), d=4, n=40)
        for tolerance in (1e-9, 1e-3):
            received.clear()
            sol = solve(lp, options=SolveOptions(solver="subgradient", tolerance=tolerance))
            assert sol.status is SolutionStatus.OPTIMAL
            assert received and all(got == tolerance for got in received)

    def test_open_corridor(self):
        lp = LinearProgram(
            dimension=2,
            A=[[0.0, -1.0], [1.0, 0.0], [-1.0, 0.0]],
            b=[1.0, 1.0, 1.0],
            c=[0.0, 1.0],
        )
        sol = solve(lp, options=SolveOptions(solver="subgradient"))
        assert sol.status is SolutionStatus.UNBOUNDED

    @pytest.mark.parametrize("lp, x_star", NO_DEEPEST_POINT)
    @pytest.mark.parametrize("solver", ["exact", "subgradient"])
    def test_margin_without_minimum(self, lp, x_star, solver):
        # the iterative backend's phase 1 runs off to a margin near -1e12;
        # from there the support stage would call these programs unbounded
        sol = solve(lp, options=SolveOptions(solver=solver))
        assert sol.status is SolutionStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, x_star, rtol=0, atol=1e-6)
        assert sol.objective == pytest.approx(float(lp.c @ x_star), rel=0, abs=1e-6)


class TestDimensionCap:
    @staticmethod
    def _box(d):
        return LinearProgram(
            dimension=d,
            A=np.vstack([np.eye(d), -np.eye(d)]),
            b=np.ones(2 * d),
            c=np.ones(d),
        )

    def test_cap_hits_interior_search_first(self):
        with pytest.raises(DimensionCapError):
            solve(self._box(11))

    def test_hint_skips_interior_search(self):
        # with the search skipped, the support stage runs in d - 1 = 10
        # variables, exactly at the cap
        sol = solve(self._box(11), interior_hint=np.zeros(11))
        assert sol.status is SolutionStatus.OPTIMAL
        assert sol.objective == pytest.approx(11.0, abs=1e-7)

    def test_cap_applies_to_support_stage_too(self):
        with pytest.raises(DimensionCapError):
            solve(self._box(12), interior_hint=np.zeros(12))
