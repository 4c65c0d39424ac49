"""Acceptance gate: one test per shipping criterion, run with `pytest -v` so
each prints as its own pass/fail line.  Every test pins the advertised trial
counts, tolerances, and wall-clock budgets; loosening any of them here is a
contract change, not a cleanup.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from bruteforce import reference_minmax
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
from lpgen import bounded_lp, flat_lp, infeasible_lp, interior_lp, unbounded_lp
from minmaxlp.cli import main
from minmaxlp.minmax import PiecewiseMaxProblem, MinMaxStatus, solve_exact
from minmaxlp.model import LinearProgram, SolutionStatus
from minmaxlp.reduction import PhaseOneStatus, SolveOptions, phase1, solve
from minmaxlp.transforms import apply_rotation, rotation_to_last_axis
from oracle import highs_solve, oracle_solve

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def test_criterion_1_duality_round_trip_incidence_and_intercept_law():
    """1000 random point/plane pairs: dualizing twice returns the original
    within one ulp, a point lying on a plane dualizes to a plane through the
    plane's dual point (incident to 1e-12 relative), and the dual plane's
    z-intercept is -1/p_d to 1e-12."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    done = 0
    while done < 1000:
        d = int(rng.integers(2, 7))
        p = rng.uniform(-10.0, 10.0, d)
        normal = rng.uniform(-10.0, 10.0, d)
        offset = float(rng.uniform(-10.0, 10.0))
        if abs(offset) <= 0.1 or abs(p[-1]) <= 0.1 or np.linalg.norm(p) < 1e-6:
            continue
        done += 1

        back = dual_of_plane(dual_of_point(p))
        assert (np.abs(back - p) <= np.spacing(np.abs(p))).all()

        plane = Plane(normal, offset)
        q = dual_of_plane(plane)
        again = dual_of_plane(dual_of_point(q))
        assert (np.abs(again - q) <= np.spacing(np.abs(q))).all()

        # a point constructed on the plane stays incident after dualizing
        tangent = rng.uniform(-10.0, 10.0, d)
        tangent -= (normal @ tangent) / (normal @ normal) * normal
        on_plane = normal * (offset / (normal @ normal)) + tangent
        if np.linalg.norm(on_plane) > 1e-6:
            assert side_of(plane, on_plane) is Side.INCIDENT
            assert side_of(dual_of_point(on_plane), q) is Side.INCIDENT

        intercept = z_intercept(dual_of_point(p))
        assert abs(intercept - (-1.0 / p[-1])) <= 1e-12 * abs(1.0 / p[-1])
    assert time.perf_counter() - start < 1.0


def test_criterion_2_side_of_origin_survives_dualization():
    """1000 plane/point pairs in strict position: the point shares the
    origin's side exactly when the dualized pair does."""
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    done = 0
    while done < 1000:
        d = int(rng.integers(2, 7))
        normal = rng.uniform(-10.0, 10.0, d)
        offset = float(rng.uniform(-10.0, 10.0))
        p = rng.uniform(-10.0, 10.0, d)
        scale = 1 + abs(offset) + np.linalg.norm(normal) * np.linalg.norm(p)
        if abs(offset) <= 0.1 or np.linalg.norm(p) < 1e-6:
            continue
        if abs(offset - normal @ p) <= 1e-6 * scale:
            continue  # keep the pair strictly off the plane
        done += 1
        plane = Plane(normal, offset)
        primal = same_side_as_origin(plane, p)
        dual = same_side_as_origin(dual_of_point(p), dual_of_plane(plane))
        assert primal == dual
    assert time.perf_counter() - start < 1.0


def test_criterion_3_feasibility_equals_dual_side_test():
    """100 programs with the origin strictly inside, 20 probe points each
    (kept at least 1e-9 off every plane): A x <= b agrees with the dual
    formulation, all points and the origin on one side of the probe's dual
    plane."""
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d, 13))
        A = rng.uniform(-1.0, 1.0, (n, d))
        b = rng.uniform(0.2, 2.0, n)
        duals = -A / b[:, None]
        row_norms = np.maximum(np.linalg.norm(A, axis=1), 1e-12)
        probes = 0
        while probes < 20:
            x = rng.uniform(-3.0, 3.0, d)
            if np.linalg.norm(x) < 1e-6:
                continue
            if (np.abs(b - A @ x) / row_norms).min() < 1e-9:
                continue
            probes += 1
            feasible = (A @ x < b).all()
            assert feasible == is_feasible_dual_plane(dual_of_point(x), duals)
    assert time.perf_counter() - start < 5.0


def test_criterion_4_rotation_quality():
    """500 random objectives across dimensions 2..8: the rotation is
    orthogonal with unit determinant to 1e-10, sends the unit objective to
    the last axis to 1e-10, and the implicit application matches the dense
    matrix to 1e-12."""
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    for trial in range(500):
        d = int(rng.integers(2, 9))
        c = rng.uniform(-10.0, 10.0, d)
        if np.linalg.norm(c) < 1e-6:
            continue
        rotation = rotation_to_last_axis(c)
        R = rotation.matrix
        assert np.abs(R.T @ R - np.eye(d)).max() <= 1e-10
        assert abs(np.linalg.det(R) - 1.0) <= 1e-10
        c_hat = c / np.linalg.norm(c)
        assert np.abs(R @ c_hat - np.eye(d)[-1]).max() <= 1e-10

        v = rng.uniform(-10.0, 10.0, d)
        assert np.abs(apply_rotation(rotation, v) - R @ v).max() <= 1e-12
        assert np.abs(apply_rotation(rotation, v, inverse=True) - R.T @ v).max() <= 1e-12
    assert time.perf_counter() - start < 2.0


def test_criterion_5_minmax_matches_brute_force():
    """300 random piecewise-max problems (up to 3 variables, 8 pieces):
    classification matches vertex enumeration and minimized values agree to
    1e-8; rerunning with the same seed reproduces the answer bit for bit."""
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    minimized = 0
    for trial in range(300):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 9))
        G = rng.uniform(-3.0, 3.0, (m, d))
        h = rng.uniform(-3.0, 3.0, m)
        prob = PiecewiseMaxProblem(G=G, h=h)
        ref_status, ref_value = reference_minmax(G, h)

        result = solve_exact(prob, seed=trial)
        again = solve_exact(prob, seed=trial)
        assert result.status.value == ref_status
        if result.status is MinMaxStatus.MINIMIZED:
            minimized += 1
            assert abs(result.value - ref_value) <= 1e-8
            assert result.x_star.tobytes() == again.x_star.tobytes()
            assert result.value == again.value
    assert minimized >= 100  # the mix must actually exercise both outcomes
    assert time.perf_counter() - start < 10.0


def test_criterion_6_end_to_end_against_oracle():
    """200 bounded strictly-feasible programs (dimensions 2..4, up to 20
    rows, entries in [-1, 1]): optimal values match the brute-force oracle to
    1e-6 relative and solutions are feasible to 1e-7; 50 planted-ray programs
    all classify unbounded; 20 degenerate or contradictory programs never
    claim optimality."""
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    for trial in range(200):
        lp, _ = bounded_lp(rng, sense="maximize" if trial % 2 else "minimize")
        sol = solve(lp, options=SolveOptions(seed=trial))
        ref = oracle_solve(lp)
        assert ref.status is SolutionStatus.OPTIMAL
        assert sol.status is SolutionStatus.OPTIMAL
        assert abs(sol.objective - ref.objective) <= 1e-6 * (1 + abs(ref.objective))
        assert sol.residual <= 1e-7
    for trial in range(50):
        lp = unbounded_lp(rng)
        assert solve(lp, options=SolveOptions(seed=trial)).status is SolutionStatus.UNBOUNDED
    for trial in range(20):
        lp = flat_lp(rng) if trial % 2 else infeasible_lp(rng)
        assert solve(lp).status is not SolutionStatus.OPTIMAL
    assert time.perf_counter() - start < 60.0


def test_criterion_7_interior_search():
    """100 programs with a planted interior point: the search certifies a
    strictly feasible point with negative margin.  Zero-width slabs come back
    empty with a margin within 1e-9 of zero."""
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    for _ in range(100):
        lp, _ = interior_lp(rng)
        res = phase1(lp)
        assert res.status is PhaseOneStatus.STRICT_INTERIOR
        assert res.margin < 0
        assert (lp.A @ res.p0 < lp.b).all()
    for _ in range(20):
        res = phase1(flat_lp(rng))
        assert res.status is PhaseOneStatus.NO_STRICT_INTERIOR
        assert abs(res.margin) <= 1e-9
    assert time.perf_counter() - start < 10.0


def test_criterion_8_cli_golden_files(tmp_path):
    """The three checked-in programs exit 0/2/3 and reproduce their golden
    outputs byte for byte on repeated runs with a fixed seed."""
    cases = (("bounded", 0), ("unbounded", 2), ("no_interior", 3))
    for name, expected_code in cases:
        golden = (GOLDEN / f"{name}.solution.json").read_bytes()
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"{name}.{attempt}.json"
            code = main(
                ["solve", "--input", str(DATA / f"{name}.json"),
                 "--seed", "0", "--output", str(out)]
            )
            assert code == expected_code
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == golden


def test_criterion_9_wide_programs_against_highs():
    """40 bounded programs with 5-8 variables and 40-160 rows: statuses and
    objectives match HiGHS (1e-6 relative), every solution is feasible to
    1e-7, and all 40 solves finish within 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(109)
    for trial in range(40):
        d, n = int(rng.integers(5, 9)), int(rng.integers(40, 161))
        lp, _ = bounded_lp(rng, d=d, n=n, sense="maximize" if trial % 2 else "minimize")
        sol = solve(lp, options=SolveOptions(seed=trial))
        ref = highs_solve(lp)
        assert ref.status is SolutionStatus.OPTIMAL
        assert sol.status is SolutionStatus.OPTIMAL, trial
        assert abs(sol.objective - ref.objective) <= 1e-6 * (1 + abs(ref.objective)), trial
        assert sol.residual <= 1e-7, trial
    assert time.perf_counter() - start < 5.0


def test_criterion_10_programs_past_the_cap_against_highs():
    """42 programs with 11-40 variables, bounded (up to 200 rows), with a
    planted ray or with an empty slab, through the default solve: each gets
    HiGHS's status and objective (1e-9 relative), optimal solutions are
    feasible to 1e-7, and all 42 solves finish within 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(110)
    for trial in range(42):
        d = int(rng.integers(11, 41))
        if trial % 3 == 0:
            lp, _ = bounded_lp(rng, d=d, n=2 * d + int(rng.integers(1, 200)),
                               sense="maximize" if trial % 2 else "minimize")
        elif trial % 3 == 1:
            lp = unbounded_lp(rng, d=d, n=d + int(rng.integers(0, 3 * d)))
        else:
            lp = infeasible_lp(rng, d=d)
        sol = solve(lp)
        ref = highs_solve(lp)
        assert sol.status is ref.status, trial
        if ref.status is SolutionStatus.OPTIMAL:
            assert abs(sol.objective - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective)), trial
            assert sol.residual <= 1e-7, trial
    assert time.perf_counter() - start < 5.0
