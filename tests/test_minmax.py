"""Min-max solver tests: pinned small cases, oracle cross-checks, optimality
certificates, determinism."""

import builtins
import math
from collections import Counter

import numpy as np
import pytest

import lpgen
import seidel_list_reference
import seidel_reference
import simplex_reference
from bruteforce import reference_minmax
from minmaxlp import minmax, reduction
from minmaxlp.errors import DimensionCapError, SolverError
from minmaxlp.minmax import (
    TIE_TOL,
    MinMaxStatus,
    PiecewiseMaxProblem,
    _seidel,
    evaluate,
    solve_exact,
    solve_subgradient,
)


def v_problem(h0=0.0, h1=0.0):
    return PiecewiseMaxProblem(G=[[1.0], [-1.0]], h=[h0, h1])


class TestEvaluate:
    def test_tie_takes_smallest_index(self):
        value, index = evaluate(v_problem(-3.0, -1.0), np.array([1.0]))
        assert value == -2.0
        assert index == 0

    def test_at_origin_reads_offsets(self):
        prob = PiecewiseMaxProblem(G=[[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]], h=[1.0, 7.0, 2.0])
        assert evaluate(prob, np.zeros(2)) == (7.0, 1)

    def test_constant_piece(self):
        prob = PiecewiseMaxProblem(G=[[0.0, 0.0]], h=[5.0])
        assert evaluate(prob, np.array([42.0, -3.0])) == (5.0, 0)

    def test_length_mismatch(self):
        with pytest.raises(SolverError):
            evaluate(v_problem(), np.zeros(2))


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(SolverError):
            PiecewiseMaxProblem(G=np.zeros((0, 2)), h=np.zeros(0))

    def test_zero_columns_rejected(self):
        # no stage builds a function of no variables
        with pytest.raises(SolverError, match="column"):
            PiecewiseMaxProblem(G=np.zeros((3, 0)), h=[1.0, 2.0, 3.0])

    def test_offset_mismatch_rejected(self):
        with pytest.raises(SolverError):
            PiecewiseMaxProblem(G=[[1.0]], h=[1.0, 2.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(SolverError):
            PiecewiseMaxProblem(G=[[np.nan]], h=[0.0])


class TestSolveExact:
    def test_shifted_v(self):
        result = solve_exact(v_problem(-3.0, -1.0), seed=0)
        assert result.status is MinMaxStatus.MINIMIZED
        assert result.value == pytest.approx(-2.0, abs=1e-9)
        np.testing.assert_allclose(result.x_star, [1.0], atol=1e-9)
        assert result.active_set == (0, 1)

    def test_symmetric_v(self):
        result = solve_exact(v_problem(), seed=0)
        assert result.value == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(result.x_star, [0.0], atol=1e-9)

    def test_single_piece_unbounded(self):
        result = solve_exact(PiecewiseMaxProblem(G=[[1.0, 0.0]], h=[0.0]), seed=0)
        assert result.status is MinMaxStatus.UNBOUNDED_BELOW

    def test_flat_direction_is_bounded(self):
        # pieces ignore the second coordinate; ties must settle at zero,
        # not at the bounding box
        prob = PiecewiseMaxProblem(G=[[1.0, 0.0], [-1.0, 0.0]], h=[0.0, 0.0])
        result = solve_exact(prob, seed=0)
        assert result.status is MinMaxStatus.MINIMIZED
        assert result.value == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(result.x_star, [0.0, 0.0], atol=1e-9)

    def test_single_constant_piece(self):
        result = solve_exact(PiecewiseMaxProblem(G=[[0.0]], h=[1.0]), seed=0)
        assert result.status is MinMaxStatus.MINIMIZED
        assert result.value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(result.x_star, [0.0], atol=1e-9)

    def test_dimension_cap(self):
        prob = PiecewiseMaxProblem(G=np.ones((1, 11)), h=[0.0])
        with pytest.raises(DimensionCapError, match="subgradient"):
            solve_exact(prob, seed=0)

    def test_value_matches_evaluate(self):
        """Both backends report the max at their point exactly, and as active
        the pieces within ACTIVE_TOL of it, whatever the status."""
        rng = np.random.default_rng(20)
        probs = []
        for _ in range(30):
            d = int(rng.integers(1, 4))
            m = int(rng.integers(2, 9))
            probs.append(PiecewiseMaxProblem(rng.standard_normal((m, d)), rng.standard_normal(m)))
        # runaway descent, and a constant piece that is the maximum
        probs.append(PiecewiseMaxProblem(G=[[1.0, 0.0], [0.5, -2.0]], h=[0.0, 1.0]))
        probs.append(PiecewiseMaxProblem(G=[[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]],
                                         h=[0.0, 0.0, 5.0]))
        statuses = set()
        for trial, prob in enumerate(probs):
            for result in (solve_exact(prob, seed=trial), solve_subgradient(prob)):
                value, _ = evaluate(prob, result.x_star)
                assert result.value == value, trial
                floor = value - minmax.ACTIVE_TOL * (1 + abs(value))
                pieces = prob.G @ result.x_star + prob.h
                assert result.active_set == tuple(
                    i for i in range(prob.m) if pieces[i] >= floor), trial
                statuses.add(result.status)
        assert statuses == set(MinMaxStatus)

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(21)
        minimized = 0
        unbounded = 0
        for trial in range(120):
            d = int(rng.integers(1, 4))
            m = int(rng.integers(1, 9))
            G = rng.standard_normal((m, d))
            h = rng.standard_normal(m)
            ref_status, ref_value = reference_minmax(G, h)
            result = solve_exact(PiecewiseMaxProblem(G, h), seed=trial)
            if ref_status == "unbounded_below":
                assert result.status is MinMaxStatus.UNBOUNDED_BELOW
                unbounded += 1
            else:
                assert result.status is MinMaxStatus.MINIMIZED
                assert abs(result.value - ref_value) <= 1e-8 * (1 + abs(ref_value))
                minimized += 1
        # the generator must exercise both outcomes
        assert minimized >= 20 and unbounded >= 20

    def test_seed_determinism_is_bit_exact(self):
        rng = np.random.default_rng(22)
        prob = PiecewiseMaxProblem(rng.standard_normal((6, 3)), rng.standard_normal(6))
        first = solve_exact(prob, seed=7)
        second = solve_exact(prob, seed=7)
        assert first.status is second.status
        assert first.value == second.value
        assert first.x_star.tobytes() == second.x_star.tobytes()
        assert first.active_set == second.active_set

    def test_value_invariant_under_piece_shuffle(self):
        rng = np.random.default_rng(23)
        for trial in range(40):
            d = int(rng.integers(1, 6))
            m = int(rng.integers(d + 1, d + 8))
            G = rng.standard_normal((m, d))
            h = rng.standard_normal(m)
            if trial % 2:
                # duplicated pieces become zero rows one level down
                dup = rng.integers(m, size=int(rng.integers(1, m + 1)))
                G, h = np.vstack([G, G[dup]]), np.concatenate([h, h[dup]])
                m = G.shape[0]
            base = solve_exact(PiecewiseMaxProblem(G, h), seed=0)
            perm = rng.permutation(m)
            shuffled = solve_exact(PiecewiseMaxProblem(G[perm], h[perm]), seed=0)
            assert base.status is shuffled.status
            if base.status is MinMaxStatus.MINIMIZED:
                assert shuffled.value == pytest.approx(base.value, abs=1e-9 * (1 + abs(base.value)))

    def test_stats_count_subproblems_like_the_list_reference(self, monkeypatch):
        """stats counts the subproblems per number of variables exactly as
        the list version's calls; equal seeds give equal stats, and the answer is the list version's bit for bit,
        at every epigraph width from 2 to 7: the general level and its
        one-variable base case."""
        calls = Counter()
        original = seidel_list_reference._seidel

        def counting(A, b, c, lo, hi, rng, tol):
            calls[len(c)] += 1
            return original(A, b, c, lo, hi, rng, tol)

        rng = np.random.default_rng(28)
        drawn = set()
        for trial in range(41):
            # the last has three variables and 40 pieces, the shape of a
            # stage that falls back from the vertex simplex to Seidel
            d = 3 if trial == 40 else int(rng.integers(1, 7))
            m = 40 if trial == 40 else int(rng.integers(1, 4 * d + 4))
            drawn.add(d)
            prob = PiecewiseMaxProblem(rng.standard_normal((m, d)), rng.standard_normal(m))
            got = solve_exact(prob, seed=trial)
            assert solve_exact(prob, seed=trial).stats == got.stats
            # one top-level subproblem per epigraph solve
            assert got.stats["subproblems"][d + 1] == 1 + got.stats["box_doublings"]
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(seidel_list_reference, "_seidel", counting)
                patch.setattr(minmax, "_seidel", lambda *args: counting(*args[:-1]))
                want = solve_exact(prob, seed=trial)
            assert got.stats["subproblems"] == {k: calls[k] for k in range(1, d + 2)}
            assert got.x_star.tobytes() == want.x_star.tobytes()
            assert got.status is want.status and got.value == want.value
        assert drawn == set(range(1, 7))

    def test_stats_count_a_box_doubling(self):
        bounded = solve_exact(v_problem(-3.0, -1.0), seed=0)
        assert bounded.stats["box_doublings"] == 0
        assert bounded.stats["subproblems"][2] == 1
        # unbounded below: the optimum presses on the box, which doubles once
        result = solve_exact(PiecewiseMaxProblem(G=[[1.0, 0.0]], h=[0.0]), seed=0)
        assert result.status is MinMaxStatus.UNBOUNDED_BELOW
        assert result.stats["box_doublings"] == 1
        assert result.stats["subproblems"][3] == 2


    def test_box_half_width_takes_numpy_row_norms(self):
        """The box is sized from the largest row sum of squares, rooted once;
        it must carry the bits of the largest np.linalg.norm row norm, also
        when the squares overflow."""
        rng = np.random.default_rng(17)
        for _ in range(300):
            m, d = int(rng.integers(1, 300)), int(rng.integers(1, 7))
            G = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-160, 160, size=(m, 1))
            prob = PiecewiseMaxProblem(G=G, h=rng.standard_normal(m))
            with np.errstate(over="ignore"):
                norm = float(np.linalg.norm(G, axis=1).max())
                got = minmax.box_half_width(prob)
            assert got == minmax.BOX_FACTOR * (1.0 + float(np.abs(prob.h).max()) + norm)

def _epigraph_instance(rng, n=None, rows=(1, 40)):
    """min t s.t. G x - t <= -h in a box, with n variables (1-6 if not
    given) and a number of rows in the closed range ``rows``, some of them
    zero (vacuous or inconsistent), duplicated or rescaled.  Half of them
    have entries in {-1, 0, 1}: equal pivots, degenerate vertices and
    optima that only the tie rule makes unique."""
    if n is None:
        n = int(rng.integers(1, 7))
    m = int(rng.integers(rows[0], rows[1] + 1))
    if rng.random() < 0.5:
        G = rng.standard_normal((m, n - 1))
        h = rng.standard_normal(m)
    else:
        G = rng.integers(-1, 2, (m, n - 1)).astype(float)
        h = rng.integers(-1, 2, m).astype(float)
    if n > 1 and rng.random() < 0.3:
        G[:, rng.integers(n - 1)] = 0.0  # a flat direction for the tie rule
    box = 1e6 * (1.0 + np.abs(h).max() + np.linalg.norm(G, axis=1).max(initial=0.0))
    A = np.hstack([G, -np.ones((m, 1))])
    b = -h
    kind = int(rng.integers(4))
    picked = rng.integers(m, size=int(rng.integers(0, m)))
    if kind == 1:
        copied = rng.integers(m, size=picked.size)
        A[picked], b[picked] = A[copied], b[copied]
    elif kind == 2:
        A[picked] = 0.0
        b[picked] = rng.choice([0.0, 1.0, -1.0], picked.size, p=[0.45, 0.45, 0.1])
    elif kind == 3:
        scale = 10.0 ** rng.uniform(-3.0, 3.0, m)
        A, b = A * scale[:, None], b * scale
    c = np.zeros(n)
    c[-1] = 1.0
    return A, b, c, np.full(n, -box), np.full(n, box)


def test_seidel_matches_numpy_reference():
    """The float-list recursion solves what the numpy version solves: same
    feasibility verdict, the same optimal value up to rounding, and a
    feasible point.  The two round differently, so a near-tie can send them
    down different permutations and, where the optimum is not unique, to
    different optimal points; the stream includes such instances."""
    rng = np.random.default_rng(27)
    solved = inconsistent = diverged = 0
    for trial in range(560):
        A, b, c, lo, hi = _epigraph_instance(rng)
        if c.size == 1:
            continue  # the epigraph of a function of no variables
        rng_want, rng_got = np.random.default_rng(trial), np.random.default_rng(trial)
        want = seidel_reference._seidel(A, b, c, lo, hi, rng_want, 1e-9)
        got = _seidel(A.tolist(), b.tolist(), c.tolist(), lo.tolist(), hi.tolist(), rng_got,
                      1e-9, [0] * (c.size + 1))
        diverged += rng_got.bit_generator.state != rng_want.bit_generator.state
        assert (got is None) == (want is None), trial
        if want is None:
            inconsistent += 1
            continue
        got = np.array(got)
        assert abs(c @ got - c @ want) <= 1e-12 * max(1.0, abs(c @ want)), trial
        # feasible up to the solver's relative tolerance on normalized rows
        norms = np.linalg.norm(A, axis=1)
        kept = norms > 1e-13
        rhs = b[kept] / norms[kept]
        scale = 1.0 + np.abs(got).max()
        assert (A[kept] @ got / norms[kept] - rhs <= 1e-9 * (np.abs(rhs) + scale)).all(), trial
        assert (lo - 1e-9 * scale <= got).all() and (got <= hi + 1e-9 * scale).all(), trial
        solved += 1
    assert solved >= 400 and inconsistent >= 10 and diverged >= 1


def _general_instance(rng):
    """min c . x over A x <= b in a box, with 2-6 variables and 1-30 rows
    through or near a planted point.  Entries are often in {-1, 0, 1}
    (equal pivots, zero reduced costs) with the point at the origin (zero
    right-hand sides, hence -0.0 products).  Some rows come with an opposite
    row whose slab is a line, empty by less than the tolerance or empty by
    more (vacuous rows one level down, lo > hi within tolerance, and
    inconsistent subproblems), some are rescaled by 1e-3 to 1e3, and a small
    box cuts off part of the region."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 31))
    if rng.random() < 0.5:
        A = rng.integers(-1, 2, (m, n)).astype(float)
        c = rng.integers(-1, 2, n).astype(float)
        point = np.zeros(n)
    else:
        A = rng.standard_normal((m, n))
        c = rng.standard_normal(n)
        point = rng.standard_normal(n)
    b = A @ point + rng.choice([0.0, 0.5], m) * rng.random(m)
    paired = rng.integers(m, size=int(rng.integers(0, m // 2 + 1)))
    gap = rng.choice([0.0, 1e-12, 1e-3], paired.size) * rng.choice([1.0, -1.0], paired.size)
    A = np.vstack([A, -A[paired]])
    b = np.concatenate([b, gap - b[paired]])
    if rng.random() < 0.3:
        scale = 10.0 ** rng.uniform(-3.0, 3.0, b.size)
        A, b = A * scale[:, None], b * scale
    box = float(rng.choice([2.0, 1e6]))
    return A, b, c, np.full(n, -box), np.full(n, box)


def test_seidel_matches_list_reference_bit_for_bit(monkeypatch):
    """_seidel solves one variable by the list version's half-line
    intersection and normalizes the rows it is handed at every other width,
    then runs its general level, with the list version's arithmetic: same
    verdict, same random draws and the same bits in every answer, on
    instances that reach each special case of the normalization at every
    width, on the first call and on subproblems of four or more variables,
    of the one-variable step, and of the eliminations at two, three and four
    variables, whose subproblems once ran on separate loops."""
    seen = Counter()
    interval = seidel_list_reference._solve_interval
    seidel = seidel_list_reference._seidel
    levels = []  # the number of variables of each enclosing call

    def recording_seidel(A, b, c, lo, hi, rng, tol):
        if not levels or levels[-1] >= 4:
            # _seidel normalizes the rows of every call of two or more
            # variables; the entry's cases are counted here for the first
            # call and the subproblems of a level of four or more variables,
            # and below by level for those of three and four
            entry = f"entry, {len(c)} variables{', subproblem' if levels else ''}"
            vacuous = [rhs < -tol for row, rhs in zip(A, b) if math.hypot(*row) <= 1e-13]
            if any(vacuous):
                seen[f"{entry}: vacuous row inconsistent"] += 1
            elif len(vacuous) == len(b):
                seen[f"{entry}: every row vacuous"] += 1
            elif vacuous:
                seen[f"{entry}: vacuous row kept"] += 1
        width = len(c) + 1
        if width in (3, 4) and levels[-1:] == [width]:
            vacuous = [rhs < -tol for row, rhs in zip(A, b) if math.hypot(*row) <= 1e-13]
            seen[f"{width} variables: vacuous row kept"] += vacuous.count(False)
            seen[f"{width} variables: vacuous row inconsistent"] += vacuous.count(True)
            # the last row is alpha = row_j / row_k for the kept j
            seen[f"{width} variables: equal pivots"] += any(abs(a) == 1.0 for a in A[-1])
        levels.append(len(c))
        try:
            return seidel(A, b, c, lo, hi, rng, tol)
        finally:
            levels.pop()

    def recording(A, b, c0, lo, hi, tol):
        vacuous = [rhs < -tol for (a,), rhs in zip(A, b) if abs(a) <= 1e-13]
        seen["vacuous row kept"] += vacuous.count(False)
        seen["vacuous row inconsistent"] += vacuous.count(True)
        seen["zero reduced cost"] += abs(c0) <= TIE_TOL
        # the box on the eliminated coordinate comes last, scaled by
        # a = row_j / row_k: +-1 when both had the same magnitude
        seen["equal pivots"] += abs(A[-1][0]) == 1.0
        if not any(vacuous):
            low = max([lo] + [rhs / a for (a,), rhs in zip(A, b) if a < -1e-13])
            high = min([hi] + [rhs / a for (a,), rhs in zip(A, b) if a > 1e-13])
            seen["lo > hi within tolerance"] += high < low <= high + tol * (
                1 + abs(low) + abs(high))
        return interval(A, b, c0, lo, hi, tol)

    monkeypatch.setattr(seidel_list_reference, "_solve_interval", recording)
    monkeypatch.setattr(seidel_list_reference, "_seidel", recording_seidel)

    def same_answer(args, seed):
        A, *rest = args
        rng_want, rng_got = np.random.default_rng(seed), np.random.default_rng(seed)
        want = seidel_list_reference._seidel(A.tolist(), *rest, rng_want, 1e-9)
        got = _seidel(A.tolist(), *rest, rng_got, 1e-9, [0] * (len(rest[1]) + 1))
        assert rng_got.bit_generator.state == rng_want.bit_generator.state, seed
        assert (got is None) == (want is None), seed
        if want is not None:
            assert np.array(got).tobytes() == np.array(want).tobytes(), seed
        return want is not None

    # two bounds 0.0 and -0.0 on x_1: the first one visited stays, as
    # min() and max() keep it, and is the answer's x_1
    for sign in (1.0, -1.0):
        args = (np.array([[1.0, sign], [1.0, sign], [-1.0, 0.0]]), [-0.0, 0.0, -0.0],
                [1.0, -sign], [-2.0, -2.0], [2.0, 2.0])
        for seed in range(6):
            assert same_answer(args, seed)

    rng = np.random.default_rng(31)
    solved = inconsistent = 0
    for trial in range(300):
        make = _general_instance if trial % 2 else _epigraph_instance
        A, b, c, lo, hi = make(rng)
        if c.size == 1:
            continue
        if same_answer((A, b.tolist(), c.tolist(), lo.tolist(), hi.tolist()), trial):
            solved += 1
        else:
            inconsistent += 1
    assert solved + inconsistent >= 200
    assert solved >= 150 and inconsistent >= 10
    # three variables and 40-200 rows: phase 1 of a two-dimensional program
    for trial in range(300, 340):
        A, b, c, lo, hi = _epigraph_instance(rng, n=3, rows=(40, 200))
        same_answer((A, b.tolist(), c.tolist(), lo.tolist(), hi.tolist()), trial)
    # four variables and 20-40 rows, the shape of phase 1 of a
    # three-dimensional program when it falls back from the vertex simplex:
    # the general level, whose three-variable subproblems go to the entry
    for trial in range(340, 380):
        A, b, c, lo, hi = _epigraph_instance(rng, n=4, rows=(20, 40))
        same_answer((A, b.tolist(), c.tolist(), lo.tolist(), hi.tolist()), trial)
    # 2-6 variables with vacuous rows at the entry: some kept, one
    # inconsistent, or every row vacuous, so the loop is handed no rows
    entry_rng = np.random.default_rng(37)
    for trial in range(380, 455):
        n, case = 2 + trial % 5, trial // 5 % 3
        m = int(entry_rng.integers(2, 12))
        A = entry_rng.integers(-1, 2, (m, n)).astype(float)
        b = entry_rng.random(m)
        vacuous = m if case == 2 else int(entry_rng.integers(1, m))
        A[:vacuous] *= entry_rng.choice([0.0, 1e-14], (vacuous, 1))
        if case == 1:
            b[0] = -1.0
        c = entry_rng.standard_normal(n).tolist()
        assert same_answer((A, b.tolist(), c, [-2.0] * n, [2.0] * n), trial) == (case != 1)
    # 4-7 variables, mostly axis rows: the general level eliminates a
    # coordinate whose box rows, and the earlier axis rows along it, leave
    # vacuous rows in a subproblem of every width from 3 to 6
    for trial in range(455, 555):
        n = 4 + trial % 4
        m = int(entry_rng.integers(2, 14))
        A = np.zeros((m, n))
        A[np.arange(m), entry_rng.integers(n, size=m)] = entry_rng.choice([-1.0, 1.0], m)
        A[:m // 4] += entry_rng.integers(-1, 2, (m // 4, n))
        b = entry_rng.uniform(-1.0, 1.0, m)
        c = entry_rng.standard_normal(n).tolist()
        same_answer((A, b.tolist(), c, [-2.0] * n, [2.0] * n), trial)
    assert min(seen.values()) >= 5 and len(seen) == 38, seen


def test_seidel_bits_do_not_depend_on_sum(monkeypatch):
    """From Python 3.12, sum() over floats is compensated.  The exact
    backend and its list reference sum every dot product left to right from
    0, so a compensated builtin sum changes no draw and no bit of either."""
    builtin_sum = builtins.sum

    def compensated_sum(iterable, start=0):
        items = list(iterable)
        if items and all(type(v) is float for v in items):
            return start + math.fsum(items)
        return builtin_sum(items, start)

    rng = np.random.default_rng(41)
    instances = [_general_instance(rng) for _ in range(120)]  # 2-6 variables

    def answers():
        got = []
        for trial, (A, b, c, lo, hi) in enumerate(instances):
            args = (b.tolist(), c.tolist(), lo.tolist(), hi.tolist())
            for solve in (lambda *a: _seidel(A.tolist(), *a, [0] * (c.size + 1)),
                          lambda *a: seidel_list_reference._seidel(A.tolist(), *a)):
                rng_solve = np.random.default_rng(trial)
                x = solve(*args, rng_solve, 1e-9)
                got.append((None if x is None else np.array(x).tobytes(),
                            rng_solve.bit_generator.state["state"]["state"]))
        return got

    # summed left to right, the two 1.0 terms are lost
    assert compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    plain = answers()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert answers() == plain


def test_list_shuffle_draws_what_permutation_draws():
    """The exact backend draws each visiting order as ``rng.shuffle`` of a
    list of indices, where it once used ``rng.permutation(n).tolist()``.
    Both must give the same order and leave the generator in the same state,
    draw after draw; a numpy release that changes either fails here rather
    than moving every answer of the exact backend unnoticed."""
    sizes = [*range(65), 1000, 2048, 4999]
    for seed in range(100):
        shuffled, permuted = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in sizes:
            order = list(range(n))
            shuffled.shuffle(order)
            assert order == permuted.permutation(n).tolist(), (seed, n)
            assert shuffled.bit_generator.state == permuted.bit_generator.state, (seed, n)


def _simplex_grid(k: int, resolution: float) -> np.ndarray:
    """All weight vectors on the k-simplex with the given spacing."""
    steps = int(round(1.0 / resolution))
    if k == 1:
        return np.ones((1, 1))
    if k == 2:
        lam = np.linspace(0.0, 1.0, steps + 1)
        return np.column_stack([lam, 1.0 - lam])
    axes = np.meshgrid(*([np.linspace(0.0, 1.0, steps + 1)] * (k - 1)), indexing="ij")
    flat = np.column_stack([a.ravel() for a in axes])
    keep = flat.sum(axis=1) <= 1.0 + 1e-12
    flat = flat[keep]
    return np.column_stack([flat, 1.0 - flat.sum(axis=1)])


def test_zero_gradient_certificate():
    """At a reported minimum, zero must lie in the hull of the active
    pieces' gradients (searched on a weight grid)."""
    rng = np.random.default_rng(24)
    checked = 0
    trial = 0
    while checked < 25:
        trial += 1
        d = int(rng.integers(1, 4))
        m = int(rng.integers(d + 1, 9))
        prob = PiecewiseMaxProblem(rng.standard_normal((m, d)), rng.standard_normal(m))
        result = solve_exact(prob, seed=trial)
        if result.status is not MinMaxStatus.MINIMIZED:
            continue
        gradients = prob.G[list(result.active_set)]
        k = gradients.shape[0]
        if k > 4:
            continue  # degenerate pile-up; certificate grid would be too coarse
        resolution = 1e-3 if k <= 3 else 1e-2
        weights = _simplex_grid(k, resolution)
        combos = weights @ gradients
        best = float(np.linalg.norm(combos, axis=1).min())
        scale = 1.0 + float(np.abs(gradients).max())
        assert best <= 5 * resolution * k * scale
        checked += 1


class TestSolveSubgradient:
    def test_v_problem_converges(self):
        result = solve_subgradient(v_problem())
        assert result.status is MinMaxStatus.MINIMIZED
        assert result.value <= 1e-6

    def test_constant_problem_immediate(self):
        prob = PiecewiseMaxProblem(G=np.zeros((3, 2)), h=[1.0, 5.0, 2.0])
        result = solve_subgradient(prob)
        assert result.value == 5.0
        np.testing.assert_array_equal(result.x_star, np.zeros(2))

    def test_tracks_exact_backend(self):
        rng = np.random.default_rng(25)
        checked = 0
        trial = 0
        while checked < 20:
            trial += 1
            G = rng.standard_normal((10, 3))
            h = rng.standard_normal(10)
            prob = PiecewiseMaxProblem(G, h)
            exact = solve_exact(prob, seed=trial)
            if exact.status is not MinMaxStatus.MINIMIZED:
                continue
            approx = solve_subgradient(prob)
            assert approx.status is MinMaxStatus.MINIMIZED
            assert abs(approx.value - exact.value) <= 1e-9 * (1 + abs(exact.value))
            checked += 1

    def test_runaway_descent_flags_unbounded(self):
        prob = PiecewiseMaxProblem(G=[[1.0, 0.0], [0.5, -2.0]], h=[0.0, 1.0])
        result = solve_subgradient(prob)
        assert result.status is MinMaxStatus.UNBOUNDED_BELOW
        # the witness is a point of descent, below the value at the origin
        assert result.value == evaluate(prob, result.x_star)[0]
        assert result.value < evaluate(prob, np.zeros(2))[0]
        assert set(result.stats) == {"pivots"}

    def test_works_above_exact_cap(self):
        rng = np.random.default_rng(26)
        d = 15
        G = np.vstack([np.eye(d), -np.eye(d)]) + 0.01 * rng.standard_normal((2 * d, d))
        h = np.zeros(2 * d)
        result = solve_subgradient(PiecewiseMaxProblem(G, h))
        assert result.status is MinMaxStatus.MINIMIZED
        assert result.value <= 1e-4


def _iterative_instance(rng):
    """1-24 variables and 1-250 pieces in C or Fortran order, some with a
    zeroed row, duplicated rows or rows rescaled by 1e-3 to 1e3."""
    d = int(rng.integers(1, 25))
    m = int(rng.integers(1, 251))
    G = rng.standard_normal((m, d))
    h = rng.standard_normal(m)
    kind = int(rng.integers(4))
    picked = rng.integers(m, size=m // 4 + 1)
    if kind == 1:
        copied = rng.integers(m, size=picked.size)
        G[picked], h[picked] = G[copied], h[copied]
    elif kind == 2:
        G[picked[0]] = 0.0  # a constant piece
    elif kind == 3:
        scale = 10.0 ** rng.uniform(-3.0, 3.0, m)
        G, h = G * scale[:, None], h * scale
    if rng.random() < 0.5:
        G = np.asfortranarray(G)
    return PiecewiseMaxProblem(G, h)


def _rank_deficient_instance(rng):
    """G = randn(m, r) @ randn(r, d) with r < d: a line along which every
    piece is constant."""
    d = int(rng.integers(2, 13))
    r = int(rng.integers(1, d))
    m = int(rng.integers(1, 61))
    G = rng.standard_normal((m, r)) @ rng.standard_normal((r, d))
    return PiecewiseMaxProblem(G, rng.standard_normal(m))


def _iterative_cases():
    """200 drawn instances, a runaway descent, a constant piece that is the
    maximum, 48 rank-deficient draws and the slab -1 <= x <= 1 in two
    variables."""
    rng = np.random.default_rng(28)
    cases = [_iterative_instance(rng) for _ in range(200)]
    cases.append(PiecewiseMaxProblem(G=[[1.0, 0.0], [0.5, -2.0]], h=[0.0, 1.0]))
    cases.append(PiecewiseMaxProblem(G=[[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]], h=[0.0, 0.0, 5.0]))
    rng = np.random.default_rng(31)
    cases += [_rank_deficient_instance(rng) for _ in range(48)]
    cases.append(PiecewiseMaxProblem(G=[[1.0, 0.0], [-1.0, 0.0]], h=[-1.0, -1.0]))
    return cases


def _highs_minimum(prob):
    """min over x of max(G x + h) by HiGHS on the epigraph LP: its value, or
    None when HiGHS calls the LP unbounded."""
    from scipy.optimize import linprog

    m, d = prob.G.shape
    res = linprog(np.append(np.zeros(d), 1.0), A_ub=np.hstack([prob.G, -np.ones((m, 1))]),
                  b_ub=-prob.h, bounds=[(None, None)] * (d + 1), method="highs")
    assert res.status in (0, 3), res.message
    return float(res.fun) if res.status == 0 else None


def test_subgradient_matches_highs():
    """Every verdict is HiGHS's: unbounded below exactly where HiGHS says
    unbounded, otherwise the value within 1e-9 relative, and the pivots
    counted in ``stats``."""
    verdicts = Counter()
    for trial, prob in enumerate(_iterative_cases()):
        got = solve_subgradient(prob)
        want = _highs_minimum(prob)
        assert set(got.stats) == {"pivots"} and got.stats["pivots"] >= 0, trial
        if want is None:
            assert got.status is MinMaxStatus.UNBOUNDED_BELOW, trial
            assert got.value < evaluate(prob, np.zeros(prob.d))[0], trial
        else:
            assert got.status is MinMaxStatus.MINIMIZED, trial
            assert abs(got.value - want) <= 1e-9 * max(1.0, abs(want)), trial
        verdicts[got.status] += 1
    assert min(verdicts.values()) >= 10 and len(verdicts) == 2, verdicts


@pytest.mark.parametrize("solve", [
    solve_subgradient,
    simplex_reference.solve_subgradient,
    lambda prob: reduction._run_minmax(prob, reduction.SolveOptions()),
], ids=["library", "reference", "routed"])
@pytest.mark.parametrize("G, h, factors", [
    ([[1.0], [-1.0]], [0.5, -1.0], [1e-13]),
    ([[1.0], [-1.0]] + [[0.0]] * 47, [0.5, -1.0] + [-10.0] * 47, [1e-13]),
    ([[2.0], [-1.0], [-3.0]], [0.3, -0.2, -1.0], [5e-13]),
    ([[1.0, 0.5], [-1.0, 0.0], [0.0, -1.0], [2.0, 1.0]], [0.5, -1.0, -0.25, 0.0], [1e-13, 1.0]),
], ids=["two-pieces", "49-pieces", "three-pieces", "2-D"])
def test_tiny_columns_match_highs(solve, G, h, factors):
    """A column of G below 1e-12 of the largest entry gives its row x_j = 0
    a multiplier of at most 1e-12, yet the step to its block can lower t by
    a quarter, with x_j near 1e13.  Scaling a column of G does not change
    the minimum, so HiGHS on the unscaled columns gives it; every piece
    scale is within 1e6 of the largest, so the routed stage is the simplex's."""
    G, h = np.array(G), np.array(h)
    prob = PiecewiseMaxProblem(G * factors, h)
    want = _highs_minimum(PiecewiseMaxProblem(G, h))
    got = solve(prob)
    assert got.status is MinMaxStatus.MINIMIZED
    assert abs(got.value - want) <= 1e-9 * max(1.0, abs(want))


def test_subgradient_needs_no_lapack(monkeypatch):
    """The vertex simplex updates its basis inverse by rank-one steps: a
    d=20 solve calls none of numpy's LAPACK routines, each of which maps
    half a megabyte or more into the process on first use."""
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK routine called")

    for name in ("solve", "lstsq", "qr", "inv", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rng = np.random.default_rng(30)
    prob = PiecewiseMaxProblem(rng.standard_normal((200, 20)), rng.standard_normal(200))
    result = solve_subgradient(prob)
    assert result.status is MinMaxStatus.MINIMIZED
    assert set(result.stats) == {"pivots"}


def _bits(value) -> bytes:
    """A float or an array by its bytes: -0.0 == 0.0, but their bytes differ."""
    return np.asarray(value, dtype=float).tobytes()


def _outcome(solver, prob):
    """Every field of ``solver(prob)``, floats as bytes, or the error it raised."""
    try:
        r = solver(prob)
    except SolverError as exc:
        return "raised", str(exc)
    return r.status, _bits(r.x_star), _bits(r.value), r.active_set, r.stats


def test_simplex_matches_reference_bits():
    """``solve_subgradient`` takes every decision of the loop kept in
    ``tests/simplex_reference.py`` and returns its bits: status, ``x_star``,
    ``value``, ``active_set`` and ``stats``."""
    for trial, prob in enumerate(_iterative_cases()):
        want = _outcome(simplex_reference.solve_subgradient, prob)
        assert _outcome(solve_subgradient, prob) == want, trial


@pytest.mark.parametrize("make", [lpgen.interior_lp, lpgen.bounded_lp, lpgen.unbounded_lp,
                                  lpgen.flat_lp, lpgen.infeasible_lp],
                         ids=lambda make: make.__name__)
def test_solves_match_reference_simplex_bits(monkeypatch, make):
    """300 programs of each generator, solved with the default routing,
    with every stage on the vertex simplex and, where a point is planted,
    hinted: each ``Solution`` has the bytes it has when
    ``reduction.solve_subgradient`` is the reference loop."""
    rng = np.random.default_rng(19)
    runs = []
    for _ in range(300):
        lp = make(rng)
        lp, point = lp if isinstance(lp, tuple) else (lp, None)
        runs += [(lp, None, "exact"), (lp, None, "subgradient")]
        runs += [(lp, point, "exact")] if point is not None else []

    calls = Counter()

    def solve_all():
        out = []
        for lp, point, solver in runs:
            sol = reduction.solve(lp, interior_hint=point,
                                  options=reduction.SolveOptions(solver=solver))
            out.append((sol.status, *(None if v is None else _bits(v) for v in (
                sol.x, sol.objective, sol.residual, sol.interior_point))))
        return out

    def counting(prob, solver=solve_subgradient):
        calls[solver] += 1
        return solver(prob)

    monkeypatch.setattr(reduction, "solve_subgradient", counting)
    got = solve_all()
    monkeypatch.setattr(reduction, "solve_subgradient",
                        lambda prob: counting(prob, simplex_reference.solve_subgradient))
    assert solve_all() == got
    # both times the same stages ran the simplex, at least one per subgradient run
    subgradient_runs = sum(solver == "subgradient" for *_, solver in runs)
    assert calls[solve_subgradient] == calls[simplex_reference.solve_subgradient]
    assert calls[solve_subgradient] >= subgradient_runs
