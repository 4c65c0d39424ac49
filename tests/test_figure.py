"""The SVG figure checked against straightforward references: the pair
intersections against a loop over pairs, and the whole document, byte for
byte, against the ElementTree renderer in ``figure_reference.py``."""

import collections
import re
from pathlib import Path

import numpy as np

import figure_reference as reference
from minmaxlp import LinearProgram, LPError, Solution, SolutionStatus, load_lp, solve
from minmaxlp import figure
from minmaxlp.figure import PALETTE, _intersections, _pairs, render_svg

DATA = Path(__file__).parent / "data"


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


def test_pairs_are_the_upper_triangle_in_order():
    for n in range(1, 41):
        np.testing.assert_array_equal(_pairs(n).T, np.triu_indices(n, 1))


def test_intersections_match_the_pair_loop():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(1, 41))
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


def _figure_case(rng):
    """A random two-dimensional program and a solution to draw with it."""
    n = int(rng.integers(1, 41))
    if rng.random() < 0.2:
        # a slab: every row along one normal and no crossing, so the frame
        # holds only the dual points and most lines miss it; some normals
        # lie on an axis, so the lines miss it parallel to two of its sides
        normal = rng.normal(size=2) if rng.random() < 0.5 else np.eye(2)[rng.integers(2)]
        A = normal * rng.choice([-2.0, -1.0, 0.5, 1.0], n)[:, None]
        b = rng.uniform(1.0, 50.0, n)
    else:
        A = rng.uniform(-1.0, 1.0, (n, 2))
        b = A @ rng.uniform(-1.0, 1.0, 2) + rng.uniform(0.2, 1.5, n)
        src, dst = rng.integers(0, n, size=(2, n // 3))
        A[dst] = A[src] * rng.choice([-2.0, 0.5, 1.0], src.size)[:, None]
        axis = rng.integers(0, n, size=n // 4)
        A[axis] = np.eye(2)[rng.integers(0, 2, axis.size)] * rng.choice([-1.0, 1.0], (axis.size, 1))
        vacuous = rng.integers(0, n, size=int(rng.integers(0, 3)))
        A[vacuous] *= rng.choice([0.0, 1e-13], (vacuous.size, 1))
        scale = 10.0 ** rng.integers(-3, 4)
        A, b = A * scale, b * scale ** rng.integers(0, 2)
    if rng.random() < 0.25:
        b[rng.integers(n)] *= rng.choice([0.0, -1.0])
    lp = LinearProgram(dimension=2, A=A, b=b, c=rng.uniform(-1.0, 1.0, 2))

    kind = int(rng.integers(6))
    if kind == 0:
        return lp, None
    if kind == 1:
        return lp, Solution(SolutionStatus.UNBOUNDED)
    if kind == 2:
        return lp, Solution(SolutionStatus.INFEASIBLE)
    if kind == 3:
        return lp, Solution(SolutionStatus.OPTIMAL, x=np.zeros(2))
    if kind == 4:
        return lp, Solution(SolutionStatus.OPTIMAL, x=rng.normal(size=2))
    try:
        return lp, solve(lp)
    except LPError:
        return lp, None


LINE = re.compile(r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"')
TICKS = re.compile(r'<path d="[^"]+" stroke="(#[0-9a-f]{6})"')


def test_text_renderer_matches_the_element_tree_reference():
    # the same bytes, case by case, from the text renderer and the
    # ElementTree one it replaced; counted below, so that a change to the
    # generator cannot quietly drop a case
    seen = collections.Counter()
    rng = np.random.default_rng(43)
    for trial in range(300):
        lp, solution = _figure_case(rng)
        want = reference.render_svg(lp, solution)
        assert render_svg(lp, solution) == want, trial

        norms = np.linalg.norm(lp.A, axis=1)
        vacuous = norms < 1e-12
        seen["vacuous row"] += int(vacuous.sum())
        i, j = np.triu_indices(lp.n, k=1)
        det = lp.A[i, 0] * lp.A[j, 1] - lp.A[i, 1] * lp.A[j, 0]
        seen["(anti)parallel pair"] += int(
            (np.abs(det) <= 1e-9 * norms[i] * norms[j])[~(vacuous[i] | vacuous[j])].sum()
        )
        ends = LINE.findall(want.decode())
        assert len(ends) == lp.n
        off = [x1 == x2 and y1 == y2 for x1, y1, x2, y2 in ends]
        seen["line off the frame"] += sum(o for o, v in zip(off, vacuous) if not v)
        seen["axis-parallel line off the frame"] += sum(
            o for o, a in zip(off, lp.A) if (a == 0).sum() == 1
        )
        seen["ticks drawn"] += sum(color in PALETTE for color in TICKS.findall(want.decode()))
        seen["25 or more rows"] += lp.n >= 25
        seen["no dual points"] += int((lp.b <= 0).any())
        status = None if solution is None else solution.status
        seen[f"solution {status}"] += 1
        if status is SolutionStatus.OPTIMAL and not solution.x.any():
            seen["optimum at the origin"] += 1
        seen["dual line of the optimum"] += b"stroke-dasharray" in want
    for case in ("vacuous row", "(anti)parallel pair", "line off the frame",
                 "axis-parallel line off the frame", "ticks drawn",
                 "25 or more rows", "no dual points",
                 "solution None", "solution SolutionStatus.UNBOUNDED",
                 "solution SolutionStatus.INFEASIBLE", "optimum at the origin",
                 "dual line of the optimum"):
        assert seen[case] >= 5, (case, seen)


def test_every_coordinate_carries_the_reference_bits(monkeypatch):
    # printed in full instead of to two decimals: a reordered operation moves
    # a last bit, which .2f shows only in the rare case that it flips a digit
    monkeypatch.setattr(reference, "_fmt", lambda v: repr(float(v)))
    full = 0
    for name, value in list(vars(figure).items()):
        templates = value if isinstance(value, tuple) else (value,)
        if all(isinstance(t, str) and "%.2f" in t for t in templates):
            full += len(templates)
            templates = tuple(t.replace("%.2f", "%r") for t in templates)
            monkeypatch.setattr(figure, name, templates if isinstance(value, tuple) else templates[0])
    assert full >= 30
    rng = np.random.default_rng(44)
    for trial in range(300):
        lp, solution = _figure_case(rng)
        assert render_svg(lp, solution) == reference.render_svg(lp, solution), trial


def _golden_from_both_renderers(name):
    lp = load_lp((DATA / f"{name}.json").read_bytes())
    golden = (DATA / "golden" / f"{name}.svg").read_bytes()
    solution = solve(lp)
    assert render_svg(lp, solution) == golden
    assert reference.render_svg(lp, solution) == golden


def test_bounded_golden_from_both_renderers():
    _golden_from_both_renderers("bounded")


def test_boxed_golden_from_both_renderers():
    # 16 rows with ticks, box rows and dual points: the sizes the benchmark draws
    _golden_from_both_renderers("boxed")
