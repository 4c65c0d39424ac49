"""Brute-force LP reference: vertex enumeration plus a recession-ray test.

Ground truth for tests at small sizes; the solving pipeline never calls into
this module, and nothing here shares arithmetic with the incremental solver,
so agreement between the two is evidence rather than tautology.  Exponential
cost is accepted by design.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from minmaxlp.model import LinearProgram, Sense, Solution, SolutionStatus

DET_TOL = 1e-10
FEAS_TOL = 1e-9
DEDUP_TOL = 1e-7
RAY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Vertex:
    x: np.ndarray
    active_rows: tuple[int, ...]


def enumerate_vertices(lp: LinearProgram) -> list[Vertex]:
    """All feasible basic points: for every d-subset of rows whose
    determinant clears a scale-relative threshold, solve the equality system
    and keep solutions satisfying every constraint; near-duplicates collapse
    to the first representative."""
    n, d = lp.n, lp.dimension
    if n < d:
        return []
    A = np.asarray(lp.A, dtype=float)
    b = np.asarray(lp.b, dtype=float)
    row_norms = np.linalg.norm(A, axis=1)

    combos = np.array(list(itertools.combinations(range(n), d)))
    subs = A[combos]
    scale = np.maximum(row_norms[combos].max(axis=1), 1e-300)
    nonsingular = np.abs(np.linalg.det(subs)) > DET_TOL * scale**d
    combos = combos[nonsingular]
    if not combos.size:
        return []
    points = np.linalg.solve(subs[nonsingular], b[combos][:, :, None])[:, :, 0]

    lengths = np.linalg.norm(points, axis=1)
    margins = points @ A.T - b[None, :]
    allowance = FEAS_TOL * (1 + np.abs(b)[None, :] + row_norms[None, :] * lengths[:, None])
    feasible = (margins <= allowance).all(axis=1)

    vertices: list[Vertex] = []
    for x, combo in zip(points[feasible], combos[feasible]):
        if any(np.linalg.norm(x - v.x) < DEDUP_TOL for v in vertices):
            continue
        xx = x.copy()
        xx.setflags(write=False)
        vertices.append(Vertex(x=xx, active_rows=tuple(int(i) for i in combo)))
    return vertices


def _feasible_point(lp: LinearProgram) -> np.ndarray | None:
    """Minimize the worst constraint margin with an off-the-shelf LP solve;
    a nonpositive optimum hands back a feasible point."""
    from scipy.optimize import linprog

    n, d = lp.n, lp.dimension
    scale = 1.0 + float(np.abs(lp.b).max())
    res = linprog(
        c=np.eye(d + 1)[-1],
        A_ub=np.hstack([lp.A, -np.ones((n, 1))]),
        b_ub=lp.b,
        bounds=[(None, None)] * d + [(-1e6 * scale, None)],
        method="highs",
    )
    if res.status != 0:
        return None
    if res.x[-1] > FEAS_TOL * scale:
        return None
    return np.asarray(res.x[:d], dtype=float)


def _unbounded_ray(lp: LinearProgram, c: np.ndarray) -> np.ndarray | None:
    """A unit recession direction improving the objective, if one exists.

    Candidates are null vectors of (d-1)-subsets of rows (extreme rays of the
    recession cone lie on d-1 independent tight rows) plus the null space of
    the whole matrix (free lines the subsets can miss)."""
    A = np.asarray(lp.A, dtype=float)
    n, d = A.shape
    row_norms = np.maximum(np.linalg.norm(A, axis=1), 1.0)
    c_scale = max(1.0, float(np.linalg.norm(c)))

    def improves(v: np.ndarray) -> bool:
        for cand in (v, -v):
            if (A @ cand <= RAY_TOL * row_norms).all() and c @ cand > RAY_TOL * c_scale:
                return True
        return False

    def first_improving(vectors: np.ndarray) -> np.ndarray | None:
        for v in vectors:
            if improves(v):
                return v if c @ v > 0 else -v
        return None

    _, s, vt = np.linalg.svd(A)
    null_mask = np.concatenate([s, np.zeros(max(0, d - n))]) <= 1e-10 * max(1.0, s[0])
    line = first_improving(vt[null_mask])
    if line is not None:
        return line

    if n >= d - 1 >= 1:
        for combo in itertools.combinations(range(n), d - 1):
            sub = A[list(combo)]
            _, s, vt = np.linalg.svd(sub)
            tiny = np.concatenate([s, np.zeros(d - len(s))]) <= 1e-10 * max(1.0, s[0])
            ray = first_improving(vt[tiny])
            if ray is not None:
                return ray
    return None


def oracle_solve(lp: LinearProgram) -> Solution:
    """Classify and solve by exhaustion: feasibility first, then rays, then
    the best enumerated vertex; a solver fallback covers feasible sets that
    have no vertex at all."""
    feasible_point = _feasible_point(lp)
    if feasible_point is None:
        return Solution(status=SolutionStatus.INFEASIBLE)

    c = lp.c if lp.sense is Sense.MAXIMIZE else -lp.c

    ray = _unbounded_ray(lp, c)
    if ray is not None:
        return Solution(status=SolutionStatus.UNBOUNDED)

    vertices = enumerate_vertices(lp)
    if vertices:
        best = max(vertices, key=lambda v: float(c @ v.x))
        return Solution(
            status=SolutionStatus.OPTIMAL,
            x=best.x,
            objective=float(lp.c @ best.x),
            residual=float((lp.A @ best.x - lp.b).max()),
        )

    # feasible, no ray found, no vertex: optimum sits on a non-pointed face
    return highs_solve(lp)


def highs_solve(lp: LinearProgram) -> Solution:
    """Solve with HiGHS alone, for programs too wide to enumerate."""
    from scipy.optimize import linprog

    c = lp.c if lp.sense is Sense.MAXIMIZE else -lp.c
    res = linprog(c=-c, A_ub=lp.A, b_ub=lp.b, bounds=[(None, None)] * lp.dimension,
                  method="highs")
    if res.status == 3:
        return Solution(status=SolutionStatus.UNBOUNDED)
    if res.status != 0:
        return Solution(status=SolutionStatus.INFEASIBLE)
    x = np.asarray(res.x, dtype=float)
    return Solution(
        status=SolutionStatus.OPTIMAL,
        x=x,
        objective=float(lp.c @ x),
        residual=float((lp.A @ x - lp.b).max()),
    )
