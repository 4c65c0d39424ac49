"""Minimize the pointwise maximum of affine pieces: min over x of
max_i (G_i . x + h_i).

Two backends.  The exact one solves the epigraph LP (minimize t subject to
G_i . x + h_i <= t) by randomized incremental insertion inside a symmetric
bounding box, recursing on one fewer variable each time a constraint is
violated; it is intended for low dimension.  Its recursion works on lists of
Python floats rather than numpy arrays: a solve makes tens to hundreds of
recursive calls, each on a handful of rows, and numpy's fixed cost per call
(slicing, stacking, one dispatch per row) outweighed the arithmetic.  It
takes the constraints as columns and normalizes the rows it is handed once,
at ``_seidel``'s entry.  Nearly all subproblems have one to four variables,
and those levels are flat loops over the unit rows as columns: the four- and
three-variable loops normalize their subproblems' rows as they eliminate,
and the two-variable loop solves its one-variable subproblems in place, each
with the arithmetic, and so the bits, of the plain list recursion kept in
``tests/seidel_list_reference.py``.  Orders are drawn by shuffling lists,
the same draws as ``rng.permutation`` at a third of the cost.  The iterative
one takes Polyak subgradient steps toward a slowly lowered target level and
scales to any dimension at the price of approximate answers.  Its loop works
in preallocated buffers: a solve takes some 13,000 steps, each a handful of
numpy calls on short vectors, so fresh arrays and Python helpers per step
cost more than the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from itertools import compress
from operator import add, mul, truediv

import numpy as np

from .errors import DimensionCapError, SolverError

# exact backend refuses instances wider than this many variables
D_MAX = 10

# bounding-box multiple of the instance's own scale
BOX_FACTOR = 1e6

# a piece counts as active when within this relative slack of the max
ACTIVE_TOL = 1e-7

# objective coefficients below this are ties, resolved toward zero
TIE_TOL = 1e-12


class MinMaxStatus(str, Enum):
    MINIMIZED = "minimized"
    UNBOUNDED_BELOW = "unbounded_below"


@dataclass(frozen=True, eq=False)
class PiecewiseMaxProblem:
    """The function x -> max_i (G_i . x + h_i), given by its pieces."""

    G: np.ndarray
    h: np.ndarray

    def __post_init__(self) -> None:
        G = np.array(self.G, dtype=float)
        h = np.array(self.h, dtype=float)
        if G.ndim != 2 or 0 in G.shape:
            raise SolverError("G must be a matrix with at least one row and one column")
        if h.shape != (G.shape[0],):
            raise SolverError("h must have one entry per row of G")
        if not (np.isfinite(G).all() and np.isfinite(h).all()):
            raise SolverError("pieces must be finite")
        G.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)

    @property
    def m(self) -> int:
        return self.G.shape[0]

    @property
    def d(self) -> int:
        return self.G.shape[1]


@dataclass(frozen=True, eq=False)
class MinMaxResult:
    status: MinMaxStatus
    x_star: np.ndarray | None
    value: float | None
    active_set: tuple[int, ...] | None
    converged: bool = True
    # exact backend: {"subproblems": {k: subproblems with k variables},
    # "box_doublings": 0 or 1}, summed over its epigraph solves
    stats: dict = field(default_factory=dict)


def evaluate(prob: PiecewiseMaxProblem, x: np.ndarray) -> tuple[float, int]:
    """Value of the max at ``x`` and the smallest index attaining it."""
    x = np.asarray(x, dtype=float)
    if x.shape != (prob.d,):
        raise SolverError(f"expected a point of length {prob.d}, got shape {x.shape}")
    values = prob.G @ x + prob.h
    index = int(np.argmax(values))
    return float(values[index]), index


def _result(prob: PiecewiseMaxProblem, x: np.ndarray,
            status: MinMaxStatus = MinMaxStatus.MINIMIZED, **fields) -> MinMaxResult:
    """The result at ``x``, from one evaluation of every piece: ``value`` is
    max(G x + h), and ``active_set`` the pieces within ACTIVE_TOL of it."""
    values = prob.G @ x + prob.h
    value = float(values[int(np.argmax(values))])
    active = np.flatnonzero(values >= value - ACTIVE_TOL * (1 + abs(value)))
    return MinMaxResult(status, x, value, tuple(active.tolist()), **fields)


# ---------------------------------------------------------------------------
# exact backend: randomized incremental LP on the epigraph


def _seidel(cols: list, b: list, c: list, lo: list, hi: list, rng: np.random.Generator,
            tol: float, counts: list):
    """Minimize c . x over {A x <= b, lo <= x <= hi}, or None when the
    half-spaces are (numerically) inconsistent.

    Constraints are visited in random order; a violated one must be tight at
    the optimum, so that variable is eliminated and the prefix re-solved one
    dimension down.  The box is kept implicit: the running point always
    satisfies it, and eliminated coordinates re-enter as two ordinary rows.

    ``cols`` is ``A`` as a list of columns; they, ``b``, ``c``, ``lo``,
    ``hi`` and the returned ``x`` are lists of floats.  This is the one place
    that normalizes the rows it is handed, at every width: a vacuous row is
    dropped, or gives None when inconsistent.  Two to four variables then go
    to the flat loops, which take the unit rows as columns.  ``counts[k]`` is
    raised by one for every subproblem with k variables, this one included.
    """
    dim = len(c)
    counts[dim] += 1
    # normalize rows so pivots and violation thresholds are scale-free
    norms = list(map(math.hypot, *cols))
    if min(norms) <= 1e-13:
        kept = [norm > 1e-13 for norm in norms]
        if any(rhs < -tol for keep, rhs in zip(kept, b) if not keep):
            return None  # 0 . x <= negative: inconsistent
        # drop the vacuous rows
        cols = [list(compress(col, kept)) for col in cols]
        b, norms = list(compress(b, kept)), list(compress(norms, kept))
    cols = [list(map(truediv, col, norms)) for col in cols]
    w = list(map(truediv, b, norms))
    if dim in _FLAT_LOOPS:
        return _FLAT_LOOPS[dim](cols, w, c, lo, hi, rng, tol, counts)
    rows = list(zip(*cols))

    tie = TIE_TOL * max(1.0, max(map(abs, c)))
    x = [min(max(0.0, l), h) if abs(cj) <= tie else (l if cj > 0 else h)
         for cj, l, h in zip(c, lo, hi)]
    # the point only changes after a violation, so neither does its slack term
    x_slack = 1e-12 * (1 + max(map(abs, x)))

    order = list(range(len(rows)))
    rng.shuffle(order)
    for position, i in enumerate(order):
        row, rhs = rows[i], w[i]
        slack = tol * (1 + abs(rhs)) + x_slack
        # summed left to right from 0: from Python 3.12 sum() compensates
        if reduce(add, map(mul, row, x), 0) <= rhs + slack:
            continue
        # optimum lies on row . x = rhs; eliminate the first largest coordinate
        mags = list(map(abs, row))
        k = mags.index(max(mags))
        pivot = row[k]
        alpha = [v / pivot for v in row]  # x_k = beta - alpha . x_rest
        beta = rhs / pivot

        sub_A, sub_b = [], []
        for p in order[:position]:
            prow = rows[p]
            pk = prow[k]
            sub_row = [v - pk * a for v, a in zip(prow, alpha)]
            del sub_row[k]
            sub_A.append(sub_row)
            sub_b.append(w[p] - pk * beta)
        ck = c[k]
        sub_c = [cj - ck * a for cj, a in zip(c, alpha)]
        del alpha[k], sub_c[k]
        # the box on x_k becomes two ordinary rows of the subproblem
        sub_A += [[-a for a in alpha], alpha]
        sub_b += [hi[k] - beta, beta - lo[k]]

        x = _seidel(list(zip(*sub_A)), sub_b, sub_c, lo[:k] + lo[k + 1:], hi[:k] + hi[k + 1:],
                    rng, tol, counts)
        if x is None:
            return None
        x.insert(k, beta - reduce(add, map(mul, alpha, x), 0))
        x_slack = 1e-12 * (1 + max(map(abs, x)))
    return x


def _quad_loop(cols: list, w: list, c: list, lo: list, hi: list, rng: np.random.Generator,
               tol: float, counts: list):
    """Minimize c . x over the unit rows (p, q, r, s) . x <= w and the box:
    :func:`_space_loop` one variable up, its subproblems' columns handed
    straight to :func:`_space_loop`, with the reference's bits."""
    p, q, r, s = cols
    tie = TIE_TOL * max(1.0, abs(c[0]), abs(c[1]), abs(c[2]), abs(c[3]))
    x0, x1, x2, x3 = [min(max(0.0, l), h) if abs(cj) <= tie else (l if cj > 0 else h)
                      for cj, l, h in zip(c, lo, hi)]
    x_slack = 1e-12 * (1 + max(abs(x0), abs(x1), abs(x2), abs(x3)))

    order = list(range(len(w)))
    rng.shuffle(order)
    for position, i in enumerate(order):
        rhs = w[i]
        slack = tol * (1 + abs(rhs)) + x_slack
        if p[i] * x0 + q[i] * x1 + r[i] * x2 + s[i] * x3 <= rhs + slack:
            continue
        counts[3] += 1
        # x_k = beta - a0 x_j0 - a1 x_j1 - a2 x_j2, k the first largest
        m0, m1, m2, m3 = abs(p[i]), abs(q[i]), abs(r[i]), abs(s[i])
        if m0 >= m1 and m0 >= m2 and m0 >= m3:
            k, j0, j1, j2 = 0, 1, 2, 3
        elif m1 >= m2 and m1 >= m3:
            k, j0, j1, j2 = 1, 0, 2, 3
        elif m2 >= m3:
            k, j0, j1, j2 = 2, 0, 1, 3
        else:
            k, j0, j1, j2 = 3, 0, 1, 2
        col_k, col_0, col_1, col_2 = cols[k], cols[j0], cols[j1], cols[j2]
        pivot = col_k[i]
        a0 = col_0[i] / pivot
        a1 = col_1[i] / pivot
        a2 = col_2[i] / pivot
        beta = rhs / pivot
        ck = c[k]
        sub_c = [c[j0] - ck * a0, c[j1] - ck * a1, c[j2] - ck * a2]

        # each earlier row becomes a normalized row (u, v, t) . y <= z or is dropped
        u, v, t, z = [], [], [], []
        for e in order[:position]:
            pk = col_k[e]
            s0 = col_0[e] - pk * a0
            s1 = col_1[e] - pk * a1
            s2 = col_2[e] - pk * a2
            rhs_e = w[e] - pk * beta
            norm = math.hypot(s0, s1, s2)
            if norm <= 1e-13:
                if rhs_e < -tol:
                    return None
                continue
            u.append(s0 / norm)
            v.append(s1 / norm)
            t.append(s2 / norm)
            z.append(rhs_e / norm)
        # the box on x_k: rows -a . y <= hi_k - beta and a . y <= beta - lo_k
        upper, lower = hi[k] - beta, beta - lo[k]
        norm = math.hypot(a0, a1, a2)
        if norm <= 1e-13:
            if upper < -tol or lower < -tol:
                return None
        else:
            n0, n1, n2 = a0 / norm, a1 / norm, a2 / norm
            u += [-n0, n0]
            v += [-n1, n1]
            t += [-n2, n2]
            z += [upper / norm, lower / norm]

        y = _space_loop((u, v, t), z, sub_c, [lo[j0], lo[j1], lo[j2]],
                        [hi[j0], hi[j1], hi[j2]], rng, tol, counts)
        if y is None:
            return None
        y0, y1, y2 = y
        # _seidel's sums start at 0, which turns a -0.0 product into 0.0
        y.insert(k, beta - (0 + a0 * y0 + a1 * y1 + a2 * y2))
        x0, x1, x2, x3 = y
        x_slack = 1e-12 * (1 + max(abs(x0), abs(x1), abs(x2), abs(x3)))
    return [x0, x1, x2, x3]


def _space_loop(cols: list, w: list, c: list, lo: list, hi: list, rng: np.random.Generator,
                tol: float, counts: list):
    """Minimize c . x over the unit rows (p, q, r) . x <= w and the box.  On
    a violation one pass eliminates the pivot and normalizes each earlier
    row, and the two box rows of the eliminated coordinate, as its
    two-variable subproblem would, then hands those columns straight to
    :func:`_plane_loop`.  Each operation is the one the plain recursion of
    ``tests/seidel_list_reference.py`` does, in the same order, so every
    decision and every bit of the answer are the reference's."""
    p, q, r = cols
    tie = TIE_TOL * max(1.0, abs(c[0]), abs(c[1]), abs(c[2]))
    x0, x1, x2 = [min(max(0.0, l), h) if abs(cj) <= tie else (l if cj > 0 else h)
                  for cj, l, h in zip(c, lo, hi)]
    x_slack = 1e-12 * (1 + max(abs(x0), abs(x1), abs(x2)))

    order = list(range(len(w)))
    rng.shuffle(order)
    for position, i in enumerate(order):
        rhs = w[i]
        slack = tol * (1 + abs(rhs)) + x_slack
        # summed left to right; a 0 start would only change the sign of a
        # zero, which no comparison sees
        if p[i] * x0 + q[i] * x1 + r[i] * x2 <= rhs + slack:
            continue
        counts[2] += 1
        # x_k = beta - a0 x_j0 - a1 x_j1, k the first largest coordinate
        m0, m1, m2 = abs(p[i]), abs(q[i]), abs(r[i])
        if m0 >= m1 and m0 >= m2:
            k, j0, j1 = 0, 1, 2
        elif m1 >= m2:
            k, j0, j1 = 1, 0, 2
        else:
            k, j0, j1 = 2, 0, 1
        col_k, col_0, col_1 = cols[k], cols[j0], cols[j1]
        pivot = col_k[i]
        a0 = col_0[i] / pivot
        a1 = col_1[i] / pivot
        beta = rhs / pivot
        ck = c[k]
        sub_c = [c[j0] - ck * a0, c[j1] - ck * a1]

        # each earlier row becomes a normalized row (u, v) . y <= z of the
        # two-variable subproblem, or is dropped as vacuous
        u, v, z = [], [], []
        for e in order[:position]:
            pk = col_k[e]
            s0 = col_0[e] - pk * a0
            s1 = col_1[e] - pk * a1
            rhs_e = w[e] - pk * beta
            norm = math.hypot(s0, s1)
            if norm <= 1e-13:
                if rhs_e < -tol:
                    return None
                continue
            u.append(s0 / norm)
            v.append(s1 / norm)
            z.append(rhs_e / norm)
        # the box on x_k: rows (-a0, -a1) . y <= hi_k - beta and
        # (a0, a1) . y <= beta - lo_k
        upper, lower = hi[k] - beta, beta - lo[k]
        norm = math.hypot(a0, a1)
        if norm <= 1e-13:
            if upper < -tol or lower < -tol:
                return None
        else:
            n0, n1 = a0 / norm, a1 / norm
            u += [-n0, n0]
            v += [-n1, n1]
            z += [upper / norm, lower / norm]

        y = _plane_loop((u, v), z, sub_c, [lo[j0], lo[j1]], [hi[j0], hi[j1]], rng, tol, counts)
        if y is None:
            return None
        y0, y1 = y
        # _seidel's sums start at 0, which turns a -0.0 product into 0.0
        y.insert(k, beta - (0 + a0 * y0 + a1 * y1))
        x0, x1, x2 = y
        x_slack = 1e-12 * (1 + max(abs(x0), abs(x1), abs(x2)))
    return [x0, x1, x2]


def _plane_loop(cols: list, w: list, c: list, lo: list, hi: list, rng: np.random.Generator,
                tol: float, counts: list):
    """Minimize c . x over the unit rows (u, v) . x <= w and the box,
    its one-variable subproblems solved in place: on a violation one loop
    eliminates the pivot and intersects the half-lines, building no rows.
    Each operation is the one the plain recursion of
    ``tests/seidel_list_reference.py`` does (its elimination, then its
    interval solve), in the same order, so every decision and every bit of
    the answer are the reference's.  Appends the box to ``u``, ``v`` and ``w``.
    """
    u, v = cols
    # the box as four rows x_0 <= hi_0, -x_0 <= -lo_0, x_1 <= hi_1,
    # -x_1 <= -lo_1, which the elimination turns into exactly the two box
    # rows of _seidel
    n = len(w)
    u += [1.0, -1.0, 0.0, 0.0]
    v += [0.0, 0.0, 1.0, -1.0]
    w += [hi[0], -lo[0], hi[1], -lo[1]]

    tie = TIE_TOL * max(1.0, abs(c[0]), abs(c[1]))
    x0, x1 = [min(max(0.0, l), h) if abs(cj) <= tie else (l if cj > 0 else h)
              for cj, l, h in zip(c, lo, hi)]
    x_slack = 1e-12 * (1 + max(abs(x0), abs(x1)))

    order = list(range(n))
    rng.shuffle(order)
    for position, i in enumerate(order):
        rhs = w[i]
        slack = tol * (1 + abs(rhs)) + x_slack
        # no 0 start here: it only changes the sign of a zero, which no
        # comparison sees
        if u[i] * x0 + v[i] * x1 <= rhs + slack:
            continue
        counts[1] += 1
        # x_k = beta - a x_j, k the first largest coordinate of the row
        if abs(u[i]) >= abs(v[i]):
            k, col_k, col_j = 0, u, v
        else:
            k, col_k, col_j = 1, v, u
        pivot = col_k[i]
        a = col_j[i] / pivot
        beta = rhs / pivot
        c_j = c[1 - k] - c[k] * a
        lo_j, hi_j = lo[1 - k], hi[1 - k]
        # each earlier row, then the box on x_k, becomes s x_j <= r
        for p in order[:position] + [n + 2 * k, n + 2 * k + 1]:
            pk = col_k[p]
            s = col_j[p] - pk * a
            r = w[p] - pk * beta
            if abs(s) <= 1e-13:
                if r < -tol:
                    return None
            elif s > 0:
                r /= s
                if r < hi_j:  # min(hi_j, r), ties keeping hi_j
                    hi_j = r
            else:
                r /= s
                if r > lo_j:
                    lo_j = r
        if lo_j > hi_j + tol * (1 + abs(lo_j) + abs(hi_j)):
            return None
        if lo_j > hi_j:
            lo_j = hi_j = 0.5 * (lo_j + hi_j)
        if abs(c_j) <= TIE_TOL:
            x_j = min(max(0.0, lo_j), hi_j)
        elif c_j > 0:
            x_j = lo_j
        else:
            x_j = hi_j
        # _seidel's sums start at 0, which turns a -0.0 product into 0.0
        x_k = beta - (0 + a * x_j)
        x0, x1 = (x_k, x_j) if k == 0 else (x_j, x_k)
        x_slack = 1e-12 * (1 + max(abs(x0), abs(x1)))
    return [x0, x1]


_FLAT_LOOPS = {2: _plane_loop, 3: _space_loop, 4: _quad_loop}


def _epigraph_minimum(prob: PiecewiseMaxProblem, box: float, rng: np.random.Generator,
                      tol: float, counts: list):
    """Solve min t s.t. G x + h <= t inside |x_j| <= box, |t| <= box.

    Returns (x, t, box_active); ``counts`` is :func:`_seidel`'s.
    """
    m, d = prob.G.shape
    cols = prob.G.T.tolist() + [[-1.0] * m]
    c = [0.0] * d + [1.0]
    z = _seidel(cols, (-prob.h).tolist(), c, [-box] * (d + 1), [box] * (d + 1), rng, tol, counts)
    if z is None:
        raise SolverError(
            "incremental solve hit an inconsistent subsystem; retry with a different seed"
        )
    limit = box * (1 - 1e-7)
    return np.array(z[:d]), z[-1], any(abs(v) >= limit for v in z)


def box_half_width(prob: PiecewiseMaxProblem) -> float:
    """Half-width of the exact backend's first bounding box: ``BOX_FACTOR``
    times the instance's own scale, 1 + max|h_i| + max|G_i|.  The largest row
    norm is the root of the largest row sum of squares, np.linalg.norm's bits."""
    squares = np.add.reduce(prob.G * prob.G, axis=1)
    return BOX_FACTOR * (1.0 + float(np.abs(prob.h).max()) + math.sqrt(float(squares.max())))


def solve_exact(prob: PiecewiseMaxProblem, seed: int = 0,
                tolerance: float = 1e-9) -> MinMaxResult:
    """Exact minimization via the epigraph LP.

    A symmetric box at 10^6 times the instance scale makes every subproblem
    bounded; if the optimum presses against the box, the box is doubled once
    and the solve repeated.  Still pressing with a strictly better value means
    genuine descent to minus infinity: UnboundedBelow, with the last iterate
    as witness.  Raises :class:`DimensionCapError` above ``D_MAX`` variables.
    """
    if prob.d > D_MAX:
        raise DimensionCapError(
            f"exact backend is capped at {D_MAX} variables, got {prob.d}; "
            "use solve_subgradient"
        )
    rng = np.random.default_rng(seed)
    box = box_half_width(prob)
    counts = [0] * (prob.d + 2)
    status = MinMaxStatus.MINIMIZED
    x, t, box_active = _epigraph_minimum(prob, box, rng, tolerance, counts)
    if box_active:
        x2, t2, box_active2 = _epigraph_minimum(prob, 2 * box, rng, tolerance, counts)
        if box_active2 and t2 < t - tolerance * (1 + abs(t)):
            status, x = MinMaxStatus.UNBOUNDED_BELOW, x2
        elif t2 <= t:
            x, t = x2, t2
    return _result(prob, x, status,
                   stats={"subproblems": {k: counts[k] for k in range(1, len(counts))},
                          "box_doublings": int(box_active)})


# ---------------------------------------------------------------------------
# iterative backend: Polyak steps toward a descending target level


# subgradient steps before the best point so far is returned unconverged
MAX_ITERS = 20000

# iterations a level may run without delta/2 progress before halving delta
LEVEL_PATIENCE = 400

# best value below which the run is declared unbounded
UNBOUNDED_VALUE = -1e12


def solve_subgradient(prob: PiecewiseMaxProblem, tolerance: float = 1e-7) -> MinMaxResult:
    """Approximate minimization by subgradient steps from the origin.

    Each step moves against the gradient of the currently maximal piece with
    the Polyak step length for the target ``f_best - delta``; when a level
    stalls, ``delta`` halves and the iterate restarts from the incumbent.
    Always returns the best point seen, flagged ``converged`` once ``delta``
    shrinks below the requested tolerance.

    A solve runs for thousands of steps on vectors of a few dozen entries,
    where numpy's cost per call outweighs the arithmetic.  So each step
    writes ``G @ x + h`` and ``x - s * g`` into buffers allocated once, reads
    the squared row norms from a table built before the loop, and calls no
    helper such as :func:`evaluate`; the arithmetic, and so every iterate, is
    the same as with fresh arrays.  ``x_best`` is always a copy, never the
    buffer that the step updates.
    """
    x = np.zeros(prob.d)
    f_best, _ = evaluate(prob, x)
    x_best = x.copy()

    if not prob.G.any():
        # every piece is constant; the start point is already optimal
        return _result(prob, x_best)

    delta = 0.5 * (1.0 + abs(f_best))
    level_best = f_best
    stalled = 0
    streak = 0  # consecutive successful levels; sustained descent doubles delta
    converged = False

    G, h = prob.G, prob.h
    rows = list(G)
    row_norms = [float(g @ g) for g in rows]
    values = np.empty(prob.m)
    step = np.empty(prob.d)
    for _ in range(MAX_ITERS):
        np.dot(G, x, out=values)
        values += h
        argmax = int(values.argmax())
        f = values.item(argmax)
        if not math.isfinite(f):
            x = x_best.copy()
            delta *= 0.5
            stalled = 0
            continue
        if f < f_best:
            f_best, x_best = f, x.copy()
        if f_best < UNBOUNDED_VALUE:
            return _result(prob, x_best, MinMaxStatus.UNBOUNDED_BELOW, converged=False)
        gg = row_norms[argmax]
        if gg == 0.0:
            # a constant piece is the max: its value floors the function
            converged = True
            break
        np.multiply(rows[argmax], (f - (f_best - delta)) / gg, out=step)
        x -= step
        stalled += 1
        if f_best <= level_best - 0.5 * delta:
            level_best = f_best
            stalled = 0
            streak += 1
            if streak >= 10:
                delta *= 2.0  # chase runaway descent geometrically
                streak = 0
        elif stalled >= LEVEL_PATIENCE:
            # too ambitious a target: lower the bar but keep the iterate,
            # whose distance-to-optimum progress is worth preserving
            delta *= 0.5
            stalled = 0
            streak = 0
            level_best = f_best
        if delta <= 0.25 * tolerance * (1.0 + abs(f_best)):
            converged = True
            break

    return _result(prob, x_best, converged=converged)
