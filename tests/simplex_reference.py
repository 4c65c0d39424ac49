"""The iterative backend's certified vertex simplex as it was before each
stage computed its piece scales once and evaluated its pieces once at the
final vertex, with its pivot bookkeeping on numpy arrays.

``minmaxlp.minmax.solve_subgradient`` must take exactly the decisions of
this copy and return the same bits: status, ``x_star``, ``value``,
``active_set`` and ``stats``.  Its pivot rules, the one that lets a row
x_j = 0 with a multiplier of at most 1e-12 leave only when that lowers t
by more than the certificate's tolerance included, are the library's; its
bookkeeping is kept unchanged for ``tests/test_minmax.py`` to compare
against.  The library's result
builder, ``_result``, is written out below, so this copy imports no private
name of the package.
"""

import numpy as np

from minmaxlp.errors import SolverError
from minmaxlp.minmax import ACTIVE_TOL, MinMaxResult, MinMaxStatus, PiecewiseMaxProblem


def _result(prob: PiecewiseMaxProblem, x: np.ndarray,
            status: MinMaxStatus = MinMaxStatus.MINIMIZED, **fields) -> MinMaxResult:
    values = prob.G @ x + prob.h
    value = float(values[int(np.argmax(values))])
    active = np.flatnonzero(values >= value - ACTIVE_TOL * (1 + abs(value)))
    return MinMaxResult(status, x, value, tuple(active.tolist()), **fields)


def solve_subgradient(prob: PiecewiseMaxProblem) -> MinMaxResult:
    m, d = prob.G.shape
    scale = max(float(np.abs(prob.G).max()), float(np.abs(prob.h).max())) or 1.0
    G, h = prob.G / scale, prob.h / scale
    reach = np.abs(G).max(axis=1)  # largest |G_ij| of each row
    rhs = np.append(-h, np.zeros(d))  # of each row; m + j is the pseudo-row x_j = 0
    top = int(h.argmax())
    inv = np.eye(d + 1)
    inv[d, :d], inv[d, d] = G[top], -1.0
    basis = list(range(m, m + d)) + [top]
    slack = h[top] - h  # t - (G x + h) at the vertex
    pivots = 0
    while pivots < 4 * (m + d + 1):
        y = -inv[d]  # the multipliers
        free = [k for k in range(d + 1) if basis[k] >= m and abs(y[k]) > 1e-12]
        k = max(free, key=lambda k: abs(y[k])) if free else int(y.argmin())
        if free or y[k] < -1e-12:
            candidates = [k]
        else:
            # optimal but for the pseudo-rows whose multipliers are at most 1e-12
            candidates = [k for k in range(d + 1) if basis[k] >= m and y[k] != 0.0]
        for k in candidates:
            # the edge that leaves row k, along which t falls by |y_k| per step
            u = inv[:, k] if y[k] > 0 else -inv[:, k]
            rate = G @ u[:d] - u[d]
            rate[[i for i in basis if i < m and i != basis[k]]] = 0.0  # rows that stay tight
            noise = 1e-11 * (reach * float(np.abs(u[:d]).max()) + abs(u[d]))
            blocking = np.flatnonzero(rate > noise)
            if blocking.size:
                ratios = np.maximum(slack[blocking], 0.0) / rate[blocking]
                j = int(ratios.argmin())
                t = (inv @ rhs[basis])[d]
                # a pseudo-row of multiplier at most 1e-12 leaves only when the
                # step to its block lowers t by more than the certificate allows
                if abs(y[k]) > 1e-12 or abs(y[k]) * ratios[j] > 1e-9 * max(1.0, abs(t)):
                    break
            elif abs(y[k]) > 1e-12:
                vertex = inv @ rhs[basis]
                x = vertex[:d] + (1.0 + abs(vertex[d])) / -u[d] * u[:d]
                return _result(prob, x, MinMaxStatus.UNBOUNDED_BELOW, stats={"pivots": pivots})
        else:
            break
        r = int(blocking[j])
        slack -= ratios[j] * rate
        slack[r] = 0.0
        # row r replaces row k: a rank-one update of the inverse
        row = G[r] @ inv[:d] - inv[d]
        col = inv[:, k] / row[k]
        inv -= np.outer(col, row)
        inv[:, k] = col
        basis[k] = r
        pivots += 1
    else:
        raise SolverError(f"vertex simplex passed {pivots} pivots without an optimum")
    # the multipliers of the pieces; a pseudo-row left in the basis has
    # multiplier zero and is left out
    pieces = [k for k in range(d + 1) if basis[k] < m]
    rows = [basis[k] for k in pieces]
    y = np.maximum(-inv[d, pieces], 0.0)
    y /= y.sum()
    x = inv[:d] @ rhs[basis]
    value = float((G @ x + h).max())
    if (float(np.abs(y @ G[rows]).max()) > 1e-9
            or value - float(y @ h[rows]) > 1e-9 * max(1.0, abs(value))):
        raise SolverError("vertex simplex ended at a vertex whose optimality certificate fails")
    return _result(prob, x, stats={"pivots": pivots})
