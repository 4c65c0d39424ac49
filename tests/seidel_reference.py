"""The exact backend's Seidel recursion as it was written on numpy arrays.

``minmaxlp.minmax`` now runs the same recursion on lists of Python floats;
this copy is kept unchanged so that ``tests/test_minmax.py`` can check that
both reach the same verdict and optimal value.  Call it as ``_seidel(A, b, c, lo, hi, rng,
tol)`` with float arrays and a ``numpy.random.Generator``.
"""

import numpy as np

from minmaxlp.minmax import TIE_TOL


def _solve_interval(A: np.ndarray, b: np.ndarray, c0: float, lo: float, hi: float, tol: float):
    """One-variable base case: intersect half-lines, then optimize."""
    for a, rhs in zip(A[:, 0], b):
        # rows are unit-normalized on entry, so |a| is never small here
        bound = rhs / a
        if a > 0:
            hi = min(hi, bound)
        else:
            lo = max(lo, bound)
    if lo > hi + tol * (1 + abs(lo) + abs(hi)):
        return None
    if lo > hi:
        lo = hi = 0.5 * (lo + hi)
    if abs(c0) <= TIE_TOL:
        x = min(max(0.0, lo), hi)
    elif c0 > 0:
        x = lo
    else:
        x = hi
    return np.array([x])


def _seidel(A: np.ndarray, b: np.ndarray, c: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            rng: np.random.Generator, tol: float):
    """Minimize c . x over {A x <= b, lo <= x <= hi}, or None when the
    half-spaces are (numerically) inconsistent.

    Constraints are visited in random order; a violated one must be tight at
    the optimum, so that variable is eliminated and the prefix re-solved one
    dimension down.  The box is kept implicit: the running point always
    satisfies it, and eliminated coordinates re-enter as two ordinary rows.
    """
    # normalize rows so pivots and violation thresholds are scale-free
    keep = []
    if A.shape[0]:
        norms = np.linalg.norm(A, axis=1)
        for i, norm in enumerate(norms):
            if norm <= 1e-13:
                if b[i] < -tol:
                    return None  # 0 . x <= negative: inconsistent
                continue  # vacuous row
            keep.append(i)
        A = A[keep] / norms[keep][:, None]
        b = b[keep] / norms[keep]

    dim = c.size
    if dim == 1:
        return _solve_interval(A, b, float(c[0]), float(lo[0]), float(hi[0]), tol)

    tie = np.abs(c) <= TIE_TOL * max(1.0, float(np.abs(c).max()))
    x = np.where(c > 0, lo, hi)
    x[tie] = np.clip(0.0, lo[tie], hi[tie])

    order = rng.permutation(A.shape[0])
    for position, i in enumerate(order):
        row, rhs = A[i], b[i]
        slack = tol * (1 + abs(rhs)) + 1e-12 * (1 + float(np.abs(x).max()))
        if row @ x <= rhs + slack:
            continue
        # optimum lies on row . x = rhs; eliminate the largest coordinate
        k = int(np.argmax(np.abs(row)))
        pivot = row[k]
        rest = np.delete(np.arange(dim), k)
        alpha = row[rest] / pivot  # x_k = beta - alpha . x_rest
        beta = rhs / pivot

        prefix = A[order[:position]]
        sub_A = prefix[:, rest] - np.outer(prefix[:, k], alpha)
        sub_b = b[order[:position]] - prefix[:, k] * beta
        # the box on x_k becomes two ordinary rows of the subproblem
        sub_A = np.vstack([sub_A, -alpha[None, :], alpha[None, :]])
        sub_b = np.concatenate([sub_b, [hi[k] - beta, beta - lo[k]]])
        sub_c = c[rest] - c[k] * alpha

        sub_x = _seidel(sub_A, sub_b, sub_c, lo[rest], hi[rest], rng, tol)
        if sub_x is None:
            return None
        x = np.empty(dim)
        x[rest] = sub_x
        x[k] = beta - alpha @ sub_x
    return x
