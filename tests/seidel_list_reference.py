"""The exact backend's Seidel recursion on Python float lists, as it was
before its two- to four-variable levels were written as flat loops.

``minmaxlp.minmax._seidel`` must take exactly the decisions of this copy and
return the same bits, so it is kept unchanged for ``tests/test_minmax.py``
to compare against.  Call it as ``_seidel(A, b, c, lo, hi, rng, tol)`` with
lists of floats and a ``numpy.random.Generator``.  Its dot products are
summed left to right from 0, as ``sum()`` summed them up to Python 3.11 (from
3.12 ``sum()`` compensates), so the bits are the same on every version.
"""

import math
from functools import reduce
from operator import add, mul

import numpy as np

from minmaxlp.minmax import TIE_TOL


def _solve_interval(A: list, b: list, c0: float, lo: float, hi: float, tol: float):
    """One-variable base case: intersect half-lines, then optimize.

    A row (a) normalizes to (a/|a|, rhs/|a|), whose bound is exactly rhs/a,
    so the rows are used as given after the same vacuous-row test as
    :func:`_seidel`'s.
    """
    for (a,), rhs in zip(A, b):
        if abs(a) <= 1e-13:
            if rhs < -tol:
                return None  # 0 . x <= negative: inconsistent
        elif a > 0:
            hi = min(hi, rhs / a)
        else:
            lo = max(lo, rhs / a)
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
    return [x]


def _seidel(A: list, b: list, c: list, lo: list, hi: list, rng: np.random.Generator,
            tol: float):
    """Minimize c . x over {A x <= b, lo <= x <= hi}, or None when the
    half-spaces are (numerically) inconsistent.

    Constraints are visited in random order; a violated one must be tight at
    the optimum, so that variable is eliminated and the prefix re-solved one
    dimension down.  The box is kept implicit: the running point always
    satisfies it, and eliminated coordinates re-enter as two ordinary rows.

    ``A`` is a list of rows, and ``b``, ``c``, ``lo``, ``hi`` and the
    returned ``x`` are lists of floats: each subproblem holds a handful of
    rows, too few for numpy's fixed cost per call to pay off.
    """
    dim = len(c)
    if dim == 1:
        return _solve_interval(A, b, c[0], lo[0], hi[0], tol)
    # normalize rows so pivots and violation thresholds are scale-free
    rows, rhss = [], []
    for row, rhs in zip(A, b):
        norm = math.hypot(*row)
        if norm <= 1e-13:
            if rhs < -tol:
                return None  # 0 . x <= negative: inconsistent
            continue  # vacuous row
        rows.append([v / norm for v in row])
        rhss.append(rhs / norm)

    tie = TIE_TOL * max(1.0, max(map(abs, c)))
    x = [min(max(0.0, l), h) if abs(cj) <= tie else (l if cj > 0 else h)
         for cj, l, h in zip(c, lo, hi)]
    # the point only changes after a violation, so neither does its slack term
    x_slack = 1e-12 * (1 + max(map(abs, x)))

    order = rng.permutation(len(rows)).tolist()
    for position, i in enumerate(order):
        row, rhs = rows[i], rhss[i]
        slack = tol * (1 + abs(rhs)) + x_slack
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
            sub_b.append(rhss[p] - pk * beta)
        ck = c[k]
        sub_c = [cj - ck * a for cj, a in zip(c, alpha)]
        del alpha[k], sub_c[k]
        # the box on x_k becomes two ordinary rows of the subproblem
        sub_A += [[-a for a in alpha], alpha]
        sub_b += [hi[k] - beta, beta - lo[k]]

        x = _seidel(sub_A, sub_b, sub_c, lo[:k] + lo[k + 1:], hi[:k] + hi[k + 1:], rng, tol)
        if x is None:
            return None
        x.insert(k, beta - reduce(add, map(mul, alpha, x), 0))
        x_slack = 1e-12 * (1 + max(map(abs, x)))
    return x
