"""The subgradient backend's Polyak loop as it was written before it ran in
preallocated buffers.

``minmaxlp.minmax.solve_subgradient`` now fills reused arrays in place and
calls no helper per step; this copy is kept unchanged so that
``tests/test_minmax.py`` can check that both produce bit-identical iterates.
Its active-set rule is a copy too, so it shares no private code with the
library.
Call it as ``solve_subgradient(prob, tolerance)`` like the library function.
"""

import numpy as np

from minmaxlp.minmax import (
    ACTIVE_TOL,
    LEVEL_PATIENCE,
    MAX_ITERS,
    UNBOUNDED_VALUE,
    MinMaxResult,
    MinMaxStatus,
    PiecewiseMaxProblem,
    evaluate,
)


def _active_set(prob: PiecewiseMaxProblem, x: np.ndarray, value: float) -> tuple[int, ...]:
    """Indices of the pieces within ACTIVE_TOL of ``value`` at ``x``."""
    values = prob.G @ x + prob.h
    return tuple(np.flatnonzero(values >= value - ACTIVE_TOL * (1 + abs(value))).tolist())


def solve_subgradient(prob: PiecewiseMaxProblem, tolerance: float = 1e-7) -> MinMaxResult:
    """Approximate minimization by subgradient steps from the origin.

    Each step moves against the gradient of the currently maximal piece with
    the Polyak step length for the target ``f_best - delta``; when a level
    stalls, ``delta`` halves and the iterate restarts from the incumbent.
    Always returns the best point seen, flagged ``converged`` once ``delta``
    shrinks below the requested tolerance.
    """
    x = np.zeros(prob.d)
    f_best, _ = evaluate(prob, x)
    x_best = x.copy()

    if not prob.G.any():
        # every piece is constant; the start point is already optimal
        return MinMaxResult(
            status=MinMaxStatus.MINIMIZED,
            x_star=x_best,
            value=f_best,
            active_set=_active_set(prob, x_best, f_best),
        )

    delta = 0.5 * (1.0 + abs(f_best))
    level_best = f_best
    stalled = 0
    streak = 0  # consecutive successful levels; sustained descent doubles delta
    converged = False

    for _ in range(MAX_ITERS):
        f, argmax = evaluate(prob, x)
        if not np.isfinite(f):
            x = x_best.copy()
            delta *= 0.5
            stalled = 0
            continue
        if f < f_best:
            f_best, x_best = f, x.copy()
        if f_best < UNBOUNDED_VALUE:
            return MinMaxResult(
                status=MinMaxStatus.UNBOUNDED_BELOW,
                x_star=x_best,
                value=f_best,
                active_set=_active_set(prob, x_best, f_best),
                converged=False,
            )
        g = prob.G[argmax]
        gg = float(g @ g)
        if gg == 0.0:
            # a constant piece is the max: its value floors the function
            converged = True
            break
        x = x - ((f - (f_best - delta)) / gg) * g
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

    return MinMaxResult(
        status=MinMaxStatus.MINIMIZED,
        x_star=x_best,
        value=f_best,
        active_set=_active_set(prob, x_best, f_best),
        converged=converged,
    )
