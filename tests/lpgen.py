"""Random LP generators shared across test modules.

Every generator plants structure (an interior point, a recession ray, a
forced equality) so the expected classification is known by construction.
"""

from __future__ import annotations

import numpy as np

from minmaxlp import LinearProgram


def interior_lp(rng, d=None, n=None, sense="maximize"):
    """Strictly feasible LP with entries in [-1, 1]; b is shifted so a known
    point sits strictly inside.  Returns (lp, planted_point)."""
    d = int(rng.integers(2, 5)) if d is None else d
    n = int(rng.integers(d + 1, 21)) if n is None else n
    A = rng.uniform(-1.0, 1.0, (n, d))
    x0 = rng.uniform(-1.0, 1.0, d)
    b = A @ x0 + rng.uniform(0.2, 1.5, n)
    c = rng.uniform(-1.0, 1.0, d)
    return LinearProgram(dimension=d, A=A, b=b, c=c, sense=sense), x0


def bounded_lp(rng, d=None, n=None, sense="maximize"):
    """Strictly feasible and bounded: a random interior core plus box rows
    around the planted point.  Row count stays at most 20."""
    d = int(rng.integers(2, 5)) if d is None else d
    n_core = int(rng.integers(1, max(2, 21 - 2 * d))) if n is None else n - 2 * d
    lp, x0 = interior_lp(rng, d=d, n=max(1, n_core), sense=sense)
    r = rng.uniform(1.0, 3.0)
    box_A = np.vstack([np.eye(d), -np.eye(d)])
    box_b = np.concatenate([x0 + r, -(x0 - r)])
    return (
        LinearProgram(
            dimension=d,
            A=np.vstack([lp.A, box_A]),
            b=np.concatenate([lp.b, box_b]),
            c=lp.c,
            sense=sense,
        ),
        x0,
    )


def unbounded_lp(rng, d=None, n=None):
    """Strictly feasible with a planted recession ray v: every row is
    projected to satisfy A v <= 0 and the objective gains along v."""
    d = int(rng.integers(2, 5)) if d is None else d
    n = int(rng.integers(d, 16)) if n is None else n
    v = rng.normal(size=d)
    v /= np.linalg.norm(v)
    A = rng.uniform(-1.0, 1.0, (n, d))
    lift = np.maximum(A @ v, 0.0)
    A = A - np.outer(lift, v)  # now A @ v <= 0 exactly up to roundoff
    x0 = rng.uniform(-1.0, 1.0, d)
    b = A @ x0 + rng.uniform(0.2, 1.5, n)
    w = rng.normal(size=d) * 0.3
    c = v + (w - (w @ v) * v)
    return LinearProgram(dimension=d, A=A, b=b, c=c)


def _loose_rows(rng, d, x0, k):
    """k rows in [-1, 1] loose by 0.2-1.5 around x0, as ``interior_lp``'s."""
    A = rng.uniform(-1.0, 1.0, (k, d))
    return A, A @ x0 + rng.uniform(0.2, 1.5, k)


def flat_lp(rng, d=None, n=None):
    """Feasible but with empty interior: two opposing rows force an exact
    equality, and a loose box keeps everything else slack.  Given ``n``,
    n - 2 - 2d loose rows around the planted point come last."""
    d = int(rng.integers(2, 5)) if d is None else d
    a = rng.normal(size=d)
    a /= np.linalg.norm(a)
    x0 = rng.uniform(-1.0, 1.0, d)
    beta = a @ x0
    A = np.vstack([a, -a, np.eye(d), -np.eye(d)])
    b = np.concatenate([[beta, -beta], x0 + 2.0, -(x0 - 2.0)])
    c = rng.uniform(-1.0, 1.0, d)
    if n is not None:
        loose_A, loose_b = _loose_rows(rng, d, x0, n - 2 - 2 * d)
        A, b = np.vstack([A, loose_A]), np.concatenate([b, loose_b])
    return LinearProgram(dimension=d, A=A, b=b, c=c)


def infeasible_lp(rng, d=None, n=None):
    """Empty feasible set: a slab of strictly negative width.  Given ``n``,
    n - 2 - 2d loose rows around a point on the slab's first row come last."""
    d = int(rng.integers(2, 5)) if d is None else d
    a = rng.normal(size=d)
    a /= np.linalg.norm(a)
    x0 = rng.uniform(-1.0, 1.0, d)
    beta = a @ x0
    gap = rng.uniform(0.1, 1.0)
    A = np.vstack([a, -a, np.eye(d), -np.eye(d)])
    b = np.concatenate([[beta, -beta - gap], x0 + 2.0, -(x0 - 2.0)])
    c = rng.uniform(-1.0, 1.0, d)
    if n is not None:
        loose_A, loose_b = _loose_rows(rng, d, x0, n - 2 - 2 * d)
        A, b = np.vstack([A, loose_A]), np.concatenate([b, loose_b])
    return LinearProgram(dimension=d, A=A, b=b, c=c)
