"""The reduction's translate, rotate and dualize steps as they were when each
built its own :class:`LinearProgram` (or array of dual points).

``minmaxlp.reduction.prepare`` now runs the chain on the program's arrays,
with no intermediate program, so chaining these copies must give its
support problem bit for bit; they are kept unchanged, with that version's
own ``apply_rotation``, for ``tests/test_reduction.py`` to compare against,
and ``dual_constraint_points`` also for ``tests/figure_reference.py``.  Call
them as ``rotate_problem(make_origin_strictly_feasible(lp, p0), rotation)``
and ``dual_constraint_points(lp)``, where ``rotation`` is a
``minmaxlp.transforms.HouseholderRotation``.
"""

import numpy as np

from minmaxlp.errors import ReductionError, TransformError
from minmaxlp.model import LinearProgram
from minmaxlp.transforms import EPS_STRICT


def make_origin_strictly_feasible(lp: LinearProgram, p0: np.ndarray) -> LinearProgram:
    """Translate ``lp`` so that the interior point ``p0`` becomes the origin.

    The shifted program has b' = b - A p0, which is strictly positive; raises
    :class:`TransformError` naming the first violated row when ``p0`` is not
    strictly inside.
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (lp.dimension,):
        raise TransformError(f"interior point must have {lp.dimension} coordinates")
    if not np.isfinite(p0).all():
        raise TransformError("interior point must be finite")
    margins = lp.A @ p0 - lp.b
    loose = np.flatnonzero(margins >= -EPS_STRICT)
    if loose.size:
        row = int(loose[0])
        raise TransformError(
            f"point is not strictly interior: row {row} has margin {margins[row]:.3e}"
        )
    return LinearProgram(
        dimension=lp.dimension,
        A=lp.A,
        b=lp.b - lp.A @ p0,
        c=lp.c,
        sense=lp.sense,
        name=lp.name,
    )


def apply_rotation(rotation, v: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Apply the rotation (or its inverse) to a vector or to rows of a matrix."""
    v = np.array(np.asarray(v, dtype=float))
    if v.shape[-1] != rotation.d:
        raise TransformError(f"expected vectors of length {rotation.d}, got {v.shape[-1]}")
    if rotation.u_hat is None:
        return v
    u = rotation.u_hat

    def reflect(w: np.ndarray) -> np.ndarray:
        return w - 2.0 * np.multiply.outer(w @ u, u)

    single = v.ndim == 1
    rows = v[None, :] if single else v
    if inverse:
        rows = rows.copy()
        rows[:, 0] = -rows[:, 0]
        out = reflect(rows)
    else:
        out = reflect(rows)
        out[:, 0] = -out[:, 0]
    return out[0] if single else out


def rotate_problem(lp: LinearProgram, rotation) -> LinearProgram:
    """Rotate coordinates so the objective points along the last axis.

    Constraint rows rotate like points (y = R x turns pi . x <= beta into
    (R pi) . y <= beta); offsets are untouched.
    """
    if rotation.d != lp.dimension:
        raise TransformError(
            f"rotation is {rotation.d}-dimensional but the program has dimension {lp.dimension}"
        )
    return LinearProgram(
        dimension=lp.dimension,
        A=apply_rotation(rotation, lp.A),
        b=lp.b,
        c=apply_rotation(rotation, lp.c),
        sense=lp.sense,
        name=lp.name,
    )


def dual_constraint_points(lp: LinearProgram) -> np.ndarray:
    """Dual points -A_i / b_i of the constraint planes, in row order.

    Requires every offset positive, i.e. the origin strictly inside; that is
    what the translation step guarantees.
    """
    bad = np.flatnonzero(lp.b <= 0)
    if bad.size:
        row = int(bad[0])
        raise ReductionError(
            f"row {row}: offset must be positive before dualizing, got {lp.b[row]!r}; "
            "translate a strict interior point to the origin first"
        )
    duals = -lp.A / lp.b[:, None]
    duals.setflags(write=False)
    return duals
