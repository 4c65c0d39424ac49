"""Coordinate changes that normalize an LP before the dual reduction.

The reduced coordinates are y = R (x - p0): a strictly feasible point p0
moves to the origin, so every constraint offset b - A p0 is positive, and
the rotation R sends the objective onto the last coordinate axis.  R is a
Householder reflection with its first row negated, which fixes the
determinant at +1 while still sending c/||c|| to e_d; it is applied
implicitly in O(d) per vector.  ``reduction.prepare`` runs both steps on the
program's arrays; :func:`recover_solution` maps a reduced point back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TransformError
from .model import LinearProgram, _readonly

# how far inside every constraint a point must sit to count as interior
EPS_STRICT = 1e-9

# below this, the objective is already aligned with e_d and no reflection runs
EPS_IDENTITY = 1e-14


@dataclass(frozen=True, eq=False)
class HouseholderRotation:
    """Rotation sending the unit objective direction to e_d.

    ``u_hat`` is the unit reflection axis; ``None`` means the objective
    already points along e_d and the map is the identity.  Otherwise the
    reflection is followed by negating the first coordinate, which turns it
    (det -1) into a rotation (det +1) without moving e_d, since the reflected
    objective has first coordinate zero.
    """

    d: int
    u_hat: np.ndarray | None

    def __post_init__(self) -> None:
        if self.u_hat is not None:
            object.__setattr__(self, "u_hat", _readonly(self.u_hat))

    @property
    def matrix(self) -> np.ndarray:
        """Dense form, for inspection and tests; solvers use apply_rotation."""
        R = np.eye(self.d)
        if self.u_hat is not None:
            R -= 2.0 * np.outer(self.u_hat, self.u_hat)
            R[0] = -R[0]
        return R


def _translated_offsets(
    lp: LinearProgram, p0: np.ndarray, margins: np.ndarray | None = None
) -> np.ndarray:
    """b - A p0, once ``p0`` is checked to be strictly inside ``lp``;
    ``margins`` is A p0 - b when the caller has computed it already."""
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (lp.dimension,):
        raise TransformError(f"interior point must have {lp.dimension} coordinates")
    if not np.isfinite(p0).all():
        raise TransformError("interior point must be finite")
    if margins is None:
        margins = lp.A @ p0 - lp.b
    loose = margins >= -EPS_STRICT
    if loose.any():
        row = int(loose.argmax())
        raise TransformError(
            f"point is not strictly interior: row {row} has margin {margins[row]:.3e}"
        )
    # each margin is below -EPS_STRICT, so its negation is b - A p0 to the bit
    return -margins


def rotation_to_last_axis(c: np.ndarray) -> HouseholderRotation:
    """Build the rotation taking direction ``c`` to the last axis."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size < 2:
        raise TransformError("rotation needs at least two coordinates")
    norm = math.sqrt(float(c @ c))  # np.linalg.norm's own arithmetic
    if norm == 0.0:
        raise TransformError("objective must be nonzero to define a rotation")
    u = c / norm
    u[-1] -= 1.0
    u_norm = math.sqrt(float(u @ u))
    if u_norm < EPS_IDENTITY:
        return HouseholderRotation(d=c.size, u_hat=None)
    return HouseholderRotation(d=c.size, u_hat=u / u_norm)


def apply_rotation(
    rotation: HouseholderRotation, v: np.ndarray, inverse: bool = False
) -> np.ndarray:
    """Apply the rotation (or its inverse) to a vector or to rows of a matrix."""
    v = np.array(np.asarray(v, dtype=float))
    if v.shape[-1] != rotation.d:
        raise TransformError(f"expected vectors of length {rotation.d}, got {v.shape[-1]}")
    if rotation.u_hat is None:
        return v
    rows = _rotate_rows(np.atleast_2d(v), rotation.u_hat, inverse)
    return rows[0] if v.ndim == 1 else rows


def _rotate_rows(rows: np.ndarray, u_hat: np.ndarray, inverse: bool = False) -> np.ndarray:
    """The rotation with axis ``u_hat`` applied to each row, into a new array:
    reflect, then negate the first column; the inverse does the reverse."""
    if inverse:
        rows = rows.copy()
        rows[:, 0] = -rows[:, 0]
    out = rows - 2.0 * np.multiply.outer(rows @ u_hat, u_hat)
    if not inverse:
        out[:, 0] = -out[:, 0]
    return out


@dataclass(frozen=True, eq=False)
class ProblemTransform:
    """Composition used by the pipeline: translate ``p0`` to the origin, then
    rotate; reduced coordinates are y = R (x - p0)."""

    rotation: HouseholderRotation
    p0: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "p0", _readonly(self.p0))


def recover_solution(transform: ProblemTransform, y: np.ndarray) -> np.ndarray:
    """Map a point found in reduced coordinates back to the original ones:
    x = R^T y + p0."""
    return apply_rotation(transform.rotation, y, inverse=True) + transform.p0
