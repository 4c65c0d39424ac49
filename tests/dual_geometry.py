"""Point-hyperplane projective duality and same-side predicates.

A point ``p`` dualizes to the plane ``p . x = -1``; a plane ``pi . x = sigma``
with ``sigma != 0`` dualizes to the point ``-pi / sigma``.  Both maps are
involutions (up to the scale freedom of plane coefficients), and they preserve
which side of a plane a point lies on relative to the origin.

The pipeline computes its dual points directly, as -A_i / b_i inside
``minmaxlp.reduction.prepare``; these helpers state the duality in general
so that the tests can check what the reduction relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from minmaxlp.errors import GeometryError

# |sigma| below this fraction of the normal's length counts as "through the
# origin"; such planes have no dual point and no usable origin side.
EPS_DUAL = 1e-12

# relative slack when deciding a point lies exactly on a plane
EPS_INCIDENT = 1e-12

Point = np.ndarray


class Side(IntEnum):
    NEGATIVE = -1
    INCIDENT = 0
    POSITIVE = 1


@dataclass(frozen=True, eq=False)
class Plane:
    """The hyperplane ``normal . x = offset``.

    Coefficients are projective: scaling both fields by the same nonzero
    factor describes the same plane.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self) -> None:
        normal = np.array(self.normal, dtype=float)
        normal.setflags(write=False)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", float(self.offset))
        if normal.ndim != 1 or normal.size == 0:
            raise GeometryError("plane normal must be a nonempty vector")
        if not (np.isfinite(normal).all() and np.isfinite(self.offset)):
            raise GeometryError("plane coefficients must be finite")


def dual_of_point(p: Point) -> Plane:
    """Dual plane ``p . x = -1`` of a nonzero point."""
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise GeometryError("point coordinates must be finite")
    if not p.any():
        raise GeometryError("the zero point has no dual plane")
    return Plane(p, -1.0)


def dual_of_plane(plane: Plane) -> Point:
    """Dual point ``-normal / offset`` of a plane not through the origin."""
    norm = float(np.linalg.norm(plane.normal))
    if norm == 0.0:
        raise GeometryError("plane normal must be nonzero")
    if abs(plane.offset) <= EPS_DUAL * norm:
        raise GeometryError("a plane through the origin has no dual point")
    q = -plane.normal / plane.offset
    q.setflags(write=False)
    return q


def z_intercept(plane: Plane) -> float:
    """Where the plane crosses the last coordinate axis."""
    last = plane.normal[-1]
    if abs(last) <= EPS_DUAL * max(1.0, float(np.linalg.norm(plane.normal))):
        raise GeometryError("a vertical plane has no z-intercept")
    return plane.offset / last


def side_of(plane: Plane, p: Point) -> Side:
    """Sign of ``normal . p - offset``, with a relative incidence band."""
    p = np.asarray(p, dtype=float)
    value = float(plane.normal @ p - plane.offset)
    scale = 1.0 + abs(plane.offset) + float(np.linalg.norm(plane.normal) * np.linalg.norm(p))
    if abs(value) <= EPS_INCIDENT * scale:
        return Side.INCIDENT
    return Side.POSITIVE if value > 0 else Side.NEGATIVE


def same_side_as_origin(plane: Plane, p: Point) -> bool:
    """True when ``p`` lies on the origin's side of the plane or on the plane.

    Undefined (and an error) when the plane passes through the origin.
    """
    norm = float(np.linalg.norm(plane.normal))
    if norm == 0.0 or abs(plane.offset) <= EPS_DUAL * norm:
        raise GeometryError("origin lies on the plane; sides are undefined")
    side = side_of(plane, p)
    if side is Side.INCIDENT:
        return True
    origin_side = Side.POSITIVE if -plane.offset > 0 else Side.NEGATIVE
    return side is origin_side


def is_feasible_dual_plane(plane: Plane, points: np.ndarray) -> bool:
    """Feasibility read off in the dual: a point ``p`` satisfies every
    constraint exactly when each dualized constraint point and the origin lie
    on the same side of ``p``'s dual plane (incidence counting as same).

    ``plane`` is that dual plane; ``points`` is the (n, d) array of dualized
    constraint points.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise GeometryError("points must be an (n, d) array")
    norm = float(np.linalg.norm(plane.normal))
    if norm == 0.0 or abs(plane.offset) <= EPS_DUAL * norm:
        raise GeometryError("origin lies on the plane; sides are undefined")
    values = points @ plane.normal - plane.offset
    scales = 1.0 + abs(plane.offset) + norm * np.linalg.norm(points, axis=1)
    incident = np.abs(values) <= EPS_INCIDENT * scales
    origin_positive = -plane.offset > 0
    same = values > 0 if origin_positive else values < 0
    return bool(np.all(same | incident))
