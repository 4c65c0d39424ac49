"""Two-dimensional SVG picture of a program: constraint lines with feasible-
side ticks, the dual point of every constraint (when the origin is strictly
inside), and the recovered optimum with its dual line.

Primal and dual share one frame on purpose: the dual of the optimal point is
a line through the dual points of the active constraints, and that incidence
is the whole story of the reduction, so it should be visible in one glance.

The SVG is written as text: every element is a ``%``-template, and the
document is one join of templates filled by one ``%`` with every coordinate
(``%.2f`` prints what ``f"{v:.2f}"`` prints).  Every coordinate comes from
the same operations in the same order as in the ElementTree renderer kept in
``tests/figure_reference.py``, and the elements are spelled as ElementTree
serializes them, so the bytes are the same: a moved last bit can flip a
``.2f`` digit.
"""

from __future__ import annotations

import math
from itertools import cycle, islice

import numpy as np

from .errors import GeometryError
from .model import LinearProgram, Solution, SolutionStatus
from .reduction import _dual_points

SIZE = 800
PAD = 1.2
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_HEAD = (
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
    f'viewBox="0 0 {SIZE} {SIZE}"><rect width="{SIZE}" height="{SIZE}" fill="#ffffff" />'
)


def _path(d: str, color: str, width: str = "1.5", extra: str = "") -> str:
    return f'<path d="{d}" stroke="{color}" fill="none" stroke-width="{width}"{extra} />'


_SEGMENT = "M %.2f %.2f L %.2f %.2f"
_AXIS_X = _path(f"M %.2f 0 L %.2f {SIZE}", "#dddddd", "1")
_AXIS_Y = _path(f"M 0 %.2f L {SIZE} %.2f", "#dddddd", "1")
_OPTIMUM = _path(f"{_SEGMENT} {_SEGMENT}", "#111111", "2.5")
_DUAL_LINE = _path(_SEGMENT, "#111111", extra=' stroke-dasharray="6 4"')
# per palette color: a row's line alone (4 values), its line and its three
# ticks (16 values), and its dual point (2 values)
_LINE = tuple(
    f'<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="{color}" stroke-width="2" />'
    for color in PALETTE
)
_TICKED = tuple(
    line + _path(" ".join([_SEGMENT] * 3), color) for line, color in zip(_LINE, PALETTE)
)
_DOT = tuple(f'<circle cx="%.2f" cy="%.2f" r="5" fill="{color}" />' for color in PALETTE)


class _Frame:
    """Square world window mapped onto the SIZE x SIZE pixel canvas."""

    def __init__(self, points: np.ndarray):
        if len(points):
            # a column at a time: numpy reduces a (k, 2) array along axis 0
            # several times slower, and a min or max is exact either way
            xs, ys = points.T
            lo, hi = np.array([xs.min(), ys.min()]), np.array([xs.max(), ys.max()])
        else:
            lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        center = (lo + hi) / 2
        self.cx, self.cy = float(center[0]), float(center[1])
        self.half = PAD * max(float((hi - lo).max()) / 2, 1e-6)

    def to_px(self, x, y):
        """Pixel coordinates of world point(s): floats or equal-length arrays."""
        px = (x - self.cx + self.half) / (2 * self.half) * SIZE
        py = SIZE - (y - self.cy + self.half) / (2 * self.half) * SIZE
        return px, py

    def clip(self, bx: float, by: float, dx: float, dy: float):
        """Ends (x0, y0, x1, y1) of the segment of the parametric line inside
        the window, or None."""
        t0, t1 = -math.inf, math.inf
        for base, direction, center in ((bx, dx, self.cx), (by, dy, self.cy)):
            lo = center - self.half
            hi = center + self.half
            if abs(direction) < 1e-15:
                if not lo <= base <= hi:
                    return None
                continue
            ta = (lo - base) / direction
            tb = (hi - base) / direction
            if ta > tb:
                ta, tb = tb, ta
            t0, t1 = max(t0, ta), min(t1, tb)
        if t0 > t1:
            return None
        return bx + t0 * dx, by + t0 * dy, bx + t1 * dx, by + t1 * dy


def _line_geometry(a0: float, a1: float, b: float, norm: float):
    """Foot point and unit direction (fx, fy, dx, dy) of the line a . x = b,
    where ``norm`` is |a|; None when a is (nearly) zero."""
    if norm < 1e-12:
        return None
    scale = b / norm**2
    return a0 * scale, a1 * scale, -a1 / norm, a0 / norm


def _pairs(n: int) -> np.ndarray:
    """Rows (i, j) of every pair i < j of n rows, in ``np.triu_indices(n, 1)``'s order."""
    r = np.arange(n)
    return np.argwhere(r[:, None] < r)


def _intersections(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Crossing point of every pair of rows that are not (nearly) parallel,
    one per row of a (k, 2) array."""
    pairs = _pairs(len(b))
    i, j = pairs.T
    M = A.take(pairs, axis=0)  # M[k] holds rows i[k] and j[k]
    norms = np.linalg.norm(A, axis=1)
    crossing = np.abs(np.linalg.det(M)) > 1e-9 * np.maximum(norms[i] * norms[j], 1e-300)
    rhs = b.take(pairs).compress(crossing, axis=0)
    return np.linalg.solve(M.compress(crossing, axis=0), rhs[:, :, None])[:, :, 0]


def render_svg(lp: LinearProgram, solution: Solution | None = None) -> bytes:
    """One 800 x 800 frame with every constraint as a colored line, its dual
    point in the matching color, and the optimum when one is known."""
    if lp.dimension != 2:
        raise GeometryError("can only draw two-dimensional programs")
    A = np.asarray(lp.A, dtype=float)
    b = np.asarray(lp.b, dtype=float)
    # |a| of each row as sqrt(a . a) row by row, as np.linalg.norm does, whose
    # rounding the batched norm does not always reproduce
    norms = [math.sqrt(row.dot(row)) for row in A]
    rows = A.tolist()
    offsets = b.tolist()

    duals = _dual_points(A, b) if (b > 0).all() else None
    anchors = _intersections(A, b)
    if duals is not None:
        anchors = np.concatenate((anchors, duals))
    if not len(anchors):
        lines = [_line_geometry(a0, a1, rhs, norm)
                 for (a0, a1), rhs, norm in zip(rows, offsets, norms)]
        anchors = np.array([g[:2] for g in lines if g is not None]).reshape(-1, 2)
    frame = _Frame(anchors)
    to_px = frame.to_px

    templates = [_HEAD]
    values = []

    # pale axes locate the origin, which both spaces share
    ox, oy = to_px(0.0, 0.0)
    if 0 <= ox <= SIZE:
        templates.append(_AXIS_X)
        values += ox, ox
    if 0 <= oy <= SIZE:
        templates.append(_AXIS_Y)
        values += oy, oy

    # frame.to_px and frame.clip written out, each operation in their order
    cx, cy, half = frame.cx, frame.cy, frame.half
    width = 2 * half
    xlo, xhi, ylo, yhi = cx - half, cx + half, cy - half, cy + half
    inf = math.inf
    styles = zip(cycle(_LINE), cycle(_TICKED))
    for (line, ticked), (a0, a1), rhs, norm in zip(styles, rows, offsets, norms):
        if norm < 1e-12:
            # vacuous row: keep one zero-length line at the origin so every
            # constraint owns exactly one line element
            templates.append(line)
            values += ox, oy, ox, oy
            continue
        # the foot and direction of _line_geometry
        scale = rhs / norm**2
        fx, fy, dx, dy = a0 * scale, a1 * scale, -a1 / norm, a0 / norm
        # the window keeps t0 <= t <= t1 of the line; a line parallel to two
        # of its sides and outside them keeps the empty range (inf, -inf)
        t0, t1 = -inf, inf
        if abs(dx) < 1e-15:
            if not xlo <= fx <= xhi:
                t0, t1 = inf, -inf
        else:
            ta = (xlo - fx) / dx
            tb = (xhi - fx) / dx
            if ta > tb:
                ta, tb = tb, ta
            t0 = ta if ta > t0 else t0
            t1 = tb if tb < t1 else t1
        if abs(dy) < 1e-15:
            if not ylo <= fy <= yhi:
                t0, t1 = inf, -inf
        else:
            ta = (ylo - fy) / dy
            tb = (yhi - fy) / dy
            if ta > tb:
                ta, tb = tb, ta
            t0 = ta if ta > t0 else t0
            t1 = tb if tb < t1 else t1
        if t0 > t1:
            # off-screen row: one zero-length line at the foot of its normal
            x1 = (fx - cx + half) / width * SIZE
            y1 = SIZE - (fy - cy + half) / width * SIZE
            templates.append(line)
            values += x1, y1, x1, y1
            continue
        sx0, sy0, sx1, sy1 = fx + t0 * dx, fy + t0 * dy, fx + t1 * dx, fy + t1 * dy
        # short ticks pointing into the feasible halfplane; pixel space flips y
        tx, ty = 10 * (-a0 / norm), 10 * (a1 / norm)
        ex, ey = sx1 - sx0, sy1 - sy0
        px = (sx0 + 0.3 * ex - cx + half) / width * SIZE
        py = SIZE - (sy0 + 0.3 * ey - cy + half) / width * SIZE
        qx = (sx0 + 0.5 * ex - cx + half) / width * SIZE
        qy = SIZE - (sy0 + 0.5 * ey - cy + half) / width * SIZE
        rx = (sx0 + 0.7 * ex - cx + half) / width * SIZE
        ry = SIZE - (sy0 + 0.7 * ey - cy + half) / width * SIZE
        templates.append(ticked)
        values += (
            (sx0 - cx + half) / width * SIZE, SIZE - (sy0 - cy + half) / width * SIZE,
            (sx1 - cx + half) / width * SIZE, SIZE - (sy1 - cy + half) / width * SIZE,
            px, py, px + tx, py + ty, qx, qy, qx + tx, qy + ty, rx, ry, rx + tx, ry + ty,
        )

    if duals is not None:
        qx, qy = to_px(duals[:, 0], duals[:, 1])
        templates += islice(cycle(_DOT), len(duals))
        values += np.stack((qx, qy), axis=1).ravel().tolist()

    if solution is not None and solution.status is SolutionStatus.OPTIMAL:
        x = np.asarray(solution.x, dtype=float)
        x0, x1 = x.tolist()
        px, py = to_px(x0, x1)
        templates.append(_OPTIMUM)
        values += px - 8, py - 8, px + 8, py + 8, px - 8, py + 8, px + 8, py - 8
        norm = float(np.linalg.norm(x))
        if duals is not None and norm > 1e-9:
            # the dual of the optimum: a line through the dual points of the
            # constraints active at it
            segment = frame.clip(*_line_geometry(x0, x1, -1.0, norm))
            if segment is not None:
                templates.append(_DUAL_LINE)
                values += (*to_px(*segment[:2]), *to_px(*segment[2:]))

    templates.append("</svg>\n")
    # a tuple from a list: one grown from an iterator piles up on CPython's free lists
    return ("".join(templates) % tuple(values)).encode("utf-8")
