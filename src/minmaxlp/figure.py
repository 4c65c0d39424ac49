"""Two-dimensional SVG picture of a program: constraint lines with feasible-
side ticks, the dual point of every constraint (when the origin is strictly
inside), and the recovered optimum with its dual line.

Primal and dual share one frame on purpose: the dual of the optimal point is
a line through the dual points of the active constraints, and that incidence
is the whole story of the reduction, so it should be visible in one glance.

The SVG is written as text, one f-string per element, from float arrays and
Python floats.  Every coordinate comes from the same operations in the same
order as in the ElementTree renderer kept in ``tests/figure_reference.py``,
and the elements are spelled as ElementTree serializes them, so the bytes
are the same: a moved last bit can flip a ``.2f`` digit.
"""

from __future__ import annotations

import math

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


class _Frame:
    """Square world window mapped onto the SIZE x SIZE pixel canvas."""

    def __init__(self, points: np.ndarray):
        if len(points):
            lo, hi = points.min(axis=0), points.max(axis=0)
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


def _intersections(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Crossing point of every pair of rows that are not (nearly) parallel,
    one per row of a (k, 2) array."""
    i, j = np.triu_indices(len(b), k=1)
    M = np.stack([A[i], A[j]], axis=1)
    norms = np.linalg.norm(A, axis=1)
    crossing = np.abs(np.linalg.det(M)) > 1e-9 * np.maximum(norms[i] * norms[j], 1e-300)
    rhs = np.stack([b[i], b[j]], axis=1)[crossing]
    return np.linalg.solve(M[crossing], rhs[:, :, None])[:, :, 0]


def _path(d: str, color: str, width: str = "1.5", extra: str = "") -> str:
    return f'<path d="{d}" stroke="{color}" fill="none" stroke-width="{width}"{extra} />'


def render_svg(lp: LinearProgram, solution: Solution | None = None) -> bytes:
    """One 800 x 800 frame with every constraint as a colored line, its dual
    point in the matching color, and the optimum when one is known."""
    if lp.dimension != 2:
        raise GeometryError("can only draw two-dimensional programs")
    A = np.asarray(lp.A, dtype=float)
    b = np.asarray(lp.b, dtype=float)

    # each row once: its coefficients, |a| (sqrt(a . a) row by row, as np.linalg.norm
    # does, whose rounding the batched norm does not always reproduce) and its line
    rows = []
    for row, (a0, a1), rhs in zip(A, A.tolist(), b.tolist()):
        norm = math.sqrt(row.dot(row))
        rows.append((a0, a1, norm, _line_geometry(a0, a1, rhs, norm)))

    duals = _dual_points(A, b) if (b > 0).all() else None
    anchors = _intersections(A, b)
    if duals is not None:
        anchors = np.concatenate((anchors, duals))
    if not len(anchors):
        anchors = np.array([g[:2] for *_, g in rows if g is not None]).reshape(-1, 2)
    frame = _Frame(anchors)
    to_px = frame.to_px

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="#ffffff" />',
    ]

    # pale axes locate the origin, which both spaces share
    ox, oy = to_px(0.0, 0.0)
    if 0 <= ox <= SIZE:
        parts.append(_path(f"M {ox:.2f} 0 L {ox:.2f} {SIZE}", "#dddddd", "1"))
    if 0 <= oy <= SIZE:
        parts.append(_path(f"M 0 {oy:.2f} L {SIZE} {oy:.2f}", "#dddddd", "1"))

    for i, (a0, a1, norm, geometry) in enumerate(rows):
        color = PALETTE[i % len(PALETTE)]
        segment = frame.clip(*geometry) if geometry else None
        if segment is None:
            # vacuous or off-screen row: keep one zero-length line so every
            # constraint owns exactly one line element
            x1, y1 = x2, y2 = to_px(*geometry[:2]) if geometry else to_px(0.0, 0.0)
        else:
            sx0, sy0, sx1, sy1 = segment
            x1, y1 = to_px(sx0, sy0)
            x2, y2 = to_px(sx1, sy1)
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="2" />'
        )
        if segment is not None:
            # short ticks pointing into the feasible halfplane
            ix, iy = -a0 / norm, a1 / norm  # pixel space flips y
            marks = []
            for frac in (0.3, 0.5, 0.7):
                sx, sy = to_px(sx0 + frac * (sx1 - sx0), sy0 + frac * (sy1 - sy0))
                marks.append(f"M {sx:.2f} {sy:.2f} L {sx + 10 * ix:.2f} {sy + 10 * iy:.2f}")
            parts.append(_path(" ".join(marks), color))

    if duals is not None:
        qx, qy = to_px(duals[:, 0], duals[:, 1])
        for i, (x, y) in enumerate(zip(qx.tolist(), qy.tolist())):
            parts.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="5" fill="{PALETTE[i % len(PALETTE)]}" />'
            )

    if solution is not None and solution.status is SolutionStatus.OPTIMAL:
        x = np.asarray(solution.x, dtype=float)
        x0, x1 = x.tolist()
        cx, cy = to_px(x0, x1)
        parts.append(_path(
            f"M {cx - 8:.2f} {cy - 8:.2f} L {cx + 8:.2f} {cy + 8:.2f} "
            f"M {cx - 8:.2f} {cy + 8:.2f} L {cx + 8:.2f} {cy - 8:.2f}",
            "#111111",
            "2.5",
        ))
        norm = float(np.linalg.norm(x))
        if duals is not None and norm > 1e-9:
            # the dual of the optimum: a line through the dual points of the
            # constraints active at it
            segment = frame.clip(*_line_geometry(x0, x1, -1.0, norm))
            if segment is not None:
                ax, ay = to_px(*segment[:2])
                bx, by = to_px(*segment[2:])
                parts.append(_path(
                    f"M {ax:.2f} {ay:.2f} L {bx:.2f} {by:.2f}",
                    "#111111",
                    extra=' stroke-dasharray="6 4"',
                ))

    parts.append("</svg>\n")
    return "".join(parts).encode("utf-8")
