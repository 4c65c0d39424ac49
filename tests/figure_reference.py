"""The SVG renderer as it was written on ElementTree.

``minmaxlp.figure.render_svg`` now writes the same document as text, from
float arrays and Python floats; this copy is kept unchanged so that
``tests/test_figure.py`` can check that both give the same bytes.  Its dual
points come from ``tests/transform_reference.py``, not from the code it
checks.  Call it as ``render_svg(lp, solution)``.
"""

from __future__ import annotations

from xml.etree import ElementTree as ET

import numpy as np

from minmaxlp.errors import GeometryError
from minmaxlp.model import LinearProgram, Solution, SolutionStatus
from transform_reference import dual_constraint_points

SIZE = 800
PAD = 1.2
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Frame:
    """Square world window mapped onto the SIZE x SIZE pixel canvas."""

    def __init__(self, points: list[np.ndarray]):
        if points:
            pts = np.vstack(points)
            lo, hi = pts.min(axis=0), pts.max(axis=0)
        else:
            lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        self.center = (lo + hi) / 2
        self.half = PAD * max(float((hi - lo).max()) / 2, 1e-6)

    def to_px(self, p: np.ndarray) -> tuple[float, float]:
        x = (p[0] - self.center[0] + self.half) / (2 * self.half) * SIZE
        y = SIZE - (p[1] - self.center[1] + self.half) / (2 * self.half) * SIZE
        return float(x), float(y)

    def clip(self, base: np.ndarray, direction: np.ndarray):
        """Segment of the parametric line inside the window, or None."""
        t0, t1 = -np.inf, np.inf
        for k in (0, 1):
            lo = self.center[k] - self.half
            hi = self.center[k] + self.half
            if abs(direction[k]) < 1e-15:
                if not lo <= base[k] <= hi:
                    return None
                continue
            ta = (lo - base[k]) / direction[k]
            tb = (hi - base[k]) / direction[k]
            if ta > tb:
                ta, tb = tb, ta
            t0, t1 = max(t0, ta), min(t1, tb)
        if t0 > t1:
            return None
        return base + t0 * direction, base + t1 * direction


def _line_geometry(a: np.ndarray, b: float):
    """Foot point and unit direction of the line a . x = b."""
    norm = float(np.linalg.norm(a))
    if norm < 1e-12:
        return None
    foot = a * (b / norm**2)
    direction = np.array([-a[1], a[0]]) / norm
    return foot, direction


def _intersections(A: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """Crossing point of every pair of rows that are not (nearly) parallel."""
    i, j = np.triu_indices(len(b), k=1)
    M = np.stack([A[i], A[j]], axis=1)
    norms = np.linalg.norm(A, axis=1)
    crossing = np.abs(np.linalg.det(M)) > 1e-9 * np.maximum(norms[i] * norms[j], 1e-300)
    rhs = np.stack([b[i], b[j]], axis=1)[crossing]
    return list(np.linalg.solve(M[crossing], rhs[:, :, None])[:, :, 0])


def _path(parent, d: str, color: str, **extra):
    attrs = {"d": d, "stroke": color, "fill": "none", "stroke-width": "1.5"}
    attrs.update(extra)
    ET.SubElement(parent, "path", attrs)


def render_svg(lp: LinearProgram, solution: Solution | None = None) -> bytes:
    """One 800 x 800 frame with every constraint as a colored line, its dual
    point in the matching color, and the optimum when one is known."""
    if lp.dimension != 2:
        raise GeometryError("can only draw two-dimensional programs")
    A = np.asarray(lp.A, dtype=float)
    b = np.asarray(lp.b, dtype=float)

    duals = dual_constraint_points(lp) if (b > 0).all() else None
    anchors = _intersections(A, b)
    if duals is not None:
        anchors.extend(duals)
    if not anchors:
        anchors = [g[0] for g in map(_line_geometry, A, b) if g is not None]
    frame = _Frame(anchors)

    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(SIZE),
            "height": str(SIZE),
            "viewBox": f"0 0 {SIZE} {SIZE}",
        },
    )
    ET.SubElement(svg, "rect", {"width": str(SIZE), "height": str(SIZE), "fill": "#ffffff"})

    # pale axes locate the origin, which both spaces share
    ox, oy = frame.to_px(np.zeros(2))
    if 0 <= ox <= SIZE:
        _path(svg, f"M {_fmt(ox)} 0 L {_fmt(ox)} {SIZE}", "#dddddd", **{"stroke-width": "1"})
    if 0 <= oy <= SIZE:
        _path(svg, f"M 0 {_fmt(oy)} L {SIZE} {_fmt(oy)}", "#dddddd", **{"stroke-width": "1"})

    for i in range(lp.n):
        color = PALETTE[i % len(PALETTE)]
        geometry = _line_geometry(A[i], b[i])
        segment = frame.clip(*geometry) if geometry else None
        if segment is None:
            # vacuous or off-screen row: keep one zero-length line so every
            # constraint owns exactly one line element
            px, py = frame.to_px(geometry[0] if geometry else np.zeros(2))
            p0 = p1 = (px, py)
        else:
            p0, p1 = frame.to_px(segment[0]), frame.to_px(segment[1])
        ET.SubElement(
            svg,
            "line",
            {
                "x1": _fmt(p0[0]),
                "y1": _fmt(p0[1]),
                "x2": _fmt(p1[0]),
                "y2": _fmt(p1[1]),
                "stroke": color,
                "stroke-width": "2",
            },
        )
        if segment is not None and geometry is not None:
            # short ticks pointing into the feasible halfplane
            norm = np.linalg.norm(A[i])
            inward = np.array([-A[i][0], A[i][1]]) / norm  # pixel space flips y
            marks = []
            for frac in (0.3, 0.5, 0.7):
                sx, sy = frame.to_px(segment[0] + frac * (segment[1] - segment[0]))
                marks.append(
                    f"M {_fmt(sx)} {_fmt(sy)} "
                    f"L {_fmt(sx + 10 * inward[0])} {_fmt(sy + 10 * inward[1])}"
                )
            _path(svg, " ".join(marks), color)

    if duals is not None:
        for i, q in enumerate(duals):
            qx, qy = frame.to_px(q)
            ET.SubElement(
                svg,
                "circle",
                {
                    "cx": _fmt(qx),
                    "cy": _fmt(qy),
                    "r": "5",
                    "fill": PALETTE[i % len(PALETTE)],
                },
            )

    if solution is not None and solution.status is SolutionStatus.OPTIMAL:
        x = np.asarray(solution.x, dtype=float)
        cx, cy = frame.to_px(x)
        _path(
            svg,
            f"M {_fmt(cx - 8)} {_fmt(cy - 8)} L {_fmt(cx + 8)} {_fmt(cy + 8)} "
            f"M {_fmt(cx - 8)} {_fmt(cy + 8)} L {_fmt(cx + 8)} {_fmt(cy - 8)}",
            "#111111",
            **{"stroke-width": "2.5"},
        )
        if duals is not None and np.linalg.norm(x) > 1e-9:
            # the dual of the optimum: a line through the dual points of the
            # constraints active at it
            geometry = _line_geometry(x, -1.0)
            segment = frame.clip(*geometry) if geometry else None
            if segment is not None:
                (ax, ay), (bx, by) = frame.to_px(segment[0]), frame.to_px(segment[1])
                _path(
                    svg,
                    f"M {_fmt(ax)} {_fmt(ay)} L {_fmt(bx)} {_fmt(by)}",
                    "#111111",
                    **{"stroke-dasharray": "6 4"},
                )

    return ET.tostring(svg, encoding="unicode").encode("utf-8") + b"\n"
