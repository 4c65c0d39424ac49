"""HiGHS reference answers, computed in a process of their own so that scipy
never counts in the measuring process's time or memory.

    python3 perfbench/reference.py IN.npz OUT.json

``IN.npz`` holds, for each program k, ``A{k}``, ``b{k}``, ``c{k}`` and
``maximize{k}``, and for each min-max instance j, ``G{j}`` and ``h{j}``.
``OUT.json`` receives ``{"programs": [{"status", "objective", "x"}, ...],
"epigraph": [optimum, ...]}``, objectives in each program's own sense.
"""

from __future__ import annotations

import json
import sys

import numpy as np
from scipy.optimize import linprog

STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def solve_program(A, b, c, maximize: bool) -> dict:
    res = linprog(-c if maximize else c, A_ub=A, b_ub=b, bounds=(None, None), method="highs")
    out = {"status": STATUS.get(res.status, f"highs status {res.status}")}
    if res.status == 0:
        out["objective"] = float(c @ res.x)
        out["x"] = [float(v) for v in res.x]
    return out


def epigraph_optimum(G, h) -> float | None:
    """min over w of max_i (G_i . w + h_i), as the LP min t s.t. G w - t <= -h."""
    m, k = G.shape
    res = linprog(
        np.r_[np.zeros(k), 1.0],
        A_ub=np.c_[G, -np.ones(m)],
        b_ub=-h,
        bounds=(None, None),
        method="highs",
    )
    return float(res.fun) if res.status == 0 else None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    data = np.load(argv[0], allow_pickle=False)
    programs, epigraph = [], []
    k = 0
    while f"A{k}" in data:
        programs.append(solve_program(data[f"A{k}"], data[f"b{k}"], data[f"c{k}"],
                                      bool(data[f"maximize{k}"])))
        k += 1
    j = 0
    while f"G{j}" in data:
        epigraph.append(epigraph_optimum(data[f"G{j}"], data[f"h{j}"]))
        j += 1
    with open(argv[1], "w") as f:
        json.dump({"programs": programs, "epigraph": epigraph}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
