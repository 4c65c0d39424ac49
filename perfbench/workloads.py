"""The benchmark's workloads: programs generated from a seed, the operations
run on them, and the check applied to every output.

Program ``k`` of a workload is drawn from ``default_rng([seed, k])``, so a
program does not depend on how many others are built; the fresh-start
set-up measurement builds operation 0 alone.  Every generator plants its
class (optimal, unbounded, no interior) and, where there is one, a strict
interior point, so the expected outcome is known by construction.  HiGHS
answers computed in another process (``reference.py``) confirm each class
and give the optimum.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from typing import Callable
from xml.etree import ElementTree as ET

import numpy as np

import minmaxlp

WORKLOADS = ("solve_mix", "cli_mix")

OBJ_TOL = 1e-6  # exact backend: |f - f*| <= OBJ_TOL * max(1, |f*|)
FEAS_TOL = 1e-9  # max(A x - b) <= FEAS_TOL * (1 + max|b|)
# subgradient backend: the answer sits at most this relative gap below HiGHS;
# above every gap measured on this construction (worst 4.7e-3 with the hint,
# 9.6e-3 without; see README.md), so a looser stopping rule shows as wrong
SUBGRADIENT_GAP = 1e-2

SVG = "{http://www.w3.org/2000/svg}"


@dataclass
class Program:
    lp: minmaxlp.LinearProgram
    planted: str  # "optimal", "unbounded", "flat" or "infeasible"
    point: np.ndarray | None  # planted strict interior point, if any
    # filled in by the checks of earlier operations on the same program
    state: dict = field(default_factory=dict)


class WrongAnswer(Exception):
    """An operation returned the expected status with a wrong answer."""


class Failed(Exception):
    """An operation did not deliver: wrong status or exit code."""


# what reading an output that breaks its documented format raises
MALFORMED = (ValueError, KeyError, TypeError, ET.ParseError, minmaxlp.LPError)


@dataclass
class Operation:
    label: str
    program: int
    run: Callable[[], object]
    # raises Failed or WrongAnswer; ``ref`` is the program's HiGHS answer and
    # ``epi`` the HiGHS optimum of the output's min-max instance, if any
    check: Callable[[object, dict, float | None], None]
    # the min-max instance (G, h) in an output whose optimum HiGHS must give
    epigraph: Callable[[object], tuple[list, list] | None] | None = None
    # file the operation writes: removed before each run and read after it,
    # the check then getting (run's result, the file's bytes or None)
    output: str | None = None


@dataclass
class Workload:
    name: str
    programs: list[Program]
    operations: list[Operation]


# ---------------------------------------------------------------------------
# program generators, after tests/lpgen.py


def _core(rng, d, n):
    """Rows in [-1, 1] loose by 0.2-1.5 around a planted point x0."""
    A = rng.uniform(-1.0, 1.0, (n, d))
    x0 = rng.uniform(-1.0, 1.0, d)
    b = A @ x0 + rng.uniform(0.2, 1.5, n)
    return A, b, x0


def _box(d, x0, r):
    return np.vstack([np.eye(d), -np.eye(d)]), np.concatenate([x0 + r, -(x0 - r)])


def bounded(rng, d, n, sense) -> Program:
    A, b, x0 = _core(rng, d, n - 2 * d)
    c = rng.uniform(-1.0, 1.0, d)
    box_A, box_b = _box(d, x0, rng.uniform(1.0, 3.0))
    lp = minmaxlp.LinearProgram(
        dimension=d, A=np.vstack([A, box_A]), b=np.concatenate([b, box_b]), c=c, sense=sense
    )
    return Program(lp, "optimal", x0)


def unbounded(rng, d, n, sense) -> Program:
    """Every row satisfies A v <= 0 for a ray v along which the objective
    improves in the program's own sense."""
    v = rng.normal(size=d)
    v /= np.linalg.norm(v)
    A = rng.uniform(-1.0, 1.0, (n, d))
    A = A - np.outer(np.maximum(A @ v, 0.0), v)
    x0 = rng.uniform(-1.0, 1.0, d)
    b = A @ x0 + rng.uniform(0.2, 1.5, n)
    w = rng.normal(size=d) * 0.3
    c = v + (w - (w @ v) * v)
    if sense == "minimize":
        c = -c
    return Program(minmaxlp.LinearProgram(dimension=d, A=A, b=b, c=c, sense=sense), "unbounded", x0)


def no_interior(rng, d, n, sense, flat: bool) -> Program:
    """Loose rows and a box around x0 plus a slab a.x = beta of zero width
    (feasible, empty interior) or of negative width (infeasible)."""
    A, b, x0 = _core(rng, d, n - 2 - 2 * d)
    a = rng.normal(size=d)
    a /= np.linalg.norm(a)
    beta = float(a @ x0)
    gap = 0.0 if flat else rng.uniform(0.1, 1.0)
    box_A, box_b = _box(d, x0, 2.0)
    lp = minmaxlp.LinearProgram(
        dimension=d,
        A=np.vstack([A, a, -a, box_A]),
        b=np.concatenate([b, [beta, -beta - gap], box_b]),
        c=rng.uniform(-1.0, 1.0, d),
        sense=sense,
    )
    return Program(lp, "flat" if flat else "infeasible", None)


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def _sense(k: int) -> str:
    return "maximize" if k % 2 == 0 else "minimize"


# ---------------------------------------------------------------------------
# checks shared by library and CLI operations


def _max_violation(lp, x) -> float:
    return float((lp.A @ np.asarray(x, dtype=float) - lp.b).max())


def _check_feasible(lp, x, what):
    slack = FEAS_TOL * (1.0 + float(np.abs(lp.b).max()))
    if _max_violation(lp, x) > slack:
        raise WrongAnswer(f"{what} violates a row by {_max_violation(lp, x):.3e}")


def _check_strictly_inside(lp, p, what):
    if p is None or _max_violation(lp, p) >= 0.0:
        raise WrongAnswer(f"{what} is not strictly inside")


def _check_status(got, want):
    if got != want:
        raise Failed(f"status {got}, planted class expects {want}")


def _check_reference(program: Program, ref: dict):
    """HiGHS must agree with the planted class (a flat program is feasible)."""
    want = {"optimal": "optimal", "unbounded": "unbounded",
            "flat": "optimal", "infeasible": "infeasible"}[program.planted]
    if ref["status"] != want:
        raise WrongAnswer(f"HiGHS says {ref['status']} on a planted {program.planted} program")


def _check_objective(lp, sol, ref, exact: bool):
    f, best = float(sol.objective), ref["objective"]
    if abs(f - float(lp.c @ np.asarray(sol.x))) > 1e-9 * (1.0 + abs(f)):
        raise WrongAnswer("reported objective is not c . x")
    scale = max(1.0, abs(best))
    if exact:
        if abs(f - best) > OBJ_TOL * scale:
            raise WrongAnswer(f"objective {f!r}, HiGHS {best!r}")
        return
    # a feasible answer can never beat the optimum
    gap = (best - f) if lp.sense is minmaxlp.Sense.MAXIMIZE else (f - best)
    if gap < -FEAS_TOL * scale or gap > SUBGRADIENT_GAP * scale:
        raise WrongAnswer(f"objective {f!r} is {gap / scale:.2e} relative from HiGHS {best!r}")


def _check_solution(program: Program, sol, ref: dict, exact: bool):
    _check_reference(program, ref)
    want = {"optimal": "optimal", "unbounded": "unbounded",
            "flat": "infeasible", "infeasible": "infeasible"}[program.planted]
    _check_status(sol.status.value, want)
    lp = program.lp
    if want == "infeasible":
        return
    _check_strictly_inside(lp, sol.interior_point, "interior_point")
    if want == "optimal":
        _check_feasible(lp, sol.x, "x")
        _check_objective(lp, sol, ref, exact)


# ---------------------------------------------------------------------------
# library workloads: one operation is one minmaxlp.solve


def _solve_op(k: int, program: Program, hint: bool, solver: str) -> Operation:
    options = minmaxlp.SolveOptions(solver=solver)
    point = program.point if hint else None
    exact = solver == "exact"

    def run():
        return minmaxlp.solve(program.lp, interior_hint=point, options=options)

    def check(sol, ref, epi):
        _check_solution(program, sol, ref, exact)

    label = f"solve {solver}{' hinted' if hint else ''} d={program.lp.d} n={program.lp.n}"
    return Operation(label, k, run, check)


def _spread(j: int, m: int, lo: int, hi: int) -> int:
    """The j-th of m row counts spaced evenly over [lo, hi].  Sizes depend on
    the program's index alone, so every seed gives the same mix of sizes
    and only the entries change."""
    return lo + round((hi - lo) * j / max(1, m - 1))


# solve_mix: a kind of program is (fewest and most variables, fewest and
# most rows, backend, planted point passed as interior_hint)
SOLVE_KINDS = (
    (2, 2, 120, 200, "exact", False),  # phase 1 and the per-row loop of _seidel
    (3, 3, 20, 32, "exact", False),
    (5, 5, 12, 16, "exact", True),  # support stage only: the d! recursion
    (18, 22, 180, 220, "subgradient", True),  # support stage only, ~10,000 evaluate calls
)
# kind of program k, repeating every 40 programs: 16, 12, 11 and 1 of the
# four kinds.  The exact solves take about 3-20 ms each.  On a host whose
# speed moves within seconds, only operations this short meet enough fast
# stretches for their fastest repeat to be steady (see README.md); a
# subgradient solve takes 80-120 ms whatever its size, so three of them
# cover that backend without letting its drift rule ops_per_s.  A round
# takes about 1.5 s, some 30 repeats of every solve in a 55-s run.
# Program 0 is a d=2 solve, what the fresh starts run.
SOLVE_PATTERN = (0, 1, 2, 0, 1, 2, 0, 1, 0, 2, 0, 1, 2, 0, 1, 0, 2, 3, 1, 0,
                 2, 0, 1, 0, 2, 1, 0, 2, 1, 0, 2, 0, 1, 0, 2, 1, 0, 2, 1, 0)
SOLVE_COUNT = 3 * len(SOLVE_PATTERN)


def _solve_shapes() -> list:
    """(d, n, backend, hint) of each program: the j-th program of a kind has
    d = d_lo + j mod (d_hi - d_lo + 1) and its rows spread over the range."""
    kinds = [SOLVE_PATTERN[k % len(SOLVE_PATTERN)] for k in range(SOLVE_COUNT)]
    seen, shapes = [0] * len(SOLVE_KINDS), []
    for p in kinds:
        d_lo, d_hi, lo, hi, solver, hint = SOLVE_KINDS[p]
        j = seen[p]
        shapes.append((d_lo + j % (d_hi - d_lo + 1), _spread(j, kinds.count(p), lo, hi),
                       solver, hint))
        seen[p] += 1
    return shapes


def _solve_mix(seed: int, count: int) -> Workload:
    programs, ops = [], []
    for k, (d, n, solver, hint) in enumerate(_solve_shapes()[:count]):
        programs.append(bounded(_rng(seed, k), d, n, _sense(k)))
        ops.append(_solve_op(k, programs[-1], hint, solver))
    return Workload("solve_mix", programs, ops)


# ---------------------------------------------------------------------------
# cli_mix: in-process minmaxlp.cli.main on program files, output to files

# (dimension, planted class, sense); program k has combination k % 16.  The
# commands on one program share its phase-1 cost, so six programs of each
# combination (96 programs, 480 commands) keep the median and the tail from
# resting on a few programs.  At most 30 rows keep every command under about
# 20 ms, short enough for its fastest repeat to be steady (see README.md).
CLI_PROGRAMS = [
    (d, planted, sense)
    for d in (2, 3)
    for planted in ("optimal", "unbounded", "flat", "infeasible")
    for sense in ("maximize", "minimize")
]

CLI_PROGRAM_COUNT = 6 * len(CLI_PROGRAMS)

EXIT = {"optimal": 0, "unbounded": 2, "flat": 3, "infeasible": 3}


def _cli_program(rng, k) -> Program:
    d, planted, sense = CLI_PROGRAMS[k % len(CLI_PROGRAMS)]
    # sizes spread over 12-30 rows, permuted so every combination gets small
    # and large programs; program 0 has the fewest rows
    n = _spread(k * 5 % CLI_PROGRAM_COUNT, CLI_PROGRAM_COUNT, 12, 30)
    if planted == "optimal":
        return bounded(rng, d, n, sense)
    if planted == "unbounded":
        return unbounded(rng, d, n, sense)
    return no_interior(rng, d, n, sense, flat=planted == "flat")


def _point_arg(p) -> str:
    return ",".join(repr(float(v)) for v in p)


def _run_cli(argv):
    """One CLI command; returns its exit code.  The runner reads the output
    file after the timer stops and checks (exit code, bytes or None)."""
    with redirect_stderr(io.StringIO()):
        try:
            return minmaxlp.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            return exc.code


def _expect_code(got, want):
    if got[0] != want:
        raise Failed(f"exit code {got[0]}, planted class expects {want}")
    if want != 3 and got[1] is None:
        raise Failed("no output written")


def _cli_ops(k: int, program: Program, path: str, workdir: str, first: int) -> list[Operation]:
    lp = program.lp
    has_interior = program.point is not None
    code = EXIT[program.planted]
    ops: list[Operation] = []

    def add(label, argv, check, epigraph=None):
        out = os.path.join(workdir, f"out-{first + len(ops)}")
        full = [argv[0], "--input", path, *argv[1:], "--output", out]

        def run():
            return _run_cli(full)

        ops.append(Operation(f"{label} d={lp.d} n={lp.n}", k, run, check, epigraph, out))

    def check_solve(got, ref, epi):
        _expect_code(got, code)
        _check_solution(program, minmaxlp.load_solution(got[1]), ref, exact=True)

    def check_phase1(got, ref, epi):
        _expect_code(got, 0 if has_interior else 3)
        doc = json.loads(got[1])
        if not has_interior:
            if doc["status"] != "no_strict_interior":
                raise Failed(f"phase1 status {doc['status']}")
            return
        p0 = np.array(doc["p0"], dtype=float)
        _check_strictly_inside(lp, p0, "phase1 p0")
        program.state["p0"] = p0

    def check_reduce_phase1(got, ref, epi):
        _expect_code(got, 0)
        doc = json.loads(got[1])
        if doc["stage"] != "phase1" or doc["G"] != lp.A.tolist() or doc["h"] != (-lp.b).tolist():
            raise WrongAnswer("reduce --stage phase1 is not G = A, h = -b")

    def support_check(p0_of):
        def check(got, ref, epi):
            _expect_code(got, 0 if has_interior else 3)
            if not has_interior:
                return
            doc = json.loads(got[1])
            G, h = np.array(doc["G"], dtype=float), np.array(doc["h"], dtype=float)
            if doc["stage"] != "support" or G.shape != (lp.n, lp.d - 1) or h.shape != (lp.n,):
                raise WrongAnswer(f"support instance has shape {G.shape}, {h.shape}")
            if program.planted != "optimal":
                return
            # with c in the maximize direction, the min-max optimum is
            # |c| / (c . x* - c . p0)
            c = lp.c if lp.sense is minmaxlp.Sense.MAXIMIZE else -lp.c
            want = float(np.linalg.norm(c) / (c @ np.array(ref["x"]) - c @ p0_of()))
            if abs(epi - want) > OBJ_TOL * max(1.0, abs(want)):
                raise WrongAnswer(f"support min-max optimum {epi!r}, expected {want!r}")
        return check

    def support_epigraph(got):
        if got[1] is None or program.planted != "optimal":
            return None
        doc = json.loads(got[1])
        return doc["G"], doc["h"]

    def check_viz(got, ref, epi):
        _expect_code(got, 0)
        root = ET.fromstring(got[1])
        lines = len(root.findall(f"{SVG}line"))
        circles = len(root.findall(f"{SVG}circle"))
        want_circles = lp.n if (lp.b > 0).all() else 0
        if lines != lp.n or circles != want_circles:
            raise WrongAnswer(f"svg has {lines} lines and {circles} circles for {lp.n} rows")

    add("solve", ["solve"], check_solve)
    add("phase1", ["phase1"], check_phase1)
    add("reduce-phase1", ["reduce", "--stage", "phase1"], check_reduce_phase1)
    # without a point the CLI runs phase 1 itself, which gives the p0 that
    # the phase1 command above returned
    add("reduce-support", ["reduce"], support_check(lambda: program.state["p0"]),
        support_epigraph)
    if has_interior:
        add("reduce-support-hint",
            ["reduce", f"--interior-point={_point_arg(program.point)}"],
            support_check(lambda: program.point), support_epigraph)
    if lp.d == 2:
        add("viz", ["viz"], check_viz)
    return ops


def _cli_mix(seed: int, count: int, workdir: str) -> Workload:
    import minmaxlp.cli  # noqa: F401  (the library workloads never load the CLI)

    programs, ops = [], []
    for k in range(count):
        program = _cli_program(_rng(seed, k), k)
        path = os.path.join(workdir, f"program-{k}.json")
        with open(path, "wb") as f:
            f.write(minmaxlp.save_lp(program.lp))
        programs.append(program)
        ops.extend(_cli_ops(k, program, path, workdir, len(ops)))
    return Workload("cli_mix", programs, ops)


def build(name: str, seed: int, workdir: str, first_only: bool = False) -> Workload:
    """The workload's programs and operations; ``first_only`` builds
    operation 0 alone, for the fresh-start set-up measurement."""
    if name == "cli_mix":
        return _cli_mix(seed, 1 if first_only else CLI_PROGRAM_COUNT, workdir)
    if name == "solve_mix":
        return _solve_mix(seed, 1 if first_only else SOLVE_COUNT)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
