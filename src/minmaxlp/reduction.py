"""The full pipeline from LP to min-max and back.

Steps: find a strict interior point or verify a supplied one
(:func:`check_interior`); translate it to the origin, rotate the objective
onto the last axis and dualize each constraint plane into a point
(:func:`prepare`); then search for the non-vertical plane that supports
those points from below with the most negative z-intercept.  That search is
a piecewise-linear min-max in the first d-1 coordinates of the plane's
slope; its optimum dualizes straight back to the LP optimum.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ReductionError, SolverError
from .minmax import (
    MinMaxResult,
    MinMaxStatus,
    PiecewiseMaxProblem,
    evaluate,
    solve_exact,
    solve_subgradient,
)
from .model import LinearProgram, Sense, Solution, SolutionStatus, validate
from .transforms import (
    EPS_STRICT,
    HouseholderRotation,
    ProblemTransform,
    _rotate_rows,
    _translated_offsets,
    recover_solution,
    rotation_to_last_axis,
)

# |t*| below this is "intercept reached zero": unbounded
EPS_UNBOUNDED = 1e-9


class PhaseOneStatus(str, Enum):
    STRICT_INTERIOR = "strict_interior"
    NO_STRICT_INTERIOR = "no_strict_interior"


@dataclass(frozen=True, eq=False)
class PhaseOneResult:
    """Outcome of the interior-point search.

    ``margin`` is max(A p0 - b) at the returned point: strictly negative
    exactly when p0 sits inside every constraint.  ``status`` follows from
    it: ``STRICT_INTERIOR`` exactly when the margin is below -EPS_STRICT.
    """

    p0: np.ndarray
    margin: float

    @property
    def status(self) -> PhaseOneStatus:
        if self.margin < -EPS_STRICT:
            return PhaseOneStatus.STRICT_INTERIOR
        return PhaseOneStatus.NO_STRICT_INTERIOR


@dataclass(frozen=True)
class SolveOptions:
    """Settings of a solve; a bad value raises ReductionError led by the field's name.

    ``solver="exact"`` routes each min-max stage of any width by its size and
    scale (see ``_run_minmax``); ``"subgradient"`` runs the vertex simplex on
    every stage.  ``tolerance`` is Seidel's slack and the threshold below
    which the intercept |t*| reads as ``unbounded``.  ``seed`` and that slack
    reach only the stages Seidel solves; the vertex simplex takes neither,
    and its answers are deterministic on one numpy build."""

    seed: int = 0
    tolerance: float = 1e-9
    solver: str = "exact"

    def __post_init__(self) -> None:
        # bool is an Integral and a Real, but True is no seed or tolerance
        seed, tolerance = self.seed, self.tolerance
        if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral) and seed >= 0):
            raise ReductionError(f"seed must be a non-negative integer, got {seed!r}")
        if isinstance(tolerance, bool) or not (
            isinstance(tolerance, numbers.Real) and 0 < tolerance < np.inf
        ):
            raise ReductionError(f"tolerance must be positive and finite, got {tolerance!r}")
        if self.solver not in ("exact", "subgradient"):
            raise ReductionError(f"solver must be 'exact' or 'subgradient', got {self.solver!r}")


def _run_minmax(prob: PiecewiseMaxProblem, options: SolveOptions) -> MinMaxResult:
    """The one place that picks the algorithm for a min-max stage.

    ``solver="subgradient"`` always runs the vertex simplex.  Under
    ``"exact"``, Seidel's recursion costs about (d+1)! m for d variables and
    m pieces; past (d+1)! m = 96 the certified vertex simplex runs, with Seidel
    as the fallback when it raises (on the pipeline's stages of 12-30 pieces
    the two tie at d=1; the simplex is faster from m=12 at d=2 and at every m
    at d >= 3), at any width.  Seidel keeps the small instances and those
    with a piece whose scale max(max|G_i|, |h_i|) is below 1e-6 of the
    largest, as the simplex's tolerances are absolute in units of the
    largest piece while Seidel normalizes every row; past ``D_MAX``
    variables these raise :class:`DimensionCapError`."""
    if options.solver == "subgradient":
        return solve_subgradient(prob)
    if math.factorial(prob.d + 1) * prob.m > 96:
        scales = prob.scales[1]
        if scales.min() >= 1e-6 * scales.max():
            try:
                return solve_subgradient(prob)
            except SolverError:
                pass
    return solve_exact(prob, seed=options.seed, tolerance=options.tolerance)


def phase1(lp: LinearProgram, options: SolveOptions | None = None) -> PhaseOneResult:
    """Search for a strict interior point by minimizing max(A p - b).

    The min-max stage is routed as every stage is (``_run_minmax``).  A
    negative optimum certifies its argmin as strictly feasible.  A max
    without a minimum means arbitrarily deep interior, and the witness of
    that descent, returned as it is, is strictly inside: Seidel's lies on
    its doubled box, the vertex simplex's 1 + |t| below its last vertex, a
    moderate depth.  NoStrictInterior covers both genuinely infeasible
    programs and feasible ones with empty interior; the construction cannot
    tell them apart.
    """
    options = options or SolveOptions()
    result = _run_minmax(PiecewiseMaxProblem(G=lp.A, h=-lp.b), options)
    return PhaseOneResult(result.x_star, float(result.value))


def _dual_points(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dual points -A_i / b_i of the constraint planes, in row order; each
    offset b_i must be positive, i.e. the origin strictly inside."""
    return -A / b[:, None]


def build_support_problem(duals: np.ndarray) -> PiecewiseMaxProblem:
    """Encode "support the dual points from below with maximal intercept".

    For a plane z = w . x' + t to sit below every dual point q we need
    t <= q_z - w . q'; the best intercept for a slope w is therefore
    min_q (q_z - w . q'), and maximizing it over w is the min-max instance
    minimize over w of max_q (w . q' - q_z), one piece per dual point.  Its
    optimal value is -t*.
    """
    duals = np.asarray(duals, dtype=float)
    if duals.ndim != 2 or duals.shape[0] < 1:
        raise ReductionError("need at least one dual point")
    if duals.shape[1] < 2:
        raise ReductionError("dual points must have at least two coordinates")
    return PiecewiseMaxProblem(G=duals[:, :-1], h=-duals[:, -1])


def classify_and_recover(
    prob: PiecewiseMaxProblem, result: MinMaxResult, eps_unbounded: float = EPS_UNBOUNDED
) -> tuple[SolutionStatus, np.ndarray | None]:
    """Read the LP outcome off the result of the support problem ``prob``.

    The optimal intercept is t* = -value.  An intercept at (or numerically
    indistinguishable from) zero means feasible planes exist with arbitrarily
    small negative intercept, i.e. the LP is unbounded.  Otherwise the optimal
    plane is ((w*, -1), -t*) and its dual point (w*, -1)/t* is the optimum,
    with last coordinate -1/t* > 0.
    """
    if result.status is MinMaxStatus.UNBOUNDED_BELOW:
        return SolutionStatus.UNBOUNDED, None
    if result.x_star is None or result.value is None:
        raise ReductionError("min-max result carries no minimizer")
    check, _ = evaluate(prob, result.x_star)
    if abs(check - result.value) > 1e-6 * (1 + abs(check)):
        raise ReductionError("min-max result does not certify against this problem")
    t_star = -float(result.value)
    if t_star >= -eps_unbounded:
        return SolutionStatus.UNBOUNDED, None
    point = np.concatenate((result.x_star, [-1.0])) / t_star
    return SolutionStatus.OPTIMAL, point


def _pull_inside(A: np.ndarray, p0: np.ndarray, room: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Shrink x toward the interior point p0, whose room is b - A p0, just
    enough to be feasible.

    A no-op when x already satisfies every constraint; otherwise the largest
    step along the segment [p0, x] that stays inside.  Soaks up the rounding
    that recovery through the dual point leaves on tight rows.
    """
    direction = A @ (x - p0)
    rising = direction > 0
    if not rising.any():
        return x
    step = float((room[rising] / direction[rising]).min())
    if step >= 1.0:
        return x
    return p0 + max(step, 0.0) * (x - p0)


def check_interior(
    lp: LinearProgram, hint: np.ndarray | None = None, options: SolveOptions | None = None
) -> np.ndarray | SolutionStatus:
    """A strict interior point of ``lp``: the hint when it is strictly inside,
    otherwise the phase-1 witness.  When there is none, the status that ends
    the solve: ``INPUT_ERROR`` (malformed program or hint),
    ``ORIGIN_NOT_INTERIOR`` (hint not strictly inside) or ``INFEASIBLE``."""
    return _interior(lp, hint, options)[0]


def _interior(
    lp: LinearProgram, hint: np.ndarray | None, options: SolveOptions | None
) -> tuple[np.ndarray | SolutionStatus, np.ndarray | None]:
    """:func:`check_interior`'s answer, with the margins A p0 - b of an
    accepted hint (None for a phase-1 witness or a status)."""
    if validate(lp):
        return SolutionStatus.INPUT_ERROR, None
    if hint is None:
        ph = phase1(lp, options)
        if ph.status is PhaseOneStatus.NO_STRICT_INTERIOR:
            return SolutionStatus.INFEASIBLE, None
        return ph.p0, None
    # numpy casts [True, 0.5] to floats, so a list is checked entry by entry
    if isinstance(hint, (list, tuple)) and not all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) for v in hint
    ):
        return SolutionStatus.INPUT_ERROR, None
    try:
        p0 = np.asarray(hint)
        if p0.dtype.kind in "bc":  # True is no coordinate, nor is 3j a real one
            return SolutionStatus.INPUT_ERROR, None
        p0 = np.asarray(p0, dtype=float)
    except (TypeError, ValueError):  # entries that are not numbers
        return SolutionStatus.INPUT_ERROR, None
    if p0.shape != (lp.dimension,) or not np.isfinite(p0).all():
        return SolutionStatus.INPUT_ERROR, None
    margins = lp.A @ p0 - lp.b
    if float(margins.max()) >= -EPS_STRICT:
        return SolutionStatus.ORIGIN_NOT_INTERIOR, None
    return p0, margins


def prepare(lp: LinearProgram, p0: np.ndarray) -> tuple[PiecewiseMaxProblem, ProblemTransform]:
    """Reduce ``lp`` to its support-plane problem around the interior point
    ``p0``; the one route from a program to that problem.

    On the program's arrays, with no intermediate program: flip a minimize
    objective, translate ``p0`` to the origin (offsets b - A p0), rotate the
    objective onto the last axis and dualize each reduced constraint plane
    a . y <= beta into the point -a / beta.  An all-zero objective has no
    direction to rotate, so it is left unrotated.  Raises :class:`TransformError` when ``p0`` has the
    wrong length, is not finite or is not strictly inside, naming the first
    row within ``EPS_STRICT`` of it.  The transform maps the reduced
    coordinates back to the original ones."""
    return _support_problem(lp, p0, _translated_offsets(lp, p0))


def _support_problem(
    lp: LinearProgram, p0: np.ndarray, offsets: np.ndarray
) -> tuple[PiecewiseMaxProblem, ProblemTransform]:
    """:func:`prepare` once the offsets b - A p0 are computed and checked."""
    if lp.c.any():
        rotation = rotation_to_last_axis(lp.c if lp.sense is Sense.MAXIMIZE else -lp.c)
    else:
        rotation = HouseholderRotation(lp.dimension, u_hat=None)
    A = lp.A if rotation.u_hat is None else _rotate_rows(lp.A, rotation.u_hat)
    prob = build_support_problem(_dual_points(A, offsets))
    return prob, ProblemTransform(rotation=rotation, p0=p0)


def solve(
    lp: LinearProgram,
    interior_hint: np.ndarray | None = None,
    options: SolveOptions | None = None,
) -> Solution:
    """Solve the LP end to end; the status carries the outcome.  Each
    min-max stage runs Seidel or the vertex simplex as ``_run_minmax``
    picks, at any width.  Raises :class:`SolverError`: the dimension cap on
    a stage past ``D_MAX`` variables that Seidel must take; a known defect
    of Seidel ("inconsistent subsystem") on some programs whose rows are
    rescaled by large factors; and, under ``solver="subgradient"`` only, the
    vertex simplex at its pivot cap or when its certificate fails."""
    options = options or SolveOptions()
    p0, margins = _interior(lp, interior_hint, options)
    if isinstance(p0, SolutionStatus):
        return Solution(status=p0)
    if margins is None:
        margins = lp.A @ p0 - lp.b

    if not lp.c.any():  # constant objective: any feasible point is optimal
        return Solution(status=SolutionStatus.OPTIMAL, x=p0, objective=0.0,
                        residual=float(margins.max()), interior_point=p0)

    # prepare's checks on the margins at hand; b - A p0 is -(A p0 - b) to the bit
    offsets = _translated_offsets(lp, p0, margins)
    prob, transform = _support_problem(lp, p0, offsets)
    result = _run_minmax(prob, options)
    status, dual_point = classify_and_recover(prob, result, eps_unbounded=options.tolerance)
    if status is SolutionStatus.UNBOUNDED:
        return Solution(status=SolutionStatus.UNBOUNDED, interior_point=p0)

    x = _pull_inside(lp.A, p0, offsets, recover_solution(transform, dual_point))
    return Solution(
        status=SolutionStatus.OPTIMAL,
        x=x,
        objective=float(lp.c @ x),  # the original objective, not the flipped one
        residual=float((lp.A @ x - lp.b).max()),
        interior_point=p0,
    )
