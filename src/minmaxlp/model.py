"""Linear-program and solution value types, validation, and JSON I/O."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from itertools import chain

import numpy as np

from .errors import LoadError


class Sense(str, Enum):
    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


class SolutionStatus(str, Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"
    ORIGIN_NOT_INTERIOR = "origin_not_interior"
    INPUT_ERROR = "input_error"


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize (or minimize) c.x subject to A x <= b over x in R^d.

    Every row is a "<=" constraint; ">=" rows must be pre-negated by the
    caller. Construction coerces the arrays to float and freezes them but
    does no shape checking -- run :func:`validate` for that.
    """

    dimension: int
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    sense: Sense = Sense.MAXIMIZE
    name: str | None = None

    def __post_init__(self) -> None:
        # any integer but a bool, numpy's included, is stored as an int
        if isinstance(self.dimension, numbers.Integral) and not isinstance(self.dimension, bool):
            object.__setattr__(self, "dimension", int(self.dimension))
        object.__setattr__(self, "A", _readonly(self.A))
        object.__setattr__(self, "b", _readonly(self.b))
        object.__setattr__(self, "c", _readonly(self.c))
        object.__setattr__(self, "sense", Sense(self.sense))

    @property
    def d(self) -> int:
        return self.dimension

    @property
    def n(self) -> int:
        """Number of constraint rows."""
        return self.A.shape[0] if self.A.ndim == 2 else 0


@dataclass(frozen=True, eq=False)
class Solution:
    """Outcome of a solve: a status plus whatever data that status supports."""

    status: SolutionStatus
    x: np.ndarray | None = None
    objective: float | None = None
    residual: float | None = None
    interior_point: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "status", SolutionStatus(self.status))
        if self.x is not None:
            object.__setattr__(self, "x", _readonly(self.x))
        if self.interior_point is not None:
            object.__setattr__(self, "interior_point", _readonly(self.interior_point))


def validate(lp: LinearProgram) -> tuple[str, ...]:
    """Check the structural invariants of ``lp`` and return every violation.

    Never raises; an empty tuple means the program is well-formed.
    """
    problems: list[str] = []
    if not isinstance(lp.dimension, int) or isinstance(lp.dimension, bool):
        problems.append("dimension: must be an integer")
        return tuple(problems)
    if lp.dimension < 2:
        problems.append("dimension: must be at least 2")
    if lp.A.ndim != 2:
        problems.append("A: must be a two-dimensional matrix")
        return tuple(problems)
    n = lp.A.shape[0]
    if n < 1:
        problems.append("A: must have at least one row")
    if lp.A.shape[1] != lp.dimension:
        problems.append(
            f"A: expected {lp.dimension} columns, got {lp.A.shape[1]}"
        )
    if lp.b.ndim != 1 or lp.b.shape[0] != n:
        problems.append(f"b: expected {n} entries (one per row of A)")
    if lp.c.ndim != 1 or lp.c.shape[0] != lp.dimension:
        problems.append(f"objective: expected {lp.dimension} entries")
    for label, arr in (("A", lp.A), ("b", lp.b), ("objective", lp.c)):
        if arr.size and not np.isfinite(arr).all():
            problems.append(f"{label}: entries must be finite")
    return tuple(problems)


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise LoadError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise LoadError(f"{where}: entries must be finite")
    return number


def _finite_floats(raw: list, entries) -> np.ndarray | None:
    """``raw`` as one float array if all its ``entries`` are finite JSON numbers, else None."""
    if not set(map(type, entries)) <= {int, float}:
        return None
    try:
        array = np.array(raw, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    return array if np.isfinite(array).all() else None


def _require_vector(value, where: str) -> np.ndarray | list[float]:
    if not isinstance(value, list):
        raise LoadError(f"{where}: expected an array of numbers")
    vector = _finite_floats(value, value)
    if vector is not None:
        return vector
    # some entry is bad: walk to name the first
    return [_require_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _require_matrix(raw, dimension: int) -> np.ndarray | list:
    if not isinstance(raw, list):
        raise LoadError("A: expected an array of rows")
    if not raw:
        raise LoadError("A: must have at least one row")
    if all(isinstance(row, list) and len(row) == dimension for row in raw):
        matrix = _finite_floats(raw, chain.from_iterable(raw))
        if matrix is not None:
            return matrix
    rows = []  # some row or entry is bad: walk to name the first
    for i, row in enumerate(raw):
        rows.append(_require_vector(row, f"A[{i}]"))
        if len(row) != dimension:
            raise LoadError(f"A[{i}]: expected {dimension} entries, got {len(row)}")
    return rows


def _parse_json(text: bytes | str):
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LoadError(f"not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise LoadError(f"invalid JSON: {exc}") from exc


def load_lp(text: bytes | str) -> LinearProgram:
    """Parse the LP JSON format into a validated :class:`LinearProgram`.

    Raises :class:`LoadError` naming the offending field on bytes that are
    not UTF-8, malformed JSON, missing fields, non-numeric entries, or shape
    mismatches.  The message names the first bad entry in document order.
    """
    doc = _parse_json(text)
    if not isinstance(doc, dict):
        raise LoadError("top level: expected a JSON object")

    for key in ("dimension", "A", "b", "objective", "sense"):
        if key not in doc:
            raise LoadError(f'missing field "{key}"')

    dimension = doc["dimension"]
    if isinstance(dimension, bool) or not isinstance(dimension, int):
        raise LoadError("dimension: expected an integer")

    A = _require_matrix(doc["A"], dimension)
    b = _require_vector(doc["b"], "b")
    if len(b) != len(A):
        raise LoadError(f"b: expected {len(A)} entries (one per row of A), got {len(b)}")
    c = _require_vector(doc["objective"], "objective")
    if len(c) != dimension:
        raise LoadError(f"objective: expected {dimension} entries, got {len(c)}")

    sense_str = doc["sense"]
    try:
        sense = Sense(sense_str)
    except ValueError:
        raise LoadError(f'sense: expected "maximize" or "minimize", got {sense_str!r}') from None

    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise LoadError("name: expected a string")

    lp = LinearProgram(dimension=dimension, A=A, b=b, c=c, sense=sense, name=name)
    violations = validate(lp)
    if violations:
        raise LoadError("; ".join(violations))
    return lp


def _dumps(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def save_lp(lp: LinearProgram) -> bytes:
    """Serialize ``lp``; ``load_lp(save_lp(lp))`` round-trips bit-identically."""
    doc: dict = {}
    if lp.name is not None:
        doc["name"] = lp.name
    doc["dimension"] = lp.dimension
    doc["A"] = [[float(v) for v in row] for row in lp.A]
    doc["b"] = [float(v) for v in lp.b]
    doc["objective"] = [float(v) for v in lp.c]
    doc["sense"] = lp.sense.value
    return _dumps(doc)


def save_solution(sol: Solution) -> bytes:
    """Serialize a solution; keys absent for fields that are ``None``."""
    doc: dict = {"status": sol.status.value}
    if sol.x is not None:
        doc["x"] = [float(v) for v in sol.x]
    if sol.objective is not None:
        doc["objective"] = float(sol.objective)
    if sol.residual is not None:
        doc["residual"] = float(sol.residual)
    if sol.interior_point is not None:
        doc["interior_point"] = [float(v) for v in sol.interior_point]
    return _dumps(doc)


def load_solution(text: bytes | str) -> Solution:
    """Inverse of :func:`save_solution`."""
    doc = _parse_json(text)
    if not isinstance(doc, dict) or "status" not in doc:
        raise LoadError('missing field "status"')
    try:
        status = SolutionStatus(doc["status"])
    except ValueError:
        raise LoadError(f"status: unknown value {doc['status']!r}") from None
    x = doc.get("x")
    interior = doc.get("interior_point")
    return Solution(
        status=status,
        x=_require_vector(x, "x") if x is not None else None,
        objective=_require_number(doc["objective"], "objective") if "objective" in doc else None,
        residual=_require_number(doc["residual"], "residual") if "residual" in doc else None,
        interior_point=_require_vector(interior, "interior_point") if interior is not None else None,
    )
