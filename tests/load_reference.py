"""``minmaxlp.model.load_lp`` as it was when it checked each entry on its
own: every number of a document passes through ``_require_number``.

``load_lp`` now checks and converts each matrix and vector as a whole and
walks entry by entry only to name the first bad entry, so it must return the
same arrays or raise the same :class:`LoadError` message as this copy, which
is kept unchanged for ``tests/test_model.py`` to compare against.
``_parse_json`` is a verbatim copy of the library's, so the reference shares
no private code with what it checks.
"""

import json
import math

from minmaxlp.errors import LoadError
from minmaxlp.model import LinearProgram, Sense, validate


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


def _require_vector(value, where: str) -> list[float]:
    if not isinstance(value, list):
        raise LoadError(f"{where}: expected an array of numbers")
    return [_require_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


def load_lp(text: bytes | str) -> LinearProgram:
    doc = _parse_json(text)
    if not isinstance(doc, dict):
        raise LoadError("top level: expected a JSON object")

    for key in ("dimension", "A", "b", "objective", "sense"):
        if key not in doc:
            raise LoadError(f'missing field "{key}"')

    dimension = doc["dimension"]
    if isinstance(dimension, bool) or not isinstance(dimension, int):
        raise LoadError("dimension: expected an integer")

    raw_a = doc["A"]
    if not isinstance(raw_a, list):
        raise LoadError("A: expected an array of rows")
    rows = []
    for i, row in enumerate(raw_a):
        if not isinstance(row, list):
            raise LoadError(f"A[{i}]: expected an array of numbers")
        rows.append([_require_number(v, f"A[{i}][{j}]") for j, v in enumerate(row)])
        if len(rows[-1]) != dimension:
            raise LoadError(f"A[{i}]: expected {dimension} entries, got {len(rows[-1])}")
    if not rows:
        raise LoadError("A: must have at least one row")

    b = _require_vector(doc["b"], "b")
    if len(b) != len(rows):
        raise LoadError(f"b: expected {len(rows)} entries (one per row of A), got {len(b)}")
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

    lp = LinearProgram(dimension=dimension, A=rows, b=b, c=c, sense=sense, name=name)
    violations = validate(lp)
    if violations:
        raise LoadError("; ".join(violations))
    return lp
