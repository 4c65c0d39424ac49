"""Validation and JSON round-trip tests for the LP / solution types."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import load_reference
from minmaxlp import (
    LinearProgram,
    LoadError,
    Sense,
    Solution,
    SolutionStatus,
    load_lp,
    load_solution,
    save_lp,
    save_solution,
    solve,
    validate,
)


def square_lp():
    # unit square centered at the origin, maximize x + y
    return LinearProgram(
        dimension=2,
        A=[[1, 0], [-1, 0], [0, 1], [0, -1]],
        b=[1, 1, 1, 1],
        c=[1, 1],
    )


class TestValidate:
    def test_well_formed(self):
        assert validate(square_lp()) == ()

    def test_row_count_mismatch(self):
        lp = LinearProgram(dimension=2, A=[[1, 0], [0, 1], [1, 1]], b=[1, 2], c=[1, 1])
        violations = validate(lp)
        assert violations
        assert any(v.startswith("b:") for v in violations)

    def test_dimension_one_rejected(self):
        lp = LinearProgram(dimension=1, A=[[1]], b=[1], c=[1])
        assert any("at least 2" in v for v in validate(lp))

    def test_column_mismatch(self):
        lp = LinearProgram(dimension=3, A=[[1, 0], [0, 1]], b=[1, 1], c=[1, 1, 1])
        assert any(v.startswith("A:") for v in validate(lp))

    def test_nonfinite_entry(self):
        lp = LinearProgram(dimension=2, A=[[1, 0], [0, np.inf]], b=[1, 1], c=[1, 1])
        assert any("finite" in v for v in validate(lp))

    def test_numpy_integer_dimension(self):
        """Any integer type but bool is a dimension, stored as an int: the
        program solves and saves as with a Python int."""
        plain = square_lp()
        want = solve(plain)
        for dimension in (np.int64(2), np.int32(2), np.uint8(2)):
            lp = LinearProgram(dimension=dimension, A=plain.A, b=plain.b, c=plain.c)
            assert type(lp.dimension) is int and validate(lp) == ()
            assert save_lp(lp) == save_lp(plain)
            got = solve(lp)
            assert got.status is want.status is SolutionStatus.OPTIMAL
            assert save_solution(got) == save_solution(want)
        lp = LinearProgram(dimension=np.True_, A=plain.A, b=plain.b, c=plain.c)
        assert validate(lp) == ("dimension: must be an integer",)

    def test_reports_every_violation(self):
        lp = LinearProgram(dimension=1, A=[[1, 2]], b=[1, 2], c=[np.nan])
        assert len(validate(lp)) >= 3


class TestLoadLP:
    def test_minimal(self):
        lp = load_lp('{"dimension": 2, "A": [[1, 0]], "b": [1], "objective": [0, 1], "sense": "maximize"}')
        assert lp.n == 1
        assert lp.sense is Sense.MAXIMIZE
        np.testing.assert_array_equal(lp.A, [[1.0, 0.0]])

    def test_missing_field_named(self):
        with pytest.raises(LoadError, match='"b"'):
            load_lp('{"dimension": 2, "A": [[1, 0]], "objective": [0, 1], "sense": "maximize"}')

    def test_bad_entry_named(self):
        text = '{"dimension": 2, "A": [[1, "x"]], "b": [1], "objective": [0, 1], "sense": "maximize"}'
        with pytest.raises(LoadError, match=r"A\[0\]\[1\]"):
            load_lp(text)

    def test_bad_sense(self):
        with pytest.raises(LoadError, match="sense"):
            load_lp('{"dimension": 2, "A": [[1, 0]], "b": [1], "objective": [0, 1], "sense": "max"}')

    def test_invalid_json(self):
        with pytest.raises(LoadError, match="invalid JSON"):
            load_lp("{not json")

    def test_non_utf8_bytes(self):
        text = b"\xff\xfe" + '{"dimension": 2}'.encode("utf-16-le")
        with pytest.raises(LoadError, match="UTF-8"):
            load_lp(text)

    def test_bool_is_not_a_number(self):
        text = '{"dimension": 2, "A": [[1, true]], "b": [1], "objective": [0, 1], "sense": "maximize"}'
        with pytest.raises(LoadError, match=r"A\[0\]\[1\]"):
            load_lp(text)

    def test_integer_beyond_float_range_is_a_load_error(self):
        # past the float range, then past the digits that int() will parse
        for digits, message in ((400, r"b\[0\]: entries must be finite"), (5000, "invalid JSON")):
            text = ('{"dimension": 2, "A": [[1, 0]], "b": [1%s], "objective": [0, 1], '
                    '"sense": "maximize"}' % ("0" * digits))
            with pytest.raises(LoadError, match=message):
                load_lp(text)

    def test_arrays_are_readonly(self):
        lp = square_lp()
        with pytest.raises(ValueError):
            lp.A[0, 0] = 5.0


class TestSolutionJSON:
    def test_optimal_fields(self):
        sol = Solution(
            status=SolutionStatus.OPTIMAL,
            x=[0.5, 1.0],
            objective=1.5,
            residual=0.0,
            interior_point=[0.0, 0.0],
        )
        doc = json.loads(save_solution(sol))
        assert list(doc) == ["status", "x", "objective", "residual", "interior_point"]
        assert doc["status"] == "optimal"

    def test_unbounded_has_no_x(self):
        doc = json.loads(save_solution(Solution(status=SolutionStatus.UNBOUNDED)))
        assert list(doc) == ["status"]

    def test_round_trip(self):
        sol = Solution(status=SolutionStatus.OPTIMAL, x=[1.0, 2.0], objective=3.0, residual=1e-12)
        back = load_solution(save_solution(sol))
        assert back.status is sol.status
        np.testing.assert_array_equal(back.x, sol.x)
        assert back.objective == sol.objective
        assert back.residual == sol.residual
        assert back.interior_point is None

    def test_unknown_status_rejected(self):
        with pytest.raises(LoadError, match="status"):
            load_solution('{"status": "maybe"}')

    def test_integer_beyond_float_range_is_a_load_error(self):
        with pytest.raises(LoadError, match="objective"):
            load_solution('{"status": "optimal", "objective": 1%s}' % ("0" * 400))
        with pytest.raises(LoadError, match=r"x\[1\]"):
            load_solution('{"status": "optimal", "x": [0, -1%s]}' % ("0" * 400))

    def test_non_utf8_bytes(self):
        text = b"\xff\xfe" + '{"status": "optimal"}'.encode("utf-16-le")
        with pytest.raises(LoadError, match="UTF-8"):
            load_solution(text)


def test_lp_round_trip_is_bit_identical():
    """save -> load -> save must reproduce the bytes exactly."""
    rng = np.random.default_rng(7)
    for trial in range(50):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 12))
        lp = LinearProgram(
            dimension=d,
            A=rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4),
            b=rng.standard_normal(n),
            c=rng.standard_normal(d),
            sense=Sense.MINIMIZE if trial % 2 else Sense.MAXIMIZE,
            name=f"trial-{trial}" if trial % 3 == 0 else None,
        )
        first = save_lp(lp)
        again = save_lp(load_lp(first))
        assert first == again


def test_lp_round_trip_preserves_values():
    rng = np.random.default_rng(11)
    lp = LinearProgram(dimension=3, A=rng.standard_normal((5, 3)), b=rng.random(5), c=rng.standard_normal(3))
    back = load_lp(save_lp(lp))
    np.testing.assert_array_equal(back.A, lp.A)
    np.testing.assert_array_equal(back.b, lp.b)
    np.testing.assert_array_equal(back.c, lp.c)
    assert back.sense is lp.sense
    assert back.dimension == lp.dimension


def _rarely(draw, one_in: int) -> bool:
    # hypothesis leans to small integers, so the common case is the small one
    return draw(st.integers(0, one_in - 1)) == one_in - 1


# numbers that load: floats, and integers up to and beyond int64 whose
# conversion to float must match float()
_finite = st.one_of(
    st.integers(-10, 10),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**80), 2**80),
    st.integers(10**300, 2**1024 - 2**971) | st.integers(-(2**1024 - 2**971), -(10**300)),
)
# values that do not: other JSON types, the NaN/Infinity literals and
# integers on both sides of the edge of the float range
_odd = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.lists(_finite, max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(2**1024 - 2**971, 2**1024 + 2**1000),
    st.integers(-(2**1024 + 2**1000), -(2**1024 - 2**971)),
)


@st.composite
def _entry(draw):
    return draw(_odd) if _rarely(draw, 40) else draw(_finite)


@st.composite
def _documents(draw):
    dimension = draw(st.sampled_from([1, 0, -1, True, 2.0, "2"] if _rarely(draw, 8) else [2, 3]))
    width = dimension if type(dimension) is int and dimension >= 0 else 2
    rows = 0 if _rarely(draw, 20) else draw(st.integers(1, 4))

    def vector(size):
        if _rarely(draw, 10):  # ragged
            size = draw(st.integers(0, 4))
        return draw(st.lists(_entry(), min_size=size, max_size=size))

    def field(make):
        return draw(_odd) if _rarely(draw, 15) else make()

    doc = {
        "dimension": dimension,
        "A": field(lambda: [field(lambda: vector(width)) for _ in range(rows)]),
        "b": field(lambda: vector(rows)),
        "objective": field(lambda: vector(width)),
        "sense": draw(st.sampled_from(["max", None] if _rarely(draw, 10)
                                      else ["maximize", "minimize"])),
    }
    if draw(st.booleans()):
        doc["name"] = draw(st.sampled_from(["lp", None, 3]))
    for key in list(doc):
        if _rarely(draw, 30):
            del doc[key]
    return json.dumps(doc)


def _outcome(load, text):
    try:
        lp = load(text)
    except LoadError as exc:
        return "LoadError", str(exc)
    return ("loaded", lp.dimension, lp.A.shape, lp.A.tobytes(), lp.b.shape, lp.b.tobytes(),
            lp.c.shape, lp.c.tobytes(), lp.sense, lp.name)


def _doc(**fields):
    doc = {"dimension": 2, "A": [[1, 0], [0, 1]], "b": [1, 2], "objective": [0, 1],
           "sense": "maximize"}
    return json.dumps({**doc, **fields})


@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_documents())
# checks after A's, which the drawn documents reach less often
@example(_doc(b=[1, True]))
@example(_doc(b=[math.nan, 1]))
@example(_doc(b=["1", 2]))
@example(_doc(b=[1, 2**1024]))
@example(_doc(objective=[0, -(2**1024)]))
@example(_doc(objective=[0, 1, 2]))
@example(_doc(sense="max"))
@example(_doc(sense=None))
def test_load_lp_matches_the_per_entry_reference(text):
    """load_lp checks and converts each array as a whole and walks entry by
    entry only to name a bad entry; it must give the arrays, or the
    LoadError message, of the loader that converts every entry with
    float()."""
    assert _outcome(load_lp, text) == _outcome(load_reference.load_lp, text)
