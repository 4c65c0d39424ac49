"""Validation and JSON round-trip tests for the LP / solution types."""

import json

import numpy as np
import pytest

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
