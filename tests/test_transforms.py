"""Translation and rotation tests: exact small cases plus randomized
orthogonality / round-trip properties.  The translation and the rotation of
a program are checked through ``prepare``, the one path that applies them."""

import numpy as np
import pytest

from minmaxlp import LinearProgram
from minmaxlp.errors import TransformError
from minmaxlp.reduction import prepare
from minmaxlp.transforms import (
    HouseholderRotation,
    ProblemTransform,
    apply_rotation,
    recover_solution,
    rotation_to_last_axis,
)


def square_lp(c=(1, 1)):
    return LinearProgram(
        dimension=2,
        A=[[1, 0], [-1, 0], [0, 1], [0, -1]],
        b=[1, 1, 1, 1],
        c=c,
    )


def duals(prob):
    """The dual points behind a support problem: (G, -h) side by side."""
    return np.column_stack((prob.G, -prob.h))


class TestTranslation:
    # c = e_d needs no rotation, so the dual points are -A_i / (b - A p0)_i

    def test_shifts_offsets(self):
        lp = square_lp(c=(0, 1))
        prob, transform = prepare(lp, np.array([0.5, 0.25]))
        offsets = np.array([0.5, 1.5, 0.75, 1.25])
        np.testing.assert_allclose(duals(prob), -lp.A / offsets[:, None])
        np.testing.assert_array_equal(transform.p0, [0.5, 0.25])

    def test_corner_square(self):
        lp = LinearProgram(dimension=2, A=[[1, 0], [0, 1], [-1, 0], [0, -1]], b=[2, 2, 0, 0], c=[0, 1])
        prob, _ = prepare(lp, np.array([1.0, 1.0]))
        np.testing.assert_allclose(duals(prob), -lp.A)

    def test_zero_shift_when_origin_already_inside(self):
        lp = square_lp(c=(0, 1))
        prob, _ = prepare(lp, np.zeros(2))
        np.testing.assert_array_equal(duals(prob), -lp.A / lp.b[:, None])

    def test_boundary_point_rejected_naming_row(self):
        with pytest.raises(TransformError, match="row 0"):
            prepare(square_lp(), np.array([1.0, 0.0]))

    def test_exterior_point_rejected(self):
        with pytest.raises(TransformError):
            prepare(square_lp(), np.array([3.0, 0.0]))

    def test_wrong_length_rejected(self):
        with pytest.raises(TransformError):
            prepare(square_lp(), np.array([0.0, 0.0, 0.0]))


class TestRotation:
    def test_quarter_turn_in_2d(self):
        rotation = rotation_to_last_axis(np.array([1.0, 0.0]))
        np.testing.assert_allclose(rotation.matrix, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(apply_rotation(rotation, np.array([1.0, 0.0])), [0.0, 1.0], atol=1e-15)

    def test_axis_is_unit(self):
        rotation = rotation_to_last_axis(np.array([3.0, 4.0]))
        assert np.linalg.norm(rotation.u_hat) == pytest.approx(1.0, abs=1e-12)

    def test_aligned_objective_is_identity(self):
        rotation = rotation_to_last_axis(np.array([0.0, 0.0, 2.5]))
        assert rotation.u_hat is None
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(apply_rotation(rotation, v), v)

    def test_opposed_objective(self):
        # c = -e_d maps to a half-turn: diag(-1, 1, ..., 1, -1)
        rotation = rotation_to_last_axis(np.array([0.0, 0.0, -1.0]))
        np.testing.assert_allclose(rotation.matrix, np.diag([-1.0, 1.0, -1.0]), atol=1e-15)

    def test_zero_objective_rejected(self):
        with pytest.raises(TransformError, match="nonzero"):
            rotation_to_last_axis(np.zeros(3))

    def test_single_coordinate_rejected(self):
        with pytest.raises(TransformError, match="two coordinates"):
            rotation_to_last_axis(np.array([1.0]))

    def test_sends_objective_to_last_axis(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            c = rng.standard_normal(d) * 10.0 ** rng.integers(-2, 3)
            if np.linalg.norm(c) < 1e-8:
                continue
            rotation = rotation_to_last_axis(c)
            image = apply_rotation(rotation, c)
            target = np.zeros(d)
            target[-1] = np.linalg.norm(c)
            np.testing.assert_allclose(image, target, atol=1e-9 * (1 + np.linalg.norm(c)))

    def test_orthogonal_with_unit_determinant(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            rotation = rotation_to_last_axis(rng.standard_normal(d))
            R = rotation.matrix
            np.testing.assert_allclose(R @ R.T, np.eye(d), atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)

    def test_matrix_agrees_with_implicit_application(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            rotation = rotation_to_last_axis(rng.standard_normal(d))
            X = rng.standard_normal((4, d))
            np.testing.assert_allclose(apply_rotation(rotation, X), X @ rotation.matrix.T, atol=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            rotation = rotation_to_last_axis(rng.standard_normal(d))
            x = rng.standard_normal(d)
            back = apply_rotation(rotation, apply_rotation(rotation, x), inverse=True)
            np.testing.assert_allclose(back, x, atol=1e-12)


class TestRotateProblem:
    def test_single_row_example(self):
        # x <= 1 with c = e_1 turns into y_2 <= 1: dual point (0, -1)
        lp = LinearProgram(dimension=2, A=[[1, 0]], b=[1], c=[1, 0])
        prob, transform = prepare(lp, np.zeros(2))
        np.testing.assert_allclose(duals(prob), [[0.0, -1.0]], atol=1e-15)
        np.testing.assert_allclose(apply_rotation(transform.rotation, lp.c), [0.0, 1.0], atol=1e-15)

    def test_identity_rotation_preserves_problem(self):
        lp = LinearProgram(dimension=2, A=[[1, 2]], b=[1], c=[0, 3])
        prob, transform = prepare(lp, np.zeros(2))
        assert transform.rotation.u_hat is None
        np.testing.assert_array_equal(duals(prob), -lp.A)

    def test_feasibility_preserved(self):
        # the dual point q_i of row i meets the rotated point R x at
        # q_i . R x = -(A_i . x) / b_i
        rng = np.random.default_rng(12)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, 8))
            lp = LinearProgram(
                dimension=d,
                A=rng.standard_normal((n, d)),
                b=rng.random(n) + 0.5,
                c=rng.standard_normal(d),
            )
            prob, transform = prepare(lp, np.zeros(d))
            x = rng.standard_normal(d)
            np.testing.assert_allclose(
                duals(prob) @ apply_rotation(transform.rotation, x), -(lp.A @ x) / lp.b, atol=1e-9
            )

    def test_objective_lands_on_last_axis(self):
        # a minimize objective is flipped first, so -c lands on +e_d
        for sense, sign in (("maximize", 1.0), ("minimize", -1.0)):
            lp = LinearProgram(dimension=2, A=square_lp().A, b=square_lp().b, c=[1, 1], sense=sense)
            _, transform = prepare(lp, np.zeros(2))
            rotated = apply_rotation(transform.rotation, sign * lp.c)
            np.testing.assert_allclose(rotated[:-1], 0.0, atol=1e-12)
            assert rotated[-1] == pytest.approx(np.sqrt(2.0))


def reduced(transform, x):
    """The forward map y = R (x - p0) that recover_solution undoes."""
    return apply_rotation(transform.rotation, x - transform.p0)


class TestRecovery:
    def test_round_trip_through_both_maps(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            transform = ProblemTransform(
                rotation=rotation_to_last_axis(rng.standard_normal(d)),
                p0=rng.standard_normal(d),
            )
            x = rng.standard_normal(d)
            np.testing.assert_allclose(recover_solution(transform, reduced(transform, x)), x, atol=1e-12)

    def test_p0_is_a_readonly_copy(self):
        p0 = np.array([1.0, 2.0])
        transform = ProblemTransform(HouseholderRotation(d=2, u_hat=None), p0)
        p0[0] = 5.0
        np.testing.assert_array_equal(transform.p0, [1.0, 2.0])
        with pytest.raises(ValueError):
            transform.p0[0] = 5.0

    def test_objective_value_transfers(self):
        """c . x equals the rotated objective against the transformed point,
        plus the constant picked up by the translation."""
        rng = np.random.default_rng(14)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            c = rng.standard_normal(d)
            if np.linalg.norm(c) < 1e-8:
                continue
            p0 = rng.standard_normal(d)
            rotation = rotation_to_last_axis(c)
            transform = ProblemTransform(rotation, p0)
            x = rng.standard_normal(d)
            y = reduced(transform, x)
            c_rot = apply_rotation(rotation, c)
            assert c_rot @ y + c @ p0 == pytest.approx(c @ x, abs=1e-9)

    def test_translation_only(self):
        transform = ProblemTransform(HouseholderRotation(d=2, u_hat=None), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(recover_solution(transform, np.zeros(2)), [1.0, 1.0])

    def test_identity_transform(self):
        transform = ProblemTransform(HouseholderRotation(d=3, u_hat=None), np.zeros(3))
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(reduced(transform, x), x)
        np.testing.assert_array_equal(recover_solution(transform, x), x)
