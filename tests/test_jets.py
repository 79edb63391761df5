"""Jet arithmetic against scalar polynomial oracles and ring properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fanning import (
    JetError,
    MatrixJet,
    jet_add,
    jet_inverse,
    jet_mul,
)
from fanning.jets import horner, jet_solve, linear_taylor
from conftest import (
    jet_derivative,
    jet_inverse_reference,
    jet_mul_reference,
    random_jet,
    truncated,
)


def poly_add_oracle(a, b):
    """Entrywise scalar polynomial addition."""
    m = min(a.order, b.order)
    return [a.coeffs[i] + b.coeffs[i] for i in range(m + 1)]


def poly_mul_oracle(a, b):
    """Entrywise scalar polynomial-matrix product, truncated afterwards."""
    full = [
        np.zeros((a.rows, b.cols)) for _ in range(a.order + b.order + 1)
    ]
    for i in range(a.order + 1):
        for j in range(b.order + 1):
            full[i + j] = full[i + j] + a.coeffs[i] @ b.coeffs[j]
    return full[: min(a.order, b.order) + 1]


class TestLayout:
    @pytest.mark.parametrize(
        "coeffs",
        [(np.eye(2), np.eye(3)), (np.ones(2), np.ones(2)), ()],
        ids=["mixed-shape", "non-matrix", "empty"],
    )
    def test_invalid_coefficients_rejected(self, coeffs):
        with pytest.raises(JetError):
            MatrixJet(0.0, coeffs)

    def test_coefficients_are_one_read_only_array(self, rng):
        source = rng.standard_normal((5, 2, 3))
        a = MatrixJet(0.0, source)
        assert isinstance(a.coeffs, np.ndarray)
        assert a.coeffs.shape == (5, 2, 3) and a.coeffs.dtype == np.float64
        with pytest.raises(ValueError):
            a.coeffs[1, 0, 0] = 1.0
        source[1, 0, 0] = 1e9
        assert a.coeffs[1, 0, 0] != 1e9


class TestAdd:
    def test_additive_identity(self, rng):
        a = random_jet(2, 3, 3, rng)
        zero = MatrixJet(0.0, np.zeros((4, 2, 3)))
        out = jet_add(a, zero)
        for c, expected in zip(out.coeffs, a.coeffs):
            np.testing.assert_array_equal(c, expected)

    def test_cancellation(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        plus = MatrixJet(0.0, (np.eye(2), n))
        minus = MatrixJet(0.0, (np.eye(2), -n))
        out = jet_add(plus, minus)
        np.testing.assert_array_equal(out.coeffs[0], 2 * np.eye(2))
        np.testing.assert_array_equal(out.coeffs[1], np.zeros((2, 2)))

    def test_matches_polynomial_oracle(self, rng):
        a = random_jet(3, 2, 3, rng)
        b = random_jet(3, 2, 3, rng)
        out = jet_add(a, b)
        for c, expected in zip(out.coeffs, poly_add_oracle(a, b)):
            np.testing.assert_array_equal(c, expected)

    def test_shape_mismatch(self, rng):
        with pytest.raises(JetError):
            jet_add(random_jet(2, 2, 1, rng), random_jet(3, 3, 1, rng))

    def test_base_time_mismatch(self, rng):
        with pytest.raises(JetError):
            jet_add(random_jet(2, 2, 1, rng), random_jet(2, 2, 1, rng, base_time=1.0))

    def test_truncates_to_min_order(self, rng):
        out = jet_add(random_jet(2, 2, 4, rng), random_jet(2, 2, 2, rng))
        assert out.order == 2


class TestMul:
    def test_multiplicative_identity(self, rng):
        a = random_jet(2, 2, 3, rng)
        eye = MatrixJet.identity(2, order=3)
        out = jet_mul(a, eye)
        for c, expected in zip(out.coeffs, a.coeffs):
            np.testing.assert_allclose(c, expected, rtol=0, atol=0)

    def test_nilpotent_product_exact(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        plus = MatrixJet(0.0, (np.eye(2), n))
        minus = MatrixJet(0.0, (np.eye(2), -n))
        out = jet_mul(plus, minus)
        np.testing.assert_array_equal(out.coeffs[0], np.eye(2))
        np.testing.assert_array_equal(out.coeffs[1], np.zeros((2, 2)))

    def test_matches_polynomial_oracle(self, rng):
        a = random_jet(2, 3, 4, rng)
        b = random_jet(3, 2, 4, rng)
        out = jet_mul(a, b)
        for c, expected in zip(out.coeffs, poly_mul_oracle(a, b)):
            np.testing.assert_allclose(c, expected, atol=1e-14)
        # A constant factor on either side is one broadcast matmul on the stack.
        right = MatrixJet(0.0, [b.value()] + 4 * [np.zeros(b.shape)])
        left = MatrixJet(0.0, [a.value()] + 4 * [np.zeros(a.shape)])
        for x, y, broadcast in (
            (a, right, a.coeffs @ right.value()),
            (left, b, left.value() @ b.coeffs),
        ):
            out = jet_mul(x, y)
            for c, expected in zip(out.coeffs, poly_mul_oracle(x, y)):
                np.testing.assert_allclose(c, expected, atol=1e-14)
            np.testing.assert_array_equal(broadcast, out.coeffs)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(JetError):
            jet_mul(random_jet(2, 3, 1, rng), random_jet(2, 3, 1, rng))

    @pytest.mark.parametrize("orders", [(0, 0), (1, 4), (6, 3), (8, 8), (12, 12)])
    def test_term_order_matches_reference_loop(self, orders, rng):
        # 1 x 1 blocks: every product is exact, so only the summation order
        # can change a bit, and the reference fixes it.
        a = random_jet(1, 1, orders[0], rng)
        b = random_jet(1, 1, orders[1], rng)
        np.testing.assert_array_equal(jet_mul(a, b).coeffs, jet_mul_reference(a, b))
        # Larger blocks: within 1e-15 of the magnitude bound sum_i |a_i| |b_(j-i)|.
        a = random_jet(3, 4, orders[0], rng)
        b = random_jet(4, 2, orders[1], rng)
        bound = jet_mul_reference(
            MatrixJet(0.0, np.abs(a.coeffs)), MatrixJet(0.0, np.abs(b.coeffs))
        )
        error = np.abs(jet_mul(a, b).coeffs - jet_mul_reference(a, b))
        assert np.all(error <= 1e-15 * bound)


class TestInverse:
    def test_identity(self):
        eye = MatrixJet.identity(3, order=2)
        out = jet_inverse(eye)
        for c, expected in zip(out.coeffs, eye.coeffs):
            np.testing.assert_array_equal(c, expected)

    def test_nilpotent_geometric_series(self):
        n = np.zeros((3, 3))
        n[0, 1] = n[1, 2] = 1.0
        a = MatrixJet(0.0, (np.eye(3), n, np.zeros((3, 3)), np.zeros((3, 3))))
        out = jet_inverse(a)
        for i, c in enumerate(out.coeffs):
            np.testing.assert_allclose(
                c, (-1.0) ** i * np.linalg.matrix_power(n, i), atol=1e-15
            )

    def test_residual_is_identity_jet(self, rng):
        a = random_jet(3, 3, 4, rng)
        residual = jet_mul(a, jet_inverse(a))
        np.testing.assert_allclose(residual.coeffs[0], np.eye(3), atol=1e-10)
        for c in residual.coeffs[1:]:
            assert np.max(np.abs(c)) < 1e-10

    def test_two_sided(self, rng):
        a = random_jet(3, 3, 4, rng)
        left = jet_mul(jet_inverse(a), a)
        np.testing.assert_allclose(left.coeffs[0], np.eye(3), atol=1e-10)
        for c in left.coeffs[1:]:
            assert np.max(np.abs(c)) < 1e-10

    def test_singular_leading_coefficient(self):
        a = MatrixJet(0.0, (np.zeros((2, 2)), np.eye(2)))
        with pytest.raises(np.linalg.LinAlgError):
            jet_inverse(a)

    def test_non_square(self, rng):
        with pytest.raises(JetError):
            jet_inverse(random_jet(2, 3, 1, rng))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_leading_coefficient(self, bad):
        c0 = np.eye(2)
        c0[0, 0] = bad
        a = MatrixJet(0.0, (c0, np.eye(2)))
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            jet_inverse(a)

    def test_overflowing_inverse_of_constant_term(self):
        # Well conditioned, but its inverse is beyond the float range.
        a = MatrixJet(0.0, (1e-310 * np.eye(2), np.zeros((2, 2))))
        with pytest.raises(np.linalg.LinAlgError, match="overflowed at order 0"):
            jet_inverse(a)


def shifted_jet(dim, order, rng, base_time=0.0):
    """Random square jet whose constant term is kept well away from singular."""
    a = random_jet(dim, dim, order, rng, base_time=base_time)
    return jet_add(a, 4.0 * MatrixJet.identity(dim, base_time, order))


def transposed(a):
    return MatrixJet(a.base_time, np.swapaxes(a.coeffs, -1, -2))


class TestSolve:
    @pytest.mark.parametrize("dims", [(1, 1), (3, 2), (4, 4)])
    def test_left_and_right_residuals(self, dims, rng):
        dim, cols = dims
        a = shifted_jet(dim, 6, rng)
        b = random_jet(dim, cols, 6, rng)
        left = jet_mul(a, jet_solve(a, b, None)).coeffs - b.coeffs
        assert np.max(np.abs(left)) < 1e-12 * (1.0 + np.max(np.abs(b.coeffs)))
        # x a = c, solved on transposes: a^T x^T = c^T.
        c = random_jet(cols, dim, 6, rng)
        x = transposed(jet_solve(transposed(a), transposed(c), None))
        right = jet_mul(x, a).coeffs - c.coeffs
        assert np.max(np.abs(right)) < 1e-12 * (1.0 + np.max(np.abs(c.coeffs)))

    @pytest.mark.parametrize("dims", [(1, 1), (2, 3), (6, 2), (6, 6)])
    def test_agrees_with_product_by_the_inverse(self, dims, rng):
        dim, cols = dims
        a = shifted_jet(dim, 8, rng)
        b = random_jet(dim, cols, 8, rng)
        expected = jet_mul_reference(jet_inverse_reference(a), b)
        got = jet_solve(a, b, None).coeffs
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_given_inverse_of_the_constant_term(self, rng):
        a = shifted_jet(3, 5, rng)
        b = random_jet(3, 2, 5, rng)
        inverse = np.linalg.inv(a.value())
        np.testing.assert_array_equal(
            jet_solve(a, b, inverse).coeffs, jet_solve(a, b, None).coeffs
        )

    def test_truncates_to_the_smaller_order(self, rng):
        a = shifted_jet(2, 6, rng)
        b = random_jet(2, 1, 3, rng)
        assert jet_solve(a, b, None).order == 3
        assert jet_solve(truncated(a, 2), b, None).order == 2

    @pytest.mark.parametrize("dims", [(1, 1), (3, 1), (4, 2)])
    def test_coefficients_do_not_depend_on_higher_orders(self, dims, rng):
        dim, cols = dims
        a = shifted_jet(dim, 9, rng)
        b = random_jet(dim, cols, 9, rng)
        full = jet_solve(a, b, None).coeffs
        for order in range(9):
            low = jet_solve(truncated(a, order), truncated(b, order), None).coeffs
            np.testing.assert_array_equal(low, full[: order + 1])

    @pytest.mark.parametrize("dims", [(1, 1), (3, 2), (4, 4)])
    def test_batch_equals_its_samples(self, dims, rng):
        dim, cols = dims
        times = TestBatch.TIMES
        a = [shifted_jet(dim, 7, rng, base_time=t) for t in times]
        b = [random_jet(dim, cols, 7, rng, base_time=t) for t in times]
        batched = jet_solve(TestBatch.stack(a), TestBatch.stack(b), None)
        TestBatch.assert_stacked(
            batched.coeffs, [jet_solve(x, y, None).coeffs for x, y in zip(a, b)]
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_leading_coefficient(self, bad):
        c0 = np.eye(2)
        c0[1, 0] = bad
        a = MatrixJet(0.0, (c0, np.eye(2)))
        b = MatrixJet(0.0, (np.ones((2, 1)), np.ones((2, 1))))
        with pytest.raises(np.linalg.LinAlgError, match="non-finite leading coefficient"):
            jet_solve(a, b, np.eye(2))

    def test_overflow_names_its_order(self):
        # x_1 = -1e200 stays finite; x_2 = 1e400 does not.
        a = MatrixJet(0.0, (np.eye(2), 1e200 * np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))))
        b = MatrixJet(0.0, (np.ones((2, 1)), np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1))))
        with pytest.raises(np.linalg.LinAlgError, match="jet solve overflowed at order 2$"):
            jet_solve(a, b, None)

    def test_non_square(self, rng):
        with pytest.raises(JetError):
            jet_solve(random_jet(2, 3, 1, rng), random_jet(2, 1, 1, rng), None)


class TestLinearTaylor:
    @pytest.mark.parametrize("order", [0, 1, 5, 12])
    def test_constant_coefficient_gives_exponential_series(self, order, rng):
        y0 = rng.standard_normal((4, 3))
        c = rng.standard_normal((3, 3))
        stack = np.zeros((order + 1, 3, 3))
        stack[0] = c
        series = linear_taylor(y0, stack)
        assert series.shape == (order + 2, 4, 3)
        for m, y in enumerate(series):
            expected = y0 @ np.linalg.matrix_power(c, m) / math.factorial(m)
            scale = np.max(np.abs(expected))
            np.testing.assert_allclose(y, expected, rtol=1e-12, atol=1e-12 * scale)

    def test_series_solves_its_equation(self, rng):
        c = random_jet(3, 3, 6, rng)
        y = MatrixJet(0.0, linear_taylor(rng.standard_normal((2, 3)), c.coeffs))
        lhs = jet_derivative(y)
        rhs = jet_mul(y, c)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-13, atol=1e-13)


class TestDerivative:
    def test_constant_jet(self):
        out = jet_derivative(MatrixJet.identity(2, order=2))
        for c in out.coeffs:
            np.testing.assert_array_equal(c, np.zeros((2, 2)))

    def test_linear_jet(self):
        a = MatrixJet(0.0, (np.zeros((2, 2)), np.eye(2), np.zeros((2, 2))))
        out = jet_derivative(a)
        assert out.order == 1
        np.testing.assert_array_equal(out.coeffs[0], np.eye(2))

    def test_order_zero_rejected(self):
        with pytest.raises(JetError):
            jet_derivative(MatrixJet.identity(2))

    def test_leibniz(self, rng):
        a = random_jet(2, 2, 5, rng)
        b = random_jet(2, 2, 5, rng)
        lhs = jet_derivative(jet_mul(a, b))
        rhs = jet_add(
            jet_mul(jet_derivative(a), b), jet_mul(a, jet_derivative(b))
        )
        scale = 1.0 + max(np.max(np.abs(c)) for c in lhs.coeffs)
        for x, y in zip(lhs.coeffs, rhs.coeffs):
            assert np.max(np.abs(x - y)) / scale < 1e-10

    def test_derivative_accessor_factorial(self, rng):
        a = random_jet(2, 2, 4, rng)
        for i in range(5):
            np.testing.assert_array_equal(
                a.derivative_value(i), math.factorial(i) * a.coeffs[i]
            )


class TestEval:
    def test_at_base_time(self, rng):
        a = random_jet(2, 2, 3, rng, base_time=0.5)
        np.testing.assert_array_equal(horner(a.coeffs, 0.5 - a.base_time), a.coeffs[0])

    def test_constant_jet_everywhere(self, rng):
        c = rng.standard_normal((2, 2))
        a = MatrixJet(0.0, [c] + 3 * [np.zeros((2, 2))])
        np.testing.assert_array_equal(horner(a.coeffs, 17.0 - a.base_time), c)

    def test_degree_three_direct_oracle(self, rng):
        a = random_jet(2, 2, 3, rng)
        t = 0.7
        direct = sum(a.coeffs[i] * t**i for i in range(4))
        np.testing.assert_allclose(horner(a.coeffs, t - a.base_time), direct, atol=1e-14)


small_dims = st.integers(min_value=1, max_value=3)
small_orders = st.integers(min_value=0, max_value=3)


@st.composite
def square_jet_triples(draw):
    dim = draw(small_dims)
    order = draw(small_orders)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    gen = np.random.default_rng(seed)
    return tuple(
        MatrixJet(0.0, tuple(gen.uniform(-2, 2, (dim, dim)) for _ in range(order + 1)))
        for _ in range(3)
    )


@settings(max_examples=30, deadline=None)
@given(square_jet_triples())
def test_ring_associativity(jets):
    a, b, c = jets
    lhs = jet_mul(jet_mul(a, b), c)
    rhs = jet_mul(a, jet_mul(b, c))
    scale = 1.0 + max(np.max(np.abs(x)) for x in lhs.coeffs)
    for x, y in zip(lhs.coeffs, rhs.coeffs):
        assert np.max(np.abs(x - y)) / scale < 1e-12


@settings(max_examples=30, deadline=None)
@given(square_jet_triples())
def test_ring_distributivity(jets):
    a, b, c = jets
    lhs = jet_mul(a, jet_add(b, c))
    rhs = jet_add(jet_mul(a, b), jet_mul(a, c))
    scale = 1.0 + max(np.max(np.abs(x)) for x in lhs.coeffs)
    for x, y in zip(lhs.coeffs, rhs.coeffs):
        assert np.max(np.abs(x - y)) / scale < 1e-12


@settings(max_examples=30, deadline=None)
@given(square_jet_triples())
def test_inverse_residual_property(jets):
    a = jets[0]
    shifted = jet_add(a, 4.0 * MatrixJet.identity(a.rows, 0.0, a.order))
    if np.linalg.cond(shifted.coeffs[0]) > 1e6:
        return
    residual = jet_mul(shifted, jet_inverse(shifted))
    assert np.max(np.abs(residual.coeffs[0] - np.eye(a.rows))) < 1e-10
    for c in residual.coeffs[1:]:
        assert np.max(np.abs(c)) < 1e-10


class TestBatch:
    """A batch of 5 samples gives bitwise the stacked results of the samples one at a time."""

    TIMES = (0.0, 0.3, -0.2, 0.3, 1.5)

    @staticmethod
    def stack(jets):
        return MatrixJet(np.array(TestBatch.TIMES), np.array([j.coeffs for j in jets]))

    @staticmethod
    def samples(rows, cols, order, rng):
        return [random_jet(rows, cols, order, rng, base_time=t) for t in TestBatch.TIMES]

    @staticmethod
    def assert_stacked(batched, per_sample):
        expected = np.array(per_sample)
        assert batched.shape == expected.shape
        np.testing.assert_array_equal(batched, expected)

    @pytest.mark.parametrize("dims", [(1, 1), (2, 3), (3, 3)])
    def test_binary_and_unary_kernels(self, dims, rng):
        rows, cols = dims
        a = self.samples(rows, cols, 6, rng)
        b = self.samples(rows, cols, 4, rng)
        c = self.samples(cols, cols, 5, rng)
        ba, bb, bc = self.stack(a), self.stack(b), self.stack(c)
        assert ba.batch == (5,) and ba.order == 6 and ba.shape == dims
        self.assert_stacked(jet_add(ba, bb).coeffs, [jet_add(x, y).coeffs for x, y in zip(a, b)])
        self.assert_stacked(jet_mul(ba, bc).coeffs, [jet_mul(x, y).coeffs for x, y in zip(a, c)])
        self.assert_stacked(jet_derivative(ba).coeffs, [jet_derivative(x).coeffs for x in a])
        self.assert_stacked(truncated(ba, 2).coeffs, [truncated(x, 2).coeffs for x in a])
        self.assert_stacked(ba.value(), [x.value() for x in a])
        for i in range(7):
            self.assert_stacked(ba.derivative_value(i), [x.derivative_value(i) for x in a])
        t = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        self.assert_stacked(
            horner(ba.coeffs, t - ba.base_time),
            [horner(x.coeffs, s - x.base_time) for x, s in zip(a, t)],
        )
        self.assert_stacked(
            horner(ba.coeffs, t), [horner(x.coeffs, s) for x, s in zip(a, t)]
        )

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_inverse_and_linear_taylor(self, dim, rng):
        a = [
            jet_add(x, 3.0 * MatrixJet.identity(dim, x.base_time, x.order))
            for x in self.samples(dim, dim, 7, rng)
        ]
        batched = jet_inverse(self.stack(a))
        self.assert_stacked(batched.coeffs, [jet_inverse(x).coeffs for x in a])
        np.testing.assert_array_equal(batched.base_time, self.TIMES)
        y0 = rng.standard_normal((5, 2, dim))
        c = np.array([x.coeffs for x in a])
        self.assert_stacked(linear_taylor(y0, c), [linear_taylor(y, x) for y, x in zip(y0, c)])

    def test_batch_of_one_time_per_axis_entry(self, rng):
        a = self.stack(self.samples(2, 2, 2, rng))
        assert a.base_time.shape == (5,) and not a.base_time.flags.writeable
        eye = MatrixJet.identity(2, a.base_time, 2)
        assert eye.batch == (5,)
        np.testing.assert_array_equal(jet_mul(a, eye).coeffs, a.coeffs)

    @pytest.mark.parametrize(
        "base_time, shape",
        [
            (np.zeros(4), (5, 3, 2, 2)),
            (np.zeros(5), (3, 2, 2)),
            (0.0, (5, 3, 2, 2)),
            (np.zeros((5, 1)), (5, 3, 2, 2)),
        ],
        ids=["wrong-length", "unbatched-coefficients", "scalar-time", "extra-axis"],
    )
    def test_base_time_shape_must_match_the_batch(self, base_time, shape):
        with pytest.raises(JetError):
            MatrixJet(base_time, np.zeros(shape))

