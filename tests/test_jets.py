"""Jet arithmetic against scalar polynomial oracles and ring properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fanning import (
    JetError,
    MatrixJet,
    SingularLeadingCoefficientError,
    jet_add,
    jet_derivative,
    jet_eval,
    jet_inverse,
    jet_mul,
)
from conftest import random_jet


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
        zero = MatrixJet.zero(2, 3, order=3)
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
        right = MatrixJet.constant(b.value(), order=4)
        left = MatrixJet.constant(a.value(), order=4)
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
        with pytest.raises(SingularLeadingCoefficientError) as info:
            jet_inverse(a)
        assert info.value.condition > 1e8

    def test_condition_threshold_configurable(self):
        a = MatrixJet.constant(np.diag([1.0, 1e-5]), order=1)
        with pytest.raises(SingularLeadingCoefficientError):
            jet_inverse(a, condition_limit=1e4)
        jet_inverse(a, condition_limit=1e6)

    def test_non_square(self, rng):
        with pytest.raises(JetError):
            jet_inverse(random_jet(2, 3, 1, rng))


class TestDerivative:
    def test_constant_jet(self):
        out = jet_derivative(MatrixJet.constant(np.eye(2), order=2))
        for c in out.coeffs:
            np.testing.assert_array_equal(c, np.zeros((2, 2)))

    def test_linear_jet(self):
        a = MatrixJet(0.0, (np.zeros((2, 2)), np.eye(2), np.zeros((2, 2))))
        out = jet_derivative(a)
        assert out.order == 1
        np.testing.assert_array_equal(out.coeffs[0], np.eye(2))

    def test_order_zero_rejected(self):
        with pytest.raises(JetError):
            jet_derivative(MatrixJet.constant(np.eye(2)))

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
        np.testing.assert_array_equal(jet_eval(a, 0.5), a.coeffs[0])

    def test_constant_jet_everywhere(self, rng):
        c = rng.standard_normal((2, 2))
        a = MatrixJet.constant(c, order=3)
        np.testing.assert_array_equal(jet_eval(a, 17.0), c)

    def test_degree_three_direct_oracle(self, rng):
        a = random_jet(2, 2, 3, rng)
        t = 0.7
        direct = sum(a.coeffs[i] * t**i for i in range(4))
        np.testing.assert_allclose(jet_eval(a, t), direct, atol=1e-14)


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
    shifted = jet_add(a, MatrixJet.constant(4.0 * np.eye(a.rows), 0.0, a.order))
    if np.linalg.cond(shifted.coeffs[0]) > 1e6:
        return
    residual = jet_mul(shifted, jet_inverse(shifted))
    assert np.max(np.abs(residual.coeffs[0] - np.eye(a.rows))) < 1e-10
    for c in residual.coeffs[1:]:
        assert np.max(np.abs(c)) < 1e-10
