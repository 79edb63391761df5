"""Fundamental endomorphism family: F, D, P, H, K and their matrices."""

import math

import numpy as np
import pytest

from fanning import (
    NotNormalError,
    endomorphism_bundle,
    jacobi_matrix,
    maurer_cartan_pullback,
    nilpotent_matrix,
    normalized_frame_jet,
    ode_coefficients,
)
from fanning.invariants import _jacobi_direct, frame_reflection
from fanning.linalg import numeric_rank, span_distance
from conftest import (
    ALL_KN,
    ambient_endomorphisms,
    derivative_jet,
    eigenspace,
    pullback_by_solve,
    random_frame_jet,
    random_invertible,
    random_polynomial_curve,
    random_polynomial_matrix_curve,
    right_multiplied,
    standard_jet,
    tame_polynomial_curve,
)


def derivative_span(fj, count):
    """Matrix whose columns span A, A', ..., A^(count-1) at the base time."""
    blocks = [derivative_jet(fj, j).value() for j in range(count)]
    return np.hstack(blocks)


class TestFundamentalEndomorphism:
    def test_standard_jet_gives_nilpotent(self):
        for k, n in ((2, 1), (3, 2), (5, 1)):
            fj = standard_jet(k, n, k + 1)
            f = fj.fundamental_endomorphism
            np.testing.assert_array_equal(f.value(), nilpotent_matrix(k, n))

    def test_defining_relations(self, rng):
        k, n = 4, 2
        fj = random_frame_jet(k, n, k + 1, rng)
        f0 = fj.fundamental_endomorphism.value()
        assert np.max(np.abs(f0 @ fj.jet.value())) < 1e-9
        for i in range(1, k):
            lhs = f0 @ derivative_jet(fj, i).value()
            rhs = i * derivative_jet(fj, i - 1).value()
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_nilpotency_and_corank(self, rng):
        for k, n in ((2, 2), (3, 1), (4, 2)):
            fj = random_frame_jet(k, n, k + 1, rng)
            f0 = fj.fundamental_endomorphism.value()
            assert np.max(np.abs(np.linalg.matrix_power(f0, k))) < 1e-8
            top = np.linalg.matrix_power(f0, k - 1)
            assert numeric_rank(top) == n
            # image of F^(k-1) is the curve itself
            assert span_distance(top, fj.jet.value()) < 1e-8

    def test_ambient_equivariance(self, rng):
        k, n = 3, 2
        fj = random_frame_jet(k, n, k + 1, rng)
        t_matrix = random_invertible(k * n, rng)
        f_moved = fj.left_multiplied(t_matrix).fundamental_endomorphism.value()
        expected = t_matrix @ fj.fundamental_endomorphism.value() @ np.linalg.inv(t_matrix)
        np.testing.assert_allclose(f_moved, expected, atol=1e-8)

    def test_frame_change_invariance(self, rng):
        k, n = 3, 2
        curve = random_polynomial_curve(k, n, rng)
        x = random_polynomial_matrix_curve(n, 2, rng)
        t0 = 0.2
        f_a = curve.frame_jet(t0, k + 2).fundamental_endomorphism.value()
        changed = right_multiplied(curve, x).frame_jet(t0, k + 2)
        f_b = changed.fundamental_endomorphism.value()
        np.testing.assert_allclose(f_a, f_b, atol=1e-9)

    def test_fdot_f_is_minus_f(self, rng):
        for k, n in ((2, 2), (4, 1)):
            fj = random_frame_jet(k, n, k + 2, rng)
            f = fj.fundamental_endomorphism
            fdot = f.derivative_value(1)
            np.testing.assert_allclose(fdot @ f.value(), -f.value(), atol=1e-9)

    def test_flag_identities(self, rng):
        """Powers of F cut out the derivative flag."""
        k, n = 4, 2
        fj = random_frame_jet(k, n, k + 1, rng)
        f0 = fj.fundamental_endomorphism.value()
        for i in range(1, k):
            power = np.linalg.matrix_power(f0, k - i)
            flag = derivative_span(fj, i)
            assert numeric_rank(power) == i * n
            stacked = np.hstack([power, flag])
            assert numeric_rank(stacked) == i * n


class TestBundle:
    def test_standard_jet_bundle(self):
        k, n = 4, 2
        fj = standard_jet(k, n, k + 2)
        b = endomorphism_bundle(fj)
        expected_d = np.diag([-1.0] * (k - 1) * n + [1.0] * n)
        np.testing.assert_allclose(b.reflection, expected_d, atol=1e-12)
        np.testing.assert_allclose(b.jacobi, np.zeros((k * n, k * n)), atol=1e-12)
        np.testing.assert_allclose(
            b.horizontal.value(), derivative_jet(fj, k - 1).value(), atol=1e-12
        )

    def test_reflection_squares_to_identity(self, rng):
        for k, n in ((2, 1), (3, 2), (5, 2)):
            fj = random_frame_jet(k, n, k + 1, rng)
            b = endomorphism_bundle(fj)
            np.testing.assert_allclose(
                b.reflection @ b.reflection, np.eye(k * n), atol=1e-9
            )

    def test_projection_image_and_kernel(self, rng):
        k, n = 4, 2
        fj = random_frame_jet(k, n, k + 1, rng)
        b = ambient_endomorphisms(fj)
        np.testing.assert_allclose(
            b.projection @ b.projection, b.projection, atol=1e-9
        )
        vertical = derivative_span(fj, k - 1)
        np.testing.assert_allclose(b.projection @ vertical, vertical, atol=1e-8)
        assert np.max(np.abs(b.projection @ b.horizontal.value())) < 1e-8

    def test_k2_normal_frame_horizontal_is_derivative(self, rng):
        curve = random_polynomial_curve(2, 2, rng)
        nj = normalized_frame_jet(curve.frame_jet(0.1, 6))
        h = endomorphism_bundle(nj).horizontal
        np.testing.assert_allclose(
            h.value(), derivative_jet(nj, 1).value(), atol=1e-9
        )

    def test_pdot_swaps_vertical_and_horizontal(self, rng):
        k, n = 4, 2
        fj = random_frame_jet(k, n, k + 1, rng)
        b = ambient_endomorphisms(fj)
        # vertical directions other than the top one are annihilated
        for i in range(k - 2):
            image = b.pdot @ derivative_jet(fj, i).value()
            assert np.max(np.abs(image)) < 1e-8
        # the top vertical direction maps onto the horizontal curve
        image = b.pdot @ derivative_jet(fj, k - 2).value()
        np.testing.assert_allclose(image, b.horizontal.value(), atol=1e-8)
        # horizontal maps into the vertical space
        image_h = b.pdot @ b.horizontal.value()
        vertical = derivative_span(fj, k - 1)
        stacked = np.hstack([vertical, image_h])
        assert numeric_rank(stacked) == (k - 1) * n

    def test_reflection_eigenstructure(self, rng):
        for k, n in ((3, 1), (4, 2)):
            fj = random_frame_jet(k, n, k + 1, rng)
            b = endomorphism_bundle(fj)
            minus = eigenspace(b.reflection, -1.0)
            plus = eigenspace(b.reflection, 1.0)
            assert minus.shape[1] == (k - 1) * n
            assert plus.shape[1] == n
            assert span_distance(plus, b.horizontal.value()) < 1e-7

    def test_moving_frame_invertible(self, rng):
        fj = random_frame_jet(3, 2, 5, rng)
        assert np.linalg.cond(ambient_endomorphisms(fj).moving_frame) < 1e6

    def test_horizontal_routes_agree_tightly(self, rng):
        for k, n in ((2, 2), (3, 1), (4, 2), (5, 3)):
            fj = random_frame_jet(k, n, k + 2, rng)
            assert endomorphism_bundle(fj).horizontal_residual < 1e-9


class TestJacobiMatrix:
    def test_standard_jet_patterns(self):
        k, n = 4, 2
        fj = standard_jet(k, n, k + 2)
        np.testing.assert_allclose(
            jacobi_matrix(fj), np.zeros((k * n, k * n)), atol=1e-12
        )

    def test_requires_normal_frame(self, rng):
        curve = random_polynomial_curve(3, 2, rng)
        fj = curve.frame_jet(0.2, 8)
        with pytest.raises(NotNormalError):
            jacobi_matrix(fj)

    def test_projective_plane_curves_zero_pattern(self, rng):
        """k=3, n=1: only the top-right 2x2 corner of the matrix is active."""
        curve = random_polynomial_curve(3, 1, rng)
        nj = normalized_frame_jet(curve.frame_jet(0.15, 9))
        jac = jacobi_matrix(nj)
        mask = np.ones((3, 3), dtype=bool)
        mask[0, 1] = mask[1, 1] = mask[2, 2] = False
        assert np.max(np.abs(jac[mask])) < 1e-9
        assert abs(jac[1, 1] - jac[2, 2]) < 1e-9  # both equal (k-1) kappa

    def test_jacobi_eigenrelation(self, rng):
        """K H = H (k-1) kappa for normal frames."""
        for k, n in ((3, 2), (4, 2), (5, 1)):
            curve = random_polynomial_curve(k, n, rng)
            nj = normalized_frame_jet(curve.frame_jet(0.1, 2 * k + 2))
            b = endomorphism_bundle(nj)
            kappa = ode_coefficients(nj)[1].value()
            h0 = b.horizontal.value()
            np.testing.assert_allclose(
                b.jacobi @ h0, (k - 1) * h0 @ kappa, atol=1e-8
            )

    def test_pattern_matches_change_of_basis(self, rng):
        for k, n in ((3, 2), (4, 1)):
            curve = random_polynomial_curve(k, n, rng)
            nj = normalized_frame_jet(curve.frame_jet(0.2, 2 * k + 2))
            moving = ambient_endomorphisms(nj).moving_frame
            direct = np.linalg.solve(moving, endomorphism_bundle(nj).jacobi @ moving)
            np.testing.assert_allclose(jacobi_matrix(nj), direct, atol=1e-8)


class TestMaurerCartan:
    def test_standard_curve_constant_subdiagonal(self):
        k, n = 4, 1
        fj = standard_jet(k, n, k + 2)
        expected = np.zeros((k, k))
        for j in range(k - 1):
            expected[j + 1, j] = 1.0
        for lift in ("H", "kderiv"):
            got = maurer_cartan_pullback(fj, lift=lift)
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_k4_h_lift_display(self, rng):
        """Pullback of the H-lift for k=4 in terms of kappa, h_1, h_2."""
        k, n = 4, 2
        curve = random_polynomial_curve(k, n, rng)
        nj = normalized_frame_jet(curve.frame_jet(0.1, 2 * k + 4))
        p = ode_coefficients(nj)
        kap, kapd = p[1].value(), p[1].derivative_value(1)
        h1, h1d = p[2].value(), p[2].derivative_value(1)
        h2 = p[3].value()
        expected = np.zeros((k * n, k * n))
        eye = np.eye(n)
        for j in range(k - 1):
            expected[(j + 1) * n : (j + 2) * n, j * n : (j + 1) * n] = eye
        expected[0:n, 2 * n : 3 * n] = -h1
        expected[n : 2 * n, 2 * n : 3 * n] = -3 * kap
        expected[0:n, 3 * n :] = h1d - h2
        expected[n : 2 * n, 3 * n :] = 3 * (kapd - h1)
        expected[2 * n : 3 * n, 3 * n :] = -3 * kap
        got = maurer_cartan_pullback(nj, lift="H")
        np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_k4_plain_lift_pullback(self, rng):
        """The plain-lift pullback carries the equation coefficients."""
        k, n = 4, 2
        curve = random_polynomial_curve(k, n, rng)
        nj = normalized_frame_jet(curve.frame_jet(0.1, 2 * k + 4))
        p = ode_coefficients(nj)
        expected = np.zeros((k * n, k * n))
        for j in range(k - 1):
            expected[(j + 1) * n : (j + 2) * n, j * n : (j + 1) * n] = np.eye(n)
        for i in range(1, k + 1):
            expected[(k - i) * n : (k - i + 1) * n, (k - 1) * n :] = (
                -math.comb(k, i) * p[i - 1].value()
            )
        got = maurer_cartan_pullback(nj, lift="kderiv")
        np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_k4_jacobi_in_plain_basis_display(self, rng):
        """The Jacobi endomorphism in the plain-derivative basis.

        Its nonzero entries are h_2 - h_1', 3(h_1 - kappa'), two copies of
        3 kappa, 3 h_1 kappa and 9 kappa^2.
        """
        k, n = 4, 2
        curve = random_polynomial_curve(k, n, rng)
        nj = normalized_frame_jet(curve.frame_jet(0.1, 2 * k + 4))
        p = ode_coefficients(nj)
        kap, kapd = p[1].value(), p[1].derivative_value(1)
        h1, h1d = p[2].value(), p[2].derivative_value(1)
        h2 = p[3].value()
        expected = np.zeros((k * n, k * n))
        expected[0:n, 2 * n : 3 * n] = h2 - h1d
        expected[n : 2 * n, 2 * n : 3 * n] = 3 * (h1 - kapd)
        expected[2 * n : 3 * n, 2 * n : 3 * n] = 3 * kap
        expected[0:n, 3 * n :] = 3 * (h1 @ kap)
        expected[n : 2 * n, 3 * n :] = 9 * (kap @ kap)
        expected[3 * n :, 3 * n :] = 3 * kap
        b = endomorphism_bundle(nj)
        jux = nj.juxtaposed.value()
        got = np.linalg.solve(jux, b.jacobi @ jux)
        np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_requires_normal(self, rng):
        curve = random_polynomial_curve(4, 1, rng)
        with pytest.raises(NotNormalError):
            maurer_cartan_pullback(curve.frame_jet(0.2, 10), "H")

    @pytest.mark.parametrize("lift", ["with_H", "with_kth_derivative", "h"])
    def test_unknown_lift_raises(self, lift):
        with pytest.raises(ValueError, match="unknown lift"):
            maurer_cartan_pullback(standard_jet(3, 1, 5), lift)


class TestFrameBasis:
    """The companion-matrix route equals the ambient route written in the same basis."""

    @staticmethod
    def assert_close(got, expected):
        scale = 1.0 + np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-9 * scale

    @pytest.mark.parametrize("k, n", ALL_KN)
    def test_matches_the_ambient_route(self, k, n, rng):
        curve = tame_polynomial_curve(k, n, rng)
        fj = curve.frame_jets(np.linspace(0.0, 0.5, 5), 2 * k + 2)
        jux = fj.juxtaposed.value()
        reflection = np.linalg.solve(jux, ambient_endomorphisms(fj).reflection @ jux)
        self.assert_close(frame_reflection(fj), reflection)
        nj = normalized_frame_jet(fj)
        ambient = ambient_endomorphisms(nj)
        moving = ambient.moving_frame
        self.assert_close(_jacobi_direct(nj), np.linalg.solve(moving, ambient.jacobi @ moving))
        for lift in ("H", "kderiv"):
            self.assert_close(maurer_cartan_pullback(nj, lift=lift), pullback_by_solve(nj, lift))


class TestFiniteDifferenceGuard:
    def test_endomorphism_derivatives_match_central_differences(self, rng):
        step = 1e-4
        for k, n in ((2, 2), (3, 1)):
            curve = random_polynomial_curve(k, n, rng)
            t0 = 0.2
            f = curve.frame_jet(t0, k + 3).fundamental_endomorphism
            f_minus = curve.frame_jet(t0 - step, k + 1).fundamental_endomorphism.value()
            f_plus = curve.frame_jet(t0 + step, k + 1).fundamental_endomorphism.value()
            fdot_fd = (f_plus - f_minus) / (2 * step)
            fddot_fd = (f_plus - 2 * f.value() + f_minus) / step**2
            fdot = f.derivative_value(1)
            fddot = f.derivative_value(2)
            assert np.max(np.abs(fdot_fd - fdot)) / (1 + np.max(np.abs(fdot))) < 1e-5
            assert np.max(np.abs(fddot_fd - fddot)) / (1 + np.max(np.abs(fddot))) < 1e-5
