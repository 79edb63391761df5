"""Equation coefficients, Schwarzian, Wilczynski invariants, normal frames."""

import math

import numpy as np
import pytest

from fanning import (
    InsufficientOrderError,
    h1_closed_form,
    h2_closed_form,
    invariants_from_coefficients,
    normal_frame,
    normalized_frame_jet,
    normalizing_jet,
    ode_coefficients,
    schwarzian,
    standard_curve,
    wilczynski_invariants,
)
from fanning.jets import jet_mul
from conftest import (
    classical_schwarzian,
    random_frame_jet,
    random_invertible,
    random_jet,
    random_polynomial_curve,
    random_polynomial_matrix_curve,
    tan_curve,
    tan_taylor_coefficients,
)


class TestOdeCoefficients:
    def test_standard_curve_all_zero(self):
        fj = standard_curve(3, 2).frame_jet(0.1, 8)
        for p in ode_coefficients(fj):
            for c in p.coeffs:
                np.testing.assert_allclose(c, np.zeros((2, 2)), atol=1e-13)

    def test_tan_frame_p1_at_zero(self):
        fj = tan_curve().frame_jet(0.0, 8)
        p = ode_coefficients(fj)
        # P1 = -(1/2) m''/m' vanishes at 0 for m = tan
        assert abs(p[0].value()[0, 0]) < 1e-14
        sch = schwarzian(fj)
        assert abs(sch.value()[0, 0] - 2.0) < 1e-12

    def test_equation_residual(self, rng):
        """Substituting the solved coefficients back must annihilate the frame."""
        for k, n in ((2, 2), (3, 1), (4, 2)):
            curve = random_polynomial_curve(k, n, rng, degree=k + 1)
            fj = curve.frame_jet(0.2, 2 * k + 2)
            p = ode_coefficients(fj)
            residual = fj.derivative_jet(k).truncated(p[0].order)
            for i in range(1, k + 1):
                residual = residual + math.comb(k, i) * jet_mul(
                    fj.derivative_jet(k - i).truncated(p[0].order), p[i - 1]
                )
            assert max(np.max(np.abs(c)) for c in residual.coeffs) < 1e-9

    def test_insufficient_order(self, rng):
        curve = random_polynomial_curve(3, 1, rng)
        fj = curve.frame_jet(0.0, 2)
        with pytest.raises(InsufficientOrderError):
            ode_coefficients(fj)


class TestSchwarzian:
    def test_standard_curve_zero(self):
        fj = standard_curve(4, 1).frame_jet(0.3, 9)
        np.testing.assert_allclose(schwarzian(fj).value(), 0.0, atol=1e-12)

    def test_tan_matches_classical_formula(self):
        curve = tan_curve()
        m = np.concatenate([[0.0], tan_taylor_coefficients(25)[1:]])
        for t in (-0.3, 0.0, 0.2, 0.4):
            fj = curve.frame_jet(t, 5)
            got = schwarzian(fj).value()[0, 0]
            expected = classical_schwarzian(m, t)
            assert abs(got - expected) < 1e-10
            assert abs(got - 2.0) < 1e-6

    def test_frame_change_conjugates_pointwise(self, rng):
        k, n = 3, 2
        curve = random_polynomial_curve(k, n, rng)
        x = random_polynomial_matrix_curve(n, 3, rng)
        t0 = 0.2
        a = schwarzian(curve.frame_jet(t0, 2 * k + 2)).value()
        b = schwarzian(curve.right_multiplied(x).frame_jet(t0, 2 * k + 2)).value()
        x0 = x.value(t0)
        np.testing.assert_allclose(b, np.linalg.solve(x0, a @ x0), atol=1e-9)

    def test_ambient_invariance(self, rng):
        k, n = 3, 2
        curve = random_polynomial_curve(k, n, rng)
        t_matrix = random_invertible(k * n, rng)
        a = schwarzian(curve.frame_jet(0.1, k + 2)).value()
        b = schwarzian(curve.transformed(t_matrix).frame_jet(0.1, k + 2)).value()
        np.testing.assert_allclose(a, b, atol=1e-10)


class TestWilczynski:
    def test_normal_frame_reads_off_coefficients(self, rng):
        """For a normal frame kappa = P_2 and h_j = P_(j+2)."""
        k, n = 4, 2
        curve = random_polynomial_curve(k, n, rng)
        nj = normalized_frame_jet(curve.frame_jet(0.15, 3 * k))
        inv = wilczynski_invariants(nj)
        p = ode_coefficients(nj)
        np.testing.assert_allclose(inv.kappa.value(), p[1].value(), atol=1e-10)
        for j, h in enumerate(inv.h, start=1):
            np.testing.assert_allclose(h.value(), p[j + 1].value(), atol=1e-10)

    def test_recursion_matches_printed_first_invariant(self, rng):
        """W-recursion h_1 equals the explicit printed expression on random jets."""
        for _ in range(20):
            p = [random_jet(2, 2, 4, rng) for _ in range(3)]
            inv = invariants_from_coefficients(p)
            direct = h1_closed_form(p[0], p[1], p[2])
            for a, b in zip(inv.h[0].coeffs, direct.coeffs):
                assert np.max(np.abs(a - b)) < 1e-9

    def test_recursion_matches_printed_second_invariant(self, rng):
        """W-recursion h_2 equals the printed expression with subscripts restored."""
        for _ in range(20):
            p = [random_jet(2, 2, 5, rng) for _ in range(4)]
            inv = invariants_from_coefficients(p)
            direct = h2_closed_form(p[0], p[1], p[2], p[3])
            for a, b in zip(inv.h[1].coeffs, direct.coeffs):
                assert np.max(np.abs(a - b)) < 1e-9

    def test_recursion_matches_printed_forms_along_frames(self, rng):
        """Same agreement through the frame pipeline, relative scale."""
        for k in (3, 4):
            curve = random_polynomial_curve(k, 2, rng)
            fj = curve.frame_jet(0.2, 2 * k + 3)
            inv = wilczynski_invariants(fj)
            p = ode_coefficients(fj)
            direct = (
                h1_closed_form(p[0], p[1], p[2])
                if k == 3
                else h2_closed_form(p[0], p[1], p[2], p[3])
            )
            got = inv.h[k - 3]
            scale = 1.0 + max(np.max(np.abs(c)) for c in got.coeffs)
            for a, b in zip(got.coeffs, direct.coeffs):
                assert np.max(np.abs(a - b)) / scale < 1e-12

    def test_kappa_is_half_schwarzian(self, rng):
        curve = random_polynomial_curve(3, 2, rng)
        fj = curve.frame_jet(0.1, 8)
        inv = wilczynski_invariants(fj)
        sch = schwarzian(fj)
        for a, b in zip(inv.kappa.coeffs, (0.5 * sch).coeffs):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_constant_frame_change_conjugates_all(self, rng):
        k, n = 4, 2
        curve = random_polynomial_curve(k, n, rng)
        x0 = random_invertible(n, rng)
        t0 = 0.1
        inv_a = wilczynski_invariants(curve.frame_jet(t0, 2 * k + 2))
        inv_b = wilczynski_invariants(
            curve.right_multiplied(x0).frame_jet(t0, 2 * k + 2)
        )
        pairs = [(inv_a.kappa, inv_b.kappa)] + list(zip(inv_a.h, inv_b.h))
        for a, b in pairs:
            np.testing.assert_allclose(
                b.value(), np.linalg.solve(x0, a.value() @ x0), atol=1e-8
            )

    def test_order_requirement(self, rng):
        curve = random_polynomial_curve(4, 1, rng)
        with pytest.raises(InsufficientOrderError):
            wilczynski_invariants(curve.frame_jet(0.0, 5))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_minimal_order_suffices(self, k, rng):
        """Order 2k-1 pins every ``h_j`` value, as the order check states."""
        fj = random_frame_jet(k, 1, 2 * k - 1, rng)
        inv = wilczynski_invariants(fj)
        assert len(inv.h) == k - 2
        assert all(h.order >= 0 for h in inv.h)
        full = wilczynski_invariants(fj.extended_with_zeros(2 * k + 2))
        np.testing.assert_array_equal(inv.kappa.value(), full.kappa.value())
        for a, b in zip(inv.h, full.h):
            np.testing.assert_array_equal(a.value(), b.value())


class TestNormalization:
    def test_already_normal_keeps_identity(self):
        """A curve with P_1 = 0 throughout normalizes trivially."""
        curve = standard_curve(3, 2)
        record = normal_frame(curve, np.linspace(0.0, 0.5, 5))
        for x in record.x:
            np.testing.assert_allclose(x, np.eye(2), atol=1e-12)
        assert max(record.p1_residuals) < 1e-12

    def test_tan_frame_normal_form(self):
        """B'' + B kappa = 0 along the grid for the normalized tan frame."""
        curve = tan_curve()
        grid = np.linspace(0.0, 1.0, 9)
        record = normal_frame(curve, grid)
        assert max(record.p1_residuals) < 1e-7
        # substitute the normal frame back into its reduced equation
        for i, t in enumerate(grid):
            fj = curve.frame_jet(t, 6)
            p1 = ode_coefficients(fj)[0]
            yjet = normalizing_jet(p1, y0=np.linalg.inv(record.x[i]))
            bjet = fj.right_multiplied(yjet)
            residual = bjet.derivative_jet(2).value() + bjet.jet.value() @ record.q[
                0
            ][i]
            assert np.max(np.abs(residual)) < 1e-6
        # Q_2 = kappa of the normal frame; equals 1 well inside the
        # polynomial's accurate range
        for t, q2 in zip(record.times, record.q[0]):
            if abs(t) <= 0.5:
                assert abs(q2[0, 0] - 1.0) < 1e-6

    def test_normalized_jet_kills_p1(self, rng):
        k, n = 4, 2
        curve = random_polynomial_curve(k, n, rng)
        nj = normalized_frame_jet(curve.frame_jet(0.3, 2 * k))
        p = ode_coefficients(nj)
        for c in p[0].coeffs:
            assert np.max(np.abs(c)) < 1e-12

    def test_two_normal_frames_differ_by_constant(self, rng):
        """Normal frames of one curve from different initial frames."""
        k, n = 3, 2
        curve = random_polynomial_curve(k, n, rng)
        other = curve.right_multiplied(random_polynomial_matrix_curve(n, 2, rng))
        grid = np.linspace(0.0, 0.4, 6)
        rec_a = normal_frame(curve, grid)
        rec_b = normal_frame(other, grid)
        factors = []
        for ba, bb in zip(rec_a.frames, rec_b.frames):
            factors.append(np.linalg.lstsq(ba, bb, rcond=None)[0])
        for x in factors[1:]:
            np.testing.assert_allclose(x, factors[0], atol=1e-7)

    def test_q_values_conjugate_input_invariants(self, rng):
        """Q_j = X h_(j-2) X^-1 with X the reduction frame change."""
        k, n = 3, 2
        curve = random_polynomial_curve(k, n, rng)
        grid = np.linspace(0.0, 0.4, 5)
        record = normal_frame(curve, grid, jet_order=3 * k)
        for i, t in enumerate(record.times):
            inv = wilczynski_invariants(curve.frame_jet(t, 2 * k + 2))
            hs = [inv.kappa.value()] + [h.value() for h in inv.h]
            x = np.linalg.inv(record.x[i])  # record.x solves X' = -X P_1
            for j, h in enumerate(hs):
                expected = np.linalg.solve(x, h @ x)
                np.testing.assert_allclose(record.q[j][i], expected, atol=1e-7)

    def test_monotonic_grid_required(self, rng):
        curve = random_polynomial_curve(2, 1, rng)
        with pytest.raises(ValueError):
            normal_frame(curve, [0.0, 0.2, 0.1])

    def test_passed_jets_must_match_grid_and_order(self, rng):
        k, n = 2, 1
        curve = random_polynomial_curve(k, n, rng)
        grid = [0.0, 0.1, 0.2]
        jets = curve.frame_jets(grid, 2 * k + 1)
        with pytest.raises(ValueError, match="3 grid times"):
            normal_frame(curve, grid, jets=jets[:2])
        with pytest.raises(ValueError, match="order"):
            normal_frame(curve, grid, jets=curve.frame_jets(grid, 2 * k))
        passed = normal_frame(curve, grid, jets=jets)
        own = normal_frame(curve, grid)
        for a, b in zip(passed.frames, own.frames):
            np.testing.assert_array_equal(a, b)

    def test_normalizing_jet_solves_its_equation(self, rng):
        curve = random_polynomial_curve(3, 2, rng)
        p1 = ode_coefficients(curve.frame_jet(0.0, 9))[0]
        y = normalizing_jet(p1)
        lhs = y.derivative()
        rhs = jet_mul(p1, y).truncated(lhs.order)
        for a, b in zip(lhs.coeffs, rhs.coeffs):
            np.testing.assert_allclose(a, b, atol=1e-12)
