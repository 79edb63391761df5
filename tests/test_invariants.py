"""Equation coefficients, Schwarzian, Wilczynski invariants, normal frames."""

import math

import numpy as np
import pytest

from fanning import (
    FrameJet,
    InsufficientOrderError,
    MatrixJet,
    OdeFrameCurve,
    PolynomialMatrix,
    invariants_from_coefficients,
    normal_frame,
    normalized_frame_jet,
    normalizing_jet,
    ode_coefficients,
    standard_curve,
    wilczynski_invariants,
)
from fanning.invariants import normalizer
from fanning.jets import horner, jet_mul
from conftest import (
    ALL_KN,
    classical_schwarzian,
    drifting_ode_curve,
    frame_jet_samples,
    h1_closed_form,
    h2_closed_form,
    invariants_reference,
    jet_derivative,
    normalizing_jet_reference,
    random_frame_jet,
    random_invertible,
    random_jet,
    random_polynomial_curve,
    random_polynomial_matrix_curve,
    right_multiplied,
    schwarzian,
    tame_polynomial_curve,
    tan_curve,
    tan_taylor_coefficients,
    truncated,
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
            residual = truncated(fj.derivative_jet(k), p[0].order)
            for i in range(1, k + 1):
                residual = residual + math.comb(k, i) * jet_mul(
                    truncated(fj.derivative_jet(k - i), p[0].order), p[i - 1]
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
        b = schwarzian(right_multiplied(curve, x).frame_jet(t0, 2 * k + 2)).value()
        x0 = horner(x.coefficients, t0)
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

    @pytest.mark.parametrize("k, n", ALL_KN)
    def test_batched_recursion_matches_the_looped_one(self, k, n, rng):
        """One Cauchy product per sum gives the jet-by-jet recursion, batched or not."""
        fj = random_frame_jet(k, n, 2 * k + 2, rng)
        samples = [random_frame_jet(k, n, 2 * k + 2, rng, base_time=t) for t in (0.1, 0.2)]
        batched = FrameJet(
            MatrixJet(np.array([0.1, 0.2]), np.array([s.jet.coeffs for s in samples]))
        )
        for jets in (fj, batched):
            p = ode_coefficients(jets)
            inv = invariants_from_coefficients(p)
            expected = invariants_reference(p)
            assert len(expected) == k - 1
            for got, want in zip((inv.kappa,) + inv.h, expected):
                assert got.order == want.order
                scale = 1.0 + np.max(np.abs(want.coeffs))
                assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-13 * scale

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
            right_multiplied(curve, x0).frame_jet(t0, 2 * k + 2)
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

    @pytest.mark.parametrize("k, p1, name", [(2, 1e200, "kappa"), (3, 1e103, "h_1")])
    def test_non_finite_value_raises_naming_it(self, k, p1, name):
        """Constant ``P_1 = a``, other ``P_j = 0``: kappa = -a^2 and h_1 = 2 a^3 overflow in turn."""
        times = np.array([0.0, 0.5, 1.0])
        zero = np.zeros((3, k, 1, 1))
        first = zero.copy()
        first[1:, 0] = p1
        p = [MatrixJet(times, first)] + [MatrixJet(times, zero) for _ in range(k - 1)]
        with pytest.raises(np.linalg.LinAlgError, match=rf"^{name} at t=0.5 is not finite$"):
            invariants_from_coefficients(p)


class TestNormalization:
    def test_high_degree_p1_is_expanded_in_full(self):
        """``P_1 = t^14`` has no term below the series order at t=0; ``X = exp(-t^15 / 15)``."""
        p1 = np.zeros((15, 1, 1))
        p1[14] = 1.0
        curve = OdeFrameCurve(
            2, 1, (PolynomialMatrix(p1), PolynomialMatrix(np.zeros((1, 1, 1)))), np.eye(2)
        )
        x = normalizer(curve, [0.0, 1.2])
        assert abs(x[1, 0, 0] / math.exp(-(1.2**15) / 15) - 1) <= 1e-12

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
            # the record holds B's normal lift, whose first block column is B
            lift = bjet.juxtaposed.value()
            np.testing.assert_allclose(record.lifts[i], lift, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(record.frames[i], record.lifts[i][:, :1])
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
        other = right_multiplied(curve, random_polynomial_matrix_curve(n, 2, rng))
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
        record = normal_frame(curve, grid)
        for i, t in enumerate(record.times):
            inv = wilczynski_invariants(curve.frame_jet(t, 2 * k + 2))
            hs = [inv.kappa.value()] + [h.value() for h in inv.h]
            x = np.linalg.inv(record.x[i])  # record.x solves X' = -X P_1
            for j, h in enumerate(hs):
                expected = np.linalg.solve(x, h @ x)
                np.testing.assert_allclose(record.q[j][i], expected, atol=1e-7)

    @pytest.mark.parametrize("kind", ["polynomial", "ode"])
    def test_batched_pass_matches_the_per_point_route(self, kind, rng):
        """One batch over the grid gives each point's normal frame to 1e-12.

        The per-point route normalizes each grid time's frame jet on its own,
        from the record's X there.  An ODE curve's jets come from the grid
        sweep, since a jet integrated from t=0 to one time differs at the
        integrator's tolerance.
        """
        k, n = 3, 2
        grid = np.linspace(0.0, 0.5, 6)
        if kind == "polynomial":
            curve = tame_polynomial_curve(k, n, rng)
            jets = [curve.frame_jet(t, 2 * k - 1) for t in grid]
        else:
            curve = drifting_ode_curve(rng, k, n)
            jets = frame_jet_samples(curve.frame_jets(grid, 2 * k - 1))
        record = normal_frame(curve, grid)
        size = len(grid)
        assert record.x.shape == (size, n, n)
        assert record.lifts.shape == (size, k * n, k * n)
        assert record.frames.shape == (size, k * n, n)
        assert record.q.shape == (k - 1, size, n, n)
        assert record.p1_residuals.shape == (size,)

        def close(a, b):
            return np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))

        for i, fj in enumerate(jets):
            bjet = normalized_frame_jet(fj, y0=np.linalg.inv(record.x[i]))
            pb = ode_coefficients(bjet)
            assert close(record.lifts[i], bjet.juxtaposed.value())
            for j in range(1, k):
                assert close(record.q[j - 1][i], pb[j].value())
            scale = 1.0 + np.max(np.abs(pb[1].value()))
            assert abs(record.p1_residuals[i] - np.max(np.abs(pb[0].value()))) <= 1e-12 * scale

    def test_monotonic_grid_required(self, rng):
        curve = random_polynomial_curve(2, 1, rng)
        with pytest.raises(ValueError):
            normal_frame(curve, [0.0, 0.2, 0.1])
        with pytest.raises(ValueError, match="sequence of times"):
            normal_frame(curve, [[0.0], [0.2]])
        with pytest.raises(ValueError, match="empty time grid"):
            normal_frame(curve, [])

    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_normalizing_jet_matches_its_recursion(self, k, n, rng):
        curve = drifting_ode_curve(rng, k, n)
        for fj in frame_jet_samples(curve.frame_jets((0.0, 0.7, -1.3), 2 * k + 2)):
            p1 = ode_coefficients(fj)[0]
            for y0 in (None, random_invertible(n, rng)):
                got = normalizing_jet(p1, y0).coeffs
                expected = normalizing_jet_reference(p1, np.eye(n) if y0 is None else y0)
                assert got.shape == expected.shape
                assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_normalizing_jet_solves_its_equation(self, rng):
        curve = random_polynomial_curve(3, 2, rng)
        p1 = ode_coefficients(curve.frame_jet(0.0, 9))[0]
        y = normalizing_jet(p1)
        lhs = jet_derivative(y)
        rhs = truncated(jet_mul(p1, y), lhs.order)
        for a, b in zip(lhs.coeffs, rhs.coeffs):
            np.testing.assert_allclose(a, b, atol=1e-12)
