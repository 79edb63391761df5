"""Curve backends: Taylor shifts, the ODE integrator and the JSON format."""

import json
import math

import numpy as np
import pytest

from fanning import (
    CurveFormatError,
    NotFanningError,
    InsufficientOrderError,
    OdeFrameCurve,
    PolynomialFrameCurve,
    PolynomialMatrix,
    curve_from_dict,
    curve_to_dict,
    standard_curve,
    standard_jet,
)
from fanning.jets import jet_eval
from conftest import (
    curve_p_values,
    random_invertible,
    random_polynomial_curve,
    random_polynomial_matrix_curve,
)


class TestEvalFrameJet:
    def test_standard_curve_juxtaposed_blocks(self):
        k, n = 4, 2
        fj = standard_curve(k, n).frame_jet(0.0, k + 1)
        jux = fj.juxtaposed.value()
        for i in range(k):
            for j in range(k):
                block = jux[i * n : (i + 1) * n, j * n : (j + 1) * n]
                expected = math.factorial(j) * np.eye(n) if i == j else np.zeros((n, n))
                np.testing.assert_array_equal(block, expected)
        assert fj.is_fanning

    def test_constant_curve_not_fanning(self):
        curve = PolynomialFrameCurve(2, 1, (np.array([[1.0], [2.0]]),))
        fj = curve.frame_jet(0.0, 2)
        assert not fj.is_fanning
        with pytest.raises(NotFanningError) as info:
            fj.require_fanning()
        assert info.value.condition > 1e8

    def test_taylor_shift_against_direct_expansion(self, rng):
        k, n = 3, 2
        curve = random_polynomial_curve(k, n, rng, degree=k + 2)
        t0, order = 0.3, k + 2
        fj = curve.frame_jet(t0, order)
        # oracle: binomial re-expansion, coefficient by coefficient
        for j in range(order + 1):
            expected = np.zeros((k * n, n))
            for i in range(j, curve.degree + 1):
                expected += math.comb(i, j) * curve.coefficients[i] * t0 ** (i - j)
            np.testing.assert_allclose(fj.jet.coeffs[j], expected, atol=1e-13)

    def test_coefficients_beyond_degree_are_zero(self, rng):
        curve = random_polynomial_curve(2, 1, rng, degree=3)
        fj = curve.frame_jet(0.2, 8)
        for j in range(4, 9):
            np.testing.assert_array_equal(fj.jet.coeffs[j], np.zeros((2, 1)))

    def test_order_below_k_minus_one_rejected(self, rng):
        curve = random_polynomial_curve(3, 1, rng)
        with pytest.raises(InsufficientOrderError):
            curve.frame_jet(0.0, 1)


class TestFanningInvariance:
    def test_fanning_is_ambient_invariant(self, rng):
        k, n = 3, 2
        curve = random_polynomial_curve(k, n, rng)
        t_matrix = random_invertible(k * n, rng)
        for t in (0.0, 0.3):
            a = curve.frame_jet(t, k - 1).is_fanning
            b = curve.transformed(t_matrix).frame_jet(t, k - 1).is_fanning
            assert a == b

    def test_fanning_survives_frame_change(self, rng):
        k, n = 3, 2
        curve = random_polynomial_curve(k, n, rng)
        x = random_polynomial_matrix_curve(n, 2, rng)
        changed = curve.right_multiplied(x)
        for t in (0.0, 0.25):
            assert changed.frame_jet(t, k - 1).is_fanning == curve.frame_jet(
                t, k - 1
            ).is_fanning


class TestOdeCurve:
    def test_free_equation_gives_standard_jet(self):
        k, n = 3, 2
        zero = PolynomialMatrix((np.zeros((n, n)),))
        curve = OdeFrameCurve(k, n, (zero,) * k, np.eye(k * n))
        fj = curve.frame_jet(0.4, k + 3)
        reference = standard_jet(k, n, k + 3)
        np.testing.assert_allclose(
            fj.jet.value(), jet_eval(reference.jet, 0.4), atol=1e-12
        )
        np.testing.assert_array_equal(fj.derivative_jet(k).value(), np.zeros((k * n, n)))

    def test_harmonic_oscillator_closed_form(self):
        omega = 1.3
        curve = OdeFrameCurve(
            2,
            1,
            (
                PolynomialMatrix((np.zeros((1, 1)),)),
                PolynomialMatrix((np.array([[omega**2]]),)),
            ),
            np.eye(2),
        )
        from fanning import schwarzian

        for t in (0.3, 0.9):
            fj = curve.frame_jet(t, 4)
            exact = np.array([[math.cos(omega * t)], [math.sin(omega * t) / omega]])
            np.testing.assert_allclose(fj.jet.value(), exact, atol=1e-10)
            exact_d = np.array(
                [[-omega * math.sin(omega * t)], [math.cos(omega * t)]]
            )
            np.testing.assert_allclose(
                fj.derivative_jet(1).value(), exact_d, atol=1e-10
            )
            assert abs(schwarzian(fj).value()[0, 0] - 2 * omega**2) < 1e-9

    def test_round_trip_through_extracted_coefficients(self, rng):
        """A polynomial curve is the oracle for its own extracted equation."""
        k, n = 3, 1
        # keep the equation coefficients smooth on [0, 1]: no near-poles
        while True:
            curve = random_polynomial_curve(k, n, rng, scale=0.05, window=(0.0, 1.0))
            peak = max(
                np.max(np.abs(np.concatenate(curve_p_values(curve, t))))
                for t in np.linspace(0.0, 1.0, 33)
            )
            if peak < 2.0:
                break
        # fit each P_i entrywise by a Chebyshev polynomial on [0, 1]
        ts = np.polynomial.chebyshev.chebpts1(48) * 0.5 + 0.5
        samples = np.array([[p.reshape(-1) for p in curve_p_values(curve, t)] for t in ts])
        ps = []
        for i in range(k):
            entries = []
            for e in range(n * n):
                fit = np.polynomial.Chebyshev.fit(ts, samples[:, i, e], deg=18)
                entries.append(fit.convert(kind=np.polynomial.Polynomial).coef)
            deg = max(len(c) for c in entries) - 1
            coeffs = [np.zeros((n, n)) for _ in range(deg + 1)]
            for e, c in enumerate(entries):
                for d, value in enumerate(c):
                    coeffs[d][e // n, e % n] = value
            ps.append(PolynomialMatrix(tuple(coeffs)))
        rebuilt = OdeFrameCurve(
            k, n, tuple(ps), curve.frame_jet(0.0, k - 1).juxtaposed.value()
        )
        for t in (0.25, 0.6, 1.0):
            got = rebuilt.frame_jet(t, k - 1).jet.value()
            np.testing.assert_allclose(got, curve.polynomial.value(t), atol=1e-7)

    def test_non_invertible_initial_data_rejected(self):
        zero = PolynomialMatrix((np.zeros((1, 1)),))
        with pytest.raises(NotFanningError):
            OdeFrameCurve(2, 1, (zero, zero), np.zeros((2, 2)))


class TestFrameJetStructure:
    def test_juxtaposed_blocks_are_derivative_shifts(self, rng):
        k, n = 4, 2
        curve = random_polynomial_curve(k, n, rng)
        fj = curve.frame_jet(0.2, 2 * k)
        jux = fj.juxtaposed
        for j in range(k):
            shifted = fj.derivative_jet(j)
            for m in range(jux.order + 1):
                np.testing.assert_array_equal(
                    jux.coeffs[m][:, j * n : (j + 1) * n], shifted.coeffs[m]
                )


class TestStandardJet:
    def test_k2_is_one_t(self):
        fj = standard_jet(2, 1, 3)
        np.testing.assert_array_equal(fj.jet.coeffs[0], [[1.0], [0.0]])
        np.testing.assert_array_equal(fj.jet.coeffs[1], [[0.0], [1.0]])
        np.testing.assert_array_equal(fj.jet.coeffs[2], [[0.0], [0.0]])

    def test_juxtaposed_value_block_diagonal_invertible(self):
        for k, n in ((2, 2), (4, 1), (5, 3)):
            fj = standard_jet(k, n, k + 1)
            np.testing.assert_array_equal(fj.juxtaposed.value(), np.eye(k * n))
            assert fj.is_fanning


class TestJsonFormat:
    def test_polynomial_round_trip(self, rng):
        curve = random_polynomial_curve(3, 2, rng)
        data = json.loads(json.dumps(curve_to_dict(curve)))
        loaded = curve_from_dict(data)
        assert loaded.k == curve.k and loaded.n == curve.n
        for a, b in zip(loaded.coefficients, curve.coefficients):
            np.testing.assert_array_equal(a, b)

    def test_ode_round_trip(self):
        omega = 0.7
        curve = OdeFrameCurve(
            2,
            1,
            (
                PolynomialMatrix((np.zeros((1, 1)),)),
                PolynomialMatrix((np.array([[omega**2]]),)),
            ),
            np.eye(2),
        )
        loaded = curve_from_dict(json.loads(json.dumps(curve_to_dict(curve))))
        np.testing.assert_array_equal(loaded.initial_juxtaposed, np.eye(2))
        assert loaded.p[1].value(0.0)[0, 0] == omega**2

    @pytest.mark.parametrize(
        "data",
        [
            {"kind": "spline", "k": 2, "n": 1},
            {"kind": "polynomial", "k": 2},
            {"kind": "polynomial", "k": 2, "n": 1},
            {"kind": "ode", "k": 2, "n": 1},
            [1, 2, 3],
            {"kind": "polynomial", "k": 2, "n": 1, "coefficients": [[[1.0], [0.0]], [[1.0]]]},
            {"kind": "polynomial", "k": 2, "n": 1, "coefficients": [{"c": 1.0}]},
        ],
    )
    def test_malformed_rejected(self, data):
        with pytest.raises(CurveFormatError):
            curve_from_dict(data)

    def test_wrong_shape_rejected(self):
        with pytest.raises(CurveFormatError):
            curve_from_dict(
                {"kind": "polynomial", "k": 2, "n": 1, "coefficients": [[[1.0]]]}
            )

    def test_coefficients_are_one_read_only_array(self):
        curve = curve_from_dict(curve_to_dict(standard_curve(3, 2)))
        ode = curve_from_dict(
            {
                "kind": "ode",
                "k": 2,
                "n": 1,
                "P": [{"coefficients": [[[0.0]]]}, {"coefficients": [[[1.0]], [[0.5]]]}],
                "A0": np.eye(2).tolist(),
            }
        )
        for stack, shape in (
            (curve.coefficients, (3, 6, 2)),
            (curve.polynomial.coefficients, (3, 6, 2)),
            (ode.p[1].coefficients, (2, 1, 1)),
        ):
            assert isinstance(stack, np.ndarray) and stack.shape == shape
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 1.0


def _drifting_curve(rng, k=3, n=2):
    """ODE curve whose coefficients drift linearly in t, away from a centre."""
    ps = []
    for i in range(1, k + 1):
        c0 = (0.25 if i == 2 else 0.0) * np.eye(n) + 0.05 * rng.standard_normal((n, n))
        c1 = 0.02 * rng.standard_normal((n, n))
        ps.append(PolynomialMatrix((c0, c1)))
    return OdeFrameCurve(k, n, tuple(ps), random_invertible(k * n, rng, cond_max=10.0))


def _harmonic_curve(omega):
    return OdeFrameCurve(
        2,
        1,
        (
            PolynomialMatrix((np.zeros((1, 1)),)),
            PolynomialMatrix((np.array([[omega**2]]),)),
        ),
        np.eye(2),
    )


def _assert_jets_close(a, b, rtol):
    assert a.base_time == b.base_time and a.order == b.order
    scale = max(1.0, max(np.max(np.abs(c)) for c in b.jet.coeffs))
    for x, y in zip(a.jet.coeffs, b.jet.coeffs):
        assert np.max(np.abs(x - y)) <= rtol * scale


class TestOdeSweep:
    """``frame_jets`` integrates once along the grid instead of from t=0 per time."""

    def test_harmonic_oscillator_matches_per_point_and_closed_form(self):
        omega = 1.3
        curve = _harmonic_curve(omega)
        times = np.linspace(0.0, 8.0, 17)
        swept = curve.frame_jets(times, 4)
        for t, fj in zip(times, swept):
            _assert_jets_close(fj, curve.frame_jet(t, 4), 1e-9)
            exact = np.array([[math.cos(omega * t)], [math.sin(omega * t) / omega]])
            np.testing.assert_allclose(fj.jet.value(), exact, atol=1e-8)

    def test_drifting_coefficients_match_per_point(self, rng):
        curve = _drifting_curve(rng)
        times = np.linspace(0.0, 6.0, 9)
        swept = curve.frame_jets(times, 2 * curve.k + 2)
        for t, fj in zip(times, swept):
            _assert_jets_close(fj, curve.frame_jet(t, 2 * curve.k + 2), 1e-9)

    def test_caller_order_with_mixed_signs_and_repeats(self, rng):
        curve = _drifting_curve(rng, k=2, n=1)
        times = [0.5, -0.3, 0.0, 0.5, -0.7, 0.2, -0.3]
        swept = curve.frame_jets(times, 3)
        assert [fj.base_time for fj in swept] == times
        for t, fj in zip(times, swept):
            _assert_jets_close(fj, curve.frame_jet(t, 3), 1e-9)
        np.testing.assert_array_equal(swept[0].jet.value(), swept[3].jet.value())
        np.testing.assert_array_equal(swept[2].jet.value(), curve.initial_juxtaposed[:, :1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, bad, rng):
        curve = _drifting_curve(rng, k=2, n=1)
        with pytest.raises(ValueError, match="finite"):
            curve.frame_jets([0.1, bad], 3)
        with pytest.raises(ValueError, match="finite"):
            curve.frame_jet(bad, 3)

    def test_polynomial_batch_is_pointwise(self, rng):
        curve = random_polynomial_curve(3, 2, rng)
        times = (0.3, -0.1, 0.3)
        for t, fj in zip(times, curve.frame_jets(times, 6)):
            for a, b in zip(fj.jet.coeffs, curve.frame_jet(t, 6).jet.coeffs):
                np.testing.assert_array_equal(a, b)

    def test_evaluations_do_not_grow_with_the_grid(self, tmp_path, monkeypatch, rng):
        """41 grid points cost about what 2 do over the same interval."""
        import fanning.cli
        import fanning.curves as curves_mod

        path = tmp_path / "ode.json"
        path.write_text(json.dumps(curve_to_dict(_drifting_curve(rng, k=2, n=2))))
        nfev = []
        solve_ivp = curves_mod.solve_ivp

        def counting(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            nfev[-1] += sol.nfev
            return sol

        monkeypatch.setattr(curves_mod, "solve_ivp", counting)
        for count in (2, 41):
            nfev.append(0)
            argv = ["invariants", str(path), "--grid", f"0:8:{count}", "--out", str(tmp_path / "r")]
            assert fanning.cli.main(argv) == 0
        assert 0 < nfev[1] <= 2 * nfev[0], nfev

