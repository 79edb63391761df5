"""Curve backends: Taylor shifts, the ODE integrator and the JSON format."""

import json
import math

import numpy as np
import pytest

from fanning import (
    CurveFormatError,
    MatrixJet,
    NotFanningError,
    InsufficientOrderError,
    OdeFrameCurve,
    PolynomialFrameCurve,
    PolynomialMatrix,
    curve_from_dict,
    curve_to_dict,
    standard_curve,
)
from fanning.congruence import canonicalize_jet
from fanning.curves import DEFAULT_CONDITION_LIMIT, FrameJet, _jet_from_state, companion_stack
from fanning.invariants import (
    endomorphism_bundle,
    invariants_from_coefficients,
    jacobi_matrix,
    maurer_cartan_pullback,
    normalized_frame_jet,
    wilczynski_invariants,
)
from fanning.jets import horner
from conftest import (
    ALL_KN,
    curve_p_values,
    drifting_ode_curve,
    frame_jet_samples,
    ode_jet_reference,
    random_frame_jet,
    random_invertible,
    random_polynomial_curve,
    random_polynomial_matrix_curve,
    right_multiplied,
    schwarzian,
    standard_jet,
    taylor_shift,
    truncated,
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
        expected = taylor_shift(curve.coefficients, t0, order)
        for j in range(order + 1):
            np.testing.assert_allclose(fj.jet.coeffs[j], expected[j], atol=1e-13)

    @pytest.mark.parametrize("t0", [-0.7, 0.0, 0.3, 2.5])
    @pytest.mark.parametrize("extra", [-3, 0, 3])
    def test_jet_at_matches_binomial_oracle(self, t0, extra, rng):
        poly = random_polynomial_matrix_curve(3, 6, rng)
        order = poly.degree + extra
        jet = poly.jet_at(t0, order)
        assert jet.base_time == t0 and jet.coeffs.shape == (order + 1, 3, 3)
        # within 1e-15 per term of the bound sum_i C(i, j) |t0|^(i-j) |C_i|
        bound = taylor_shift(np.abs(poly.coefficients), abs(t0), order)
        error = np.abs(jet.coeffs - taylor_shift(poly.coefficients, t0, order))
        assert np.all(error <= 1e-15 * (poly.degree + 1) * bound)

    @pytest.mark.parametrize("t0", [1e200, -1e200, 1e160])
    def test_overflowing_shift_is_a_numerical_failure(self, t0):
        poly = PolynomialMatrix(np.array([[[1.0]], [[0.0]], [[1.0]]]))
        with pytest.raises(np.linalg.LinAlgError, match="overflowed"):
            poly.jet_at(t0, 4)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_jet_at_batch_is_stacked_per_time(self, dim, rng):
        poly = random_polynomial_matrix_curve(dim, 9, rng)
        times = np.array([0.4, -1.1, 0.0, 0.4, 2.0])
        batched = poly.jet_at(times, 7)
        assert batched.batch == (5,)
        np.testing.assert_array_equal(batched.base_time, times)
        expected = np.array([poly.jet_at(t, 7).coeffs for t in times])
        np.testing.assert_array_equal(batched.coeffs, expected)

    def test_overflowing_shift_names_the_first_such_time(self):
        poly = PolynomialMatrix(np.array([[[1.0]], [[0.0]], [[1.0]]]))
        with pytest.raises(np.linalg.LinAlgError, match=r"to t=-1e\+200 overflowed"):
            poly.jet_at(np.array([0.5, -1e200, 1e200]), 4)

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
        changed = right_multiplied(curve, x)
        for t in (0.0, 0.25):
            assert changed.frame_jet(t, k - 1).is_fanning == curve.frame_jet(
                t, k - 1
            ).is_fanning


def conditioned_matrix(dim, condition, rng):
    """Random ``dim x dim`` matrix with singular values from 1 down to ``1 / condition``."""
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    v, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return (u * np.geomspace(1.0, 1.0 / condition, dim)) @ v.T


def gate_value(case, dim, rng):
    """Juxtaposed value of condition ``case``, or an exactly singular one, or one with a NaN."""
    if case in ("singular", "nan"):
        m = conditioned_matrix(dim, 10.0, rng)
        if case == "singular":
            m[:, -1] = 0.0
        else:
            m[0, 0] = np.nan
        return m
    return conditioned_matrix(dim, case, rng)


def jet_with_juxtaposed_value(values, k, n, base_time):
    """Frame jet of order k + 1 whose juxtaposed value is ``values`` (batched like ``base_time``)."""
    values = np.asarray(values)
    coeffs = np.zeros(values.shape[:-2] + (k + 2, k * n, n))
    for j in range(k):
        coeffs[..., j, :, :] = values[..., :, j * n : (j + 1) * n] / math.factorial(j)
    return FrameJet(MatrixJet(base_time, coeffs))


GATE_CASES = (4e7, 9.9e7, 1.01e8, "singular", "nan")
GATE_TIMES = (0.1, 0.2, 0.3)


class TestFanningGate:
    """The bound first, the SVD where it does not decide: the SVD route's decisions exactly."""

    @staticmethod
    def assert_decided_as_by_svd(fj):
        try:
            condition = np.ravel(np.linalg.cond(fj.juxtaposed.value()))
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                fj.require_fanning()
            return
        failing = np.flatnonzero(~(condition < DEFAULT_CONDITION_LIMIT))
        if failing.size == 0:
            fj.require_fanning()
            return
        with pytest.raises(NotFanningError) as info:
            fj.require_fanning()
        i = failing[0]
        assert info.value.at_time == float(np.ravel(fj.base_time)[i])
        np.testing.assert_equal(info.value.condition, condition[i])

    @pytest.mark.parametrize("case", GATE_CASES)
    @pytest.mark.parametrize("k, n", [(2, 1), (3, 2)])
    def test_unbatched(self, case, k, n, rng):
        value = gate_value(case, k * n, rng)
        self.assert_decided_as_by_svd(jet_with_juxtaposed_value(value, k, n, 0.1))

    @pytest.mark.parametrize("case", GATE_CASES)
    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("k, n", [(2, 1), (3, 2)])
    def test_batched(self, case, position, k, n, rng):
        values = [conditioned_matrix(k * n, 10.0, rng) for _ in GATE_TIMES]
        values[position] = gate_value(case, k * n, rng)
        fj = jet_with_juxtaposed_value(values, k, n, np.array(GATE_TIMES))
        self.assert_decided_as_by_svd(fj)

    @pytest.mark.parametrize("k, n", [(2, 1), (3, 2)])
    def test_only_a_later_sample_fails(self, k, n, rng):
        values = [conditioned_matrix(k * n, c, rng) for c in (4e7, 9.9e7, 1.01e8)]
        fj = jet_with_juxtaposed_value(values, k, n, np.array(GATE_TIMES))
        with pytest.raises(NotFanningError) as info:
            fj.require_fanning()
        assert info.value.at_time == GATE_TIMES[2]
        assert info.value.condition == np.linalg.cond(fj.juxtaposed.value())[2]

    @pytest.mark.parametrize("k, n", [(2, 1), (3, 2)])
    def test_bound_passes_a_well_conditioned_batch_without_the_svd(self, k, n, rng):
        values = [conditioned_matrix(k * n, c, rng) for c in (10.0, 4e7, 1e3)]
        fj = jet_with_juxtaposed_value(values, k, n, np.array(GATE_TIMES))
        fj.require_fanning()
        assert "condition" not in vars(fj)

    @pytest.mark.parametrize("case", [4e7, 1.01e8])
    def test_a_known_condition_decides(self, case, rng):
        fj = jet_with_juxtaposed_value(conditioned_matrix(2, case, rng), 2, 1, 0.1)
        fanning = fj.is_fanning
        if fanning:
            fj.require_fanning()
        else:
            with pytest.raises(NotFanningError):
                fj.require_fanning()
        assert fanning == (case < DEFAULT_CONDITION_LIMIT)
        assert "_value_inverse" not in vars(fj)


class TestOdeCurve:
    def test_free_equation_gives_standard_jet(self):
        k, n = 3, 2
        zero = PolynomialMatrix((np.zeros((n, n)),))
        curve = OdeFrameCurve(k, n, (zero,) * k, np.eye(k * n))
        fj = curve.frame_jet(0.4, k + 3)
        reference = standard_jet(k, n, k + 3)
        np.testing.assert_allclose(
            fj.jet.value(), horner(reference.jet.coeffs, 0.4 - reference.base_time), atol=1e-12
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
            np.testing.assert_allclose(got, horner(curve.coefficients, t), atol=1e-7)

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
        assert horner(loaded.p[1].coefficients, 0.0)[0, 0] == omega**2

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

    @pytest.mark.parametrize("index", [0, 2])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_coefficient_named(self, index, value):
        coeffs = standard_curve(2, 2).coefficients.copy()
        coeffs = np.concatenate([coeffs, np.zeros((2, 4, 2))])
        coeffs[index, 3, 1] = value
        with pytest.raises(CurveFormatError, match=rf"^frame coefficient {index} is not finite$"):
            PolynomialFrameCurve(2, 2, coeffs)
        p = [PolynomialMatrix(np.zeros((3, 2, 2))), PolynomialMatrix(coeffs[:, 2:])]
        with pytest.raises(CurveFormatError, match=rf"^P_2 coefficient {index} is not finite$"):
            OdeFrameCurve(2, 2, tuple(p), np.eye(4))

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
        swept = frame_jet_samples(curve.frame_jets(times, 4))
        for t, fj in zip(times, swept):
            _assert_jets_close(fj, curve.frame_jet(t, 4), 1e-9)
            exact = np.array([[math.cos(omega * t)], [math.sin(omega * t) / omega]])
            np.testing.assert_allclose(fj.jet.value(), exact, atol=1e-8)

    def test_drifting_coefficients_match_per_point(self, rng):
        curve = drifting_ode_curve(rng)
        times = np.linspace(0.0, 6.0, 9)
        swept = frame_jet_samples(curve.frame_jets(times, 2 * curve.k + 2))
        for t, fj in zip(times, swept):
            _assert_jets_close(fj, curve.frame_jet(t, 2 * curve.k + 2), 1e-9)

    def test_caller_order_with_mixed_signs_and_repeats(self, rng):
        curve = drifting_ode_curve(rng, k=2, n=1)
        times = [0.5, -0.3, 0.0, 0.5, -0.7, 0.2, -0.3]
        swept = frame_jet_samples(curve.frame_jets(times, 3))
        assert [fj.base_time for fj in swept] == times
        for t, fj in zip(times, swept):
            _assert_jets_close(fj, curve.frame_jet(t, 3), 1e-9)
        np.testing.assert_array_equal(swept[0].jet.value(), swept[3].jet.value())
        np.testing.assert_array_equal(swept[2].jet.value(), curve.initial_juxtaposed[:, :1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, bad, rng):
        curve = drifting_ode_curve(rng, k=2, n=1)
        with pytest.raises(ValueError, match="finite"):
            curve.frame_jets([0.1, bad], 3)
        with pytest.raises(ValueError, match="finite"):
            curve.frame_jet(bad, 3)

    def test_polynomial_batch_is_pointwise(self, rng):
        curve = random_polynomial_curve(3, 2, rng)
        times = (0.3, -0.1, 0.3)
        for t, fj in zip(times, frame_jet_samples(curve.frame_jets(times, 6))):
            for a, b in zip(fj.jet.coeffs, curve.frame_jet(t, 6).jet.coeffs):
                np.testing.assert_array_equal(a, b)

    def test_evaluations_do_not_grow_with_the_grid(self, tmp_path, monkeypatch, rng):
        """41 grid points cost at most their own knots beyond what 2 cost on the same interval."""
        import fanning.cli
        import fanning.curves as curves_mod

        path = tmp_path / "ode.json"
        path.write_text(json.dumps(curve_to_dict(drifting_ode_curve(rng, k=2, n=2))))
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
        assert 0 < nfev[1] <= (41 - 1) + nfev[0], nfev

    def test_one_integration_per_side(self, monkeypatch, rng):
        """Each side of t=0 is one propagation from t=0 through its distinct times."""
        import fanning.curves as curves_mod

        curve = drifting_ode_curve(rng, k=2, n=1)
        calls = []
        solve_ivp = curves_mod.solve_ivp

        def recording(expand, times, y0):
            calls.append(list(times))
            return solve_ivp(expand, times, y0)

        monkeypatch.setattr(curves_mod, "solve_ivp", recording)
        times = (0.3, -0.5, 0.7, 0.0, -0.2, 0.3)
        batched = curve.frame_jets(times, 3)
        assert calls == [[0.0, 0.3, 0.7], [0.0, -0.2, -0.5]]
        assert batched.base_time.tolist() == list(times)
        coeffs = batched.jet.coeffs
        np.testing.assert_array_equal(coeffs[0], coeffs[5])
        np.testing.assert_array_equal(coeffs[3, 0], curve.initial_juxtaposed[:, :1])

    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_constant_coefficients_match_the_exponential(self, k, n, rng):
        """With constant ``P_i`` the state is ``Y0 expm(C t)`` on both sides of t=0."""
        from scipy.linalg import expm

        ps = tuple(
            PolynomialMatrix(
                (((0.25 if i == 2 else 0.0) * np.eye(n) + 0.05 * rng.standard_normal((n, n))),)
            )
            for i in range(1, k + 1)
        )
        curve = OdeFrameCurve(k, n, ps, random_invertible(k * n, rng, cond_max=10.0))
        c = curve.companion.coefficients[0]
        times = np.linspace(-8.0, 8.0, 33)
        states = curve.frame_jets(times, k - 1).juxtaposed.value()
        for t, state in zip(times, states):
            expected = curve.initial_juxtaposed @ expm(t * c)
            assert np.max(np.abs(state - expected)) <= 1e-11 * np.max(np.abs(expected)), t


    @pytest.mark.parametrize("degree", [12, 14])
    def test_high_degree_companion_matches_a_reference_solve(self, degree):
        """``P_2 = t^degree`` has no term below the series order at t=0, so
        the companion is expanded in full; checked against an RK solve."""
        from scipy.integrate import solve_ivp as reference

        p2 = np.zeros((degree + 1, 1, 1))
        p2[degree] = 1.0
        curve = OdeFrameCurve(
            2, 1, (PolynomialMatrix(np.zeros((1, 1, 1))), PolynomialMatrix(p2)), np.eye(2)
        )
        times = (-2.0, 1.0, 2.0)
        states = curve.frame_jets(times, 1).juxtaposed.value()
        for t, state in zip(times, states):
            sol = reference(
                lambda s, y: (y.reshape(2, 2) @ horner(curve.companion.coefficients, s)).ravel(),
                (0.0, t),
                np.eye(2).ravel(),
                method="DOP853",
                rtol=1e-13,
                atol=1e-14,
            )
            expected = sol.y[:, -1].reshape(2, 2)
            assert np.max(np.abs(state - expected)) <= 1e-10 * np.max(np.abs(expected)), t

    def test_grid_at_the_cap_fits_the_knot_budget(self, monkeypatch):
        """``MAX_GRID_POINTS`` positive times and the start at t=0 are one propagation."""
        import fanning.curves as curves_mod

        curve = _harmonic_curve(1.0)
        nfev = []
        solve_ivp = curves_mod.solve_ivp

        def counting(*args):
            sol = solve_ivp(*args)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(curves_mod, "solve_ivp", counting)
        times = np.linspace(0.001, 100.0, curves_mod.MAX_GRID_POINTS)
        last = frame_jet_samples(curve.frame_jets(times, 1))[-1]
        assert nfev == [curves_mod.MAX_GRID_POINTS]
        _assert_jets_close(last, curve.frame_jet(100.0, 1), 1e-9)


class TestOdeJetKernel:
    """The ODE frame jet is the series of ``Y' = Y C`` from the companion matrix."""

    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_companion_of_a_frame_jet_gives_its_lift_derivative(self, k, n, rng):
        """``J' = J C`` with C built from the frame's own ``P_j``, over a batch."""
        fj = random_polynomial_curve(k, n, rng).frame_jets([0.0, 0.3], k + 1)
        c = companion_stack([p.coeffs for p in fj.equation_coefficients])
        assert c.shape == (2, 2, k * n, k * n)
        jux = fj.juxtaposed.coeffs
        assert np.max(np.abs(jux[:, 0] @ c[:, 0] - jux[:, 1])) <= 1e-12 * np.max(np.abs(jux))

    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_matches_equation_recursion(self, k, n, rng):
        curve = drifting_ode_curve(rng, k, n)
        order = 2 * k + 2
        for t in (0.0, 0.7, -1.3):
            state = random_invertible(k * n, rng, cond_max=10.0)
            got = _jet_from_state(curve, t, state, order).jet.coeffs
            expected = ode_jet_reference(curve, t, state, order)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestPropagator:
    """``solve_ivp`` caps its bisection rounds and names where it stopped."""

    @staticmethod
    def _rotation(knots):
        c = np.zeros((len(knots), 12, 2, 2))
        c[:, 0] = [[0.0, -1.0], [1.0, 0.0]]
        return c

    def test_round_cap_names_the_time_reached(self, monkeypatch):
        import fanning.curves as curves_mod

        monkeypatch.setattr(curves_mod, "MAX_ROUNDS", 2)
        message = r"stopped at t=0\.0: steps still too long after 2 rounds \(5 knots\)"
        with pytest.raises(curves_mod.IntegrationError, match=message):
            curves_mod.solve_ivp(self._rotation, [0.0, 100.0], np.eye(2))

    def test_convergence_in_the_last_round_succeeds(self, monkeypatch):
        """The rotation's radius estimate is 11!^(1/11), about 4.9: a unit step is
        bisected in the first round, and the halves are short enough in the second."""
        import fanning.curves as curves_mod

        monkeypatch.setattr(curves_mod, "MAX_ROUNDS", 2)
        sol = curves_mod.solve_ivp(self._rotation, [0.0, 1.0], np.eye(2))
        assert sol.nfev == 2
        expected = [[math.cos(1.0), -math.sin(1.0)], [math.sin(1.0), math.cos(1.0)]]
        np.testing.assert_allclose(sol.y[-1], expected, rtol=0, atol=1e-12)


def _truncated(fj, order):
    return FrameJet(truncated(fj.jet, order))


# Every order requirement of the package at k = 3: the quantity its message
# names, its minimum order, and a call at one order.  ``normal`` is a normal
# fanning frame jet of order 7; ``curves`` a polynomial and an ODE curve.
ORDER_REQUIREMENTS = [
    ("a frame jet with k=3", 2, lambda normal, curves, r: _truncated(normal, r)),
    ("derivative 3", 3, lambda normal, curves, r: _truncated(normal, r).derivative_jet(3)),
    (
        "the equation coefficients",
        3,
        lambda normal, curves, r: _truncated(normal, r).equation_coefficients,
    ),
    (
        "the endomorphism bundle",
        4,
        lambda normal, curves, r: endomorphism_bundle(_truncated(normal, r)).horizontal,
    ),
    (
        "the endomorphism bundle",
        4,
        lambda normal, curves, r: endomorphism_bundle(_truncated(normal, r)),
    ),
    ("frame jets with k=3", 2, lambda normal, curves, r: curves[0].frame_jets([0.0, 0.2], r)),
    ("frame jets with k=3", 2, lambda normal, curves, r: curves[1].frame_jets([-0.2, 0.2], r)),
    (
        "h_1 from coefficient jets",
        2,
        lambda normal, curves, r: invariants_from_coefficients(
            tuple(truncated(p, r) for p in normal.equation_coefficients)
        ),
    ),
    (
        "the full invariant set",
        5,
        lambda normal, curves, r: wilczynski_invariants(_truncated(normal, r)),
    ),
    ("the Jacobi matrix", 4, lambda normal, curves, r: jacobi_matrix(_truncated(normal, r))),
    (
        "the Maurer-Cartan pullback",
        4,
        lambda normal, curves, r: maurer_cartan_pullback(_truncated(normal, r), "H"),
    ),
    ("canonicalization", 4, lambda normal, curves, r: canonicalize_jet(_truncated(normal, r))),
]


class TestOrderGate:
    """Every order requirement raises one message below its minimum and passes at it."""

    @pytest.mark.parametrize(
        "what, minimum, call",
        ORDER_REQUIREMENTS,
        ids=[
            "FrameJet",
            "derivative_jet",
            "equation_coefficients",
            "horizontal",
            "endomorphism_bundle",
            "polynomial_frame_jets",
            "ode_frame_jets",
            "invariants_from_coefficients",
            "wilczynski_invariants",
            "jacobi_matrix",
            "maurer_cartan_pullback",
            "canonicalize_jet",
        ],
    )
    def test_minimum_order(self, what, minimum, call, rng):
        normal = normalized_frame_jet(random_frame_jet(3, 2, 9, rng))
        assert normal.order == 7
        curves = (random_polynomial_curve(3, 2, rng), drifting_ode_curve(rng, 3, 2))
        with pytest.raises(InsufficientOrderError) as excinfo:
            call(normal, curves, minimum - 1)
        assert str(excinfo.value) == f"{what} needs jet order >= {minimum}, have {minimum - 1}"
        call(normal, curves, minimum)
