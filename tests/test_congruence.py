"""Congruence decision, conjugator search, canonical jets, orbit coordinates."""

import dataclasses

import numpy as np
import pytest

from fanning import (
    are_congruent,
    canonicalize_jet,
    ode_coefficients,
    orbit_coordinates,
    simultaneous_conjugator,
    wilczynski_invariants,
)
import fanning.congruence as congruence_mod
import fanning.curves as curves_mod
import fanning.invariants as invariants_mod
from fanning.jets import horner
from conftest import (
    ALL_KN,
    kron_system,
    random_invertible,
    random_polynomial_curve,
    right_multiplied,
    standard_jet,
    tame_polynomial_curve,
    tan_curve,
    unconjugate_ode_pair,
)


def congruence_pair(k, n, rng, **kwargs):
    curve = tame_polynomial_curve(k, n, rng, **kwargs)
    t_matrix = random_invertible(k * n, rng, cond_max=50)
    x0 = random_invertible(n, rng, cond_max=20)
    return curve, right_multiplied(curve.transformed(t_matrix), x0), t_matrix, x0


def perturbed_pair(k, n, rng):
    curve_a = tame_polynomial_curve(k, n, rng)
    coeffs = [c.copy() for c in curve_a.coefficients]
    coeffs[2][0, 0] += 0.1
    return curve_a, type(curve_a)(k, n, tuple(coeffs))


class TestSimultaneousConjugator:
    def test_identical_pairs_commutant(self, rng):
        mats = [rng.standard_normal((3, 3)) for _ in range(3)]
        x = simultaneous_conjugator([(m, m) for m in mats])
        assert x is not None
        for m in mats:
            assert np.max(np.abs(m @ x - x @ m)) < 1e-8

    def test_recovers_constructed_conjugator(self, rng):
        n = 3
        x0 = random_invertible(n, rng, cond_max=20)
        mats = [rng.standard_normal((n, n)) for _ in range(4)]
        pairs = [(x0 @ m @ np.linalg.inv(x0), m) for m in mats]
        x = simultaneous_conjugator(pairs)
        assert x is not None
        # the (P, 2, n, n) array of the pairs is the same input
        np.testing.assert_array_equal(simultaneous_conjugator(np.array(pairs)), x)
        # generic tuples have a one-dimensional joint commutant, so the
        # recovered conjugator is a scalar multiple of the constructed one
        ratio = x @ np.linalg.inv(x0)
        scalar = ratio[0, 0]
        np.testing.assert_allclose(ratio, scalar * np.eye(n), atol=1e-8)

    def test_unit_perturbation_refused(self, rng):
        n = 3
        m = rng.standard_normal((n, n))
        e = rng.standard_normal((n, n))
        e *= 1.0 / np.linalg.norm(e, 2)
        mats = [rng.standard_normal((n, n)) for _ in range(3)]
        pairs = [(m, m + e)] + [(q, q) for q in mats]
        assert simultaneous_conjugator(pairs) is None

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            simultaneous_conjugator([])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_system_equals_kronecker_construction(self, n, rng, monkeypatch):
        pairs = [(rng.standard_normal((n, n)), rng.standard_normal((n, n))) for _ in range(5)]
        pairs.append((np.zeros((n, n)), -np.eye(n)))
        seen = []

        def recording(matrix, **kwargs):
            seen.append(matrix)
            return np.zeros((n * n, 0))

        monkeypatch.setattr(congruence_mod, "nullspace", recording)
        assert simultaneous_conjugator(pairs) is None
        (system,) = seen
        expected = kron_system(pairs)
        np.testing.assert_array_equal(system, expected)
        # signed zeros too
        assert np.array_equal(np.signbit(system), np.signbit(expected))

    @pytest.mark.parametrize(
        "pairs",
        [
            [(np.eye(2), np.eye(3))],
            [(np.eye(2), np.eye(2)), (np.eye(3), np.eye(3))],
            [(np.ones((2, 3)), np.ones((2, 3)))],
            np.ones((2, 3, 2, 2)),
        ],
        ids=["mixed-in-pair", "mixed-across-pairs", "non-square", "triples"],
    )
    def test_mismatched_shapes_rejected(self, pairs):
        with pytest.raises(ValueError, match="square matrices of one size"):
            simultaneous_conjugator(pairs)

    def test_deterministic_given_seed(self, rng):
        mats = [rng.standard_normal((2, 2)) for _ in range(2)]
        pairs = [(m, m) for m in mats]
        a = simultaneous_conjugator(pairs, seed=5)
        b = simultaneous_conjugator(pairs, seed=5)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("epsilon", [1e-12, -1e-12])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_sign_holds_across_near_equal_entries(self, epsilon, sign, monkeypatch):
        # Near diag(1, -1) a rounding decides which entry is largest; the first
        # entry within half of the largest leads, so +1 stays positive either way.
        basis = sign * np.diag([1.0, -(1.0 + epsilon)]).reshape(4, 1)
        monkeypatch.setattr(congruence_mod, "nullspace", lambda *args, **kwargs: basis)
        x = simultaneous_conjugator([(np.eye(2), np.eye(2))])
        assert x[0, 0] > 0 and x[1, 1] < 0

    def test_sign_is_that_of_the_leading_entry(self, rng):
        for n in (1, 2, 3) * 4:
            m = rng.standard_normal((n, n))
            x0 = random_invertible(n, rng)
            x = simultaneous_conjugator([(m, np.linalg.solve(x0, m @ x0))])
            magnitudes = np.abs(x.ravel())
            assert x.flat[np.argmax(magnitudes >= 0.5 * magnitudes.max())] > 0


class TestWitnessRecord:
    def test_fields_in_report_order_without_defaults(self):
        fields = dataclasses.fields(congruence_mod.CongruenceWitness)
        assert [f.name for f in fields] == [
            "verdict",
            "samples",
            "conjugator",
            "ambient",
            "residuals",
            "span_distances",
            "conjugator_condition",
            "message",
        ]
        assert all(f.default is dataclasses.MISSING for f in fields)
        assert all(f.default_factory is dataclasses.MISSING for f in fields)


class TestAreCongruent:
    def test_constructed_pair_accepted(self, rng):
        for k, n in ((2, 2), (3, 1), (3, 2)):
            curve_a, curve_b, t_matrix, x0 = congruence_pair(k, n, rng)
            samples = np.linspace(0.0, 0.5, 2 * k + 3)
            w = are_congruent(curve_a, curve_b, samples)
            assert w.verdict == "congruent"
            assert max(w.residuals) < 1e-7
            assert max(w.span_distances) < 1e-7
            assert np.linalg.cond(w.conjugator) < 1e8

    def test_perturbed_pair_rejected(self, rng):
        k, n = 3, 2
        curve_a, curve_b = perturbed_pair(k, n, rng)
        samples = np.linspace(0.0, 0.5, 2 * k + 3)
        # the perturbation must actually move kappa before we assert rejection
        diffs = [
            np.max(
                np.abs(
                    wilczynski_invariants(curve_a.frame_jet(t, 2 * k + 1)).kappa.value()
                    - wilczynski_invariants(curve_b.frame_jet(t, 2 * k + 1)).kappa.value()
                )
            )
            for t in samples
        ]
        assert max(diffs) > 0.01
        w = are_congruent(curve_a, curve_b, samples)
        assert w.verdict == "not_congruent"

    def test_self_congruent_with_identity(self, rng):
        k, n = 2, 2
        curve = tame_polynomial_curve(k, n, rng)
        samples = np.linspace(0.0, 0.4, 7)
        w = are_congruent(curve, curve, samples)
        assert w.verdict == "congruent"
        # the commutant may be larger, but identity must satisfy the
        # recomputed equations, and the found conjugator does too
        assert max(w.residuals) < 1e-8

    def test_ambient_map_carries_spans(self, rng):
        k, n = 3, 2
        curve_a, curve_b, _, _ = congruence_pair(k, n, rng)
        samples = np.linspace(0.0, 0.5, 2 * k + 3)
        w = are_congruent(curve_a, curve_b, samples)
        from fanning.linalg import span_distance

        for t in (0.12, 0.37):  # off-sample times
            image = w.ambient @ horner(curve_a.coefficients, t)
            assert span_distance(image, horner(curve_b.coefficients, t)) < 1e-6

    def test_condition_gate_gives_inconclusive(self, rng, monkeypatch):
        monkeypatch.setattr(congruence_mod, "DEFAULT_CONDITION_LIMIT", 1.5)
        k, n = 2, 2
        curve_a, curve_b, _, x0 = congruence_pair(k, n, rng)
        while np.linalg.cond(x0) < 3.0:
            curve_a, curve_b, _, x0 = congruence_pair(k, n, rng)
        samples = np.linspace(0.0, 0.4, 7)
        w = are_congruent(curve_a, curve_b, samples)
        assert w.verdict == "inconclusive"

    def test_sample_grid_validation(self, rng):
        curve = random_polynomial_curve(2, 1, rng)
        with pytest.raises(ValueError):
            are_congruent(curve, curve, [0.0])

    def test_dimension_mismatch(self, rng):
        a = random_polynomial_curve(2, 1, rng)
        b = random_polynomial_curve(3, 1, rng)
        with pytest.raises(ValueError):
            are_congruent(a, b, [0.0, 0.1])


def invariant_traces_gap(curve_a, curve_b, samples):
    k = curve_a.k
    wa, wb = (
        wilczynski_invariants(c.frame_jets(samples, 2 * k - 1)).values()
        for c in (curve_a, curve_b)
    )
    return float(np.max(congruence_mod.trace_gaps(wa, wb)))


class TestTraceEarlyExit:
    """Traces of the invariants' powers decide first, and n = 1 integrates nothing."""

    @pytest.fixture
    def no_integration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the normalizing change was integrated")

        monkeypatch.setattr(invariants_mod, "solve_ivp", refuse)

    def test_scalar_pair_decided_without_integration(self, rng, no_integration):
        curve_a, curve_b, _, _ = congruence_pair(3, 1, rng)
        w = are_congruent(curve_a, curve_b, np.linspace(0.0, 0.5, 9))
        assert w.verdict == "congruent"
        assert max(w.residuals) < 1e-7
        assert max(w.span_distances) < 1e-7

    def test_perturbed_pair_refused_by_traces(self, rng, no_integration):
        curve_a, curve_b = perturbed_pair(3, 2, rng)
        samples = np.linspace(0.0, 0.5, 9)
        w = are_congruent(curve_a, curve_b, samples)
        assert w.verdict == "not_congruent"
        assert w.message.startswith("invariant traces differ: tr(")
        gap = invariant_traces_gap(curve_a, curve_b, samples)
        assert gap > 1e-7
        assert f"by {gap:.3e} (relative)" in w.message
        assert w.samples == tuple(samples.tolist())
        assert w.conjugator is None and w.ambient is None
        assert w.residuals == () and w.span_distances == ()
        assert w.conjugator_condition == np.inf

    def test_equal_traces_take_the_full_path(self, monkeypatch):
        curve_a, curve_b = unconjugate_ode_pair()
        samples = np.linspace(0.0, 0.4, 5)
        assert invariant_traces_gap(curve_a, curve_b, samples) < 1e-10
        calls = []

        def counting(curve, grid):
            calls.append(curve)
            return invariants_mod.normalizer(curve, grid)

        monkeypatch.setattr(congruence_mod, "normalizer", counting)
        w = are_congruent(curve_a, curve_b, samples)
        assert w.verdict == "not_congruent"
        assert not w.message.startswith("invariant traces differ")
        assert calls == [curve_a, curve_b]

    def test_normal_lifts_built_at_the_first_sample_only(self, rng, monkeypatch):
        """The lifts come from the batch's own ``P_1``: no jet solve runs on the first sample alone."""
        curve_a, curve_b, _, _ = congruence_pair(3, 2, rng)
        samples = np.linspace(0.0, 0.5, 9)
        solved = []
        jet_solve = curves_mod.jet_solve

        def recording(a, b, a0_inverse):
            solved.append(np.ravel(a.base_time).tolist())
            return jet_solve(a, b, a0_inverse)

        monkeypatch.setattr(curves_mod, "jet_solve", recording)
        w = are_congruent(curve_a, curve_b, samples)
        assert w.verdict == "congruent"
        assert samples.tolist() in solved and [0.0] not in solved
        # the lifts of the whole batches' first samples, bit for bit
        monkeypatch.undo()
        lift_a, lift_b = (
            invariants_mod.normalized_frame_jet(curve.frame_jets(samples, 5)).juxtaposed.value()[0]
            for curve in (curve_a, curve_b)
        )
        expected = lift_b @ np.linalg.inv(lift_a @ np.kron(np.eye(3), w.conjugator))
        np.testing.assert_array_equal(w.ambient, expected)

    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_constructed_pairs_trace_margin(self, k, n, rng):
        # Recorded margin of the early exit under the default tolerance 1e-7.
        curve_a, curve_b, _, _ = congruence_pair(k, n, rng, window=(0.0, 0.4))
        assert invariant_traces_gap(curve_a, curve_b, np.linspace(0.0, 0.4, 2 * k + 3)) <= 1e-10


class TestCanonicalize:
    def test_standard_jet_fixed(self):
        k, n = 3, 2
        fj = standard_jet(k, n, k + 1)
        standard, ambient = canonicalize_jet(fj)
        np.testing.assert_allclose(ambient, np.eye(k * n), atol=1e-12)
        for a, b in zip(
            standard.jet.coeffs[: fj.order + 1], fj.jet.coeffs
        ):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_output_is_standard(self, rng):
        k, n = 3, 2
        curve = random_polynomial_curve(k, n, rng)
        fj = curve.frame_jet(0.2, k + 1)
        standard, ambient = canonicalize_jet(fj)
        np.testing.assert_allclose(
            standard.juxtaposed.value(), np.eye(k * n), atol=1e-10
        )
        p = ode_coefficients(standard)
        assert np.max(np.abs(p[0].value())) < 1e-10
        # the ambient map actually produces the standard frame from the
        # normalized input
        assert np.max(np.abs(standard.jet.value() - np.eye(k * n)[:, :n])) < 1e-10

    def test_base_plane_is_leading_block(self, rng):
        k, n = 4, 1
        curve = random_polynomial_curve(k, n, rng)
        standard, _ = canonicalize_jet(curve.frame_jet(0.1, k + 1))
        value = standard.jet.value()
        np.testing.assert_allclose(value[:n], np.eye(n), atol=1e-10)
        np.testing.assert_allclose(value[n:], 0.0, atol=1e-10)


class TestOrbitCoordinates:
    def test_standard_free_jet_exactly_zero(self):
        for k, n in ((2, 1), (3, 2), (4, 1)):
            coords = orbit_coordinates(standard_jet(k, n, k + 1))
            assert len(coords.entries) == k - 1
            for entry in coords.entries:
                assert np.max(np.abs(entry)) == 0.0

    def test_tan_frame_single_entry_is_one(self):
        fj = tan_curve().frame_jet(0.0, 3)
        coords = orbit_coordinates(fj)
        assert len(coords.entries) == 1
        assert abs(coords.entries[0][0, 0] - 1.0) < 1e-10

    def test_invariant_under_ambient_maps(self, rng):
        for k, n in ((2, 2), (3, 1), (4, 2)):
            curve = random_polynomial_curve(k, n, rng)
            fj = curve.frame_jet(0.15, k + 1)
            base = orbit_coordinates(fj)
            for _ in range(3):
                t_matrix = random_invertible(k * n, rng)
                moved = orbit_coordinates(
                    curve.transformed(t_matrix).frame_jet(0.15, k + 1)
                )
                for a, b in zip(base.entries, moved.entries):
                    assert np.max(np.abs(a - b)) < 1e-8

    def test_canonicalized_jets_share_coordinates(self, rng):
        k, n = 3, 2
        curve = random_polynomial_curve(k, n, rng)
        fj = curve.frame_jet(0.1, k + 1)
        t_matrix = random_invertible(k * n, rng)
        a, _ = canonicalize_jet(fj)
        b, _ = canonicalize_jet(curve.transformed(t_matrix).frame_jet(0.1, k + 1))
        for x, y in zip(a.jet.coeffs, b.jet.coeffs):
            np.testing.assert_allclose(x, y, atol=1e-8)
