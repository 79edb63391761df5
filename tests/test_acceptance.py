"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  Scale: k in {2,3,4,5},
n in {1,2,3}, seeded random polynomial curves of degree <= k+3.
"""

import math

import numpy as np

from fanning import (
    FrameJet,
    are_congruent,
    endomorphism_bundle,
    invariants_from_coefficients,
    jacobi_matrix,
    maurer_cartan_pullback,
    normal_frame,
    normalized_frame_jet,
    normalizing_jet,
    ode_coefficients,
    orbit_coordinates,
    wilczynski_invariants,
)
from fanning.jets import horner, jet_mul
from fanning.linalg import eigenvalue_multiplicity, span_distance
from conftest import (
    ALL_KN,
    ambient_endomorphisms,
    classical_schwarzian,
    eigenspace,
    h1_closed_form,
    h2_closed_form,
    jet_derivative,
    jet_sum,
    random_frame_jet,
    random_invertible,
    random_jet,
    random_polynomial_curve,
    random_polynomial_matrix_curve,
    right_multiplied,
    schwarzian,
    standard_jet,
    tame_polynomial_curve,
    tan_curve,
    tan_taylor_coefficients,
)


def report(number, ok, description, worst):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status} - {description} (worst: {worst:.3e})")
    assert ok, f"criterion {number}: {description} (worst {worst:.3e})"


def normalized_random_jet(k, n, rng, margin=4, scale=0.15):
    fj = random_frame_jet(k, n, 2 * k + margin, rng, scale=scale)
    return normalized_frame_jet(fj)


def test_criterion_01_reflection_law():
    rng = np.random.default_rng(101)
    worst = 0.0
    for k, n in ALL_KN:
        eye = np.eye(k * n)
        for _ in range(100):
            fj = random_frame_jet(k, n, k + 1, rng)
            d = endomorphism_bundle(fj).reflection
            worst = max(worst, float(np.max(np.abs(d @ d - eye))))
    report(1, worst < 1e-9, "reflection squares to identity on 100 jets per (k,n)", worst)


def test_criterion_02_reflection_eigenstructure():
    rng = np.random.default_rng(102)
    worst_angle = 0.0
    counts_ok = True
    for k, n in ALL_KN:
        for _ in range(100):
            fj = random_frame_jet(k, n, k + 1, rng)
            b = endomorphism_bundle(fj)
            # multiplicities via rank-revealing QR at threshold 1e-8
            counts_ok = counts_ok and (
                eigenvalue_multiplicity(b.reflection, -1.0) == (k - 1) * n
            )
            counts_ok = counts_ok and (
                eigenvalue_multiplicity(b.reflection, 1.0) == n
            )
            plus = eigenspace(b.reflection, 1.0, rtol=1e-8)
            worst_angle = max(
                worst_angle, span_distance(plus, b.horizontal.value())
            )
    ok = counts_ok and worst_angle < 1e-7
    report(2, ok, "reflection eigenvalues -1/(+1) with span(H) as +1 space", worst_angle)


def test_criterion_03_equivariance_suite():
    rng = np.random.default_rng(103)
    worst = 0.0
    for k, n in ALL_KN:
        for _ in range(3):
            curve = random_polynomial_curve(k, n, rng)
            t0 = 0.15
            order = 2 * k + 2
            fj = curve.frame_jet(t0, order)
            inv = wilczynski_invariants(fj)
            f0 = fj.fundamental_endomorphism.value()
            h0 = endomorphism_bundle(fj).horizontal.value()

            t_matrix = random_invertible(k * n, rng, cond_max=50)
            moved = curve.transformed(t_matrix).frame_jet(t0, order)
            inv_t = wilczynski_invariants(moved)
            worst = max(worst, np.max(np.abs(inv_t.kappa.value() - inv.kappa.value())))
            for a, b in zip(inv_t.h, inv.h):
                worst = max(worst, np.max(np.abs(a.value() - b.value())))
            f_t = moved.fundamental_endomorphism.value()
            expected = t_matrix @ f0 @ np.linalg.inv(t_matrix)
            worst = max(
                worst,
                np.max(np.abs(f_t - expected)) / (1.0 + np.max(np.abs(expected))),
            )

            x_poly = random_polynomial_matrix_curve(n, 2, rng, scale=0.3)
            changed = right_multiplied(curve, x_poly).frame_jet(t0, order)
            x0 = horner(x_poly, t0)
            sch = schwarzian(fj).value()
            sch_x = schwarzian(changed).value()
            worst = max(
                worst, np.max(np.abs(sch_x - np.linalg.solve(x0, sch @ x0)))
            )
            h_x = endomorphism_bundle(changed).horizontal.value()
            worst = max(worst, np.max(np.abs(h_x - h0 @ x0)))
    report(3, worst < 1e-8, "ambient/frame-change equivariance of invariants, F and H", worst)


def test_criterion_04_printed_formula_agreement():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p = [random_jet(n, n, 5, rng) for _ in range(4)]
        inv3 = invariants_from_coefficients(p[:3])
        direct3 = h1_closed_form(p[0], p[1], p[2])
        for a, b in zip(inv3.h[0].coeffs, direct3.coeffs):
            worst = max(worst, np.max(np.abs(a - b)))
        inv4 = invariants_from_coefficients(p)
        direct4 = h2_closed_form(p[0], p[1], p[2], p[3])
        for a, b in zip(inv4.h[1].coeffs, direct4.coeffs):
            worst = max(worst, np.max(np.abs(a - b)))
    # the printed fourth-coefficient term drops its subscripts; the
    # recursion forces subscript 1, and a subscript-2 literal reading is
    # quantifiably wrong:
    p = [random_jet(2, 2, 5, rng) for _ in range(4)]
    d2 = jet_derivative(p[1])
    literal = jet_sum(
        (1.0, h2_closed_form(p[0], p[1], p[2], p[3])),
        (-3.0, jet_mul(jet_derivative(p[0]), jet_derivative(p[0]))),
        (1.0, jet_derivative(jet_derivative(jet_derivative(p[0])))),
        (3.0, jet_mul(d2, d2)),
        (-1.0, jet_derivative(jet_derivative(jet_derivative(p[1])))),
    )
    misreading_gap = max(
        np.max(np.abs(a - b))
        for a, b in zip(
            invariants_from_coefficients(p).h[1].coeffs, literal.coeffs
        )
    )
    ok = worst < 1e-9 and misreading_gap > 1e-3
    report(
        4,
        ok,
        f"recursion matches printed Q3/Q4 (subscript-1 resolution; "
        f"subscript-2 misreading off by {misreading_gap:.2e})",
        worst,
    )


def test_criterion_05_normal_frame_fixed_point():
    rng = np.random.default_rng(105)
    worst_p1 = 0.0
    worst_id = 0.0
    for k, n in ALL_KN:
        curve = tame_polynomial_curve(k, n, rng, window=(0.0, 0.4))
        grid = np.linspace(0.0, 0.4, 5)
        record = normal_frame(curve, grid)
        worst_p1 = max(worst_p1, max(record.p1_residuals))
        for i, t in enumerate(grid):
            fj = curve.frame_jet(t, 3 * k)
            p1 = ode_coefficients(fj)[0]
            yjet = normalizing_jet(p1, y0=np.linalg.inv(record.x[i]))
            bjet = FrameJet(jet_mul(fj.jet, yjet))
            inv = wilczynski_invariants(bjet)
            pb = ode_coefficients(bjet)
            worst_id = max(
                worst_id, np.max(np.abs(inv.kappa.value() - pb[1].value()))
            )
            for j, h in enumerate(inv.h, start=1):
                worst_id = max(
                    worst_id, np.max(np.abs(h.value() - pb[j + 1].value()))
                )
    ok = worst_p1 < 1e-7 and worst_id < 1e-8
    report(
        5,
        ok,
        f"normal frames: |P1[B]| < 1e-7 (got {worst_p1:.2e}) and "
        "kappa=P2, h_j=P_(j+2)",
        worst_id,
    )


def test_criterion_06_scalar_schwarzian_tan():
    curve = tan_curve(degree=25)
    m = np.concatenate([[0.0], tan_taylor_coefficients(25)[1:]])
    worst = 0.0
    worst_oracle = 0.0
    for t in np.linspace(-0.4, 0.4, 17):
        value = schwarzian(curve.frame_jet(t, 5)).value()[0, 0]
        worst = max(worst, abs(value - 2.0))
        worst_oracle = max(worst_oracle, abs(value - classical_schwarzian(m, t)))
    ok = worst < 1e-6 and worst_oracle < 1e-9
    report(6, ok, "tan frame Schwarzian equals 2 on [-0.4, 0.4]", worst)


def _jacobi_pattern(k, n, p, which):
    """Expected moving-frame matrix from independently computed invariants."""
    column = np.zeros((k * n, n))
    invariants = [p[j] for j in range(1, k)]
    for r in range(k - 1):
        entry = invariants[k - 2 - r].value().copy()
        if k - 3 - r >= 0:
            entry -= invariants[k - 3 - r].derivative_value(1)
        column[r * n : (r + 1) * n] = math.comb(k - 1, k - 1 - r) * entry
    kappa = invariants[0].value()
    pattern = np.zeros((k * n, k * n))
    if which == "K":
        pattern[:, (k - 2) * n : (k - 1) * n] = column
        pattern[(k - 1) * n :, (k - 1) * n :] = (k - 1) * kappa
    else:
        pattern[:, (k - 1) * n :] = column
        pattern[(k - 1) * n :, (k - 2) * n : (k - 1) * n] = np.eye(n)
    return pattern


def test_criterion_07_jacobi_matrix():
    rng = np.random.default_rng(107)
    worst = 0.0
    for k, n in ALL_KN:
        for _ in range(4):
            nj = normalized_random_jet(k, n, rng)
            b = endomorphism_bundle(nj)
            ambient = ambient_endomorphisms(nj)
            p = ode_coefficients(nj)
            basis = ambient.moving_frame
            direct_k = np.linalg.solve(basis, b.jacobi @ basis)
            worst = max(
                worst, np.max(np.abs(direct_k - _jacobi_pattern(k, n, p, "K")))
            )
            direct_p = np.linalg.solve(basis, ambient.pdot @ basis)
            worst = max(
                worst, np.max(np.abs(direct_p - _jacobi_pattern(k, n, p, "Pdot")))
            )
            h0 = b.horizontal.value()
            worst = max(
                worst,
                np.max(np.abs(b.jacobi @ h0 - (k - 1) * h0 @ p[1].value())),
            )
            # the library's own pattern builder must agree as well
            worst = max(
                worst, np.max(np.abs(jacobi_matrix(nj) - direct_k))
            )
    report(7, worst < 1e-8, "Jacobi and P' moving-frame matrices match the patterns", worst)


def test_criterion_08_k4_maurer_cartan_displays():
    rng = np.random.default_rng(108)
    k = 4
    worst_h = 0.0
    worst_plain = 0.0
    worst_jacobi_display = 0.0
    for i in range(50):
        n = (1, 2, 3)[i % 3]
        nj = normalized_random_jet(k, n, rng)
        p = ode_coefficients(nj)
        kap, kapd = p[1].value(), p[1].derivative_value(1)
        h1, h1d = p[2].value(), p[2].derivative_value(1)
        h2 = p[3].value()
        eye = np.eye(n)

        expected = np.zeros((k * n, k * n))
        for j in range(k - 1):
            expected[(j + 1) * n : (j + 2) * n, j * n : (j + 1) * n] = eye
        expected[0:n, 2 * n : 3 * n] = -h1
        expected[n : 2 * n, 2 * n : 3 * n] = -3 * kap
        expected[0:n, 3 * n :] = h1d - h2
        expected[n : 2 * n, 3 * n :] = 3 * (kapd - h1)
        expected[2 * n : 3 * n, 3 * n :] = -3 * kap
        got = maurer_cartan_pullback(nj, lift="H")
        worst_h = max(worst_h, np.max(np.abs(got - expected)))

        expected = np.zeros((k * n, k * n))
        for j in range(k - 1):
            expected[(j + 1) * n : (j + 2) * n, j * n : (j + 1) * n] = eye
        expected[0:n, 3 * n :] = -h2
        expected[n : 2 * n, 3 * n :] = -4 * h1
        expected[2 * n : 3 * n, 3 * n :] = -6 * kap
        got = maurer_cartan_pullback(nj, lift="kderiv")
        worst_plain = max(worst_plain, np.max(np.abs(got - expected)))

        # the printed plain-lift display is the Jacobi endomorphism in the
        # plain-derivative basis (with two abbreviated derivative terms);
        # it contains the 9 kappa^2 and 3 h1 kappa entries
        expected = np.zeros((k * n, k * n))
        expected[0:n, 2 * n : 3 * n] = h2 - h1d
        expected[n : 2 * n, 2 * n : 3 * n] = 3 * (h1 - kapd)
        expected[2 * n : 3 * n, 2 * n : 3 * n] = 3 * kap
        expected[0:n, 3 * n :] = 3 * (h1 @ kap)
        expected[n : 2 * n, 3 * n :] = 9 * (kap @ kap)
        expected[3 * n :, 3 * n :] = 3 * kap
        jux = nj.juxtaposed.value()
        got = np.linalg.solve(jux, endomorphism_bundle(nj).jacobi @ jux)
        worst_jacobi_display = max(
            worst_jacobi_display, np.max(np.abs(got - expected))
        )
    worst = max(worst_h, worst_plain, worst_jacobi_display)
    report(
        8,
        worst < 1e-8,
        "k=4 pullback displays (H-lift as printed; plain lift carries the "
        "equation coefficients; printed second display realized as the "
        "Jacobi endomorphism in the plain basis, 9k^2 and 3h1k entries included)",
        worst,
    )


def _perturbed_copy(curve, rng):
    coeffs = [c.copy() for c in curve.coefficients]
    index = int(rng.integers(1, len(coeffs)))
    row = int(rng.integers(0, coeffs[index].shape[0]))
    col = int(rng.integers(0, coeffs[index].shape[1]))
    coeffs[index][row, col] += 0.1
    return type(curve)(curve.k, curve.n, tuple(coeffs))


def test_criterion_09_congruence_completeness_and_soundness():
    rng = np.random.default_rng(109)
    accepted = 0
    rejected = 0
    false_verdicts = []
    worst_span = 0.0
    total = 200
    for i in range(total):
        k, n = ALL_KN[i % len(ALL_KN)]
        curve = tame_polynomial_curve(k, n, rng, window=(0.0, 0.4))
        samples = np.linspace(0.0, 0.4, 2 * k + 3)

        t_matrix = random_invertible(k * n, rng, cond_max=50)
        x0 = random_invertible(n, rng, cond_max=20)
        moved = right_multiplied(curve.transformed(t_matrix), x0)
        witness = are_congruent(curve, moved, samples)
        if witness.verdict == "congruent" and max(witness.span_distances) < 1e-7:
            accepted += 1
        else:
            false_verdicts.append((k, n, i, witness.verdict, "completeness"))
        if witness.span_distances.size:
            worst_span = max(worst_span, max(witness.span_distances))

        # soundness: perturb until kappa provably moves by >= 0.01
        rec_a = normal_frame(curve, samples)
        while True:
            perturbed = _perturbed_copy(curve, rng)
            try:
                rec_b = normal_frame(perturbed, samples)
            except Exception:
                continue
            kappa_gap = max(
                np.max(np.abs(qa - qb))
                for qa, qb in zip(rec_a.q[0], rec_b.q[0])
            )
            if kappa_gap >= 0.01:
                break
        witness = are_congruent(curve, perturbed, samples)
        if witness.verdict == "not_congruent":
            rejected += 1
        else:
            false_verdicts.append((k, n, i, witness.verdict, "soundness"))
    ok = accepted == total and rejected == total
    print(
        f"    criterion 9 detail: {accepted}/{total} constructed pairs accepted, "
        f"{rejected}/{total} perturbed pairs rejected, "
        f"false verdicts: {false_verdicts[:5]}"
    )
    report(9, ok, "congruence completeness and soundness, zero false verdicts", worst_span)


def test_criterion_10_orbit_coordinates():
    rng = np.random.default_rng(110)
    worst = 0.0
    exact_zero = True
    for k, n in ALL_KN:
        coords = orbit_coordinates(standard_jet(k, n, k + 1))
        exact_zero = exact_zero and all(
            np.max(np.abs(entry)) == 0.0 for entry in coords.entries
        )
        for _ in range(2):
            curve = random_polynomial_curve(k, n, rng)
            fj = curve.frame_jet(0.1, k + 1)
            base = orbit_coordinates(fj)
            for _ in range(2):
                t_matrix = random_invertible(k * n, rng, cond_max=50)
                moved = orbit_coordinates(
                    curve.transformed(t_matrix).frame_jet(0.1, k + 1)
                )
                worst = max(
                    worst,
                    max(np.max(np.abs(a - b)) for a, b in zip(base.entries, moved.entries)),
                )
    ok = worst < 1e-8 and exact_zero
    report(10, ok, "orbit coordinates ambient-invariant, zero on the free jet", worst)


def test_criterion_11_finite_difference_guard():
    rng = np.random.default_rng(111)
    step = 1e-4
    worst = 0.0
    for k, n in ALL_KN:
        for _ in range(2):
            curve = tame_polynomial_curve(k, n, rng, window=(0.0, 0.4))
            t0 = 0.2
            f = curve.frame_jet(t0, k + 3).fundamental_endomorphism
            f_minus = curve.frame_jet(t0 - step, k + 1).fundamental_endomorphism.value()
            f_plus = curve.frame_jet(t0 + step, k + 1).fundamental_endomorphism.value()
            fdot = f.derivative_value(1)
            fddot = f.derivative_value(2)
            fdot_fd = (f_plus - f_minus) / (2 * step)
            fddot_fd = (f_plus - 2 * f.value() + f_minus) / step**2
            worst = max(
                worst,
                np.max(np.abs(fdot_fd - fdot)) / (1.0 + np.max(np.abs(fdot))),
                np.max(np.abs(fddot_fd - fddot)) / (1.0 + np.max(np.abs(fddot))),
            )
    report(11, worst < 1e-5, "jet derivatives of F match central differences", worst)
