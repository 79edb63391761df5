"""Seeded inputs and command lists of the benchmark's workloads.

Curves are generated with numpy alone and screened with the direct solves
of :mod:`oracle`, so building a workload runs none of the code the
workloads measure.  The make-up of every workload (the (k, n) pairs, the
degrees, grids and intervals, and so the commands of a round) does not
depend on the seed; the seed draws the coefficients only, which keeps the
work of a round nearly the same from seed to seed.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracle

ALL_KN = [(k, n) for k in (2, 3, 4, 5) for n in (1, 2, 3)]

POLY_WINDOW = (0.0, 0.4)
SCREEN_TIMES = np.linspace(0.0, 0.5, 17)
POLY_SCALE = {2: 0.2, 3: 0.16, 4: 0.12, 5: 0.08}
POLY_PEAK = 4.0
POLY_JET_PEAK = 60.0
POLY_COND = 60.0

# grid-poly grid sizes per ALL_KN entry: plain invariants, then --jacobi runs.
PLAIN_GRID = (201, 81, 41, 81, 41, 21, 41, 21, 11, 21, 11, 11)
JACOBI_GRID = (41, 21, 21, 31, 21, 11, 21, 11, 11, 21, 11, 11)

# congruence: dense grids stop at 41-161 samples and at about 1600 rows of
# the stacked conjugator system, (k-1) n^2 rows per sample, which bounds
# the rows x rows factor a full SVD builds at 20 MB.
DENSE_ROWS = 1600
DENSE_MAX = 161
PERTURB_SIZE = 0.1
KAPPA_MARGIN = 0.01

# grid-ode: (k, n, interval length, invariants grid, normal-frame grid).  Each
# case runs once with constant and once with drifting coefficients, the
# latter over SHORT_SHARE of the interval, so that command costs spread
# evenly instead of in a few steps.
ODE_CASES = (
    (2, 1, 8.0, 9, 17),
    (2, 2, 8.0, 9, 9),
    (2, 3, 6.0, 5, 9),
    (3, 1, 8.0, 5, 9),
    (3, 2, 6.0, 5, 9),
    (4, 1, 4.0, 5, 9),
    (5, 1, 4.0, 5, 5),
)
SHORT_SHARE = 0.6
ODE_EPS = 0.015
ODE_DRIFT = 0.005
ODE_MAX_REAL = 0.08
ODE_COND = 1e3


@dataclass
class PolyCurve:
    k: int
    n: int
    coeffs: np.ndarray

    def to_dict(self):
        return {"kind": "polynomial", "k": self.k, "n": self.n,
                "coefficients": self.coeffs.tolist()}

    def value(self, t):
        return oracle.poly_derivative(self.coeffs, t, 0)


@dataclass
class OdeCurve:
    k: int
    n: int
    p: list
    a0: np.ndarray
    constant: bool

    def to_dict(self):
        return {"kind": "ode", "k": self.k, "n": self.n,
                "P": [{"degree": c.shape[0] - 1, "coefficients": c.tolist()} for c in self.p],
                "A0": self.a0.tolist()}


@dataclass
class Op:
    """One CLI command: ``fanning <command> <curve files> <options>``."""

    name: str
    command: str
    curves: tuple
    options: tuple
    points: int
    check: str
    ref: dict = field(default_factory=dict)

    def argv(self, paths):
        return [self.command, *(paths[c] for c in self.curves), *self.options]


@dataclass
class Workload:
    curves: dict
    ops: list

    def write(self, directory):
        """Write every curve file; returns curve id -> path."""
        paths = {}
        for cid, curve in self.curves.items():
            path = os.path.join(directory, f"{cid}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(curve.to_dict(), fh)
            paths[cid] = path
        return paths


def grid_times(start, end, count):
    """The times the program makes of ``--grid=start:end:count``."""
    return np.linspace(start, end, count) if count > 1 else np.array([start])


def grid_option(start, end, count):
    return f"--grid={start!r}:{end!r}:{count}"


def random_invertible(dim, rng, cond_max):
    while True:
        m = rng.standard_normal((dim, dim))
        if np.linalg.cond(m) < cond_max:
            return m


def tame(coeffs, k, n):
    worst, cond = oracle.tameness(coeffs, k, n, SCREEN_TIMES[::8], k)
    if cond >= POLY_COND or worst >= POLY_JET_PEAK:
        return False
    worst, cond = oracle.tameness(coeffs, k, n, SCREEN_TIMES, 0)
    return cond < POLY_COND and worst < POLY_PEAK


def poly_curve(k, n, rng):
    """Random degree-(k+3) frame around the free curve, screened on [0, 0.5].

    Bounds ``cond(J)``, the values of ``P_i`` on 17 points, and the scaled
    derivatives ``|P_i^(r)| / r!`` up to ``r = k`` at both ends and the
    middle, so that every jet the program builds stays well conditioned.
    The noise shrinks for n = 3, where the screen would otherwise reject
    most draws.
    """
    scale = POLY_SCALE[k] * (0.7 if n == 3 else 1.0)
    while True:
        coeffs = np.empty((k + 4, k * n, n))
        for j in range(k + 4):
            noise = scale * rng.standard_normal((k * n, n))
            if j < k:
                noise[j * n : (j + 1) * n] += np.eye(n)
            coeffs[j] = noise / math.factorial(min(j, k))
        if tame(coeffs, k, n):
            return PolyCurve(k, n, coeffs)


def image(curve, t_matrix, x0=None):
    """``T A x0`` for constant ``T`` and ``x0``."""
    coeffs = np.einsum("ab,jbc->jac", t_matrix, curve.coeffs)
    if x0 is not None:
        coeffs = coeffs @ x0
    return PolyCurve(curve.k, curve.n, coeffs)


def kappa_gap(a, b, times):
    """Largest difference of the characteristic polynomials of the two kappas."""
    gap = 0.0
    for t in times:
        ka, _ = oracle.poly_kappa(a.coeffs, a.k, a.n, t)
        kb, _ = oracle.poly_kappa(b.coeffs, b.k, b.n, t)
        diff = oracle.conjugation_invariants(ka) - oracle.conjugation_invariants(kb)
        gap = max(gap, float(np.max(np.abs(diff))))
    return gap


def perturbed(curve, rng, times):
    """``curve`` with one coefficient entry moved by PERTURB_SIZE.

    Kept only when it stays tame and the conjugation invariants of kappa
    move by at least KAPPA_MARGIN at one of ``times``, so that no constant
    conjugator can exist.
    """
    while True:
        coeffs = curve.coeffs.copy()
        j = int(rng.integers(1, coeffs.shape[0]))
        r = int(rng.integers(0, coeffs.shape[1]))
        c = int(rng.integers(0, coeffs.shape[2]))
        coeffs[j, r, c] += PERTURB_SIZE
        other = PolyCurve(curve.k, curve.n, coeffs)
        if tame(coeffs, curve.k, curve.n) and kappa_gap(curve, other, times) >= KAPPA_MARGIN:
            return other


def grid_poly(rng, quick=False):
    curves, ops = {}, []
    start, end = POLY_WINDOW
    for idx, (k, n) in enumerate(ALL_KN):
        tag = f"k{k}n{n}"
        a = poly_curve(k, n, rng)
        ta = image(a, random_invertible(k * n, rng, 50.0))
        curves[f"{tag}-a"], curves[f"{tag}-ta"] = a, ta
        g1, g2 = (3, 3) if quick else (PLAIN_GRID[idx], JACOBI_GRID[idx])
        t0 = round(float(rng.uniform(0.05, 0.35)), 6)
        plain = (grid_option(start, end, g1),)
        jac = (grid_option(start, end, g2), "--jacobi", "--maurer-cartan", "H")
        ops += [
            Op(f"{tag}-inv-a", "invariants", (f"{tag}-a",), plain, g1, "poly_invariants",
               {"curve": f"{tag}-a", "grid": (start, end, g1)}),
            Op(f"{tag}-inv-ta", "invariants", (f"{tag}-ta",), plain, g1, "poly_invariants",
               {"curve": f"{tag}-ta", "grid": (start, end, g1), "same_as": f"{tag}-inv-a"}),
            Op(f"{tag}-jac-json", "invariants", (f"{tag}-a",), jac, g2, "poly_invariants",
               {"curve": f"{tag}-a", "grid": (start, end, g2)}),
            Op(f"{tag}-jac-csv", "invariants", (f"{tag}-a",), jac + ("--format", "csv"), g2,
               "csv_matches", {"json_op": f"{tag}-jac-json"}),
            Op(f"{tag}-can-a", "canonicalize", (f"{tag}-a",), ("--t", repr(t0)), 1,
               "canonical", {"curve": f"{tag}-a", "t": t0}),
            Op(f"{tag}-can-ta", "canonicalize", (f"{tag}-ta",), ("--t", repr(t0)), 1,
               "canonical", {"curve": f"{tag}-ta", "t": t0, "same_as": f"{tag}-can-a"}),
        ]
    return Workload(curves, ops)


def dense_count(k, n):
    return min(DENSE_MAX, max(41, DENSE_ROWS // ((k - 1) * n * n)))


def congruence(rng, quick=False):
    """Per (k, n): two pairs on 2k+3 samples and one pair on a dense grid.

    Each pair is a constructed ``B = T A x0`` and a perturbed copy of ``A``,
    so half the commands go on to ambient reconstruction and half stop
    once no conjugator exists.
    """
    curves, ops = {}, []
    start, end = POLY_WINDOW
    for k, n in ALL_KN:
        sparse = 2 * k + 3
        dense = 2 * k + 5 if quick else dense_count(k, n)
        for label, count in (("s1", sparse), ("s2", sparse), ("dense", dense)):
            tag = f"k{k}n{n}-{label}"
            a = poly_curve(k, n, rng)
            b = image(a, random_invertible(k * n, rng, 50.0), random_invertible(n, rng, 20.0))
            # Every grid samples both ends of the window.
            c = perturbed(a, rng, (start, end))
            curves.update({f"{tag}-a": a, f"{tag}-b": b, f"{tag}-p": c})
            for other, verdict in (("b", "congruent"), ("p", "not_congruent")):
                ops.append(Op(
                    f"{tag}-{other}", "congruent", (f"{tag}-a", f"{tag}-{other}"),
                    (grid_option(start, end, count),), 2 * count, "congruence",
                    {"curves": (f"{tag}-a", f"{tag}-{other}"), "grid": (start, end, count),
                     "verdict": verdict}))
    return Workload(curves, ops)


def ode_scalar_coefficients(k, omegas):
    """``c_i`` with ``l^k + sum C(k, i) c_i l^(k-i)`` having roots ``+-i w`` (and 0)."""
    poly = np.poly1d([1.0])
    for w in omegas:
        poly = poly * np.poly1d([1.0, 0.0, w * w])
    if k % 2:
        poly = poly * np.poly1d([1.0, 0.0])
    c = poly.coeffs
    return [c[i] / math.comb(k, i) for i in range(1, k + 1)]


def ode_screen(curve, length):
    """Companion eigenvalues near the imaginary axis and ``cond(Y)`` bounded."""
    k, n = curve.k, curve.n
    times = np.linspace(0.0, length, 9)
    for t in times:
        comp = oracle.companion(oracle.ode_p_values(curve.p, t), k, n)
        if np.max(np.abs(np.linalg.eigvals(comp).real)) > ODE_MAX_REAL:
            return False
    states = oracle.rk4_states(curve.p, curve.a0, k, n, times, 0.1)
    return max(np.linalg.cond(y) for y in states) < ODE_COND


def ode_curve(k, n, length, constant, rng):
    """Near-oscillatory order-k equation: ``P_i = c_i I`` plus small noise.

    The frequencies of the scalar part are fixed, so that the integrator's
    step counts, and with them the work of a round, move little with the
    seed.
    """
    while True:
        m = k // 2
        scalar = ode_scalar_coefficients(k, [0.5 + 0.5 * j / max(m - 1, 1) for j in range(m)])
        p = []
        for i in range(k):
            c0 = scalar[i] * np.eye(n) + ODE_EPS * rng.standard_normal((n, n))
            terms = [c0] if constant else [c0, ODE_DRIFT * rng.standard_normal((n, n))]
            p.append(np.array(terms))
        a0 = np.eye(k * n) + 0.3 * rng.standard_normal((k * n, k * n))
        curve = OdeCurve(k, n, p, a0, constant)
        if np.linalg.cond(a0) < 20.0 and ode_screen(curve, length):
            return curve


def ode_partner(curve, rng):
    """``A0 -> T A0`` and ``P_i -> x0^-1 P_i x0``: congruent by construction."""
    k, n = curve.k, curve.n
    t_matrix = random_invertible(k * n, rng, 20.0)
    x0 = random_invertible(n, rng, 10.0)
    x0_inv = np.linalg.inv(x0)
    p = [x0_inv @ c @ x0 for c in curve.p]
    return OdeCurve(k, n, p, t_matrix @ curve.a0, curve.constant)


def grid_ode(rng, quick=False):
    curves, ops = {}, []
    for k, n, length, g_inv, g_nf in ODE_CASES:
        for constant in (True, False):
            tag = f"k{k}n{n}-{'const' if constant else 'drift'}"
            span = length if constant else round(SHORT_SHARE * length, 6)
            if quick:
                span, g_inv, g_nf = 1.0, 3, 3
            a = ode_curve(k, n, span, constant, rng)
            curves[f"{tag}-a"], curves[f"{tag}-b"] = a, ode_partner(a, rng)
            samples = 2 * k + 3
            ops += [
                Op(f"{tag}-inv", "invariants", (f"{tag}-a",), (grid_option(0.0, span, g_inv),),
                   g_inv, "ode_invariants", {"curve": f"{tag}-a", "grid": (0.0, span, g_inv)}),
                Op(f"{tag}-nf", "normal-frame", (f"{tag}-a",), (grid_option(0.0, span, g_nf),),
                   g_nf, "ode_normal_frame", {"curve": f"{tag}-a", "grid": (0.0, span, g_nf)}),
                Op(f"{tag}-cong", "congruent", (f"{tag}-a", f"{tag}-b"),
                   (grid_option(0.0, span, samples),), 2 * samples, "congruence",
                   {"curves": (f"{tag}-a", f"{tag}-b"), "grid": (0.0, span, samples),
                    "verdict": "congruent"}),
            ]
    return Workload(curves, ops)


BUILDERS = {"grid-poly": grid_poly, "congruence": congruence, "grid-ode": grid_ode}


def build(name, seed, quick=False):
    return BUILDERS[name](np.random.default_rng(seed), quick)
