"""Checks of each command's output against :mod:`oracle` references.

Every check returns a list of problems; an empty list means the output
passed.  A check compares with a computation made apart from the program
(exact polynomial derivatives, the block companion matrix, numpy
subspace distances) or with a property the method must have (reflection
eigencounts, agreement between a curve and its ambient image, between
the CSV and JSON reports of one command, the standard form of a
canonical jet).  None compares with a stored copy of earlier output.
"""

import json
import math

import numpy as np

import oracle
from workloads import OdeCurve, grid_times

# Relative tolerances, each far below the 1e-3 corruptions the tests
# apply and far above the error measured on working code.
KAPPA_RTOL = 1e-9  # kappa, h_j and the Jacobi corner against exact derivatives
IMAGE_RTOL = 1e-8  # a curve against its ambient image
COND_RTOL = 1e-8  # fanning condition against numpy's cond(J)
ODE_KAPPA_RTOL = 1e-8  # ODE kappa and h_1 against the coefficient polynomials
ODE_STATE_RTOL = 1e-6  # integrated quantities against the reference solution
CSV_RTOL = 1e-12  # CSV and JSON renderings of one computation
SPAN_TOL = 1e-7  # subspace distances (the program's own default tolerance)


def _close(got, want, rtol):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    return bool(np.all(np.abs(got - want) <= rtol * (1.0 + np.max(np.abs(want)))))


class References:
    """Oracle values for one workload, computed once and reused every round."""

    def __init__(self, workload):
        self.curves = workload.curves
        self.ops = workload.ops
        self._poly = {}
        self._ode = {}

    def prepare(self):
        """Compute every reference the workload's checks use."""
        needed = {}
        for op in self.ops:
            for cid, times in _times_needed(op):
                needed.setdefault(cid, set()).update(times)
        for cid, times in needed.items():
            curve = self.curves[cid]
            if isinstance(curve, OdeCurve):
                self._ode[cid] = oracle.ode_reference(
                    curve.p, curve.a0, curve.k, curve.n, times, curve.constant)
            else:
                for t in times:
                    self.poly_kappa(cid, t)

    def poly_kappa(self, cid, t):
        """``(kappa, J)`` of a polynomial curve at ``t``."""
        key = (cid, float(t))
        if key not in self._poly:
            c = self.curves[cid]
            self._poly[key] = oracle.poly_kappa(c.coeffs, c.k, c.n, float(t))
        return self._poly[key]

    def frame(self, cid, t):
        """The frame value ``A(t)``: exact for polynomials, reference for ODEs."""
        curve = self.curves[cid]
        if isinstance(curve, OdeCurve):
            return self._ode[cid][0][float(t)][:, : curve.n]
        return curve.value(float(t))

    def ode_state(self, cid, t):
        return self._ode[cid][0][float(t)]

    def ode_normalizer(self, cid, t):
        return self._ode[cid][1][float(t)]


def _midpoints(times):
    return [(a + b) / 2.0 for a, b in zip(times[:-1], times[1:])]


def _times_needed(op):
    if "grid" not in op.ref:
        return [(op.ref["curve"], [op.ref["t"]])] if "t" in op.ref else []
    times = list(grid_times(*op.ref["grid"]))
    if op.check == "congruence":
        times += _midpoints(times)
        return [(cid, times) for cid in op.ref["curves"]]
    return [(op.ref["curve"], times)]


def parse(op, text):
    """The report as data: JSON, or CSV rows keyed by ``(t, name, i, j)``."""
    if "csv" in op.options:
        lines = text.strip().split("\n")
        if lines[0] != "t,name,i,j,value":
            raise ValueError("bad CSV header")
        rows = {}
        for line in lines[1:]:
            t, name, i, j, value = line.split(",")
            rows[(float(t) if t else None, name, int(i), int(j))] = float(value)
        return rows
    return json.loads(text)


def check(op, report, code, outputs, refs):
    """Problems with one command's parsed report (``outputs`` holds earlier ones)."""
    return CHECKS[op.check](op, report, code, outputs, refs)


def _grid_problems(op, got_times):
    want = grid_times(*op.ref["grid"])
    if len(got_times) != len(want) or not np.allclose(got_times, want, rtol=0, atol=1e-15):
        return [f"{op.name}: grid {got_times!r} is not the requested one"]
    return []


def check_poly_invariants(op, report, code, outputs, refs):
    problems = _grid_problems(op, [p["t"] for p in report["points"]])
    if problems:
        return problems
    cid = op.ref["curve"]
    k, n = report["k"], report["n"]
    base = outputs.get(op.ref.get("same_as"))
    for i, point in enumerate(report["points"]):
        t = point["t"]
        kappa, jux = refs.poly_kappa(cid, t)
        where = f"{op.name} t={t!r}"
        if not _close(point["kappa"], kappa, KAPPA_RTOL):
            problems.append(f"{where}: kappa differs from P_2 - P_1^2 - P_1'")
        if not _close(point["schwarzian"], 2.0 * kappa, KAPPA_RTOL):
            problems.append(f"{where}: Schwarzian is not 2 kappa")
        if not _close(point["fanning_condition"], np.linalg.cond(jux), COND_RTOL):
            problems.append(f"{where}: fanning condition differs from cond(J)")
        counts = point["reflection_eigencounts"]
        if (counts["minus_one"], counts["plus_one"]) != ((k - 1) * n, n):
            problems.append(f"{where}: reflection eigencounts {counts}")
        if len(point["h"]) != k - 2:
            problems.append(f"{where}: {len(point['h'])} h_j for k={k}")
        if "jacobi" in point:
            corner = np.asarray(point["jacobi"])[(k - 1) * n :, (k - 1) * n :]
            if not _close(corner, (k - 1) * kappa, KAPPA_RTOL):
                problems.append(f"{where}: Jacobi corner block is not (k-1) kappa")
        if "maurer_cartan" in point and np.asarray(point["maurer_cartan"]).shape != (k * n, k * n):
            problems.append(f"{where}: Maurer-Cartan pullback has the wrong shape")
        if base is not None:
            other = base["points"][i]
            same = _close(point["kappa"], other["kappa"], IMAGE_RTOL) and all(
                _close(h, g, IMAGE_RTOL) for h, g in zip(point["h"], other["h"]))
            if not same:
                problems.append(f"{where}: kappa or h_j differ from the curve's preimage")
    return problems


def _expected_rows(report):
    rows = {}

    def put(t, name, matrix):
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        for (i, j), value in np.ndenumerate(matrix):
            rows[(t, name, i, j)] = value

    for point in report["points"]:
        t = point["t"]
        put(t, "fanning_condition", point["fanning_condition"])
        put(t, "kappa", point["kappa"])
        for j, h in enumerate(point["h"], start=1):
            put(t, f"h{j}", h)
        counts = point["reflection_eigencounts"]
        put(t, "reflection_minus_one", counts["minus_one"])
        put(t, "reflection_plus_one", counts["plus_one"])
        for name in ("jacobi", "maurer_cartan"):
            if name in point:
                put(t, name, point[name])
    return rows


def check_csv_matches(op, rows, code, outputs, refs):
    want = _expected_rows(outputs[op.ref["json_op"]])
    if set(rows) != set(want):
        return [f"{op.name}: CSV rows differ from the JSON report's entries"]
    bad = [key for key, value in want.items()
           if abs(rows[key] - value) > CSV_RTOL * (1.0 + abs(value))]
    if bad:
        return [f"{op.name}: CSV value {bad[0]} differs from the JSON report"]
    return []


def check_canonical(op, report, code, outputs, refs):
    problems = []
    cid, t = op.ref["curve"], op.ref["t"]
    curve = refs.curves[cid]
    k, n = curve.k, curve.n
    kappa, _ = refs.poly_kappa(cid, t)
    coords = report["orbit_coordinates"]
    if len(coords) != k - 1 or not _close(coords[0], (k - 1) * kappa, KAPPA_RTOL):
        problems.append(f"{op.name}: first orbit coordinate is not (k-1) kappa")
    coeffs = report["standard_jet"]["coefficients"]
    for j in range(k):
        block = np.zeros((k * n, n))
        block[j * n : (j + 1) * n] = np.eye(n) / math.factorial(j)
        if not _close(coeffs[j], block, IMAGE_RTOL):
            problems.append(f"{op.name}: standard jet coefficient {j} is not E_{j}/{j}!")
    if not _close(np.asarray(report["ambient"]) @ curve.value(t), coeffs[0], IMAGE_RTOL):
        problems.append(f"{op.name}: ambient map does not carry A(t) to the standard frame")
    base = outputs.get(op.ref.get("same_as"))
    if base is not None and not all(
        _close(a, b, IMAGE_RTOL) for a, b in zip(coords, base["orbit_coordinates"])
    ):
        problems.append(f"{op.name}: orbit coordinates differ from the curve's preimage")
    return problems


def check_congruence(op, report, code, outputs, refs):
    verdict = op.ref["verdict"]
    problems = _grid_problems(op, report["samples"])
    if report["verdict"] != verdict or code != (0 if verdict == "congruent" else 1):
        return problems + [
            f"{op.name}: verdict {report['verdict']} (exit {code}), expected {verdict}"]
    if verdict == "congruent":
        a, b = op.ref["curves"]
        ambient = np.asarray(report["ambient"], dtype=float)
        times = list(grid_times(*op.ref["grid"]))
        worst = max(
            oracle.span_distance(ambient @ refs.frame(a, t), refs.frame(b, t))
            for t in times + _midpoints(times)
        )
        if not worst <= SPAN_TOL:
            problems.append(
                f"{op.name}: ambient map misses B's planes by {worst:.2e} "
                "at samples or midpoints")
    return problems


def check_ode_invariants(op, report, code, outputs, refs):
    problems = _grid_problems(op, [p["t"] for p in report["points"]])
    if problems:
        return problems
    cid = op.ref["curve"]
    curve = refs.curves[cid]
    k, n = curve.k, curve.n
    for point in report["points"]:
        t = point["t"]
        where = f"{op.name} t={t!r}"
        kappa, h1 = oracle.ode_kappa_h1(curve.p, k, t)
        if not _close(point["kappa"], kappa, ODE_KAPPA_RTOL):
            problems.append(f"{where}: kappa differs from P_2 - P_1^2 - P_1'")
        if h1 is not None and not _close(point["h"][0], h1, ODE_KAPPA_RTOL):
            problems.append(f"{where}: h_1 differs from the closed formula")
        if not _close(point["fanning_condition"], np.linalg.cond(refs.ode_state(cid, t)),
                      ODE_STATE_RTOL):
            problems.append(f"{where}: fanning condition differs from the reference")
        counts = point["reflection_eigencounts"]
        if (counts["minus_one"], counts["plus_one"]) != ((k - 1) * n, n):
            problems.append(f"{where}: reflection eigencounts {counts}")
    return problems


def check_ode_normal_frame(op, report, code, outputs, refs):
    problems = _grid_problems(op, report["grid"])
    if problems:
        return problems
    cid = op.ref["curve"]
    curve = refs.curves[cid]
    for i, t in enumerate(report["grid"]):
        where = f"{op.name} t={t!r}"
        frame = np.asarray(report["frames"][i], dtype=float)
        x = np.asarray(report["x"][i], dtype=float)
        x_ref = refs.ode_normalizer(cid, t)
        a_ref = refs.frame(cid, t)
        if not oracle.span_distance(frame, a_ref) <= SPAN_TOL:
            problems.append(f"{where}: normal frame leaves the reference plane")
        if not _close(x, x_ref, ODE_STATE_RTOL):
            problems.append(f"{where}: X differs from the reference normalizer")
        if not _close(frame, a_ref @ np.linalg.inv(x_ref), ODE_STATE_RTOL):
            problems.append(f"{where}: normal frame is not A X^-1")
        kappa, _ = oracle.ode_kappa_h1(curve.p, curve.k, t)
        if not _close(report["q"][0][i], x_ref @ kappa @ np.linalg.inv(x_ref), ODE_STATE_RTOL):
            problems.append(f"{where}: Q_2 is not X kappa X^-1")
        if not report["p1_residuals"][i] < report["tolerance"]:
            problems.append(f"{where}: P_1 residual {report['p1_residuals'][i]!r}")
    return problems


CHECKS = {
    "poly_invariants": check_poly_invariants,
    "csv_matches": check_csv_matches,
    "canonical": check_canonical,
    "congruence": check_congruence,
    "ode_invariants": check_ode_invariants,
    "ode_normal_frame": check_ode_normal_frame,
}
