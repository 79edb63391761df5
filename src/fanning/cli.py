"""Command-line front end.

Subcommands: ``invariants``, ``congruent``, ``canonicalize``,
``normal-frame`` and ``verify``.  Curve files use the JSON schema of
:mod:`fanning.curves`.  Reports go to stdout (or ``--out``); diagnostics
go to stderr.  The ``FANNING_TOL`` environment variable overrides the
default verification tolerance.

Exit codes: 0 success (``congruent`` verdict: congruent), 1 not congruent
or failed verification checks, 2 parse/usage error, 3 non-fanning input,
4 insufficient jet order, 5 inconclusive congruence, 6 numerical failure,
10 internal error.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import report as report_mod
from .congruence import are_congruent, canonicalize_jet, orbit_coordinates
from .curves import (
    CurveFormatError,
    InsufficientOrderError,
    IntegrationError,
    NotFanningError,
    load_curve,
)
from .invariants import (
    endomorphism_bundle,
    is_normal,
    jacobi_matrix,
    maurer_cartan_pullback,
    normal_frame,
    normalized_frame_jet,
    ode_coefficients,
    wilczynski_invariants,
)
from .jets import JetError
from .linalg import eigenvalue_multiplicity

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_NOT_FANNING = 3
EXIT_ORDER = 4
EXIT_INCONCLUSIVE = 5
EXIT_NUMERICAL = 6
EXIT_INTERNAL = 10

DEFAULT_TOL = 1e-7
MAX_GRID_POINTS = 100_000


@dataclass
class RunConfig:
    """Validated run settings shared by every subcommand."""

    command: str
    paths: tuple
    grid: tuple
    base_time: float
    tolerance: float
    output_format: str
    seed: int
    out: str | None
    jacobi: bool = False
    maurer_cartan: str | None = None

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if not math.isfinite(self.base_time):
            raise ValueError(f"--t must be finite, got {self.base_time!r}")
        if self.command in ("invariants", "congruent", "normal-frame") and not self.grid:
            raise ValueError(f"{self.command} needs a time grid")


def _parse_grid(text):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be start:end:count, got {text!r}")
        start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValueError(f"grid endpoints must be finite, got {text!r}")
        if not 1 <= count <= MAX_GRID_POINTS:
            raise ValueError(f"grid count must be in 1..{MAX_GRID_POINTS}, got {count}")
        if count == 1:
            return (start,)
        return tuple(np.linspace(start, end, count))
    times = tuple(float(x) for x in text.split(","))
    if not all(math.isfinite(t) for t in times):
        raise ValueError(f"grid times must be finite, got {text!r}")
    if len(times) > MAX_GRID_POINTS:
        raise ValueError(f"grid has more than {MAX_GRID_POINTS} times")
    return times


def _default_tolerance():
    env = os.environ.get("FANNING_TOL")
    if env is None:
        return DEFAULT_TOL
    try:
        value = float(env)
    except ValueError as exc:
        raise ValueError(f"FANNING_TOL is not a number: {env!r}") from exc
    if value <= 0:
        raise ValueError("FANNING_TOL must be positive")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fanning",
        description="Differential invariants and congruence of fanning curves "
        "in divisible Grassmannians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the report to this file")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument("--seed", type=int, default=0)

    p_inv = sub.add_parser("invariants", help="invariants along a time grid")
    p_inv.add_argument("curve")
    p_inv.add_argument("--grid", required=True, help="start:end:count or t1,t2,...")
    p_inv.add_argument("--jacobi", action="store_true")
    p_inv.add_argument("--maurer-cartan", choices=("H", "kderiv"), default=None)
    add_common(p_inv)

    p_con = sub.add_parser("congruent", help="decide congruence of two curves")
    p_con.add_argument("curve_a")
    p_con.add_argument("curve_b")
    p_con.add_argument("--grid", required=True)
    add_common(p_con)

    p_can = sub.add_parser("canonicalize", help="standardize a jet at one time")
    p_can.add_argument("curve")
    p_can.add_argument("--t", type=float, default=0.0)
    add_common(p_can)

    p_nf = sub.add_parser("normal-frame", help="normalizing frame change on a grid")
    p_nf.add_argument("curve")
    p_nf.add_argument("--grid", required=True)
    add_common(p_nf)

    p_ver = sub.add_parser("verify", help="run the identity suite on a curve")
    p_ver.add_argument("curve")
    p_ver.add_argument("--t", type=float, default=0.0)
    add_common(p_ver)
    return parser


def _jet_order(curve):
    return 2 * curve.k + 2


def _config_from_args(args):
    grid = _parse_grid(args.grid) if getattr(args, "grid", None) else ()
    tol = args.tol if args.tol is not None else _default_tolerance()
    paths = tuple(
        getattr(args, name)
        for name in ("curve", "curve_a", "curve_b")
        if getattr(args, name, None) is not None
    )
    return RunConfig(
        command=args.command,
        paths=paths,
        grid=grid,
        base_time=getattr(args, "t", 0.0),
        tolerance=tol,
        output_format=args.format,
        seed=args.seed,
        out=args.out,
        jacobi=getattr(args, "jacobi", False),
        maurer_cartan=getattr(args, "maurer_cartan", None),
    )


def cmd_invariants(config):
    curve = load_curve(config.paths[0])
    points = []
    rows = []
    not_normal = []
    jets = curve.frame_jets(config.grid, _jet_order(curve))
    for t, fj in zip(config.grid, jets):
        fj.require_fanning()
        was_normal = is_normal(fj)
        inv = wilczynski_invariants(fj)
        bundle = endomorphism_bundle(fj)
        minus = eigenvalue_multiplicity(bundle.reflection, -1.0)
        plus = eigenvalue_multiplicity(bundle.reflection, 1.0)
        point = {
            "t": float(t),
            "fanning_condition": fj.condition,
            "was_normal": was_normal,
            "kappa": inv.kappa.value(),
            "schwarzian": inv.schwarzian.value(),
            "h": [h.value() for h in inv.h],
            "reflection_eigencounts": {"minus_one": minus, "plus_one": plus},
        }
        rows.append(report_mod.scalar_row(t, "fanning_condition", fj.condition))
        rows.extend(report_mod.matrix_rows(t, "kappa", inv.kappa.value()))
        for j, h in enumerate(inv.h, start=1):
            rows.extend(report_mod.matrix_rows(t, f"h{j}", h.value()))
        rows.append(report_mod.scalar_row(t, "reflection_minus_one", minus))
        rows.append(report_mod.scalar_row(t, "reflection_plus_one", plus))
        if config.jacobi or config.maurer_cartan is not None:
            if not was_normal:
                not_normal.append(float(t))
            normalized = fj if was_normal else normalized_frame_jet(fj)
        if config.jacobi:
            jac = jacobi_matrix(normalized, which="K")
            point["jacobi"] = jac
            rows.extend(report_mod.matrix_rows(t, "jacobi", jac))
        if config.maurer_cartan is not None:
            lift = "with_H" if config.maurer_cartan == "H" else "with_kth_derivative"
            mc = maurer_cartan_pullback(normalized, lift=lift)
            point["maurer_cartan"] = mc
            rows.extend(report_mod.matrix_rows(t, "maurer_cartan", mc))
        points.append(point)
    if not_normal:
        print(
            f"note: frame not normal at {len(not_normal)} of {len(jets)} grid times "
            f"(t={not_normal[0]!r} to {not_normal[-1]!r}); the Jacobi matrix and "
            "pullback are those of the normal frame anchored at each",
            file=sys.stderr,
        )
    report = {
        "command": "invariants",
        "k": curve.k,
        "n": curve.n,
        "grid": [float(t) for t in config.grid],
        "tolerance": config.tolerance,
        "points": points,
    }
    return report, rows, EXIT_OK


def cmd_congruent(config):
    curve_a = load_curve(config.paths[0])
    curve_b = load_curve(config.paths[1])
    witness = are_congruent(
        curve_a, curve_b, config.grid, tol=config.tolerance, seed=config.seed
    )
    report = {
        "command": "congruent",
        "verdict": witness.verdict,
        "samples": list(witness.samples),
        "conjugator": witness.conjugator,
        "ambient": witness.ambient,
        "residuals": list(witness.residuals),
        "span_distances": list(witness.span_distances),
        "conjugator_condition": witness.conjugator_condition,
        "message": witness.message,
        "tolerance": config.tolerance,
    }
    rows = [report_mod.scalar_row(None, "verdict_" + witness.verdict, 1.0)]
    if witness.conjugator is not None:
        rows.extend(report_mod.matrix_rows(None, "conjugator", witness.conjugator))
        rows.extend(report_mod.matrix_rows(None, "ambient", witness.ambient))
    for t, r in zip(witness.samples, witness.residuals):
        rows.append(report_mod.scalar_row(t, "residual", r))
    for t, s in zip(witness.samples, witness.span_distances):
        rows.append(report_mod.scalar_row(t, "span_distance", s))
    code = {
        "congruent": EXIT_OK,
        "not_congruent": EXIT_FAILED,
        "inconclusive": EXIT_INCONCLUSIVE,
    }[witness.verdict]
    return report, rows, code


def cmd_canonicalize(config):
    curve = load_curve(config.paths[0])
    fj = curve.frame_jet(config.base_time, _jet_order(curve))
    standard, ambient = canonicalize_jet(fj)
    coords = orbit_coordinates(fj)
    report = {
        "command": "canonicalize",
        "t": float(config.base_time),
        "ambient": ambient,
        "standard_jet": {
            "base_time": standard.base_time,
            "order": standard.order,
            "coefficients": standard.jet.coeffs,
        },
        "orbit_coordinates": list(coords.entries),
        "tolerance": config.tolerance,
    }
    t0 = config.base_time
    rows = [*report_mod.matrix_rows(t0, "ambient", ambient)]
    for i, c in enumerate(standard.jet.coeffs):
        rows.extend(report_mod.matrix_rows(t0, f"jet_coefficient_{i}", c))
    for i, entry in enumerate(coords.entries, start=1):
        rows.extend(report_mod.matrix_rows(t0, f"orbit_entry_{i}", entry))
    return report, rows, EXIT_OK


def cmd_normal_frame(config):
    curve = load_curve(config.paths[0])
    record = normal_frame(curve, config.grid)
    report = {
        "command": "normal-frame",
        "grid": list(record.times),
        "x": list(record.x),
        "frames": list(record.frames),
        "q": [list(qj) for qj in record.q],
        "p1_residuals": list(record.p1_residuals),
        "tolerance": config.tolerance,
    }
    rows = []
    for i, t in enumerate(record.times):
        rows.extend(report_mod.matrix_rows(t, "x", record.x[i]))
        rows.extend(report_mod.matrix_rows(t, "frame", record.frames[i]))
        for j in range(curve.k - 1):
            rows.extend(report_mod.matrix_rows(t, f"q{j + 2}", record.q[j][i]))
        rows.append(report_mod.scalar_row(t, "p1_residual", record.p1_residuals[i]))
    return report, rows, EXIT_OK


def cmd_verify(config):
    curve = load_curve(config.paths[0])
    tol = config.tolerance
    k, n = curve.k, curve.n
    kn = k * n
    fj = curve.frame_jet(config.base_time, _jet_order(curve))
    fj.require_fanning()
    rng = np.random.default_rng(config.seed)
    checks = []

    def record(name, residual, tolerance):
        checks.append(
            {
                "name": name,
                "residual": float(residual),
                "tolerance": float(tolerance),
                "pass": bool(residual < tolerance),
            }
        )

    bundle = endomorphism_bundle(fj)
    eye = np.eye(kn)
    record("reflection_square", np.max(np.abs(bundle.reflection @ bundle.reflection - eye)), tol)

    f0 = bundle.fundamental.value()
    fk = np.linalg.matrix_power(f0, k)
    record("endomorphism_nilpotency", np.max(np.abs(fk)), tol)

    t_matrix = rng.standard_normal((kn, kn))
    while np.linalg.cond(t_matrix) > 1e3:
        t_matrix = rng.standard_normal((kn, kn))
    moved = fj.left_multiplied(t_matrix)
    inv = wilczynski_invariants(fj)
    inv_moved = wilczynski_invariants(moved)
    res = np.max(np.abs(inv_moved.kappa.value() - inv.kappa.value()))
    for a, b in zip(inv_moved.h, inv.h):
        res = max(res, np.max(np.abs(a.value() - b.value())))
    scale = 1.0 + np.max(np.abs(inv.kappa.value()))
    record("invariance_under_ambient_map", res / scale, tol)

    f_moved = endomorphism_bundle(moved).fundamental.value()
    conj = t_matrix @ f0 @ np.linalg.inv(t_matrix)
    record(
        "endomorphism_equivariance",
        np.max(np.abs(f_moved - conj)) / (1.0 + np.max(np.abs(conj))),
        tol,
    )

    record("horizontal_formula_agreement", bundle.horizontal_residual, tol)

    normalized = fj if is_normal(fj) else normalized_frame_jet(fj)
    nb = endomorphism_bundle(normalized)
    # With P_1 = 0 the normal frame's kappa is its coefficient P_2.
    kappa0 = ode_coefficients(normalized)[1].value()
    h0 = nb.horizontal.value()
    res = np.max(np.abs(nb.jacobi @ h0 - (k - 1) * h0 @ kappa0))
    record("jacobi_eigenrelation", res / (1.0 + np.max(np.abs(kappa0))), tol)

    passed = all(c["pass"] for c in checks)
    report = {
        "command": "verify",
        "t": float(config.base_time),
        "seed": config.seed,
        "tolerance": tol,
        "checks": checks,
        "passed": passed,
    }
    rows = [
        report_mod.scalar_row(None, f"{c['name']}_residual", c["residual"])
        for c in checks
    ]
    rows.append(report_mod.scalar_row(None, "passed", 1.0 if passed else 0.0))
    return report, rows, EXIT_OK if passed else EXIT_FAILED


_COMMANDS = {
    "invariants": cmd_invariants,
    "congruent": cmd_congruent,
    "canonicalize": cmd_canonicalize,
    "normal-frame": cmd_normal_frame,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        report, rows, code = _COMMANDS[args.command](config)
    except NotFanningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_FANNING
    except InsufficientOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORDER
    except JetError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CurveFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (IntegrationError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    if config.output_format == "json":
        text = report_mod.dumps_json(report, indent=2)
    else:
        text = report_mod.dumps_csv(rows)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
