"""Command-line front end.

Subcommands: ``invariants``, ``congruent``, ``canonicalize``,
``normal-frame`` and ``verify``.  Curve files use the JSON schema of
:mod:`fanning.curves`.  Reports go to stdout (or ``--out``); diagnostics
go to stderr.  The ``FANNING_TOL`` environment variable overrides the
default verification tolerance.  ``invariants`` builds the least jet order
its report reads and renders its batched arrays as a ``report.Columns``;
``canonicalize`` and ``verify`` build order 2k+2.

Exit codes: 0 success (``congruent`` verdict: congruent), 1 not congruent
or failed verification checks, 2 parse/usage error, 3 non-fanning input,
4 insufficient jet order, 5 inconclusive congruence, 6 numerical failure,
10 internal error.  A report that cannot be written to ``--out`` is a usage
error (2), as is a negative ``--seed``.
"""

import argparse
import dataclasses
import math
import os
import sys
from functools import cache

import numpy as np

from . import report as report_mod
from .congruence import DEFAULT_SPAN_TOL, are_congruent, canonicalize_jet
from .curves import (
    MAX_GRID_POINTS,
    CurveFormatError,
    InsufficientOrderError,
    IntegrationError,
    NotFanningError,
    load_curve,
)
from .invariants import (
    endomorphism_bundle,
    frame_reflection,
    is_normal,
    jacobi_matrix,
    maurer_cartan_pullback,
    normal_frame,
    normalized_frame_jet,
    ode_coefficients,
    orbit_entries,
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

def _parse_grid(text):
    """The times of ``start:end:count`` or ``t1,t2,...`` as a float array."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be start:end:count, got {text!r}")
        try:
            start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValueError(
                f"grid spec must be start:end:count with an integer count, got {text!r}"
            ) from exc
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValueError(f"grid endpoints must be finite, got {text!r}")
        if not 1 <= count <= MAX_GRID_POINTS:
            raise ValueError(f"grid count must be in 1..{MAX_GRID_POINTS}, got {count}")
        return np.linspace(start, end, count)
    try:
        times = np.array([float(x) for x in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"grid times must be numbers, got {text!r}") from exc
    if not np.isfinite(times).all():
        raise ValueError(f"grid times must be finite, got {text!r}")
    if len(times) > MAX_GRID_POINTS:
        raise ValueError(f"grid has more than {MAX_GRID_POINTS} times")
    return times


@cache
def _build_parser():
    """The argument parser, built once per process."""
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


def _validated(args):
    """``args`` with ``grid`` parsed and ``tol`` resolved, once every value is checked.

    The tolerance is ``--tol``, else ``FANNING_TOL``, else the default span
    tolerance.
    """
    grid = getattr(args, "grid", None)
    args.grid = _parse_grid(grid) if grid else np.empty(0)
    if args.tol is None:
        env = os.environ.get("FANNING_TOL")
        try:
            args.tol = DEFAULT_SPAN_TOL if env is None else float(env)
        except ValueError as exc:
            raise ValueError(f"FANNING_TOL is not a number: {env!r}") from exc
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {args.tol!r}")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    if not math.isfinite(getattr(args, "t", 0.0)):
        raise ValueError(f"--t must be finite, got {args.t!r}")
    if args.command in ("invariants", "congruent", "normal-frame") and not args.grid.size:
        raise ValueError(f"{args.command} needs a time grid")
    return args


def _grid_invariants(fj, args):
    """What ``invariants`` reports, each quantity computed once over the batch ``fj``.

    Returns the columns of the report's points but ``t``, keyed as a point
    is.  Errors come in grid order: when a time is not fanning, the times
    before it are computed first, and may fail first.  The caller holds no
    other reference to ``fj``, so its cached lifts are freed once the normal
    frame, which builds lifts of its own, is made from it.
    """
    fanning = np.ravel(fj.is_fanning)
    if not fanning.all():
        first = int(np.argmin(fanning))
        if first:
            _grid_invariants(fj.head(first), args)
        fj.require_fanning()
    inv = wilczynski_invariants(fj)
    minus_one, plus_one = eigenvalue_multiplicity(frame_reflection(fj), (-1.0, 1.0))
    values = {
        "fanning_condition": fj.condition,
        "was_normal": is_normal(fj),
        "kappa": inv.kappa.value(),
        "schwarzian": 2.0 * inv.kappa.value(),
        "h": [h.value() for h in inv.h],
        "reflection_eigencounts": {"minus_one": minus_one, "plus_one": plus_one},
    }
    if args.jacobi or args.maurer_cartan is not None:
        normalized = normalized_frame_jet(fj)
        del fj
        try:
            if args.jacobi:
                values["jacobi"] = jacobi_matrix(normalized)
            if args.maurer_cartan is not None:
                values["maurer_cartan"] = maurer_cartan_pullback(normalized, args.maurer_cartan)
        except NotFanningError as exc:
            raise NotFanningError(exc.condition, exc.at_time, "normal frame") from None
    return values


def cmd_invariants(args):
    """Invariants at every grid time: one batched pass, rendered column by column."""
    curve = load_curve(args.curve)
    # kappa and h_1 .. h_(k-2) need order 2k-1; a normal frame made from order
    # R has order R-k+1, and the Jacobi matrix and the pullback need k+1.
    normal_frame_read = args.jacobi or args.maurer_cartan is not None
    order = 2 * curve.k if normal_frame_read else 2 * curve.k - 1
    times = args.grid
    values = _grid_invariants(curve.frame_jets(times, order), args)
    not_normal = times[~values["was_normal"]].tolist()
    if not_normal and normal_frame_read:
        print(
            f"note: frame not normal at {len(not_normal)} of {len(times)} grid times "
            f"(t={not_normal[0]!r} to {not_normal[-1]!r}); the Jacobi matrix and "
            "pullback are those of the normal frame anchored at each",
            file=sys.stderr,
        )
    report = {
        "command": "invariants",
        "k": curve.k,
        "n": curve.n,
        "grid": times,
        "tolerance": args.tol,
        "points": report_mod.Columns({"t": times, **values}),
    }
    csv = {key: values[key] for key in ("fanning_condition", "kappa")}
    csv.update((f"h{j}", h) for j, h in enumerate(values["h"], start=1))
    csv.update((f"reflection_{key}", c) for key, c in values["reflection_eigencounts"].items())
    csv.update((key, values[key]) for key in ("jacobi", "maurer_cartan") if key in values)
    return report, [report_mod.Columns({"t": times, **csv})], EXIT_OK


def cmd_congruent(args):
    """The witness's fields as the report, each rendered by its type.

    In CSV a matrix (a 2-D array) is one entry, and a per-sample field (a
    1-D array) other than ``samples`` one row per sample under the field's
    name in the singular.
    """
    curve_a = load_curve(args.curve_a)
    curve_b = load_curve(args.curve_b)
    witness = are_congruent(curve_a, curve_b, args.grid, tol=args.tol, seed=args.seed)
    fields = {f.name: getattr(witness, f.name) for f in dataclasses.fields(witness)}
    report = {"command": "congruent", **fields, "tolerance": args.tol}

    def csv_entries():
        yield None, "verdict_" + witness.verdict, 1.0
        for name, value in fields.items():
            if isinstance(value, np.ndarray) and value.ndim == 2:
                yield None, name, value
            elif isinstance(value, np.ndarray) and name != "samples" and len(value):
                yield report_mod.Columns({"t": witness.samples, name.removesuffix("s"): value})

    code = {
        "congruent": EXIT_OK,
        "not_congruent": EXIT_FAILED,
        "inconclusive": EXIT_INCONCLUSIVE,
    }[witness.verdict]
    return report, csv_entries(), code


def cmd_canonicalize(args):
    curve = load_curve(args.curve)
    fj = curve.frame_jet(args.t, 2 * curve.k + 2)
    standard, ambient = canonicalize_jet(fj)
    entries = orbit_entries(standard)
    report = {
        "command": "canonicalize",
        "t": float(args.t),
        "ambient": ambient,
        "standard_jet": {
            "base_time": standard.base_time,
            "order": standard.order,
            "coefficients": standard.jet.coeffs,
        },
        "orbit_coordinates": list(entries),
        "tolerance": args.tol,
    }

    def csv_entries():
        t0 = args.t
        yield t0, "ambient", ambient
        for i, c in enumerate(standard.jet.coeffs):
            yield t0, f"jet_coefficient_{i}", c
        for i, entry in enumerate(entries, start=1):
            yield t0, f"orbit_entry_{i}", entry

    return report, csv_entries(), EXIT_OK


def cmd_normal_frame(args):
    curve = load_curve(args.curve)
    record = normal_frame(curve, args.grid)
    report = {
        "command": "normal-frame",
        "grid": record.times,
        "x": record.x,
        "frames": record.frames,
        "q": record.q,
        "p1_residuals": record.p1_residuals,
        "tolerance": args.tol,
    }

    csv = {"t": record.times, "x": record.x, "frame": record.frames}
    csv.update((f"q{j}", qj) for j, qj in enumerate(record.q, start=2))
    csv["p1_residual"] = record.p1_residuals
    return report, [report_mod.Columns(csv)], EXIT_OK


def cmd_verify(args):
    curve = load_curve(args.curve)
    tol = args.tol
    k, n = curve.k, curve.n
    kn = k * n
    fj = curve.frame_jet(args.t, 2 * curve.k + 2)
    rng = np.random.default_rng(args.seed)
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

    f0 = fj.fundamental_endomorphism.value()
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

    f_moved = moved.fundamental_endomorphism.value()
    conj = t_matrix @ f0 @ np.linalg.inv(t_matrix)
    record(
        "endomorphism_equivariance",
        np.max(np.abs(f_moved - conj)) / (1.0 + np.max(np.abs(conj))),
        tol,
    )

    record("horizontal_formula_agreement", bundle.horizontal_residual, tol)

    normalized = normalized_frame_jet(fj)
    nb = endomorphism_bundle(normalized)
    # With P_1 = 0 the normal frame's kappa is its coefficient P_2.
    kappa0 = ode_coefficients(normalized)[1].value()
    h0 = nb.horizontal.value()
    res = np.max(np.abs(nb.jacobi @ h0 - (k - 1) * h0 @ kappa0))
    record("jacobi_eigenrelation", res / (1.0 + np.max(np.abs(kappa0))), tol)

    passed = all(c["pass"] for c in checks)
    report = {
        "command": "verify",
        "t": float(args.t),
        "seed": args.seed,
        "tolerance": tol,
        "checks": checks,
        "passed": passed,
    }

    def csv_entries():
        for c in checks:
            yield None, f"{c['name']}_residual", c["residual"]
        yield None, "passed", 1.0 if passed else 0.0

    return report, csv_entries(), EXIT_OK if passed else EXIT_FAILED


# Each command returns its report, an iterable of the report's CSV entries
# (``(t, name, value)`` or a ``report.Columns``; a generator runs only for
# ``--format csv``) and its exit code.
_COMMANDS = {
    "invariants": cmd_invariants,
    "congruent": cmd_congruent,
    "canonicalize": cmd_canonicalize,
    "normal-frame": cmd_normal_frame,
    "verify": cmd_verify,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        report, csv_entries, code = _COMMANDS[args.command](_validated(args))
    except NotFanningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_FANNING
    except InsufficientOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORDER
    except JetError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (np.linalg.LinAlgError, IntegrationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CurveFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    if args.format == "json":
        text = report_mod.dumps_json(report)
    else:
        text = report_mod.dumps_csv(csv_entries)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return EXIT_PARSE
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
