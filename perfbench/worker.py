"""One workload in a fresh interpreter: set up, run whole rounds, check, report.

Run by ``run.py``; prints one JSON object as its last line.  Set-up time
runs from the first statement of this file through ``import fanning.cli``
and generating and writing the workload's curve files.  Each command is
``fanning.cli.main(argv)`` with stdout and stderr captured; its wall time
covers that call alone, and its output is checked after the clock stops.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# Per-layer metrics of a traced run, per round of the workload.  ``<stem>_s``
# is the self time of the stem's spans and ``<stem>_calls`` their number;
# the rest are counters.  ``cli.import_s`` is the import time instead.
PER_LAYER = (
    "jets.mul_calls", "jets.mul_s", "jets.inverse_calls", "jets.inverse_s",
    "jets.constructed",
    "curves.poly_jet_calls", "curves.poly_jet_s", "curves.ode_jet_calls",
    "curves.ode_jet_s", "curves.ivp_nfev", "curves.load_s",
    "invariants.coeff_calls", "invariants.coeff_s", "invariants.h_s",
    "invariants.normalize_s", "invariants.bundle_calls", "invariants.bundle_s",
    "invariants.jacobi_s", "invariants.mc_s", "invariants.normal_frame_calls",
    "invariants.normal_frame_s", "invariants.ivp_nfev",
    "congruence.decide_calls", "congruence.decide_s", "congruence.conjugator_s",
    "congruence.canonicalize_s",
    "linalg.nullspace_calls", "linalg.nullspace_s", "linalg.nullspace_rows",
    "linalg.span_s", "linalg.rank_s",
    "report.render_s", "report.bytes",
    "cli.import_s", "cli.self_s",
)

MIN_COMMANDS = 110

# Exit codes that mean the command ran and reported a result.
RESULT_CODES = {"congruent": (0, 1, 5)}


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-file", default=None)
    return p.parse_args(argv)


def run_command(cli, argv):
    """``(exit code, stdout, wall seconds)`` of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the command broke: count it as failed
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - start


def warm_up(workload, paths):
    """One untimed command of each kind, so that lazy imports and first-call
    set-up inside numpy and scipy land outside the timings."""
    cli = sys.modules["fanning.cli"]
    kinds = {}
    for op in workload.ops:
        kinds.setdefault((op.check, op.options[1:]), op)
    for op in kinds.values():
        run_command(cli, op.argv(paths))


def run_rounds(workload, paths, refs, seconds, tracer=None):
    """Whole rounds of the workload's commands until ``seconds`` are used.

    Another round starts while the run is expected to end within half a
    round of ``seconds``, or while fewer than MIN_COMMANDS commands ran, so
    that at least ten lie beyond the 90th percentile.  ``seconds <= 0``
    runs one round.
    """
    import checks

    cli = sys.modules["fanning.cli"]
    walls, per_op = [], {op.name: [] for op in workload.ops}
    problems, failures = [], []
    attempted = points = rounds = 0
    start = time.perf_counter()
    while True:
        outputs = {}
        for op in workload.ops:
            code, text, wall = run_command(cli, op.argv(paths))
            attempted += 1
            walls.append(wall)
            per_op[op.name].append(wall)
            if code not in RESULT_CODES.get(op.command, (0,)):
                failures.append(f"{op.name}: exit {code}")
                continue
            points += op.points
            try:
                outputs[op.name] = report = checks.parse(op, text)
                problems += checks.check(op, report, code, outputs, refs)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"{op.name}: unreadable report ({exc!r})")
        rounds += 1
        if tracer is not None:
            tracer.keep = False
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds >= seconds and (
                seconds <= 0 or attempted >= MIN_COMMANDS):
            break
    return {
        "walls": walls,
        "per_op": per_op,
        "problems": problems,
        "failures": failures,
        "attempted": attempted,
        "points": points,
        "rounds": rounds,
        "loop_s": time.perf_counter() - start,
    }


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def blas_threads():
    """Thread counts reported by the OpenBLAS builds numpy and scipy load."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[package.__name__] = int(fn())
                    break
    return found


def environment():
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def layer_metrics(tracer, rounds, import_s):
    metrics = {}
    for name in PER_LAYER:
        if name == "cli.import_s":
            metrics[name] = {"value": import_s, "unit": "s"}
        elif name.endswith("_s"):
            metrics[name] = {"value": tracer.self_s[name[:-2]] / rounds, "unit": "s/round"}
        elif name.endswith("_calls"):
            metrics[name] = {"value": tracer.calls[name[:-6]] / rounds, "unit": "count/round"}
        else:
            metrics[name] = {"value": tracer.counts[name] / rounds, "unit": "count/round"}
    return metrics


def write_trace(path, tracer, run, metrics):
    stems = sorted(set(tracer.self_s) | set(tracer.calls))
    accounted = sum(tracer.self_s.values())
    record = {
        "rounds": run["rounds"],
        "command_wall_s": sum(run["walls"]),
        "self_time_accounted_s": accounted,
        "metrics": metrics,
        "stems": {s: {"calls": tracer.calls[s], "self_s": tracer.self_s[s]} for s in stems},
        "counts": dict(tracer.counts),
        "first_round_spans": {
            "columns": ["id", "parent", "stem", "start_s", "end_s"],
            "rows": tracer.spans,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def main(argv=None):
    args = parse_args(argv)
    start = time.perf_counter()
    import fanning.cli

    import_s = time.perf_counter() - start
    if Path(fanning.cli.__file__).resolve().parents[2] != HERE.parent:
        sys.exit(f"fanning was imported from {fanning.cli.__file__}, not from this checkout")
    import workloads

    workload = workloads.build(args.workload, args.seed, args.quick)
    os.makedirs(args.workdir, exist_ok=True)
    try:
        paths = workload.write(args.workdir)
        setup_s = time.perf_counter() - T0
        result = {"setup_s": setup_s, "import_s": import_s}
        if not args.setup_only:
            result.update(measure(args, workload, paths, import_s))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, workload, paths, import_s):
    import checks

    refs = checks.References(workload)
    refs.prepare()
    warm_up(workload, paths)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.keep = True
    run = run_rounds(workload, paths, refs, args.seconds, tracer)
    walls = run["walls"]
    if args.trace:
        metrics = layer_metrics(tracer, run["rounds"], import_s)
        if args.trace_file:
            write_trace(args.trace_file, tracer, run, metrics)
    else:
        metrics = {
            "points_per_s": {"value": run["points"] / sum(walls), "unit": "points/s"},
            "op_p50_ms": {"value": 1e3 * percentile(walls, 50), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * percentile(walls, 90), "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    return {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": metrics,
        "rounds": run["rounds"],
        "loop_s": run["loop_s"],
        "command_wall_s": sum(walls),
        "points": run["points"],
        "problems": run["problems"][:20],
        "failures": run["failures"][:20],
        "op_median_ms": {name: 1e3 * percentile(w, 50) for name, w in run["per_op"].items()},
        "environment": environment(),
    }


if __name__ == "__main__":
    sys.exit(main())
