"""Compare two source trees of ``fanning`` command by command on the benchmark's inputs.

    python3 tools/parity.py OLD_TREE NEW_TREE

Builds the three workloads of this checkout's ``perfbench/workloads.py`` at
full size for seeds 1, 2 and 3 and writes their curve files once.  Each source tree then runs every
command of the workload, the ``--format csv`` twin of each of its JSON
commands, and ``verify`` on each of its curve files (JSON,
``--t 0.2 --seed 3``), ``fanning.cli.main(argv)`` with stdout and stderr
captured, in a fresh interpreter that imports ``fanning`` from that tree's
``src/``.  The two runs must agree on exit codes, stderr and congruence
verdicts, and on the shape of every report; every number is compared as
``|a - b| / (1 + |a|)``, with ``a`` from OLD_TREE; a CSV report's
``t,name,i,j`` cells must be equal row by row.  A congruence conjugator and
ambient map that differ from OLD_TREE's only by one common sign count as
equal in a JSON report (both are determined up to that sign), but not in a
CSV one.  Either way a ``congruent`` report that is OLD_TREE's with its
conjugator and ambient negated is named a negated witness.

Prints one line per workload and seed and a summary that totals the
commands, the ``verify`` commands and CSV twins among them, those with
byte-identical stdout, the mismatches and the negated witnesses; exits 1
on any mismatch or when the worst difference exceeds ``1e-9``.  Uses numpy and the
modules of ``perfbench/``, which it only imports.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"
WORKLOADS = ("grid-poly", "congruence", "grid-ode")
SEEDS = (1, 2, 3)
TOLERANCE = 1e-9
# Options of the ``verify`` command run on every curve file.
VERIFY_OPTIONS = ("--t", "0.2", "--seed", "3")
# Options that turn a JSON command into its CSV twin.
CSV_OPTIONS = ("--format", "csv")
# Report keys of a congruence witness that are determined up to one common sign.
SIGNED_PAIR = ("conjugator", "ambient")


class Mismatch(Exception):
    """Two reports differ in something other than the size of a number."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", nargs="?", help="source tree whose outputs are the reference")
    p.add_argument("new", nargs="?", help="source tree to compare against it")
    # Internal: run the commands of JOBS with TREE's fanning, write the results to OUT.
    p.add_argument("--child", nargs=3, metavar=("TREE", "JOBS", "OUT"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is None and (args.old is None or args.new is None):
        p.error("OLD_TREE and NEW_TREE are required")
    return args


def run_commands(tree, jobs_path, out_path):
    """Run every argv of ``jobs_path`` in this interpreter with ``tree``'s fanning."""
    src = Path(tree).resolve() / "src"
    sys.path.insert(0, str(src))
    import fanning.cli as cli

    if Path(cli.__file__).resolve().parents[1] != src:
        sys.exit(f"fanning was imported from {cli.__file__}, not from {src}")
    # Every warning is printed each time, so that stderr compares command by command.
    warnings.simplefilter("always")
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    results = []
    for argv in jobs:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a result to compare, not a reason to stop
            code = f"{type(exc).__name__}: {exc}"
        results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def tree_results(tree, jobs_path, out_path):
    """Results of the jobs run by ``tree`` in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(tree),
           str(jobs_path), str(out_path)]
    subprocess.run(cmd, check=True)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def worst_difference(a, b, where=""):
    """``(largest |a - b| / (1 + |a|), where)`` over matching numbers of two reports.

    Raises :class:`Mismatch` when the structures, strings, nulls or booleans
    differ; a boolean is not a number.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            raise Mismatch(f"{where}: keys {list(a)} vs {list(b)}")
        worst = (0.0, where)
        for key in a:
            worst = max(worst, worst_difference(a[key], b[key], f"{where}.{key}"))
        return worst
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch(f"{where}: lengths {len(a)} vs {len(b)}")
        worst = (0.0, where)
        for i, (x, y) in enumerate(zip(a, b)):
            worst = max(worst, worst_difference(x, y, f"{where}[{i}]"))
        return worst
    numeric = (int, float)
    if (isinstance(a, numeric) and isinstance(b, numeric)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        return abs(a - b) / (1.0 + abs(a)), where
    if a != b or isinstance(a, bool) != isinstance(b, bool):
        raise Mismatch(f"{where}: {a!r} vs {b!r}")
    return 0.0, where


def _negated(value):
    if isinstance(value, list):
        return [_negated(v) for v in value]
    return -value if isinstance(value, (int, float)) else value


def report_difference(a, b):
    """Worst difference of two reports, a conjugator/ambient pair taken up to sign."""
    if not (isinstance(a, dict) and isinstance(b, dict)
            and all(isinstance(a.get(key), list) for key in SIGNED_PAIR)
            and all(isinstance(b.get(key), list) for key in SIGNED_PAIR)):
        return worst_difference(a, b)
    pair_a = [a[key] for key in SIGNED_PAIR]
    pair_b = [b[key] for key in SIGNED_PAIR]
    signed = min(worst_difference(pair_a, pair_b, ".conjugator|ambient"),
                 worst_difference(pair_a, _negated(pair_b), ".conjugator|ambient (sign flipped)"))
    rest_a = {key: value for key, value in a.items() if key not in SIGNED_PAIR}
    rest_b = {key: value for key, value in b.items() if key not in SIGNED_PAIR}
    return max(signed, worst_difference(rest_a, rest_b))


def _csv_rows(text):
    """A CSV report's ``t,name,i,j`` cells, header first, and its values (``null`` as None)."""
    rows = [line.rpartition(",") for line in text.splitlines()]
    return [row[0] for row in rows], [None if row[2] == "null" else float(row[2]) for row in rows[1:]]


def csv_difference(a, b):
    """Worst difference of two CSV reports, whose cells must agree row by row."""
    (cells_a, values_a), (cells_b, values_b) = _csv_rows(a), _csv_rows(b)
    if cells_a != cells_b:
        row = next((i for i, pair in enumerate(zip(cells_a, cells_b)) if pair[0] != pair[1]),
                   min(len(cells_a), len(cells_b)))
        raise Mismatch(f"row {row}: cells differ ({len(cells_a)} vs {len(cells_b)} rows)")
    worst = (0.0, "")
    for cell, x, y in zip(cells_a[1:], values_a, values_b):
        worst = max(worst, worst_difference(x, y, f"[{cell}]"))
    return worst


def _negated_csv(text):
    """A CSV report with the values of its conjugator and ambient rows negated."""
    lines = []
    for line in text.splitlines():
        cells = line.split(",")
        if len(cells) == 5 and cells[1] in SIGNED_PAIR and cells[4] != "null":
            cells[4] = repr(-float(cells[4]))
        lines.append(",".join(cells))
    return "\n".join(lines)


def negated_witness(op, old, new):
    """Whether ``new`` is ``old``'s ``congruent`` report with the conjugator and ambient negated.

    Negated, the two reports must agree to ``TOLERANCE``, and as they are,
    they must not.
    """
    if op.command != "congruent" or old["code"] != new["code"] or old["stdout"] == new["stdout"]:
        return False
    try:
        if "csv" in op.options:
            plain = csv_difference(old["stdout"], new["stdout"])[0]
            flipped = csv_difference(old["stdout"], _negated_csv(new["stdout"]))[0]
        else:
            a, b = json.loads(old["stdout"]), json.loads(new["stdout"])
            if not all(isinstance(b.get(key), list) for key in SIGNED_PAIR):
                return False
            negated = {key: _negated(value) if key in SIGNED_PAIR else value
                       for key, value in b.items()}
            plain, flipped = worst_difference(a, b)[0], worst_difference(a, negated)[0]
    except (Mismatch, ValueError, AttributeError):
        return False
    return flipped <= TOLERANCE < plain


def compare_op(op, old, new):
    """``(problems, worst difference, where)`` for one command's two results."""
    import checks

    name, problems = op.name, []
    if old["code"] != new["code"]:
        problems.append(f"{name}: exit {old['code']!r} vs {new['code']!r}")
    if old["stderr"] != new["stderr"]:
        problems.append(f"{name}: stderr {old['stderr']!r} vs {new['stderr']!r}")
    if old["stdout"] == new["stdout"]:
        return problems, 0.0, ""
    try:
        if "csv" in op.options:
            worst, where = csv_difference(old["stdout"], new["stdout"])
        else:
            a, b = checks.parse(op, old["stdout"]), checks.parse(op, new["stdout"])
            if a.get("verdict") != b.get("verdict"):
                problems.append(f"{name}: verdict {a.get('verdict')} vs {b.get('verdict')}")
            worst, where = report_difference(a, b)
    except (Mismatch, ValueError) as exc:
        problems.append(f"{name}: reports differ: {exc}")
        return problems, 0.0, ""
    return problems, worst, f"{name}{where}"


def csv_twins(ops):
    """The ``--format csv`` twin of every JSON command of ``ops``."""
    return [dataclasses.replace(op, name=f"{op.name}-csv", options=op.options + CSV_OPTIONS)
            for op in ops if "csv" not in op.options]


def verify_ops(workload):
    """One JSON ``verify`` command per curve file of ``workload``."""
    import workloads

    return [workloads.Op(f"verify-{cid}", "verify", (cid,), VERIFY_OPTIONS, 1, "verify")
            for cid in workload.curves]


def compare_workload(old_tree, new_tree, name, seed, scratch):
    import workloads

    workload = workloads.build(name, seed)
    twins, verify = csv_twins(workload.ops), verify_ops(workload)
    ops = workload.ops + twins + verify
    directory = scratch / f"{name}-{seed}"
    directory.mkdir()
    paths = workload.write(str(directory))
    jobs_path = directory / "jobs.json"
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump([op.argv(paths) for op in ops], fh)
    old = tree_results(old_tree, jobs_path, directory / "old.json")
    new = tree_results(new_tree, jobs_path, directory / "new.json")
    problems, worst, where, identical, negated = [], 0.0, "", 0, []
    for op, a, b in zip(ops, old, new):
        op_problems, op_worst, op_where = compare_op(op, a, b)
        problems += op_problems
        identical += a["stdout"] == b["stdout"]
        if negated_witness(op, a, b):
            negated.append(op.name)
        if op_worst > worst:
            worst, where = op_worst, op_where
    print(f"{name} seed {seed}: {len(ops)} commands ({len(verify)} verify, {len(twins)} CSV "
          f"twins), {identical} with identical stdout, {len(problems)} mismatches, "
          f"{len(negated)} negated witnesses, worst difference {worst:.3g}"
          + (f" at {where}" if where else ""))
    for line in problems + [f"{op_name}: negated witness" for op_name in negated]:
        print(f"  {line}")
    return len(ops), len(verify), len(twins), identical, problems, len(negated), worst, where


def main(argv=None):
    args = parse_args(argv)
    if args.child is not None:
        run_commands(*args.child)
        return 0
    sys.path.insert(0, str(PERFBENCH))
    total, verified, twinned, identical, problems, negated, worst, where = (
        0, 0, 0, 0, [], 0, 0.0, "")
    with tempfile.TemporaryDirectory(prefix="fanning-parity-") as scratch:
        for name in WORKLOADS:
            for seed in SEEDS:
                count, verify, twins, same, found, flipped, w, at = compare_workload(
                    args.old, args.new, name, seed, Path(scratch))
                total += count
                verified += verify
                twinned += twins
                identical += same
                problems += found
                negated += flipped
                if w > worst:
                    worst, where = w, at
    failed = bool(problems) or worst > TOLERANCE
    print(f"{total} commands ({verified} verify, {twinned} CSV twins), {identical} with "
          f"identical stdout, {len(problems)} mismatches, {negated} negated witnesses, "
          f"worst |a - b| / (1 + |a|) {worst:.3g}"
          + (f" at {where}" if where else "")
          + f": {'FAIL' if failed else 'PASS'} (tolerance {TOLERANCE:g})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
