"""Time two source trees of ``fanning`` against each other, command by command, in one interpreter.

    python3 tools/abtime.py OLD_TREE NEW_TREE [--workload W] [--seed S] [--rounds R] [--quick]

Builds one workload of this checkout's ``perfbench/workloads.py`` (default
``congruence``, seed 1) and writes its curve files once.  Both trees'
``fanning`` packages are then imported into this interpreter, each from its
own ``src/``, and every command of a round, ``fanning.cli.main(argv)`` with
stdout and stderr captured, runs once on each tree, back to back.  Which
tree goes first alternates from command to command, so that slow phases
of a busy machine fall on both trees alike.  One untimed command of each
kind runs on both trees first.

Prints each round's total command time per tree and their ratio NEW/OLD,
the median of those ratios over ``--rounds`` rounds (default 5), and the
number of commands whose exit code or stdout differ between the trees in
any round.  ``--quick`` takes the workload's small inputs.  Exits 0; uses
numpy and ``perfbench/workloads.py``, which it only imports.

The order of the arguments alone moves the ratio: a tree timed against
itself, or a pair run both ways, reads about 1 % in favour of OLD_TREE,
and one round of quick inputs spreads by more than 2 %.  The summary line
therefore calls the trees told apart (resolved) only when there are at
least ``MIN_ROUNDS`` (5) rounds, the median is more than ``UNRESOLVED``
(2%) from 1 and every round falls on the same side of 1; run both orders
before reading a small difference.
"""

import argparse
import contextlib
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"
WORKLOADS = ("grid-poly", "congruence", "grid-ode")
# A median ratio closer than this to 1 is not resolved: the first tree given
# runs about 1 % faster than the same tree given second.
UNRESOLVED = 0.02
# Fewer rounds than this resolve nothing.
MIN_ROUNDS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", help="source tree timed as the reference")
    p.add_argument("new", help="source tree timed against it")
    p.add_argument("--workload", choices=WORKLOADS, default="congruence")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--quick", action="store_true", help="the workload's small inputs")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    return args


def load_tree(tree):
    """The ``fanning`` modules of ``tree``'s ``src/``, imported and then taken out of ``sys.modules``."""
    src = Path(tree).resolve() / "src"
    for name in [m for m in sys.modules if m == "fanning" or m.startswith("fanning.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        import fanning.cli
    finally:
        sys.path.remove(str(src))
    if Path(fanning.cli.__file__).resolve().parents[1] != src:
        sys.exit(f"fanning was imported from {fanning.cli.__file__}, not from {src}")
    modules = {m: sys.modules.pop(m) for m in list(sys.modules)
               if m == "fanning" or m.startswith("fanning.")}
    return modules


def run_command(modules, argv):
    """``(exit code, stdout, wall seconds)`` of one command on the tree whose modules are given."""
    sys.modules.update(modules)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = modules["fanning.cli"].main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a result to compare, not a reason to stop
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - start


def resolution(ratios):
    """Whether the round ratios NEW/OLD tell the trees apart, and why.

    They do with at least ``MIN_ROUNDS`` rounds, a median more than
    ``UNRESOLVED`` from 1 and every round on the same side of 1.
    """
    if len(ratios) < MIN_ROUNDS:
        return f"fewer than {MIN_ROUNDS} rounds: not resolved"
    if not abs(statistics.median(ratios) - 1.0) > UNRESOLVED:
        return f"within {UNRESOLVED:.0%} of 1: not resolved"
    if not (all(r > 1.0 for r in ratios) or all(r < 1.0 for r in ratios)):
        return "rounds on both sides of 1: not resolved"
    return f"more than {UNRESOLVED:.0%} from 1: resolved"


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    trees = (load_tree(args.old), load_tree(args.new))
    workload = workloads.build(args.workload, args.seed, args.quick)
    ratios, differ = [], set()
    with tempfile.TemporaryDirectory(prefix="fanning-abtime-") as scratch:
        paths = workload.write(scratch)
        argvs = [op.argv(paths) for op in workload.ops]
        kinds = {}
        for op, argv in zip(workload.ops, argvs):
            kinds.setdefault((op.command, op.options[1:]), argv)
        for argv in kinds.values():
            for modules in trees:
                run_command(modules, argv)
        for r in range(args.rounds):
            totals = [0.0, 0.0]
            for i, (op, argv) in enumerate(zip(workload.ops, argvs)):
                order = (0, 1) if (r * len(argvs) + i) % 2 == 0 else (1, 0)
                results = {}
                for side in order:
                    results[side] = run_command(trees[side], argv)
                    totals[side] += results[side][2]
                if results[0][:2] != results[1][:2]:
                    differ.add(op.name)
            ratios.append(totals[1] / totals[0])
            print(f"round {r + 1}: old {totals[0]:.3f} s, new {totals[1]:.3f} s, "
                  f"new/old {ratios[-1]:.3f}", flush=True)
    median = statistics.median(ratios)
    print(f"{args.workload} seed {args.seed}: {args.rounds} rounds of {len(argvs)} commands, "
          f"median new/old {median:.3f} ({resolution(ratios)}), "
          f"{len(differ)} commands with a different exit code or stdout")
    return 0


if __name__ == "__main__":
    sys.exit(main())
