"""Benchmark of the ``fanning`` command line: one workload per call.

    python3 perfbench/run.py --workload grid-poly --seed 1 --seconds 30 --trace 0

Runs the workload in a fresh interpreter (``worker.py``) for ``--seconds``
of whole rounds and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  Before the workload it starts PROBES more fresh
interpreters that only set up, so that ``setup_s`` is the median of
several set-ups.  ``--quick`` runs one round of small inputs with every
check, for the benchmark's own tests.  A record of each run goes to
``perfbench/records/``.  Uses the standard library alone.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("grid-poly", "congruence", "grid-ode")
TIME_LIMIT_S = 170.0
# Set-up-only interpreters started before the workload; setup_s is the
# median of their set-ups and the workload's own.
PROBES = 4


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="one round of small inputs, no probes, no record")
    return p.parse_args(argv)


class WorkerError(RuntimeError):
    pass


def run_worker(args, extra, deadline):
    """Start ``worker.py`` in a fresh interpreter; returns its JSON result."""
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    if args.quick:
        cmd.append("--quick")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None):
    args = parse_args(argv)
    if args.quick:
        args.seconds = 0.0
    deadline = time.monotonic() + TIME_LIMIT_S
    probes = 0 if args.quick else PROBES
    setups, imports = [], []
    try:
        for _ in range(probes):
            probe = run_worker(args, ["--setup-only"], deadline)
            setups.append(probe["setup_s"])
            imports.append(probe["import_s"])
        records = HERE / "records"
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        extra = []
        if args.trace and not args.quick:
            records.mkdir(exist_ok=True)
            extra = ["--trace-file", str(records / f"{stem}-spans.json")]
        result = run_worker(args, extra, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    imports.append(result["import_s"])
    metrics = result["metrics"]
    if args.trace:
        metrics["cli.import_s"]["value"] = statistics.median(imports)
    else:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for line in result["problems"] + result["failures"]:
        print(line, file=sys.stderr)
    out = {key: result[key] for key in ("correct", "attempted", "failed")}
    out["metrics"] = metrics
    if not args.quick:
        records.mkdir(exist_ok=True)
        record = dict(result, setup_samples_s=setups, import_samples_s=imports,
                      seed=args.seed, seconds=args.seconds, metrics=metrics)
        with open(records / f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
