"""Tests of the benchmark itself: ``python -m pytest perfbench``.

The quick mode runs every workload with all of its checks; the corruption
tests show that each check rejects a deliberately damaged output, so that
a check that cannot fail is caught.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import RESULT_CODES, run_command  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_quick_run_passes_every_check(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--quick", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        counts = [m["name"] for m in wanted if m["unit"] == "count/round"]
        assert all(float(result["metrics"][c]["value"]).is_integer() for c in counts)
        busy = {"grid-poly": "jets.mul_calls", "congruence": "linalg.nullspace_calls",
                "grid-ode": "curves.ivp_nfev"}[workload]
        assert result["metrics"][busy]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("records", "work", "__pycache__"))
    proc = run_bench("--workload", "grid-poly", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def quick_reports(tmp_path_factory):
    """Per workload: the quick workload, its references and each op's (report, code)."""
    import fanning.cli

    found = {}
    for name in workloads.BUILDERS:
        workload = workloads.build(name, 5, quick=True)
        paths = workload.write(str(tmp_path_factory.mktemp(name)))
        refs = checks.References(workload)
        refs.prepare()
        reports = {}
        for op in workload.ops:
            code, text, _ = run_command(fanning.cli, op.argv(paths))
            assert code in RESULT_CODES.get(op.command, (0,)), (op.name, code)
            reports[op.name] = (checks.parse(op, text), code)
        found[name] = (workload, refs, reports)
    return found


def problems_after(quick_reports, workload, op_name, damage=None):
    """Check problems of one op's report after ``damage`` (which may return a new exit code)."""
    wl, refs, reports = quick_reports[workload]
    op = next(o for o in wl.ops if o.name == op_name)
    outputs = {name: report for name, (report, _) in reports.items()}
    report, code = copy.deepcopy(reports[op_name])
    if damage is not None:
        code = damage(report) or code
    return checks.check(op, report, code, outputs, refs)


@pytest.mark.parametrize("workload", list(workloads.BUILDERS))
def test_untouched_outputs_pass(quick_reports, workload):
    wl, _, reports = quick_reports[workload]
    for op in wl.ops:
        assert problems_after(quick_reports, workload, op.name) == [], op.name


def at(path, change):
    """Damage: replace the entry at ``path`` inside the report by ``change(entry)``."""
    def damage(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = change(node[path[-1]])
    return damage


def bump(path):
    return at(path, lambda x: x + 1e-3)


def scale(path, factor):
    return at(path, lambda x: x * factor)


def flip_verdict(report):
    flipped = "not_congruent" if report["verdict"] == "congruent" else "congruent"
    report["verdict"] = flipped
    return 0 if flipped == "congruent" else 1


def swap_eigencounts(report):
    counts = report["points"][0]["reflection_eigencounts"]
    counts["minus_one"], counts["plus_one"] = counts["plus_one"], counts["minus_one"]


def csv_bump(rows):
    key = next(k for k in rows if k[1] == "kappa")
    rows[key] += 1e-3


def csv_drop(rows):
    del rows[next(k for k in rows if k[1] == "jacobi")]


def same_plane_other_frame(report):
    """Same plane, other basis: an n = 2 frame times a shear."""
    shear = np.array([[1.0, 1e-3], [0.0, 1.0]])
    report["frames"][1] = (np.asarray(report["frames"][1]) @ shear).tolist()


def off_plane_frame(report):
    frame = np.asarray(report["frames"][1])
    frame[0, 0] += 1e-3
    report["frames"][1] = frame.tolist()


def large_residual(report):
    report["p1_residuals"][0] = 10 * report["tolerance"]


CORRUPTIONS = [
    ("grid-poly", "k3n2-inv-a", bump(["points", 0, "kappa", 0, 0]), "kappa off by 1e-3"),
    ("grid-poly", "k3n2-inv-a", bump(["points", 1, "schwarzian", 1, 0]), "Schwarzian off"),
    ("grid-poly", "k3n2-inv-a", scale(["points", 1, "fanning_condition"], 1.001),
     "fanning condition off"),
    ("grid-poly", "k3n2-inv-a", swap_eigencounts, "eigencounts swapped"),
    ("grid-poly", "k4n2-inv-ta", bump(["points", 0, "h", 0, 1, 1]), "h_1 of the image off"),
    ("grid-poly", "k3n2-jac-json", bump(["points", 2, "jacobi", 5, 5]), "Jacobi corner off"),
    ("grid-poly", "k3n2-jac-csv", csv_bump, "CSV value off"),
    ("grid-poly", "k3n2-jac-csv", csv_drop, "CSV row missing"),
    ("grid-poly", "k3n2-can-a", bump(["orbit_coordinates", 0, 0, 0]), "orbit coordinate off"),
    ("grid-poly", "k4n1-can-ta", bump(["orbit_coordinates", 2, 0, 0]),
     "image orbit coordinate off"),
    ("grid-poly", "k3n2-can-a", bump(["standard_jet", "coefficients", 1, 2, 0]),
     "standard jet off"),
    ("grid-poly", "k3n2-can-a", bump(["ambient", 0, 0]), "canonical ambient off"),
    ("congruence", "k3n2-s1-b", flip_verdict, "constructed pair called not congruent"),
    ("congruence", "k3n2-s1-p", flip_verdict, "perturbed pair called congruent"),
    ("congruence", "k3n2-dense-b", bump(["ambient", 0, 0]), "ambient misses B's planes"),
    ("grid-ode", "k3n1-const-inv", bump(["points", 0, "kappa", 0, 0]), "ODE kappa off"),
    ("grid-ode", "k3n1-drift-inv", bump(["points", 1, "h", 0, 0, 0]), "ODE h_1 off"),
    ("grid-ode", "k3n2-const-inv", scale(["points", 2, "fanning_condition"], 1.001),
     "ODE fanning condition off"),
    ("grid-ode", "k2n2-drift-nf", off_plane_frame, "normal frame moved off its plane"),
    ("grid-ode", "k2n2-drift-nf", same_plane_other_frame, "normal frame not A X^-1"),
    ("grid-ode", "k2n2-drift-nf", bump(["x", 1, 0, 1]), "X off"),
    ("grid-ode", "k2n2-drift-nf", bump(["q", 0, 2, 1, 0]), "Q_2 off"),
    ("grid-ode", "k2n2-drift-nf", large_residual, "P_1 residual above tolerance"),
    ("grid-ode", "k2n2-const-cong", flip_verdict, "ODE pair called not congruent"),
    ("grid-ode", "k2n2-const-cong", bump(["ambient", 1, 0]), "ODE ambient misses B's planes"),
]


@pytest.mark.parametrize("workload,op_name,damage,what", CORRUPTIONS,
                         ids=[c[3] for c in CORRUPTIONS])
def test_check_rejects_corrupted_output(quick_reports, workload, op_name, damage, what):
    assert problems_after(quick_reports, workload, op_name, damage), what
