"""The maintenance scripts under ``tools/`` run on this checkout."""

import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


parity = _load_tool("parity")
abtime = _load_tool("abtime")


def test_surface_prints_three_counts():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "surface.py")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    labels = [line.rpartition(": ")[0] for line in lines]
    assert labels == ["src lines", "settable parameters", "command-line options"]
    assert all(int(line.rpartition(": ")[2]) > 0 for line in lines)


def test_abtime_runs_a_tree_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "abtime.py"), str(ROOT), str(ROOT),
         "--workload", "congruence", "--rounds", "1", "--quick"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("round 1: old ") and " new/old " in lines[0]
    assert lines[1].startswith("congruence seed 1: 1 rounds of ")
    assert lines[1].endswith(", 0 commands with a different exit code or stdout")
    median = float(lines[1].partition("median new/old ")[2].split()[0])
    # One round resolves nothing, whatever its ratio.
    assert f"median new/old {median:.3f} (fewer than 5 rounds: not resolved), " in lines[1]


RESOLUTION_CASES = [
    ([1.0, 1.0, 1.0, 1.0, 1.0], "within 2% of 1: not resolved"),
    ([1.013, 1.005, 1.02, 1.013, 1.01], "within 2% of 1: not resolved"),
    ([0.985, 0.99, 0.97, 0.985, 0.995], "within 2% of 1: not resolved"),
    ([1.031, 1.04, 1.025, 1.031, 1.05], "more than 2% from 1: resolved"),
    ([0.762, 0.8, 0.75, 0.762, 0.77], "more than 2% from 1: resolved"),
    ([1.031, 1.04, 1.025, 1.05], "fewer than 5 rounds: not resolved"),
    ([1.031], "fewer than 5 rounds: not resolved"),
    ([1.031, 1.04, 0.99, 1.031, 1.05], "rounds on both sides of 1: not resolved"),
    ([0.762, 1.01, 0.75, 0.762, 0.77], "rounds on both sides of 1: not resolved"),
]


@pytest.mark.parametrize(
    "ratios, text",
    RESOLUTION_CASES,
    ids=[f"{round(statistics.median(r), 4)}-{text}" for r, text in RESOLUTION_CASES],
)
def test_abtime_calls_a_median_within_two_percent_of_one_not_resolved(ratios, text):
    assert abtime.resolution(ratios) == text


class TestParityComparison:
    def test_worst_difference_is_relative_to_the_old_value(self):
        old = {"t": 0.0, "x": [1.0, 3.0], "code": 2}
        new = {"t": 0.0, "x": [1.0, 3.5], "code": 2}
        assert parity.worst_difference(old, new) == (0.125, ".x[1]")
        assert parity.worst_difference(old, old)[0] == 0.0

    @pytest.mark.parametrize(
        "old, new",
        [
            ({"a": 1.0}, {"b": 1.0}),
            ({"a": 1.0, "b": 2.0}, {"b": 2.0, "a": 1.0}),
            ([1.0, 2.0], [1.0]),
            ({"verdict": "congruent"}, {"verdict": "not_congruent"}),
            (None, 0.0),
            (True, False),
            (True, 1),
            (0.0, False),
        ],
        ids=["keys", "key-order", "length", "string", "null", "bool", "bool-int", "float-bool"],
    )
    def test_worst_difference_raises_on_a_structural_mismatch(self, old, new):
        with pytest.raises(parity.Mismatch):
            parity.worst_difference(old, new)

    def test_report_difference_takes_one_common_sign(self):
        old = {"conjugator": [[1.0, 2.0]], "ambient": [[3.0]], "residuals": [0.5]}
        both = {"conjugator": [[-1.0, -2.0]], "ambient": [[-3.0]], "residuals": [0.5]}
        assert parity.report_difference(old, both)[0] == 0.0
        one = {"conjugator": [[-1.0, -2.0]], "ambient": [[3.0]], "residuals": [0.5]}
        assert parity.report_difference(old, one)[0] > 1.0

    def test_report_difference_compares_the_rest_of_the_report(self):
        old = {"conjugator": [[1.0]], "ambient": [[2.0]], "residuals": [1.0]}
        new = {"conjugator": [[-1.0]], "ambient": [[-2.0]], "residuals": [1.5]}
        assert parity.report_difference(old, new) == (0.25, ".residuals[0]")

    def test_verify_reports_compare_as_json(self, monkeypatch):
        monkeypatch.syspath_prepend(str(parity.PERFBENCH))
        import workloads

        workload = workloads.build("grid-ode", 1, quick=True)
        ops = parity.verify_ops(workload)
        paths = {cid: f"{cid}.json" for cid in workload.curves}
        assert [op.argv(paths) for op in ops] == [
            ["verify", f"{cid}.json", "--t", "0.2", "--seed", "3"] for cid in workload.curves
        ]
        op, check = ops[0], {"name": "reflection_square", "residual": 2e-15, "pass": True}

        def result(code, **changes):
            report = {"command": "verify", "checks": [{**check, **changes}], "passed": True}
            return {"code": code, "stdout": json.dumps(report), "stderr": ""}

        assert parity.compare_op(op, result(0), result(0)) == ([], 0.0, "")
        problems, worst, where = parity.compare_op(op, result(0), result(0, residual=3e-15))
        assert problems == [] and worst == pytest.approx(1e-15)
        assert where == f"{op.name}.checks[0].residual"
        problems = parity.compare_op(op, result(0), result(1, **{"pass": False}))[0]
        assert problems[0] == f"{op.name}: exit 0 vs 1"
        assert problems[1].startswith(f"{op.name}: reports differ: .checks[0].pass: True vs False")

    def test_summary_totals_identical_stdout(self, monkeypatch, capsys):
        # Nine workload-seed pairs of 4 commands, 1 of them verify and 2 CSV
        # twins: 3 identical each, one with a mismatch.
        def compare(old, new, name, seed, scratch):
            found = ["x: exit 0 vs 1"] if (name, seed) == ("congruence", 2) else []
            return 4, 1, 2, 3, found, 0, 1e-12 * seed, f"{name}-{seed}"

        monkeypatch.setattr(parity, "compare_workload", compare)
        assert parity.main(["old", "new"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "36 commands (9 verify, 18 CSV twins), 27 with identical stdout, 1 mismatches, "
            "0 negated witnesses, "
            "worst |a - b| / (1 + |a|) 3e-12 at grid-poly-3: FAIL (tolerance 1e-09)"
        )

    def test_summary_counts_negated_witnesses(self, monkeypatch, capsys):
        """A negated JSON witness is no mismatch, but it is counted, and its stdout differs."""
        def compare(old, new, name, seed, scratch):
            negated = 2 if name == "congruence" else 0
            return 4, 1, 2, 4 - negated, [], negated, 0.0, ""

        monkeypatch.setattr(parity, "compare_workload", compare)
        assert parity.main(["old", "new"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "36 commands (9 verify, 18 CSV twins), 30 with identical stdout, 0 mismatches, "
            "6 negated witnesses, worst |a - b| / (1 + |a|) 0: PASS (tolerance 1e-09)"
        )

    @pytest.mark.parametrize("csv", [False, True], ids=["json", "csv"])
    def test_negated_witness_is_named_and_still_a_difference(self, csv, monkeypatch):
        monkeypatch.syspath_prepend(str(parity.PERFBENCH))
        import workloads

        options = parity.CSV_OPTIONS if csv else ()
        op = workloads.Op("pair", "congruent", ("a", "b"), options, 5, "congruent")

        def result(conjugator, ambient, condition=2.0):
            if csv:
                stdout = (f"t,name,i,j,value\n,conjugator,0,0,{conjugator}\n"
                          f",ambient,0,0,{ambient}\n,conjugator_condition,0,0,{condition}\n")
            else:
                stdout = json.dumps({"verdict": "congruent", "conjugator": [[conjugator]],
                                     "ambient": [[ambient]], "conjugator_condition": condition})
            return {"code": 0, "stdout": stdout, "stderr": ""}

        old = result(1.5, -3.0)
        assert parity.negated_witness(op, old, result(-1.5, 3.0))
        assert parity.negated_witness(op, old, result(-1.5 * (1 + 1e-15), 3.0))
        for other in (old, result(1.5, 3.0), result(-1.5, 3.0, condition=2.5),
                      result(1.5 * (1 + 1e-15), -3.0)):
            assert not parity.negated_witness(op, old, other)
        problems, worst, _ = parity.compare_op(op, old, result(-1.5, 3.0))
        # JSON takes the pair up to sign; a CSV report's cells compare as they are.
        assert problems == [] and (worst > 1.0 if csv else worst == 0.0)

    def test_csv_twins_of_the_json_commands(self, monkeypatch):
        monkeypatch.syspath_prepend(str(parity.PERFBENCH))
        import workloads

        ops = workloads.build("grid-poly", 1, quick=True).ops
        twins = parity.csv_twins(ops)
        json_ops = [op for op in ops if "csv" not in op.options]
        assert 0 < len(json_ops) < len(ops)
        assert [twin.options for twin in twins] == [
            op.options + ("--format", "csv") for op in json_ops
        ]
        assert len({op.name for op in ops + twins}) == len(ops) + len(twins)

    def test_csv_reports_compare_cells_exactly_and_values_as_numbers(self, monkeypatch):
        monkeypatch.syspath_prepend(str(parity.PERFBENCH))
        import workloads

        op = parity.csv_twins(workloads.build("grid-poly", 1, quick=True).ops)[0]
        old = "t,name,i,j,value\n0.1,kappa,0,0,2\n0.1,h1,0,0,null\n"

        def result(stdout):
            return {"code": 0, "stdout": stdout, "stderr": ""}

        assert parity.compare_op(op, result(old), result(old)) == ([], 0.0, "")
        new = old.replace(",2\n", ",2.5\n")
        problems, worst, where = parity.compare_op(op, result(old), result(new))
        assert problems == [] and worst == pytest.approx(0.5 / 3)
        assert where == f"{op.name}[0.1,kappa,0,0]"
        for changed in (old.replace("0.1,h1", "0.10,h1"), old.replace("kappa,0,0", "kappa,0,1"),
                        old + "0.2,kappa,0,0,1\n"):
            problems = parity.compare_op(op, result(old), result(changed))[0]
            assert len(problems) == 1 and problems[0].startswith(f"{op.name}: reports differ: ")
        problems = parity.compare_op(op, result(old), result(old.replace("null", "0")))[0]
        assert problems == [f"{op.name}: reports differ: [0.1,h1,0,0]: None vs 0.0"]
