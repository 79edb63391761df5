"""The maintenance scripts under ``tools/`` run on this checkout."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
