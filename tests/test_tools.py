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
