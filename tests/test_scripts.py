"""Each experiment script runs end to end on small inputs."""

from __future__ import annotations

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nltimebin

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# Script, its arguments (``{out}`` is the scratch directory), and the
# files it writes with their data row counts.
RUNS = {
    "run_characterization.py": (
        ["--grid", "3", "--sigmas", "0.5", "1.0", "--out", "{out}/characterization.csv"],
        {"characterization.csv": 6},
    ),
    "run_fringe_fit.py": (["--grid", "9", "--shots", "20000", "--seed", "3"], {}),
    "run_jti_maps.py": (
        ["--grid", "16", "--out-dir", "{out}"],
        {"jti_resonant.csv": 16, "jti_far.csv": 16},
    ),
    "run_water_trace.py": (
        ["--steps", "7", "--out", "{out}/water_trace.csv"],
        {"water_trace.csv": 7},
    ),
}


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs_and_writes_its_files(script, tmp_path):
    argv, files = RUNS[script]
    # The scripts run from the scratch directory and import the package
    # this suite imports.
    path = [str(Path(nltimebin.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script)] + [a.format(out=tmp_path) for a in argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    for name, rows in files.items():
        with open(tmp_path / name, newline="") as handle:
            table = list(csv.reader(handle))
        assert len(table) == rows + 1, name
        assert all(len(row) == len(table[0]) for row in table)
