"""Each artifact gate passes on real CLI output and fires on a perturbed copy.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import gates
import layers
import run
import tracer
import workloads


def cli(cwd: Path, *argv: str) -> None:
    subprocess.run([sys.executable, "-m", "nltimebin", *argv], cwd=cwd, env=run.child_env(),
                   check=True, capture_output=True)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("artifacts")
    cli(root, "characterize", "--sigma", "0.5,2.0", "--delta-max", "3", "--grid", "3", "--out", "char")
    cli(root, "jti", "--grid", "16", "--out", "jti")
    cli(root, "jti", "--grid", "16", "--delta", "0.6", "--sigma", "1.1", "--out", "jti_detuned")
    cli(root, "fringe", "--grid", "11", "--delta", "1.0", "--out", "exact")
    cli(root, "fringe", "--grid", "11", "--shots", "20000", "--seed", "5", "--out", "fringe")
    cli(root, "fit", "--data", "fringe/fringe.csv", "--out", "fit")
    cli(root, "water", "--steps", "11", "--out", "water")
    return root


def perturbed(src: Path, dst: Path, edit) -> Path:
    """Copy of a CSV artifact with ``edit`` applied to its numeric table."""
    shutil.copytree(src.parent, dst, dirs_exist_ok=True)
    lines = src.read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    header, rows = gates.read_table(src)
    rows = edit(rows.copy(), header)
    body = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]
    target = dst / src.name
    target.write_text("\n".join(comments + body) + "\n")
    return target


def column(header, name):
    return header.index(name)


def test_characterize_gate(artifacts, tmp_path):
    path = artifacts / "char" / "characterize.csv"
    expect = {"sigmas": [0.5, 2.0], "delta_max": 3.0, "grid": 3}
    assert gates.check_characterize(path, **expect) == []

    def norm(rows, header):
        rows[1, column(header, "pair_transmission")] *= 1.0 + 1e-8
        return rows

    def folded(rows, header):
        rows[0, column(header, "phi_nl")] += 1e-8
        return rows

    def trend(rows, header):
        rows[[3, 4], column(header, "phi_nl")] = rows[[4, 3], column(header, "phi_nl")]
        return rows

    def ordering(rows, header):
        rows[2, column(header, "single_transmission_squared")] = 1.0
        return rows

    for edit, word in ((norm, "Faddeeva"), (folded, "cos(phi_nl)"), (trend, "decreasing"),
                       (ordering, "pair below")):
        problems = gates.check_characterize(perturbed(path, tmp_path / edit.__name__, edit), **expect)
        assert any(word in p for p in problems), (edit.__name__, problems)
    assert gates.check_characterize(path, sigmas=[0.5, 2.5], delta_max=3.0, grid=3)


def test_jti_gate(artifacts, tmp_path):
    path = artifacts / "jti" / "jti.csv"
    assert gates.check_jti(path, grid=16) == []

    def asymmetric(rows, header):
        rows[2, 5] += 1e-14
        return rows

    def peak(rows, header):
        rows[:, 1:] *= 0.5
        return rows

    def anti(rows, header):
        rows[:, 1:] = rows[:, 1:][:, ::-1]
        return rows

    for edit, word in ((asymmetric, "symmetric"), (peak, "peak"), (anti, "anti-diagonal")):
        problems = gates.check_jti(perturbed(path, tmp_path / edit.__name__, edit), grid=16)
        assert any(word in p for p in problems), (edit.__name__, problems)


def test_jti_gate_passes_detuned_map_with_rounding_asymmetry(artifacts):
    path = artifacts / "jti_detuned" / "jti.csv"
    matrix = gates.read_table(path)[1][:, 1:]
    assert not np.array_equal(matrix, matrix.T)
    assert gates.check_jti(path, grid=16) == []


def test_exact_fringe_gate(artifacts, tmp_path):
    assert gates.check_fringe_exact(artifacts / "exact", grid=11) == []

    def shifted(rows, header):
        rows[4, column(header, "p20")] += 1e-8
        return rows

    out = perturbed(artifacts / "exact" / "fringe.csv", tmp_path / "p20", shifted).parent
    assert any("closed form" in p for p in gates.check_fringe_exact(out, grid=11))


def test_sampled_fringe_gate(artifacts, tmp_path):
    assert gates.check_fringe_sampled(artifacts / "fringe", grid=11, shots=20000) == []

    def negative(rows, header):
        rows[3, column(header, "sigma_p11")] = -1.0
        return rows

    out = perturbed(artifacts / "fringe" / "fringe.csv", tmp_path / "neg", negative).parent
    assert any("standard errors" in p for p in gates.check_fringe_sampled(out, grid=11, shots=20000))


def test_water_gate(artifacts, tmp_path):
    path = artifacts / "water" / "water.csv"
    assert gates.check_water(path, steps=11, tmax=0.5) == []

    def drift(rows, header):
        rows[5, column(header, "p_separate")] += 1e-11
        return rows

    problems = gates.check_water(perturbed(path, tmp_path / "drift", drift), steps=11, tmax=0.5)
    assert any("oracle" in p for p in problems) and any("sum" in p for p in problems)


def test_fit_gate(artifacts, tmp_path):
    assert workloads._check_fringe_fit(artifacts / "fit") == []
    result = json.loads((artifacts / "fit" / "fit.json").read_text())
    summary = json.loads((artifacts / "fringe" / "fringe_summary.json").read_text())
    truth = {"phi_nl": summary["phi_nl"], "ell_nl": summary["ell_nl"]}

    far = dict(result, parameters=dict(result["parameters"]))
    far["parameters"]["phi_nl"] += 6.0 * result["std_errors"]["phi_nl"]
    (tmp_path / "far.json").write_text(json.dumps(far))
    assert any("SE from" in p for p in gates.check_fit(tmp_path / "far.json", truth))

    stalled = dict(result, converged=False)
    (tmp_path / "stalled.json").write_text(json.dumps(stalled))
    assert gates.check_fit(tmp_path / "stalled.json", truth) == ["fit: did not converge"]


def test_unreadable_artifact_is_a_problem(tmp_path):
    assert gates.check_jti(tmp_path / "missing.csv", grid=16)


def test_oracles_agree_without_distinguishability():
    phis = np.linspace(0.0, 2.0 * math.pi, 13)
    tensor = gates.distinguishable_triples(phis, 1.1, 0.3, 0.0)
    assert np.max(np.abs(tensor[:, 0] - gates.phase_shift_p20(phis, 1.1, 0.3))) < 1e-14


def test_workload_inputs_follow_the_seed():
    for name in workloads.BUILDERS:
        assert workloads.build(name, 7).inputs == workloads.build(name, 7).inputs
        assert workloads.build(name, 7).inputs != workloads.build(name, 8).inputs


def test_import_time_parsing():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       412 |     698409 |   nltimebin",
        "import time:     10752 |     507381 |     nltimebin.fit",
        "import time:      7627 |     706036 | nltimebin.cli",
        "import time:      9000 |     250000 | nltimebin.vibsim",
    ])
    package, fit = layers.import_times(log)
    assert package == pytest.approx(0.956036)
    assert fit == pytest.approx(0.507381)


def test_tracer_self_time_excludes_callees():
    module = types.ModuleType("fake_layer")
    exec(
        "def inner(n):\n    return sum(range(n))\n\n"
        "def outer(n):\n    return inner(n) + inner(n)\n",
        module.__dict__,
    )
    recorder = tracer.Recorder("task")
    recorder.instrument(module, "scatter")
    assert module.outer(20000) == 2 * sum(range(20000))
    outer, inner = recorder.functions["scatter.outer"], recorder.functions["scatter.inner"]
    assert inner["calls"] == 2 and outer["calls"] == 1
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"], abs=1e-12)
    spans = {span[2]: span for span in recorder.spans}
    assert spans["scatter.inner"][1] == spans["scatter.outer"][0]
    assert recorder.layers["scatter"]["outer_calls"] == 1
