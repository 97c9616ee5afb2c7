"""End-to-end checks of the command-line artifact generator."""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from nltimebin import circuit, cli, scatter

# Lab units as the flag parsers convert them, at the 155.5 ps emitter lifetime.
LIFETIME_S = 155.5e-12
ONE_GHZ = 2.0 * math.pi * 1.0 * 1e9 * LIFETIME_S
WAVENUMBER_005 = 2.0 * math.pi * 2.99792458e10 * 0.05 * LIFETIME_S
FWHM_100PS = math.sqrt(2.0 * math.log(2.0)) * 155.5 / 100.0


def run(argv):
    return cli.main([str(item) for item in argv])


def read_rows(path):
    with open(path, newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))


def meta_line(path):
    with open(path) as handle:
        handle.readline()
        return handle.readline().removeprefix("# ").strip()


def test_water_defaults_and_schema(tmp_path):
    out = tmp_path / "w"
    assert run(["water", "--out", out, "--steps", 11]) == 0
    path = out / "water.csv"
    text = path.read_text()
    assert text.startswith("# schema=1\n")
    assert "\r" not in text
    rows = read_rows(path)
    assert len(rows) == 11
    first = rows[0]
    assert float(first["t_ps"]) == 0.0
    assert float(first["p_same_left"]) == 1.0
    assert float(first["p_same_left_harmonic"]) == 1.0
    for row in rows:
        total = sum(float(row[k]) for k in ("p_separate", "p_same_left", "p_same_right"))
        assert abs(total - 1.0) < 1e-12


def test_water_reruns_byte_identically(tmp_path):
    for name in ("a", "b"):
        assert run(["water", "--out", tmp_path / name, "--steps", 21]) == 0
    assert (tmp_path / "a" / "water.csv").read_bytes() == (
        tmp_path / "b" / "water.csv"
    ).read_bytes()


def test_jti_artifact_is_normalized_and_deterministic(tmp_path):
    for name in ("a", "b"):
        assert run(["jti", "--out", tmp_path / name, "--grid", 16]) == 0
    first = (tmp_path / "a" / "jti.csv").read_bytes()
    assert first == (tmp_path / "b" / "jti.csv").read_bytes()

    with open(tmp_path / "a" / "jti.csv", newline="") as handle:
        data_lines = [line for line in handle if not line.startswith("#")]
    matrix = np.array([[float(v) for v in line.split(",")[1:]] for line in data_lines[1:]])
    assert matrix.shape == (16, 16)
    assert abs(matrix.max() - 1.0) < 1e-12
    assert np.array_equal(matrix, matrix.T)


def test_fringe_seeding_controls_the_artifact(tmp_path):
    base = ["fringe", "--grid", 11, "--shots", 5000]
    assert run(base + ["--seed", 3, "--out", tmp_path / "a"]) == 0
    assert run(base + ["--seed", 3, "--out", tmp_path / "b"]) == 0
    assert run(base + ["--seed", 4, "--out", tmp_path / "c"]) == 0
    read = lambda name, art: (tmp_path / name / art).read_bytes()
    assert read("a", "fringe.csv") == read("b", "fringe.csv")
    assert read("a", "fringe_summary.json") == read("b", "fringe_summary.json")
    assert read("a", "fringe.csv") != read("c", "fringe.csv")


def test_fringe_seeds_never_share_a_stream(tmp_path):
    # Phase 1000 of one seed and phase 0 of the next see the same cell
    # probabilities (phi = 2 pi and 0); their samples must still differ.
    base = ["fringe", "--grid", 1001, "--shots", 1000]
    assert run(base + ["--seed", 0, "--out", tmp_path / "s0"]) == 0
    assert run(base + ["--seed", 1, "--out", tmp_path / "s1"]) == 0
    last = read_rows(tmp_path / "s0" / "fringe.csv")[-1]
    first = read_rows(tmp_path / "s1" / "fringe.csv")[0]
    sampled = ("p20", "p11", "p02", "sigma_p20", "sigma_p11", "sigma_p02")
    assert [last[c] for c in sampled] != [first[c] for c in sampled]


def test_degenerate_histogram_maps_to_the_shots_flag(tmp_path, capsys):
    assert run(["fringe", "--grid", 5, "--shots", 5, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --shots: 5 shots")
    assert "histogram at phi=0:" in err


def test_characterization_sweep_trends(tmp_path):
    out = tmp_path / "c"
    assert run(["characterize", "--sigma", "1.0", "--delta-max", 4, "--grid", 5, "--out", out]) == 0
    rows = read_rows(out / "characterize.csv")
    deltas = [float(r["delta"]) for r in rows]
    phases = [float(r["phi_nl"]) for r in rows]
    losses = [float(r["ell_nl"]) for r in rows]
    etas = [float(r["eta"]) for r in rows]
    assert deltas == sorted(deltas)
    assert all(a > b for a, b in zip(phases, phases[1:]))
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert all(a < b for a, b in zip(etas, etas[1:]))
    # Near resonance the correlated pair is transmitted more readily
    # than two independent photons.
    assert float(rows[0]["pair_transmission"]) > float(rows[0]["single_transmission_squared"])


def test_fringe_to_fit_pipeline(tmp_path):
    data_dir = tmp_path / "f"
    assert run(["fringe", "--grid", 25, "--shots", 20000, "--seed", 5, "--out", data_dir]) == 0
    fit_dir = tmp_path / "fit"
    assert run(["fit", "--data", data_dir / "fringe.csv", "--out", fit_dir]) == 0
    payload = json.loads((fit_dir / "fit.json").read_text())
    assert payload["converged"]
    expected = scatter.nonlinear_params(scatter.PulseSpec(0.0, 1.0))
    dev = abs(payload["parameters"]["phi_nl"] - expected.phi_nl)
    assert dev <= 4.0 * payload["std_errors"]["phi_nl"]


def test_flags_override_the_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tmax": 0.3, "steps": 21}))
    out = tmp_path / "w"
    assert run(["water", "--config", cfg, "--steps", 11, "--out", out]) == 0
    assert meta_line(out / "water.csv") == "water tmax=0.3 steps=11"


def test_config_values_pass_through_unit_parsing(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"delta": "1GHz", "sigma": 2.0, "phi": 0.3, "grid": 16}))
    out = tmp_path / "j"
    assert run(["jti", "--config", cfg, "--sigma", "1.0", "--out", out]) == 0
    expected = f"jti delta={ONE_GHZ!r} sigma=1.0 phi=0.3 grid=16"
    assert meta_line(out / "jti.csv") == expected


def test_config_and_flag_runs_agree_bytewise(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"shots": 5000, "seed": 3}))
    assert run(["fringe", "--config", cfg, "--seed", 4, "--grid", 11, "--out", tmp_path / "a"]) == 0
    assert run(["fringe", "--shots", 5000, "--seed", 4, "--grid", 11, "--out", tmp_path / "b"]) == 0
    assert (tmp_path / "a" / "fringe.csv").read_bytes() == (
        tmp_path / "b" / "fringe.csv"
    ).read_bytes()


@pytest.mark.parametrize(
    "flag, quantity, numeric",
    [
        ("--delta", "1GHz", ONE_GHZ),
        ("--delta", "0.05cm-1", WAVENUMBER_005),
        ("--sigma", "100ps", FWHM_100PS),
    ],
)
def test_unit_suffixes_match_plain_values(tmp_path, flag, quantity, numeric):
    assert run(["jti", flag, quantity, "--grid", 16, "--out", tmp_path / "a"]) == 0
    assert run(["jti", flag, repr(numeric), "--grid", 16, "--out", tmp_path / "b"]) == 0
    assert (tmp_path / "a" / "jti.csv").read_bytes() == (
        tmp_path / "b" / "jti.csv"
    ).read_bytes()


def test_time_suffix_accepted_where_times_belong(tmp_path):
    assert run(["water", "--tmax", "0.4ps", "--steps", 5, "--out", tmp_path / "a"]) == 0
    assert run(["water", "--tmax", "0.4", "--steps", 5, "--out", tmp_path / "b"]) == 0
    assert (tmp_path / "a" / "water.csv").read_bytes() == (
        tmp_path / "b" / "water.csv"
    ).read_bytes()


def test_errors_name_the_offending_flag(tmp_path, capsys):
    assert run(["jti", "--delta", "1ps", "--out", tmp_path / "x"]) == 2
    assert "--delta" in capsys.readouterr().err
    assert run(["jti", "--sigma", "1parsec", "--out", tmp_path / "x"]) == 2
    assert "--sigma" in capsys.readouterr().err
    # An infinite pulse duration is a zero spectral width.
    assert run(["jti", "--sigma", "1e999ps", "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err.startswith("error: --sigma: spectral width must be positive")
    assert run(["fit", "--out", tmp_path / "x"]) == 2
    assert "--data" in capsys.readouterr().err
    assert run(["fringe", "--grid", 11, "--shots", 20, "--out", tmp_path / "x"]) == 2
    assert "--shots" in capsys.readouterr().err


def test_quadrature_failure_maps_to_exit_three(tmp_path, capsys):
    assert run(["fringe", "--sigma", 1e4, "--grid", 3, "--out", tmp_path / "x"]) == 3
    err = capsys.readouterr().err
    assert "--sigma" in err or "--delta" in err
    assert "sigma=10000.0" in err
    # A pulse this narrow on resonance leaves p_single to rounding noise.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["characterize", "--sigma", "1e-20", "--grid", 2, "--delta-max", 1]
        assert run(argv + ["--out", tmp_path / "x"]) == 3
    assert "sigma=1e-20: the single-photon norm" in capsys.readouterr().err


def test_unresolved_time_map_maps_to_exit_three(tmp_path, capsys):
    assert run(["jti", "--sigma", 10, "--out", tmp_path / "x"]) == 3
    assert "map drift" in capsys.readouterr().err
    # The frequency window is below one ulp of twice this detuning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["jti", "--delta", "1e50", "--grid", 16, "--out", tmp_path / "x"]) == 3
    assert "the map vanishes" in capsys.readouterr().err


def test_far_detuned_fringe_reports_full_visibility(tmp_path):
    out = tmp_path / "far"
    assert run(["fringe", "--delta", 20, "--grid", 101, "--out", out]) == 0
    summary = json.loads((out / "fringe_summary.json").read_text())
    assert abs(summary["visibility_p20"] - 1.0) < 1e-3


def test_malformed_inputs_exit_with_code_two(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("{not json")
    assert run(["water", "--config", bad_cfg, "--out", tmp_path / "x"]) == 2
    assert "--config" in capsys.readouterr().err

    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert run(["water", "--config", listy, "--out", tmp_path / "x"]) == 2

    stub = tmp_path / "partial.csv"
    stub.write_text("phi,p20\n0.0,1.0\n")
    assert run(["fit", "--data", stub, "--out", tmp_path / "x"]) == 2
    assert "--data" in capsys.readouterr().err

    assert run(["fit", "--data", tmp_path / "missing.csv", "--out", tmp_path / "x"]) == 2

    # Widths whose square overflows or underflows a float, and a shot
    # count beyond the 64-bit draw.
    for command in ("fringe", "jti", "characterize"):
        for sigma in ("1e200", "1e-200"):
            capsys.readouterr()
            assert run([command, "--sigma", sigma, "--out", tmp_path / "x"]) == 2
            assert capsys.readouterr().err.startswith("error: sigma must be in")
    # Detunings whose square overflows.
    for argv in (["fringe", "--delta", "1e308"], ["jti", "--delta=-1e151"],
                 ["characterize", "--delta-max", "1e200", "--grid", 2]):
        capsys.readouterr()
        assert run(argv + ["--out", tmp_path / "x"]) == 2
        assert capsys.readouterr().err.startswith("error: delta must be in")
    assert run(["fringe", "--shots", 10**20, "--grid", 3, "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err.startswith("error: --shots: shots must be at most 2**63 - 1")
    # Traces so long that their phases overflow, or round by more than
    # 1e-3 rad, with no numpy warning on the way.
    for tmax in ("1e308", "1e300"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["water", "--tmax", tmax, "--steps", 3, "--out", tmp_path / "x"]) == 2
        assert capsys.readouterr().err.startswith(f"error: t_max = {float(tmax)!r} ps is too long")

    with pytest.raises(SystemExit) as exc:
        run(["bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, setting, expected",
    [
        ("fit", {"distinguishability": "false"}, "--distinguishability: expected true or false"),
        ("fringe", {"seed": True}, "--seed: expected an integer"),
        ("fringe", {"grid": True}, "--grid: expected an integer"),
        ("characterize", {"delta-max": 1.5}, "--config: unknown key 'delta-max'"),
        ("water", {"out": 5}, "--out: expected a directory path"),
    ],
    ids=["distinguishability-string", "seed-bool", "grid-bool", "unknown-key", "out-number"],
)
def test_config_values_of_the_wrong_kind_name_their_flag(
    tmp_path, capsys, command, setting, expected
):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(setting))
    argv = [command, "--config", cfg]
    if command == "fit":
        assert run(["fringe", "--grid", 25, "--out", tmp_path / "d"]) == 0
        argv += ["--data", tmp_path / "d" / "fringe.csv"]
    if "out" not in setting:
        argv += ["--out", tmp_path / "x"]
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {expected}")


def test_module_execution_entry_point(tmp_path):
    out = tmp_path / "w"
    proc = subprocess.run(
        [sys.executable, "-m", "nltimebin", "water", "--steps", "5", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (out / "water.csv").exists()
    assert proc.stdout.strip().endswith("water.csv")


def test_subcommands_load_no_scipy(tmp_path):
    # Every Faddeeva evaluation and every fit is numpy; scipy is a test
    # oracle only.
    sampled = str(tmp_path / "2" / "fringe.csv")
    runs = [
        ["characterize", "--sigma", "0.5,1", "--grid", "3"],
        ["fringe", "--delta", "0.3", "--grid", "9"],
        ["fringe", "--delta", "0.3", "--grid", "9", "--shots", "20000", "--seed", "1"],
        ["jti", "--delta", "0.3", "--grid", "16"],
        ["jti", "--delta", "0.3", "--grid", "16", "--phi", "0.4"],
        ["water", "--steps", "5"],
        ["fit", "--data", sampled],
        ["fit", "--data", sampled, "--distinguishability"],
    ]
    code = (
        "import json, sys\n"
        "from nltimebin import cli\n"
        f"for k, argv in enumerate({runs!r}):\n"
        f"    assert cli.main(argv + ['--out', {str(tmp_path)!r} + f'/{{k}}']) == 0, argv\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


LOADED_MODULES = {
    "characterize": (["characterize", "--sigma", "0.5", "--grid", "3"], ["cli", "scatter"]),
    "jti": (["jti", "--delta", "0.3", "--grid", "16"], ["cli", "scatter"]),
    "fringe": (["fringe", "--delta", "0.3", "--grid", "9"], ["circuit", "cli", "scatter"]),
    "water": (["water", "--steps", "5"], ["circuit", "cli", "scatter", "vibsim"]),
    "fit": (["fit", "--data", "{data}"], ["circuit", "cli", "fit", "scatter"]),
}


@pytest.mark.parametrize("name", list(LOADED_MODULES))
def test_each_subcommand_loads_only_the_modules_it_uses(name, tmp_path):
    argv, expected = LOADED_MODULES[name]
    data = tmp_path / "stats.csv"
    phis = np.linspace(0.15, 2.95, 9)
    rows = np.column_stack([phis, circuit.model_triple(phis, 0.8, 0.2)])
    np.savetxt(data, rows, delimiter=",", header="phi,p20,p11,p02", comments="")
    argv = [arg.format(data=data) for arg in argv] + ["--out", str(tmp_path / "out")]
    code = (
        "import json, sys\n"
        "from nltimebin import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(json.dumps([sorted(m.split('.', 1)[1] for m in sys.modules"
        " if m.startswith('nltimebin.')), 'numpy.polynomial' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [expected, False]
    # perfbench times imports from this log, lazy ones included.
    logged = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert {m for m in logged if m.startswith("nltimebin.")} == {f"nltimebin.{m}" for m in expected}


def test_package_attributes_load_their_submodules():
    code = (
        "import sys\n"
        "import nltimebin\n"
        "print(sorted(m for m in sys.modules if m.startswith('nltimebin.')))\n"
        "print(nltimebin.fit.fit_nl.__module__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "nltimebin.fit"]


def test_no_fit_loads_scipy():
    # No fit is a simplex fit any more, so none may load scipy.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from nltimebin import circuit, fit\n"
        "loaded = lambda: any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
        "states = [loaded()]\n"
        "phi = np.linspace(0.15, 2.95, 9)\n"
        "fit.fit_nl(phi, circuit.model_triple(phi, 0.8, 0.2))\n"
        "fit.fit_nl(phi, circuit.model_triple(phi, 0.8, 0.2, 0.1), fit_distinguishability=True)\n"
        "fit.fit_fringe(2.0 * phi, np.cos(4.0 * phi))\n"
        "states.append(loaded())\n"
        "print(*states)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
