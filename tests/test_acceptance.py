"""Top-level acceptance checks, one test per release criterion.

Each test prints a single PASS/FAIL line so the suite log doubles as a
scorecard.  Tolerances and runtime budgets are fixed here and must not be
loosened to accommodate regressions.
"""
from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
import pytest

from nltimebin import circuit, fit, scatter, vibsim
from nltimebin.scatter import PulseSpec

from _oracles import pair_tensor_triples, spectral_fringe_quad


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def resonance_sweep():
    """Characterization along the detuning axis at unit bandwidth."""
    deltas = np.linspace(0.0, 5.0, 21)
    rows = [scatter.nonlinear_params(PulseSpec(delta=d, sigma=1.0)) for d in deltas]
    return deltas, rows


def test_01_closed_forms_match_brute_force():
    phis = np.linspace(0.0, 2.0 * np.pi, 10, endpoint=False)
    phi_nls = np.linspace(0.0, np.pi, 10)
    losses = np.linspace(0.0, 0.9, 5)
    start = time.perf_counter()
    worst = 0.0
    for phi_nl in phi_nls:
        for loss in losses:
            closed = circuit.model_triple(phis, phi_nl=float(phi_nl), ell_nl=float(loss))
            brute = pair_tensor_triples(phis, float(phi_nl), float(loss), 0.0)
            worst = max(worst, float(np.max(np.abs(closed - brute))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    _report("criterion 01", ok, f"max deviation {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_02_full_model_collapses_to_phase_shift_model():
    phis = np.linspace(0.0, 2.0 * np.pi, 100)
    start = time.perf_counter()
    worst = 0.0
    for delta in (0.0, 1.0, 3.0):
        for sigma in (0.5, 1.0, 2.0):
            params = scatter.nonlinear_params(PulseSpec(delta=delta, sigma=sigma))
            simple = circuit.model_triple(phis, phi_nl=params.phi_nl, ell_nl=params.ell_nl)
            raw = spectral_fringe_quad(phis, delta, sigma)
            full = raw / raw.sum(axis=1, keepdims=True)
            worst = max(worst, float(np.max(np.abs(full - simple))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 60.0
    _report("criterion 02", ok, f"max deviation {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 60.0


def test_03_resonant_extinction_and_dip_floor():
    t0 = float(abs(scatter._transmission(np.array(0.0))))
    qd = fit.QDCharacterization(beta=0.88, sigma_sd=0.0)
    floor = float(fit.rt_spectrum(np.array([0.0]), qd)[0])
    ok = t0 < 1e-12 and abs(floor - 0.0144) < 1e-6
    _report("criterion 03", ok, f"|t(0)| = {t0:.2e}, dip floor {floor:.7f}")
    assert t0 < 1e-12
    assert abs(floor - 0.0144) < 1e-6


def test_04_nonlinearity_peaks_on_resonance(resonance_sweep):
    deltas, rows = resonance_sweep
    start = time.perf_counter()
    phi_nl = np.array([r.phi_nl for r in rows])
    ell_nl = np.array([r.ell_nl for r in rows])
    decreasing = bool(np.all(np.diff(phi_nl) < 0.0) and np.all(np.diff(ell_nl) < 0.0))
    peak = bool(phi_nl[0] > 0.3)
    even_dev = 0.0
    for delta in (1.0, 3.0):
        plus = scatter.nonlinear_params(PulseSpec(delta=delta, sigma=1.0))
        minus = scatter.nonlinear_params(PulseSpec(delta=-delta, sigma=1.0))
        even_dev = max(
            even_dev,
            abs(plus.phi_nl - minus.phi_nl),
            abs(plus.ell_nl - minus.ell_nl),
        )
    elapsed = time.perf_counter() - start
    ok = decreasing and peak and even_dev < 1e-9 and elapsed < 120.0
    _report(
        "criterion 04",
        ok,
        f"peak {phi_nl[0]:.3f} rad, monotone={decreasing}, "
        f"evenness {even_dev:.1e}, {elapsed:.1f}s",
    )
    assert decreasing
    assert peak
    assert even_dev < 1e-9
    assert elapsed < 120.0


def test_05_pair_transmission_beats_independent_photons(resonance_sweep):
    _, rows = resonance_sweep
    margins = [r.eta**2 - (r.eta * (1.0 - r.ell_nl)) ** 2 for r in rows]
    ok = all(m >= 0.0 for m in margins)
    _report("criterion 05", ok, f"min margin {min(margins):.3e} over {len(rows)} detunings")
    assert ok


def test_06_joint_spectrum_structure():
    start = time.perf_counter()
    times = np.linspace(-6.0, 6.0, 256)
    far = scatter.jti(PulseSpec(delta=1000.0, sigma=1.0), times=times)
    near = scatter.jti(PulseSpec(delta=0.0, sigma=1.0), times=times)
    residual = scatter.factorization_residual(far)
    grid = near
    mask = np.eye(grid.shape[0], dtype=bool)
    diag = float(grid[mask].mean())
    anti = float(np.fliplr(grid)[mask].mean())
    elapsed = time.perf_counter() - start
    ok = residual < 1e-4 and diag > anti and elapsed < 120.0
    _report(
        "criterion 06",
        ok,
        f"far residual {residual:.1e}, diag {diag:.3e} vs anti {anti:.3e}, {elapsed:.1f}s",
    )
    assert residual < 1e-4
    assert diag > anti
    assert elapsed < 120.0


def test_07_fit_recovers_synthetic_truth():
    phis = np.linspace(0.15, 2.95, 9)
    points = [
        (1.021104, 0.275712),
        (1.483231, 0.606617),
        (0.586182, 0.270),
        (0.111150, 0.030266),
        (0.575199, 0.180),
    ]
    start = time.perf_counter()
    hits = 0
    trials = 0
    for pi, (phi_nl, ell_nl) in enumerate(points):
        for seed in range(20):
            trials += 1
            rng_seed = 37 + pi * 100 + seed
            triples, errors = circuit.sample_statistics(
                phis, phi_nl, ell_nl, shots=100_000, seed=rng_seed
            )
            result = fit.fit_nl(phis, triples, errors)
            dev_phi = abs(result.parameters["phi_nl"] - phi_nl)
            dev_ell = abs(result.parameters["ell_nl"] - ell_nl)
            if (
                dev_phi <= 3.0 * result.std_errors["phi_nl"]
                and dev_ell <= 3.0 * result.std_errors["ell_nl"]
            ):
                hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 95 and elapsed < 300.0
    _report("criterion 07", ok, f"{hits}/{trials} trials within 3 sigma, {elapsed:.1f}s")
    assert hits >= 95
    assert elapsed < 300.0


def test_08_fringe_visibility_calibration():
    phis = np.linspace(0.0, np.pi, 61)
    target = 0.971
    data = 0.25 * (1.0 + target * np.cos(2.0 * phis - 0.8))
    result = fit.fit_fringe(phis, data)
    recovered = result.parameters["visibility"]
    ok = abs(recovered - target) <= 0.002
    _report("criterion 08", ok, f"visibility {recovered:.6f} vs {target}")
    assert abs(recovered - target) <= 0.002


def test_09_water_dynamics_trace():
    start = time.perf_counter()
    spec = vibsim.water_spec()
    _, anharmonic, harmonic = map(np.asarray, vibsim.trace(0.5, 51, spec))
    # Rows are (same-left, separate, same-right).
    t0_exact = bool(anharmonic[0, 0] == 1.0 and harmonic[0, 0] == 1.0)
    divergence = float(np.max(np.abs(anharmonic[:, 0] - harmonic[:, 0])))
    sum_dev = max(
        abs(left + right + separate - 1.0)
        for rows in (anharmonic, harmonic)
        for left, separate, right in rows
    )
    period = 1.0 / (vibsim.SPEED_OF_LIGHT_CM * 1e-12 * abs(spec.nu10 - spec.nu01))
    # ``linspace`` ends a trace exactly on its last time.
    base = np.asarray(vibsim.trace(0.17, 2, spec)[2][-1])
    shifted = np.asarray(vibsim.trace(0.17 + period, 2, spec)[2][-1])
    period_dev = float(np.max(np.abs(base - shifted)))
    elapsed = time.perf_counter() - start
    ok = (
        t0_exact
        and divergence > 0.05
        and sum_dev < 1e-12
        and period_dev < 1e-6
        and elapsed < 10.0
    )
    _report(
        "criterion 09",
        ok,
        f"t0 exact={t0_exact}, divergence {divergence:.3f}, sum dev {sum_dev:.1e}, "
        f"period dev {period_dev:.1e}, {elapsed:.1f}s",
    )
    assert t0_exact
    assert divergence > 0.05
    assert sum_dev < 1e-12
    assert period_dev < 1e-6
    assert elapsed < 10.0


def test_10_cli_outputs_are_byte_reproducible(tmp_path):
    fringe_dir = tmp_path / "seed-data"
    fringe_dir.mkdir()
    seed_cmd = [
        sys.executable,
        "-m",
        "nltimebin",
        "fringe",
        "--grid",
        "11",
        "--shots",
        "5000",
        "--seed",
        "3",
        "--out",
        str(fringe_dir),
    ]
    subprocess.run(seed_cmd, check=True, capture_output=True)
    commands = {
        "jti": ["jti", "--grid", "16"],
        "fringe": ["fringe", "--grid", "11", "--shots", "5000", "--seed", "3"],
        "characterize": ["characterize", "--sigma", "1.0", "--delta-max", "2", "--grid", "3"],
        "water": ["water", "--steps", "11"],
        "fit": ["fit", "--data", str(fringe_dir / "fringe.csv")],
    }
    stable = []
    for name, args in commands.items():
        payloads = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}-{run}"
            out.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "nltimebin", *args, "--out", str(out)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            blob = b"".join(path.read_bytes() for path in sorted(out.iterdir()))
            payloads.append(blob)
        stable.append(payloads[0] == payloads[1])
    ok = all(stable)
    _report("criterion 10", ok, "byte-identical reruns for " + ", ".join(commands))
    assert ok
