"""Optimizer, transmission-dip lineshapes, and parameter-extraction fits."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nltimebin import circuit, fit, scatter

from _oracles import voigt_transmission_quadrature

SIGMA_SD = 2.0 * math.pi * 0.134e9 * 155.5e-12


def test_minimize_solves_a_quadratic():
    result = fit.minimize(lambda x: (x[0] - 3.0) ** 2, [0.0])
    assert result.converged
    assert abs(result.parameters["x0"] - 3.0) < 1e-6
    assert result.residual < 1e-10
    assert result.std_errors["x0"] > 0.0


def test_minimize_solves_rosenbrock():
    def rosenbrock(x):
        return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2

    result = fit.minimize(rosenbrock, [-1.2, 1.0])
    assert result.converged
    assert abs(result.parameters["x0"] - 1.0) < 1e-4
    assert abs(result.parameters["x1"] - 1.0) < 1e-4


@settings(deadline=None, max_examples=15)
@given(cx=st.floats(-5.0, 5.0), cy=st.floats(-5.0, 5.0))
def test_minimize_centers_random_bowls(cx, cy):
    result = fit.minimize(lambda x: (x[0] - cx) ** 2 + 2.0 * (x[1] - cy) ** 2, [0.0, 0.0])
    assert result.converged
    assert abs(result.parameters["x0"] - cx) < 1e-5
    assert abs(result.parameters["x1"] - cy) < 1e-5


def test_minimize_rejects_nan_start():
    with pytest.raises(ValueError):
        fit.minimize(lambda x: math.nan, [0.0])


def test_runaway_descent_reports_non_convergence():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = fit.minimize(lambda x: x[0], [0.0])
    assert not result.converged
    assert result.std_errors == {}
    assert result.evaluations >= 10_000


def test_dip_depth_landmarks():
    assert abs(fit.rt_spectrum(0.0, fit.QDCharacterization(beta=1.0))) < 1e-12
    omega = np.linspace(-4.0, 4.0, 11)
    assert np.allclose(fit.rt_spectrum(omega, fit.QDCharacterization(beta=0.0)), 1.0)
    floor = fit.rt_spectrum(0.0, fit.QDCharacterization(beta=0.88))
    assert abs(floor - 0.0144) < 1e-12


def test_unbroadened_dip_is_a_lorentzian():
    qd = fit.QDCharacterization(beta=0.7, gamma_d=0.3, saturation=0.5)
    omega = np.linspace(-5.0, 5.0, 41)
    half = 0.5 * qd.gamma_fwhm
    expected = 1.0 - qd.depth * half**2 / (omega**2 + half**2)
    assert np.max(np.abs(fit.rt_spectrum(omega, qd) - expected)) < 1e-12


@pytest.mark.parametrize(
    "qd",
    [
        fit.QDCharacterization(beta=0.6, gamma_d=0.2, saturation=0.3, sigma_sd=0.7),
        fit.QDCharacterization(beta=0.9, gamma=7e-3, sigma_sd=1.0),
    ],
)
def test_broadened_dip_matches_faddeeva_voigt(qd):
    omega = np.linspace(-4.0, 4.0, 33)
    mine = fit.rt_spectrum(omega, qd)
    ref = voigt_transmission_quadrature(omega, qd.depth, qd.gamma_fwhm, qd.sigma_sd)
    assert np.max(np.abs(mine - ref)) < 1e-6


def test_vanishing_linewidth_leaves_a_gaussian():
    qd = fit.QDCharacterization(beta=0.9, gamma=2e-8, sigma_sd=1.0)
    omega = np.linspace(-3.0, 3.0, 25)
    expected = 1.0 - qd.depth * np.exp(-0.5 * omega**2)
    assert np.max(np.abs(fit.rt_spectrum(omega, qd) - expected)) < 1e-6


def test_dip_floor_is_branch_independent():
    for sigma_sd in (0.0, 7e-4, 0.3):
        qd = fit.QDCharacterization(beta=0.82, gamma_d=0.1, sigma_sd=sigma_sd)
        assert abs(fit.rt_spectrum(0.0, qd) - (1.0 - qd.depth)) < 1e-12


def test_characterization_validation_and_derived_widths():
    qd = fit.QDCharacterization(beta=0.88, gamma_d=0.5, saturation=1.0)
    assert abs(qd.depth - 0.88 * 1.12 / 4.0) < 1e-12
    assert abs(qd.gamma_fwhm - 1.5 * math.sqrt(2.0)) < 1e-12
    with pytest.raises(ValueError):
        fit.QDCharacterization(beta=1.2).validate()
    with pytest.raises(ValueError):
        fit.QDCharacterization(beta=0.5, gamma=0.0).validate()
    with pytest.raises(ValueError):
        fit.QDCharacterization(beta=0.5, sigma_sd=-0.1).validate()


def test_transmission_fit_round_trip():
    omega = np.linspace(-6.0, 6.0, 50)
    truth = fit.QDCharacterization(beta=0.88, sigma_sd=SIGMA_SD)
    template = fit.QDCharacterization(beta=0.5)
    result = fit.fit_rt(omega, fit.rt_spectrum(omega, truth), qd_template=template)
    assert result.converged
    assert abs(result.parameters["beta"] - 0.88) / 0.88 < 1e-4
    assert abs(result.parameters["sigma_sd"] - SIGMA_SD) / SIGMA_SD < 1e-4
    assert abs(result.parameters["gamma_fwhm"] - 1.0) < 1e-9


def test_flat_spectrum_fits_to_uncoupled():
    omega = np.linspace(-6.0, 6.0, 40)
    result = fit.fit_rt(omega, np.ones_like(omega))
    assert result.parameters["beta"] < 1e-8


def test_transmission_fit_coverage():
    omega = np.linspace(-6.0, 6.0, 50)
    clean = fit.rt_spectrum(omega, fit.QDCharacterization(beta=0.88, sigma_sd=SIGMA_SD))
    template = fit.QDCharacterization(beta=0.5)
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(900 + seed)
        noisy = clean + rng.normal(0.0, 0.01, omega.size)
        result = fit.fit_rt(
            omega, noisy, qd_template=template, errors=np.full(omega.size, 0.01)
        )
        close = abs(result.parameters["beta"] - 0.88) <= 3.0 * result.std_errors["beta"]
        hits += bool(result.converged and close)
    assert hits >= 95


def test_transmission_fit_pulls_have_unit_spread():
    # sigma_sd = 0.5 sits well inside its (0, 50 gamma) bounds, so the
    # curvature errors are not cut by a boundary.
    omega = np.linspace(-6.0, 6.0, 50)
    truth = {"beta": 0.88, "sigma_sd": 0.5}
    clean = fit.rt_spectrum(omega, fit.QDCharacterization(**truth))
    template = fit.QDCharacterization(beta=0.5)
    pulls = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        noisy = clean + rng.normal(0.0, 0.01, omega.size)
        result = fit.fit_rt(omega, noisy, qd_template=template, errors=np.full(omega.size, 0.01))
        assert result.converged
        pulls.append([(result.parameters[k] - v) / result.std_errors[k] for k, v in truth.items()])
    spread = np.std(pulls, axis=0)
    assert np.all((spread >= 0.85) & (spread <= 1.15)), spread


def test_fringe_fit_recovers_phase_and_visibility():
    phi = np.linspace(0.0, 2.0 * math.pi, 61)
    ideal = 0.25 * (1.0 + np.cos(2.0 * phi - 0.8))
    result = fit.fit_fringe(phi, ideal)
    assert abs(result.parameters["visibility"] - 1.0) < 1e-6
    assert abs(result.parameters["phi0"] - 0.4) < 1e-6

    partial = 0.25 * (1.0 + 0.971 * np.cos(2.0 * phi - 0.8))
    result = fit.fit_fringe(phi, partial)
    assert abs(result.parameters["visibility"] - 0.971) < 1e-6


def test_noisy_fringe_stays_within_spec():
    phi = np.linspace(0.0, 2.0 * math.pi, 61)
    clean = 0.25 * (1.0 + 0.971 * np.cos(2.0 * phi - 0.8))
    rng = np.random.default_rng(7)
    noisy = clean + rng.normal(0.0, 0.001, phi.size)
    result = fit.fit_fringe(phi, noisy, errors=np.full(phi.size, 0.001))
    assert abs(result.parameters["visibility"] - 0.971) <= 0.002
    assert 2e-4 < result.std_errors["visibility"] < 1.5e-3


def test_flat_fringe_is_flagged_unidentifiable():
    phi = np.linspace(0.0, 2.0 * math.pi, 61)
    result = fit.fit_fringe(phi, np.full(phi.size, 0.25))
    assert abs(result.parameters["visibility"]) < 1e-12
    assert "phi0" in result.unidentifiable
    assert math.isinf(result.std_errors["phi0"])


def test_fringe_fit_needs_a_full_period():
    phi = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ValueError, match="period"):
        fit.fit_fringe(phi, np.cos(2.0 * phi))


def test_nl_fit_round_trip():
    phi = np.linspace(0.15, 2.95, 11)
    triples = circuit.model_triple(phi, math.pi / 4.0, 0.3)
    result = fit.fit_nl(phi, triples)
    assert result.converged
    assert abs(result.parameters["phi_nl"] - math.pi / 4.0) < 1e-6
    assert abs(result.parameters["ell_nl"] - 0.3) < 1e-6


def test_nl_fit_recovers_distinguishable_fraction():
    phi = np.linspace(0.15, 2.95, 11)
    theta = math.asin(math.sqrt(0.10))
    triples = circuit.model_triple(phi, math.pi / 4.0, 0.3, theta)
    result = fit.fit_nl(phi, triples, fit_distinguishability=True)
    assert abs(result.parameters["distinguishable_fraction"] - 0.10) <= 0.02


def test_nl_fit_null_case_stays_small():
    phi = np.linspace(0.15, 2.95, 9)
    triples = circuit.model_triple(phi, 0.0, 0.0)
    recovered = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        counts = np.array([rng.multinomial(100_000, row) for row in triples])
        data = counts / 100_000.0
        sigma = np.sqrt(np.clip(data * (1.0 - data), 1e-12, None) / 100_000.0)
        result = fit.fit_nl(phi, data, errors=np.clip(sigma, 1e-9, None))
        recovered.append(result.parameters["phi_nl"])
    assert recovered[0] < 0.02
    assert float(np.median(recovered)) < 0.015


def test_nl_fit_is_blind_to_the_detuning_sign():
    phi = np.linspace(0.15, 2.95, 9)
    fits = []
    for delta in (1.0, -1.0):
        params = scatter.nonlinear_params(scatter.PulseSpec(delta, 1.0))
        triples = circuit.model_triple(phi, params.phi_nl, params.ell_nl)
        fits.append(fit.fit_nl(phi, triples).parameters["phi_nl"])
    assert abs(fits[0] - fits[1]) < 1e-6


def test_nl_fit_poisson_coverage():
    phi = np.linspace(0.15, 2.95, 9)
    true_pnl, true_ell = 1.0211040383477983, 0.27571224654817826
    triples = circuit.model_triple(phi, true_pnl, true_ell)
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(500 + seed)
        counts = np.array([rng.multinomial(10_000, row) for row in triples])
        data = counts / 10_000.0
        sigma = np.sqrt(np.clip(data * (1.0 - data), 1e-12, None) / 10_000.0)
        result = fit.fit_nl(phi, data, errors=np.clip(sigma, 1e-9, None))
        ok = (
            abs(result.parameters["phi_nl"] - true_pnl) <= 3.0 * result.std_errors["phi_nl"]
            and abs(result.parameters["ell_nl"] - true_ell) <= 3.0 * result.std_errors["ell_nl"]
        )
        hits += bool(result.converged and ok)
    assert hits >= 95


def test_nl_fit_pulls_have_unit_spread():
    # Each renormalized triple sums to one; errors that ignore the
    # correlation of its residuals understate the spread of the fit.
    phi = np.linspace(0.15, 2.95, 9)
    truth = {"phi_nl": 1.021104, "ell_nl": 0.275712}
    pulls = []
    for seed in range(200):
        triples, errors = circuit.sample_statistics(
            phi, truth["phi_nl"], truth["ell_nl"], shots=100_000, seed=seed
        )
        result = fit.fit_nl(phi, triples, errors)
        assert result.converged
        pulls.append([(result.parameters[k] - v) / result.std_errors[k] for k, v in truth.items()])
    spread = np.std(pulls, axis=0)
    assert np.all((spread >= 0.85) & (spread <= 1.15)), spread


def test_multinomial_errors_give_the_multinomial_covariance():
    phi = np.linspace(0.2, 2.8, 4)
    probs = circuit.model_triple(phi, 0.9, 0.2)
    shots = 1000
    errors = np.sqrt(probs * (1.0 - probs) / shots)
    expected = (np.eye(3) * probs[:, None, :] - probs[:, :, None] * probs[:, None, :]) / shots
    assert np.max(np.abs(fit._row_covariance(phi, errors) - expected)) < 1e-17


def test_nl_fit_rejects_errors_that_break_the_triangle_inequality():
    phi = np.linspace(0.15, 2.95, 9)
    triples = circuit.model_triple(phi, 0.9, 0.2)
    errors = np.full(triples.shape, 0.01)
    errors[4] = (0.01, 0.001, 0.02)
    with pytest.raises(ValueError, match=f"phi={phi[4]:.6g}"):
        fit.fit_nl(phi, triples, errors)
    errors[4] = (0.01, -0.01, 0.01)
    with pytest.raises(ValueError, match="non-negative"):
        fit.fit_nl(phi, triples, errors)


def test_fits_demand_enough_points():
    with pytest.raises(ValueError, match="8"):
        fit.fit_rt(np.linspace(-1, 1, 5), np.ones(5))
    with pytest.raises(ValueError, match="8"):
        fit.fit_nl(np.linspace(0.2, 2.8, 5), np.full((5, 3), 1.0 / 3.0))
