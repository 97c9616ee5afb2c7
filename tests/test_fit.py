"""Transmission-dip lineshapes and parameter-extraction fits."""

from __future__ import annotations

import math

import numpy as np
import pytest

from nltimebin import _triple, circuit, cli, fit, scatter

from _oracles import pair_tensor_triples, reference_nl_fit, voigt_transmission_quadrature


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
        fit.QDCharacterization(beta=1.2)
    with pytest.raises(ValueError):
        fit.QDCharacterization(beta=0.5, gamma=0.0)
    with pytest.raises(ValueError):
        fit.QDCharacterization(beta=0.5, sigma_sd=-0.1)


def test_flat_spectrum_fits_to_uncoupled():
    # Only the uncoupled emitter leaves the spectrum flat, whatever its
    # linewidth, dephasing, saturation or wandering; any coupling dips it.
    omega = np.linspace(-6.0, 6.0, 40)
    for broadening in ({}, {"gamma_d": 0.3, "saturation": 0.5}, {"gamma": 7e-3, "sigma_sd": 1.0}):
        flat = fit.rt_spectrum(omega, fit.QDCharacterization(beta=0.0, **broadening))
        assert np.all(flat == 1.0)
        assert fit.rt_spectrum(0.0, fit.QDCharacterization(beta=1e-8, **broadening)) < 1.0


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


def test_fringe_errors_scale_with_the_data():
    phi = np.linspace(0.0, 2.0 * math.pi, 25)
    values = 2.5e11 + 1.25e11 * np.cos(2.0 * phi - 0.6)
    large = fit.fit_fringe(phi, values, errors=1e6)
    small = fit.fit_fringe(phi, values * 1e-12, errors=1e-6)
    assert large.unidentifiable == small.unidentifiable == ()
    for name, unit in (("amplitude", 1e12), ("offset", 1e12), ("phi0", 1.0), ("visibility", 1.0)):
        assert math.isclose(large.std_errors[name], unit * small.std_errors[name], rel_tol=1e-9)
    # A fringe on a tiny scale, with or without an offset, keeps its phase error.
    for fringe in (1.0 + 0.5 * np.cos(2.0 * phi - 0.6), 0.5 * np.cos(2.0 * phi - 0.6)):
        unit = fit.fit_fringe(phi, fringe, errors=0.01)
        for factor in (1e-14, 1e11):
            scaled = fit.fit_fringe(phi, fringe * factor, errors=0.01 * factor)
            assert scaled.unidentifiable == unit.unidentifiable == ()
            assert math.isclose(scaled.std_errors["phi0"], unit.std_errors["phi0"], rel_tol=1e-9)
            for name in ("amplitude", "offset"):
                assert math.isclose(scaled.std_errors[name], factor * unit.std_errors[name],
                                    rel_tol=1e-9)


def test_an_unidentifiable_amplitude_or_offset_leaves_the_visibility_unknown():
    # At phases 0 and pi the offset and cos 2 phi0 amplitude enter as one sum.
    phi = np.array([0.0, math.pi] * 4)
    result = fit.fit_fringe(phi, [1.0, 1.0, 1.1, 1.1, 0.9, 0.9, 1.0, 1.0], errors=0.1)
    assert {"amplitude", "offset"} <= set(result.unidentifiable)
    assert math.isinf(result.std_errors["amplitude"]) and math.isinf(result.std_errors["offset"])
    assert math.isinf(result.std_errors["visibility"])


def test_phases_zero_and_pi_leave_every_fringe_parameter_unidentifiable():
    # sin 2 phi vanishes at both phases up to rounding, so the fringe phase
    # is as unknown as the offset and the cos 2 phi0 amplitude.
    phi = np.array([0.0, math.pi] * 4)
    values = [1.0, 1.0, 1.1, 1.1, 0.9, 0.9, 1.0, 1.0]
    for errors in (0.01, None):
        result = fit.fit_fringe(phi, values, errors)
        assert set(result.unidentifiable) == {"amplitude", "phi0", "offset"}
        assert all(math.isinf(e) for e in result.std_errors.values()), result.std_errors


def test_fringe_fit_pulls_have_unit_spread():
    phi = np.linspace(0.0, 2.0 * math.pi, 61)
    truth = {"amplitude": 0.25 * 0.971, "phi0": 0.4, "offset": 0.25, "visibility": 0.971}
    clean = truth["offset"] + truth["amplitude"] * np.cos(2.0 * phi - 2.0 * truth["phi0"])
    pulls = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        noisy = clean + rng.normal(0.0, 0.001, phi.size)
        result = fit.fit_fringe(phi, noisy, errors=np.full(phi.size, 0.001))
        pulls.append([(result.parameters[k] - v) / result.std_errors[k] for k, v in truth.items()])
    spread = np.std(pulls, axis=0)
    assert np.all((spread >= 0.85) & (spread <= 1.15)), spread


def test_fringe_fit_needs_a_full_period():
    phi = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ValueError, match="period"):
        fit.fit_fringe(phi, np.cos(2.0 * phi))


_FRINGE_PHI = np.linspace(0.0, 2.0 * math.pi, 9)
_FRINGE_DATA = 0.25 * (1.0 + np.cos(2.0 * _FRINGE_PHI))


def _spoiled(array: np.ndarray, value: float) -> np.ndarray:
    out = np.array(array, dtype=float)
    out[3] = value
    return out


@pytest.mark.parametrize(
    "phi, values, errors, match",
    [
        (_FRINGE_PHI, _FRINGE_DATA, np.full(9, -0.01), "errors must be finite and positive"),
        (_FRINGE_PHI, _FRINGE_DATA, np.zeros(9), "errors must be finite and positive"),
        (_FRINGE_PHI, _FRINGE_DATA, _spoiled(np.full(9, 0.01), math.nan), "errors must be finite"),
        (_FRINGE_PHI, _spoiled(_FRINGE_DATA, math.nan), 0.01, "phi and values must be finite"),
        (_spoiled(_FRINGE_PHI, math.inf), _FRINGE_DATA, None, "phi and values must be finite"),
        (_FRINGE_PHI, _FRINGE_DATA[:8], None, "matching shapes"),
        (_FRINGE_PHI[[0, 8]], _FRINGE_DATA[[0, 8]], 0.01, "at least 8"),
        (_FRINGE_PHI, _FRINGE_DATA, np.full(3, 0.01), "broadcast"),
        (_FRINGE_PHI, _FRINGE_DATA, _spoiled(np.full(9, 0.01), math.inf), "errors must be finite"),
    ],
)
def test_fringe_fit_rejects_data_it_cannot_weigh(phi, values, errors, match):
    with pytest.raises(ValueError, match=match):
        fit.fit_fringe(phi, values, errors)


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


def _null_case(seed, phi):
    # Shot-sampled statistics of the linear circuit, phi_nl = ell_nl = 0.
    rng = np.random.default_rng(seed)
    counts = np.array([rng.multinomial(100_000, row) for row in circuit.model_triple(phi, 0.0, 0.0)])
    data = counts / 100_000.0
    sigma = np.sqrt(np.clip(data * (1.0 - data), 1e-12, None) / 100_000.0)
    return data, np.clip(sigma, 1e-9, None)


def test_nl_fit_null_case_stays_small():
    phi = np.linspace(0.15, 2.95, 9)
    recovered = [fit.fit_nl(phi, *_null_case(seed, phi)).parameters["phi_nl"] for seed in range(12)]
    assert recovered[0] < 0.02
    assert float(np.median(recovered)) < 0.015


def _assert_reaches_reference_minimum(phi, data, errors, fit_distinguishability):
    result = fit.fit_nl(phi, data, errors, fit_distinguishability=fit_distinguishability)
    precision = np.linalg.pinv(fit._row_covariance(phi, errors), hermitian=True)
    _, chi2 = reference_nl_fit(phi, data, precision, fit_distinguishability)
    assert result.residual <= chi2 + 1e-9 * (1.0 + chi2)
    return result


@pytest.mark.parametrize("seed", range(12))
def test_nl_fit_reaches_the_reference_minimum_on_null_data(seed):
    phi = np.linspace(0.15, 2.95, 9)
    result = _assert_reaches_reference_minimum(phi, *_null_case(seed, phi), False)
    if seed in (1, 8):
        # Optima inside the physical region, off the phi_nl = ell_nl = 0 corner.
        assert result.parameters["ell_nl"] > 0.0


@pytest.mark.parametrize("k, truth", enumerate([(0.9, 0.2, 0.2), (1.2, 0.35, 0.12),
                                                (0.7, 0.15, 0.28)]))
def test_distinguishability_fit_reaches_the_reference_minimum(k, truth):
    phi = np.linspace(0.0, 2.0 * math.pi, 13)
    rng = np.random.default_rng(70 + k)
    counts = np.array([rng.multinomial(100_000, row) for row in circuit.model_triple(phi, *truth)])
    data = counts / 100_000.0
    _assert_reaches_reference_minimum(phi, data, np.sqrt(data * (1.0 - data) / 100_000.0), True)


def test_distinguishability_fit_of_flat_rows_reaches_the_reference_minimum():
    # Fully distinguishable photons leave every row at (1/4, 1/2, 1/4): the
    # minimum sits at the bound s = cos^2 theta_perp = 0, where the slice
    # Hessian diag(s, sqrt(s)) F_qr diag(s, sqrt(s)) turns singular.  There
    # the rows carry no information on phi_nl or ell_nl, and theta_perp is
    # pinned where acos(sqrt(s)) is infinitely steep.
    phi = np.linspace(0.0, 2.0 * math.pi, 13)
    flat = circuit.model_triple(phi, 0.9, 0.2, 0.5 * math.pi)
    result = _assert_reaches_reference_minimum(phi, flat, np.full(flat.shape, 0.003), True)
    assert 0.0 <= result.residual < 1e-20
    assert all(math.isfinite(v) for v in result.parameters.values())
    assert abs(result.parameters["theta_perp"] - 0.5 * math.pi) < 1e-7
    assert result.parameters["distinguishable_fraction"] > 1.0 - 1e-12
    assert result.evaluations == 53
    assert {"phi_nl", "ell_nl"} <= set(result.unidentifiable)
    assert all(result.std_errors[name] == math.inf for name in ("phi_nl", "ell_nl", "theta_perp"))


def test_noiseless_indistinguishable_data_pins_theta_perp_at_zero():
    # The slope of the slice minimum at s = 1 is rounding noise here.  Unless
    # a slope within its rounding counts as zero, the bisection stops up to a
    # dozen ulps below s = 1, at theta_perp ~ 5e-8, in about a third of these.
    rng = np.random.default_rng(5)
    for k in range(40):
        phi = np.linspace(0.0, 2.0 * math.pi, int(rng.integers(9, 40)))
        triples = circuit.model_triple(phi, rng.uniform(0.3, 2.8), rng.uniform(0.05, 0.8))
        errors = None if k % 2 else np.full(triples.shape, 0.01)
        result = fit.fit_nl(phi, triples, errors, fit_distinguishability=True)
        assert result.parameters["theta_perp"] == 0.0 and result.evaluations == 1


def test_a_row_inside_the_triangle_slack_carries_no_negative_weight():
    # Row 4's covariance has eigenvalues (-2e-13, 0, 6e-4).  Weighting the
    # negative one would give a weight of -5e12 and a negative chi-square.
    phi = np.linspace(0.15, 2.95, 9)
    triples = circuit.model_triple(phi, 0.9, 0.2)
    errors = np.tile([0.01, 0.01, 0.015], (9, 1))
    errors[4] = (0.01, 0.01, 0.02 * (1.0 + 5e-10))
    truth = {"phi_nl": 0.9, "ell_nl": 0.2, "theta_perp": 0.0}
    for free in (False, True):
        result = fit.fit_nl(phi, triples, errors, fit_distinguishability=free)
        assert result.residual >= 0.0
        for name, value in result.parameters.items():
            if name in truth:
                assert abs(value - truth[name]) < 1e-6, (free, name, value)


def test_reversing_the_phase_order_moves_no_parameter():
    # Summation order moves the data's Fisher matrix by rounding only, and
    # the bisection on the slope in s must not amplify it.
    rng = np.random.default_rng(28)
    fits = 0
    while fits < 100:
        phi = np.linspace(0.0, 2.0 * math.pi, int(rng.integers(9, 40)))
        phi_nl, ell_nl, theta = rng.uniform(0.5, 2.6), rng.uniform(0.05, 0.7), rng.uniform(0.0, 1.2)
        # Indistinguishable photons put the optimum at or next to s = 1.
        theta *= rng.random() < 0.6
        shots, seed = int(10.0 ** rng.uniform(3.0, 6.0)), int(rng.integers(1 << 30))
        try:
            triples, errors = circuit.sample_statistics(phi, phi_nl, ell_nl, shots, seed, theta)
        except circuit.NormalizationError:
            continue
        fits += 1
        forward = fit.fit_nl(phi, triples, errors, fit_distinguishability=True).parameters
        backward = fit.fit_nl(phi[::-1], triples[::-1], errors[::-1],
                              fit_distinguishability=True).parameters
        assert abs(forward["theta_perp"] - backward["theta_perp"]) < 1e-12
        for name in ("phi_nl", "ell_nl"):
            assert abs(forward[name] - backward[name]) <= 1e-12 * abs(forward[name])


def test_nl_fit_errors_scale_with_the_data_errors():
    # The chi-square's curvature scales as 1 / e^2, so every error scales
    # as e and no flat direction comes or goes.
    phi = np.linspace(0.15, 2.95, 11)
    triples, errors = circuit.sample_statistics(phi, 0.9, 0.3, 10_000, 3, 0.2)
    for free in (False, True):
        unit = fit.fit_nl(phi, triples, errors, fit_distinguishability=free)
        for factor in (1e-3, 1e3):
            scaled = fit.fit_nl(phi, triples, errors * factor, fit_distinguishability=free)
            assert scaled.unidentifiable == unit.unidentifiable
            assert scaled.std_errors.keys() == unit.std_errors.keys()
            for name, error in unit.std_errors.items():
                assert math.isclose(scaled.std_errors[name], factor * error, rel_tol=1e-12), name


def test_lost_pairs_leave_the_nonlinear_phase_unidentifiable():
    phi = np.linspace(0.15, 2.95, 9)
    result = fit.fit_nl(phi, circuit.model_triple(phi, 0.7, 1.0))
    assert "phi_nl" in result.unidentifiable
    assert math.isinf(result.std_errors["phi_nl"])


def test_parameters_pinned_at_a_steep_bound_report_infinite_errors():
    phi = np.linspace(0.15, 2.95, 9)
    result = fit.fit_nl(phi, *_null_case(1, phi))
    assert result.parameters["phi_nl"] == 0.0 and math.isinf(result.std_errors["phi_nl"])
    assert math.isfinite(result.std_errors["ell_nl"]) and result.unidentifiable == ()

    phi = np.linspace(0.0, 2.0 * math.pi, 13)
    result = fit.fit_nl(phi, circuit.model_triple(phi, 0.7, 0.3), fit_distinguishability=True)
    assert result.parameters["theta_perp"] == 0.0 and math.isinf(result.std_errors["theta_perp"])
    assert "theta_perp" not in result.unidentifiable


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


@pytest.mark.parametrize("scale", [0.0, 1e-200, 1e200])
def test_errors_that_leave_no_weight_raise_value_errors_naming_them(scale, tmp_path, capsys):
    # Zero errors weigh nothing, and the squares of 1e-200 and 1e200 leave a float.
    phi = np.linspace(0.15, 2.95, 9)
    triples = circuit.model_triple(phi, 0.9, 0.2)
    errors = np.full(triples.shape, scale)
    for free in (False, True):
        with pytest.raises(ValueError, match="^errors "):
            fit.fit_nl(phi, triples, errors, fit_distinguishability=free)
    if scale > 0.0:
        with pytest.raises(ValueError, match="^errors "):
            fit.fit_fringe(2.0 * phi, triples[:, 0], scale)
    # The CLI reports them as a bad --data file.
    path = tmp_path / "weightless.csv"
    np.savetxt(path, np.column_stack([phi, triples, errors]), delimiter=",", comments="",
               header="phi,p20,p11,p02,sigma_p20,sigma_p11,sigma_p02")
    assert cli.main(["fit", "--data", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: --data: errors ")


def test_nl_fit_rejects_rows_that_do_not_sum_to_one(tmp_path, capsys):
    phi = np.linspace(0.15, 2.95, 9)
    triples = circuit.model_triple(phi, 0.9, 0.2)
    # Rows written to six decimals are off by up to 1.5e-6 and still fit.
    fit.fit_nl(phi, np.round(triples, 6))
    fit.fit_nl(phi, triples + 0.5e-6)
    triples[4] *= 15.0
    with pytest.raises(ValueError, match=rf"^triples at phi={phi[4]:.6g} sum to 15"):
        fit.fit_nl(phi, triples)
    # The CLI reports the row as a bad --data file.
    path = tmp_path / "rows.csv"
    np.savetxt(path, np.column_stack([phi, triples]), delimiter=",", header="phi,p20,p11,p02",
               comments="")
    assert cli.main(["fit", "--data", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: --data: triples at phi={phi[4]:.6g}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "name, call",
    [
        ("phi", lambda: scatter.circuit_jti(math.inf, scatter.PulseSpec(0.0, 1.0))),
        ("intensity", lambda: scatter.factorization_residual(np.full((4, 4), math.nan))),
        ("intensity", lambda: scatter.factorization_residual(np.ones(4))),
        ("omega", lambda: fit.rt_spectrum(math.nan, fit.QDCharacterization(beta=0.5))),
        ("omega", lambda: fit.rt_spectrum(math.nan, fit.QDCharacterization(0.5, sigma_sd=0.3))),
    ],
    ids=["circuit_jti-inf", "residual-nan", "residual-1d", "rt-nan", "rt-nan-wandering"],
)
def test_non_finite_or_misshapen_inputs_raise_value_errors_naming_them(name, call):
    with pytest.raises(ValueError, match=f"^{name} must"):
        call()


def test_fits_demand_enough_points():
    with pytest.raises(ValueError, match="8"):
        fit.fit_fringe(np.linspace(0.0, 2.0 * math.pi, 5), np.ones(5))
    with pytest.raises(ValueError, match="8"):
        fit.fit_nl(np.linspace(0.2, 2.8, 5), np.full((5, 3), 1.0 / 3.0))


def test_a_fit_pinned_at_phi_nl_pi_reports_an_infinite_error():
    phi = np.linspace(0.15, 2.95, 9)
    triples, errors = circuit.sample_statistics(phi, math.pi, 0.3, 100_000, 4)
    result = fit.fit_nl(phi, triples, errors)
    assert result.parameters["phi_nl"] == math.pi and math.isinf(result.std_errors["phi_nl"])
    assert math.isfinite(result.std_errors["ell_nl"]) and result.unidentifiable == ()


# ---------------------------------------------------------------------------
# The fits' standard-library solves against numpy and against ``circuit``


def _symmetric(rng, n, rank):
    """A random symmetric PSD n x n matrix of the given rank; low ranks are exact integers."""
    if rank == n:
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return (q * 10.0 ** rng.uniform(0.0, 3.0, n)) @ q.T
    factor = rng.integers(-3, 4, size=(n, rank)).astype(float)
    return factor @ factor.T * 2.0 ** int(rng.integers(-20, 20))


@pytest.mark.parametrize("n", [2, 3])
def test_eigen_solve_matches_numpy(n):
    rng = np.random.default_rng(n)
    for rank in range(1, n + 1):
        for _ in range(40):
            matrix = _symmetric(rng, n, rank)
            values, vectors = fit._eigh(matrix.tolist())
            scale = np.abs(matrix).max()
            assert np.all(np.diff(values) >= 0.0)
            assert np.max(np.abs(np.array(values) - np.linalg.eigvalsh(matrix))) <= 1e-14 * scale
            v = np.array(vectors)
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-14
            assert np.max(np.abs(v @ np.diag(values) @ v.T - matrix)) <= 1e-14 * scale


@pytest.mark.parametrize("n", [2, 3])
def test_pseudo_inverse_and_least_squares_match_numpy(n):
    rng = np.random.default_rng(10 + n)
    for rank in range(1, n + 1):
        for _ in range(40):
            matrix = _symmetric(rng, n, rank)
            expected = np.linalg.pinv(matrix, hermitian=True)
            mine = np.array(fit._pinv(matrix.tolist(), 1e-15))
            assert np.max(np.abs(mine - expected)) <= 1e-10 * np.abs(expected).max()
            rhs = matrix @ rng.normal(size=n)
            expected = np.linalg.lstsq(matrix, rhs, rcond=None)[0]
            mine = np.array(fit._apply(fit._pinv(matrix.tolist(), 3.0 * fit._EPS), rhs.tolist()))
            assert np.max(np.abs(mine - expected)) <= 1e-10 * np.abs(expected).max()
    assert fit._pinv([[0.0, 0.0], [0.0, 0.0]], 1e-15) == [[0.0, 0.0], [0.0, 0.0]]


def test_design_rows_and_weights_give_the_pair_tensor_triples():
    rng = np.random.default_rng(4)
    for _ in range(200):
        phi, phi_nl = rng.uniform(-10.0, 10.0, 2)
        ell_nl, theta_perp = rng.uniform(0.0, 1.0), rng.uniform(-3.0, 3.0)
        weights = _triple._weights(math.cos(phi_nl), 1.0 - ell_nl, math.cos(theta_perp))
        mine = [o + sum(d * w for d, w in zip(row, weights))
                for o, row in zip(_triple._OFFSET, _triple._design(phi))]
        expected = pair_tensor_triples([phi], phi_nl, ell_nl, theta_perp)[0]
        assert np.max(np.abs(np.array(mine) - expected)) <= 1e-12


def test_jacobian_is_the_complex_step_of_the_weights():
    rng = np.random.default_rng(5)
    for _ in range(200):
        point = np.array([rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)])
        # Plain arithmetic carries a complex step through ``_weights``.
        steps = [_triple._weights(*(point + 1e-30j * e).tolist()) for e in np.eye(3)]
        expected = np.array(steps).imag.T / 1e-30
        assert np.max(np.abs(np.array(_triple._jacobian(*point.tolist())) - expected)) <= 1e-15


def test_row_precision_is_the_pseudo_inverse_of_the_row_covariance():
    phi = np.linspace(0.2, 2.8, 30)
    probs = circuit.model_triple(phi, 0.9, 0.2)
    errors = np.sqrt(probs * (1.0 - probs) / 1000.0)
    # A class without error, and a row without any, carry no weight.
    errors[0] = (0.0, 0.01, 0.01)
    errors[1] = 0.0
    for cov in fit._row_covariance(phi, errors):
        mine = sum(w * np.outer(u, u) for u, w in fit._row_precision(cov)) + np.zeros((3, 3))
        expected = np.linalg.pinv(np.array(cov), hermitian=True)
        assert np.max(np.abs(mine - expected)) <= 1e-12 * max(1.0, np.abs(expected).max())
