"""Spectral scattering numerics checked against independent oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import wofz

from nltimebin import scatter

from _oracles import (
    bound_integral_quadrature,
    bound_time_term_qawf,
    diagonal_pair_amplitude_quad,
    difference_kernel_quad,
    full_statistics_per_phase,
    lorentzian_convolution_quad,
    pair_norm_faddeeva,
    pair_profile_quad,
    pair_wavefunction_quadrature,
    windowed_time_amplitudes,
)

# Effective parameters frozen after verifying stability to 2e-12 under
# node doubling and agreement with the Faddeeva-based norm oracle.
REFERENCE = {
    (0.0, 1.0): {
        "eta": 0.475391799,
        "p_single": 0.344320458,
        "ell_nl": 0.275712247,
        "r_int": 0.522424873,
        "phi_nl": 1.021104038,
    },
    (0.0, 0.5): {
        "eta": 0.399766954,
        "p_single": 0.157261541,
        "ell_nl": 0.606616956,
        "r_int": 0.087453906,
        "phi_nl": 1.483230558,
    },
    (0.0, 0.26): {"eta": 0.338869528, "ell_nl": 0.831437181, "phi_nl": 1.713546390},
    (1.0, 1.0): {"eta": 0.607707830, "theta_int": -0.104359843, "phi_nl": 0.586182101},
    (3.0, 1.0): {"ell_nl": 0.030266241, "phi_nl": 0.111149621},
    (5.0, 1.0): {"phi_nl": 0.034841220},
    (20.0, 1.0): {"eta": 0.997496373, "phi_nl": 0.001894400},
    (0.0, 2.0): {"phi_nl": 0.575199285},
    (0.0, 3.0): {"phi_nl": 0.394703429},
    (2.0, 0.5): {"phi_nl": 0.143595258},
    (1.0, 2.0): {"phi_nl": 0.495290274},
}


@pytest.fixture(scope="module")
def swept_params():
    out = {}
    for delta, sigma in REFERENCE:
        out[(delta, sigma)] = scatter.nonlinear_params(scatter.PulseSpec(delta, sigma))
    return out


def test_transmission_coefficient_closed_form():
    assert abs(scatter.transmission_coefficient(0.0)) < 1e-15
    assert abs(scatter.transmission_coefficient(1.0) - (1.0 - 1j) / 2.0) < 1e-15
    assert abs(abs(scatter.transmission_coefficient(1e6)) - 1.0) < 1e-5
    grid = np.array([-2.0, 0.5, 3.0])
    assert np.allclose(scatter.transmission_coefficient(grid), grid / (grid + 1j))


def test_gaussian_spectrum_shape_and_norm():
    pulse = scatter.PulseSpec(delta=1.5, sigma=0.7)
    peak = scatter.gaussian_spectrum(1.5, pulse)
    assert abs(peak - (2.0 * math.pi * 0.7**2) ** -0.25) < 1e-12
    ratio = scatter.gaussian_spectrum(1.5 + 0.7, pulse) / peak
    assert abs(ratio - math.exp(-0.25)) < 1e-12
    omega = np.linspace(1.5 - 10 * 0.7, 1.5 + 10 * 0.7, 4001)
    norm = np.trapezoid(np.abs(scatter.gaussian_spectrum(omega, pulse)) ** 2, omega)
    assert abs(norm - 1.0) < 1e-8


def test_pair_amplitude_symmetric_under_exchange():
    pulse = scatter.PulseSpec(0.0, 1.0)
    a = scatter.two_photon_output(0.4, -1.1, pulse)
    b = scatter.two_photon_output(-1.1, 0.4, pulse)
    assert a == b


def test_far_detuned_pair_amplitude_is_the_product():
    pulse = scatter.PulseSpec(1000.0, 1.0)
    x = np.array([999.0, 1000.0, 1001.0])
    out = scatter.two_photon_output(x, 1000.0, pulse)
    product = (
        scatter.transmission_coefficient(x)
        * scatter.transmission_coefficient(1000.0)
        * scatter.gaussian_spectrum(x, pulse)
        * scatter.gaussian_spectrum(1000.0, pulse)
    )
    assert np.max(np.abs(out - product) / np.abs(product)) < 1e-4


def test_pair_amplitude_matches_faddeeva_closed_form():
    pulse = scatter.PulseSpec(0.0, 1.0)
    x = np.array([0.3, -0.7, 1.2])
    y = np.array([0.1, 0.4, -2.0])
    mine = scatter.two_photon_output(x, y, pulse)
    ref = pair_wavefunction_quadrature(x, y, 0.0, 1.0, nodes=1024)
    assert np.max(np.abs(mine - ref) / np.abs(ref)) < 1e-10


@pytest.mark.parametrize("delta, sigma", [(0.0, 1.0), (1.0, 0.5), (3.0, 2.0)])
def test_bound_channel_integral_against_faddeeva(delta, sigma):
    pulse = scatter.PulseSpec(delta, sigma)
    s = np.linspace(2 * delta - 6 * sigma, 2 * delta + 6 * sigma, 9)
    mine = scatter.bound_channel_integral(s, pulse)
    ref = bound_integral_quadrature(s, delta, sigma, nodes=512)
    assert np.max(np.abs(mine - ref)) / np.max(np.abs(ref)) < 1e-8


@settings(deadline=None, max_examples=300)
@given(
    log_x=st.one_of(st.none(), st.floats(-110.0, 8.0)),
    negative=st.booleans(),
    log_y=st.floats(-4.0, 4.0),
)
def test_faddeeva_matches_scipy(log_x, negative, log_y):
    # |Re z| log-uniform from 1e-110 (the difference kernel's 1e-100 stand-in
    # for a = 0, scaled by 1 / (sqrt(2) sigma)) to 1e8, or exactly 0.
    x = 0.0 if log_x is None else (-1.0 if negative else 1.0) * 10.0**log_x
    z = complex(x, 10.0**log_y)
    ref = wofz(z)
    for mine in (scatter.faddeeva(z), scatter.faddeeva(np.array([z]))[0]):
        assert abs(mine - ref) <= 1e-13 * abs(ref)
        assert abs(mine.real - ref.real) <= 1e-10 * abs(ref.real)
        if abs(x) <= 1e-3:
            # The difference kernel divides Im w by Re z near the line.
            assert abs(mine.imag - ref.imag) <= 1e-12 * abs(ref.imag)


def test_faddeeva_keeps_the_shape_of_its_input():
    for z in (0.3 + 2j, np.complex128(0.3 + 2j), np.array(0.3 + 2j)):
        out = scatter.faddeeva(z)
        assert isinstance(out, np.complex128) and out.ndim == 0
    grid = np.array([[0.3 + 2j, -1.0 + 0.5j, 1e-3j]])
    out = scatter.faddeeva(grid)
    assert out.shape == grid.shape
    assert np.max(np.abs(out - wofz(grid)) / np.abs(wofz(grid))) <= 1e-13


@pytest.mark.parametrize("z", [0.5, 0.5 - 1e-3j, complex(math.inf, 1.0), complex(math.nan, 1.0)])
def test_faddeeva_rejects_arguments_off_the_upper_half_plane(z):
    with pytest.raises(ValueError, match="positive imaginary part"):
        scatter.faddeeva(np.array([1j, z]))


def test_reference_parameters(swept_params):
    for key, expected in REFERENCE.items():
        params = swept_params[key]
        for field, value in expected.items():
            assert abs(getattr(params, field) - value) < 1e-6, (key, field)
    # The overlap phase lands on the branch cut for the narrowest
    # resonant pulse; only its magnitude is pinned.
    assert abs(abs(swept_params[(0.0, 0.26)].theta_int) - math.pi) < 1e-6


@pytest.mark.parametrize("sigma", [0.0223, 0.0249])
def test_resonant_overlap_phase_takes_the_upper_branch(sigma):
    # At zero detuning the overlap is real and negative; its imaginary
    # part is rounding noise whose sign used to pick -pi.
    assert scatter.nonlinear_params(scatter.PulseSpec(0.0, sigma)).theta_int == math.pi


def test_pair_norm_against_independent_quadrature(swept_params):
    for delta, sigma in [(0.0, 1.0), (1.0, 1.0)]:
        eta2 = swept_params[(delta, sigma)].eta ** 2
        ref = pair_norm_faddeeva(delta, sigma)
        assert abs(eta2 - ref) / ref < 1e-9


@pytest.mark.parametrize("delta, sigma", [(0.0, 1.0), (1.0, 0.5), (3.0, 2.0)])
def test_full_statistics_matches_per_phase_oracle(delta, sigma):
    pulse = scatter.PulseSpec(delta, sigma)
    phis = np.linspace(0.0, 2.0 * math.pi, 101)
    mine = scatter.full_statistics(phis, pulse)
    ref = full_statistics_per_phase(phis, delta, sigma)
    eta2 = scatter.nonlinear_params(pulse).eta ** 2
    assert np.max(np.abs(mine - ref)) < 1e-9 * eta2


def test_effective_phase_consistency(swept_params):
    for params in swept_params.values():
        folded = params.r_int * math.cos(params.theta_int)
        assert abs(math.cos(params.phi_nl) - folded) < 1e-9


def test_probability_bounds(swept_params):
    for params in swept_params.values():
        assert params.p_single <= 1.0 + 1e-12
        assert params.eta <= 1.0 + 1e-12
        assert 0.0 <= params.ell_nl <= 1.0


def test_parameters_even_in_detuning():
    left = scatter.nonlinear_params(scatter.PulseSpec(-1.0, 1.0))
    right = scatter.nonlinear_params(scatter.PulseSpec(1.0, 1.0))
    assert abs(left.eta - right.eta) < 1e-9
    assert abs(left.ell_nl - right.ell_nl) < 1e-9
    assert abs(left.phi_nl - right.phi_nl) < 1e-9
    assert abs(left.theta_int + right.theta_int) < 1e-9


def test_far_detuned_parameters_vanish():
    params = scatter.nonlinear_params(scatter.PulseSpec(1000.0, 1.0))
    assert params.phi_nl < 1e-3
    assert params.ell_nl < 1e-3
    assert 1.0 - params.eta < 1e-3


def test_node_doubling_is_converged():
    base = scatter.nonlinear_params(
        scatter.PulseSpec(0.0, 1.0), scatter.QuadratureConfig(nodes=512)
    )
    fine = scatter.nonlinear_params(
        scatter.PulseSpec(0.0, 1.0), scatter.QuadratureConfig(nodes=1024)
    )
    assert abs(base.eta - fine.eta) < 1e-5
    assert abs(base.ell_nl - fine.ell_nl) < 1e-5
    assert abs(base.phi_nl - fine.phi_nl) < 1e-5


def test_unresolved_quadrature_is_reported():
    with pytest.raises(scatter.QuadratureError, match=r"delta=0\.0, sigma=10000\.0.*1e-06 budget"):
        scatter.nonlinear_params(scatter.PulseSpec(0.0, 1e4))


def test_full_statistics_reports_unresolved_quadrature():
    with pytest.raises(scatter.QuadratureError):
        scatter.full_statistics([0.0, 1.0], scatter.PulseSpec(0.0, 1e4))


@settings(deadline=None, max_examples=60)
@given(
    log_sigma=st.floats(math.log(0.02), math.log(1000.0)),
    delta=st.floats(-20.0, 20.0),
    position=st.floats(-1.0, 1.0),
)
def test_difference_integrals_match_adaptive_quadrature(log_sigma, delta, position):
    # Total frequencies across the default window of the pulse.
    sigma = math.exp(log_sigma)
    s = 2.0 * delta + 16.0 * sigma * position
    kernel = float(scatter._difference_kernel(0.5 * s, sigma)[0])
    scale = difference_kernel_quad(0.5 * s, sigma, magnitude=True)
    assert abs(kernel - difference_kernel_quad(0.5 * s, sigma)) <= 1e-9 * scale
    convolution = lorentzian_convolution_quad(s)
    assert abs(2.0 * math.pi / (s * s + 4.0) - convolution) <= 1e-12 * convolution


@pytest.mark.parametrize("sigma", [0.02, 1.0, 1000.0])
def test_difference_kernel_is_finite_and_continuous_at_the_line(sigma):
    at_line = float(scatter._difference_kernel(0.0, sigma)[0])
    assert math.isfinite(at_line)
    for near in (1e-12, -1e-12):
        near_line = float(scatter._difference_kernel(near, sigma)[0])
        assert abs(near_line - at_line) <= 1e-12 * abs(at_line)
    assert abs(at_line - difference_kernel_quad(0.0, sigma)) <= 1e-9 * abs(at_line)


@pytest.mark.parametrize("sigma", [10.0, 50.0, 400.0])
def test_broadband_pulse_matches_adaptive_quadrature(sigma):
    params = scatter.nonlinear_params(scatter.PulseSpec(0.0, sigma))
    p_single, eta2, overlap = pair_profile_quad(0.0, sigma)
    assert abs(params.p_single - p_single) < 1e-12
    assert abs(params.eta**2 - eta2) / eta2 < 1e-9
    mine = params.r_int * params.eta * params.p_single * complex(
        math.cos(params.theta_int), math.sin(params.theta_int)
    )
    assert abs(mine - overlap) < 1e-9 * eta2


@pytest.mark.parametrize("delta", [0.0, 5.0, 20.0])
@pytest.mark.parametrize("sigma", [0.02, 1000.0])
def test_parameters_resolve_across_the_stated_width_domain(delta, sigma):
    params = scatter.nonlinear_params(scatter.PulseSpec(delta, sigma))
    assert 0.0 < params.p_single <= 1.0 and 0.0 < params.eta <= 1.0


def test_default_quadrature_builds_no_doubled_legendre_rule(monkeypatch):
    # Profiles and time maps use two panels of nodes // 2 (256, and 512
    # when doubled), so no 1024-node rule is ever built.
    orders = []
    build = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: orders.append(n) or build(n))
    scatter._leggauss.cache_clear()
    scatter._profile.cache_clear()
    pulse = scatter.PulseSpec(0.3, 1.0)
    scatter.nonlinear_params(pulse)
    scatter.full_statistics([0.0, 1.0], pulse)
    scatter.jti(pulse, times=np.linspace(-8.0, 8.0, 16))
    assert sorted(orders) == [256, 512]


def test_profile_evaluates_the_faddeeva_function_once_on_its_grid(monkeypatch):
    # One scalar call for the single-photon Voigt norm and one on the
    # total-frequency grid, shared by the bound channel and the kernel.
    sizes = []
    evaluate = scatter.faddeeva
    monkeypatch.setattr(scatter, "faddeeva", lambda z: sizes.append(np.size(z)) or evaluate(z))
    scatter._Profile(scatter.PulseSpec(0.3, 1.0), scatter.QuadratureConfig())
    assert sorted(sizes) == [1, scatter.QuadratureConfig().nodes]


def test_parameter_sweep_matches_single_calls(swept_params):
    pulses = [scatter.PulseSpec(0.0, 1.0), scatter.PulseSpec(1.0, 1.0)]
    swept = scatter.parameter_sweep(pulses)
    assert swept[0] == swept_params[(0.0, 1.0)]
    assert swept[1] == swept_params[(1.0, 1.0)]


def test_invalid_pulse_and_quadrature_rejected():
    with pytest.raises(ValueError):
        scatter.PulseSpec(0.0, -1.0).validate()
    with pytest.raises(ValueError):
        scatter.QuadratureConfig(half_width=2.0).validate()
    with pytest.raises(ValueError):
        scatter.QuadratureConfig(nodes=32).validate()


def test_emitter_frame_conversions():
    frame = scatter.EmitterFrame()
    tau_s = 155.5e-12
    assert abs(frame.from_ghz(1.0) - 2.0 * math.pi * 1e9 * tau_s) < 1e-12
    expected = 2.0 * math.pi * scatter.SPEED_OF_LIGHT_CM * tau_s
    assert abs(frame.from_wavenumber(1.0) - expected) < 1e-9
    fwhm = math.sqrt(2.0 * math.log(2.0)) * 155.5 / 100.0
    assert abs(frame.sigma_from_fwhm_ps(100.0) - fwhm) < 1e-12
    with pytest.raises(ValueError):
        scatter.EmitterFrame(lifetime_ps=0.0).validate()


@pytest.fixture(scope="module")
def resonant_jti():
    times = np.linspace(-8.0, 8.0, 96)
    return scatter.jti(scatter.PulseSpec(0.0, 1.0), times=times)


def test_jti_is_exactly_symmetric(resonant_jti):
    assert np.array_equal(resonant_jti.intensity, resonant_jti.intensity.T)
    # Detuned pulses round the single-photon product f_i f_j differently
    # in the two orders, which only symmetrizing the squared amplitude
    # removes.
    for delta in (0.0, 0.7):
        circuit_map = scatter.circuit_jti(
            0.7, scatter.PulseSpec(delta, 1.0), times=np.linspace(-8.0, 8.0, 96)
        )
        assert np.array_equal(circuit_map.intensity, circuit_map.intensity.T), delta


def test_jti_total_matches_pair_norm(resonant_jti, swept_params):
    eta2 = swept_params[(0.0, 1.0)].eta ** 2
    assert abs(resonant_jti.total - eta2) / eta2 < 5e-3


def test_narrow_pulse_jti_total_matches_pair_norm():
    # The rectangle rule of ``total`` over the diagonal cusp errs as the
    # squared time step, so this pulse takes the CLI's 256-point grid
    # (on 96 points it is 1e-2 off).
    pulse = scatter.PulseSpec(0.0, 0.3)
    eta2 = scatter.nonlinear_params(pulse).eta ** 2
    assert abs(scatter.jti(pulse).total - eta2) / eta2 < 5e-3


def test_far_detuned_jti_factorizes():
    times = np.linspace(-8.0, 8.0, 96)
    result = scatter.jti(scatter.PulseSpec(1000.0, 1.0), times=times)
    assert scatter.factorization_residual(result.intensity) < 1e-4


def test_resonant_jti_diagonal_enhanced(resonant_jti):
    intensity = resonant_jti.intensity
    diagonal = float(np.mean(np.diag(intensity)))
    anti = float(np.mean(np.diag(np.fliplr(intensity))))
    assert diagonal > anti


@pytest.mark.parametrize("sigma", [10.0, 400.0])
def test_unresolved_time_map_is_reported(sigma):
    pulse = scatter.PulseSpec(0.0, sigma)
    with pytest.raises(scatter.QuadratureError, match=rf"sigma={sigma!r}: map drift .*1e-06 budget"):
        scatter.jti(pulse)
    with pytest.raises(scatter.QuadratureError):
        scatter.circuit_jti(0.4, pulse)


@pytest.mark.filterwarnings("ignore:pulse duration")
@pytest.mark.parametrize("delta", [0.0, 1.0, 5.0])
@pytest.mark.parametrize("sigma", [0.02, 5.0])
def test_time_map_resolves_across_the_stated_width_domain(delta, sigma):
    result = scatter.jti(scatter.PulseSpec(delta, sigma))
    assert np.all(np.isfinite(result.intensity)) and result.intensity.max() > 0.0


def _time_terms(delta, sigma, times, quad=scatter.DEFAULT_QUADRATURE):
    # (a, b) = (0, 1) picks f(t1) f(t2) out of a psi + b f f, (1, -1) the bound term.
    pulse = scatter.PulseSpec(delta, sigma)
    return tuple(scatter._time_amplitude(pulse, quad, times, a, b) for a, b in ((0, 1), (1, -1)))


@pytest.mark.parametrize("delta", [0.0, 0.7])
def test_windowed_transform_oracle_product_term_and_bound_term_convergence(delta):
    # The square frequency window of the 2D transform gets the product
    # term right but cuts the bound term's tails in the frequency
    # difference, so its error against the exact form halves as the
    # window doubles.
    times = np.linspace(-8.0, 8.0, 64)
    product, bound = _time_terms(delta, 1.0, times)
    peak = np.max(np.abs(product + bound))
    narrow_product, narrow_bound = windowed_time_amplitudes(times, delta, 1.0, half_width=8.0)
    _, wide_bound = windowed_time_amplitudes(times, delta, 1.0, half_width=16.0)
    assert np.max(np.abs(narrow_product - product)) < 1e-14
    narrow = np.max(np.abs(narrow_bound - bound)) / peak
    wide = np.max(np.abs(wide_bound - bound)) / peak
    assert 0.05 < narrow < 0.2
    assert 0.4 < wide / narrow < 0.6


def test_bound_time_term_matches_difference_integral_by_qawf():
    # Same total-frequency rule on both sides, so only the integral over
    # the frequency difference differs: the closed form against QAWF.
    delta, sigma = 0.7, 1.0
    times = np.array([0.0, 0.3, 1.5, 4.0])
    quad = scatter.QuadratureConfig(nodes=64)
    _, bound = _time_terms(delta, sigma, times, quad)
    s, w_s = scatter._total_frequency_grid(scatter.PulseSpec(delta, sigma), quad)
    for i, j in zip(*np.triu_indices(times.size)):
        expected = bound_time_term_qawf(times[i], times[j], s, w_s, delta, sigma)
        assert abs(bound[i, j] - expected) < 1e-8, (times[i], times[j])


@pytest.mark.parametrize("delta, sigma", [(0.0, 1.0), (0.7, 1.0), (0.0, 0.3)])
def test_equal_time_amplitude_matches_adaptive_quadrature(delta, sigma):
    times = np.linspace(-8.0, 8.0, 64)
    product, bound = _time_terms(delta, sigma, times)
    psi = product + bound
    peak = np.max(np.abs(psi))
    for k in (20, 28, 32, 36, 44):
        expected = diagonal_pair_amplitude_quad(times[k], delta, sigma)
        assert abs(psi[k, k] - expected) < 1e-7 * peak, times[k]


def test_long_pulse_triggers_window_warning():
    with pytest.warns(UserWarning):
        scatter.jti(scatter.PulseSpec(0.0, 0.1), times=np.linspace(-8.0, 8.0, 64))
