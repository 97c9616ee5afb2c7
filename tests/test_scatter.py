"""Spectral scattering numerics checked against independent oracles."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import wofz

from nltimebin import circuit, scatter

from _oracles import (
    bound_integral_quadrature,
    bound_time_term_qawf,
    diagonal_pair_amplitude_quad,
    difference_kernel_quad,
    full_statistics_per_phase,
    legendre_node_decimal,
    lorentzian_convolution_quad,
    pair_norm_faddeeva,
    pair_profile_quad,
    single_photon_norm_quad,
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
    assert abs(scatter._transmission(np.array(0.0))) < 1e-15
    assert abs(scatter._transmission(np.array(1.0)) - (1.0 - 1j) / 2.0) < 1e-15
    assert abs(abs(scatter._transmission(np.array(1e6))) - 1.0) < 1e-5
    grid = np.array([-2.0, 0.5, 3.0])
    assert np.allclose(scatter._transmission(grid), grid / (grid + 1j))


def test_gaussian_spectrum_shape_and_norm():
    pulse = scatter.PulseSpec(delta=1.5, sigma=0.7)
    peak = scatter._gaussian_spectrum(1.5, pulse)
    assert abs(peak - (2.0 * math.pi * 0.7**2) ** -0.25) < 1e-12
    ratio = scatter._gaussian_spectrum(1.5 + 0.7, pulse) / peak
    assert abs(ratio - math.exp(-0.25)) < 1e-12
    omega = np.linspace(1.5 - 10 * 0.7, 1.5 + 10 * 0.7, 4001)
    norm = np.trapezoid(np.abs(scatter._gaussian_spectrum(omega, pulse)) ** 2, omega)
    assert abs(norm - 1.0) < 1e-8


@pytest.mark.parametrize("delta, sigma", [(0.0, 1.0), (1.0, 0.5), (3.0, 2.0)])
def test_bound_channel_integral_against_faddeeva(delta, sigma):
    pulse = scatter.PulseSpec(delta, sigma)
    s = np.linspace(2 * delta - 6 * sigma, 2 * delta + 6 * sigma, 9)
    w = scatter.faddeeva((0.5 * s + 1j) / (math.sqrt(2.0) * sigma))
    mine = scatter._bound_channel(scatter._pair_envelope(s, pulse), w)
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


@pytest.mark.parametrize(
    "sigma, theta", [(0.02, math.pi), (0.3, math.pi), (0.5, 0.0), (1.0, 0.0), (1000.0, 0.0)]
)
def test_resonant_overlap_phase_is_exactly_zero_or_pi(sigma, theta):
    # At zero detuning the overlap is real by symmetry: negative for narrow
    # pulses, positive from between sigma = 0.3 and 0.5 on.  The sign of its
    # real part alone sets the phase, not the rounding noise in its
    # imaginary part.
    assert scatter.nonlinear_params(scatter.PulseSpec(0.0, sigma)).theta_int == theta


def test_pair_norm_against_independent_quadrature(swept_params):
    for delta, sigma in [(0.0, 1.0), (1.0, 1.0)]:
        eta2 = swept_params[(delta, sigma)].eta ** 2
        ref = pair_norm_faddeeva(delta, sigma)
        assert abs(eta2 - ref) / ref < 1e-9


@pytest.mark.parametrize("delta, sigma", [(0.0, 1.0), (1.0, 0.5), (3.0, 2.0)])
def test_model_fringe_matches_the_per_phase_grid_oracle(delta, sigma):
    # The package's fringe is the closed form at the effective parameters;
    # its raw total is eta^2 (1 + t^2) / 2 with t = 1 - ell_nl.
    params = scatter.nonlinear_params(scatter.PulseSpec(delta, sigma))
    phis = np.linspace(0.0, 2.0 * math.pi, 101)
    eta2, t = params.eta**2, 1.0 - params.ell_nl
    mine = circuit.model_triple(phis, params.phi_nl, params.ell_nl) * eta2 * (1.0 + t * t) / 2.0
    ref = full_statistics_per_phase(phis, delta, sigma)
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


def test_unresolved_quadrature_is_reported():
    with pytest.raises(scatter.QuadratureError, match=r"delta=0\.0, sigma=10000\.0.*1e-06 budget"):
        scatter.nonlinear_params(scatter.PulseSpec(0.0, 1e4))


# The check on the single-photon norm allows rounding of 16 * 2**-53 times
# the Voigt term it is subtracted from.
ROUNDING_UNITS = 16.0


@settings(deadline=None, max_examples=200)
@given(
    log_sigma=st.floats(-7.0, -2.0),
    ratio=st.one_of(st.just(0.0), st.floats(0.01, 20.0)),
)
def test_single_photon_norm_resolves_to_a_millionth_or_raises(log_sigma, ratio):
    # Near the line a narrow pulse leaves p_single ~ sigma^2 as 1 minus a
    # Voigt term close to 1; the positive integrand of the oracle keeps
    # every digit.
    sigma = 10.0**log_sigma
    delta = ratio * sigma
    exact = single_photon_norm_quad(delta, sigma)
    rounding = ROUNDING_UNITS * 2.0**-53 * (1.0 - exact)
    try:
        params = scatter._params(scatter.PulseSpec(delta, sigma), 64)
    except scatter.QuadratureError as exc:
        assert "single-photon norm" in str(exc)
        assert rounding > 0.9e-6 * exact
    else:
        assert abs(params.p_single - exact) <= rounding
        assert abs(params.p_single - exact) <= 1e-6 * exact


@pytest.mark.parametrize("sigma", [1e-5, 1e-6, 1e-7, 1e-15, 1e-20, 1e-150])
def test_narrow_resonant_pulses_raise_without_warnings(sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(scatter.QuadratureError, match=rf"sigma={sigma!r}: the single-photon norm"):
            scatter.nonlinear_params(scatter.PulseSpec(0.0, sigma))


def test_folded_overlap_beyond_one_raises_instead_of_clamping(monkeypatch):
    # A kernel of the wrong sign and size breaks Cauchy-Schwarz: at
    # delta = 0, sigma = 1 it folds the overlap to r cos theta = 1.04.
    kernel = scatter._difference_kernel

    def flipped(a, sigma):
        k, w = kernel(a, sigma)
        return -5.0 * k, w

    monkeypatch.setattr(scatter, "_difference_kernel", flipped)
    with pytest.raises(scatter.QuadratureError, match=r"r cos\(theta\) = 1\.04.* outside \[-1, 1\]"):
        scatter.nonlinear_params(scatter.PulseSpec(0.0, 1.0))


def test_corners_of_the_pulse_domain_return_finite_values_or_raise_typed_errors():
    # No overflow or 0/0 warning anywhere in the (delta, sigma) box; only
    # the window warning of long pulses is expected.
    times = np.linspace(-8.0, 8.0, 16)
    outcomes = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "pulse duration")
        for delta in (0.0, 1e17, 1e150, -1e150):
            for sigma in (1e-150, 1e-20, 1.0, 1e150):
                pulse = scatter.PulseSpec(delta, sigma)
                calls = {
                    "params": lambda: dataclasses.astuple(scatter.nonlinear_params(pulse)),
                    "jti": lambda: scatter.jti(pulse, times=times),
                    "circuit_jti": lambda: scatter.circuit_jti(0.4, pulse, times=times),
                }
                for name, call in calls.items():
                    try:
                        values = call()
                    except scatter.QuadratureError as exc:
                        outcomes[delta, sigma, name] = str(exc)
                    else:
                        assert np.all(np.isfinite(values)), (delta, sigma, name)
    # From delta ~ 1e17 at sigma = 1 the window is below one ulp of 2 delta.
    assert "the map vanishes" in outcomes[1e17, 1.0, "jti"]
    assert "the map vanishes" in outcomes[-1e150, 1.0, "circuit_jti"]
    assert "single-photon norm" in outcomes[0.0, 1e-20, "params"]


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
    build = scatter._leggauss.__wrapped__
    spy = lru_cache(maxsize=32)(lambda n: orders.append(n) or build(n))
    monkeypatch.setattr(scatter, "_leggauss", spy)
    pulse = scatter.PulseSpec(0.3, 1.0)
    scatter.nonlinear_params(pulse)
    scatter.jti(pulse, times=np.linspace(-8.0, 8.0, 16))
    assert sorted(orders) == [256, 512]


@pytest.mark.parametrize("n", [32, 33, 65, 256, 512, 1024])
def test_legendre_rule_matches_numpy(n):
    nodes, weights = scatter._leggauss(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    assert np.abs(nodes - ref_nodes).max() <= 4e-16
    relative = np.abs(weights / ref_weights - 1.0)
    # numpy's endpoint weights drift like n^2 eps: at n = 1024 its first
    # weight is off by 1.2e-9 from a 40-digit reference, which the next
    # test checks this rule against.
    assert relative.max() <= (2e-9 if n == 1024 else 1e-9)
    assert relative[np.abs(ref_nodes) <= 0.9].max() <= 1e-12
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    powers = np.arange(0, 2 * n - 1, 2)
    moments = (weights * nodes ** powers[:, None]).sum(axis=1)
    assert np.abs(moments - 2.0 / (powers + 1.0)).max() <= 1e-13
    if n % 2:
        assert nodes[n // 2] == 0.0


@pytest.mark.parametrize("n", [256, 512, 1024])
def test_legendre_endpoint_weights_match_a_high_precision_reference(n):
    nodes, weights = scatter._leggauss(n)
    for k in (n - 1, n - 2, n - 3):
        node, weight = legendre_node_decimal(n, float(nodes[k]))
        assert abs(nodes[k] - node) <= 1.2e-16
        assert abs(weights[k] / weight - 1.0) <= 1e-13


def test_profile_evaluates_the_faddeeva_function_once_on_its_grid(monkeypatch):
    # One scalar call for the single-photon Voigt norm and one on the
    # total-frequency grid, shared by the bound channel and the kernel.
    sizes = []
    evaluate = scatter.faddeeva
    monkeypatch.setattr(scatter, "faddeeva", lambda z: sizes.append(np.size(z)) or evaluate(z))
    scatter._params(scatter.PulseSpec(0.3, 1.0), scatter._NODES)
    assert sorted(sizes) == [1, scatter._NODES]


def test_invalid_pulse_and_quadrature_rejected():
    with pytest.raises(ValueError):
        scatter.PulseSpec(0.0, -1.0)
    # Outside [1e-150, 1e150] the squared width leaves the float range.
    for sigma in (1e200, 2e150, 5e-151, 1e-200):
        with pytest.raises(ValueError, match=r"^sigma must be in \[1e-150, 1e\+150\]"):
            scatter.PulseSpec(0.0, sigma)
    scatter.PulseSpec(0.0, 1e150)
    scatter.PulseSpec(0.0, 1e-150)
    # Beyond |delta| = 1e150 the squared detuning leaves the float range.
    for delta in (2e150, -2e150, 1e308, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^delta must be in \[-1e\+150, 1e\+150\]"):
            scatter.PulseSpec(delta, 1.0)
    scatter.PulseSpec(1e150, 1.0)
    scatter.PulseSpec(-1e150, 1.0)


@pytest.fixture(scope="module")
def resonant_jti():
    times = np.linspace(-8.0, 8.0, 96)
    return scatter.jti(scatter.PulseSpec(0.0, 1.0), times=times)


def test_jti_is_exactly_symmetric(resonant_jti):
    assert np.array_equal(resonant_jti, resonant_jti.T)
    # Detuned pulses round the single-photon product f_i f_j differently
    # in the two orders, which only symmetrizing the squared amplitude
    # removes.
    for delta in (0.0, 0.7):
        circuit_map = scatter.circuit_jti(
            0.7, scatter.PulseSpec(delta, 1.0), times=np.linspace(-8.0, 8.0, 96)
        )
        assert np.array_equal(circuit_map, circuit_map.T), delta


def _rectangle_total(intensity: np.ndarray, times: np.ndarray) -> float:
    return float(intensity.sum() * (times[1] - times[0]) ** 2)


def test_jti_total_matches_pair_norm(resonant_jti, swept_params):
    eta2 = swept_params[(0.0, 1.0)].eta ** 2
    total = _rectangle_total(resonant_jti, np.linspace(-8.0, 8.0, 96))
    assert abs(total - eta2) / eta2 < 5e-3


def test_narrow_pulse_jti_total_matches_pair_norm():
    # The rectangle rule over the diagonal cusp errs as the squared time
    # step, so this pulse takes the CLI's 256-point grid (on 96 points it
    # is 1e-2 off).
    pulse = scatter.PulseSpec(0.0, 0.3)
    eta2 = scatter.nonlinear_params(pulse).eta ** 2
    total = _rectangle_total(scatter.jti(pulse), np.linspace(-8.0, 8.0, 256))
    assert abs(total - eta2) / eta2 < 5e-3


def test_far_detuned_jti_factorizes():
    times = np.linspace(-8.0, 8.0, 96)
    result = scatter.jti(scatter.PulseSpec(1000.0, 1.0), times=times)
    assert scatter.factorization_residual(result) < 1e-4


def test_resonant_jti_diagonal_enhanced(resonant_jti):
    diagonal = float(np.mean(np.diag(resonant_jti)))
    anti = float(np.mean(np.diag(np.fliplr(resonant_jti))))
    assert diagonal > anti


@pytest.mark.parametrize("sigma", [10.0, 400.0])
def test_unresolved_time_map_is_reported(sigma):
    pulse = scatter.PulseSpec(0.0, sigma)
    with pytest.raises(scatter.QuadratureError, match=rf"sigma={sigma!r}: map drift .*1e-06 budget"):
        scatter.jti(pulse)
    with pytest.raises(scatter.QuadratureError):
        scatter.circuit_jti(0.4, pulse)


@pytest.mark.parametrize(
    "times, match",
    [
        ([0.0, math.nan, 1.0], r"^times must be finite, got nan"),
        ([-math.inf, 0.0], r"^times must be finite, got -inf"),
        ([], r"^times must be a 1-D array of at least one time, got shape \(0,\)"),
        ([[0.0, 1.0], [2.0, 3.0]], r"^times must be a 1-D array .*got shape \(2, 2\)"),
    ],
)
def test_time_maps_reject_non_finite_or_empty_times(times, match):
    pulse = scatter.PulseSpec(0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            scatter.jti(pulse, times=times)
        with pytest.raises(ValueError, match=match):
            scatter.circuit_jti(0.4, pulse, times=times)


def test_time_maps_refuse_more_times_than_their_bound():
    # Refused before the map is built: the check allocates next to nothing.
    pulse = scatter.PulseSpec(0.0, 1.0)
    times = np.linspace(-8.0, 8.0, 1025)
    for time_map in (lambda: scatter.jti(pulse, times=times),
                     lambda: scatter.circuit_jti(0.4, pulse, times=times)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^times must hold at most 1024 points, got 1025$"):
                time_map()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5


@pytest.mark.filterwarnings("ignore:pulse duration")
@pytest.mark.parametrize("delta", [0.0, 1.0, 5.0])
@pytest.mark.parametrize("sigma", [0.02, 5.0])
def test_time_map_resolves_across_the_stated_width_domain(delta, sigma):
    result = scatter.jti(scatter.PulseSpec(delta, sigma))
    assert np.all(np.isfinite(result)) and result.max() > 0.0


def _time_terms(delta, sigma, times, nodes=scatter._NODES):
    # (a, b) = (0, 1) picks f(t1) f(t2) out of a psi + b f f, (1, -1) the bound term.
    pulse = scatter.PulseSpec(delta, sigma)
    return tuple(scatter._time_amplitude(pulse, nodes, times, a, b) for a, b in ((0, 1), (1, -1)))


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
    _, bound = _time_terms(delta, sigma, times, nodes=64)
    s, w_s = scatter._total_frequency_grid(scatter.PulseSpec(delta, sigma), 64)
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
