"""Independent reference computations used only by the test suite.

Everything here deliberately takes a different route than the package:
direct quadrature for the bound channel, which the package evaluates in
closed form; adaptive quadrature over the photons' frequency difference
and a 2D rotated grid for the pair norm, where the package integrates
closed forms over the total frequency alone; the full spectral fringe,
from three pulse integrals or from per-phase grid integrals on a grid
of its own, where the package reduces a pulse to its nonlinear phase
and loss and writes the fringe in closed form; a 2D transform over a square
frequency window, QAWF over the frequency difference and adaptive
quadrature of the equal-time amplitude, where the package takes joint
time maps from two 1D transforms; a first-quantized pair tensor,
evolved step by step and phase by phase, where the package writes the
pair entering the recombiner and the output statistics in closed form;
Simpson convolution of the transmission dip, where the package uses
the Faddeeva Voigt profile; a grid over the wandering width with the
dip depth solved linearly and a Brent polish, where the package runs
Levenberg-Marquardt on the exact Jacobian; dict tables of detection slots summed
pair by pair in Python, where the package lifts the state to the slots
with one matrix product; a grid search with a simplex polish of the
pair-statistics chi-square, where the package solves the constrained
least-squares problem directly; and a dense two-boson unitary and a
twelve-step splitter-and-phase pair-tensor circuit for the vibrational
evolution, where the package lifts the localization once around a
phase diagonal.
"""

from __future__ import annotations

import cmath
import decimal
import itertools
import math

import numpy as np
from scipy import integrate, optimize
from scipy.special import wofz


TWO_PI = 2.0 * math.pi


def _spectrum(w, delta: float, sigma: float):
    return (TWO_PI * sigma**2) ** -0.25 * np.exp(-((w - delta) ** 2) / (4.0 * sigma**2))


def _product(x, y, delta: float, sigma: float):
    """Independently transmitted pair: both photons pass the emitter alone."""
    return x / (x + 1j) * y / (y + 1j) * _spectrum(x, delta, sigma) * _spectrum(y, delta, sigma)


def bound_integral_faddeeva(s, delta: float, sigma: float):
    """Closed form of the bound-channel weight via the Faddeeva function.

    Completing the square in the Gaussian pair product turns the pole
    integral into w(z) evaluated at (s/2 + i)/(sqrt(2) sigma).
    """
    s = np.asarray(s, dtype=float)
    envelope = (TWO_PI * sigma**2) ** -0.5 * np.exp(-((s - 2.0 * delta) ** 2) / (8.0 * sigma**2))
    z = (s / 2.0 + 1j) / (math.sqrt(2.0) * sigma)
    return 2.0 * envelope * (-1j * math.pi) * wofz(z)


def bound_integral_quadrature(s, delta: float, sigma: float, nodes: int = 512):
    """Bound-channel weight by Gauss-Legendre quadrature of the pole integral.

    Integrates one constituent frequency over +/-8 pulse widths around the
    pulse center.
    """
    s = np.asarray(s, dtype=float)
    u, wu = np.polynomial.legendre.leggauss(nodes)
    nu = delta + 8.0 * sigma * u
    kernel = _spectrum(nu, delta, sigma) * _spectrum(s[..., None] - nu, delta, sigma)
    return 2.0 * (kernel / (nu + 1j)) @ (8.0 * sigma * wu)


def _pair_wavefunction(x, y, delta: float, sigma: float, bound):
    return _product(x, y, delta, sigma) + (1j / TWO_PI) * bound / ((x + 1j) * (y + 1j))


def pair_wavefunction_faddeeva(x, y, delta: float, sigma: float):
    """Two-photon output amplitude with the closed-form bound integral."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return _pair_wavefunction(x, y, delta, sigma, bound_integral_faddeeva(x + y, delta, sigma))


def _rotated_grid(delta: float, sigma: float, nodes: int):
    """Gauss-Legendre in the total frequency, a tangent map along the
    difference so the Lorentzian tails are integrated over all of R."""
    u, wu = np.polynomial.legendre.leggauss(nodes)
    s = 2.0 * delta + 16.0 * sigma * u
    ws = 16.0 * sigma * wu
    v = 0.5 * math.pi * u
    d = 2.0 * np.tan(v)
    wd = 0.5 * math.pi * 2.0 * wu / np.cos(v) ** 2
    x = 0.5 * (s[:, None] + d[None, :])
    y = 0.5 * (s[:, None] - d[None, :])
    return x, y, 0.5 * ws[:, None] * wd[None, :]


def pair_norm_faddeeva(delta: float, sigma: float, nodes: int = 768) -> float:
    """Squared norm of the pair output on an independently built grid."""
    x, y, weights = _rotated_grid(delta, sigma, nodes)
    psi = pair_wavefunction_faddeeva(x, y, delta, sigma)
    return float(np.sum(weights * np.abs(psi) ** 2))


def legendre_node_decimal(n: int, x0: float, digits: int = 40) -> tuple[float, float]:
    """One Gauss-Legendre node and weight of order n, in ``digits``-digit decimals.

    Newton's method in x from ``x0`` on the three-term recurrence, and
    w = 2 (1 - x^2) / (n P_{n-1}(x))^2, all in ``decimal`` arithmetic, so
    near x = +-1 neither the node nor the recurrence loses digits to
    double rounding.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits

        def legendre(x):
            p0, p1 = decimal.Decimal(1), x
            for j in range(1, n):
                p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
            return p1, p0

        x = decimal.Decimal(x0)
        tiny = decimal.Decimal(10) ** (8 - digits)
        for _ in range(20):
            pn, pm = legendre(x)
            step = pn * (x * x - 1) / (n * (x * pn - pm))
            x -= step
            if abs(step) < tiny:
                break
        _, pm = legendre(x)
        return float(x), float(2 * (1 - x * x) / (n * pm) ** 2)


def _split_quad(f, points) -> float:
    """Adaptive quadrature of ``f`` over consecutive ``points``."""
    edges = sorted(set(points))
    return sum(
        integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )


def difference_kernel_quad(a: float, sigma: float, magnitude: bool = False) -> float:
    """Integral over the frequency difference u of the pair product's poles.

    ``int (a^2 - u^2) exp(-u^2 / (2 sigma^2)) / (((a+u)^2 + 1)((a-u)^2 + 1)) du``
    with x = a + u, y = a - u, by adaptive quadrature split at the emitter
    lines u = -a and u = a and at the pulse centre u = 0, within 40 pulse
    widths.  With ``magnitude`` the integrand's absolute value is
    integrated instead, a scale for absolute errors.
    """

    def f(u):
        value = (a * a - u * u) * math.exp(-u * u / (2.0 * sigma**2)) / (
            ((a + u) ** 2 + 1.0) * ((a - u) ** 2 + 1.0)
        )
        return abs(value) if magnitude else value

    edge = 40.0 * sigma
    return _split_quad(f, [-edge, 0.0, edge] + [p for p in (-a, a) if -edge < p < edge])


def lorentzian_convolution_quad(s: float) -> float:
    """``int dx / ((x^2 + 1)((s - x)^2 + 1))`` over R, split at x = 0 and x = s."""

    def f(x):
        return 1.0 / ((x * x + 1.0) * ((s - x) ** 2 + 1.0))

    lo, hi = min(0.0, s), max(0.0, s)
    tails = integrate.quad(f, -np.inf, lo, epsabs=0.0, epsrel=1e-13)[0] + integrate.quad(
        f, hi, np.inf, epsabs=0.0, epsrel=1e-13
    )[0]
    return tails + _split_quad(f, [lo, hi])


def single_photon_norm_quad(delta: float, sigma: float) -> float:
    """Transmitted single-photon norm, int x^2 / (x^2 + 1) |g(x)|^2 dx, by adaptive quadrature.

    The integrand is positive, so narrow pulses near the line lose no
    digits to the cancellation in 1 minus a Voigt profile.
    """
    edge = 40.0 * sigma
    return _split_quad(
        lambda x: x * x / (x * x + 1.0) * _spectrum(x, delta, sigma) ** 2,
        [delta - edge, delta, delta + edge] + ([0.0] if abs(delta) < edge else []),
    )


def pair_profile_quad(delta: float, sigma: float) -> tuple[float, float, complex]:
    """Single-photon norm, squared pair norm and overlap by nested adaptive quadrature.

    The pair output is the independent product plus the bound term
    (i / 2 pi) I(s) / ((x + i)(y + i)).  Over the frequency difference,
    the bound term against the product is ``difference_kernel_quad`` and
    against itself ``lorentzian_convolution_quad``; the remaining integral
    over the total frequency s runs adaptively within 20 pulse widths of
    2 delta, split at s = 0 and s = 2 delta.
    """
    p_single = single_photon_norm_quad(delta, sigma)

    def along_s(s):
        bound = complex(bound_integral_faddeeva(s, delta, sigma))
        envelope = math.exp(-((s - 2.0 * delta) ** 2) / (8.0 * sigma**2)) / math.sqrt(TWO_PI) / sigma
        cross = bound * envelope * difference_kernel_quad(0.5 * s, sigma)
        norm = abs(bound) ** 2 * lorentzian_convolution_quad(s) / TWO_PI**2
        return np.array([norm, cross.real, cross.imag])

    lo, hi = 2.0 * delta - 20.0 * sigma, 2.0 * delta + 20.0 * sigma
    points = [2.0 * delta] + ([0.0] if lo < 0.0 < hi else [])
    total = integrate.quad_vec(along_s, lo, hi, epsrel=1e-12, norm="max", points=points)[0]
    cross = 1j / TWO_PI * complex(total[1], total[2])
    eta2 = p_single**2 + 2.0 * cross.real + total[0]
    return p_single, eta2, p_single**2 + cross.conjugate()


def spectral_fringe_quad(phis, delta: float, sigma: float) -> np.ndarray:
    """Raw (p20, p11, p02) rows of the full spectral model from three pulse integrals.

    The both-photons-one-port patterns carry the amplitude
    ``a psi +/- b ff`` of the pair wavefunction and the independent
    product, whose squared norm expands into the two squared norms and
    the overlap from ``pair_profile_quad``; the split pattern carries
    ``c psi``.  Nothing is reduced to the effective parameters first.
    """
    p_single, eta2, overlap = pair_profile_quad(delta, sigma)
    phis = np.asarray(phis, dtype=float)
    a = (np.exp(2j * phis) + 1.0) / 4.0
    b = np.exp(1j * phis) / 2.0
    c = (np.exp(2j * phis) - 1.0) / (2.0 * math.sqrt(2.0))
    norms = np.abs(a) ** 2 * eta2 + np.abs(b) ** 2 * p_single**2
    cross = 2.0 * np.real(np.conj(a) * b * overlap)
    return np.stack([norms + cross, eta2 * np.abs(c) ** 2, norms - cross], axis=1)


def full_statistics_per_phase(phis, delta: float, sigma: float, nodes: int = 768):
    """Raw (p20, p11, p02) rows of the spectral model, one grid sum per phase.

    For each linear phase the both-photons-one-port amplitudes
    ``a psi +/- b ff`` are built on the oracle grid and their squared
    magnitudes integrated directly.
    """
    x, y, weights = _rotated_grid(delta, sigma, nodes)
    psi = pair_wavefunction_faddeeva(x, y, delta, sigma)
    ff = _product(x, y, delta, sigma)
    eta2 = float(np.sum(weights * np.abs(psi) ** 2))
    out = np.empty((len(phis), 3))
    for k, phi in enumerate(phis):
        a = (np.exp(2j * phi) + 1.0) / 4.0
        b = np.exp(1j * phi) / 2.0
        c = (np.exp(2j * phi) - 1.0) / (2.0 * math.sqrt(2.0))
        out[k, 0] = np.sum(weights * np.abs(a * psi + b * ff) ** 2)
        out[k, 1] = eta2 * abs(c) ** 2
        out[k, 2] = np.sum(weights * np.abs(a * psi - b * ff) ** 2)
    return out


def windowed_time_amplitudes(times, delta: float, sigma: float, half_width: float = 8.0,
                             nodes: int = 512):
    """Product and bound term of the pair amplitude at detection times (t1, t2).

    The 2D transform of both terms over a square window of
    ``half_width`` pulse widths around the pulse centre in each photon's
    frequency, on a ``nodes`` x ``nodes`` Gauss-Legendre grid.  The window
    cuts the 1/d^2 tails of the bound term in the frequency difference d,
    so its bound term converges only as 1/half_width.
    """
    u, wu = np.polynomial.legendre.leggauss(nodes)
    x = delta + half_width * sigma * u
    phases = np.exp(-1j * np.outer(times, x)) * (half_width * sigma * wu)
    col, row = x[:, None], x[None, :]
    pole = 1.0 / ((col + 1j) * (row + 1j))
    bound = (1j / TWO_PI) * bound_integral_faddeeva(col + row, delta, sigma) * pole
    return tuple(phases @ k @ phases.T / TWO_PI for k in (_product(col, row, delta, sigma), bound))


def difference_integral_qawf(s: float, tau: float) -> complex:
    """``int dd exp(-i d tau / 2) / ((s/2 + i)^2 - d^2 / 4)`` over R by QAWF.

    The integrand is even in d, so it is twice the cosine transform over
    [0, inf), taken by ``quad`` with the cos weight (plain ``quad`` at
    tau = 0).
    """
    a = 0.5 * s + 1j

    def part(fn):
        weight = {"weight": "cos", "wvar": 0.5 * abs(tau)} if tau else {}
        return integrate.quad(fn, 0.0, np.inf, epsabs=1e-11, limit=200, **weight)[0]

    return 2.0 * complex(
        part(lambda d: (1.0 / (a * a - 0.25 * d * d)).real),
        part(lambda d: (1.0 / (a * a - 0.25 * d * d)).imag),
    )


def bound_time_term_qawf(t1: float, t2: float, s, w_s, delta: float, sigma: float) -> complex:
    """Bound term of the pair amplitude at (t1, t2) on a given total-frequency rule.

    In s = x + y and d = x - y the transform of (i / 2 pi) I(s) / ((x + i)(y + i))
    is (i / 8 pi^2) int ds I(s) exp(-i s (t1 + t2) / 2) J(s, t1 - t2), with
    J the integral over d, here by ``difference_integral_qawf``.
    """
    inner = np.array([difference_integral_qawf(v, t1 - t2) for v in s])
    weights = w_s * bound_integral_faddeeva(s, delta, sigma) * np.exp(-0.5j * s * (t1 + t2))
    return 1j / (8.0 * math.pi**2) * complex(weights @ inner)


def diagonal_pair_amplitude_quad(t: float, delta: float, sigma: float) -> complex:
    """Pair amplitude at equal detection times, g(t) + f(t)^2, by adaptive quadrature.

    g(t) = (1 / 4 pi) int ds I(s) exp(-i s t) / (s/2 + i) within 40 pulse
    widths of 2 delta, and f(t) the transform of the transmitted pulse
    within 20 pulse widths of delta, both split at the pulse centre and
    at the emitter line.
    """

    def transform(values, centre: float, edge: float) -> complex:
        lo, hi = centre - edge, centre + edge
        points = [centre] + ([0.0] if lo < 0.0 < hi else [])
        re, im = integrate.quad_vec(
            lambda v: np.array([values(v).real, values(v).imag]),
            lo, hi, epsabs=1e-14, epsrel=1e-12, norm="max", points=points,
        )[0]
        return complex(re, im)

    g = transform(
        lambda s: bound_integral_faddeeva(s, delta, sigma) * np.exp(-1j * s * t) / (0.5 * s + 1j),
        2.0 * delta, 40.0 * sigma,
    ) / (2.0 * TWO_PI)
    f = transform(
        lambda x: x / (x + 1j) * _spectrum(x, delta, sigma) * np.exp(-1j * x * t),
        delta, 20.0 * sigma,
    ) / math.sqrt(TWO_PI)
    return g + f * f


# Pair-tensor model over the modes (early, late, early ancilla, late
# ancilla).  A two-photon state is a symmetric 4x4 wavefunction psi with
# unit Frobenius norm for a normalized state; a single-photon map U acts
# as U psi U^T, and the pair probability of ordered modes (m, n) is
# |psi[m, n]|^2.
_MODE_BIN = np.array([0, 1, 0, 1])
# Occupied modes of the ten canonical configurations, in their order.
_CONFIGURATION_PAIRS = (
    (0, 0), (1, 1), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)
)
_SPLITTER = np.kron(np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))


def _rotation(theta_perp: float) -> np.ndarray:
    # Early mode into its ancilla copy, in the (early, late, early
    # ancilla, late ancilla) order.
    c, s = math.cos(theta_perp), math.sin(theta_perp)
    u = np.eye(4)
    u[np.ix_((0, 2), (0, 2))] = [[c, -s], [s, c]]
    return u


def pair_tensor_evolve(psi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Apply the single-photon map ``u`` to both photons of ``psi``."""
    return u @ psi @ u.T


def pair_tensor_from_configuration(first: int, second: int) -> np.ndarray:
    """Normalized pair tensor of one photon in each of two modes."""
    psi = np.zeros((4, 4), dtype=complex)
    if first == second:
        psi[first, first] = 1.0
    else:
        psi[first, second] = psi[second, first] = 1.0 / math.sqrt(2.0)
    return psi


def pair_tensor_amplitude(psi: np.ndarray, first: int, second: int) -> complex:
    """Occupation-basis amplitude of the configuration (first, second)."""
    if first == second:
        return complex(psi[first, first])
    return complex(psi[first, second] + psi[second, first]) / math.sqrt(2.0)


def pair_tensor_click_pattern(psi: np.ndarray) -> np.ndarray:
    """Raw (p20, p11, p02): pair weights binned by late-bin photons, ancilla labels ignored."""
    late = _MODE_BIN[:, None] + _MODE_BIN[None, :]
    weights = np.abs(psi) ** 2
    return np.array([weights[late == b].sum() for b in range(3)])


def configuration_amplitudes(psi: np.ndarray) -> np.ndarray:
    """The ten occupation-basis amplitudes of ``psi``, in canonical order."""
    return np.array([pair_tensor_amplitude(psi, i, j) for i, j in _CONFIGURATION_PAIRS])


def pair_tensor_run(steps, first: int, second: int) -> np.ndarray:
    """Apply ``steps`` in order to one photon in each of modes ``first`` and ``second``."""
    psi = pair_tensor_from_configuration(first, second)
    for step in steps:
        psi = step(psi)
    return psi


def splitter_step(psi: np.ndarray) -> np.ndarray:
    """The symmetric splitter on the time bins, and on their ancilla copies."""
    return pair_tensor_evolve(psi, _SPLITTER)


def phase_step(phi: float):
    """Linear phase ``phi`` on the early bin and its ancilla copy."""
    u = np.diag(np.exp(1j * phi * (1 - _MODE_BIN)))
    return lambda psi: pair_tensor_evolve(psi, u)


def nonlinear_step(phi_nl: float, ell_nl: float):
    """Pair phase when both photons share a bin, the extra loss on each photon otherwise."""
    mask = np.where(_MODE_BIN[:, None] == _MODE_BIN[None, :], np.exp(1j * phi_nl), 1.0 - ell_nl)
    return lambda psi: psi * mask


def pair_tensor_before_recombiner(phi: float, phi_nl: float, ell_nl: float,
                                  theta_perp: float) -> np.ndarray:
    """The balanced circuit up to the recombiner, one step at a time.

    Both photons start early; splitter, linear phase on the early bin,
    nonlinear mask, rotation of the early mode into its ancilla copy.
    """
    steps = (
        splitter_step,
        phase_step(phi),
        nonlinear_step(phi_nl, ell_nl),
        lambda psi: pair_tensor_evolve(psi, _rotation(theta_perp)),
    )
    return pair_tensor_run(steps, 0, 0)


def pair_tensor_triples(phis, phi_nl: float, ell_nl: float, theta_perp: float) -> np.ndarray:
    """Renormalized (p20, p11, p02) of the balanced circuit, one phase at a time.

    The state before the recombiner, then the recombining splitter;
    click patterns count late-bin photons and ignore the ancilla label.
    """
    out = np.empty((len(phis), 3))
    for k, phi in enumerate(phis):
        psi = pair_tensor_before_recombiner(phi, phi_nl, ell_nl, theta_perp)
        raw = pair_tensor_click_pattern(splitter_step(psi))
        out[k] = raw / raw.sum()
    return out


def reference_nl_fit(phis, data, precision, fit_distinguishability: bool = False):
    """Chi-square minimum of pair statistics by brute force: (parameters, chi2).

    The model is ``pair_tensor_triples`` and the chi-square sums r^T P r
    over the phases with the per-phase ``precision`` P.  The best point
    of a grid over (phi_nl, ell_nl[, theta_perp]) seeds a Nelder-Mead
    polish in coordinates u with parameter = upper bound * sin(u)^2, so
    every probe is physical and a bound is a smooth interior point (a
    polish in the parameters themselves stalls at the corner phi_nl =
    ell_nl = 0).
    """
    upper = np.array([math.pi, 1.0, 0.5 * math.pi])[: 3 if fit_distinguishability else 2]

    def chi2(x):
        theta = x[2] if fit_distinguishability else 0.0
        resid = pair_tensor_triples(phis, x[0], x[1], theta) - data
        return float(np.einsum("ki,kij,kj->", resid, precision, resid))

    def params(u):
        return upper * np.sin(u) ** 2

    # Cell midpoints: u = 0 is a stationary point of sin(u)^2, a poor start.
    grids = [(np.arange(n) + 0.5) / n for n in (12, 10, 6)[: upper.size]]
    start = min(itertools.product(*grids), key=lambda f: chi2(upper * np.array(f)))
    res = optimize.minimize(lambda u: chi2(params(u)), np.arcsin(np.sqrt(start)),
                            method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-11, "maxfev": 20_000})
    return params(res.x), float(res.fun)


def _simpson_weights(xs: np.ndarray) -> np.ndarray:
    weights = np.ones(xs.size)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return weights * (xs[1] - xs[0]) / 3.0


def voigt_transmission_quadrature(omega, depth: float, fwhm: float, sigma_sd: float):
    """Transmission dip by Simpson convolution, unit peak response.

    The Lorentzian dip is convolved with the wandering Gaussian over
    +/-8 sigma_sd on a grid that samples the narrower of the two widths
    eightfold, and divided by the same convolution at omega = 0.
    """
    omega = np.asarray(omega, dtype=float)
    half = fwhm / 2.0
    step = min(sigma_sd, half) / 8.0
    extent = 8.0 * sigma_sd
    m = 2 * math.ceil(extent / step)
    xs = np.linspace(-extent, extent, m + 1)
    gauss = np.exp(-(xs**2) / (2.0 * sigma_sd**2)) / (sigma_sd * math.sqrt(TWO_PI))
    kernel = gauss * _simpson_weights(xs)

    def lorentz(freq):
        return half * half / (freq * freq + half * half)

    profile = lorentz(omega[:, None] - xs[None, :]) @ kernel
    return 1.0 - depth * profile / float(lorentz(-xs) @ kernel)


def reference_rt_fit(omega, data, errors, gamma: float = 1.0, gamma_d: float = 0.0,
                     saturation: float = 0.0) -> tuple[float, float, float]:
    """Chi-square minimum of a transmission dip: (beta, sigma_sd, chi2).

    The model is 1 - depth * V with V the unit-peak Voigt profile from
    ``wofz``.  At each sigma_sd the depth is the weighted linear
    least-squares value clipped to its physical range [0, 1 / factor];
    the best of 400 widths, geometric from 1e-4 to 10 times the span of
    ``omega``, brackets a bounded Brent polish of that profile
    chi-square.
    """
    omega, data = np.asarray(omega, dtype=float), np.asarray(data, dtype=float)
    weights = 1.0 / np.asarray(errors, dtype=float) ** 2
    half = 0.5 * (gamma + gamma_d) * math.sqrt(1.0 + saturation)
    factor = (1.0 + 2.0 * gamma_d / gamma) * (1.0 + saturation)

    def solve(sigma_sd: float) -> tuple[float, float]:
        scale = math.sqrt(2.0) * sigma_sd
        profile = wofz((omega + 1j * half) / scale).real / wofz(1j * half / scale).real
        depth = np.sum(weights * profile * (1.0 - data)) / np.sum(weights * profile**2)
        depth = min(max(float(depth), 0.0), 1.0 / factor)
        return depth, float(np.sum(weights * (1.0 - depth * profile - data) ** 2))

    grid = np.geomspace(1e-4, 10.0, 400) * float(np.ptp(omega))
    k = int(np.argmin([solve(s)[1] for s in grid]))
    res = optimize.minimize_scalar(lambda s: solve(s)[1], method="bounded",
                                   bounds=(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]),
                                   options={"xatol": 1e-12})
    depth, chi2 = solve(float(res.x))
    return 1.0 - math.sqrt(max(0.0, 1.0 - depth * factor)), float(res.x), chi2


def peak_cells_slot_dict(amplitudes):
    """Coincidence weight per (detector pair, window, window) cell, slot by slot.

    ``amplitudes`` are the ten configuration amplitudes (canonical
    order) of the state entering the detection interferometer, whose
    splitters are even with the phase pi/2 on the short-to-b and
    long-to-a reflections and whose detectors are lossless.  Builds
    a dict of detection-slot amplitudes per mode, then sums the
    two-boson amplitude of every unordered slot pair over the input
    configurations in a Python double loop, dividing by sqrt(2) for a
    doubly occupied input, and bins the different-detector pairs.
    Slots are (window, detector, ancilla flag).
    """
    detectors = ("a1", "a2", "b1", "b2")
    r2 = math.sqrt(2.0)
    arm = {
        ("S", "a"): 1.0 / r2,
        ("S", "b"): np.exp(-0.5j * math.pi) / r2,
        ("L", "a"): np.exp(-0.5j * math.pi) / r2,
        ("L", "b"): 1.0 / r2,
    }
    routes = {0: (("S", 0), ("L", 1)), 1: (("S", 1), ("L", 2))}
    single = {}
    for mode in range(4):
        bin_idx, ancilla = mode % 2, int(mode >= 2)
        amps = {}
        for arm_name, window in routes[bin_idx]:
            for d_idx, det in enumerate(detectors):
                amps[(window, d_idx, ancilla)] = arm[(arm_name, det[0])] / 2.0
        single[mode] = amps

    pair_amps = {}
    for (i, j), amp_c in zip(_CONFIGURATION_PAIRS, amplitudes):
        norm_in = r2 if i == j else 1.0
        for s1, v1 in single[i].items():
            for s2, v2 in single[j].items():
                key = (s1, s2) if s1 <= s2 else (s2, s1)
                pair_amps[key] = pair_amps.get(key, 0.0) + amp_c * v1 * v2 / norm_in
    pair_index = {pair: idx for idx, pair in enumerate(itertools.combinations(detectors, 2))}
    cells = np.zeros((6, 3, 3))
    for (s1, s2), amp in pair_amps.items():
        if s1[1] == s2[1]:
            continue
        if s1[1] > s2[1]:
            s1, s2 = s2, s1
        cells[pair_index[(detectors[s1[1]], detectors[s2[1]])], s1[0], s2[0]] += abs(amp) ** 2
    return cells


def two_boson_unitary(u: np.ndarray) -> np.ndarray:
    """Lift a 2x2 mode unitary to the (2,0), (0,2), (1,1) pair basis."""
    a, b = u[0, 0], u[0, 1]
    c, d = u[1, 0], u[1, 1]
    r2 = math.sqrt(2.0)
    return np.array(
        [
            [a * a, b * b, r2 * a * b],
            [c * c, d * d, r2 * c * d],
            [r2 * a * c, r2 * b * d, a * d + b * c],
        ]
    )


def pair_occupancies(t_ps: float, freqs: dict, localization: np.ndarray) -> tuple[float, float, float]:
    """Dense-matrix evolution of two quanta starting in localized mode 0.

    ``freqs`` holds nu10, nu01, nu20, nu02, nu11 in 1/cm; returns the
    (same-left, same-right, separate) occupancies at ``t_ps``.
    """
    scale = -TWO_PI * 2.99792458e10 * 1e-12 * t_ps
    lift = two_boson_unitary(localization)
    phases = np.diag(
        np.exp(1j * scale * np.array([freqs["nu20"], freqs["nu02"], freqs["nu11"]]))
    )
    evo = lift.conj().T @ phases @ lift
    start = np.array([1.0, 0.0, 0.0], dtype=complex)
    final = evo @ start
    return (abs(final[0]) ** 2, abs(final[1]) ** 2, abs(final[2]) ** 2)


def mode_unitary_steps(u: np.ndarray) -> list:
    """Decompose a 2x2 unitary into pair-tensor phase and splitter steps.

    Uses the interferometer form D1 * B * D2 * B * D3 with diagonal
    phase steps around the fixed symmetric splitter; the overall
    phase is dropped, which leaves pair probabilities unchanged.
    """
    mixing = math.atan2(abs(u[1, 0]), abs(u[0, 0]))
    if abs(u[1, 0]) < 1e-12:
        alpha, beta = cmath.phase(u[0, 0]), 0.0
        gamma, delta = 0.0, cmath.phase(u[1, 1])
    elif abs(u[0, 0]) < 1e-12:
        beta = cmath.phase(u[1, 0]) - 0.5 * math.pi
        alpha, gamma, delta = cmath.phase(u[0, 1]) - 0.5 * math.pi, 0.0, 0.0
    else:
        gamma = 0.0
        alpha = cmath.phase(u[0, 0])
        beta = cmath.phase(u[1, 0]) - 0.5 * math.pi
        delta = cmath.phase(u[0, 1]) - 0.5 * math.pi - alpha
    return [
        phase_step(gamma - delta),
        splitter_step,
        phase_step(2.0 * mixing),
        splitter_step,
        phase_step(alpha - beta),
    ]


def evolution_steps(t_ps: float, spec, harmonic: bool = False) -> list:
    """The localized -> eigenbasis -> localized circuit of a molecule, 12 pair-tensor steps.

    Localized modes 0 and 1 are the early and late modes.  The
    eigenbasis phase diagonal splits into a linear phase and a
    same-mode nonlinear phase, both from frequency differences.
    """
    if harmonic:
        spec = spec.harmonic_variant()
    scale = -TWO_PI * 2.99792458e10 * 1e-12 * t_ps
    linear = 0.5 * scale * (spec.nu20 - spec.nu02)
    kerr = 0.5 * scale * (spec.nu20 + spec.nu02 - 2.0 * spec.nu11)
    u = spec.matrix
    return [
        *mode_unitary_steps(u),
        phase_step(linear),
        nonlinear_step(kerr, 0.0),
        *mode_unitary_steps(u.conj().T),
    ]
