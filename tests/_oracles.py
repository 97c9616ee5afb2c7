"""Independent reference computations used only by the test suite.

Everything here deliberately takes a different route than the package:
direct quadrature for the bound channel, which the package evaluates in
closed form; adaptive quadrature over the photons' frequency difference
and a 2D rotated grid for the pair norm, where the package integrates
closed forms over the total frequency alone; per-phase grid integrals
of the fringe on a grid of its own, where the package expands the
fringe into three pulse integrals; a dense two-boson transfer matrix
instead of layered evolution; a first-quantized pair tensor, evolved
phase by phase, instead of the batched ten-configuration evolution; and
the scipy Voigt profile instead of direct convolution.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
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


def pair_wavefunction_quadrature(x, y, delta: float, sigma: float, nodes: int = 1024):
    """Two-photon output amplitude with the quadrature bound integral."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    bound = bound_integral_quadrature(x + y, delta, sigma, nodes)
    return _pair_wavefunction(x, y, delta, sigma, bound)


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


def pair_profile_quad(delta: float, sigma: float) -> tuple[float, float, complex]:
    """Single-photon norm, squared pair norm and overlap by nested adaptive quadrature.

    The pair output is the independent product plus the bound term
    (i / 2 pi) I(s) / ((x + i)(y + i)).  Over the frequency difference,
    the bound term against the product is ``difference_kernel_quad`` and
    against itself ``lorentzian_convolution_quad``; the remaining integral
    over the total frequency s runs adaptively within 20 pulse widths of
    2 delta, split at s = 0 and s = 2 delta.
    """
    edge = 40.0 * sigma
    p_single = _split_quad(
        lambda x: x * x / (x * x + 1.0) * _spectrum(x, delta, sigma) ** 2,
        [delta - edge, delta, delta + edge] + ([0.0] if abs(delta) < edge else []),
    )

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


# Pair-tensor model over the modes (early, late, early ancilla, late
# ancilla).  A two-photon state is a symmetric 4x4 wavefunction psi with
# unit Frobenius norm for a normalized state; a single-photon map U acts
# as U psi U^T, and the pair probability of ordered modes (m, n) is
# |psi[m, n]|^2.
_MODE_BIN = np.array([0, 1, 0, 1])
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


def pair_tensor_triples(phis, phi_nl: float, ell_nl: float, theta_perp: float) -> np.ndarray:
    """Renormalized (p20, p11, p02) of the balanced circuit, one phase at a time.

    Both photons start early; splitter, linear phase on the early bin,
    nonlinear mask (pair phase when both photons share a bin, the extra
    loss on each photon otherwise), rotation into the ancilla, splitter.
    Click patterns count late-bin photons and ignore the ancilla label.
    """
    same_bin = _MODE_BIN[:, None] == _MODE_BIN[None, :]
    mask = np.where(same_bin, np.exp(1j * phi_nl), 1.0 - ell_nl)
    late = _MODE_BIN[:, None] + _MODE_BIN[None, :]
    out = np.empty((len(phis), 3))
    for k, phi in enumerate(phis):
        psi = pair_tensor_from_configuration(0, 0)
        psi = pair_tensor_evolve(psi, _SPLITTER)
        psi = pair_tensor_evolve(psi, np.diag(np.exp(1j * phi * (1 - _MODE_BIN))))
        psi = psi * mask
        psi = pair_tensor_evolve(psi, _rotation(theta_perp))
        psi = pair_tensor_evolve(psi, _SPLITTER)
        weights = np.abs(psi) ** 2
        raw = np.array([weights[late == b].sum() for b in range(3)])
        out[k] = raw / raw.sum()
    return out


def voigt_transmission(omega, depth: float, fwhm: float, sigma_sd: float):
    """Transmission dip from the scipy Voigt profile, unit peak response."""
    omega = np.asarray(omega, dtype=float)
    half = fwhm / 2.0
    if sigma_sd == 0.0:
        profile = half * half / (omega**2 + half * half)
        return 1.0 - depth * profile
    z = (omega + 1j * half) / (sigma_sd * math.sqrt(2.0))
    z0 = 1j * half / (sigma_sd * math.sqrt(2.0))
    return 1.0 - depth * np.real(wofz(z)) / float(np.real(wofz(z0)))


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
