"""Independent reference computations used only by the test suite.

Everything here deliberately takes a different route than the package:
direct quadrature for the bound channel, which the package evaluates in
closed form; per-phase grid integrals of the fringe on a grid of its
own, where the package expands the fringe into three pulse integrals;
a dense two-boson transfer matrix instead of layered evolution; a
first-quantized pair tensor, evolved phase by phase, instead of the
batched ten-configuration evolution; and the scipy Voigt profile
instead of direct convolution.
"""

from __future__ import annotations

import math

import numpy as np
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
