"""Gaussian pulse scattering off a single two-level emitter.

Everything is expressed in natural units: frequencies are angular
detunings from the emitter line multiplied by its lifetime, times are
in units of the lifetime.  A single photon scatters with amplitude
``omega / (omega + i)``; a photon pair additionally populates a bound
two-photon channel whose spectral weight is concentrated along the
total-frequency diagonal.  This module reduces the pair output
wavefunction to the effective interferometer parameters (transmission,
pair loss, nonlinear phase) and produces joint detection-time
intensities.

The bound channel is a closed form in the Faddeeva function, and so are
the single-photon norm (a Voigt profile) and every integral over the
frequency difference of the two photons.  ``faddeeva`` evaluates it in
numpy by Weideman's rational approximation; every argument the module
passes lies in the upper half-plane, where that approximation holds.
The pair norm and overlap are then one-dimensional integrals over the
total frequency, taken by Gauss-Legendre quadrature on two panels split
at the emitter line; node doubling certifies convergence.  Time maps are
exact in the time difference: at fixed total frequency the integral over
the frequency difference is a residue, so a map is two 1D transforms on
the same panels, certified by node doubling too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

# Speed of light in cm/s, for wavenumber conversions.
SPEED_OF_LIGHT_CM = 2.99792458e10


# Widths and detunings whose squares, times the constants they meet,
# stay normal floats.
_SIGMA_MIN, _SIGMA_MAX = 1e-150, 1e150
_DELTA_MAX = 1e150


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian pulse: center detuning and spectral width, natural units.

    Construction accepts ``delta`` in [-1e150, 1e150] and ``sigma`` in
    [1e-150, 1e150]; outside that range their squares leave the float
    range, and it raises ``ValueError`` naming ``delta`` or ``sigma``.
    The effective parameters resolve, measured, for ``sigma`` from 0.02
    to 1000 at ``delta`` of 0, 5 and 20; ``sigma`` of 3000 and 1e4 raise
    ``QuadratureError``, and so does a pulse so narrow near the line
    (``sigma`` below about 4e-5 at ``delta`` = 0) that rounding takes
    more than 1e-6 of its single-photon norm.
    """

    delta: float
    sigma: float

    def __post_init__(self) -> None:
        if not abs(self.delta) <= _DELTA_MAX:
            raise ValueError(
                f"delta must be in [-{_DELTA_MAX:.0e}, {_DELTA_MAX:.0e}], got {self.delta!r}"
            )
        if not _SIGMA_MIN <= self.sigma <= _SIGMA_MAX:
            raise ValueError(
                f"sigma must be in [{_SIGMA_MIN:.0e}, {_SIGMA_MAX:.0e}], got {self.sigma!r}"
            )


# Quadrature: ``nonlinear_params`` integrates over the total frequency
# s = x + y within 2 * _HALF_WIDTH pulse widths of twice the pulse
# center, on _NODES s-grid nodes split into two Gauss-Legendre panels
# of _NODES // 2 at the emitter line s = 0 (at the window centre when
# the line lies outside); ``jti`` and ``circuit_jti`` transform to
# detection times on the same panels.  The node-doubling check
# evaluates 2 * _NODES.  The bound channel, the single-photon norm and
# the integrals over the frequency difference are closed forms.
_HALF_WIDTH = 8.0
_NODES = 512


class QuadratureError(RuntimeError):
    """Raised when a pulse's results cannot be certified.

    Node doubling moved them by more than 1e-6, rounding took more than
    1e-6 of the single-photon norm, or a time map vanished.
    """


def _unresolved(pulse: PulseSpec, reason: str) -> QuadratureError:
    return QuadratureError(
        f"pulse delta={float(pulse.delta)!r}, sigma={float(pulse.sigma)!r}: {reason}"
    )


# One ulp of 1.  Newton steps of the Legendre rule stop once every step
# is a few ulp of theta; the cap only bounds the loop.
_EPS = 2.0**-52
_NEWTON_STEPS = 8


def _legendre_pair(theta: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and x P_n(x) - P_{n-1}(x) at x = cos theta, by the three-term recurrence.

    The recurrence runs on the increments d = P_j - P_{j-1} with x = 1 - u,
    and u = 1 - cos theta comes from theta without cancellation, so the
    values near x = 1 keep the accuracy that theta has and a rounded x
    would lose.
    """
    u = 2.0 * np.sin(0.5 * theta) ** 2
    p = 1.0 - u
    d = -u
    up = np.empty_like(u)
    for j in range(1, n):
        np.multiply(u, p, out=up)
        d -= up
        d *= j / (j + 1.0)
        d -= up
        p += d
    return p, d - u * p


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights of order n on [-1, 1].

    Newton's method in theta, x = cos theta, on the ceil(n/2) non-negative
    nodes at once, from Tricomi's initial guess (N. Hale and A. Townsend,
    SIAM J. Sci. Comput. 35 (2013) A652); the rest follow by symmetry, and
    an odd n has its centre node at exactly 0.  The steps stop at a few
    ulp of theta.  The weights are w = 2 / (dP_n/dtheta)^2
    = 2 sin^2 theta / (n (x P_n - P_{n-1}))^2: at a node that is
    2 sin^2 theta / (n P_{n-1})^2, free of the cancellation in 1 - x^2, and
    the P_n term makes it stationary in theta, so the rounding left in
    theta moves a weight only by twice its relative size.  O(n) memory and
    O(n^2) work: about 3.5 and 7 ms for n = 256 and 512 in a fresh process,
    against 10 and 24 ms for numpy's eigenvalue-based ``leggauss``.

    Measured against a 40-digit reference at n = 32, 33, 65, 256, 512 and
    1024: nodes within 2.4e-16 and weights within 1.5e-14 relative, where
    numpy's nodes are within 8e-17 and its endpoint weights are off by up
    to 2.1e-11, 1.1e-10 and 1.2e-9 at n = 256, 512 and 1024.  Nodes stay
    within 2.8e-16 of numpy's up to n = 4096.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    phi = math.pi * (4 * k - 1) / (4 * n + 2)
    tricomi = 1.0 - (n - 1) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * n**4)
    theta = np.arccos(tricomi * np.cos(phi))
    for _ in range(_NEWTON_STEPS):
        p, q = _legendre_pair(theta, n)
        # Newton step for P_n(cos theta) = 0: dP_n/dtheta = n q / sin theta.
        step = p * np.sin(theta) / (n * q)
        theta -= step
        if np.all(np.abs(step) <= 4.0 * _EPS * theta):
            break
    if n % 2:
        theta[-1] = 0.5 * math.pi
    _, q = _legendre_pair(theta, n)
    x = np.cos(theta)
    w = 2.0 * (np.sin(theta) / (n * q)) ** 2
    if n % 2:
        x[-1] = 0.0
    half = n // 2
    return np.concatenate([-x[:half], x[::-1]]), np.concatenate([w[:half], w[::-1]])


def _scaled_gl(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = _leggauss(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * nodes, half * weights


# Weideman's rational approximation of the Faddeeva function: N terms of
# an expansion in Z = (L + iz) / (L - iz), with the scale L = sqrt(N / sqrt(2))
# he recommends.  N = 32 leaves a tiny Re w at large |x| off by 3e-8.
_WEIDEMAN_TERMS = 40
_WEIDEMAN_SCALE = math.sqrt(_WEIDEMAN_TERMS / math.sqrt(2.0))


@lru_cache(maxsize=1)
def _weideman_coefficients() -> tuple[np.complex128, ...]:
    """Expansion coefficients, highest power of Z first, from one FFT.

    They are real, but held as numpy complex scalars: adding one to a
    small complex array takes half the dispatch time of a Python float.
    """
    n, scale = _WEIDEMAN_TERMS, _WEIDEMAN_SCALE
    m = 2 * n
    t = scale * np.tan(0.5 * math.pi * np.arange(1 - m, m) / m)
    f = np.concatenate([[0.0], np.exp(-t * t) * (scale * scale + t * t)])
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return tuple(a[n:0:-1].astype(complex))


def faddeeva(z: np.ndarray | complex) -> np.ndarray | np.complex128:
    """The Faddeeva function w(z) = exp(-z^2) erfc(-iz) for finite z with Im z > 0.

    Weideman's rational approximation with 40 terms (J. A. C. Weideman,
    SIAM J. Numer. Anal. 31 (1994) 1497-1518).  Measured against an
    independent implementation on 2e6 points with |Re z| from 1e-110 to
    1e8 and Im z in [1e-4, 1e4]: within 3e-14 of |w|, Re w within 7e-11
    relative, and Im w within 7e-13 relative for |Re z| <= 1e-3.  A 0-d
    input runs in numpy scalar arithmetic and returns a numpy scalar.
    Raises ``ValueError`` outside the domain.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z) & (z.imag > 0.0)):
        raise ValueError("faddeeva needs finite arguments with positive imaginary part")
    denom = _WEIDEMAN_SCALE - 1j * z
    ratio = (_WEIDEMAN_SCALE + 1j * z) / denom
    coefficients = _weideman_coefficients()
    poly = coefficients[0] * ratio + coefficients[1]
    for c in coefficients[2:]:
        poly *= ratio
        poly += c
    return (2.0 * poly / denom + 1.0 / math.sqrt(math.pi)) / denom


def _transmission(omega: np.ndarray) -> np.ndarray:
    """Single-photon transmission amplitude of the emitter line at the frequencies ``omega``."""
    return omega / (omega + 1j)


def _gaussian_spectrum(omega: np.ndarray, pulse: PulseSpec) -> np.ndarray:
    """Square-normalized Gaussian spectral amplitude g of the pulse."""
    norm = (TWO_PI * pulse.sigma**2) ** -0.25
    return norm * np.exp(-((omega - pulse.delta) ** 2) / (4.0 * pulse.sigma**2))


def _pair_envelope(s: np.ndarray, pulse: PulseSpec) -> np.ndarray:
    """The pulse pair product g(x) g(y) at x = y = s / 2."""
    return np.exp(-((s - 2.0 * pulse.delta) ** 2) / (8.0 * pulse.sigma**2)) / math.sqrt(
        TWO_PI * pulse.sigma**2
    )


def _bound_channel(envelope: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Spectral weight of the bound pair channel at total frequency s.

    Twice the convolution of the pulse with itself against the emitter
    pole, integrated over one constituent frequency.  Completing the
    square in the Gaussian pair product leaves a Gaussian against the
    pole: the weight is -2 pi i times the pair envelope
    ``_pair_envelope(s)`` times the Faddeeva value ``w`` at
    (s/2 + i)/(sqrt(2) sigma).  That argument lies in the upper
    half-plane, so the closed form holds for any finite ``delta`` and
    any ``sigma > 0``.
    """
    return -TWO_PI * 1j * envelope * w


# ---------------------------------------------------------------------------
# Effective interferometer parameters


@dataclass(frozen=True)
class NonlinearParams:
    """Effective circuit parameters extracted from the pair wavefunction.

    ``eta`` is the pair-amplitude norm, ``p_single`` the single-photon
    transmitted norm, ``ell_nl`` the extra pair loss relative to two
    independent photons, and ``r_int * exp(i * theta_int)`` the
    normalized overlap between the pair output and the independent
    product, with ``theta_int`` in (-pi, pi]; ``phi_nl`` folds magnitude
    and phase of the overlap into the single interference phase that
    drives the circuit fringe.
    """

    delta: float
    sigma: float
    eta: float
    p_single: float
    ell_nl: float
    r_int: float
    theta_int: float
    phi_nl: float


def _difference_kernel(a: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """K(a) = int (a^2 - u^2) exp(-u^2 / (2 sigma^2)) / (((a+u)^2 + 1)((a-u)^2 + 1)) du.

    The two photons' transmissions and emitter poles at x = a + u,
    y = a - u against the Gaussian in their frequency difference.
    Partial fractions leave a Gaussian against a pole: with
    z = (a + i) / (sqrt(2) sigma), K = (pi / (2 a)) Re[(1 - 2 a i) w(z) / (a + i)]
    = pi / (2 (a^2 + 1)) ((1 + 2 a^2) Im w / a - Re w).  K is even and
    smooth; its removable 0/0 at a = 0 is taken at |a| = 1e-100, below
    any rounding of the O(a^2) change.  That relies on ``faddeeva``
    resolving Im w near the imaginary axis to relative accuracy: its
    rational approximation keeps Im w within 7e-13 relative for
    |Re z| <= 1e-3, which the tests check against an independent
    implementation.  (The closed-form slope 2/sqrt(pi) - 2 y erfcx(y) of
    Im w would cancel up to nine digits.)  Returns K and the w(z) used.
    """
    a = np.asarray(a, dtype=float)
    a = np.where(np.abs(a) < 1e-100, 1e-100, a)
    w = faddeeva((a + 1j) / (math.sqrt(2.0) * sigma))
    return 0.5 * math.pi / (a**2 + 1.0) * ((1.0 + 2.0 * a**2) * w.imag / a - w.real), w


def _total_frequency_grid(pulse: PulseSpec, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Two Gauss-Legendre panels of ``nodes // 2`` over the total-frequency window.

    They split at s = 0 when the emitter line lies inside the window and
    at its centre otherwise.
    """
    lo = 2.0 * (pulse.delta - _HALF_WIDTH * pulse.sigma)
    hi = 2.0 * (pulse.delta + _HALF_WIDTH * pulse.sigma)
    split = 0.0 if lo < 0.0 < hi else 2.0 * pulse.delta
    left = _scaled_gl(lo, split, nodes // 2)
    right = _scaled_gl(split, hi, nodes // 2)
    return np.concatenate([left[0], right[0]]), np.concatenate([left[1], right[1]])


def _params(pulse: PulseSpec, nodes: int) -> NonlinearParams:
    """Effective parameters of a pulse from integrals on ``nodes`` total-frequency nodes.

    Raises ``QuadratureError`` when rounding takes more than 1e-6 of the
    single-photon norm, or when the folded overlap r cos(theta) leaves
    [-1, 1] by more than 4 ulp.
    """
    # Transmitted single-photon norm: one minus a Voigt profile at the line.
    z = complex(pulse.delta, 1.0) / (math.sqrt(2.0) * pulse.sigma)
    voigt = math.sqrt(0.5 * math.pi) / pulse.sigma * faddeeva(z).real
    p_single = 1.0 - voigt
    # The subtraction keeps the rounding of voigt, a few units of
    # 2**-53 * voigt: at most 6.1 units, measured against adaptive
    # quadrature on 8e4 narrow pulses, and the check allows 16.  Near
    # resonance a narrow pulse leaves p_single ~ sigma**2, so below
    # sigma ~ 4e-5 that rounding is more than 1e-6 of it.
    if not 8.0 * _EPS * voigt <= 1e-6 * p_single:
        raise _unresolved(
            pulse,
            f"the single-photon norm {float(p_single)!r} loses more than 1e-6 of "
            "itself to rounding; the pulse is too narrow this close to the line",
        )
    # Every integral over the frequency difference is a closed form;
    # what is left is one integral over the total frequency s, whose
    # panels split at s = 0 so the width-2 emitter feature resolves.
    s, w_s = _total_frequency_grid(pulse, nodes)
    # The kernel's Faddeeva values serve the bound channel too: their
    # arguments differ only for |s| < 2e-100, which no node hits.
    kernel, w = _difference_kernel(0.5 * s, pulse.sigma)
    envelope = _pair_envelope(s, pulse)
    bound = _bound_channel(envelope, w)
    # Bound term against itself: the emitter poles of the two photons
    # convolve to 2 pi / (s^2 + 4).
    bound_norm = float((np.abs(bound) ** 2 / (s**2 + 4.0)) @ w_s) / TWO_PI
    # Bound term against the independent product.
    product = envelope * kernel
    cross = 1j / TWO_PI * complex((bound * product) @ w_s)
    ff_norm = p_single**2
    eta2 = ff_norm + 2.0 * cross.real + bound_norm
    overlap = ff_norm + cross.conjugate()
    eta = math.sqrt(eta2)
    ell = 1.0 - p_single / eta
    r = abs(overlap) / (eta * p_single)
    if pulse.delta == 0.0:
        # Im(overlap) vanishes by symmetry; its computed value is rounding noise.
        theta = 0.0 if overlap.real >= 0.0 else math.pi
    else:
        theta = math.atan2(overlap.imag, overlap.real)
    # |r cos theta| <= 1 by Cauchy-Schwarz; only rounding may pass 1.
    folded = r * math.cos(theta)
    if not abs(folded) <= 1.0 + 4.0 * _EPS:
        raise _unresolved(
            pulse, f"the folded overlap r cos(theta) = {float(folded)!r} lies outside [-1, 1]"
        )
    phi_nl = math.acos(min(1.0, max(-1.0, folded)))
    return NonlinearParams(
        delta=pulse.delta,
        sigma=pulse.sigma,
        eta=eta,
        p_single=p_single,
        ell_nl=ell,
        r_int=r,
        theta_int=theta,
        phi_nl=phi_nl,
    )


def _check_doubling(drift: float, what: str, pulse: PulseSpec) -> None:
    """Raise ``QuadratureError`` unless node doubling moved a result by at most 1e-6."""
    budget = 1e-6
    if not drift <= budget:
        raise _unresolved(
            pulse,
            f"{what} drift {drift:.2e} under node doubling exceeds the {budget:.0e} "
            f"budget at half_width={_HALF_WIDTH}, nodes={_NODES}; "
            "the pulse lies outside the domain this quadrature resolves",
        )


def nonlinear_params(pulse: PulseSpec) -> NonlinearParams:
    """Extract the effective circuit parameters for a pulse.

    Raises ``QuadratureError`` when the parameters have not settled to
    1e-6 under node doubling.  They settle,
    measured, for ``sigma`` from 0.02 to 1000 at ``delta`` of 0, 5 and
    20, where they agree with an adaptive-quadrature oracle; ``sigma``
    of 3000 and 1e4 raise.  It also raises when rounding takes more than
    1e-6 of the single-photon norm, which near resonance happens for
    ``sigma`` below about 4e-5.
    """
    base = _params(pulse, _NODES)
    fine = _params(pulse, 2 * _NODES)
    drift = max(
        abs(base.eta - fine.eta) / fine.eta,
        abs(base.ell_nl - fine.ell_nl),
        abs(base.phi_nl - fine.phi_nl),
    )
    _check_doubling(drift, "parameter", pulse)
    return base


# ---------------------------------------------------------------------------
# Joint detection-time intensities


def _check_time_window(pulse: PulseSpec, times: np.ndarray) -> None:
    duration = math.sqrt(2.0 * math.log(2.0)) / pulse.sigma
    if duration > float(times.max()):
        warnings.warn(
            f"pulse duration {duration:.2f} lifetimes exceeds the time window "
            f"[{times.min():.2f}, {times.max():.2f}]; intensities will be truncated",
            stacklevel=4,
        )


def _time_amplitude(
    pulse: PulseSpec, nodes: int, times: np.ndarray, a: complex, b: complex
) -> np.ndarray:
    """a psi(t1, t2) + b f(t1) f(t2) from the pair amplitude psi and the wavepacket f.

    At fixed total frequency s the integral over the frequency difference
    has one emitter pole in each half-plane, so psi is exactly
    exp(-|t1 - t2|) g(min(t1, t2)) + f(t1) f(t2) with g(t) = (1/4 pi)
    int ds I(s) exp(-i s t) / (s/2 + i), I the bound channel, and f the
    transform of the transmitted pulse spectrum at x = s/2: two 1D
    transforms on the total-frequency panels.
    """
    s, w_s = _total_frequency_grid(pulse, nodes)
    x = 0.5 * s
    # exp(-i s t) is the square of exp(-i x t): one complex exp for both kernels.
    half = np.exp(-1j * np.outer(times, x))
    f_x = _transmission(x) * _gaussian_spectrum(x, pulse)
    f_t = half @ (0.5 * w_s * f_x) / math.sqrt(TWO_PI)
    z = (x + 1j) / (math.sqrt(2.0) * pulse.sigma)
    channel = _bound_channel(_pair_envelope(s, pulse), faddeeva(z))
    g_t = (half * half) @ (w_s * channel / (x + 1j)) / (2.0 * TWO_PI)
    col, row = times[:, None], times[None, :]
    bound = np.exp(-np.abs(col - row)) * np.where(col <= row, g_t[:, None], g_t[None, :])
    return a * bound + (a + b) * np.outer(f_t, f_t)


def _symmetric_intensity(amplitude: np.ndarray) -> np.ndarray:
    """Intensity of a pair amplitude that is symmetric in exact arithmetic.

    Averaging with the transpose removes product-order rounding of
    f(t1) f(t2), so the returned map is exactly symmetric.
    """
    return np.abs(0.5 * (amplitude + amplitude.T)) ** 2


def _time_map(pulse: PulseSpec, times: np.ndarray | None, a: complex, b: complex) -> np.ndarray:
    """Intensity of ``_time_amplitude``, once it settles under node doubling."""
    times = np.linspace(-8.0, 8.0, 256) if times is None else np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError(f"times must be a 1-D array of at least one time, got shape {times.shape}")
    finite = np.isfinite(times)
    if not finite.all():
        raise ValueError(f"times must be finite, got {float(times[~finite][0])!r}")
    _check_time_window(pulse, times)
    base = _time_amplitude(pulse, _NODES, times, a, b)
    peak = np.max(np.abs(base))
    if peak == 0.0:
        raise _unresolved(
            pulse,
            "the map vanishes on the time grid; the pulse lies outside the "
            "domain this quadrature resolves",
        )
    fine = _time_amplitude(pulse, 2 * _NODES, times, a, b)
    _check_doubling(float(np.max(np.abs(fine - base)) / peak), "map", pulse)
    return _symmetric_intensity(base)


def jti(pulse: PulseSpec, times: np.ndarray | None = None) -> np.ndarray:
    """Joint detection-time intensity of the bare scattered pair.

    Returns the (n, n) density at detection times (``times[i]``,
    ``times[j]``), by default on ``np.linspace(-8, 8, 256)``.  Raises
    ``QuadratureError`` when node doubling moves the pair amplitude by
    more than 1e-6 of its peak, or when the map vanishes because the
    frequency window is narrower than one ulp of twice the pulse center
    (from ``delta`` of about 1e17 at ``sigma`` = 1).  With the default times
    the map resolves, measured, for ``sigma`` from 0.02 to 5 at ``delta``
    of 0, 1 and 5; ``sigma`` of 10 and wider raise.  ``times`` must be a
    1-D array of at least one time, all finite, in any order and spacing;
    otherwise it raises ``ValueError`` naming ``times``.
    """
    return _time_map(pulse, times, 1.0, 0.0)


def circuit_jti(phi: float, pulse: PulseSpec, times: np.ndarray | None = None) -> np.ndarray:
    """Joint detection-time intensity of the both-photons-one-port pattern.

    Its amplitude is ``a * psi + b * f(t1) f(t2)`` at the finite
    interferometer phase ``phi`` (else ``ValueError`` naming ``phi``).
    Takes the times of ``jti``, default included, returns the same
    (n, n) map, resolves over its domain and raises as it does outside it.
    """
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {float(phi)!r}")
    return _time_map(pulse, times, (np.exp(2j * phi) + 1.0) / 4.0, np.exp(1j * phi) / 2.0)


def factorization_residual(intensity: np.ndarray) -> float:
    """Largest deviation from a product of marginals, relative to the peak.

    Zero for a separable intensity; order one when detection times are
    strongly correlated.  ``intensity`` must be a finite 2-D map of
    positive total weight; otherwise it raises ``ValueError`` naming it.
    """
    intensity = np.asarray(intensity, dtype=float)
    if intensity.ndim != 2:
        raise ValueError(f"intensity must be a 2-D map, got shape {intensity.shape}")
    if not np.all(np.isfinite(intensity)):
        raise ValueError("intensity must be finite")
    total = intensity.sum()
    if total <= 0.0:
        raise ValueError("intensity must have positive total weight")
    model = np.outer(intensity.sum(axis=1), intensity.sum(axis=0)) / total
    return float(np.max(np.abs(intensity - model)) / intensity.max())
