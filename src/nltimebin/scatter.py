"""Gaussian pulse scattering off a single two-level emitter.

Everything is expressed in natural units: frequencies are angular
detunings from the emitter line multiplied by its lifetime, times are
in units of the lifetime.  A single photon scatters with amplitude
``omega / (omega + i)``; a photon pair additionally populates a bound
two-photon channel whose spectral weight is concentrated along the
total-frequency diagonal.  This module evaluates the pair output
wavefunction, reduces it to the effective interferometer parameters
(transmission, pair loss, nonlinear phase), and produces joint
detection-time intensities.

The bound channel is a closed form in the Faddeeva function, and so are
the single-photon norm (a Voigt profile) and every integral over the
frequency difference of the two photons.  ``faddeeva`` evaluates it in
numpy by Weideman's rational approximation; every argument the module
passes lies in the upper half-plane, where that approximation holds.
The pair norm and overlap are then one-dimensional integrals over the
total frequency, taken by Gauss-Legendre quadrature on two panels split
at the emitter line; node doubling certifies convergence.  Time maps are
transformed from a Gauss-Legendre frequency grid.
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


@dataclass(frozen=True)
class EmitterFrame:
    """Emitter lifetime anchoring the natural unit system.

    ``lifetime_ps`` converts laboratory quantities into the
    dimensionless frequencies used everywhere else: an angular
    frequency maps to itself times the lifetime.
    """

    lifetime_ps: float = 155.5

    def validate(self) -> None:
        if not (math.isfinite(self.lifetime_ps) and self.lifetime_ps > 0.0):
            raise ValueError(f"lifetime_ps must be positive, got {self.lifetime_ps!r}")

    @property
    def lifetime_s(self) -> float:
        return self.lifetime_ps * 1e-12

    def from_ghz(self, frequency_ghz: float) -> float:
        """Dimensionless detuning of an ordinary frequency in GHz."""
        self.validate()
        return TWO_PI * frequency_ghz * 1e9 * self.lifetime_s

    def from_wavenumber(self, wavenumber_inv_cm: float) -> float:
        """Dimensionless detuning of a spectroscopic wavenumber in 1/cm."""
        self.validate()
        return TWO_PI * SPEED_OF_LIGHT_CM * wavenumber_inv_cm * self.lifetime_s

    def sigma_from_fwhm_ps(self, duration_ps: float) -> float:
        """Spectral width of a pulse given its intensity FWHM duration."""
        self.validate()
        if not (math.isfinite(duration_ps) and duration_ps > 0.0):
            raise ValueError(f"duration_ps must be positive, got {duration_ps!r}")
        return math.sqrt(2.0 * math.log(2.0)) * self.lifetime_ps / duration_ps


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian pulse: center detuning and spectral width, natural units.

    Any finite ``delta`` and ``sigma > 0`` is valid input.  At the default
    quadrature the effective parameters resolve, measured, for
    ``sigma`` from 0.02 to 1000 at ``delta`` of 0, 5 and 20; ``sigma`` of
    3000 and 1e4 raise ``QuadratureError`` there.
    """

    delta: float
    sigma: float

    def validate(self) -> None:
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")


@dataclass(frozen=True)
class QuadratureConfig:
    """Frequency-integration window (in pulse widths) and node count.

    ``nonlinear_params`` and ``full_statistics`` integrate over the total
    frequency s = x + y within ``2 * half_width`` pulse widths of twice
    the pulse center; ``nodes`` counts those s-grid nodes, split into two
    Gauss-Legendre panels of ``nodes // 2`` at the emitter line s = 0
    (at the window centre when the line lies outside).  ``nodes`` also
    sizes the frequency grid that ``jti`` and ``circuit_jti`` transform
    to detection times.  The bound channel, the single-photon norm and
    the integrals over the frequency difference are closed forms.
    """

    half_width: float = 8.0
    nodes: int = 512

    def validate(self) -> None:
        if not (math.isfinite(self.half_width) and self.half_width >= 6.0):
            raise ValueError(
                f"half_width must be at least 6 pulse widths, got {self.half_width!r}"
            )
        if self.nodes < 64:
            raise ValueError(f"nodes must be at least 64, got {self.nodes!r}")


DEFAULT_QUADRATURE = QuadratureConfig()


class QuadratureError(RuntimeError):
    """Raised when node doubling moves the extracted parameters."""


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


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


def transmission_coefficient(omega: np.ndarray | float) -> np.ndarray | complex:
    """Single-photon transmission amplitude of the emitter line."""
    omega = np.asarray(omega, dtype=float)
    result = omega / (omega + 1j)
    return complex(result) if result.ndim == 0 else result


def gaussian_spectrum(omega: np.ndarray | float, pulse: PulseSpec) -> np.ndarray | float:
    """Square-normalized Gaussian spectral amplitude of the pulse."""
    pulse.validate()
    omega = np.asarray(omega, dtype=float)
    norm = (TWO_PI * pulse.sigma**2) ** -0.25
    result = norm * np.exp(-((omega - pulse.delta) ** 2) / (4.0 * pulse.sigma**2))
    return float(result) if result.ndim == 0 else result


def _pair_envelope(s: np.ndarray, pulse: PulseSpec) -> np.ndarray:
    """The pulse pair product g(x) g(y) at x = y = s / 2."""
    return np.exp(-((s - 2.0 * pulse.delta) ** 2) / (8.0 * pulse.sigma**2)) / math.sqrt(
        TWO_PI * pulse.sigma**2
    )


def bound_channel_integral(s: np.ndarray | float, pulse: PulseSpec) -> np.ndarray | complex:
    """Spectral weight of the bound pair channel at total frequency ``s``.

    Twice the convolution of the pulse with itself against the emitter
    pole, integrated over one constituent frequency.  Completing the
    square in the Gaussian pair product leaves a Gaussian against the
    pole, which is the Faddeeva function at (s/2 + i)/(sqrt(2) sigma).
    That argument lies in the upper half-plane, so the closed form holds
    for any finite ``delta`` and any ``sigma > 0``.
    """
    pulse.validate()
    s = np.asarray(s, dtype=float)
    z = (0.5 * s + 1j) / (math.sqrt(2.0) * pulse.sigma)
    values = -TWO_PI * 1j * _pair_envelope(s, pulse) * faddeeva(z)
    return complex(values) if values.ndim == 0 else values


def _pair_terms(
    x: np.ndarray, y: np.ndarray, weight: np.ndarray, pulse: PulseSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Independent product and bound term of the pair amplitude at ``(x, y)``.

    ``weight`` is the bound-channel weight at the total frequency ``x + y``.
    Both terms share the emitter poles: t(x) t(y) = x y / ((x + i)(y + i)).
    """
    pole = 1.0 / ((x + 1j) * (y + 1j))
    product = (x * y) * (gaussian_spectrum(x, pulse) * gaussian_spectrum(y, pulse)) * pole
    return product, (1j / TWO_PI) * weight * pole


def two_photon_output(
    x: np.ndarray | float,
    y: np.ndarray | float,
    pulse: PulseSpec,
) -> np.ndarray | complex:
    """Pair output amplitude at constituent frequencies ``(x, y)``.

    Sum of the independently transmitted product and the bound-channel
    term; symmetric under exchange of its frequency arguments.  A closed
    form, valid for any finite ``delta`` and any ``sigma > 0``.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    # Evaluate on the ordered pair so exchange symmetry holds bitwise;
    # fused multiplies in the array loop would otherwise round the two
    # argument orders differently.
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    product, bound = _pair_terms(lo, hi, bound_channel_integral(lo + hi, pulse), pulse)
    result = product + bound
    return complex(result) if result.ndim == 0 else result


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


def _total_frequency_grid(
    pulse: PulseSpec, quad: QuadratureConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Two Gauss-Legendre panels of ``nodes // 2`` over the total-frequency window.

    They split at s = 0 when the emitter line lies inside the window and
    at its centre otherwise.
    """
    lo = 2.0 * (pulse.delta - quad.half_width * pulse.sigma)
    hi = 2.0 * (pulse.delta + quad.half_width * pulse.sigma)
    split = 0.0 if lo < 0.0 < hi else 2.0 * pulse.delta
    left = _scaled_gl(lo, split, quad.nodes // 2)
    right = _scaled_gl(split, hi, quad.nodes // 2)
    return np.concatenate([left[0], right[0]]), np.concatenate([left[1], right[1]])


class _Profile:
    """Pulse integrals that the parameters and the fringe are read from.

    ``p_single`` is the transmitted single-photon norm, ``eta2`` the
    squared pair norm and ``overlap`` the projection of the pair output
    onto the independent product, whose squared norm is ``p_single**2``.
    """

    __slots__ = ("p_single", "eta2", "overlap")

    def __init__(self, pulse: PulseSpec, quad: QuadratureConfig) -> None:
        # Transmitted single-photon norm: one minus a Voigt profile at the line.
        z = complex(pulse.delta, 1.0) / (math.sqrt(2.0) * pulse.sigma)
        self.p_single = 1.0 - math.sqrt(0.5 * math.pi) / pulse.sigma * faddeeva(z).real
        # Every integral over the frequency difference is a closed form;
        # what is left is one integral over the total frequency s, whose
        # panels split at s = 0 so the width-2 emitter feature resolves.
        s, w_s = _total_frequency_grid(pulse, quad)
        # The kernel's Faddeeva values serve ``bound_channel_integral`` too:
        # their arguments differ only for |s| < 2e-100, which no node hits.
        kernel, w = _difference_kernel(0.5 * s, pulse.sigma)
        envelope = _pair_envelope(s, pulse)
        bound = -TWO_PI * 1j * envelope * w
        # Bound term against itself: the emitter poles of the two photons
        # convolve to 2 pi / (s^2 + 4).
        bound_norm = float((np.abs(bound) ** 2 / (s**2 + 4.0)) @ w_s) / TWO_PI
        # Bound term against the independent product.
        product = envelope * kernel
        cross = 1j / TWO_PI * complex((bound * product) @ w_s)
        ff_norm = self.p_single**2
        self.eta2 = ff_norm + 2.0 * cross.real + bound_norm
        self.overlap = ff_norm + cross.conjugate()


@lru_cache(maxsize=8)
def _profile(pulse: PulseSpec, quad: QuadratureConfig) -> _Profile:
    pulse.validate()
    quad.validate()
    return _Profile(pulse, quad)


def _params_from_profile(pulse: PulseSpec, prof: _Profile) -> NonlinearParams:
    eta = math.sqrt(prof.eta2)
    p1 = prof.p_single
    ell = 1.0 - p1 / eta
    r = abs(prof.overlap) / (eta * p1)
    theta = math.atan2(prof.overlap.imag, prof.overlap.real)
    if theta == -math.pi:
        # (-pi, pi], as vibsim.wrap_phase: at delta = 0 Im(overlap)
        # vanishes exactly and only its rounding sign picks -pi.
        theta = math.pi
    phi_nl = math.acos(min(1.0, max(-1.0, r * math.cos(theta))))
    return NonlinearParams(
        delta=pulse.delta,
        sigma=pulse.sigma,
        eta=eta,
        p_single=p1,
        ell_nl=ell,
        r_int=r,
        theta_int=theta,
        phi_nl=phi_nl,
    )


def _checked_profile(pulse: PulseSpec, quad: QuadratureConfig) -> _Profile:
    """The pulse profile, once its parameters settle under node doubling.

    Raises ``QuadratureError`` when the extracted parameters move by
    more than 1e-6 at doubled node count, which points at a window too
    narrow or too coarse for the requested pulse.
    """
    prof = _profile(pulse, quad)
    base = _params_from_profile(pulse, prof)
    doubled = QuadratureConfig(half_width=quad.half_width, nodes=2 * quad.nodes)
    fine = _params_from_profile(pulse, _profile(pulse, doubled))
    drift = max(
        abs(base.eta - fine.eta) / fine.eta,
        abs(base.ell_nl - fine.ell_nl),
        abs(base.phi_nl - fine.phi_nl),
    )
    budget = 1e-6
    if drift > budget:
        raise QuadratureError(
            f"pulse delta={float(pulse.delta)!r}, sigma={float(pulse.sigma)!r}: "
            f"parameter drift {drift:.2e} under node doubling exceeds the {budget:.0e} "
            f"budget at half_width={quad.half_width}, nodes={quad.nodes}; "
            "widen the window or increase nodes"
        )
    return prof


def nonlinear_params(
    pulse: PulseSpec,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
) -> NonlinearParams:
    """Extract the effective circuit parameters for a pulse.

    Raises ``QuadratureError`` when the parameters have not settled to
    1e-6 under node doubling.  With the default quadrature they settle,
    measured, for ``sigma`` from 0.02 to 1000 at ``delta`` of 0, 5 and
    20, where they agree with an adaptive-quadrature oracle; ``sigma``
    of 3000 and 1e4 raise.
    """
    return _params_from_profile(pulse, _checked_profile(pulse, quad))


def parameter_sweep(
    pulses: list[PulseSpec],
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
) -> list[NonlinearParams]:
    """Effective parameters for a sequence of pulses."""
    return [nonlinear_params(pulse, quad) for pulse in pulses]


def full_statistics(
    phis: np.ndarray | float,
    pulse: PulseSpec,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
) -> np.ndarray:
    """Raw output-pattern probabilities of the full spectral model.

    The both-photons-one-port patterns carry the amplitude
    ``a * psi2 +/- b * ff`` of the pair wavefunction and the independent
    product.  Its squared norm expands into three pulse integrals, the
    two squared norms and the overlap, so every phase is exact without a
    grid sum of its own; nothing is reduced to the effective parameters
    first.  Returns an array of rows (p20, p11, p02).  Raises
    ``QuadratureError`` for a pulse whose profile is not resolved, like
    ``nonlinear_params``.
    """
    prof = _checked_profile(pulse, quad)
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    a = (np.exp(2j * phis) + 1.0) / 4.0
    b = np.exp(1j * phis) / 2.0
    c = (np.exp(2j * phis) - 1.0) / (2.0 * math.sqrt(2.0))
    norms = np.abs(a) ** 2 * prof.eta2 + np.abs(b) ** 2 * prof.p_single**2
    cross = 2.0 * np.real(np.conj(a) * b * prof.overlap)
    return np.stack([norms + cross, prof.eta2 * np.abs(c) ** 2, norms - cross], axis=1)


# ---------------------------------------------------------------------------
# Joint detection-time intensities


@dataclass(frozen=True)
class JointTimeIntensity:
    """Joint two-photon detection-time distribution on a uniform grid."""

    times: np.ndarray
    intensity: np.ndarray

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def total(self) -> float:
        return float(self.intensity.sum() * self.step**2)


def _default_times() -> np.ndarray:
    return np.linspace(-8.0, 8.0, 256)


def _check_time_window(pulse: PulseSpec, times: np.ndarray) -> None:
    duration = math.sqrt(2.0 * math.log(2.0)) / pulse.sigma
    if duration > float(times.max()):
        warnings.warn(
            f"pulse duration {duration:.2f} lifetimes exceeds the time window "
            f"[{times.min():.2f}, {times.max():.2f}]; intensities will be truncated",
            stacklevel=3,
        )


def _time_amplitudes(
    pulse: PulseSpec,
    quad: QuadratureConfig,
    times: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pair amplitude on the time grid and the single-photon wavepacket."""
    pulse.validate()
    quad.validate()
    hw = quad.half_width * pulse.sigma
    x, w_x = _scaled_gl(pulse.delta - hw, pulse.delta + hw, quad.nodes)
    f_x = transmission_coefficient(x) * gaussian_spectrum(x, pulse)
    col, row = x[:, None], x[None, :]
    product, bound = _pair_terms(col, row, bound_channel_integral(col + row, pulse), pulse)

    phases = np.exp(-1j * np.outer(times, x)) * w_x[None, :]
    psi_t = phases @ (product + bound) @ phases.T / TWO_PI
    f_t = (phases @ f_x) / math.sqrt(TWO_PI)
    return psi_t, f_t


def _symmetric_intensity(amplitude: np.ndarray) -> np.ndarray:
    """Intensity of a pair amplitude that is symmetric in exact arithmetic.

    Averaging with the transpose removes summation-order and product-order
    rounding, so the returned map is exactly symmetric.
    """
    return np.abs(0.5 * (amplitude + amplitude.T)) ** 2


def jti(
    pulse: PulseSpec,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
    times: np.ndarray | None = None,
) -> JointTimeIntensity:
    """Joint detection-time intensity of the bare scattered pair."""
    if times is None:
        times = _default_times()
    times = np.asarray(times, dtype=float)
    _check_time_window(pulse, times)
    psi_t, _ = _time_amplitudes(pulse, quad, times)
    return JointTimeIntensity(times=times, intensity=_symmetric_intensity(psi_t))


def circuit_jti(
    phi: float,
    pulse: PulseSpec,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
    times: np.ndarray | None = None,
) -> JointTimeIntensity:
    """Joint detection-time intensity of the both-photons-one-port pattern."""
    if times is None:
        times = _default_times()
    times = np.asarray(times, dtype=float)
    _check_time_window(pulse, times)
    psi_t, f_t = _time_amplitudes(pulse, quad, times)
    a = (np.exp(2j * phi) + 1.0) / 4.0
    b = np.exp(1j * phi) / 2.0
    amplitude = a * psi_t + b * np.outer(f_t, f_t)
    return JointTimeIntensity(times=times, intensity=_symmetric_intensity(amplitude))


def factorization_residual(intensity: np.ndarray) -> float:
    """Largest deviation from a product of marginals, relative to the peak.

    Zero for a separable intensity; order one when detection times are
    strongly correlated.
    """
    intensity = np.asarray(intensity, dtype=float)
    total = intensity.sum()
    if total <= 0.0:
        raise ValueError("intensity must have positive total weight")
    model = np.outer(intensity.sum(axis=1), intensity.sum(axis=0)) / total
    return float(np.max(np.abs(intensity - model)) / intensity.max())
