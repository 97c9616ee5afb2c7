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

The bound channel is a closed form in the Faddeeva function.  The pair
norm and overlap use Gauss-Legendre quadrature: they involve a Lorentzian
tail in the frequency difference, which a tangent change of variables
turns into a smooth integrand on a finite interval; node doubling then
certifies convergence.  Time maps are transformed from a Gauss-Legendre
frequency grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import wofz

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
    """Gaussian pulse: center detuning and spectral width, natural units."""

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

    Sets the rotated pair grid that ``nonlinear_params`` and
    ``full_statistics`` integrate on, and the frequency grid that ``jti``
    and ``circuit_jti`` transform to detection times.  The bound channel
    is a closed form and takes no quadrature.
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
    envelope = np.exp(-((s - 2.0 * pulse.delta) ** 2) / (8.0 * pulse.sigma**2)) / math.sqrt(
        TWO_PI * pulse.sigma**2
    )
    values = -TWO_PI * 1j * envelope * wofz((0.5 * s + 1j) / (math.sqrt(2.0) * pulse.sigma))
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
    product; ``phi_nl`` folds magnitude and phase of the overlap into
    the single interference phase that drives the circuit fringe.
    """

    delta: float
    sigma: float
    eta: float
    p_single: float
    ell_nl: float
    r_int: float
    theta_int: float
    phi_nl: float


class _Profile:
    """Pulse integrals that the parameters and the fringe are read from.

    ``p_single`` is the transmitted single-photon norm.  On the rotated
    pair grid, ``eta2`` is the squared pair norm, ``ff_norm`` the squared
    norm of the independent product and ``overlap`` the projection of the
    pair output onto that product.
    """

    __slots__ = ("p_single", "eta2", "ff_norm", "overlap")

    def __init__(self, pulse: PulseSpec, quad: QuadratureConfig) -> None:
        hw = quad.half_width * pulse.sigma
        # Single-photon line and transmitted norm.
        nu, w_nu = _scaled_gl(pulse.delta - hw, pulse.delta + hw, quad.nodes)
        f_line = transmission_coefficient(nu) * gaussian_spectrum(nu, pulse)
        self.p_single = float(np.abs(f_line) ** 2 @ w_nu)

        # Rotated grid: Gauss-Legendre in the total frequency, tangent
        # map in the difference so the Lorentzian tails become smooth.
        s, w_s = _scaled_gl(2.0 * pulse.delta - 2.0 * hw, 2.0 * pulse.delta + 2.0 * hw, quad.nodes)
        u, w_u = _scaled_gl(-0.5 * math.pi, 0.5 * math.pi, quad.nodes)
        d = 2.0 * np.tan(u)
        w_d = 2.0 * w_u / np.cos(u) ** 2
        x = 0.5 * (s[:, None] + d[None, :])
        y = 0.5 * (s[:, None] - d[None, :])
        weights = 0.5 * w_s[:, None] * w_d[None, :]

        # The bound channel depends on the total frequency alone, so it is
        # evaluated once per grid row.
        ff, bound = _pair_terms(x, y, bound_channel_integral(s, pulse)[:, None], pulse)
        psi2 = ff + bound
        self.eta2 = float(np.sum(weights * np.abs(psi2) ** 2))
        self.ff_norm = float(np.sum(weights * np.abs(ff) ** 2))
        self.overlap = complex(np.sum(weights * np.conj(psi2) * ff))


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
    if drift > 1e-6:
        raise QuadratureError(
            f"parameter drift {drift:.2e} under node doubling at "
            f"half_width={quad.half_width}, nodes={quad.nodes}; "
            "widen the window or increase nodes"
        )
    return prof


def nonlinear_params(
    pulse: PulseSpec,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
) -> NonlinearParams:
    """Extract the effective circuit parameters for a pulse.

    Raises ``QuadratureError`` when the parameters have not settled to
    1e-6 under node doubling.
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
    product.  Its squared norm expands into three integrals over the
    quadrature grid, the two squared norms and the overlap, so every
    phase is exact without a grid sum of its own; nothing is reduced to
    the effective parameters first.  Returns an array of rows
    (p20, p11, p02).  Raises ``QuadratureError`` for a pulse whose
    profile is not resolved, like ``nonlinear_params``.
    """
    prof = _checked_profile(pulse, quad)
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    a = (np.exp(2j * phis) + 1.0) / 4.0
    b = np.exp(1j * phis) / 2.0
    c = (np.exp(2j * phis) - 1.0) / (2.0 * math.sqrt(2.0))
    norms = np.abs(a) ** 2 * prof.eta2 + np.abs(b) ** 2 * prof.ff_norm
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
