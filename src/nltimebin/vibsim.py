"""Two-mode vibrational dynamics run on the photonic circuit.

A pair of coupled stretch oscillators, truncated to two excitation
quanta, evolves freely in its eigenbasis.  With water's balanced
localization (the localized modes are the even and odd combinations of
the eigenmodes) that evolution is the nonlinear interferometer of
``circuit`` at zero pair loss: the pair phases give a linear phase
phi(t) = -2 pi c t (nu20 - nu02) / 2 and a nonlinear phase
phi_K(t) = -2 pi c t ((nu20 + nu02) / 2 - nu11), and the occupancies
(same-left, separate, same-right) are ``circuit.model_triple``'s
(p20, p11, p02) at those phases.  A whole trace is one call per model.

Frequencies are wavenumbers (inverse centimeters), times picoseconds.
Both phases are computed from frequency differences rather than raw
eigenphases: the differences are small, so no precision is lost to
wrapping, and the harmonic variant yields exactly zero nonlinearity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import circuit
from .scatter import SPEED_OF_LIGHT_CM

# Radians accumulated per picosecond and per wavenumber of frequency.
_RAD_PER_PS_CM = 2.0 * math.pi * SPEED_OF_LIGHT_CM * 1e-12
# The largest evolution phase |theta| in radians.  Its rounding, about
# |theta| * 1e-16 rad, stays below 1e-3 rad up to this bound.
_MAX_PHASE = 1e13


@dataclass(frozen=True)
class MoleculeSpec:
    """Eigenfrequencies of a two-mode vibrational ladder with a balanced localization.

    ``nu10``/``nu01`` are the single-excitation eigenmode frequencies,
    ``nu20``/``nu02``/``nu11`` the two-excitation ones, all in inverse
    centimeters.  The localized modes are the even and odd combinations
    of the two eigenmodes, as for water's two OH stretches.  Construction
    rejects a frequency that is not finite and positive.
    """

    nu10: float
    nu01: float
    nu20: float
    nu02: float
    nu11: float

    def __post_init__(self) -> None:
        for name in ("nu10", "nu01", "nu20", "nu02", "nu11"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a positive frequency, got {value!r}")

    def harmonic_variant(self) -> MoleculeSpec:
        """The same molecule with two-excitation levels at exact sums."""
        return replace(
            self,
            nu20=2.0 * self.nu10,
            nu02=2.0 * self.nu01,
            nu11=self.nu10 + self.nu01,
        )


def water_spec() -> MoleculeSpec:
    """The symmetric/antisymmetric OH-stretch ladder of water."""
    return MoleculeSpec(nu10=3740.05, nu01=3619.68, nu20=7391.43, nu02=7154.35, nu11=7206.46)


@dataclass(frozen=True)
class TracePoint:
    """Localized-basis occupancies after one evolution time."""

    t: float
    p_separate: float
    p_same_left: float
    p_same_right: float


def _trace_points(times: np.ndarray, spec: MoleculeSpec) -> list[TracePoint]:
    """Occupancies at every time, both quanta starting in the left mode.

    The pair phases are theta20 = phi_K + phi and theta02 = phi_K - phi
    up to the global phase theta11.  One of them beyond ``_MAX_PHASE``
    in magnitude raises ``ValueError`` naming ``t_max``, the last of
    ``times``.
    """
    linear = 0.5 * (spec.nu20 - spec.nu02)
    kerr = 0.5 * (spec.nu20 + spec.nu02) - spec.nu11
    with np.errstate(over="ignore"):
        phi = -_RAD_PER_PS_CM * times * linear
        phi_nl = -_RAD_PER_PS_CM * times * kerr
        largest = np.abs(phi) + np.abs(phi_nl)
    if not (largest <= _MAX_PHASE).all():
        raise ValueError(
            f"t_max = {float(times[-1])!r} ps is too long: an evolution phase exceeds "
            f"{_MAX_PHASE:g} rad"
        )
    weights = circuit.model_triple(phi, phi_nl, 0.0)
    return [
        TracePoint(
            t=float(t),
            p_separate=float(separate),
            p_same_left=float(left),
            p_same_right=float(right),
        )
        for t, (left, separate, right) in zip(times, weights)
    ]


def trace(
    t_max: float,
    n_steps: int,
    spec: MoleculeSpec,
) -> list[tuple[TracePoint, TracePoint]]:
    """Anharmonic and harmonic traces on a uniform time grid.

    Returns one (anharmonic, harmonic) pair per grid point, with the
    grid spanning [0, t_max] inclusive.  Both quanta sit in the left
    oscillator at t = 0, where the occupancies are exactly (1, 0, 0).
    The evolution is lossless, so the three occupancies sum to one up
    to rounding.

    The phases grow linearly in time (about 35 rad/ps for water) and
    each carries a rounding of about |theta| * 1e-16 rad.  Valid domain:
    ``n_steps >= 2`` and finite ``t_max > 0`` at which every phase is at
    most 1e13 rad in magnitude, so rounds by less than 1e-3 rad; anything
    else raises ``ValueError`` naming the parameter.
    """
    if n_steps < 2:
        raise ValueError(f"n_steps must be at least 2, got {n_steps!r}")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    times = np.linspace(0.0, t_max, n_steps)
    return list(zip(_trace_points(times, spec), _trace_points(times, spec.harmonic_variant())))
