"""Two-mode vibrational dynamics mapped onto the photonic circuit.

A pair of coupled stretch oscillators, truncated to two excitation
quanta, evolves freely in its eigenbasis.  Expressed in the localized
basis this is the two-boson lift of the basis-change unitary onto the
pairs (2,0), (0,2), (1,1), a diagonal of per-pair phases (the anharmonic
defects act as a nonlinear phase), and the inverse lift.  Time enters
only through the phase diagonal, so a whole trace is one lossless array
expression over its times.

Frequencies are wavenumbers (inverse centimeters), times picoseconds.
All phases are computed from frequency differences rather than raw
eigenphases: the differences are small, so no precision is lost to
wrapping, and the harmonic variant yields exactly zero nonlinearity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .scatter import SPEED_OF_LIGHT_CM

# Radians accumulated per picosecond and per wavenumber of frequency.
_RAD_PER_PS_CM = 2.0 * math.pi * SPEED_OF_LIGHT_CM * 1e-12
# The largest evolution phase |theta| in radians.  Its rounding, about
# |theta| * 1e-16 rad, stays below 1e-3 rad up to this bound.
_MAX_PHASE = 1e13


@dataclass(frozen=True)
class MoleculeSpec:
    """Eigenfrequencies of a two-mode vibrational ladder.

    ``nu10``/``nu01`` are the single-excitation eigenmode frequencies,
    ``nu20``/``nu02``/``nu11`` the two-excitation ones, all in inverse
    centimeters.  ``localization`` is the unitary taking localized
    modes to eigenmodes, stored row-major as a nested tuple.
    """

    nu10: float
    nu01: float
    nu20: float
    nu02: float
    nu11: float
    localization: tuple[tuple[complex, complex], tuple[complex, complex]]

    def validate(self) -> None:
        for name in ("nu10", "nu01", "nu20", "nu02", "nu11"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a positive frequency, got {value!r}")
        u = self.matrix
        defect = np.max(np.abs(u.conj().T @ u - np.eye(2)))
        if defect > 1e-12:
            raise ValueError(f"localization must be unitary, defect {defect:.3e}")

    @property
    def matrix(self) -> np.ndarray:
        return np.array(self.localization, dtype=complex)

    def harmonic_variant(self) -> MoleculeSpec:
        """The same molecule with two-excitation levels at exact sums."""
        return replace(
            self,
            nu20=2.0 * self.nu10,
            nu02=2.0 * self.nu01,
            nu11=self.nu10 + self.nu01,
        )


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_BEAM_SPLITTER_LOCALIZATION = (
    (complex(_INV_SQRT2), complex(-_INV_SQRT2)),
    (complex(_INV_SQRT2), complex(_INV_SQRT2)),
)


def water_spec() -> MoleculeSpec:
    """The symmetric/antisymmetric OH-stretch ladder of water."""
    return MoleculeSpec(
        nu10=3740.05,
        nu01=3619.68,
        nu20=7391.43,
        nu02=7154.35,
        nu11=7206.46,
        localization=_BEAM_SPLITTER_LOCALIZATION,
    )


def _pair_lift(u: np.ndarray) -> np.ndarray:
    """Lift a 2x2 mode map to the pair basis (2,0), (0,2), (1,1).

    Column j is the image of pair j: both quanta are mapped, and the
    sqrt(2) norms of the doubly occupied pairs are divided out.
    """
    (a, b), (c, d) = u
    r2 = math.sqrt(2.0)
    return np.array(
        [
            [a * a, b * b, r2 * a * b],
            [c * c, d * d, r2 * c * d],
            [r2 * a * c, r2 * b * d, a * d + b * c],
        ]
    )


@dataclass(frozen=True)
class TracePoint:
    """Localized-basis occupancies after one evolution time."""

    t: float
    p_separate: float
    p_same_left: float
    p_same_right: float


def _trace_points(
    times: np.ndarray,
    spec: MoleculeSpec,
    harmonic: bool,
    name: str,
) -> list[TracePoint]:
    """Occupancies at every time, from one lifted propagator.

    The pair amplitudes are L^H diag(exp(i theta(t))) L a0, where L is
    the pair lift of the localization unitary and a0 puts both quanta in
    localized mode 0.  Zero time is the identity, so those
    rows carry the input occupancy without rounding residue.  A phase
    beyond ``_MAX_PHASE`` in magnitude, or not finite, raises
    ``ValueError`` naming the caller's time argument ``name``, whose
    value is the last of ``times``.
    """
    spec.validate()
    if harmonic:
        spec = spec.harmonic_variant()
    # diag(th20, th02, th11) over pair configurations, up to the global
    # phase th11: a linear phase of (th20 - th02) / 2 plus a nonlinear
    # phase of (th20 + th02) / 2 - th11 on the doubly occupied entries.
    linear = 0.5 * (spec.nu20 - spec.nu02)
    kerr = 0.5 * (spec.nu20 + spec.nu02 - 2.0 * spec.nu11)
    with np.errstate(over="ignore", invalid="ignore"):
        theta = np.multiply.outer(-_RAD_PER_PS_CM * times, (kerr + linear, kerr - linear, 0.0))
    if not (np.abs(theta) <= _MAX_PHASE).all():
        raise ValueError(
            f"{name} = {float(times[-1])!r} ps is too long: an evolution phase exceeds "
            f"{_MAX_PHASE:g} rad"
        )
    lift = _pair_lift(spec.matrix)
    # einsum, not @: BLAS takes another kernel for one row than for many,
    # and each row must not depend on how many times share the call.
    amps = np.einsum("tj,jk->tk", np.exp(1j * theta) * lift[:, 0], lift.conj())
    weights = np.abs(amps) ** 2
    weights[times == 0.0] = (1.0, 0.0, 0.0)
    return [
        TracePoint(
            t=float(t),
            p_separate=float(separate),
            p_same_left=float(left),
            p_same_right=float(right),
        )
        for t, (left, right, separate) in zip(times, weights)
    ]


def evolve(
    t: float,
    spec: MoleculeSpec,
    harmonic: bool = False,
) -> TracePoint:
    """Evolve two quanta starting in localized mode 0.

    Both excitations sit in the left oscillator at t = 0; a start in the
    right one is this evolution of the mirrored molecule, whose
    localization has its columns swapped.  The evolution is lossless, so
    the three occupancies sum to one up to rounding.

    The phases grow linearly in ``t`` (about 35 rad/ps for water) and
    each carries a rounding of about |theta| * 1e-16 rad.  Valid domain:
    finite ``t >= 0`` at which every phase is at most 1e13 rad in
    magnitude, so rounds by less than 1e-3 rad; anything else raises
    ``ValueError`` naming ``t``.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"evolution time must be non-negative, got {t!r}")
    return _trace_points(np.array([float(t)]), spec, harmonic, "t")[0]


def trace(
    t_max: float,
    n_steps: int,
    spec: MoleculeSpec,
) -> list[tuple[TracePoint, TracePoint]]:
    """Anharmonic and harmonic traces on a uniform time grid.

    Returns one (anharmonic, harmonic) pair per grid point, with the
    grid spanning [0, t_max] inclusive.

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
    return list(
        zip(_trace_points(times, spec, False, "t_max"), _trace_points(times, spec, True, "t_max"))
    )
