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


def wrap_phase(angle: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    wrapped = math.remainder(angle, math.tau)
    if wrapped <= -math.pi:
        wrapped = math.pi
    return wrapped


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

    def to_json_dict(self) -> dict:
        return {
            "nu10": self.nu10,
            "nu01": self.nu01,
            "nu20": self.nu20,
            "nu02": self.nu02,
            "nu11": self.nu11,
            "localization": [[[z.real, z.imag] for z in row] for row in self.localization],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> MoleculeSpec:
        if "localization" in data:
            rows = []
            for row in data["localization"]:
                entries = []
                for z in row:
                    entries.append(complex(z[0], z[1]) if isinstance(z, (list, tuple)) else complex(z))
                rows.append(tuple(entries))
            localization = tuple(rows)
        else:
            localization = _BEAM_SPLITTER_LOCALIZATION
        spec = cls(
            nu10=float(data["nu10"]),
            nu01=float(data["nu01"]),
            nu20=float(data["nu20"]),
            nu02=float(data["nu02"]),
            nu11=float(data["nu11"]),
            localization=localization,
        )
        spec.validate()
        return spec


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


@dataclass(frozen=True)
class StepPhases:
    """Wrapped interferometer phases for one evolution time."""

    phi_lin: float
    phi_nl_0: float
    phi_nl_1: float
    phi_11_residual: float


def step_phases(t: float, spec: MoleculeSpec, harmonic: bool = False) -> StepPhases:
    """Phases accumulated after ``t`` picoseconds of free evolution.

    Each eigenconfiguration picks up exp(-2*pi*i*c*nu*t); the reported
    quantities are the differences that drive the circuit, wrapped to
    (-pi, pi].  With ``harmonic`` the two-excitation frequencies are
    replaced by sums of single-excitation ones, which zeroes the
    nonlinear and residual phases identically.
    """
    spec.validate()
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"evolution time must be non-negative, got {t!r}")
    scale = -_RAD_PER_PS_CM * t
    if harmonic:
        # The substitution nu20 -> 2 nu10 and so on cancels the defect
        # frequencies identically, not just to rounding.
        defects = (0.0, 0.0, 0.0)
    else:
        defects = (
            spec.nu20 - 2.0 * spec.nu10,
            spec.nu02 - 2.0 * spec.nu01,
            spec.nu11 - spec.nu10 - spec.nu01,
        )
    return StepPhases(
        phi_lin=wrap_phase(scale * (spec.nu10 - spec.nu01)),
        phi_nl_0=wrap_phase(scale * defects[0]),
        phi_nl_1=wrap_phase(scale * defects[1]),
        phi_11_residual=wrap_phase(scale * defects[2]),
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
    anharmonic: bool


def _trace_points(
    times: np.ndarray,
    spec: MoleculeSpec,
    harmonic: bool,
    input_mode: int,
) -> list[TracePoint]:
    """Occupancies at every time, from one lifted propagator.

    The pair amplitudes are L^H diag(exp(i theta(t))) L a0, where L is
    the pair lift of the localization unitary and a0 puts both quanta in
    mode ``input_mode``.  Zero time is the identity, so those
    rows carry the input occupancy without rounding residue.
    """
    if input_mode not in (0, 1):
        raise ValueError(f"input_mode must be 0 or 1, got {input_mode!r}")
    spec.validate()
    if harmonic:
        spec = spec.harmonic_variant()
    # diag(th20, th02, th11) over pair configurations, up to the global
    # phase th11: a linear phase of (th20 - th02) / 2 plus a nonlinear
    # phase of (th20 + th02) / 2 - th11 on the doubly occupied entries.
    linear = 0.5 * (spec.nu20 - spec.nu02)
    kerr = 0.5 * (spec.nu20 + spec.nu02 - 2.0 * spec.nu11)
    theta = np.multiply.outer(-_RAD_PER_PS_CM * times, (kerr + linear, kerr - linear, 0.0))
    lift = _pair_lift(spec.matrix)
    # einsum, not @: BLAS takes another kernel for one row than for many,
    # and each row must not depend on how many times share the call.
    amps = np.einsum("tj,jk->tk", np.exp(1j * theta) * lift[:, input_mode], lift.conj())
    weights = np.abs(amps) ** 2
    weights[times == 0.0] = np.eye(3)[input_mode]
    return [
        TracePoint(
            t=float(t),
            p_separate=float(separate),
            p_same_left=float(left),
            p_same_right=float(right),
            anharmonic=not harmonic,
        )
        for t, (left, right, separate) in zip(times, weights)
    ]


def evolve(
    t: float,
    spec: MoleculeSpec,
    harmonic: bool = False,
    input_mode: int = 0,
) -> TracePoint:
    """Evolve two quanta starting in one localized mode.

    ``input_mode`` selects which localized oscillator holds both
    excitations at t = 0.  The evolution is lossless, so the three
    occupancies sum to one up to rounding.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"evolution time must be non-negative, got {t!r}")
    return _trace_points(np.array([float(t)]), spec, harmonic, input_mode)[0]


def trace(
    t_max: float,
    n_steps: int,
    spec: MoleculeSpec,
) -> list[tuple[TracePoint, TracePoint]]:
    """Anharmonic and harmonic traces on a uniform time grid.

    Returns one (anharmonic, harmonic) pair per grid point, with the
    grid spanning [0, t_max] inclusive.
    """
    if n_steps < 2:
        raise ValueError(f"n_steps must be at least 2, got {n_steps!r}")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    times = np.linspace(0.0, t_max, n_steps)
    return list(zip(_trace_points(times, spec, False, 0), _trace_points(times, spec, True, 0)))


def phase_to_detuning(phi_nl_target: float, curve) -> float:
    """Invert a characterized (detuning, nonlinear phase) table.

    ``curve`` is an iterable of sweep entries (anything with ``delta``
    and ``phi_nl`` attributes, or (delta, phi_nl) pairs) covering
    non-negative detunings on which the phase decreases away from
    resonance.  Targets below the far-detuned tail clamp to the last
    tabulated detuning; targets above the resonant maximum raise.
    """
    pairs = []
    for entry in curve:
        if hasattr(entry, "delta"):
            delta, phase = float(entry.delta), float(entry.phi_nl)
        else:
            delta, phase = float(entry[0]), float(entry[1])
        if delta >= 0.0:
            pairs.append((delta, phase))
    if len(pairs) < 2:
        raise ValueError("curve must tabulate at least two non-negative detunings")
    pairs.sort()
    deltas = [d for d, _ in pairs]
    phases = [p for _, p in pairs]
    if any(phases[k + 1] >= phases[k] for k in range(len(pairs) - 1)):
        raise ValueError("curve must be strictly decreasing in phi_nl for increasing detuning")
    if not (math.isfinite(phi_nl_target) and phi_nl_target >= 0.0):
        raise ValueError(f"target phase must be non-negative, got {phi_nl_target!r}")
    if phi_nl_target > phases[0]:
        raise ValueError(
            f"target phase {phi_nl_target!r} exceeds the maximum achievable "
            f"nonlinear phase {phases[0]!r} at zero detuning"
        )
    if phi_nl_target <= phases[-1]:
        return deltas[-1]
    for k in range(len(pairs) - 1):
        if phases[k + 1] <= phi_nl_target <= phases[k]:
            span = phases[k + 1] - phases[k]
            frac = (phi_nl_target - phases[k]) / span
            return deltas[k] + frac * (deltas[k + 1] - deltas[k])
    raise ValueError("target phase does not bracket any table interval")
