"""Exact two-photon amplitude evolution on four optical modes.

The circuit acts on two time-bin modes, early (index 0) and late
(index 1), plus one orthogonal ancilla copy of each (indices 2 and 3)
used to model partially distinguishable photons.  A two-photon state
is a vector of ten complex amplitudes, one per occupation
configuration.  The splitter and distinguishability layers are 10x10
transfer matrices obtained by lifting a single-particle mode map to the
two-boson space with precomputed index arrays.  The linear-phase and
nonlinear layers are diagonal in the configuration basis: they scale
each amplitude by a factor and build no matrix, so a phase sweep is one
array of factors rather than one lifted matrix per phase.

This module is the brute-force reference for the closed-form output
statistics implemented elsewhere: it makes no algebraic simplification
beyond the truncation to exactly two photons (one- and zero-photon
components produced by loss are tracked only through the missing norm,
since detection post-selects on two clicks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MODE_EARLY = 0
MODE_LATE = 1
MODE_EARLY_ANCILLA = 2
MODE_LATE_ANCILLA = 3

MODE_NAMES = ("early", "late", "early_ancilla", "late_ancilla")

# Canonical ordering of the ten two-photon occupation configurations
# over (early, late, early_ancilla, late_ancilla): the three
# ancilla-free configurations first, then the ancilla-involving ones in
# descending lexicographic order.  Fixtures index into this tuple, so
# the order is frozen.
CONFIGURATIONS: tuple[tuple[int, int, int, int], ...] = (
    (2, 0, 0, 0),
    (0, 2, 0, 0),
    (1, 1, 0, 0),
    (1, 0, 1, 0),
    (1, 0, 0, 1),
    (0, 1, 1, 0),
    (0, 1, 0, 1),
    (0, 0, 2, 0),
    (0, 0, 1, 1),
    (0, 0, 0, 2),
)

N_CONFIGURATIONS = len(CONFIGURATIONS)

# Each configuration as the unordered pair (i <= j) of occupied modes.
_PAIRS: tuple[tuple[int, int], ...] = tuple(
    tuple(sorted(m for m in range(4) for _ in range(occ[m])))
    for occ in CONFIGURATIONS
)
_CONFIG_INDEX = {pair: idx for idx, pair in enumerate(_PAIRS)}

# Time bin of each mode: ancilla copies live in the same bin as their
# physical partner.
_BIN = (0, 1, 0, 1)

# Per-configuration index arrays: the two occupied modes, the norm
# sqrt(2) of a doubly occupied pair, the number of early-bin photons,
# whether both photons share a bin, and the click pattern (number of
# late-bin photons) that indexes (p20, p11, p02).
_FIRST, _SECOND = (np.array(modes) for modes in zip(*_PAIRS))
_PAIR_NORM = np.where(_FIRST == _SECOND, math.sqrt(2.0), 1.0)
_LIFT_NORM = np.outer(_PAIR_NORM, _PAIR_NORM)
_LATE = np.take(_BIN, _FIRST) + np.take(_BIN, _SECOND)
_N_EARLY = 2 - _LATE
_SAME_BIN = _LATE != 1
_CLICK_BINNING = np.eye(3)[_LATE]

NORM_EPSILON = 1e-12
DEGENERATE_TOTAL = 1e-15

LAYER_KINDS = (
    "beam_splitter_first",
    "beam_splitter_second",
    "linear_phase",
    "nonlinear",
    "distinguishability",
)


class DegenerateStateError(ValueError):
    """Raised when a state has lost essentially all two-photon weight."""


@dataclass(frozen=True)
class LayerSpec:
    """One circuit layer.

    Only the fields relevant to ``kind`` are read; the rest keep their
    identity defaults.
    """

    kind: str
    phi: float = 0.0
    phi_nl: float = 0.0
    ell_nl: float = 0.0
    eta: float = 1.0
    theta_perp: float = 0.0

    def validate(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        for name in ("phi", "phi_nl", "ell_nl", "eta", "theta_perp"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"layer parameter {name} must be finite, got {value!r}")
        if not 0.0 <= self.ell_nl <= 1.0:
            raise ValueError(f"ell_nl must be in [0, 1], got {self.ell_nl!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta!r}")


def beam_splitter_first() -> LayerSpec:
    return LayerSpec(kind="beam_splitter_first")


def beam_splitter_second() -> LayerSpec:
    return LayerSpec(kind="beam_splitter_second")


def linear_phase(phi: float) -> LayerSpec:
    return LayerSpec(kind="linear_phase", phi=phi)


def nonlinear(phi_nl: float, ell_nl: float, eta: float = 1.0) -> LayerSpec:
    return LayerSpec(kind="nonlinear", phi_nl=phi_nl, ell_nl=ell_nl, eta=eta)


def distinguishability(theta_perp: float) -> LayerSpec:
    return LayerSpec(kind="distinguishability", theta_perp=theta_perp)


@dataclass(frozen=True)
class TwoPhotonState:
    """Amplitudes over the ten canonical configurations."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (N_CONFIGURATIONS,):
            raise ValueError(f"expected {N_CONFIGURATIONS} amplitudes, got shape {amps.shape}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def amplitude(self, occupation: tuple[int, int, int, int]) -> complex:
        return complex(self.amplitudes[CONFIGURATIONS.index(occupation)])


@dataclass(frozen=True)
class DetectionProbabilities:
    """Raw and renormalized probabilities of the three click patterns.

    ``renormalized`` is None when the raw total is below
    ``DEGENERATE_TOTAL``, signalling a degenerate (fully lost) input.
    """

    raw: tuple[float, float, float]
    renormalized: tuple[float, float, float] | None

    @property
    def total(self) -> float:
        return sum(self.raw)

    @classmethod
    def from_raw(cls, raw: np.ndarray) -> DetectionProbabilities:
        """Renormalize three raw weights, or flag a degenerate total."""
        raw_t = tuple(float(p) for p in raw)
        total = sum(raw_t)
        if total < DEGENERATE_TOTAL:
            return cls(raw=raw_t, renormalized=None)
        return cls(raw=raw_t, renormalized=tuple(p / total for p in raw_t))


def new_input() -> TwoPhotonState:
    """Two photons in the early bin, the circuit's standard input."""
    amps = np.zeros(N_CONFIGURATIONS, dtype=complex)
    amps[_CONFIG_INDEX[(0, 0)]] = 1.0
    return TwoPhotonState(amps)


def _two_boson_transfer(single: np.ndarray) -> np.ndarray:
    """Lift a 4x4 single-particle mode map to the 10-dim pair space.

    ``single[k, i]`` is the coefficient of mode k in the image of mode
    i's creation operator.  Entry (row, col) maps the pair (i, j) of
    column configuration to the pair (k, l) of the row configuration:
    both photon assignments summed, divided by the sqrt(2) norms of
    doubly occupied pairs on either side.
    """
    k, l = _FIRST[:, None], _SECOND[:, None]
    i, j = _FIRST[None, :], _SECOND[None, :]
    return (single[k, i] * single[l, j] + single[l, i] * single[k, j]) / _LIFT_NORM


def _beam_splitter_single() -> np.ndarray:
    # Symmetric/antisymmetric convention: early -> (early + late)/sqrt(2),
    # late -> (early - late)/sqrt(2), and identically on the ancilla copies.
    b = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    single = np.zeros((4, 4))
    single[np.ix_((0, 1), (0, 1))] = b
    single[np.ix_((2, 3), (2, 3))] = b
    return single


_BS_TRANSFER = _two_boson_transfer(_beam_splitter_single())


def linear_phase_factors(phi: np.ndarray | float) -> np.ndarray:
    """Diagonal factors exp(i phi n_early) of the linear-phase layer.

    The phase sits on the early bin and its ancilla copy, so a
    configuration picks it up once per early photon.  An array of
    phases gives one row of ten factors per phase.
    """
    return np.exp(1j * np.multiply.outer(phi, _N_EARLY))


def _distinguishability_transfer(theta_perp: float) -> np.ndarray:
    # Rotates the early mode into its ancilla copy; the late mode is
    # left untouched.
    single = np.eye(4, dtype=complex)
    c, s = math.cos(theta_perp), math.sin(theta_perp)
    single[MODE_EARLY, MODE_EARLY] = c
    single[MODE_EARLY_ANCILLA, MODE_EARLY] = s
    single[MODE_EARLY, MODE_EARLY_ANCILLA] = -s
    single[MODE_EARLY_ANCILLA, MODE_EARLY_ANCILLA] = c
    return _two_boson_transfer(single)


def _nonlinear_factors(phi_nl: float, ell_nl: float, eta: float) -> np.ndarray:
    # Two photons in the same time bin scatter as a pair and acquire the
    # nonlinear phase; photons in different bins scatter one at a time
    # and each suffers the extra single-photon loss.
    return eta * np.where(_SAME_BIN, np.exp(1j * phi_nl), 1.0 - ell_nl)


def _layer_transfer(layer: LayerSpec) -> np.ndarray:
    """The layer's action on the ten amplitudes.

    Diagonal layers (linear phase, nonlinear) give a vector of ten
    factors; the others give a 10x10 transfer matrix.
    """
    layer.validate()
    if layer.kind in ("beam_splitter_first", "beam_splitter_second"):
        return _BS_TRANSFER
    if layer.kind == "linear_phase":
        return linear_phase_factors(layer.phi)
    if layer.kind == "distinguishability":
        return _distinguishability_transfer(layer.theta_perp)
    return _nonlinear_factors(layer.phi_nl, layer.ell_nl, layer.eta)


def _apply(transfer: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    # Diagonal factors scale the rows of a vector or of a 10 x n block.
    if transfer.ndim == 1:
        return (transfer * amplitudes.T).T
    return transfer @ amplitudes


def apply_layer(state: TwoPhotonState, layer: LayerSpec) -> TwoPhotonState:
    """Apply one layer, returning a new state."""
    return TwoPhotonState(_apply(_layer_transfer(layer), state.amplitudes))


def circuit_transfer(layers: list[LayerSpec]) -> np.ndarray:
    """The 10x10 matrix of a layer sequence, first layer applied first."""
    transfer = np.eye(N_CONFIGURATIONS, dtype=complex)
    for layer in layers:
        transfer = _apply(_layer_transfer(layer), transfer)
    return transfer


def apply_circuit(state: TwoPhotonState, layers: list[LayerSpec]) -> TwoPhotonState:
    for layer in layers:
        state = apply_layer(state, layer)
    return state


def standard_circuit(
    phi: float,
    phi_nl: float,
    ell_nl: float,
    eta: float = 1.0,
    theta_perp: float = 0.0,
) -> list[LayerSpec]:
    """The balanced interferometer sandwiching the nonlinear element.

    The distinguishability rotation sits between the nonlinear layer
    and the recombining splitter, where it models imperfect
    interference of the early and late scattered wavepackets.
    """
    layers = [
        beam_splitter_first(),
        linear_phase(phi),
        nonlinear(phi_nl, ell_nl, eta),
    ]
    if theta_perp != 0.0:
        layers.append(distinguishability(theta_perp))
    layers.append(beam_splitter_second())
    return layers


def click_weights(amplitudes: np.ndarray) -> np.ndarray:
    """Raw (p20, p11, p02) weights of amplitudes over the last axis.

    Detectors do not resolve the ancilla identity: a photon in the
    early ancilla mode counts as an early-bin photon.
    """
    return np.abs(amplitudes) ** 2 @ _CLICK_BINNING


def detection_probabilities(state: TwoPhotonState) -> DetectionProbabilities:
    """Click-pattern probabilities, summed over ancilla labels."""
    return DetectionProbabilities.from_raw(click_weights(state.amplitudes))
