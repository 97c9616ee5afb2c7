"""Amplitude-level pair evolution: conventions, norms, worked statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nltimebin import states

from _oracles import pair_tensor_amplitude, pair_tensor_evolve, pair_tensor_from_configuration

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _random_state(seed: int) -> states.TwoPhotonState:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=states.N_CONFIGURATIONS) + 1j * rng.normal(size=states.N_CONFIGURATIONS)
    return states.TwoPhotonState(amps / np.linalg.norm(amps))


def test_new_input_is_both_photons_early():
    state = states.new_input()
    assert state.norm_squared == 1.0
    assert state.amplitude((2, 0, 0, 0)) == 1.0
    probs = states.detection_probabilities(state)
    assert probs.raw == (1.0, 0.0, 0.0)
    assert probs.renormalized == (1.0, 0.0, 0.0)


def test_beam_splitter_applied_twice_is_identity():
    state = states.new_input()
    for _ in range(2):
        state = states.apply_layer(state, states.beam_splitter_first())
    dev = np.max(np.abs(state.amplitudes - states.new_input().amplitudes))
    assert dev < 1e-12


def test_identity_nonlinear_layer_changes_nothing():
    state = _random_state(5)
    out = states.apply_layer(state, states.nonlinear(0.0, 0.0, 1.0))
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_full_rotation_moves_pair_into_ancilla():
    out = states.apply_layer(states.new_input(), states.distinguishability(math.pi / 2))
    assert abs(out.amplitude((0, 0, 2, 0)) - 1.0) < 1e-12
    # Detectors cannot tell the ancilla copy apart, so the click
    # pattern is unchanged.
    assert states.detection_probabilities(out).renormalized[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "phi, phi_nl, expected",
    [
        (0.0, 0.0, (1.0, 0.0, 0.0)),
        (math.pi / 2, 0.0, (0.25, 0.5, 0.25)),
        (math.pi / 2, 1.234, (0.25, 0.5, 0.25)),
        (0.0, math.pi, (0.0, 0.0, 1.0)),
    ],
)
def test_ideal_circuit_statistics(phi, phi_nl, expected):
    out = states.apply_circuit(states.new_input(), states.standard_circuit(phi, phi_nl, 0.0))
    renorm = states.detection_probabilities(out).renormalized
    assert max(abs(a - b) for a, b in zip(renorm, expected)) < 1e-12


@given(
    st.lists(
        st.tuples(st.sampled_from(["bs1", "bs2", "phase", "rotate"]), angles),
        max_size=6,
    )
)
def test_lossless_layers_preserve_norm(sequence):
    builders = {
        "bs1": lambda _: states.beam_splitter_first(),
        "bs2": lambda _: states.beam_splitter_second(),
        "phase": states.linear_phase,
        "rotate": states.distinguishability,
    }
    state = _random_state(11)
    for kind, value in sequence:
        state = states.apply_layer(state, builders[kind](value))
    assert abs(state.norm_squared - 1.0) < 1e-12


@given(phi=angles, phi_nl=angles, ell=fractions, eta=fractions)
def test_raw_norm_after_nonlinear_element(phi, phi_nl, ell, eta):
    layers = [
        states.beam_splitter_first(),
        states.linear_phase(phi),
        states.nonlinear(phi_nl, ell, eta),
    ]
    out = states.apply_circuit(states.new_input(), layers)
    expected = 0.5 * eta**2 * (1.0 + (1.0 - ell) ** 2)
    assert abs(out.norm_squared - expected) < 1e-9


def _coincidence_floor(theta_perp: float) -> float:
    lowest = 1.0
    for phi in np.linspace(0.0, 2.0 * math.pi, 73):
        layers = states.standard_circuit(float(phi), 0.4, 0.1, theta_perp=theta_perp)
        probs = states.detection_probabilities(
            states.apply_circuit(states.new_input(), layers)
        )
        lowest = min(lowest, probs.renormalized[1])
    return lowest


def test_distinguishability_lifts_the_coincidence_floor():
    assert _coincidence_floor(0.0) < 1e-12
    for theta in (0.2, 0.7, math.pi / 2):
        assert _coincidence_floor(theta) > 1e-6


@pytest.mark.parametrize(
    "layer",
    [
        lambda: states.nonlinear(0.1, -0.2, 1.0),
        lambda: states.nonlinear(0.1, 0.2, 1.5),
        lambda: states.nonlinear(math.inf, 0.0, 1.0),
        lambda: states.linear_phase(math.nan),
        lambda: states.distinguishability(math.inf),
    ],
)
def test_invalid_layer_parameters_rejected(layer):
    with pytest.raises(ValueError):
        states.apply_layer(states.new_input(), layer())


def test_degenerate_state_has_no_renormalized_triple():
    empty = states.TwoPhotonState(np.zeros(states.N_CONFIGURATIONS))
    probs = states.detection_probabilities(empty)
    assert probs.raw == (0.0, 0.0, 0.0)
    assert probs.renormalized is None


def test_amplitude_vector_shape_is_guarded():
    with pytest.raises(ValueError):
        states.TwoPhotonState(np.zeros(9))


def test_state_amplitudes_are_read_only():
    state = states.new_input()
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def _modes(occupation):
    return tuple(m for m in range(4) for _ in range(occupation[m]))


def _oracle_transfer(single: np.ndarray) -> np.ndarray:
    """Columns of the pair-space transfer, one basis configuration at a time."""
    transfer = np.empty((states.N_CONFIGURATIONS, states.N_CONFIGURATIONS), dtype=complex)
    for col, occ_in in enumerate(states.CONFIGURATIONS):
        psi = pair_tensor_evolve(pair_tensor_from_configuration(*_modes(occ_in)), single)
        for row, occ_out in enumerate(states.CONFIGURATIONS):
            transfer[row, col] = pair_tensor_amplitude(psi, *_modes(occ_out))
    return transfer


@pytest.mark.parametrize("seed", range(5))
def test_lift_matches_pair_tensor_oracle(seed):
    rng = np.random.default_rng(seed)
    single = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    lift = states._two_boson_transfer(single)
    assert np.max(np.abs(lift - _oracle_transfer(single))) < 1e-12


@given(phi=angles)
def test_linear_phase_factors_are_the_lifted_diagonal(phi):
    single = np.diag(np.exp(1j * phi * np.array([1.0, 0.0, 1.0, 0.0])))
    factors = states.linear_phase_factors(phi)
    assert np.max(np.abs(np.diag(factors) - _oracle_transfer(single))) < 1e-12
