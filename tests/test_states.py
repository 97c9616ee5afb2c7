"""The two-photon state: the closed-form pair entering the recombiner and the oracles' pair lift."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nltimebin import circuit

from _oracles import (
    pair_tensor_amplitude,
    pair_tensor_click_pattern,
    pair_tensor_evolve,
    pair_tensor_from_configuration,
    splitter_step,
    two_boson_unitary,
)

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_identity_nonlinear_layer_changes_nothing():
    # Without a nonlinearity the pair is two copies of the single-photon
    # state (e^{i phi} eps + l) / sqrt(2) of the linear interferometer.
    phis = np.array([0.0, 0.7, 2.3, -1.1])
    for theta_perp in (0.0, 0.4, math.pi / 2):
        pairs = circuit._recombiner_pair(phis, 0.0, 0.0, theta_perp)
        assert pairs.shape == (phis.size, 4, 4)
        for phi, pair in zip(phis, pairs):
            early = np.exp(1j * phi)
            single = np.array(
                [early * math.cos(theta_perp), 1.0, early * math.sin(theta_perp), 0.0]
            ) / math.sqrt(2.0)
            assert np.max(np.abs(pair - math.sqrt(2.0) * np.outer(single, single))) < 1e-15


def test_full_rotation_moves_pair_into_ancilla():
    phis = np.array([0.7, -2.2, 4.0])
    for aligned, rotated in zip(
        circuit._recombiner_pair(phis, 0.4, 0.1, 0.0),
        circuit._recombiner_pair(phis, 0.4, 0.1, math.pi / 2),
    ):
        assert np.max(np.abs(rotated[0])) < 1e-15
        assert abs(rotated[2, 2] - aligned[0, 0]) < 1e-15
        # Detectors cannot tell the ancilla copy apart, so the click
        # pattern is unchanged.
        deviation = pair_tensor_click_pattern(rotated) - pair_tensor_click_pattern(aligned)
        assert np.max(np.abs(deviation)) < 1e-15


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
    pair = circuit._recombiner_pair(np.array([phi]), phi_nl, 0.0, 0.0)[0]
    raw = pair_tensor_click_pattern(splitter_step(pair))
    assert np.max(np.abs(raw / raw.sum() - expected)) < 1e-12
    assert np.max(np.abs(circuit.model_triple(phi, phi_nl, 0.0)[0] - expected)) < 1e-12


@given(phi=angles, phi_nl=angles, ell=fractions, theta_perp=angles)
def test_raw_norm_after_nonlinear_element(phi, phi_nl, ell, theta_perp):
    pairs = circuit._recombiner_pair(np.array([phi, phi + 1.0, -phi]), phi_nl, ell, theta_perp)
    expected = 0.5 * (1.0 + (1.0 - ell) ** 2)
    assert np.max(np.abs(0.5 * np.sum(np.abs(pairs) ** 2, axis=(1, 2)) - expected)) < 1e-9


def _one_phase_pair(phi, phi_nl, ell_nl, theta_perp):
    # The pair built one phase at a time, with numpy scalars for the phase
    # factors; sampled artifacts were drawn from weights rounded this way.
    early = np.array([math.cos(theta_perp), 0.0, math.sin(theta_perp), 0.0])
    late = np.array([0.0, 1.0, 0.0, 0.0])
    phase = np.exp(1j * phi)
    bunched = np.exp(1j * phi_nl) * (phase * phase * np.outer(early, early) + np.outer(late, late))
    split = (1.0 - ell_nl) * phase * np.outer(early, late)
    return (bunched + split + split.T) / math.sqrt(2.0)


@given(phis=st.lists(angles, min_size=1, max_size=16), phi_nl=angles, ell=fractions, theta_perp=angles)
def test_stacked_pairs_equal_the_one_phase_construction(phis, phi_nl, ell, theta_perp):
    pairs = circuit._recombiner_pair(np.array(phis), phi_nl, ell, theta_perp)
    for phi, pair in zip(phis, pairs):
        assert np.array_equal(pair, _one_phase_pair(np.float64(phi), phi_nl, ell, theta_perp))


def _coincidence_floor(theta_perp: float) -> float:
    phis = np.linspace(0.0, 2.0 * math.pi, 73)
    return float(circuit.model_triple(phis, 0.4, 0.1, theta_perp)[:, 1].min())


def test_distinguishability_lifts_the_coincidence_floor():
    assert _coincidence_floor(0.0) < 1e-12
    for theta in (0.2, 0.7, math.pi / 2):
        assert _coincidence_floor(theta) > 1e-6


@pytest.mark.parametrize(
    "call",
    [
        lambda: circuit.peak_cell_probabilities(0.3, 0.1, -0.2),
        lambda: circuit.peak_cell_probabilities(0.3, 0.1, 1.5),
        lambda: circuit.peak_cell_probabilities(0.3, math.inf, 0.0),
        lambda: circuit.peak_cell_probabilities(math.nan, 0.1, 0.0),
        lambda: circuit.peak_cell_probabilities(0.3, 0.1, 0.0, theta_perp=math.inf),
    ],
)
def test_invalid_layer_parameters_rejected(call):
    with pytest.raises(ValueError, match="^(phi|phi_nl|ell_nl|theta_perp) must be"):
        call()


# The pair basis of ``two_boson_unitary``: (2,0), (0,2), (1,1).
_LIFT_PAIRS = ((0, 0), (1, 1), (0, 1))


def _oracle_transfer(u: np.ndarray) -> np.ndarray:
    """Columns of the pair-space transfer, one basis pair at a time."""
    single = np.eye(4, dtype=complex)
    single[:2, :2] = u
    transfer = np.empty((3, 3), dtype=complex)
    for col, modes_in in enumerate(_LIFT_PAIRS):
        psi = pair_tensor_evolve(pair_tensor_from_configuration(*modes_in), single)
        for row, modes_out in enumerate(_LIFT_PAIRS):
            transfer[row, col] = pair_tensor_amplitude(psi, *modes_out)
    return transfer


@pytest.mark.parametrize("seed", range(5))
def test_lift_matches_pair_tensor_oracle(seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.max(np.abs(two_boson_unitary(u) - _oracle_transfer(u))) < 1e-12
