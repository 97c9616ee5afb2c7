"""The two-photon state: the closed-form pair entering the recombiner and the pair lift."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nltimebin import circuit, vibsim

from _oracles import (
    pair_tensor_amplitude,
    pair_tensor_click_pattern,
    pair_tensor_evolve,
    pair_tensor_from_configuration,
    splitter_step,
)

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_identity_nonlinear_layer_changes_nothing():
    # Without a nonlinearity the pair is two copies of the single-photon
    # state (e^{i phi} eps + l) / sqrt(2) of the linear interferometer.
    for phi, theta_perp in ((0.0, 0.0), (0.7, 0.0), (2.3, 0.4), (-1.1, math.pi / 2)):
        single = np.array(
            [np.exp(1j * phi) * math.cos(theta_perp), 1.0, np.exp(1j * phi) * math.sin(theta_perp), 0.0]
        ) / math.sqrt(2.0)
        pair = circuit._recombiner_pair(phi, 0.0, 0.0, theta_perp)
        assert np.max(np.abs(pair - math.sqrt(2.0) * np.outer(single, single))) < 1e-15


def test_full_rotation_moves_pair_into_ancilla():
    aligned = circuit._recombiner_pair(0.7, 0.4, 0.1, 0.0)
    rotated = circuit._recombiner_pair(0.7, 0.4, 0.1, math.pi / 2)
    assert np.max(np.abs(rotated[0])) < 1e-15
    assert abs(rotated[2, 2] - aligned[0, 0]) < 1e-15
    # Detectors cannot tell the ancilla copy apart, so the click
    # pattern is unchanged.
    assert np.max(np.abs(pair_tensor_click_pattern(rotated) - pair_tensor_click_pattern(aligned))) < 1e-15


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
    raw = pair_tensor_click_pattern(splitter_step(circuit._recombiner_pair(phi, phi_nl, 0.0, 0.0)))
    assert np.max(np.abs(raw / raw.sum() - expected)) < 1e-12
    assert np.max(np.abs(circuit.model_triple(phi, phi_nl, 0.0)[0] - expected)) < 1e-12


@given(phi=angles, phi_nl=angles, ell=fractions, theta_perp=angles)
def test_raw_norm_after_nonlinear_element(phi, phi_nl, ell, theta_perp):
    pair = circuit._recombiner_pair(phi, phi_nl, ell, theta_perp)
    expected = 0.5 * (1.0 + (1.0 - ell) ** 2)
    assert abs(0.5 * np.sum(np.abs(pair) ** 2) - expected) < 1e-9


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


# The pair basis of ``vibsim._pair_lift``: (2,0), (0,2), (1,1).
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
    assert np.max(np.abs(vibsim._pair_lift(u) - _oracle_transfer(u))) < 1e-12
