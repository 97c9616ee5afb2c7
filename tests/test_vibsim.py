"""Two-quanta vibrational dynamics on localized bond modes."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nltimebin import vibsim

from _oracles import (
    WATER_LOCALIZATION,
    configuration_amplitudes,
    evolution_steps,
    pair_occupancies,
    pair_tensor_run,
)

WATER_PERIOD_PS = 1.0 / (2.99792458e10 * 1e-12 * (3740.05 - 3619.68))


def at_time(t: float, harmonic: bool = False) -> vibsim.TracePoint:
    """Water's occupancies at time ``t``: ``linspace`` ends the trace exactly on ``t``."""
    return vibsim.trace(t, 2, vibsim.water_spec())[-1][int(harmonic)]


def occupancies(point: vibsim.TracePoint) -> tuple[float, float, float]:
    return (point.p_same_left, point.p_same_right, point.p_separate)


def test_water_parameters_and_defect_frequencies():
    spec = vibsim.water_spec()
    assert (spec.nu10, spec.nu01) == (3740.05, 3619.68)
    assert (spec.nu20, spec.nu02, spec.nu11) == (7391.43, 7154.35, 7206.46)
    assert abs(spec.nu20 - 2.0 * spec.nu10 + 88.67) < 1e-9
    assert abs(spec.nu02 - 2.0 * spec.nu01 + 85.01) < 1e-9
    assert abs(spec.nu11 - spec.nu10 - spec.nu01 + 153.27) < 1e-9


def test_molecule_spec_validation_and_serialization():
    spec = vibsim.water_spec()
    with pytest.raises(ValueError, match="^nu10 must be a positive frequency"):
        vibsim.MoleculeSpec(
            nu10=-1.0,
            nu01=spec.nu01,
            nu20=spec.nu20,
            nu02=spec.nu02,
            nu11=spec.nu11,
        )


def test_evolution_uses_twelve_layers():
    assert len(evolution_steps(0.2, vibsim.water_spec())) == 12


@settings(deadline=None, max_examples=50)
@given(t=st.floats(1e-3, 1.0), harmonic=st.booleans())
def test_occupancies_conserve_probability(t, harmonic):
    assert abs(sum(occupancies(at_time(t, harmonic))) - 1.0) < 1e-12


def test_evolution_matches_dense_matrix_oracle():
    spec = vibsim.water_spec()
    for t in (0.07, 0.19, 0.333, 0.481):
        for harmonic in (False, True):
            source = spec.harmonic_variant() if harmonic else spec
            freqs = {"nu20": source.nu20, "nu02": source.nu02, "nu11": source.nu11}
            ref = pair_occupancies(t, freqs)
            mine = occupancies(at_time(t, harmonic))
            assert max(abs(a - b) for a, b in zip(mine, ref)) < 1e-12


def test_harmonic_dynamics_factorize_into_single_quanta():
    spec = vibsim.water_spec().harmonic_variant()
    scale = -2.0 * math.pi * 2.99792458e10 * 1e-12
    matrix = WATER_LOCALIZATION
    for t in (0.09, 0.21, 0.38):
        phases = np.diag(np.exp(1j * scale * t * np.array([spec.nu10, spec.nu01])))
        single = matrix.conj().T @ phases @ matrix
        point = at_time(t, harmonic=True)
        assert abs(point.p_same_left - abs(single[0, 0]) ** 4) < 1e-12
        assert abs(point.p_same_right - abs(single[1, 0]) ** 4) < 1e-12
        assert abs(point.p_separate - 2.0 * abs(single[0, 0] * single[1, 0]) ** 2) < 1e-12


def test_harmonic_revival_period():
    for t in (0.11, 0.26):
        now = at_time(t, harmonic=True)
        later = at_time(t + WATER_PERIOD_PS, harmonic=True)
        assert abs(now.p_same_left - later.p_same_left) < 1e-6
        assert abs(now.p_separate - later.p_separate) < 1e-6


def test_trace_starts_pinned_and_splits_the_models():
    points = vibsim.trace(0.5, 51, vibsim.water_spec())
    assert len(points) == 51
    anharmonic, harmonic = points[0]
    assert anharmonic.p_same_left == 1.0
    assert harmonic.p_same_left == 1.0
    for pair in points:
        for point in pair:
            total = point.p_same_left + point.p_same_right + point.p_separate
            assert abs(total - 1.0) < 1e-12
    divergence = max(abs(a.p_same_left - h.p_same_left) for a, h in points)
    assert divergence > 0.05


def test_evolve_input_guards():
    spec = vibsim.water_spec()
    with pytest.raises(ValueError):
        vibsim.trace(0.5, 1, spec)
    with pytest.raises(ValueError):
        vibsim.trace(-1.0, 10, spec)
    # A time whose phase overflows, or exceeds 1e13 rad and so rounds by
    # more than 1e-3 rad, is rejected before numpy warns about it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for exponent in ("308", "300"):
            with pytest.raises(ValueError, match=rf"^t_max = 1e\+{exponent} ps is too long"):
                vibsim.trace(float(f"1e{exponent}"), 3, spec)


def test_layer_products_stay_in_the_photonic_basis():
    psi = pair_tensor_run(evolution_steps(0.3, vibsim.water_spec()), 0, 0)
    assert abs(np.sum(np.abs(configuration_amplitudes(psi)) ** 2) - 1.0) < 1e-12


def test_layer_circuit_reproduces_the_lifted_propagator():
    # The twelve-layer pair-tensor circuit of water against the trace.
    for harmonic in (False, True):
        for t in (0.07, 0.23, 0.41):
            steps = evolution_steps(t, vibsim.water_spec(), harmonic)
            assert len(steps) == 12
            weights = np.abs(configuration_amplitudes(pair_tensor_run(steps, 0, 0))) ** 2
            mine = occupancies(at_time(t, harmonic))
            assert np.max(np.abs(np.array(mine) - weights[:3])) < 1e-12
            assert np.max(weights[3:]) < 1e-24


def test_zero_time_is_the_exact_input():
    for point in vibsim.trace(0.5, 3, vibsim.water_spec())[0]:
        assert point.t == 0.0
        assert occupancies(point) == (1.0, 0.0, 0.0)
